#!/usr/bin/env python3
"""Benchmark for lt-tight.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (see NOTES.md) from the root of a source checkout,
importing ``lttight`` from ``src/``.  The workload is a closed loop in
one thread: each job is an ``lt-tight`` command run through
``lttight.cli.run`` and starts when the previous one has finished.  A
pass runs every job of the workload once; passes repeat while the next
one, at the median length so far, still ends within ``--seconds``, and
every job's output is checked against its known answer.

With ``--trace 0`` the run reports the end-to-end metrics, with times in
reference seconds (see calibrate.py).  With
``--trace 1`` each pass runs twice, untraced and then traced by
``tracer.py``; the run reports per-layer metrics and the tracing
overhead, and a traced job whose output differs from the untraced one
counts as failed.

Human-readable lines come first; the last line of stdout is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  Exit code 2, with no result, when set-up fails (for
example when ``src/lttight`` is missing).
"""

from __future__ import annotations

import argparse
import gc
import importlib
import io
import json
import os
import resource
import statistics
import sys
import tempfile
import types
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

import workloads as wl
from calibrate import NOMINAL_S, reference
from tracer import Tracer

ROOT = wl.BENCH_DIR.parent
SRC = ROOT / "src"
MODULES = ("cli", "completion", "equiv", "fixtures", "parser", "semantics",
           "tightness")
SETUP_REPEATS = 7       # timed set-ups, after one untimed warm-up
MAX_FAIL_LINES = 20


# ---------------------------------------------------------------------------
# Set-up: import, fixture construction, parsing, input generation

class SetupError(Exception):
    pass


def import_lttight():
    """A fresh import of lttight from the checkout's src/."""
    for name in [n for n in sys.modules
                 if n == "lttight" or n.startswith("lttight.")]:
        del sys.modules[name]
    lib = types.SimpleNamespace(**{
        m: importlib.import_module(f"lttight.{m}") for m in MODULES})
    where = Path(lib.cli.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise ImportError(f"lttight was imported from {where}, not {SRC}")
    return lib


def setup(workload: str, seed: int, directory: Path):
    """Set-up time in seconds and in reference seconds, the library and
    the pool of passes."""
    before = reference()
    start = perf_counter()
    lib = import_lttight()
    pool = wl.make_pool(workload, seed, lib, wl.load_goldens(), directory)
    took = perf_counter() - start
    return took, took * NOMINAL_S / ((before + reference()) / 2), lib, pool


# ---------------------------------------------------------------------------
# Running and checking jobs

def run_job(cli, job: wl.Job) -> wl.Outcome:
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.run(list(job.argv))
    except Exception as exc:  # a job that raises fails; the run goes on
        message = str(exc).splitlines()[0] if str(exc) else ""
        return wl.Outcome(None, out.getvalue(),
                          f"{type(exc).__name__}: {message}")
    return wl.Outcome(code, out.getvalue(), err.getvalue())


def run_pass(cli, jobs: list, after_job=None):
    """Time of one pass, summed over its jobs from each call until its
    verdict is in, in seconds and in reference seconds; and each job's
    outcome.  The reference is timed before the first job and after
    each job, and a job's time is scaled by the mean of the two
    reference times around it."""
    gc.collect()
    outcomes, took, scaled = [], 0.0, 0.0
    before = reference()
    for job in jobs:
        start = perf_counter()
        outcomes.append(run_job(cli, job))
        t = perf_counter() - start
        if after_job is not None:
            after_job(job)
        after = reference()
        took += t
        scaled += t * NOMINAL_S / ((before + after) / 2)
        before = after
    return took, scaled, outcomes


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, job: wl.Job, cause) -> None:
        self.attempted += 1
        if cause is None:
            return
        self.failed += 1
        if self.failed <= MAX_FAIL_LINES:
            print(f"FAIL {job.label}: {cause}", file=sys.stderr)

    def check(self, jobs: list, outcomes: list) -> None:
        for job, outcome in zip(jobs, outcomes):
            self.record(job, wl.failure_cause(job, outcome))


# ---------------------------------------------------------------------------
# Untraced and traced loops

def laps(seconds: float):
    """Yield lap numbers while another lap, as long as the median one so
    far, ends within ``seconds``; the first lap always runs."""
    start = perf_counter()
    lengths = []
    while not lengths or (perf_counter() - start
                          + statistics.median(lengths) <= seconds):
        began = perf_counter()
        yield len(lengths)
        lengths.append(perf_counter() - began)


def measure(lib, pool: list, seconds: float, tally: Tally):
    """Pass times in seconds and in reference seconds."""
    walls, scaled = [], []
    for lap in laps(seconds):
        jobs = pool[lap % len(pool)]
        wall, wall_ref, outcomes = run_pass(lib.cli, jobs)
        walls.append(wall)
        scaled.append(wall_ref)
        tally.check(jobs, outcomes)
    return walls, scaled


def layer_metrics(stats) -> dict:
    """Per-layer values of one traced pass; every time is a self time."""
    def own(*names):
        return sum(stats[n].self for n in names)

    def calls(*names):
        return sum(stats[n].calls for n in names)

    sat_equiv = ("equiv.satisfies_fo.gamma", "equiv.satisfies_fo.comp")
    checks = ("equiv.check_equivalence", "equiv.check_proposition3")
    enum = ("equiv.enumerate", "tightness.enumerate")
    checked = sum(stats[n].items for n in checks)
    examined = sum(stats[n].examined for n in checks)
    refute = stats["tightness.refute"]
    return {
        "semantics.ground_program_s": own("semantics.ground_program"),
        "semantics.ground_program_calls": calls("semantics.ground_program"),
        "semantics.satisfies_fo_s.from_equiv": own(*sat_equiv),
        "semantics.satisfies_fo_calls.from_equiv": calls(*sat_equiv),
        "semantics.satisfies_fo_s.from_tightness": own("tightness.satisfies_fo"),
        "semantics.satisfies_fo_calls.from_tightness":
            calls("tightness.satisfies_fo"),
        "semantics.is_stable_s": own("semantics.is_stable"),
        "semantics.is_stable_calls": calls("semantics.is_stable"),
        "semantics.is_stable_atoms_max": stats["semantics.is_stable"].peak,
        "semantics.is_sm_model_self_s": own("semantics.is_sm_model"),
        "completion.desugar_s": own("completion.desugar"),
        "completion.desugar_calls": calls("completion.desugar"),
        "semantics.enumerate_s": own(*enum),
        "semantics.enumerated": sum(stats[n].items for n in enum),
        "semantics.sample_s": own("equiv.sample"),
        "semantics.sampled": calls("equiv.sample"),
        "equiv.gamma_s": own("equiv.satisfies_fo.gamma"),
        "equiv.comp_s": own("equiv.satisfies_fo.comp"),
        "equiv.checked": checked,
        "equiv.skipped": examined - checked,
        "equiv.gamma_pass_ratio": checked / examined if examined else 0.0,
        "equiv.self_s": own(*checks),
        "tightness.refute_s": own("tightness.refute"),
        "tightness.refute_calls": refute.calls,
        "tightness.refuted_ratio":
            refute.items / refute.calls if refute.calls else 0.0,
        "tightness.substitute_s": own("tightness.substitute"),
        "tightness.substitute_calls": calls("tightness.substitute"),
        "completion.simplify_s": own("completion.simplify"),
        "completion.simplify_calls": calls("completion.simplify"),
        "tightness.chains_s": own("tightness.chains"),
        "tightness.chains_count": stats["tightness.chains"].items,
        "tightness.chain_formula_s": own("tightness.chain_formula"),
        "tightness.countermodel_s":
            own("tightness.enumerate", "tightness.satisfies_fo"),
        "tightness.countermodel_interps": stats["tightness.enumerate"].items,
        "tightness.check_gamma_tight_self_s":
            own("tightness.check_gamma_tight"),
        "parser.parse_s": own("parser.parse"),
        "parser.parse_calls": calls("parser.parse"),
        "fixtures.build_s": own("fixtures.build"),
        "completion.completion_s": own("completion.completion"),
        "cli.self_s": own("cli.run"),
    }


def unit_of(name: str) -> str:
    if name.endswith("_s") or "_s." in name:
        return "s"
    return "ratio" if name.endswith("_ratio") else "count"


def measure_traced(lib, pool: list, seconds: float, tally: Tally):
    """Alternate untraced and traced passes over the same jobs.  Returns
    both pass times in reference seconds, the per-layer values of each traced pass, one
    record per job of the first traced pass, and the entry points this
    version of lttight lacks."""
    tracer = Tracer()
    modules = vars(lib)
    untraced, traced, layers, records = [], [], [], []
    checks = ("equiv.check_equivalence", "equiv.check_proposition3")
    totals = [0, 0, 0, 0]

    def record(job):
        now = [sum(tracer.stats[n].examined for n in checks),
               sum(tracer.stats[n].items for n in checks),
               tracer.stats["tightness.chains"].items,
               tracer.stats["tightness.enumerate"].items]
        records.append((job, *[a - b for a, b in zip(now, totals)]))
        totals[:] = now

    for lap in laps(seconds):
        jobs = pool[lap % len(pool)]
        _, wall, plain = run_pass(lib.cli, jobs)
        untraced.append(wall)
        tally.check(jobs, plain)
        tracer.reset()
        tracer.install(modules)
        try:
            _, wall, seen = run_pass(lib.cli, jobs,
                                     after_job=None if records else record)
        finally:
            tracer.uninstall()
        traced.append(wall)
        layers.append(layer_metrics(tracer.stats))
        for job, a, b in zip(jobs, plain, seen):
            tally.record(job, None if a == b else
                         "traced output differs from the untraced output")
    return untraced, traced, layers, records, tracer.missing


# ---------------------------------------------------------------------------
# Reporting

def spread(values: list) -> str:
    line = f"median={statistics.median(values):.6g}"
    if len(values) >= 4:
        q1, _, q3 = statistics.quantiles(values, n=4)
        line += f" q1={q1:.6g} q3={q3:.6g}"
    return line + f" min={min(values):.6g} max={max(values):.6g} n={len(values)}"


def machine_line() -> str:
    load = " ".join(f"{x:.2f}" for x in os.getloadavg())
    return (f"machine: nproc={len(os.sched_getaffinity(0))} "
            f"python={sys.version.split()[0]} loadavg_at_start={load}")


def report_untraced(pool, walls, wall_ref, setups, setup_ref,
                    tally) -> dict:
    """Print every end-to-end metric; return those of BENCHMARK.json,
    whose times are in reference seconds."""
    jobs = pool[0]
    wall = statistics.median(walls)
    interps = sum(j.interps for j in jobs)
    chains = sum(j.chains for j in jobs)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"wall_s        {spread(wall_ref)} reference s")
    print(f"  raw         {spread(walls)} s")
    print("interps_per_s " + (f"{interps / wall:.6g} 1/s ({interps} "
          "interpretations per pass)" if interps else "n/a (none examined)"))
    print("chains_per_s  " + (f"{chains / wall:.6g} 1/s ({chains} chains "
          "per pass)" if chains else "n/a (no chains decided)"))
    print(f"setup_s       {spread(setup_ref)} reference s")
    print(f"  raw         {spread(setups)} s")
    print(f"peak_rss_mb   {rss_mb:.6g} MB")
    print(f"failed_share  {tally.failed}/{tally.attempted} = "
          f"{tally.failed / tally.attempted:.6g}")
    return {"wall_s": (statistics.median(wall_ref), "s"),
            "setup_s": (statistics.median(setup_ref), "s"),
            "peak_rss_mb": (rss_mb, "MB")}


def report_traced(untraced, traced, layers, records, missing) -> dict:
    for name in missing:
        print(f"trace: entry point {name} not found; its layer reads 0")
    print("inputs (first pass): job | |J| | examined | checked | gamma pass"
          " | chains | countermodel interps")
    for job, examined, checked, chains, countermodel in records:
        ratio = f"{checked / examined:.3g}" if examined else "-"
        print(f"  {job.label} | {job.atoms or '-'} | {examined} | {checked}"
              f" | {ratio} | {chains} | {countermodel}")
    out = {name: (statistics.median(p[name] for p in layers), unit_of(name))
           for name in layers[0]}
    overhead = statistics.median(traced) - statistics.median(untraced)
    out["trace.overhead_s"] = (overhead, "s")
    print(f"untraced wall_s {spread(untraced)} reference s")
    print(f"traced wall_s   {spread(traced)} reference s")
    for name, (value, unit) in out.items():
        print(f"{name:45s} {value:.6g} {unit}")
    return out


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Set up, measure and print; returns the result object."""
    print(machine_line())
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".bench-tmp-") as tmp:
        try:
            setup(workload, seed, Path(tmp))     # warm-up: bytecode, files
            setups, setup_ref = [], []
            for _ in range(SETUP_REPEATS):
                took, scaled, lib, pool = setup(workload, seed, Path(tmp))
                setups.append(took)
                setup_ref.append(scaled)
        except (ImportError, OSError, KeyError, ValueError) as exc:
            raise SetupError(f"{type(exc).__name__}: {exc}") from exc
        print(f"workload={workload} seed={seed} seconds={seconds} "
              f"trace={int(trace)} jobs_per_pass={len(pool[0])} "
              f"distinct_passes={len(pool)}")
        tally = Tally()
        if trace:
            results = measure_traced(lib, pool, seconds, tally)
            print(f"passes={len(results[0])} (each untraced and traced)")
            metrics = report_traced(*results)
        else:
            walls, wall_ref = measure(lib, pool, seconds, tally)
            print(f"passes={len(walls)}")
            metrics = report_untraced(pool, walls, wall_ref, setups,
                                      setup_ref, tally)
    return {"correct": tally.failed == 0, "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in metrics.items()}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # A user's guard setting must not change the workloads.
    os.environ.pop("LT_TIGHT_GUARD_CEILING", None)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except SetupError as exc:
        print(f"error: set-up failed: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
