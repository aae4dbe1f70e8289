#!/usr/bin/env python3
"""Record the known answers of the benchmark's fixed jobs.

    python3 bench/record_goldens.py

Runs each fixed job once through ``lttight.cli.run`` from the checkout's
``src/`` and writes ``bench/goldens.json``: its exit code, the sha256 of
its stdout, its verdict line and, for check-gamma-tight, the number of
length-n chains it decides.  For check-prop3, whose seeded report always
answers ``agree``, it writes the report as a template over the seed and
the sample count.  Only re-record when a change to the reports is
intended; the benchmark fails every job whose output differs.
"""

from __future__ import annotations

import json
import re
import sys

import run
import workloads as wl


def record_fixed(lib, argv: tuple) -> dict:
    label = " ".join(argv)
    job = wl.Job(label, tuple(wl.resolve(a) for a in argv), frozenset(), 0)
    outcome = run.run_job(lib.cli, job)
    if outcome.exit_code not in (0, 1) or outcome.stderr:
        raise SystemExit(f"{label}: exit {outcome.exit_code} "
                         f"{outcome.stderr.strip()}")
    lines = outcome.stdout.splitlines()
    verdict = next((x for x in lines if x.startswith("VERDICT")), lines[0])
    chains = 0
    if argv[0] == "check-gamma-tight":
        n = int(argv[argv.index("--n") + 1])
        prog = wl.load_program(lib, argv[1])
        chains = sum(1 for _ in lib.tightness.chains(prog, n))
    return {"exit": outcome.exit_code, "sha256": wl.digest(outcome.stdout),
            "verdict": verdict, "chains": chains}


def prop3_output(lib, k: int, count: int, seed: int) -> str:
    argv = ("check-prop3", "--k", str(k), "--sample", str(count),
            "--seed", str(seed))
    outcome = run.run_job(lib.cli, wl.Job(" ".join(argv), argv,
                                          frozenset(), 0))
    if outcome.exit_code != 0:
        raise SystemExit(f"{' '.join(argv)}: exit {outcome.exit_code}")
    return outcome.stdout


def record_prop3(lib, k: int) -> dict:
    text = prop3_output(lib, k, 3, 101)
    template = (text.replace("{", "{{").replace("}", "}}")
                .replace("seed=101, count=3", "seed={seed}, count={count}"))
    if template.format(seed=202, count=4) != prop3_output(lib, k, 4, 202):
        raise SystemExit(f"check-prop3 --k {k}: report is not a template "
                         "over seed and count")
    directed = int(re.search(r"\+ (\d+) directed", text).group(1))
    return {"template": template, "directed": directed}


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    lib = run.import_lttight()
    goldens = {
        "jobs": {" ".join(a): record_fixed(lib, a)
                 for a in wl.EQUIV_ARGVS + wl.GAMMA_ARGVS},
        "prop3": {str(k): record_prop3(lib, k) for k, _ in wl.PROP3_JOBS},
    }
    with open(wl.GOLDENS, "w", encoding="utf-8") as handle:
        json.dump(goldens, handle, indent=1, sort_keys=True)
        handle.write("\n")
    for label, g in goldens["jobs"].items():
        print(f"{label}: exit {g['exit']}, {g['verdict']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
