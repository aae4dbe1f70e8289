"""Smoke test of the benchmark itself, at tiny sizes.

    python3 -m pytest -q bench/test_smoke.py

Checks that the goldens load, that a run emits exactly the metrics
BENCHMARK.json names, that the tracer leaves no wrapper installed, that
a wrong expected answer counts as a failure, that the generated
stable-minimality inputs have the answers the benchmark expects, and
that the benchmark refuses to run without the library.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys

import pytest

import run
import tracer
import workloads as wl

sys.path.insert(0, str(run.SRC))

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text("utf-8"))


@pytest.fixture
def tiny(monkeypatch):
    """Shrink every workload to a pass of a fraction of a second."""
    monkeypatch.setattr(wl, "POOL_SIZE", 1)
    monkeypatch.setattr(wl, "PROP3_JOBS", ((1, 3), (2, 2)))
    monkeypatch.setattr(wl, "STABLE_SIZES", (12,))
    monkeypatch.setattr(wl, "EQUIV_ARGVS", (wl.EQUIV_ARGVS[1],))
    monkeypatch.setattr(wl, "GAMMA_ARGVS",
                        (wl.GAMMA_ARGVS[0], wl.GAMMA_ARGVS[4]))
    monkeypatch.setattr(run, "SETUP_REPEATS", 2)


def test_goldens_cover_every_fixed_job():
    goldens = wl.load_goldens()
    for argv in wl.EQUIV_ARGVS + wl.GAMMA_ARGVS:
        entry = goldens["jobs"][" ".join(argv)]
        assert entry["exit"] in (0, 1) and len(entry["sha256"]) == 64
    for k, _ in wl.PROP3_JOBS:
        assert "{seed}" in goldens["prop3"][str(k)]["template"]


def expected_metrics(kind: str) -> dict:
    return {m["name"]: m["unit"] for m in SPEC[kind]}


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_every_metric_is_emitted(tiny, workload):
    for trace, kind in ((False, "end_to_end"), (True, "per_layer")):
        result = run.run(workload, seed=3, seconds=0, trace=trace)
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1
        emitted = {k: v["unit"] for k, v in result["metrics"].items()}
        assert emitted == expected_metrics(kind)
        assert all(isinstance(v["value"], (int, float))
                   for v in result["metrics"].values())


def test_tracer_leaves_no_wrapper(tiny):
    result = run.run("gamma-tight", seed=3, seconds=0, trace=True)
    assert result["correct"]
    modules = {m: sys.modules[f"lttight.{m}"] for m in run.MODULES}
    assert tracer.installed_wrappers(modules) == []

    t = tracer.Tracer()
    t.install(modules)
    try:
        assert t.missing == []
        assert len(tracer.installed_wrappers(modules)) == len(tracer.POINTS)
    finally:
        t.uninstall()
    assert tracer.installed_wrappers(modules) == []


def test_wrong_expected_answer_counts_as_failed(tiny, monkeypatch):
    goldens = wl.load_goldens()
    label = " ".join(wl.EQUIV_ARGVS[0])   # ex1, in the tiny set
    goldens["jobs"][label]["exit"] = 1      # ex1 really agrees: exit 0
    monkeypatch.setattr(wl, "load_goldens", lambda: goldens)
    result = run.run("equiv-exhaustive", seed=3, seconds=0, trace=False)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] == 1


def test_stable_inputs_have_the_expected_answers():
    """Checked against the successor-state formulas, not against the
    stable-model check the benchmark measures."""
    lib = run.import_lttight()
    formulas = (lib.fixtures.moving_constraint_formulas(1)
                + lib.fixtures.moving_successor_state_formulas(1))
    rng = random.Random(7)
    for size in wl.STABLE_SIZES:
        for drift in (False, True):
            consts, exts = wl.moving1_interpretation(rng, size, drift)
            assert sum(len(t) for t in exts.values()) == size
            interp = lib.semantics.make_interpretation(
                wl.STABLE_UNIVERSE, consts, exts)
            holds = all(lib.semantics.satisfies_fo(interp, f)
                        for f in formulas)
            assert holds != drift


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(wl.BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "gamma-tight",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
