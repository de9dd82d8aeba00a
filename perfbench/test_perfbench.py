"""Checks of the benchmark itself (not part of the package's test suite).

Run from the repository root:

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

# Counts, ratios and sizes must repeat exactly; times and shares of time may not.
EXACT_UNITS = {"count", "ratio", "bytes"}
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _declared(section):
    return {m["name"]: m["unit"] for m in SPEC[section]}


def _printed(result):
    return {k: v["unit"] for k, v in result["metrics"].items()}


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=str(cwd), capture_output=True, text=True, timeout=170,
    )


def _result(workload, seed, trace):
    proc = _run("--workload", workload, "--seed", str(seed), "--seconds", "1", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_workloads_match_the_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_untraced_run_prints_every_end_to_end_metric():
    result = _result("sweep_wide", 11, 0)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert _printed(result) == _declared("end_to_end")
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_counts_repeat_for_a_seed(workload):
    first, second = _result(workload, 11, 1), _result(workload, 11, 1)
    assert first["correct"] and second["correct"]
    assert first["failed"] == 0
    assert _printed(first) == _declared("per_layer")
    exact = {k: v["value"] for k, v in first["metrics"].items() if v["unit"] in EXACT_UNITS}
    assert exact == {k: second["metrics"][k]["value"] for k in exact}
    assert "xreal.fold.calls" in exact and "fields.quad.calls" in exact


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_decides_the_inputs(tmp_path, workload):
    digest = {s: workloads.make_workload(workload, s, tmp_path).digest for s in (1, 2)}
    assert digest[1] != digest[2]
    assert workloads.make_workload(workload, 1, tmp_path).digest == digest[1]


def test_sweep_sample_is_stratified_and_keeps_set_edges(tmp_path):
    wl = workloads.make_workload("sweep_tight", 5, tmp_path)
    jobs = workloads.partition.sweep_pairs(wl.cfg, workloads.TIGHT_SETS)
    sizes = {s: sum(1 for j in jobs if j[0] == s) for s in workloads.TIGHT_SETS}
    taken = {s: [j[1] for j in wl.items if j[0] == s] for s in workloads.TIGHT_SETS}
    assert len(wl.items) == workloads.TIGHT_PAIRS
    interior = workloads.TIGHT_PAIRS - 2 * len(workloads.TIGHT_SETS)
    for s, idx in taken.items():
        assert {0, sizes[s] - 1} <= set(idx)
        assert abs(len(idx) - 2 - interior * sizes[s] / len(jobs)) < 1


def test_missing_layer_is_reported_absent_and_wrappers_come_off():
    from abcertify import certify

    original = certify.check_pair
    sites = (
        ("abcertify.certify", "_no_such_stage", "certify.build_window", None),
        ("abcertify.certify", "check_pair", "certify.check_pair", None),
    )
    tracer = tracing.Tracer()
    tracer.install(sites)
    try:
        assert tracer.absent == ["certify.build_window"]
        assert certify.check_pair is not original
    finally:
        tracer.uninstall()
    assert certify.check_pair is original


def test_self_time_excludes_children():
    tracer = tracing.Tracer()
    ids = {n: i for i, n in enumerate(tracer.names)}
    outer = tracer.open(ids["certify.check_pair"])
    inner = tracer.open(ids["xreal.fold"])
    tracer.close(inner)
    tracer.close(outer)
    tracer.start[:] = [0, 10]
    tracer.end[:] = [100, 40]
    own = tracer.self_ns()
    assert own[ids["certify.check_pair"]] == 70
    assert own[ids["xreal.fold"]] == 30


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run("--workload", "sweep_tight", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
