"""The benchmark's own tests: a reduced (smoke) pass of every workload, plain
and traced, plus the correctness checks on fabricated outputs.

    python3 -m pytest -q perfbench

About a minute on two cores.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
# seeded failures in the smoke passes: the drive-series verify_cutoff rerun
# and the dense crb at N_b = 100
SMOKE_KNOWN = {"capture": 1, "metro_sweep": 0, "metro_bound": 1}

sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))
import child  # noqa: E402


def _run(out: Path, workload: str, trace: int, bench: Path = HERE):
    cmd = [sys.executable, str(bench / "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "1", "--trace", str(trace), "--smoke",
           "--out", str(out)]
    return subprocess.run(cmd, capture_output=True, text=True, timeout=170,
                          cwd=bench.parent)


def _result(out: Path, workload: str, trace: int):
    proc = _run(out, workload, trace)
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    record = json.loads(next(out.glob("result-*.json")).read_text())
    return last, record


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_end_to_end(tmp_path, workload):
    last, record = _result(tmp_path, workload, 0)
    assert last["correct"] is True
    assert last["failed"] == 0 and last["attempted"] >= 1
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in last["metrics"].items()} == units
    assert all(v["value"] > 0 for v in last["metrics"].values())
    # seeded failures are counted, not raised and not dropped
    assert record["outcome"]["known"] == SMOKE_KNOWN[workload]
    assert record["fail_ratio"] == pytest.approx(
        SMOKE_KNOWN[workload] / last["attempted"])
    env = record["env"]
    for key in ("nproc", "python", "numpy", "scipy", "openblas", "blas_threads",
                "OPENBLAS_NUM_THREADS", "CWL_THREADS"):
        assert key in env
    assert record["commit"] and record["seed"] == 3


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_traced(tmp_path, workload):
    last, record = _result(tmp_path, workload, 1)
    assert last["correct"] is True and last["failed"] == 0
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    got = {k: v["unit"] for k, v in last["metrics"].items()}
    assert got == units
    m = {k: v["value"] for k, v in last["metrics"].items()}
    assert m["model.rhs_s"] > 0 and m["integrator.propagate_n"] > 0
    if workload == "capture":
        assert m["integrator.fail"] == 1 and m["integrator.verify_s"] > 0
        assert m["wigner.grid_n"] == 2 and m["serialize.bytes"] > 0
    if workload == "metro_sweep":
        assert record["determinism"] is True
        assert m["sweep.points"] == 4 and m["sweep.failed_points"] == 0
        assert m["sweep.serial_s"] > 0 and m["sweep.speedup"] > 0
    if workload == "metro_bound":
        assert m["metrology.crb_n"] == 2 and m["metrology.crb_fail"] == 1
    assert list(tmp_path.glob("trace-*.json"))


def test_fails_without_the_program(tmp_path):
    """In a directory holding only the benchmark it exits non-zero, silently."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path / "out", "metro_bound", 0, bench=tmp_path / "perfbench")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def _bound_results(crb4, crb9):
    jz = {"delta_phi": 0.5, "delta_phi_sn": 0.47}
    return {"crb:4": ("ok", {"delta_phi": crb4}), "jz:4": ("ok", dict(jz)),
            "crb:9": ("ok", {"delta_phi": crb9}),
            "jz:9": ("ok", {"delta_phi": 0.35, "delta_phi_sn": 0.3253}),
            "crb:100": ("error", "ConfigError")}


def test_checks_flag_wrong_outputs():
    ref = {"known_failures": {"crb:100": "ConfigError"},
           "metro_bound": {"crb:4": {"delta_phi": 0.4}, "jz:4": {"delta_phi": 0.5,
                           "delta_phi_sn": 0.47}, "crb:9": {"delta_phi": 0.27},
                           "jz:9": {"delta_phi": 0.35, "delta_phi_sn": 0.3253},
                           "crb:100": {"delta_phi": None}}}
    status = child.check_pass("metro_bound", _bound_results(0.4, 0.27), ref)
    assert {k: s for k, (s, _) in status.items()} == {
        "crb:4": "ok", "jz:4": "ok", "crb:9": "ok", "jz:9": "ok", "crb:100": "known"}
    # off the seed value by more than the tolerance
    status = child.check_pass("metro_bound", _bound_results(0.4 * (1 + 1e-3), 0.27), ref)
    assert status["crb:4"][0] == "wrong"
    # improvement no longer grows with N_b (seed value also missed)
    status = child.check_pass("metro_bound", _bound_results(0.4, 0.3), ref)
    assert status["crb:9"][0] == "wrong"
    # a different error class than the seed run's is a failure
    results = _bound_results(0.4, 0.27)
    results["crb:100"] = ("error", "NumericalError")
    assert child.check_pass("metro_bound", results, ref)["crb:100"][0] == "failed"
    # a seeded failure that now succeeds is checked by the pinned relations
    results["crb:100"] = ("ok", {"delta_phi": 0.08})
    results["jz:100"] = ("ok", {"delta_phi": 0.1, "delta_phi_sn": 0.0998})
    ref["metro_bound"]["jz:100"] = {"delta_phi": 0.1, "delta_phi_sn": 0.0998}
    status = child.check_pass("metro_bound", results, ref)
    assert status["crb:100"][0] == "ok"
