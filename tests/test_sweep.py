import dataclasses
import math
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from cwlsim import sweep
from cwlsim.errors import ConfigError
from cwlsim.integrator import propagate
from cwlsim.model import BinSpec, SystemConfig
from cwlsim.sweep import SweepPlan, max_workers, run_sweep
from cwlsim.wigner import wigner_grid


def test_single_point_grid_matches_direct_evaluation():
    cfg = SystemConfig(alpha=0.9, M=1)
    plan = SweepPlan(axes=(("t0", (1.0,)), ("tau", (2.0,))), objective="negativity")
    rows = run_sweep(plan, cfg)
    assert len(rows) == 1
    direct = wigner_grid(propagate(cfg, BinSpec(t0=1.0, tau=2.0)).rho_v).negativity
    assert rows[0].objective == pytest.approx(direct, abs=0.0)


def test_rows_sorted_by_objective():
    cfg = SystemConfig(alpha=0.9, M=1)
    plan = SweepPlan(axes=(("t0", (0.0, 1.0)), ("tau", (0.3, 2.0))),
                     objective="negativity")
    rows = run_sweep(plan, cfg)
    vals = [r.objective for r in rows]
    assert vals == sorted(vals, reverse=True)
    assert len(rows) == 4


def test_rows_match_default_grid_propagations():
    # Sweep points propagate on a two-point output grid.  The grid never steers
    # the steps, so each row equals the one from a propagation on the default grid.
    from cwlsim.metrology import extract_moments, jz_sensitivity
    from cwlsim.presets import METRO_N_B, METRO_SINGLE_BIN, METRO_SINGLE_CFG, METRO_SINGLE_GRID

    cfg = METRO_SINGLE_CFG
    plan = SweepPlan(axes=(("t0", METRO_SINGLE_GRID["t0"][:2]),
                           ("tau", METRO_SINGLE_GRID["tau"][:2])),
                     objective="jz_improvement", N_b=METRO_N_B)
    rows = run_sweep(plan, cfg, METRO_SINGLE_BIN, parallel=False)
    assert len(rows) == 4
    for row in rows:
        b = dataclasses.replace(METRO_SINGLE_BIN, **row.params)
        traj = propagate(cfg, b)
        diag = traj.diagnostics
        mom = extract_moments(traj.rho_v)
        value = jz_sensitivity(mom, plan.N_b, baseline_na=b.tau * abs(cfg.alpha_phys) ** 2)
        assert (row.objective.hex(), row.n_a.hex(), row.cutoff, row.trace_drift.hex()) == (
            value.improvement.hex(), mom.N_a.hex(), diag.cutoff, diag.trace_drift_max.hex())


def test_rows_carry_point_counters():
    from cwlsim.presets import METRO_SINGLE_BIN, METRO_SINGLE_CFG

    plan = SweepPlan(axes=(("tau", (4.0,)),), objective="jz_improvement")
    (row,) = run_sweep(plan, METRO_SINGLE_CFG, METRO_SINGLE_BIN, parallel=False)
    two = dataclasses.replace(METRO_SINGLE_CFG, numerics=dataclasses.replace(
        METRO_SINGLE_CFG.numerics, output_points=2))
    b = dataclasses.replace(METRO_SINGLE_BIN, tau=4.0)
    assert row.n_rhs == propagate(two, b).diagnostics.n_rhs > 0
    assert 0 < row.wall_s < 60
    # the wall time takes no part in row comparisons; n_rhs does
    assert dataclasses.replace(row, wall_s=row.wall_s + 1) == row
    assert dataclasses.replace(row, n_rhs=row.n_rhs + 1) != row


def _row_bits(row):
    return (row.index, row.params, row.objective.hex(), row.n_a.hex(), row.cutoff,
            row.trace_drift.hex(), row.n_rhs, row.error)


class _PoolSpy(ProcessPoolExecutor):
    sizes: list = []

    def __init__(self, max_workers, **kwargs):
        self.sizes.append(max_workers)
        super().__init__(max_workers, **kwargs)


def test_parallel_equals_sequential(monkeypatch):
    monkeypatch.setenv("CWL_THREADS", "2")
    monkeypatch.setattr(sweep, "ProcessPoolExecutor", _PoolSpy)
    _PoolSpy.sizes = []
    cfg = SystemConfig(alpha=0.7, M=1)
    # cavity_cutoff 3000 makes dim 6002 > dim_limit 4096: those points fail
    # inside a worker and must come back as error rows
    plan = SweepPlan(axes=(("t0", (0.2, 0.8)), ("tau", (0.5, 1.0)),
                           ("cavity_cutoff", (None, 3000))),
                     objective="negativity")
    seq = run_sweep(plan, cfg, parallel=False)
    par = run_sweep(plan, cfg, parallel=True)
    assert _PoolSpy.sizes == [2]
    assert [_row_bits(r) for r in seq] == [_row_bits(r) for r in par]
    errors = [r for r in par if r.error is not None]
    assert len(errors) == 4
    assert all(r.params["cavity_cutoff"] == 3000 for r in errors)
    assert all(r.error.startswith("ConfigError") for r in errors)


def test_alpha_innermost_parallel_equals_sequential(monkeypatch):
    # with the drive the innermost axis the workers take each drive's points
    # together; the rows are the serial ones bit for bit
    from cwlsim.presets import METRO_N_B, METRO_SINGLE_BIN, METRO_SINGLE_CFG

    monkeypatch.setenv("CWL_THREADS", "2")
    plan = SweepPlan(axes=(("t0", (1.5, 2.0)), ("tau", (4.0,)),
                           ("alpha", (0.16, 0.2 + 0.05j, 0.22))),
                     objective="jz_improvement", N_b=METRO_N_B)
    seq = run_sweep(plan, METRO_SINGLE_CFG, METRO_SINGLE_BIN, parallel=False)
    par = run_sweep(plan, METRO_SINGLE_CFG, METRO_SINGLE_BIN, parallel=True)
    assert all(r.error is None for r in seq)
    assert [_row_bits(r) for r in seq] == [_row_bits(r) for r in par]


@pytest.mark.parametrize("nw", [2, 3])
def test_dispatch_keeps_each_config_together(nw):
    from itertools import product

    axes = (("t0", (1.0, 2.0, 3.0)), ("alpha", (0.1, 0.2j, 0.3)), ("tau", (1.0, 2.0)),
            ("gamma_D", (0.0, 0.5)))
    points = [(i, dict(zip([n for n, _ in axes], combo)))
              for i, combo in enumerate(product(*(v for _, v in axes)))]
    order, chunk = sweep._dispatch_order(points, nw)
    assert sorted(i for i, _ in order) == list(range(len(points)))
    assert all(points[i][1] == params for i, params in order)
    configs = [(params["alpha"], params["gamma_D"]) for _, params in order]
    runs = [c for k, c in enumerate(configs) if k == 0 or c != configs[k - 1]]
    assert len(runs) == len(set(runs)) == 6  # each config's points in one run
    for c in runs:  # in grid order within the run
        idx = [i for (i, _), cc in zip(order, configs) if cc == c]
        assert idx == sorted(idx)
    assert math.ceil(len(points) / chunk) >= 2 * nw
    assert sweep._dispatch_order(points[:3], nw)[1] == 1


def test_pool_capped_at_point_count(monkeypatch):
    monkeypatch.setenv("CWL_THREADS", "8")
    monkeypatch.setattr(sweep, "ProcessPoolExecutor", _PoolSpy)
    _PoolSpy.sizes = []
    plan = SweepPlan(axes=(("tau", (0.5, 0.6)),), objective="negativity")
    rows = run_sweep(plan, SystemConfig(alpha=0.5, M=0), BinSpec(t0=0.0, tau=0.5))
    assert _PoolSpy.sizes == [2]
    assert all(r.error is None for r in rows)


def test_one_worker_starts_no_process(monkeypatch):
    def no_child(*args, **kwargs):
        raise AssertionError("the sweep started a child process")

    monkeypatch.setenv("CWL_THREADS", "1")
    monkeypatch.setattr(os, "fork", no_child)
    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", no_child)
    plan = SweepPlan(axes=(("tau", (0.5, 0.6)),), objective="negativity")
    rows = run_sweep(plan, SystemConfig(alpha=0.5, M=0), BinSpec(t0=0.0, tau=0.5))
    assert len(rows) == 2 and all(r.error is None for r in rows)


def test_max_workers(monkeypatch):
    monkeypatch.delenv("CWL_THREADS", raising=False)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3}, raising=False)
    assert max_workers() == 1
    monkeypatch.setenv("CWL_THREADS", "3")
    assert max_workers() == 3
    monkeypatch.setenv("CWL_THREADS", "0")
    assert max_workers() == 1
    monkeypatch.setenv("CWL_THREADS", "two")
    with pytest.raises(ConfigError):
        max_workers()


def test_rerun_reproduces_identical_tables(tmp_path):
    from cwlsim.serialize import write_csv

    cfg = SystemConfig(alpha=0.6, M=1)
    plan = SweepPlan(axes=(("alpha", (0.5, 0.7)), ("tau", (0.6,))),
                     objective="negativity")
    base_bin = BinSpec(t0=0.3, tau=0.6)

    def table_bytes(rows, path):
        write_csv(path, ["i", "obj"], [[r.index, r.objective] for r in rows])
        return path.read_bytes()

    b1 = table_bytes(run_sweep(plan, cfg, base_bin), tmp_path / "a.csv")
    b2 = table_bytes(run_sweep(plan, cfg, base_bin), tmp_path / "b.csv")
    assert b1 == b2


def test_per_point_failures_recorded_not_fatal():
    from cwlsim.model import Numerics

    cfg = SystemConfig(alpha=0.5, M=1, numerics=Numerics(dim_limit=40))
    # tau large enough to blow the dimension limit on one point only
    plan = SweepPlan(axes=(("tau", (0.5, 80.0)),), objective="negativity")
    rows = run_sweep(plan, cfg, BinSpec(t0=0.0, tau=1.0))
    errs = [r for r in rows if r.error is not None]
    good = [r for r in rows if r.error is None]
    assert len(errs) == 1 and len(good) == 1
    assert math.isnan(errs[0].objective)
    # failed rows sort last
    assert rows[-1].error is not None


def test_budget_enforced():
    with pytest.raises(ConfigError):
        SweepPlan(axes=(("t0", tuple(range(200))), ("tau", tuple(range(100)))),
                  objective="negativity", budget=100)


def test_unknown_axis_rejected():
    with pytest.raises(ConfigError):
        SweepPlan(axes=(("frequency", (1.0,)),))


def test_metrology_objective_runs():
    cfg = SystemConfig(alpha=0.2, M=1, gamma_D=0.1)
    plan = SweepPlan(axes=(("tau", (4.0, 5.0)),), objective="jz_improvement",
                     N_b=100.0)
    rows = run_sweep(plan, cfg, BinSpec(t0=2.0, tau=4.0))
    assert all(r.error is None for r in rows)
    assert all(np.isfinite(r.objective) for r in rows)
    assert rows[0].objective > 0.05  # beats shot noise at the calibrated region


def test_crb_objective_at_default_n_b():
    from cwlsim.presets import METRO_CRB_BIN, METRO_CRB_CFG

    plan = SweepPlan(axes=(("tau", (4.0, 5.0)),), objective="crb_improvement")
    assert plan.N_b == 100.0
    seq = run_sweep(plan, METRO_CRB_CFG, METRO_CRB_BIN, parallel=False)
    par = run_sweep(plan, METRO_CRB_CFG, METRO_CRB_BIN, parallel=True)
    assert all(r.error is None for r in seq)
    assert all(np.isfinite(r.objective) for r in seq)
    assert [(r.index, r.params, r.objective) for r in seq] == [
        (r.index, r.params, r.objective) for r in par
    ]


def test_artifacts_written(tmp_path):
    from cwlsim.serialize import read_density_matrix

    cfg = SystemConfig(alpha=0.5, M=0)
    plan = SweepPlan(axes=(("tau", (0.5,)),), objective="negativity")
    rows = run_sweep(plan, cfg, BinSpec(t0=0.0, tau=0.5), out_dir=tmp_path)
    assert rows[0].artifact is not None
    dm = read_density_matrix(rows[0].artifact)
    assert dm.dim >= 3


def test_axis_values_must_be_a_sequence():
    with pytest.raises(ConfigError):
        SweepPlan(axes=(("tau", 1.0),))


def test_non_integer_chain_length_is_an_error_row():
    plan = SweepPlan(axes=(("M", (0.5, 0)),), objective="negativity")
    rows = run_sweep(plan, SystemConfig(alpha=0.5, M=0), BinSpec(t0=0.0, tau=0.5),
                     parallel=False)
    bad = [r for r in rows if r.params["M"] == 0.5]
    assert len(bad) == 1 and bad[0].error.startswith("ConfigError")
    assert bad[0].error_class == "ConfigError"
    assert all(r.error is None and r.error_class is None for r in rows if r.params["M"] == 0)


def test_cli_complex_alpha_axis(tmp_path):
    import csv
    import json

    from cwlsim.cli import main

    doc = {
        "system": {"alpha": 0.5, "M": 0},
        "bin": {"t0": 0.2, "tau": 0.8},
        "sweep": {"axes": {"alpha": [[0.3, 0.1], 0.5]}, "objective": "negativity"},
    }
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    rows = json.loads((tmp_path / "out" / "sweep.json").read_text())
    assert len(rows) == 2
    assert all(r["error"] is None for r in rows)
    assert sorted(json.dumps(r["params"]["alpha"]) for r in rows) == ["0.5", "[0.3, 0.1]"]
    # sweep.csv splits the complex axis into two real columns that read back exactly
    with open(tmp_path / "out" / "sweep.csv", newline="") as f:
        table = list(csv.DictReader(f))
    assert list(table[0])[1:3] == ["alpha_re", "alpha_im"]
    alphas = {(float(r["alpha_re"]), float(r["alpha_im"])) for r in table}
    assert alphas == {(0.3, 0.1), (0.5, 0.0)}
