import dataclasses
import math

import numpy as np
import pytest

from cwlsim.hilbert import (coherent_state, displacement_operator, fidelity,
                            pad_fock, partial_trace, pure_density,
                            trace_distance)
from cwlsim.integrator import propagate, propagate_displaced
from cwlsim.model import BinSpec, SystemConfig, resolve_cutoff
from cwlsim.presets import (DRIVE_SERIES, METRO_PAIR_BIN, METRO_PAIR_CFG,
                            METRO_SINGLE_BIN, METRO_SINGLE_CFG, SINGLE_DRIVE,
                            SINGLE_MID_BIN)
from cwlsim.shortbin import emitter_moments, shortbin_rho


def test_empty_chain_captures_coherent_state():
    cfg = SystemConfig(alpha=0.7, M=0)
    for b in (BinSpec(t0=0.0, tau=0.5), BinSpec(t0=0.5, tau=1.0), BinSpec(t0=2.0, tau=3.0)):
        traj = propagate(cfg, b)
        beta = cfg.alpha_phys * math.sqrt(b.tau)
        target = pure_density(coherent_state(beta, traj.rho_v.dim - 1))
        assert fidelity(traj.rho_v, target) >= 1 - 1e-4


def test_trace_and_positivity_diagnostics():
    traj = propagate(SystemConfig(alpha=0.9, M=1), BinSpec(t0=1.0, tau=2.0))
    assert traj.diagnostics.trace_drift_max < 1e-8
    assert traj.diagnostics.positivity_min > -1e-7
    assert traj.diagnostics.hermiticity_max < 1e-9
    assert np.all(traj.populations >= -1e-8)
    assert np.all(traj.populations <= 1 + 1e-8)


def test_rabi_frequency_close_to_drive_rate():
    cfg = SystemConfig(alpha=0.9, M=1)
    traj = propagate(cfg, BinSpec(t0=8.0, tau=0.5))
    pops = traj.populations[:, 0]
    half = len(pops) // 2
    i_peak = int(np.argmax(pops[:half]))
    omega_est = math.pi / traj.times[i_peak]
    omega_expected = 2.0 * abs(cfg.alpha_phys) * math.sqrt(cfg.kappa)
    assert abs(omega_est - omega_expected) / omega_expected < 0.05


def test_populations_on_uniform_grid():
    traj = propagate(SystemConfig(alpha=0.5, M=2), BinSpec(t0=0.5, tau=1.0))
    assert len(traj.times) == 500
    dt = np.diff(traj.times)
    assert np.allclose(dt, dt[0])
    assert traj.populations.shape == (500, 2)


def test_displaced_frame_matches_direct():
    cfg = SystemConfig(alpha=0.5, M=1)
    b = BinSpec(t0=1.0, tau=1.5)
    tr = propagate(cfg, b)
    trd = propagate_displaced(cfg, b)
    dim = tr.rho_v.dim
    d = displacement_operator(trd.frame_displacement, dim - 1)
    back = d @ pad_fock(trd.rho_v.mat, dim) @ d.conj().T
    assert trace_distance(tr.rho_v.mat, back) < 1e-5


def test_displaced_frame_m0_stays_vacuum():
    traj = propagate_displaced(SystemConfig(alpha=0.8, M=0), BinSpec(t0=0.0, tau=1.0))
    vac = np.zeros_like(traj.rho_v.mat)
    vac[0, 0] = 1.0
    assert np.max(np.abs(traj.rho_v.mat - vac)) < 1e-9


def test_displaced_frame_photon_support():
    # mid-bin single-emitter case: the non-displaced state is nearly confined
    # to the lowest three Fock levels
    from cwlsim.presets import SINGLE_DRIVE, SINGLE_MID_BIN

    cfg = SystemConfig(alpha=SINGLE_DRIVE, M=1)
    traj = propagate_displaced(cfg, SINGLE_MID_BIN)
    weight = float(np.real(np.diag(traj.rho_v.mat)[:3].sum()))
    assert weight > 0.99


def test_shortbin_limit_agreement():
    cfg = SystemConfig(alpha=0.9, M=1)
    b = BinSpec(t0=1.5, tau=1e-3)
    traj = propagate(cfg, b)
    rho_e = partial_trace(traj.rho_bin_start, (0,))
    mom = emitter_moments(rho_e, 1)
    pred = shortbin_rho(mom, cfg.alpha, b.tau, cfg.kappa, 1, cutoff=traj.rho_v.dim - 1)
    assert trace_distance(traj.rho_v, pred) < 5e-3


def test_determinism_bitwise():
    cfg = SystemConfig(alpha=0.6, M=1)
    b = BinSpec(t0=0.4, tau=0.9)
    t1 = propagate(cfg, b)
    t2 = propagate(cfg, b)
    assert np.array_equal(t1.rho_v.mat, t2.rho_v.mat)
    assert np.array_equal(t1.populations, t2.populations)


def test_tolerance_halving_stability():
    from cwlsim.model import Numerics
    from cwlsim.presets import SINGLE_DRIVE, SINGLE_MID_BIN

    cfg = SystemConfig(alpha=SINGLE_DRIVE, M=1)
    r1 = propagate(cfg, SINGLE_MID_BIN).rho_v
    tight = Numerics(rtol=0.5e-8, atol=0.5e-10)
    r2 = propagate(dataclasses.replace(cfg, numerics=tight), SINGLE_MID_BIN).rho_v
    assert trace_distance(r1.mat, r2.mat) < 1e-6


def test_cutoff_verification_runs():
    traj = propagate(SystemConfig(alpha=0.5, M=1), BinSpec(t0=0.5, tau=1.0),
                     verify_cutoff=True)
    assert traj.diagnostics.cutoff_check is not None
    assert traj.diagnostics.cutoff_check < 1e-6


def test_moment_stability_under_cutoff_growth():
    # growing the propagation cutoff by 4 leaves all metrology moments stable
    from cwlsim.metrology import extract_moments

    cfg = SystemConfig(alpha=0.18, M=1, gamma_D=0.1)
    b = BinSpec(t0=2.0, tau=5.0)
    cut = resolve_cutoff(cfg, b)
    m1 = extract_moments(propagate(cfg, b).rho_v)
    m2 = extract_moments(
        propagate(dataclasses.replace(cfg, cavity_cutoff=cut + 4), b).rho_v
    )
    assert np.max(np.abs(m1.table - m2.table)) < 1e-8


def test_steady_even_chain_returns_coherent():
    cfg = SystemConfig(alpha=0.5, M=2)
    b = BinSpec(t0=25.0, tau=4.0)
    traj = propagate(cfg, b)
    beta = cfg.alpha_phys * math.sqrt(b.tau)
    target = pure_density(coherent_state(beta, traj.rho_v.dim - 1))
    assert fidelity(traj.rho_v, target) > 0.99


def test_n_rhs_counts_every_generator_call(monkeypatch):
    from cwlsim.model import Generator

    calls = []
    apply_vec = Generator.apply_vec

    def counting(self, t, y):
        calls.append(t)
        return apply_vec(self, t, y)

    monkeypatch.setattr(Generator, "apply_vec", counting)
    diag = propagate(SystemConfig(alpha=0.6, M=1), BinSpec(t0=0.4, tau=0.9)).diagnostics
    assert diag.n_rhs == len(calls)
    # 12 stage evaluations per attempted step, plus dense-output stages
    assert diag.n_rhs >= 12 * (diag.n_steps + diag.n_rejected)
    assert 0 < diag.h_min <= 0.02 * 0.9


def _scipy_segment(fun, num, t_start, t_end, y0):
    from scipy.integrate import DOP853

    solver = DOP853(fun, t_start, y0, t_end, rtol=num.rtol, atol=num.atol, max_step=np.inf)
    n_steps = 0
    while solver.status == "running":
        solver.step()
        n_steps += 1
    assert solver.status == "finished"
    return solver.y, n_steps


def _own_segment(fun, num, t_start, t_end, y0):
    from cwlsim.integrator import _Dop853

    stepper = _Dop853(fun, t_start, y0, t_end, num.rtol, num.atol)
    n_steps = 0
    while stepper.t < t_end:
        stepper.step()
        n_steps += 1
    return stepper.y, n_steps


def _metro_single():
    from cwlsim.presets import METRO_SINGLE_BIN, METRO_SINGLE_CFG

    return METRO_SINGLE_CFG, METRO_SINGLE_BIN, 1e-12


def _parity_pair():
    # The 40-unit pre-bin ends in the emitters' steady state, where the
    # embedded error estimate is rounding noise: any other summation order
    # moves the state there by 1e-12..1e-9 relative (6e-12 here), so that
    # segment is held to the integration's own rtol.
    from cwlsim.presets import PARITY_BIN, PARITY_DRIVE

    cfg = SystemConfig(alpha=PARITY_DRIVE, M=2)
    return cfg, PARITY_BIN, cfg.numerics.rtol


@pytest.mark.parametrize("case", [_metro_single, _parity_pair])
def test_stepper_matches_scipy_dop853(case):
    from cwlsim.model import get_generator

    cfg, b, pre_tol = case()
    num = cfg.numerics

    def rel(a, ref):
        return np.linalg.norm(a - ref) / np.linalg.norm(ref)

    gen_pre = get_generator(cfg, b, 1)
    y0 = np.zeros(gen_pre.dim**2, dtype=complex)
    y0[0] = 1.0
    ref_pre, n_pre = _scipy_segment(gen_pre.apply_vec, num, 0.0, b.t0, y0)
    own_pre, n_own = _own_segment(gen_pre.apply_vec, num, 0.0, b.t0, y0)
    assert n_own == n_pre
    assert rel(own_pre, ref_pre) < pre_tol

    cav_dim = resolve_cutoff(cfg, b) + 1
    vac = np.zeros((cav_dim, cav_dim), dtype=complex)
    vac[0, 0] = 1.0
    y_t0 = np.kron(ref_pre.reshape(gen_pre.dim, gen_pre.dim), vac).reshape(-1)
    gen = get_generator(cfg, b, cav_dim)
    t_open = np.nextafter(b.t0, np.inf)  # the bin opens at g's right limit

    def bin_rhs(t, y):
        return gen.apply_vec(max(t, t_open), y)

    ref_bin, n_bin = _scipy_segment(bin_rhs, num, b.t0, b.t_end, y_t0)
    own_bin, n_own = _own_segment(bin_rhs, num, b.t0, b.t_end, y_t0)
    assert n_own == n_bin
    assert rel(own_bin, ref_bin) < 1e-12
    assert propagate(cfg, b).diagnostics.n_steps == n_pre + n_bin


def _tight_reference(cfg, b, times):
    """Populations and cavity occupation at ``times`` in the bin, which end at
    t0 + tau, and the cavity state there, from scipy's DOP853 at rtol 1e-12,
    atol 1e-14 on the plain generator (g(t0) = 0: the step controller finds
    the opening by itself)."""
    from scipy.integrate import solve_ivp

    from cwlsim.hilbert import DensityMatrix
    from cwlsim.model import get_generator

    tight = {"method": "DOP853", "rtol": 1e-12, "atol": 1e-14}
    gen_pre = get_generator(cfg, b, 1)
    y0 = np.zeros(gen_pre.dim**2, dtype=complex)
    y0[0] = 1.0
    rho_e = solve_ivp(gen_pre.apply_vec, (0.0, b.t0), y0, **tight).y[:, -1]
    cav_dim = resolve_cutoff(cfg, b) + 1
    vac = np.zeros((cav_dim, cav_dim), dtype=complex)
    vac[0, 0] = 1.0
    y_t0 = np.kron(rho_e.reshape(gen_pre.dim, gen_pre.dim), vac).reshape(-1)
    gen = get_generator(cfg, b, cav_dim)
    sol = solve_ivp(gen.apply_vec, (b.t0, b.t_end), y_t0, t_eval=times, **tight)
    diags = np.real(sol.y.reshape(gen.dim, gen.dim, -1).diagonal(axis1=0, axis2=1))
    pops = diags @ np.real([p.diagonal() for p in gen.ops["pops"]]).reshape(-1, gen.dim).T
    b_op = gen.ops["b"]
    cav = diags @ np.real((b_op.conj().T @ b_op).diagonal())
    dims = tuple([cfg.levels] * cfg.M + [cav_dim])
    rho_end = sol.y[:, -1].reshape(gen.dim, gen.dim)
    rho_v = partial_trace(DensityMatrix((rho_end + rho_end.conj().T) / 2, dims), cfg.M)
    return rho_v, pops, cav


@pytest.mark.parametrize("cfg, b", [
    pytest.param(METRO_SINGLE_CFG, METRO_SINGLE_BIN, id="metro_single"),
    pytest.param(SystemConfig(alpha=SINGLE_DRIVE, M=1), SINGLE_MID_BIN, id="single_mid"),
    pytest.param(METRO_PAIR_CFG, METRO_PAIR_BIN, id="metro_pair"),
    pytest.param(SystemConfig(alpha=DRIVE_SERIES[-1][0], M=1), DRIVE_SERIES[-1][1],
                 id="drive2.5"),
])
def test_bin_matches_tight_reference(cfg, b):
    # Uncapped in-bin steps: the captured state and the in-bin output-grid
    # samples, which come from the dense output, stay within 1e-8 of a tight run.
    traj = propagate(cfg, b)
    in_bin = traj.times > b.t0
    rho_v, pops, cav = _tight_reference(cfg, b, traj.times[in_bin])
    assert trace_distance(traj.rho_v.mat, rho_v.mat) <= 1e-8
    assert np.max(np.abs(traj.populations[in_bin] - pops)) <= 1e-8
    assert np.max(np.abs(traj.cavity_occupation[in_bin] - cav)) <= 1e-8


def test_bin_opening_costs_few_steps():
    # The bin opens at g's right limit, with no step cap: the starting-step
    # rule sizes the first in-bin step for the open bin.  Capped at 2 % of
    # tau and opened at g(t0) = 0 this run took 1594 RHS calls, 23 rejected.
    diag = propagate(METRO_SINGLE_CFG, METRO_SINGLE_BIN).diagnostics
    assert diag.n_rhs <= 1000
    assert diag.n_rejected <= 12


def test_positivity_samples_are_direct_steps():
    # A settled four-emitter chain: the pre-bin steps are limited by stability,
    # where the dense output misses by up to 1.4e-7 mid-step; the direct steps
    # that give the positivity samples stay within 10 atol of a tight run.
    from scipy.integrate import solve_ivp

    from cwlsim.integrator import _Dop853
    from cwlsim.model import get_generator
    from cwlsim.presets import PARITY_BIN, PARITY_DRIVE

    cfg = SystemConfig(alpha=PARITY_DRIVE, M=4)
    num = cfg.numerics
    gen = get_generator(cfg, PARITY_BIN, 1)
    y0 = np.zeros(gen.dim**2, dtype=complex)
    y0[0] = 1.0
    checks = np.linspace(0.0, PARITY_BIN.t_end, 11)[1:10]
    tight = solve_ivp(gen.apply_vec, (0.0, PARITY_BIN.t0), y0, method="DOP853",
                      rtol=1e-13, atol=1e-15, t_eval=checks).y.T
    stepper = _Dop853(gen.apply_vec, 0.0, y0, PARITY_BIN.t0, num.rtol, num.atol)
    errors = []
    while stepper.t < PARITY_BIN.t0:
        stepper.step()
        for t, ref in zip(checks, tight):
            if stepper.t_old < t <= stepper.t:
                errors.append(np.max(np.abs(stepper.state_at(t) - ref)))
    assert len(errors) == len(checks)
    assert max(errors) < 10 * num.atol


BLAS_PROBE = """
import hashlib
from cwlsim import SweepPlan, SystemConfig, propagate, run_sweep
from cwlsim.presets import METRO_SINGLE_BIN, METRO_SINGLE_CFG, PARITY_BIN, PARITY_DRIVE

rho_v = propagate(SystemConfig(alpha=PARITY_DRIVE, M=2), PARITY_BIN).rho_v.mat
print(hashlib.sha256(rho_v.tobytes()).hexdigest())
plan = SweepPlan(axes=(("t0", (1.5, 2.0)), ("tau", (4.0, 5.5))),
                 objective="jz_improvement", N_b=100.0)
for row in run_sweep(plan, METRO_SINGLE_CFG, METRO_SINGLE_BIN, parallel=False):
    print(row.index, row.objective.hex())
"""


def test_results_independent_of_blas_threads():
    import os
    import subprocess
    import sys
    from pathlib import Path

    import cwlsim

    src = str(Path(cwlsim.__file__).resolve().parents[1])
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-c", BLAS_PROBE], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert len(outputs[0].splitlines()) == 5
    assert outputs[0] == outputs[1]
