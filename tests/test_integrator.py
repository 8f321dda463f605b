import dataclasses
import math

import numpy as np
import pytest

from lab_oracle import lab_reference, undisplace

from cwlsim.hilbert import (coherent_state, fidelity, partial_trace,
                            pure_density, trace_distance)
from cwlsim.integrator import propagate
from cwlsim.model import BinSpec, Numerics, SystemConfig, frame_amplitude, resolve_cutoff
from cwlsim.presets import (DRIVE_SERIES, METRO_CRB_BIN, METRO_CRB_CFG,
                            METRO_PAIR_BIN, METRO_PAIR_CFG, METRO_SINGLE_BIN,
                            METRO_SINGLE_CFG, NOISE_BIN, NOISE_DRIVE,
                            PARITY_BIN, PARITY_DRIVE, SINGLE_DRIVE,
                            SINGLE_MID_BIN, SINGLE_STEADY_BIN)
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
    rho_v = lab_reference(cfg, b)[0]
    assert trace_distance(propagate(cfg, b).rho_v.mat, rho_v) < 1e-5


def test_displaced_frame_m0_stays_vacuum():
    # without emitters the in-frame cavity never leaves vacuum: rho_v is the
    # coherent state of the frame amplitude, here on an output space that holds it
    cfg = SystemConfig(alpha=0.8, M=0, cavity_cutoff=24)
    b = BinSpec(t0=0.0, tau=1.0)
    traj = propagate(cfg, b)
    back = undisplace(traj.rho_v.mat, frame_amplitude(cfg, b, b.t_end))
    vac = np.zeros_like(back)
    vac[0, 0] = 1.0
    assert np.max(np.abs(back - vac)) < 1e-9
    assert traj.diagnostics.cutoff_check == 0.0


def test_displaced_frame_photon_support():
    # mid-bin single-emitter case: undisplaced by the frame amplitude, the
    # captured state is nearly confined to the lowest three Fock levels
    cfg = SystemConfig(alpha=SINGLE_DRIVE, M=1)
    traj = propagate(cfg, SINGLE_MID_BIN)
    back = undisplace(traj.rho_v.mat, frame_amplitude(cfg, SINGLE_MID_BIN, SINGLE_MID_BIN.t_end))
    weight = float(np.real(np.diag(back)[:3].sum()))
    assert weight > 0.99


@pytest.mark.parametrize("cfg, b", [
    pytest.param(SystemConfig(alpha=0.7, M=0), BinSpec(t0=0.5, tau=0.8), id="tau0.8"),
    pytest.param(SystemConfig(alpha=0.7, M=0), BinSpec(t0=0.5, tau=1e-3), id="tau1e-3"),
    pytest.param(SystemConfig(alpha=0.7, M=0, kappa=2.0), BinSpec(t0=0.5, tau=0.8, g_max=50.0),
                 id="kappa2-gmax50"),
    # shorter than 1/g_max^2 = 4e-4: the bin ends inside the clamp
    pytest.param(SystemConfig(alpha=0.7, M=0), BinSpec(t0=0.5, tau=2e-4, g_max=50.0),
                 id="inside-clamp"),
])
def test_frame_amplitude_matches_lab(cfg, b):
    # With no emitters the whole state is the frame's coherent state, so this
    # checks the clamped-coupling amplitude itself.  alpha sqrt(tau) in its
    # place misses by 1.7e-7 to 3.7e-3.
    rho_v = lab_reference(cfg, b)[0]
    assert trace_distance(propagate(cfg, b).rho_v.mat, rho_v) <= 1e-8


_ORACLE_CASES = [pytest.param(SystemConfig(alpha=a, M=1), b, id=f"drive{a}")
                 for a, b in DRIVE_SERIES] + [
    pytest.param(SystemConfig(alpha=NOISE_DRIVE, M=1, gamma_D=0.5), NOISE_BIN, id="noise"),
    pytest.param(SystemConfig(alpha=PARITY_DRIVE, M=1), PARITY_BIN, id="parity1"),
    pytest.param(SystemConfig(alpha=PARITY_DRIVE, M=2), PARITY_BIN, id="parity2"),
    pytest.param(METRO_SINGLE_CFG, METRO_SINGLE_BIN, id="metro_single"),
    pytest.param(METRO_CRB_CFG, METRO_CRB_BIN, id="metro_crb"),
    pytest.param(METRO_PAIR_CFG, METRO_PAIR_BIN, id="metro_pair"),
    pytest.param(SystemConfig(alpha=SINGLE_DRIVE, M=1), SINGLE_MID_BIN, id="single_mid"),
    pytest.param(SystemConfig(alpha=0.9, M=1), BinSpec(t0=1.5, tau=1e-3), id="shortbin"),
    pytest.param(SystemConfig(alpha=0.7, M=0), BinSpec(t0=0.2, tau=1.0), id="m0"),
]


@pytest.mark.parametrize("cfg, b", _ORACLE_CASES)
def test_matches_lab_oracle(cfg, b):
    # the displaced frame at its own cutoff against the lab frame at the
    # output cutoff + 8
    traj = propagate(cfg, b)
    rho_v = lab_reference(cfg, b)[0]
    assert trace_distance(traj.rho_v.mat, rho_v) <= 1e-7
    assert traj.diagnostics.cutoff_check <= 1e-12
    assert abs(traj.diagnostics.output_leak) <= 1e-6


def test_top_level_tolerance_follows_atol():
    # the top-level bound scales with atol: a looser atol must not make the
    # cutoff grow past what its own integration noise can resolve
    cfg = dataclasses.replace(METRO_SINGLE_CFG, numerics=Numerics(atol=1e-8))
    diag = propagate(cfg, METRO_SINGLE_BIN).diagnostics
    assert diag.bin_runs == 1
    assert diag.cutoff_check <= 1e-10


def test_cutoff_growth_counts_every_attempt(monkeypatch):
    # deep in the steady state the emitter adds enough photons that the first
    # cutoff, 2M + 7, leaves its top level populated: the bin reruns
    from cwlsim.model import Generator

    calls = []  # generator dimension per call
    apply_vec = Generator.apply_vec

    def counting(self, t, y):
        calls.append(self.dim)
        return apply_vec(self, t, y)

    monkeypatch.setattr(Generator, "apply_vec", counting)
    cfg = SystemConfig(alpha=SINGLE_DRIVE, M=1)
    traj = propagate(cfg, SINGLE_STEADY_BIN)
    diag = traj.diagnostics
    assert 1 < diag.bin_runs <= 3
    assert len(set(calls)) == 1 + diag.bin_runs  # the emitters alone, then each cutoff
    assert diag.cutoff > 2 * cfg.M + 7
    assert diag.n_rhs == len(calls)
    assert diag.n_rhs_pre == calls.count(cfg.levels**cfg.M)
    assert diag.cutoff_check <= 1e-12
    monkeypatch.undo()
    rho_v = lab_reference(cfg, SINGLE_STEADY_BIN)[0]
    assert trace_distance(traj.rho_v.mat, rho_v) <= 1e-7


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
    from cwlsim.presets import SINGLE_DRIVE, SINGLE_MID_BIN

    cfg = SystemConfig(alpha=SINGLE_DRIVE, M=1)
    r1 = propagate(cfg, SINGLE_MID_BIN).rho_v
    tight = Numerics(rtol=0.5e-8, atol=0.5e-10)
    r2 = propagate(dataclasses.replace(cfg, numerics=tight), SINGLE_MID_BIN).rho_v
    assert trace_distance(r1.mat, r2.mat) < 1e-6


def test_cutoff_verification_runs():
    # verify_cutoff is accepted and ignored: every run checks its cutoff
    cfg, b = SystemConfig(alpha=0.5, M=1), BinSpec(t0=0.5, tau=1.0)
    traj = propagate(cfg, b, verify_cutoff=True)
    assert traj.diagnostics.cutoff_check <= 1e-12
    assert np.array_equal(traj.rho_v.mat, propagate(cfg, b).rho_v.mat)


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

    diag = propagate(cfg, b).diagnostics
    assert diag.bin_runs == 1
    cav_dim = diag.cutoff + 1
    vac = np.zeros((cav_dim, cav_dim), dtype=complex)
    vac[0, 0] = 1.0
    y_t0 = np.kron(ref_pre.reshape(gen_pre.dim, gen_pre.dim), vac).reshape(-1)
    gen = get_generator(cfg, b, cav_dim, displaced=True)
    t_open = np.nextafter(b.t0, np.inf)  # the bin opens at g's right limit

    def bin_rhs(t, y):
        return gen.apply_vec(max(t, t_open), y)

    ref_bin, n_bin = _scipy_segment(bin_rhs, num, b.t0, b.t_end, y_t0)
    own_bin, n_own = _own_segment(bin_rhs, num, b.t0, b.t_end, y_t0)
    assert n_own == n_bin
    assert rel(own_bin, ref_bin) < 1e-12
    assert diag.n_steps == n_pre + n_bin


@pytest.mark.parametrize("cfg, b", [
    pytest.param(METRO_SINGLE_CFG, METRO_SINGLE_BIN, id="metro_single"),
    pytest.param(SystemConfig(alpha=SINGLE_DRIVE, M=1), SINGLE_MID_BIN, id="single_mid"),
    pytest.param(METRO_PAIR_CFG, METRO_PAIR_BIN, id="metro_pair"),
    pytest.param(SystemConfig(alpha=DRIVE_SERIES[-1][0], M=1), DRIVE_SERIES[-1][1],
                 id="drive2.5"),
])
def test_bin_matches_tight_reference(cfg, b):
    # Uncapped in-bin steps: the captured state and the in-bin output-grid
    # samples, which come from the dense output, stay within 1e-8 of the oracle.
    traj = propagate(cfg, b)
    in_bin = traj.times > b.t0
    rho_v, times, pops, cav = lab_reference(cfg, b)
    assert np.array_equal(traj.times[in_bin], times)
    assert trace_distance(traj.rho_v.mat, rho_v) <= 1e-8
    assert np.max(np.abs(traj.populations[in_bin] - pops)) <= 1e-8
    assert np.max(np.abs(traj.cavity_occupation[in_bin] - cav)) <= 1e-8


def test_bin_opening_costs_few_steps():
    # The bin opens at g's right limit, with no step cap: the starting-step
    # rule sizes the first in-bin step for the open bin.  Capped at 2 % of
    # tau and opened at g(t0) = 0 this run took 1594 RHS calls, 23 rejected.
    diag = propagate(METRO_SINGLE_CFG, METRO_SINGLE_BIN).diagnostics
    assert diag.n_rhs <= 1000
    assert diag.n_rejected <= 12


def test_positivity_samples_are_step_ends(monkeypatch):
    # Positivity is checked on accepted step ends, one per step: for each check
    # time the first step end at or after it.  Neither an interpolant (off by
    # up to 1.4e-7 mid-step on the stability-limited steps of a settled chain)
    # nor an extra RK step from the start of the step.
    from cwlsim import integrator

    ends, segments = [], []
    step, segment = integrator._Dop853.step, integrator._integrate_segment

    def recording_step(self):
        step(self)
        ends.append((self.t, self.y.copy()))

    def recording_segment(*args):
        first = len(ends)
        y = segment(*args)
        check_times, check_out = args[7], args[8]
        segments.append((ends[first:], check_times, check_out))
        return y

    monkeypatch.setattr(integrator._Dop853, "step", recording_step)
    monkeypatch.setattr(integrator, "_integrate_segment", recording_segment)
    propagate(METRO_SINGLE_CFG, METRO_SINGLE_BIN)
    n_checks = 0
    for seg_ends, check_times, check_out in segments:
        firsts = []
        for tc in check_times:
            i = next(i for i, (t, _) in enumerate(seg_ends) if tc <= t + 1e-15)
            if i not in firsts:
                firsts.append(i)
        assert len(check_out) == len(firsts)
        for sample, i in zip(check_out, firsts):
            assert np.array_equal(sample, seg_ends[i][1])
        n_checks += len(check_times)
    assert len(segments) == 2
    assert n_checks == integrator.POSITIVITY_SAMPLES


@pytest.mark.parametrize("cfg, b", [
    pytest.param(METRO_SINGLE_CFG, METRO_SINGLE_BIN, id="metro_single"),
    pytest.param(SystemConfig(alpha=PARITY_DRIVE, M=2), PARITY_BIN, id="parity2"),
])
def test_output_grid_matches_full_state_oracle(cfg, b, monkeypatch):
    # The grid samples come from an interpolant of the diagonal and the <b'>
    # entries alone, all times of a step at once; the oracle interpolates the
    # whole state one time at a time.  The grid never steers the steps.
    import sampling_oracle
    from cwlsim import integrator

    traj = propagate(cfg, b)
    two = dataclasses.replace(cfg.numerics, output_points=2)
    assert np.array_equal(propagate(dataclasses.replace(cfg, numerics=two), b).rho_v.mat,
                          traj.rho_v.mat)
    monkeypatch.setattr(integrator, "_integrate_segment", sampling_oracle.segment)
    monkeypatch.setattr(integrator, "_collector", sampling_oracle.collector)
    ref = propagate(cfg, b)
    assert np.array_equal(ref.rho_v.mat, traj.rho_v.mat)
    assert (ref.diagnostics.n_rhs, ref.diagnostics.n_steps) == (traj.diagnostics.n_rhs,
                                                                traj.diagnostics.n_steps)
    assert np.max(np.abs(traj.populations - ref.populations)) <= 1e-13
    assert np.max(np.abs(traj.cavity_occupation - ref.cavity_occupation)) <= 1e-13
    assert np.all(ref.populations[1:].sum(axis=1) > 0)  # every grid point was written


def test_samples_on_step_ends_read_the_state(monkeypatch):
    # at two output points the only sample inside the bin is its end, which is
    # the last step's end: it reads that state, so no dense output is built
    from cwlsim import integrator

    calls = []
    dense_output = integrator._Dop853.dense_output

    def counted(solver, keep):
        calls.append(solver.t)
        return dense_output(solver, keep)

    monkeypatch.setattr(integrator._Dop853, "dense_output", counted)
    full = propagate(METRO_SINGLE_CFG, METRO_SINGLE_BIN)
    n_dense = len(calls)
    calls.clear()
    two = dataclasses.replace(METRO_SINGLE_CFG.numerics, output_points=2)
    traj = propagate(dataclasses.replace(METRO_SINGLE_CFG, numerics=two), METRO_SINGLE_BIN)
    diag = traj.diagnostics
    assert calls == []
    assert diag.n_rhs == 664
    assert diag.n_steps == full.diagnostics.n_steps
    assert diag.n_rhs == full.diagnostics.n_rhs - 3 * n_dense
    assert np.array_equal(traj.rho_v.mat, full.rho_v.mat)
    assert traj.cavity_occupation[-1] == full.cavity_occupation[-1]


BLAS_PROBE = """
import hashlib
from cwlsim import SweepPlan, SystemConfig, propagate, run_sweep, wigner_grid
from cwlsim.presets import DRIVE_SERIES, METRO_SINGLE_BIN, METRO_SINGLE_CFG, PARITY_BIN, PARITY_DRIVE

rho_v = propagate(SystemConfig(alpha=PARITY_DRIVE, M=2), PARITY_BIN).rho_v.mat
print(hashlib.sha256(rho_v.tobytes()).hexdigest())
alpha, bin = DRIVE_SERIES[0]
w = wigner_grid(propagate(SystemConfig(alpha=alpha, M=1), bin).rho_v)
print(hashlib.sha256(w.values.tobytes()).hexdigest(), w.negativity.hex())
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
    assert len(outputs[0].splitlines()) == 6
    assert outputs[0] == outputs[1]
