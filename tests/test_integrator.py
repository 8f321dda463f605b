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


@pytest.mark.parametrize("M", [1, 2])
def test_cavity_loss_matches_expm(M):
    # The bin's loss step, exp(ln(1/eta) D[b]) in closed form, against expm of
    # the dense D[b] superoperator on random emitter (x) cavity states.  In the
    # lab frame it takes a state displaced by beta to one displaced by
    # sqrt(eta) beta, so the tail's frame starts at sqrt(eta) beta(s_c) and runs
    # on as sqrt(s / tau) frame_amplitude(t).
    from scipy.linalg import expm

    from lab_oracle import displacement_operator

    from cwlsim.hilbert import annihilation, hermitian_coords, hermitian_matrix
    from cwlsim.integrator import _cavity_loss

    def loss(rho, levels, eta):
        return hermitian_matrix(_cavity_loss(hermitian_coords(rho), levels, eta))

    def random_state(d):
        a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        rho = a @ a.conj().T
        return rho / np.trace(rho)

    levels, cav = 2**M, 6
    d = levels * cav
    b = np.kron(np.eye(levels), annihilation(cav - 1).toarray())
    n, eye = b.conj().T @ b, np.eye(d)
    # row-major vec: vec(X rho Y) = kron(X, Y^T) vec(rho)
    D = np.kron(b, b.conj()) - 0.5 * np.kron(n, eye) - 0.5 * np.kron(eye, n.T)
    rng = np.random.default_rng(7 + M)
    cfg, bin = SystemConfig(alpha=0.7, M=M), BinSpec(t0=0.5, tau=1.0, g_max=2.0)
    s_c = 1.0 / bin.g_max_phys(cfg.kappa) ** 2
    beta = frame_amplitude(cfg, bin, bin.t0 + s_c)
    big = 40  # displace on a far larger Fock space, exact on its low levels
    Db = displacement_operator(beta, big - 1)
    for eta in (1e-7, 1e-3, 0.5):
        P = expm(math.log(1 / eta) * D)
        for _ in range(2):
            rho = random_state(d)
            ref = (P @ rho.reshape(-1)).reshape(d, d)
            assert np.max(np.abs(loss(rho, levels, eta) - ref)) <= 1e-12
        pad = np.zeros((levels, big, levels, big), dtype=complex)
        pad[:, :cav, :, :cav] = random_state(d).reshape(levels, cav, levels, cav)
        pad = pad.reshape(levels * big, levels * big)
        shift = np.kron(np.eye(levels), Db)
        shift_eta = np.kron(np.eye(levels), displacement_operator(math.sqrt(eta) * beta, big - 1))
        lab = loss(shift @ pad @ shift.conj().T, levels, eta)
        framed = shift_eta @ loss(pad, levels, eta) @ shift_eta.conj().T
        assert np.max(np.abs(lab - framed)) <= 1e-12
    eta = s_c / bin.tau
    for s in (s_c, 0.3, 0.7, bin.tau):
        tail = math.sqrt(s / bin.tau) * frame_amplitude(cfg, bin, bin.t0 + s)
        closed = math.sqrt(eta) * beta + cfg.alpha_phys * (s - s_c) / math.sqrt(bin.tau)
        assert abs(tail - closed) <= 1e-15


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
    rhs = Generator.rhs

    def counting(self, x, *g):
        calls.append(self.dim)
        return rhs(self, x, *g)

    monkeypatch.setattr(Generator, "rhs", counting)
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
    rhs = Generator.rhs

    def counting(self, x, *g):
        calls.append(g)
        return rhs(self, x, *g)

    monkeypatch.setattr(Generator, "rhs", counting)
    diag = propagate(SystemConfig(alpha=0.6, M=1), BinSpec(t0=0.4, tau=0.9)).diagnostics
    assert diag.n_rhs == len(calls)
    # 12 stage evaluations per attempted step, plus dense-output stages
    assert diag.n_rhs >= 12 * (diag.n_steps + diag.n_rejected)
    assert 0 < diag.h_min <= 0.02 * 0.9


def test_h_min_counts_only_steps_the_error_control_chose():
    # the clamp piece is one step cut to land on t0 + 1/g_max^2: it and every
    # other segment-ending step are left out of h_min
    diag = propagate(METRO_SINGLE_CFG, METRO_SINGLE_BIN).diagnostics
    G = METRO_SINGLE_BIN.g_max_phys(METRO_SINGLE_CFG.kappa)
    assert diag.h_min > 1.0 / (G * G)


def test_assemble_s_counts_generator_assembly():
    # the time in get_generator and Generator.vacuum: a cold call assembles the
    # bin's generator and takes the emitters' block from it, a warm repeat
    # looks the generator up and takes the block again
    from cwlsim.model import _drive_free, _superoperators

    cfg, b = SystemConfig(alpha=0.6, M=1), BinSpec(t0=0.4, tau=0.9)
    _superoperators.cache_clear()
    _drive_free.cache_clear()
    cold = propagate(cfg, b).diagnostics
    warm = propagate(cfg, b).diagnostics
    assert cold.assemble_s > warm.assemble_s > 0
    assert warm.n_rhs == cold.n_rhs


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
    # scipy's DOP853 steps the complex vec(rho); the own stepper steps the
    # real Hermitian coordinates, whose weighted RMS error norm is the same
    from cwlsim.hilbert import hermitian_coords, hermitian_matrix
    from cwlsim.integrator import _cavity_loss
    from cwlsim.model import get_generator

    cfg, b, pre_tol = case()
    num = cfg.numerics

    def rel(x, ref):
        a = hermitian_matrix(x).reshape(-1)
        return np.linalg.norm(a - ref) / np.linalg.norm(ref)

    gen_pre = get_generator(cfg, b, 1)
    y0 = np.zeros(gen_pre.dim**2, dtype=complex)
    y0[0] = 1.0
    ref_pre, n_pre = _scipy_segment(gen_pre.apply_vec, num, 0.0, b.t0, y0)
    own_pre, n_own = _own_segment(lambda t, x: gen_pre.rhs(x), num, 0.0, b.t0,
                                  hermitian_coords(y0))
    assert n_own == n_pre
    assert rel(own_pre, ref_pre) < pre_tol

    diag = propagate(cfg, b).diagnostics
    assert diag.bin_runs == 1
    cav_dim = diag.cutoff + 1
    vac = np.zeros((cav_dim, cav_dim), dtype=complex)
    vac[0, 0] = 1.0
    y_t0 = np.kron(ref_pre.reshape(gen_pre.dim, gen_pre.dim), vac).reshape(-1)
    gen = get_generator(cfg, b, cav_dim)
    # the bin's constant pieces, each with the same RHS on both sides: the clamp
    # at g = -g_max, the cavity loss of transmissivity s_c / tau, the tail at
    # g = -1/sqrt(tau) without R2
    G = b.g_max_phys(cfg.kappa)
    s_c = 1.0 / (G * G)
    t_c = b.t0 + s_c
    ref, own = y_t0, hermitian_coords(y_t0)
    n_bin = 0
    for t_a, t_b, g in [(b.t0, t_c, (-G, G * G)), (t_c, b.t_end, (-1.0 / math.sqrt(b.tau),))]:
        if t_a > b.t0:
            eta = s_c / b.tau
            ref = hermitian_matrix(_cavity_loss(hermitian_coords(ref), gen_pre.dim, eta))
            own = _cavity_loss(own, gen_pre.dim, eta)
        ref, n_ref = _scipy_segment(
            lambda t, y: hermitian_matrix(gen.rhs(hermitian_coords(y), *g)).reshape(-1),
            num, t_a, t_b, ref.reshape(-1))
        own, n_own = _own_segment(lambda t, x: gen.rhs(x, *g), num, t_a, t_b, own)
        assert n_own == n_ref
        n_bin += n_ref
    assert rel(own, ref) < 1e-12
    assert diag.n_steps == n_pre + n_bin


@pytest.mark.parametrize("cfg, b", [
    pytest.param(METRO_SINGLE_CFG, METRO_SINGLE_BIN, id="metro_single"),
    pytest.param(SystemConfig(alpha=SINGLE_DRIVE, M=1), SINGLE_MID_BIN, id="single_mid"),
    pytest.param(METRO_PAIR_CFG, METRO_PAIR_BIN, id="metro_pair"),
    pytest.param(SystemConfig(alpha=DRIVE_SERIES[-1][0], M=1), DRIVE_SERIES[-1][1],
                 id="drive2.5"),
    pytest.param(METRO_CRB_CFG, METRO_CRB_BIN, id="metro_crb"),
    pytest.param(SystemConfig(alpha=NOISE_DRIVE, M=1, gamma_D=0.5), NOISE_BIN, id="noise"),
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
    # The bin runs as constant pieces, with no step cap: the clamp, one cavity
    # loss step, then the tail's constant generator.  Capped at 2 % of tau and
    # opened at g(t0) = 0 this run took 1594 RHS calls, 23 rejected; stepping
    # the clamped g(t) itself from its right limit at t0, 653 in the bin.
    diag = propagate(METRO_SINGLE_CFG, METRO_SINGLE_BIN).diagnostics
    assert diag.n_rhs <= 1000
    assert diag.n_rejected <= 12
    assert diag.n_rhs_bin <= 200


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
        first, n_out = len(ends), len(args[8])
        y = segment(*args)
        check_times, check_out = args[7], args[8][n_out:]  # the pieces share one list
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
    assert len(segments) == 3  # before the bin, the clamp, the tail
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
    assert diag.n_rhs == 162
    assert diag.n_steps == full.diagnostics.n_steps
    assert diag.n_rhs == full.diagnostics.n_rhs - 3 * n_dense
    assert np.array_equal(traj.rho_v.mat, full.rho_v.mat)
    assert traj.cavity_occupation[-1] == full.cavity_occupation[-1]


BLAS_PROBE = """
import hashlib
from cwlsim import (SweepPlan, SystemConfig, crb, fit_displaced_mixture, propagate, run_sweep,
                    wigner_grid)
from cwlsim.presets import DRIVE_SERIES, METRO_SINGLE_BIN, METRO_SINGLE_CFG, PARITY_BIN, PARITY_DRIVE

rho_v = propagate(SystemConfig(alpha=PARITY_DRIVE, M=2), PARITY_BIN).rho_v.mat
print(hashlib.sha256(rho_v.tobytes()).hexdigest())
print(crb(rho_v, 100.0).hex())
alpha, bin = DRIVE_SERIES[0]
rho = propagate(SystemConfig(alpha=alpha, M=1), bin).rho_v
w = wigner_grid(rho)
print(hashlib.sha256(w.values.tobytes()).hexdigest(), w.negativity.hex())
print(fit_displaced_mixture(rho, alpha, bin.tau).fidelity.hex())
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
    assert len(outputs[0].splitlines()) == 8
    assert outputs[0] == outputs[1]


def test_propagate_solves_the_end_state_once(monkeypatch):
    # One eigvalsh per positivity sample, then DensityMatrix of the cavity
    # marginal, of rho_v and of rho_bin_start.  The last sample is the end
    # state, so its DensityMatrix reads that sample's smallest eigenvalue, and
    # rho_bin_start = rho_e (x) |0><0| takes rho_e's: no solve is larger than
    # the propagation's own state.
    from cwlsim import integrator

    eigvalsh, calls = np.linalg.eigvalsh, []
    segment, samples = integrator._integrate_segment, []

    def recording_segment(*args):
        y = segment(*args)
        samples.extend(args[8])  # check_out
        return y

    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a.shape) or eigvalsh(a))
    monkeypatch.setattr(integrator, "_integrate_segment", recording_segment)
    cut = propagate(METRO_SINGLE_CFG, METRO_SINGLE_BIN).diagnostics.cutoff
    assert len(samples) >= 2
    assert len(calls) == len(samples) + 3
    dim = METRO_SINGLE_CFG.levels**METRO_SINGLE_CFG.M * (cut + 1)
    assert max(n for shape in calls for n in shape) <= dim


def test_dop853_tableau_equals_scipy():
    # scipy's private module is a test-only oracle; src/cwlsim never imports it
    from scipy.integrate._ivp import dop853_coefficients as ref

    from cwlsim import _dop853

    for name in ("A", "B", "C", "D", "E3", "E5"):
        ours, theirs = getattr(_dop853, name), getattr(ref, name)
        assert ours.dtype == theirs.dtype == np.float64
        assert np.array_equal(ours.view(np.int64), theirs.view(np.int64)), name
    for name in ("N_STAGES", "N_STAGES_EXTENDED", "INTERPOLATOR_POWER"):
        assert getattr(_dop853, name) == getattr(ref, name), name


# scipy subpackages the library never imports: it uses numpy and scipy.sparse only
SCIPY_UNUSED = ("scipy.integrate", "scipy.optimize", "scipy.special", "scipy.linalg")
IMPORT_PROBE = f"""
SCIPY_UNUSED = {SCIPY_UNUSED!r}
import sys
import cwlsim
import cwlsim.cli
print(sorted(m for m in SCIPY_UNUSED if m in sys.modules))
"""


def test_import_loads_no_scipy_integrate():
    import ast
    import os
    import subprocess
    import sys
    from pathlib import Path

    import cwlsim

    pkg = Path(cwlsim.__file__).resolve().parent
    env = dict(os.environ, PYTHONPATH=str(pkg.parent))
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
    for path in pkg.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
                names = [node.module] + [f"{node.module}.{a.name}" for a in node.names]
            else:
                continue
            for name in names:
                parts = name.split(".")
                assert not (parts[0] == "scipy" and any(p.startswith("_") for p in parts)), \
                    f"{path.name} imports the private {name}"
                assert not any(name == m or name.startswith(m + ".") for m in SCIPY_UNUSED), \
                    f"{path.name} imports {name}"
