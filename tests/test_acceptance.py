"""Acceptance gate: one test per criterion, each printing a PASS line.

Every tolerance is pinned here.  The calibrated working points live in
cwlsim.presets; the metrology criteria re-run their documented optimization
grids rather than trusting the frozen optimum.
"""

import dataclasses
import math
import time

import numpy as np
import pytest

from lab_oracle import lab_reference

from cwlsim.ansatz import fit_displaced_mixture
from cwlsim.bethe import transmission_phase
from cwlsim.hilbert import (coherent_state, fidelity, partial_trace,
                            pure_density, trace_distance)
from cwlsim.integrator import propagate
from cwlsim.metrology import (coherent_moments, crb, extract_moments,
                              jz_sensitivity, squeezed_reference)
from cwlsim.model import BinSpec, Numerics, SystemConfig
from cwlsim.presets import (DRIVE_SERIES, METRO_CRB_CFG, METRO_CRB_BIN,
                            METRO_CRB_NB_TREND, METRO_N_B, METRO_PAIR_CFG,
                            METRO_PAIR_GRID, METRO_SINGLE_CFG,
                            METRO_SINGLE_GRID, NOISE_BIN, NOISE_DRIVE,
                            NOISE_RATES, PARITY_BIN, PARITY_DRIVE,
                            SINGLE_DRIVE, SINGLE_MID_BIN, SINGLE_SHORT_BIN,
                            SINGLE_STEADY_BIN)
from cwlsim.shortbin import emitter_moments, shortbin_oracle, shortbin_rho
from cwlsim.sweep import SweepPlan, run_sweep
from cwlsim.wigner import _mean_amplitude, wigner_grid

_PROPAGATION_LOG = []


def _propagate(cfg, bin, **kw):
    traj = propagate(cfg, bin, **kw)
    _PROPAGATION_LOG.append(traj)
    return traj


def _coherent_fidelity(rho_v, beta):
    return fidelity(rho_v, pure_density(coherent_state(beta, rho_v.dim - 1)))


def report(name, detail):
    print(f"\nACCEPTANCE PASS [{name}] {detail}")


def test_criterion_01_shortbin_oracle_chain():
    t_start = time.time()
    for M in (1, 2):
        for alpha in (0.5, 0.9):
            cfg = SystemConfig(alpha=alpha, M=M)
            b = BinSpec(t0=1.5, tau=1e-3)
            traj = _propagate(cfg, b)
            rho_e = partial_trace(traj.rho_bin_start, tuple(range(M)))
            mom = emitter_moments(rho_e, M)
            cutoff = traj.rho_v.dim - 1
            closed = shortbin_rho(mom, alpha, b.tau, cfg.kappa, M, cutoff=cutoff)
            oracle = shortbin_oracle(rho_e, alpha, b.tau, cfg.kappa, M, cutoff=cutoff)
            td = trace_distance(traj.rho_v, closed)
            entry = float(np.max(np.abs(closed.mat - oracle.mat)))
            assert td < 5e-3, (M, alpha, td)
            assert entry < 1e-8, (M, alpha, entry)
    elapsed = time.time() - t_start
    assert elapsed < 60.0
    report("1 short-bin oracle chain",
           f"max trace distance < 5e-3, closed-vs-oracle < 1e-8, {elapsed:.1f}s")


def test_criterion_02_no_emitter_limit():
    cfg = SystemConfig(alpha=0.7, M=0)
    fids = []
    for b in (BinSpec(t0=0.0, tau=0.5), BinSpec(t0=0.5, tau=1.0),
              BinSpec(t0=2.0, tau=3.0)):
        traj = _propagate(cfg, b)
        beta = cfg.alpha_phys * math.sqrt(b.tau)
        f = _coherent_fidelity(traj.rho_v, beta)
        assert f >= 0.9999, (b, f)
        fids.append(f)
    report("2 no-emitter limit", f"coherent fidelities {min(fids):.6f}..{max(fids):.6f}")


def test_criterion_03_rabi_frequency():
    cfg = SystemConfig(alpha=SINGLE_DRIVE, M=1)
    traj = _propagate(cfg, BinSpec(t0=8.0, tau=0.5))
    pops = traj.populations[:, 0]
    i_peak = int(np.argmax(pops[: len(pops) // 2]))
    omega_est = math.pi / traj.times[i_peak]
    omega = 2.0 * SINGLE_DRIVE
    rel = abs(omega_est - omega) / omega
    assert rel < 0.05
    report("3 Rabi frequency", f"estimate {omega_est:.4f} vs {omega:.4f} ({rel*100:.1f}%)")


def test_criterion_04_bin_width_pattern():
    cfg = SystemConfig(alpha=SINGLE_DRIVE, M=1)
    negs = {}
    for label, b in (("short", SINGLE_SHORT_BIN), ("mid", SINGLE_MID_BIN),
                     ("steady", SINGLE_STEADY_BIN)):
        traj = _propagate(cfg, b)
        negs[label] = wigner_grid(traj.rho_v).negativity
    assert negs["short"] < 1e-3, negs
    assert negs["mid"] > 0.01, negs
    assert negs["steady"] < 1e-3, negs
    report("4 bin-width pattern",
           f"W- short {negs['short']:.2e}, mid {negs['mid']:.4f}, steady {negs['steady']:.2e}")


def test_criterion_05_noise_degradation():
    negs_g, negs_d = [], []
    for r in NOISE_RATES:
        tg = _propagate(SystemConfig(alpha=NOISE_DRIVE, M=1, Gamma=r), NOISE_BIN)
        negs_g.append(wigner_grid(tg.rho_v).negativity)
        td = _propagate(SystemConfig(alpha=NOISE_DRIVE, M=1, gamma_D=r), NOISE_BIN)
        negs_d.append(wigner_grid(td.rho_v).negativity)
    for seq in (negs_g, negs_d):
        for a, b in zip(seq, seq[1:]):
            assert b <= a + 1e-5, seq
    for d, g in zip(negs_d, negs_g):
        assert d <= g + 1e-5, (negs_d, negs_g)
    # strong waveguide loss leaves coherent light (transparent chain); the
    # residual 1/Gamma amplitude attenuation is matched, not ignored
    traj = _propagate(SystemConfig(alpha=NOISE_DRIVE, M=1, Gamma=10.0), NOISE_BIN)
    mu = _mean_amplitude(traj.rho_v.mat)
    f = _coherent_fidelity(traj.rho_v, mu)
    assert f > 0.99
    report("5 noise degradation",
           f"monotone, dark-state at least as damaging, fidelity {f:.5f} at Gamma=10")


def test_criterion_06_even_odd_parity():
    beta = PARITY_DRIVE * math.sqrt(PARITY_BIN.tau)
    for M in (2, 4):
        traj = _propagate(SystemConfig(alpha=PARITY_DRIVE, M=M), PARITY_BIN)
        f = _coherent_fidelity(traj.rho_v, beta)
        assert f > 0.99, (M, f)
    for M in (1, 3):
        traj = _propagate(SystemConfig(alpha=PARITY_DRIVE, M=M), PARITY_BIN)
        neg = wigner_grid(traj.rho_v).negativity
        assert neg > 0.005, (M, neg)
    for n in (1, 2, 3):
        assert transmission_phase(0.0, n, 1.0) == -1.0 + 0.0j
    report("6 even/odd parity",
           "even chains coherent (>0.99), odd chains negative (W- > 0.005), t(0,n) = -1")


def test_criterion_07_ansatz_fidelity():
    fids = []
    for alpha, b in DRIVE_SERIES:
        cfg = SystemConfig(alpha=alpha, M=1)
        traj = _propagate(cfg, b)
        fit = fit_displaced_mixture(traj.rho_v, alpha, b.tau)
        assert fit.fidelity > 0.99, (alpha, fit.fidelity)
        fids.append(fit.fidelity)
    report("7 displaced rank-3 fit", f"fidelities {min(fids):.4f}..{max(fids):.4f}")


def test_criterion_08_jz_metrology(tmp_path):
    t_start = time.time()
    # shot-noise recovery for coherent port a
    for n_b in (1.0, 10.0, 100.0, 1e4):
        res = jz_sensitivity(coherent_moments(2.0), n_b)
        assert abs(res.delta_phi * math.sqrt(2.0 + n_b) - 1) < 1e-3

    # single emitter, weak dark-state decay: optimize on the documented grid
    plan = SweepPlan(
        axes=(("alpha", METRO_SINGLE_GRID["alpha"]),
              ("t0", METRO_SINGLE_GRID["t0"]),
              ("tau", METRO_SINGLE_GRID["tau"])),
        objective="jz_improvement",
        N_b=METRO_N_B,
    )
    rows = run_sweep(plan, METRO_SINGLE_CFG)
    best_single = rows[0].objective
    assert abs(best_single - 0.10) < 0.03, best_single

    # two emitters, strong dark-state decay
    plan2 = SweepPlan(
        axes=(("alpha", METRO_PAIR_GRID["alpha"]),
              ("t0", METRO_PAIR_GRID["t0"]),
              ("tau", METRO_PAIR_GRID["tau"])),
        objective="jz_improvement",
        N_b=METRO_N_B,
    )
    rows2 = run_sweep(plan2, METRO_PAIR_CFG)
    best_pair = rows2[0].objective
    assert best_pair >= 0.02, best_pair
    elapsed = time.time() - t_start
    assert elapsed < 600.0
    report("8 intensity-difference metrology",
           f"single {best_single*100:.1f}%, pair {best_pair*100:.1f}%, {elapsed:.0f}s")


def test_criterion_09_quantum_bound_trend():
    traj = _propagate(METRO_CRB_CFG, METRO_CRB_BIN)
    mom = extract_moments(traj.rho_v)
    baseline = METRO_CRB_BIN.tau * abs(METRO_CRB_CFG.alpha_phys) ** 2
    imps_cr, imps_jz = [], []
    for n_b in METRO_CRB_NB_TREND:
        sn = 1.0 / math.sqrt(baseline + n_b)
        bound = crb(traj.rho_v, n_b)
        res = jz_sensitivity(mom, n_b, baseline_na=baseline)
        assert bound <= res.delta_phi * (1 + 1e-6), (n_b, bound, res.delta_phi)
        imps_cr.append(sn / bound - 1.0)
        imps_jz.append(res.improvement)
    assert all(b > a for a, b in zip(imps_cr, imps_cr[1:])), imps_cr
    assert all(c > j for c, j in zip(imps_cr, imps_jz)), (imps_cr, imps_jz)
    # consistent with the approach toward ~21 percent: already past the
    # estimator's ~10 percent asymptote and still below the bound value
    assert 0.10 < imps_cr[-1] < 0.23, imps_cr
    report("9 quantum bound trend",
           "improvements " + ", ".join(f"{x*100:.1f}%" for x in imps_cr) + " (monotone)")


def test_criterion_10_squeezed_reference():
    # reference state matched to the J_z-optimal capture
    from cwlsim.presets import METRO_SINGLE_BIN

    traj = _propagate(METRO_SINGLE_CFG, METRO_SINGLE_BIN)
    mom = extract_moments(traj.rho_v)
    baseline = METRO_SINGLE_BIN.tau * abs(METRO_SINGLE_CFG.alpha_phys) ** 2
    res = jz_sensitivity(mom, METRO_N_B, baseline_na=baseline)
    sq = squeezed_reference(mom.N_a, METRO_N_B)
    sq_improvement = res.delta_phi_sn / sq.delta_phi - 1.0
    assert abs(sq_improvement - 0.30) < 0.03, sq_improvement
    assert sq_improvement > res.improvement
    report("10 squeezed reference",
           f"matched squeezed improvement {sq_improvement*100:.1f}% > capture {res.improvement*100:.1f}%")


def test_criterion_11_property_suites():
    t_start = time.time()
    # trace / Hermiticity / positivity on every propagation made above (or on
    # fresh reference runs when this criterion executes in isolation)
    if not _PROPAGATION_LOG:
        _propagate(SystemConfig(alpha=SINGLE_DRIVE, M=1), SINGLE_MID_BIN)
        _propagate(SystemConfig(alpha=NOISE_DRIVE, M=2, gamma_D=0.5),
                   BinSpec(t0=1.0, tau=2.0))
    for traj in _PROPAGATION_LOG:
        d = traj.diagnostics
        assert d.trace_drift_max < 1e-8
        assert d.hermiticity_max < 1e-8
        assert d.positivity_min > -1e-7

    # Wigner normalization and the analytic single-photon negativity
    from cwlsim.hilbert import fock_state

    w1 = wigner_grid(pure_density(fock_state(1, 14)), bounds=((-4, 4), (-4, 4)))
    assert abs(w1.norm - 1) < 2e-3
    assert abs(w1.negativity - (2 * math.exp(-0.5) - 1)) < 2e-3

    # the displaced-frame propagation against the lab-frame oracle
    cfg = SystemConfig(alpha=0.5, M=1)
    b = BinSpec(t0=1.0, tau=1.5)
    tr = _propagate(cfg, b)
    assert trace_distance(tr.rho_v.mat, lab_reference(cfg, b)[0]) < 1e-5

    # kappa-scaling invariance
    cfg1 = SystemConfig(alpha=0.6, M=1, Gamma=0.2)
    r_ref = _propagate(cfg1, BinSpec(t0=0.8, tau=1.2)).rho_v
    for s in (0.5, 2.0):
        cfg2 = dataclasses.replace(cfg1, kappa=s)
        r = _propagate(cfg2, BinSpec(t0=0.8 / s, tau=1.2 / s)).rho_v
        assert trace_distance(r_ref.mat, r.mat) < 1e-6

    # sweep determinism
    plan = SweepPlan(axes=(("t0", (0.2, 0.6)), ("tau", (0.8,))),
                     objective="negativity")
    rows_a = run_sweep(plan, SystemConfig(alpha=0.5, M=1), parallel=True)
    rows_b = run_sweep(plan, SystemConfig(alpha=0.5, M=1), parallel=False)
    assert [(r.params, r.objective) for r in rows_a] == [
        (r.params, r.objective) for r in rows_b
    ]

    # the built-in invariant runner finishes comfortably inside its budget
    from cwlsim.selftest import run_selftest

    rc = run_selftest(out=lambda *_: None)
    assert rc == 0
    elapsed = time.time() - t_start
    assert elapsed < 900.0
    report("11 property suites", f"all invariants green, selftest ok, {elapsed:.0f}s")
