"""Built-in invariant suite behind the ``selftest`` CLI subcommand.

A curated set of structural checks on a clean installation: each check prints
one PASS/FAIL line.  The pytest suite is the full gate; this runner covers
the core invariants without requiring the test tree.
"""

from __future__ import annotations

import dataclasses
import math
import time

import numpy as np

from .ansatz import fit_displaced_mixture
from .bethe import transmission_phase
from .hilbert import (DensityMatrix, annihilation, coherent_state,
                      displacement_operator, fidelity, fock_state,
                      partial_trace, pure_density, trace_distance)
from .integrator import propagate
from .metrology import coherent_moments, crb, jz_sensitivity
from .model import BinSpec, SystemConfig, liouvillian_apply, resolve_cutoff
from .shortbin import emitter_moments, shortbin_oracle, shortbin_rho
from .sweep import SweepPlan, run_sweep
from .wigner import wigner_grid


def _check_hilbert():
    a = annihilation(20).toarray()
    comm = a @ a.conj().T - a.conj().T @ a
    assert np.max(np.abs(comm[:19, :19] - np.eye(20)[:19, :19])) < 1e-12
    beta = 0.8 - 0.3j
    d = displacement_operator(beta, 25)
    assert np.max(np.abs(d @ fock_state(0, 25) - coherent_state(beta, 25))) < 1e-9
    rho_a = pure_density(coherent_state(0.5, 5)).mat
    rho_b = pure_density(fock_state(1, 3)).mat
    joint = DensityMatrix(np.kron(rho_a, rho_b), (6, 4))
    back = partial_trace(joint, 0)
    assert np.max(np.abs(back.mat - rho_a)) < 1e-12


def _check_model():
    cfg = SystemConfig(alpha=0.4, M=1)
    b = BinSpec(t0=0.5, tau=1.0)
    rng = np.random.default_rng(0)
    dim = 2 * (resolve_cutoff(cfg, b) + 1)
    X = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = X @ X.conj().T
    rho /= np.trace(rho)
    out = liouvillian_apply(cfg, b, 0.9, rho)
    assert abs(np.trace(out)) < 1e-10 * np.linalg.norm(rho)
    assert np.max(np.abs(out - out.conj().T)) < 1e-10


def _check_propagation():
    cfg = SystemConfig(alpha=0.7, M=0)
    b = BinSpec(t0=0.2, tau=1.0)
    tr = propagate(cfg, b)
    beta = cfg.alpha_phys * math.sqrt(b.tau)
    f = fidelity(tr.rho_v, pure_density(coherent_state(beta, tr.rho_v.dim - 1)))
    assert f > 0.9999, f
    assert tr.diagnostics.trace_drift_max < 1e-8
    assert tr.diagnostics.positivity_min > -1e-7


def _check_kappa_scaling():
    s = 2.0
    cfg1 = SystemConfig(alpha=0.6, M=1, Gamma=0.2)
    b1 = BinSpec(t0=0.8, tau=1.2)
    cfg2 = dataclasses.replace(cfg1, kappa=s)
    b2 = BinSpec(t0=0.8 / s, tau=1.2 / s)
    r1 = propagate(cfg1, b1).rho_v
    r2 = propagate(cfg2, b2).rho_v
    assert trace_distance(r1.mat, r2.mat) < 1e-6


def _check_wigner():
    w0 = wigner_grid(pure_density(fock_state(0, 10)), bounds=((-3, 3), (-3, 3)))
    assert abs(w0.norm - 1) < 2e-3 and w0.negativity < 1e-4
    w1 = wigner_grid(pure_density(fock_state(1, 12)), bounds=((-4, 4), (-4, 4)))
    assert abs(w1.negativity - (2 * math.exp(-0.5) - 1)) < 2e-3


def _check_shortbin():
    rng = np.random.default_rng(1)
    M = 2
    d = 2**M
    X = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = X @ X.conj().T
    rho /= np.trace(rho)
    dm = DensityMatrix(rho, (2,) * M)
    r1 = shortbin_rho(emitter_moments(dm, M), 0.6, 1e-3, 1.0, M)
    r2 = shortbin_oracle(dm, 0.6, 1e-3, 1.0, M)
    assert np.max(np.abs(r1.mat - r2.mat)) < 1e-8


def _check_ansatz():
    beta = 0.9
    dm = pure_density(coherent_state(beta, 16))
    fit = fit_displaced_mixture(dm, alpha=beta, tau=1.0)
    assert fit.fidelity > 1 - 1e-9
    assert abs(fit.weights[0] - 1) < 1e-9


def _check_bethe():
    assert transmission_phase(0.0, 1, 1.0) == -1
    for e, n in ((0.3, 1), (2.0, 2), (11.0, 3)):
        assert abs(abs(transmission_phase(e, n, 1.0)) - 1) < 1e-12


def _check_metrology():
    for nb in (1.0, 10.0, 100.0):
        res = jz_sensitivity(coherent_moments(2.0), nb)
        assert abs(res.delta_phi * math.sqrt(2.0 + nb) - 1) < 1e-3


def _check_quantum_bound():
    # coherent light in both ports sits exactly at shot noise; the default
    # cutoff keeps the port-a truncation leakage below 1e-10
    n_a, n_b = 2.0, 9.0
    dm = pure_density(coherent_state(math.sqrt(n_a)))
    bound = crb(dm, n_b)
    assert abs(bound * math.sqrt(n_a + n_b) - 1) < 1e-6, bound


def _check_sweep_determinism():
    plan = SweepPlan(axes=(("t0", (0.2, 0.6)), ("tau", (0.8,))), objective="negativity")
    cfg = SystemConfig(alpha=0.5, M=1)
    rows_a = run_sweep(plan, cfg, parallel=True)
    rows_b = run_sweep(plan, cfg, parallel=False)
    assert [(r.params, r.objective) for r in rows_a] == [
        (r.params, r.objective) for r in rows_b
    ]


CHECKS = [
    ("hilbert-algebra", _check_hilbert),
    ("liouvillian-structure", _check_model),
    ("propagation-coherent-limit", _check_propagation),
    ("kappa-scaling", _check_kappa_scaling),
    ("wigner-normalization-negativity", _check_wigner),
    ("shortbin-oracle-agreement", _check_shortbin),
    ("ansatz-pure-coherent", _check_ansatz),
    ("bethe-phase", _check_bethe),
    ("metrology-shot-noise", _check_metrology),
    ("quantum-bound-shot-noise", _check_quantum_bound),
    ("sweep-determinism", _check_sweep_determinism),
]


def run_selftest(out=print) -> int:
    """Run every check; returns 0 when all pass, 2 otherwise."""
    failures = 0
    for name, fn in CHECKS:
        t0 = time.time()
        try:
            fn()
            out(f"PASS {name} ({time.time() - t0:.1f}s)")
        except Exception as exc:
            failures += 1
            out(f"FAIL {name}: {type(exc).__name__}: {exc}")
    out(f"{len(CHECKS) - failures}/{len(CHECKS)} checks passed")
    return 0 if failures == 0 else 2
