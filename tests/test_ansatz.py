import math

import numpy as np
import pytest

from lab_oracle import displacement_operator

from cwlsim.ansatz import fit_displaced_mixture
from cwlsim.hilbert import DensityMatrix, coherent_state, fock_state, pure_density


def test_pure_coherent_state_fit():
    beta = 0.8
    dm = pure_density(coherent_state(beta, 18))
    fit = fit_displaced_mixture(dm, alpha=beta, tau=1.0)
    assert fit.weights[0] == pytest.approx(1.0, abs=1e-9)
    assert abs(abs(fit.coefficients[0, 0]) - 1.0) < 1e-8
    assert fit.fidelity == pytest.approx(1.0, abs=1e-9)


def test_displaced_single_photon_fit():
    beta = 0.7 - 0.2j
    cutoff = 20
    d = displacement_operator(beta, cutoff)
    psi = d @ fock_state(1, cutoff)
    dm = pure_density(psi)
    # alpha such that sqrt(tau) alpha = beta with tau = 1
    fit = fit_displaced_mixture(dm, alpha=beta, tau=1.0)
    assert fit.weights[0] == pytest.approx(1.0, abs=1e-8)
    row = np.abs(fit.coefficients[0])
    assert row[1] == pytest.approx(1.0, abs=1e-6)
    assert fit.fidelity > 1 - 1e-6


def test_row_phase_convention_dominant_entry_real():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    rho = x @ x.conj().T
    rho /= np.trace(rho)
    fit = fit_displaced_mixture(DensityMatrix(rho), alpha=0.3, tau=1.0)
    for row in fit.coefficients:
        k = int(np.argmax(np.abs(row)))
        assert abs(row[k].imag) < 1e-10
        assert row[k].real > 0


def test_rows_orthonormal():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(10, 10)) + 1j * rng.normal(size=(10, 10))
    rho = x @ x.conj().T
    rho /= np.trace(rho)
    fit = fit_displaced_mixture(DensityMatrix(rho), alpha=0.4, tau=2.0)
    gram = fit.coefficients @ fit.coefficients.conj().T
    assert np.max(np.abs(gram - np.eye(3))) < 1e-10
    assert fit.weights[0] >= fit.weights[1] >= fit.weights[2] >= 0
    assert np.sum(fit.weights) <= 1 + 1e-9


def test_fidelity_invariant_under_drive_phase():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12))
    rho = x @ x.conj().T
    rho /= np.trace(rho)
    alpha = 0.6
    f0 = fit_displaced_mixture(DensityMatrix(rho), alpha, tau=1.5).fidelity
    for theta in (0.7, 2.1):
        # rotating the drive phase and the state together leaves the fit alone
        phase = np.exp(1j * theta * np.arange(12))
        rot = phase[:, None] * rho * phase.conj()[None, :]
        f = fit_displaced_mixture(
            DensityMatrix(rot), alpha * np.exp(1j * theta), tau=1.5
        ).fidelity
        # exact identity; the eigh/svd chain leaves ~1e-9 residue
        assert abs(f - f0) < 1e-8


def test_enlarged_span_never_decreases_fidelity():
    rng = np.random.default_rng(5)
    for _ in range(10):
        x = rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12))
        rho = x @ x.conj().T
        rho /= np.trace(rho)
        dm = DensityMatrix(rho)
        f3 = fit_displaced_mixture(dm, alpha=0.5, tau=1.0, span=3).fidelity
        f4 = fit_displaced_mixture(dm, alpha=0.5, tau=1.0, span=4).fidelity
        assert f4 >= f3 - 1e-9


def test_mid_bin_capture_fit_quality():
    from cwlsim.integrator import propagate
    from cwlsim.model import SystemConfig
    from cwlsim.presets import SINGLE_DRIVE, SINGLE_MID_BIN

    cfg = SystemConfig(alpha=SINGLE_DRIVE, M=1)
    traj = propagate(cfg, SINGLE_MID_BIN)
    fit = fit_displaced_mixture(traj.rho_v, cfg.alpha, SINGLE_MID_BIN.tau)
    assert fit.fidelity > 0.99
