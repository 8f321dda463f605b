import math

import numpy as np
import pytest

from cwlsim.errors import ConfigError
from cwlsim.hilbert import (DensityMatrix, coherent_state, fock_state,
                            pure_density)
from cwlsim.metrology import (_jz_curves, _jz_stats, coherent_moments, crb,
                              extract_moments, jz_sensitivity, squeezed_reference,
                              squeezed_vacuum_moments)
from metrology_oracles import (beam_splitter_unitary, crb_dense,
                               crb_phi_independence, jz_search, jz_statistics_dense,
                               squeezed_search)


def low_photon_state(rng, support=4, dim=25):
    x = rng.normal(size=(support, support)) + 1j * rng.normal(size=(support, support))
    r = x @ x.conj().T
    r /= np.trace(r)
    rho = np.zeros((dim, dim), dtype=complex)
    rho[:support, :support] = r
    return rho


def test_moments_of_coherent_state():
    beta = 0.9 * np.exp(0.4j)
    mom = extract_moments(pure_density(coherent_state(beta, 24)))
    for p in range(5):
        for q in range(5 - p):
            assert mom.table[p, q] == pytest.approx(
                np.conj(beta) ** p * beta**q, abs=1e-9
            )


def test_moments_of_fock_one():
    mom = extract_moments(pure_density(fock_state(1, 10)))
    assert mom.mu(1, 1) == pytest.approx(1.0)
    assert mom.mu(2, 2) == pytest.approx(0.0)
    assert mom.mu(1, 0) == pytest.approx(0.0)


def test_moments_match_dense_operator_oracle():
    rng = np.random.default_rng(1)
    rho = low_photon_state(rng, support=6, dim=20)
    mom = extract_moments(rho)
    a = np.diag(np.sqrt(np.arange(1.0, 20)), k=1).astype(complex)
    for p in range(5):
        for q in range(5 - p):
            direct = np.trace(rho @ np.linalg.matrix_power(a.conj().T, p)
                              @ np.linalg.matrix_power(a, q))
            assert mom.table[p, q] == pytest.approx(direct, abs=1e-12)


def test_moment_table_symmetry_invariants():
    rng = np.random.default_rng(2)
    mom = extract_moments(low_photon_state(rng))
    assert np.max(np.abs(mom.table - mom.table.conj().T)) < 1e-9
    assert mom.table[0, 0] == 1.0
    assert mom.N_a >= 0


def test_shot_noise_recovery_coherent_inputs():
    for n_b in (1.0, 10.0, 100.0, 1e4):
        res = jz_sensitivity(coherent_moments(2.0), n_b)
        assert res.delta_phi == pytest.approx(1 / math.sqrt(2.0 + n_b), rel=1e-3)


def test_vacuum_port_shot_noise():
    res = jz_sensitivity(coherent_moments(0.0), 64.0)
    assert res.delta_phi == pytest.approx(1 / 8.0, rel=1e-3)


def test_flat_signal_rejected():
    # vacuum both ports: no phase information for this estimator
    with pytest.raises(ConfigError):
        jz_sensitivity(coherent_moments(0.0), 0.0)


def test_jz_statistics_match_dense_interferometer():
    # N_b <= 9 with cutoff_b = 24 on both modes; at N_b = 4 the truncated
    # coherent input is converged and the routes agree to 1e-8
    rng = np.random.default_rng(11)
    rho = low_photon_state(rng, support=4, dim=25)
    mom = extract_moments(rho)
    for phi in (0.3, 1.1, 2.2):
        mean, var, _ = _jz_curves(_jz_stats(mom, 4.0), np.asarray([phi]))
        mean_d, var_d = jz_statistics_dense(rho, 4.0, 24, phi)
        assert abs(mean[0] - mean_d) < 1e-8
        assert abs(var[0] - var_d) < 1e-8


def test_jz_statistics_dense_oracle_converged():
    # with headroom on both modes the two routes agree to full precision
    rng = np.random.default_rng(11)
    rho = low_photon_state(rng, support=4, dim=41)
    mom = extract_moments(rho)
    for phi in (0.5, 1.7):
        mean, var, _ = _jz_curves(_jz_stats(mom, 9.0), np.asarray([phi]))
        mean_d, var_d = jz_statistics_dense(rho, 9.0, 40, phi)
        assert abs(mean[0] - mean_d) < 1e-10
        assert abs(var[0] - var_d) < 1e-10


def phi_distance(a, b):
    """Distance between two estimator phases, which are defined mod pi."""
    d = (a - b) % math.pi
    return min(d, math.pi - d)


def test_closed_form_matches_search_oracle():
    rng = np.random.default_rng(21)
    for _ in range(4):
        mom = extract_moments(low_photon_state(rng))
        for n_b in (0.5, 1.0, 4.0, 25.0, 100.0):
            for b_phase in (0.0, 0.9):
                res = jz_sensitivity(mom, n_b, b_phase=b_phase)
                dphi, phi_opt = jz_search(mom, n_b, b_phase)
                assert res.delta_phi == pytest.approx(dphi, rel=1e-12)
                assert phi_distance(res.phi_opt, phi_opt) < 1e-6


def test_balanced_coherent_optimum_at_phi_zero():
    # Z = 0 and A = (N/2) I: the optimum sits at phi = 0, on the edge of the
    # default grid, with delta_phi = 1/sqrt(2N) at every co-rotated drive phase
    for n in (1.0, 4.0, 25.0):
        for phase in (0.0, 0.9, 2.0):
            res = jz_sensitivity(coherent_moments(n, phase), n, b_phase=phase)
            assert phi_distance(res.phi_opt, 0.0) < 1e-14
            assert res.delta_phi == pytest.approx(1 / math.sqrt(2 * n), rel=1e-14)


def test_fock_vacuum_port_rank_one_covariance():
    # V_z = 0: every phi off 0 reaches 1/sqrt(n); the pseudo-inverse picks pi/2
    for n in (1, 2, 3):
        res = jz_sensitivity(extract_moments(pure_density(fock_state(n, 8))), 0.0)
        assert res.delta_phi == pytest.approx(1 / math.sqrt(n), rel=1e-14)
        assert res.phi_opt == pytest.approx(math.pi / 2, abs=1e-14)


def test_squeezed_reference_is_best_angle():
    for n_a, n_b in ((0.93, 100.0), (0.1, 4.0), (2.0, 25.0), (0.3, 1.0)):
        ref = squeezed_reference(n_a, n_b)
        assert ref.delta_phi == squeezed_search(n_a, n_b)
        assert ref.delta_phi == pytest.approx(
            jz_search(squeezed_vacuum_moments(n_a, 0.0), n_b)[0], rel=1e-12)
        for theta in np.linspace(0.0, 2 * math.pi, 64, endpoint=False):
            res = jz_sensitivity(squeezed_vacuum_moments(n_a, theta), n_b)
            assert res.delta_phi >= ref.delta_phi


def test_phase_convention_invariance():
    # rotating the port-a state and co-rotating the port-b phase is a global
    # U(1) that commutes with the interferometer: delta_phi is unchanged
    rng = np.random.default_rng(3)
    rho = low_photon_state(rng)
    res0 = jz_sensitivity(extract_moments(rho), 25.0)
    theta = 0.9
    phase = np.exp(1j * theta * np.arange(rho.shape[0]))
    rot = phase[:, None] * rho * phase.conj()[None, :]
    res1 = jz_sensitivity(extract_moments(rot), 25.0, b_phase=theta)
    assert abs(res0.delta_phi - res1.delta_phi) < 1e-8
    assert abs(res0.phi_opt - res1.phi_opt) < 1e-6


def test_beam_splitter_unitarity_and_coherent_mapping():
    dim_a = dim_b = 12
    u = beam_splitter_unitary(dim_a, dim_b)
    err = np.max(np.abs(u @ u.conj().T - np.eye(dim_a * dim_b)))
    assert err < 1e-12
    # coherent in, coherent out with amplitudes (a + i b)/sqrt(2), (i a + b)/sqrt(2)
    al, be = 0.6, 0.4
    psi_in = np.kron(coherent_state(al, dim_a - 1), coherent_state(be, dim_b - 1))
    out = u @ psi_in
    ga = (al + 1j * be) / math.sqrt(2)
    gb = (1j * al + be) / math.sqrt(2)
    target = np.kron(coherent_state(ga, dim_a - 1), coherent_state(gb, dim_b - 1))
    overlap = abs(np.vdot(target, out))
    assert overlap > 1 - 1e-6


def test_squeezed_moments_match_fock_construction():
    from scipy.linalg import expm

    r, theta = 0.5, 0.9
    cutoff = 40
    a = np.diag(np.sqrt(np.arange(1.0, cutoff + 1)), k=1)
    xi = r * np.exp(1j * theta)
    s = expm(0.5 * (np.conj(xi) * (a @ a) - xi * (a.conj().T @ a.conj().T)))
    direct = extract_moments(pure_density(s[:, 0]))
    gauss = squeezed_vacuum_moments(math.sinh(r) ** 2, theta)
    assert np.max(np.abs(direct.table - gauss.table)) < 1e-9


def test_squeezed_reference_vacuum_limit():
    res = squeezed_reference(0.0, 25.0)
    assert res.delta_phi == pytest.approx(0.2, rel=1e-3)


def test_squeezed_reference_beats_shot_noise():
    res = squeezed_reference(0.1, 100.0)
    assert res.improvement > 0.2


def test_crb_coherent_inputs_shot_noise():
    dm = pure_density(coherent_state(math.sqrt(2.0), 14))
    val = crb(dm, 9.0)
    assert val == pytest.approx(1 / math.sqrt(11.0), rel=5e-3)


def test_crb_fock_one_vacuum_port():
    dm = pure_density(fock_state(1, 6))
    val = crb_dense(dm, 0.0, cutoff_b=6)
    res = jz_sensitivity(extract_moments(dm), 0.0)
    assert np.isfinite(val) and val > 0
    assert val <= res.delta_phi * (1 + 1e-6)
    assert crb(dm, 0.0) == pytest.approx(val, rel=1e-9)


def test_crb_never_beaten_by_jz():
    rng = np.random.default_rng(8)
    for _ in range(3):
        rho = low_photon_state(rng, support=3, dim=12)
        mom = extract_moments(rho)
        for n_b in (1.0, 4.0):
            bound = crb(rho, n_b)
            res = jz_sensitivity(mom, n_b)
            assert bound <= res.delta_phi * (1 + 1e-6)


def test_crb_phi_independent():
    rng = np.random.default_rng(9)
    rho = low_photon_state(rng, support=3, dim=10)
    assert crb_phi_independence(rho, 4.0) < 1e-9


def test_crb_matches_dense_oracle():
    # supports sit well inside the oracle's padded cutoff, so the dense
    # route carries no truncation error at this tolerance
    for seed in (8, 9, 10):
        rng = np.random.default_rng(seed)
        rho = low_photon_state(rng, support=3, dim=12)
        for n_b in (1.0, 4.0, 9.0):
            assert crb(rho, n_b) == pytest.approx(crb_dense(rho, n_b), rel=1e-9)


def test_crb_matches_dense_oracle_on_captured_state():
    from cwlsim.integrator import propagate
    from cwlsim.presets import METRO_CRB_BIN, METRO_CRB_CFG

    rho_v = propagate(METRO_CRB_CFG, METRO_CRB_BIN).rho_v
    for n_b in (4.0, 9.0, 16.0):
        assert crb(rho_v, n_b) == pytest.approx(crb_dense(rho_v, n_b), rel=1e-9)
