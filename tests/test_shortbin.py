import math

import numpy as np
import pytest

from lab_oracle import undisplace

from cwlsim.errors import ConfigError
from cwlsim.hilbert import DensityMatrix, coherent_state
from cwlsim.model import BinSpec, SystemConfig, chain_operators, resolve_cutoff
from cwlsim.shortbin import (EmitterMoments, emitter_moments, shortbin_oracle,
                             shortbin_rho)


def random_emitter_state(rng, M, levels=2):
    d = levels**M
    x = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = x @ x.conj().T
    rho /= np.trace(rho)
    return DensityMatrix(rho, (levels,) * M)


def test_ground_state_moments():
    M = 2
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = 1.0
    mom = emitter_moments(DensityMatrix(rho, (2, 2)), M)
    expected = np.zeros((3, 3), dtype=complex)
    expected[0, 0] = 1.0
    assert np.array_equal(mom.table, expected)


def test_single_excited_emitter_moments():
    rho = np.zeros((2, 2), dtype=complex)
    rho[1, 1] = 1.0
    mom = emitter_moments(DensityMatrix(rho, (2,)), 1)
    assert mom.table[1, 1] == pytest.approx(1.0)  # <s+ s->
    assert mom.table[0, 1] == pytest.approx(0.0)  # <s->


def test_two_emitter_top_moment_matches_explicit_product():
    rng = np.random.default_rng(2)
    dm = random_emitter_state(rng, 2)
    mom = emitter_moments(dm, 2)
    lower = np.array([[0, 1], [0, 0]], dtype=complex)
    s1 = np.kron(lower, np.eye(2))
    s2 = np.kron(np.eye(2), lower)
    op = (s1 + s2).conj().T @ (s1 + s2).conj().T @ (s1 + s2) @ (s1 + s2)
    assert mom.table[2, 2] == pytest.approx(np.trace(dm.mat @ op))


def test_moment_table_hermitian_symmetry():
    rng = np.random.default_rng(3)
    for M in (1, 2, 3):
        mom = emitter_moments(random_emitter_state(rng, M), M)
        assert np.max(np.abs(mom.table - mom.table.conj().T)) < 1e-10
        assert mom.table[0, 0] == 1.0


def test_collective_lowering_nilpotent():
    for M, levels in ((1, 2), (2, 2), (3, 2), (2, 3)):
        s = chain_operators(M, levels, 1)["S"].toarray()
        power = np.linalg.matrix_power(s, M + 1)
        assert np.max(np.abs(power)) == 0.0


def test_ground_state_gives_pure_coherent():
    M = 1
    rho = np.zeros((2, 2), dtype=complex)
    rho[0, 0] = 1.0
    mom = emitter_moments(DensityMatrix(rho, (2,)), M)
    out = shortbin_rho(mom, alpha=0.8, tau=1e-3, kappa=1.0, M=M)
    beta = 0.8 * math.sqrt(1e-3)
    target = coherent_state(beta, out.dim - 1)
    overlap = np.real(target.conj() @ out.mat @ target)
    assert overlap > 1 - 1e-12


def test_ground_state_strong_drive_is_truncated_coherent_state():
    # the displaced vacuum on a cutoff well below the coherent photon number:
    # the amplitudes are those of D(b)|0> on levels 0..4, renormalized
    rho = np.zeros((2, 2), dtype=complex)
    rho[0, 0] = 1.0
    mom = emitter_moments(DensityMatrix(rho, (2,)), 1)
    out = shortbin_rho(mom, alpha=30.0, tau=1e-3, kappa=1.0, M=1, cutoff=4)
    beta = 30.0 * math.sqrt(1e-3)
    amps = np.array([math.exp(-beta**2 / 2) * beta**n / math.sqrt(math.factorial(n))
                     for n in range(5)])
    target = np.outer(amps, amps) / np.sum(amps**2)
    assert np.max(np.abs(out.mat - target)) < 1e-12


def test_single_emitter_closed_form_entrywise():
    # undisplaced kernel: |0><0| + sqrt(kt)(<s->|1><0| + <s+>|0><1|)
    #                     + kt <s+s-> (|1><1| - |0><0|)
    rng = np.random.default_rng(5)
    dm = random_emitter_state(rng, 1)
    mom = emitter_moments(dm, 1)
    kt = 1e-3
    out = shortbin_rho(mom, alpha=0.7, tau=kt, kappa=1.0, M=1)
    # undo the displacement to inspect the kernel
    kern = undisplace(out.mat, 0.7 * math.sqrt(kt))
    s_minus = mom.table[0, 1]
    s_plus = mom.table[1, 0]
    pop = mom.table[1, 1].real
    expected = np.zeros_like(kern)
    expected[0, 0] = 1.0 - kt * pop
    expected[1, 1] = kt * pop
    expected[1, 0] = math.sqrt(kt) * s_minus
    expected[0, 1] = math.sqrt(kt) * s_plus
    trace_norm = np.trace(expected).real
    assert np.max(np.abs(kern[:3, :3] - (expected / trace_norm)[:3, :3])) < 1e-6


def test_oracle_equivalence_random_states():
    rng = np.random.default_rng(7)
    for M in (1, 2, 3):
        for _ in range(20):
            dm = random_emitter_state(rng, M)
            mom = emitter_moments(dm, M)
            r1 = shortbin_rho(mom, 0.7, 1e-3, 1.0, M)
            r2 = shortbin_oracle(dm, 0.7, 1e-3, 1.0, M)
            assert np.max(np.abs(r1.mat - r2.mat)) < 1e-8


def test_oracle_ground_state_coherent_elements():
    rho = np.zeros((2, 2), dtype=complex)
    rho[0, 0] = 1.0
    dm = DensityMatrix(rho, (2,))
    out = shortbin_oracle(dm, 0.5, 2e-3, 1.0, 1)
    beta = 0.5 * math.sqrt(2e-3)
    amps = coherent_state(beta, out.dim - 1)
    target = np.outer(amps, amps.conj())
    assert np.max(np.abs(out.mat - target)) < 1e-10


def test_displaced_support_confined_to_added_photons():
    rng = np.random.default_rng(11)
    for M in (1, 2):
        dm = random_emitter_state(rng, M)
        mom = emitter_moments(dm, M)
        out = shortbin_rho(mom, 0.9, 1e-3, 1.0, M)
        kern = undisplace(out.mat, 0.9 * math.sqrt(1e-3))
        tail = np.abs(np.diag(kern))[M + 1 :].sum()
        assert tail < 1e-10


def test_three_level_emitter_states_supported():
    rng = np.random.default_rng(13)
    dm = random_emitter_state(rng, 2, levels=3)
    mom = emitter_moments(dm, 2)
    r1 = shortbin_rho(mom, 0.6, 1e-3, 1.0, 2)
    r2 = shortbin_oracle(dm, 0.6, 1e-3, 1.0, 2)
    assert np.max(np.abs(r1.mat - r2.mat)) < 1e-8


def test_moment_table_validation():
    bad = np.zeros((2, 2), dtype=complex)
    bad[0, 0] = 0.5
    with pytest.raises(ConfigError):
        EmitterMoments(bad, 1)
    mismatch = np.zeros((3, 3), dtype=complex)
    mismatch[0, 0] = 1.0
    with pytest.raises(ConfigError):
        EmitterMoments(mismatch, 1)


@pytest.mark.parametrize("dim, M", [(4, 1), (16, 2), (5, 1), (2, 0)],
                         ids=["4-level", "4-level-pair", "dim5", "M0-dim2"])
def test_emitter_level_check_shared(dim, M):
    # both routes accept only 2 or 3 levels per emitter, levels**M == dim; the
    # oracle used to read a 4-dim M=1 state as one 4-level emitter
    rho = np.eye(dim, dtype=complex) / dim
    dm = DensityMatrix(rho)
    with pytest.raises(ConfigError, match=f"emitter state dim {dim} incompatible with M={M}"):
        emitter_moments(dm, M)
    with pytest.raises(ConfigError, match=f"emitter state dim {dim} incompatible with M={M}"):
        shortbin_oracle(dm, 0.6, 1e-3, 1.0, M)


@pytest.mark.parametrize("alpha, kappa, tau, M", [
    (0.9, 1.0, 1e-3, 1),
    (0.5 + 0.3j, 2.0, 0.02, 2),
    (3.0, 0.5, 0.04, 0),
    (1.2, 1.0, 0.01, 3),
])
def test_default_cutoff_follows_model_policy(alpha, kappa, tau, M):
    # the short-bin states use the cavity cutoff the propagation would use
    cfg = SystemConfig(alpha=alpha, kappa=kappa, M=M)
    expected = resolve_cutoff(cfg, BinSpec(t0=0.0, tau=tau)) + 1
    ground = np.zeros((2**M, 2**M), dtype=complex)
    ground[0, 0] = 1.0
    rho_e = DensityMatrix(ground, (2,) * M or None)
    mom = emitter_moments(rho_e, M)
    assert shortbin_rho(mom, alpha, tau, kappa, M).dim == expected
    assert shortbin_oracle(rho_e, alpha, tau, kappa, M).dim == expected
