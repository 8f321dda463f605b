import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lab_oracle import displacement_operator

from cwlsim.errors import ConfigError
from cwlsim.hilbert import (DensityMatrix, annihilation, coherent_state,
                            displacement_block, fidelity, fock_state,
                            partial_trace, pure_density, tensor,
                            trace_distance)


def random_density(rng, dim, dims=None):
    x = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = x @ x.conj().T
    rho /= np.trace(rho)
    return DensityMatrix(rho, dims)


def test_tensor_identity_case():
    out = tensor([np.eye(2, dtype=complex), np.eye(3, dtype=complex)])
    assert np.array_equal(out, np.eye(6))


def test_tensor_first_subsystem_lowering():
    lower = np.array([[0, 1], [0, 0]], dtype=complex)
    out = tensor([lower, np.eye(2, dtype=complex)])
    # nonzero entries only where the first subsystem lowers and the second
    # index is unchanged
    nz = np.argwhere(np.abs(out) > 0)
    assert sorted(map(tuple, nz)) == [(0, 2), (1, 3)]


def test_tensor_empty_rejected():
    with pytest.raises(ConfigError):
        tensor([])


def test_tensor_product_action_matches_index_formula():
    # brute force over the explicit Kronecker index formula on random inputs
    rng = np.random.default_rng(42)
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    va = rng.normal(size=2) + 1j * rng.normal(size=2)
    vb = rng.normal(size=3) + 1j * rng.normal(size=3)
    joint = tensor([a, b]) @ np.kron(va, vb)
    expected = np.kron(a @ va, b @ vb)
    assert np.max(np.abs(joint - expected)) < 1e-12


def test_commutator_on_truncated_fock_space():
    cutoff = 17
    a = annihilation(cutoff).toarray()
    comm = a @ a.conj().T - a.conj().T @ a
    # exact on all levels below the cutoff boundary
    assert np.max(np.abs(comm[:cutoff, :cutoff] - np.eye(cutoff + 1)[:cutoff, :cutoff])) < 1e-12


def test_coherent_state_vacuum():
    amps = coherent_state(0.0, 8)
    assert amps[0] == 1.0 and np.all(amps[1:] == 0)


def test_coherent_state_poisson_mean():
    amps = coherent_state(1.0, 20)
    n = np.arange(21)
    assert abs(np.sum(n * np.abs(amps) ** 2) - 1.0) < 1e-10


def test_coherent_state_default_cutoff_leakage():
    for beta in (0.5, 1.7, 3.0):
        amps_raw = np.exp(-abs(beta) ** 2 / 2) * np.array(
            [beta**n / math.sqrt(math.factorial(n)) for n in range(len(coherent_state(beta)))]
        )
        leak = 1.0 - np.sum(np.abs(amps_raw) ** 2)
        assert leak < 1e-10


def test_displacement_matches_coherent_state():
    beta = 0.8 - 0.6j
    d = displacement_block(beta, 31, 31)
    amps = [math.exp(-abs(beta) ** 2 / 2) * beta**n / math.sqrt(math.factorial(n))
            for n in range(31)]
    assert np.max(np.abs(d[:, 0] - amps)) < 1e-9
    assert np.max(np.abs(d[:, 0] - coherent_state(beta, 30))) < 1e-9


def test_displacement_identity_and_inverse():
    assert np.max(np.abs(displacement_block(0.0, 11, 11) - np.eye(11))) < 1e-14
    beta = 0.9 + 0.2j
    low = 24 - math.ceil(4 * abs(beta))
    # D(b) D(-b) = 1, summed over enough intermediate levels
    prod = displacement_block(beta, low + 1, 60) @ displacement_block(-beta, 60, low + 1)
    assert np.max(np.abs(prod - np.eye(low + 1))) < 1e-8


def test_displacement_block_matches_padded_exponential():
    # the exact elements <m|D|n> against expm on a space padded far past them
    for beta, rows, cols in ((0.8 - 0.6j, 12, 9), (2.6, 36, 10), (-1.8j, 20, 30), (0.0, 4, 6)):
        ref = displacement_operator(beta, 120)[:rows, :cols]
        assert np.max(np.abs(displacement_block(beta, rows, cols) - ref)) < 1e-12


def test_displacement_shifts_annihilation():
    # D+(b) a D(b) = a + b on the low-lying block (matrix-product oracle)
    beta = 0.45 + 0.3j
    cutoff = 40
    a = annihilation(cutoff).toarray()
    d = displacement_block(beta, cutoff + 1, cutoff + 1)
    shifted = d.conj().T @ a @ d
    target = a + beta * np.eye(cutoff + 1)
    low = 20  # truncation contamination decays fast below the boundary
    assert np.max(np.abs(shifted[:low, :low] - target[:low, :low])) < 1e-8


def test_partial_trace_product_state():
    rng = np.random.default_rng(0)
    rho_a = random_density(rng, 3).mat
    rho_b = random_density(rng, 4).mat
    joint = DensityMatrix(np.kron(rho_a, rho_b), (3, 4))
    assert np.max(np.abs(partial_trace(joint, 1).mat - rho_b)) < 1e-12
    assert np.max(np.abs(partial_trace(joint, 0).mat - rho_a)) < 1e-12


def test_partial_trace_bell_state():
    bell = np.zeros(4, dtype=complex)
    bell[0] = bell[3] = 1 / math.sqrt(2)
    joint = pure_density(bell, (2, 2))
    red = partial_trace(joint, 0)
    assert np.max(np.abs(red.mat - np.eye(2) / 2)) < 1e-12


def test_partial_trace_duality_identity():
    # Tr(Tr_A(rho) X) = Tr(rho (I (x) X)) for random X
    rng = np.random.default_rng(7)
    rho = random_density(rng, 12, (3, 4))
    x = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    lhs = np.trace(partial_trace(rho, 1).mat @ x)
    rhs = np.trace(rho.mat @ np.kron(np.eye(3), x))
    assert abs(lhs - rhs) < 1e-12


def test_partial_trace_index_out_of_range():
    rng = np.random.default_rng(1)
    rho = random_density(rng, 6, (2, 3))
    with pytest.raises(ConfigError):
        partial_trace(rho, 2)


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 4), st.integers(2, 4), st.integers(0, 10_000))
def test_partial_trace_tensor_retraction(da, db, seed):
    rng = np.random.default_rng(seed)
    rho_a = random_density(rng, da).mat
    rho_b = random_density(rng, db).mat
    joint = DensityMatrix(np.kron(rho_a, rho_b), (da, db))
    assert np.max(np.abs(partial_trace(joint, 0).mat - rho_a)) < 1e-12


def test_density_matrix_invariants_enforced():
    bad_trace = np.eye(2, dtype=complex)
    with pytest.raises(ConfigError):
        DensityMatrix(bad_trace)
    non_herm = np.array([[0.5, 0.3], [0.1, 0.5]], dtype=complex)
    with pytest.raises(ConfigError):
        DensityMatrix(non_herm)
    neg = np.diag([1.2, -0.2]).astype(complex)
    with pytest.raises(ConfigError):
        DensityMatrix(neg)


def test_density_matrix_immutable():
    dm = pure_density(fock_state(0, 2))
    with pytest.raises(AttributeError):
        dm.mat = None
    with pytest.raises(ValueError):
        dm.mat[0, 0] = 2.0


def test_fidelity_and_trace_distance_basics():
    psi = coherent_state(0.7, 15)
    dm = pure_density(psi)
    assert abs(fidelity(dm, dm) - 1) < 1e-10
    other = pure_density(fock_state(0, 15))
    f = fidelity(dm, other)
    assert abs(f - abs(np.vdot(psi, fock_state(0, 15))) ** 2) < 1e-10
    assert trace_distance(dm, dm) < 1e-12
