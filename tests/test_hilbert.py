import functools
import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from lab_oracle import displacement_operator

from cwlsim.errors import ConfigError
from cwlsim.hilbert import (DensityMatrix, annihilation, coherent_state,
                            displacement_block, fidelity, fock_state,
                            hermitian_coords, hermitian_matrix, kron,
                            partial_trace, pure_density, tensor,
                            trace_distance, trace_weights)
from cwlsim.integrator import propagate
from cwlsim.model import SystemConfig
from cwlsim.presets import DRIVE_SERIES


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


def _shuffled_rows(X, rng):
    """X with the entries of each row stored in a random order."""
    data, indices = X.data.copy(), X.indices.copy()
    for a, b in zip(X.indptr[:-1], X.indptr[1:]):
        order = a + rng.permutation(b - a)
        data[a:b], indices[a:b] = X.data[order], X.indices[order]
    return sp.csr_matrix((data, indices, X.indptr.copy()), shape=X.shape)


def _csr_bits(X):
    return (X.shape, X.dtype, X.data.tobytes(), X.indices.tobytes(), X.indptr.tobytes())


@pytest.mark.parametrize("scale", [None, 0.37, -1.3])
def test_kron_equals_scipy_bit_for_bit(scale):
    # the CSR kron of the generator's sandwiches and of tensor() is scipy's,
    # data, indices and indptr, for unsorted operands, empty rows, an empty
    # operand, rectangular shapes and a rate applied after the product
    rng = np.random.default_rng(7)

    def rand(m, n, density, real=False):
        X = sp.random(m, n, density=density, random_state=rng, format="csr")
        if not real:
            X = X + 1j * sp.random(m, n, density=density, random_state=rng, format="csr")
        return X.tocsr()

    unsorted = _shuffled_rows(rand(8, 9, 0.6), rng)
    assert not unsorted.has_sorted_indices
    gappy = rand(6, 5, 0.5).toarray()
    gappy[[1, 4]] = 0
    gappy = sp.csr_matrix(gappy)  # rows 1 and 4 empty
    pairs = [(rand(5, 7, 0.3), rand(3, 4, 0.5)), (rand(6, 6, 0.2, real=True), rand(4, 2, 0.6)),
             (unsorted, rand(3, 3, 0.5)), (rand(4, 3, 0.5), unsorted), (gappy, gappy),
             (sp.identity(4, dtype=complex, format="csr"), rand(3, 5, 0.4)),
             (rand(5, 5, 0.4), sp.identity(3, dtype=complex, format="csr")),
             (rand(4, 4, 0.0), rand(3, 3, 0.5)), (rand(2, 3, 0.5), annihilation(0)),
             (np.array([[0, 1j], [2, 0]]), rand(3, 2, 0.5))]
    for A, B in pairs:
        ref = sp.kron(A, B, format="csr")
        if scale is not None:
            ref = scale * ref
        assert _csr_bits(kron(A, B, scale)) == _csr_bits(ref)


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


# rows/cols of the 60 x 60 block checked against the 50-digit reference:
# every level to 15, then a spread up to 59 (both triangles)
ORACLE_LEVELS = list(range(16)) + [19, 24, 31, 38, 44, 50, 55, 59]
ORACLE_BETAS = (0.0, 1e-8, 0.3, 1.2 - 0.4j, 2.56, 5.0)


@functools.lru_cache(maxsize=None)
def displacement_reference(beta):
    """<m|D(beta)|n> for m, n in ORACLE_LEVELS at 50 digits, from
    mpmath.laguerre and mpmath.loggamma (the Cahill-Glauber form)."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        b = mpmath.mpc(beta)
        x = abs(b) ** 2
        out = np.zeros((len(ORACLE_LEVELS),) * 2, dtype=complex)
        for i, m in enumerate(ORACLE_LEVELS):
            for j, n in enumerate(ORACLE_LEVELS):
                lo, d = min(m, n), abs(m - n)
                if beta == 0:
                    out[i, j] = 1.0 if d == 0 else 0.0
                    continue
                # zeroprec: L_1^(24)(25) is exactly zero
                v = (mpmath.exp((mpmath.loggamma(lo + 1) - mpmath.loggamma(lo + d + 1)) / 2 - x / 2)
                     * b**d * mpmath.laguerre(lo, d, x, zeroprec=400))
                out[i, j] = complex(v if m >= n else (-1) ** d * mpmath.conj(v))
    return out


def scipy_displacement(beta, rows, cols):
    """The same elements through scipy.special's eval_genlaguerre and gammaln."""
    from scipy.special import eval_genlaguerre, gammaln

    if beta == 0:
        return np.eye(rows, cols, dtype=complex)
    x = abs(beta) ** 2
    m, n = np.arange(rows)[:, None], np.arange(cols)[None, :]
    lo, d = np.minimum(m, n), np.abs(m - n)
    mag = np.exp(0.5 * (gammaln(lo + 1.0) - gammaln(lo + d + 1.0)) - x / 2
                 + d * math.log(abs(beta)))
    phase = np.where(m >= n, np.exp(1j * d * np.angle(beta)),
                     (-1.0) ** d * np.exp(-1j * d * np.angle(beta)))
    return mag * eval_genlaguerre(lo, d, x) * phase


def assert_elements_close(got, ref, rel_everywhere):
    # D is unitary, so 5e-14 is relative to its largest elements; relative
    # 5e-13 where no Laguerre cancellation can occur (the first row and
    # column, L_0 = 1; and |beta| <= 0.3 everywhere), above the subnormals
    err = np.abs(got - ref)
    assert err.max() <= 5e-14, err.max()
    norm = np.abs(ref) > 1e-280
    rel = np.where(norm, err / np.where(norm, np.abs(ref), 1.0), 0.0)
    checked = rel if rel_everywhere else np.concatenate([rel[0], rel[:, 0]])
    assert checked.max() <= 5e-13, checked.max()


@pytest.mark.parametrize("beta", ORACLE_BETAS)
def test_displacement_block_matches_50_digit_laguerre(beta):
    ref = displacement_reference(beta)
    idx = np.array(ORACLE_LEVELS)
    small = abs(beta) <= 0.3
    full = displacement_block(beta, 60, 60)
    assert_elements_close(full[np.ix_(idx, idx)], ref, small)
    # any block shape: tall, wide, one row or column, and unequal
    for rows, cols in ((60, 7), (7, 60), (60, 1), (1, 60), (38, 59), (2, 2)):
        r, c = idx[idx < rows], idx[idx < cols]
        got = displacement_block(beta, rows, cols)
        assert got.shape == (rows, cols)
        assert_elements_close(got[np.ix_(r, c)], ref[:len(r), :len(c)], small)


@pytest.mark.parametrize("beta", ORACLE_BETAS)
def test_displacement_block_matches_scipy_special(beta):
    for rows, cols in ((60, 60), (60, 7), (7, 60), (1, 60), (41, 13)):
        assert_elements_close(displacement_block(beta, rows, cols),
                              scipy_displacement(beta, rows, cols), abs(beta) <= 0.3)


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


@pytest.mark.parametrize("alpha, b", DRIVE_SERIES, ids=[f"drive{a}" for a, _ in DRIVE_SERIES])
def test_fidelity_with_pure_state_is_overlap(alpha, b):
    # F(rho, |beta><beta|) = <beta|rho|beta>: the roundoff eigenvalues of the
    # rank-1 state count as zero, so their ~1e-8 square roots do not enter
    cfg = SystemConfig(alpha=alpha, M=1)
    rho = propagate(cfg, b).rho_v
    psi = coherent_state(cfg.alpha_phys * math.sqrt(b.tau), rho.dim - 1)
    overlap = float(np.real(psi.conj() @ rho.mat @ psi))
    assert abs(fidelity(rho, pure_density(psi)) - overlap) <= 1e-12


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 12), st.integers(0, 10_000))
def test_hermitian_coords_round_trip(dim, seed):
    # the coordinates are orthonormal: ||x||_2 = ||rho||_F.  The sqrt2 scaling
    # of the off-diagonal ones rounds, and a * sqrt2 is not one-to-one in
    # doubles, so the round trip is exact up to one ulp per entry
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = (m + m.conj().T) / 2  # Hermitian bit for bit
    x = hermitian_coords(rho)
    assert x.dtype == np.float64 and x.shape == (dim * dim,)
    assert np.array_equal(x[:: dim + 1], rho.diagonal().real)
    assert abs(np.linalg.norm(x) - np.linalg.norm(rho)) <= 1e-15 * np.linalg.norm(rho)
    back = hermitian_matrix(x)
    assert np.array_equal(back, back.conj().T)
    np.testing.assert_array_max_ulp(back.real, rho.real, maxulp=1)
    np.testing.assert_array_max_ulp(back.imag, rho.imag, maxulp=1)
    np.testing.assert_array_max_ulp(hermitian_coords(back), x, maxulp=1)
    A = sp.random(dim, dim, density=0.5, random_state=seed, dtype=complex)
    idx, w = trace_weights(A)
    assert abs(np.sum(w * x[idx]) - np.trace(A @ rho)) <= 1e-14 * max(1.0, np.abs(A).sum())
