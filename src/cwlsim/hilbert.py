"""Linear-algebra substrate: operators, states, tensor products, partial traces.

Composite spaces are ordered emitter 1 (x) ... (x) emitter M (x) cavity, with
the cavity always last.  Operators are kept sparse (CSR), density matrices
dense; `kron`, the CSR Kronecker product of `tensor` and of the generator's
superoperators, is scipy's bit for bit without its COO round trip.  A Fock
space with cutoff ``c`` retains the levels ``0..c`` and has dimension
``c + 1``.  The displacement D(beta) has one form,
`displacement_block`: the exact elements <m|D(beta)|n> of the untruncated
operator on any rows and columns, so a state displaced into a finite space
loses only the weight it puts above the cutoff.

A Hermitian d x d matrix has d^2 real orthonormal coordinates, the form the
integrator steps: `hermitian_coords` and `hermitian_matrix` map to and from
them, `real_form` carries a Hermiticity-preserving superoperator over, and
`coord_modulus` and `trace_weights` read |rho_ij| and Tr(A rho) off them.
"""

from __future__ import annotations

import cmath
import math
from functools import lru_cache
from typing import Sequence

import numpy as np
import scipy.sparse as sp

from ._blas import single_thread
from .errors import ConfigError

# Validation tolerances for density matrices.
HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-8
POSITIVITY_TOL = 1e-8


def tensor(ops: Sequence):
    """Kronecker product of the given operators, in order.

    Accepts sparse matrices or ndarrays; the result is CSR if any input is
    sparse, dense otherwise.  Raises ConfigError on an empty list.
    """
    if len(ops) == 0:
        raise ConfigError("tensor() requires at least one operator")
    if len(ops) == 1:
        return ops[0].copy()
    if all(isinstance(op, np.ndarray) for op in ops):
        out = ops[0]
        for op in ops[1:]:
            out = np.kron(out, op)
        return out
    out = ops[0]
    for op in ops[1:]:
        out = kron(out, op)
    return out


def _sorted_csr(X):
    """``X`` as CSR with sorted indices, copied only where it must change."""
    X = X if sp.issparse(X) and X.format == "csr" else sp.csr_matrix(X)
    if not X.has_sorted_indices:
        X = X.copy()
        X.sort_indices()
    return X


def kron(A, B, scale=None):
    """The Kronecker product A (x) B as CSR, times ``scale`` where given: bit
    for bit ``scale * scipy.sparse.kron(A, B, format="csr")`` for operands
    without duplicate entries, without scipy's COO round trip.

    Each entry is A[i, j] B[k, l] from scipy's own product expression, then
    times ``scale``.  The entries are put straight in their CSR places: row
    (i, k) lists A's row i in order, each with B's row k, which is sorted by
    column when both operands are; unsorted operands are sorted first.  An
    empty product is float, as scipy's is.
    """
    A, B = _sorted_csr(A), _sorted_csr(B)
    (m, n), (p, q) = A.shape, B.shape
    shape = (m * p, n * q)
    if A.nnz == 0 or B.nnz == 0:
        out = sp.csr_matrix(shape)
    else:
        idx = np.int32 if max(*shape, A.nnz * B.nnz) < 2**31 else np.int64
        ia, ib = A.indptr.astype(idx), B.indptr.astype(idx)
        na, nb = np.diff(ia), np.diff(ib)  # row lengths
        indptr = np.zeros(m * p + 1, dtype=idx)
        np.cumsum(np.outer(na, nb).reshape(-1), out=indptr[1:])
        # scipy's entries: A's entry e (x) B's entry f at e B.nnz + f
        data = (A.data.repeat(B.nnz).reshape(-1, B.nnz) * B.data).reshape(-1)
        indices = (A.indices.astype(idx)[:, None] * q + B.indices).reshape(-1)
        if na.max() > 1:  # else every e (x) f is in its CSR place already
            # row (i, k) starts at ia[i] B.nnz + na[i] ib[k]; in it e (x) f
            # follows e's place in row i times nb[k] entries, then f's place
            # f - ib[k] in row k
            row_a = np.repeat(np.arange(m, dtype=idx), na)
            row_b = np.repeat(np.arange(p, dtype=idx), nb)
            e_at = np.arange(A.nnz, dtype=idx) - ia[row_a]
            at = ((ia[row_a] * B.nnz)[:, None] + np.arange(B.nnz, dtype=idx)
                  + (na[row_a] - 1)[:, None] * ib[row_b] + e_at[:, None] * nb[row_b]).reshape(-1)
            placed_data, placed_indices = np.empty_like(data), np.empty_like(indices)
            placed_data[at], placed_indices[at] = data, indices
            data, indices = placed_data, placed_indices
        out = sp.csr_matrix((data, indices, indptr), shape=shape)
    if scale is not None:
        out.data = out.data * scale
    return out


def identity(dim: int):
    return sp.identity(dim, dtype=complex, format="csr")


def annihilation(cutoff: int):
    """Annihilation operator on the Fock levels 0..cutoff."""
    if cutoff < 0:
        raise ConfigError("cutoff must be non-negative")
    n = np.arange(1, cutoff + 1)
    return sp.diags(np.sqrt(n).astype(complex), offsets=1, format="csr")


def default_coherent_cutoff(beta: complex) -> int:
    return int(math.ceil(abs(beta) ** 2 + 6 * abs(beta) + 10))


def coherent_state(beta: complex, cutoff: int | None = None) -> np.ndarray:
    """Coherent-state amplitudes c_n = e^{-|b|^2/2} b^n / sqrt(n!), renormalized.

    The amplitudes are column 0 of `displacement_block`, D(b)|0>.  With the
    default cutoff the truncation leakage before renormalization is below
    1e-10.
    """
    if cutoff is None:
        cutoff = default_coherent_cutoff(beta)
    if cutoff < 0:
        raise ConfigError("cutoff must be non-negative")
    amps = displacement_block(beta, cutoff + 1, 1)[:, 0]
    return amps / np.linalg.norm(amps)


_log_fact = np.zeros(0)  # log j!, grown by `_log_factorials` as larger blocks are asked for


def _log_factorials(size: int) -> np.ndarray:
    """log j! for j < ``size`` at least."""
    global _log_fact
    table = _log_fact
    if len(table) < size:
        table = _log_fact = np.array([math.lgamma(j + 1.0) for j in range(size)])
    return table


def displacement_block(beta: complex, rows: int, cols: int) -> np.ndarray:
    """The exact matrix elements <m|D(beta)|n>, m < rows, n < cols, of the untruncated D.

    For m >= n, sqrt(n!/m!) beta^(m-n) e^{-|beta|^2/2} L_n^(m-n)(|beta|^2)
    (Cahill & Glauber, Phys. Rev. 177, 1857 (1969)); for m < n, (-1)^(n-m)
    times the conjugate of the (n, m) element.  L_n^(d)(x) is
    binom(n + d, n) p_n, with p_n from the upward recurrence of scipy's
    integer-order ``eval_genlaguerre``: p_0 = 1, q_0 = -x/(d + 1),
    p_1 = 1 + q_0, and for k >= 1 q_k = -x/(k + d + 1) p_k + k/(k + d + 1) q_(k-1),
    p_(k+1) = p_k + q_k.  One pass over n serves every order d at once, and
    the binomial joins the factorials in one exponent, sqrt(m!/n!)/d!.  No
    BLAS call.
    """
    if beta == 0 or rows == 0 or cols == 0:
        return np.eye(rows, cols, dtype=complex)
    x = abs(beta) ** 2
    nlo, nd = min(rows, cols), max(rows, cols)
    d = np.arange(nd, dtype=float)
    d1 = d + 1.0
    p = np.empty((nlo, nd))  # p[n, d] = p_n of order d
    p[0] = 1.0
    if nlo > 1:
        q = -x / d1
        np.add(q, 1.0, out=p[1])
        k = np.arange(1.0, nlo - 1)[:, None]
        den = k + d1
        for step, r, pk, pnext in zip(-x / den, k / den, p[1:], p[2:]):
            q = step * pk + r * q
            np.add(pk, q, out=pnext)
    lf = _log_factorials(nlo + nd)
    n = np.arange(nlo)[:, None]
    p *= np.exp(0.5 * (lf[n + np.arange(nd)] - lf[:nlo, None]) - lf[:nd]
                + (d * math.log(abs(beta)) - x / 2))
    # the lower triangle's table (m >= n) and the upper's, stacked; element
    # (m, c) is entry (min(m, c), |m - c|) of one of them
    both = np.empty((2, nlo, nd), dtype=complex)
    np.multiply(p, np.exp((1j * cmath.phase(beta)) * d), out=both[0])
    np.conjugate(both[0], out=both[1])
    both[1, :, 1::2] *= -1.0
    m, c = np.arange(rows)[:, None], np.arange(cols)
    return both.reshape(-1)[np.where(m >= c, c * (nd - 1) + m, m * (nd - 1) + (c + nlo * nd))]


@lru_cache(maxsize=32)
def _coord_indices(d: int):
    """Flat indices into a d x d matrix: the diagonal, then i*d + j and j*d + i for i < j."""
    i, j = np.triu_indices(d, 1)
    out = (np.arange(d) * (d + 1), i * d + j, j * d + i)
    for a in out:
        a.flags.writeable = False
    return out


def hermitian_coords(rho: np.ndarray) -> np.ndarray:
    """The real orthonormal coordinates x of a Hermitian d x d matrix, in the
    layout of vec(rho): x_ii = rho_ii, x_ij = sqrt2 Re rho_ij and
    x_ji = sqrt2 Im rho_ij for i < j, so that ||x||_2 = ||rho||_F.

    ``rho`` may be the matrix or its row-major vec; only the diagonal and the
    upper triangle are read.
    """
    v = np.asarray(rho).reshape(-1)
    dg, up, lo = _coord_indices(math.isqrt(v.size))
    x = np.empty(v.size)
    x[dg] = v[dg].real
    x[up] = math.sqrt(2) * v[up].real
    x[lo] = math.sqrt(2) * v[up].imag
    return x


def hermitian_matrix(x: np.ndarray) -> np.ndarray:
    """The Hermitian d x d matrix of the coordinates ``x`` of `hermitian_coords`."""
    d = math.isqrt(x.size)
    dg, up, lo = _coord_indices(d)
    v = np.zeros(x.size, dtype=complex)
    v.real[dg] = x[dg]
    v.real[up] = v.real[lo] = x[up] / math.sqrt(2)
    v.imag[up] = x[lo] / math.sqrt(2)
    v.imag[lo] = -v.imag[up]
    return v.reshape(d, d)


def coord_modulus(x: np.ndarray) -> np.ndarray:
    """|rho_ij| at each coordinate: sqrt((x_ij^2 + x_ji^2) / 2) at both of a
    pair, |x_ii| on the diagonal."""
    d = math.isqrt(x.size)
    sq = (x * x).reshape(d, d)
    return np.sqrt((sq + sq.T) / 2).reshape(-1)


def trace_weights(A) -> tuple[np.ndarray, np.ndarray]:
    """``(idx, w)`` with Tr(A rho) = sum w * x[idx] on the coordinates x of a
    Hermitian rho, for a sparse d x d ``A``.

    Tr(A rho) = sum A[r, c] rho[c, r], and for i = min(r, c) < j = max(r, c),
    rho[c, r] = (x_ij + i x_ji) / sqrt2 where c < r, (x_ij - i x_ji) / sqrt2
    where c > r.
    """
    A = sp.coo_matrix(A)
    d = A.shape[0]
    off = A.row != A.col
    r, c, a = A.row[off], A.col[off], A.data[off]
    i, j = np.minimum(r, c), np.maximum(r, c)
    idx = np.concatenate([A.row[~off] * (d + 1), i * d + j, j * d + i])
    w = np.concatenate([A.data[~off], a / math.sqrt(2),
                        np.where(c < r, 1j, -1j) * a / math.sqrt(2)])
    return idx, w


@lru_cache(maxsize=16)
def _coord_transform(d: int):
    """(P, P+, s) with T = diag(s) P the unitary map from vec(rho) to the
    coordinates of a d x d matrix.  Every entry of P is 1 or +-i, so products
    with P add and negate entries but round none."""
    dg, up, lo = _coord_indices(d)
    n = len(up)
    rows = np.concatenate([dg, up, up, lo, lo])
    cols = np.concatenate([dg, up, lo, up, lo])
    vals = np.concatenate([np.ones(d + 2 * n), np.full(n, -1j), np.full(n, 1j)])
    P = sp.csr_matrix((vals, (rows, cols)), shape=(d * d, d * d))
    s = np.full(d * d, math.sqrt(0.5))
    s[dg] = 1.0
    return P, P.conj().T.tocsr(), s


def _real_rows(P, L, Ph, s_rows, s):
    """Re(diag(s_rows) P L P+ diag(s)) with exact zeros removed: the rows of
    `real_form` that the rows ``P`` of the transform give."""
    Q = (P @ L @ Ph).tocsr()
    R = sp.csr_matrix((Q.data.real.copy(), Q.indices, Q.indptr), shape=Q.shape)
    R.data *= np.repeat(s_rows, np.diff(R.indptr)) * s[R.indices]
    R.eliminate_zeros()
    return R


def real_form(L):
    """T L T^-1, the real matrix on the coordinates of the Hermiticity-
    preserving superoperator ``L`` (sparse, on the row-major vec(rho)).

    With T^-1 = T+ = P+ diag(s), P L P+ is real up to the rounding of the
    entries of L; its imaginary part is dropped.  Entries that cancel are
    exact zeros and are removed.  A large L is done in blocks of rows that
    meet about 2^15 of its entries each, so that the complex products, with
    up to twice the entries of L, are never held whole; each row is the same
    as from the whole product.
    """
    P, Ph, s = _coord_transform(math.isqrt(L.shape[0]))
    L = sp.csr_matrix(L)
    n = L.shape[0]
    step = max(1, n * 2**15 // max(L.nnz, 1))
    return sp.vstack([_real_rows(P[a:a + step], L, Ph, s[a:a + step], s)
                      for a in range(0, n, step)], format="csr")


def fock_state(n: int, cutoff: int) -> np.ndarray:
    if not 0 <= n <= cutoff:
        raise ConfigError(f"Fock level {n} outside 0..{cutoff}")
    v = np.zeros(cutoff + 1, dtype=complex)
    v[n] = 1.0
    return v


class DensityMatrix:
    """Hermitian, unit-trace matrix over a composite space.

    ``dims`` records the subsystem dimensions in tensor order (cavity last);
    their product must equal the matrix dimension.  The stored array is
    read-only.  A caller that has already solved ``mat`` for its smallest
    eigenvalue passes it as ``min_eig``, and the positivity check reads it
    instead of solving again.
    """

    __slots__ = ("mat", "dims")

    @single_thread
    def __init__(
        self,
        mat: np.ndarray,
        dims: Sequence[int] | None = None,
        *,
        positivity_tol: float = POSITIVITY_TOL,
        herm_tol: float = HERMITICITY_TOL,
        trace_tol: float = TRACE_TOL,
        min_eig: float | None = None,
    ):
        mat = np.asarray(mat, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ConfigError(f"density matrix must be square, got {mat.shape}")
        dim = mat.shape[0]
        if dims is None:
            dims = (dim,)
        dims = tuple(int(d) for d in dims)
        if int(np.prod(dims)) != dim:
            raise ConfigError(f"subsystem dims {dims} do not multiply to {dim}")
        herm_err = np.max(np.abs(mat - mat.conj().T)) if dim else 0.0
        if herm_err > herm_tol:
            raise ConfigError(f"matrix not Hermitian: max deviation {herm_err:.3e}")
        tr = mat.trace()
        if abs(tr - 1.0) > trace_tol:
            raise ConfigError(f"trace {tr!r} deviates from 1 beyond {trace_tol:.1e}")
        lo = min_eig
        if lo is None:
            # numpy's eigvalsh: scipy's eigh stalled in forked workers at two BLAS
            # threads on some small sizes; the check runs at one (`_blas`)
            lo = float(np.min(np.linalg.eigvalsh((mat + mat.conj().T) / 2)))
        if lo < -positivity_tol:
            raise ConfigError(f"minimum eigenvalue {lo:.3e} below -{positivity_tol:.1e}")
        mat = mat.copy()
        mat.flags.writeable = False
        object.__setattr__(self, "mat", mat)
        object.__setattr__(self, "dims", dims)

    def __setattr__(self, name, value):
        raise AttributeError("DensityMatrix is immutable")

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    def __repr__(self):
        return f"DensityMatrix(dim={self.dim}, dims={self.dims})"


def pure_density(vec: np.ndarray, dims: Sequence[int] | None = None) -> DensityMatrix:
    vec = np.asarray(vec, dtype=complex)
    nrm = np.linalg.norm(vec)
    if abs(nrm - 1.0) > 1e-12:
        vec = vec / nrm
    return DensityMatrix(np.outer(vec, vec.conj()), dims)


def _as_array(rho) -> np.ndarray:
    return rho.mat if isinstance(rho, DensityMatrix) else np.asarray(rho, dtype=complex)


def partial_trace(rho: DensityMatrix, keep) -> DensityMatrix:
    """Reduced density matrix over the subsystems listed in ``keep``.

    ``keep`` is a subsystem index or a sequence of indices into ``rho.dims``
    (order preserved, must be increasing).  Trace and Hermiticity are
    preserved exactly up to floating point.
    """
    dims = rho.dims
    if isinstance(keep, (int, np.integer)):
        keep_idx = (int(keep),)
    else:
        keep_idx = tuple(int(k) for k in keep)
    n = len(dims)
    for k in keep_idx:
        if not 0 <= k < n:
            raise ConfigError(f"subsystem index {k} out of range for dims {dims}")
    if list(keep_idx) != sorted(set(keep_idx)):
        raise ConfigError("keep indices must be strictly increasing")
    traced = [i for i in range(n) if i not in keep_idx]
    arr = rho.mat.reshape(dims + dims)
    # contract each traced subsystem (row leg with matching column leg)
    for count, idx in enumerate(traced):
        ax = idx - count  # account for already-removed legs
        ncur = arr.ndim // 2
        arr = np.trace(arr, axis1=ax, axis2=ax + ncur)
    new_dims = tuple(dims[k] for k in keep_idx)
    d = int(np.prod(new_dims))
    out = arr.reshape(d, d)
    out = (out + out.conj().T) / 2
    return DensityMatrix(out, new_dims, positivity_tol=1e-7)


def pad_fock(mat: np.ndarray, new_dim: int) -> np.ndarray:
    """Embed a single-mode operator/state matrix into a larger Fock space."""
    mat = np.asarray(mat, dtype=complex)
    d = mat.shape[0]
    if new_dim < d:
        raise ConfigError("pad_fock cannot shrink a matrix")
    out = np.zeros((new_dim, new_dim), dtype=complex)
    out[:d, :d] = mat
    return out


def _psd_sqrt(mat: np.ndarray) -> np.ndarray:
    """Square root of the PSD part of ``mat``.  Eigenvalues at or below
    dim * eps * lambda_max are roundoff and count as zero: their square roots,
    ~1e-8, would otherwise enter the fidelity."""
    vals, vecs = np.linalg.eigh((mat + mat.conj().T) / 2)
    floor = mat.shape[0] * np.finfo(float).eps * max(vals[-1], 0.0)
    vals = np.where(vals > floor, vals, 0.0)
    return (vecs * np.sqrt(vals)) @ vecs.conj().T


@single_thread
def fidelity(rho, sigma) -> float:
    """Uhlmann fidelity F = (Tr sqrt(sqrt(rho) sigma sqrt(rho)))^2.

    Evaluated as the squared nuclear norm of sqrt(rho) sqrt(sigma), which
    avoids taking square roots of eigenvalue roundoff.
    """
    r = _as_array(rho)
    s = _as_array(sigma)
    prod = _psd_sqrt(r) @ _psd_sqrt(s)
    sv = np.linalg.svd(prod, compute_uv=False)
    return float(np.sum(sv) ** 2)


@single_thread
def state_overlap(rho, sigma) -> float:
    """Plain overlap Tr[rho sigma], reported alongside the Uhlmann fidelity."""
    r = _as_array(rho)
    s = _as_array(sigma)
    return float(np.real(np.trace(r @ s)))


@single_thread
def trace_distance(rho, sigma) -> float:
    diff = _as_array(rho) - _as_array(sigma)
    ev = np.linalg.eigvalsh((diff + diff.conj().T) / 2)
    return float(0.5 * np.sum(np.abs(ev)))
