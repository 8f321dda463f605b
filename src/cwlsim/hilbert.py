"""Linear-algebra substrate: operators, states, tensor products, partial traces.

Composite spaces are ordered emitter 1 (x) ... (x) emitter M (x) cavity, with
the cavity always last.  Operators are kept sparse (CSR), density matrices
dense.  A Fock space with cutoff ``c`` retains the levels ``0..c`` and has
dimension ``c + 1``.  The displacement D(beta) has one form,
`displacement_block`: the exact elements <m|D(beta)|n> of the untruncated
operator on any rows and columns, so a state displaced into a finite space
loses only the weight it puts above the cutoff.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np
import scipy.sparse as sp
from scipy.linalg import eigh
from scipy.special import eval_genlaguerre, gammaln

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
        out = sp.kron(out, op, format="csr")
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


def _log_factorial(n: np.ndarray) -> np.ndarray:
    return gammaln(np.asarray(n, dtype=float) + 1.0)


def displacement_block(beta: complex, rows: int, cols: int) -> np.ndarray:
    """The exact matrix elements <m|D(beta)|n>, m < rows, n < cols, of the untruncated D.

    For m >= n, sqrt(n!/m!) beta^(m-n) e^{-|beta|^2/2} L_n^(m-n)(|beta|^2);
    for m < n, (-1)^(n-m) times the conjugate of the (n, m) element.  Computed
    elementwise, with no BLAS call.
    """
    if beta == 0:
        return np.eye(rows, cols, dtype=complex)
    x = abs(beta) ** 2
    m, n = np.arange(rows)[:, None], np.arange(cols)[None, :]
    lo, d = np.minimum(m, n), np.abs(m - n)
    mag = np.exp(0.5 * (_log_factorial(lo) - _log_factorial(lo + d)) - x / 2
                 + d * math.log(abs(beta)))
    phase = np.where(m >= n, np.exp(1j * d * np.angle(beta)),
                     (-1.0) ** d * np.exp(-1j * d * np.angle(beta)))
    return mag * eval_genlaguerre(lo, d, x) * phase


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
    read-only.
    """

    __slots__ = ("mat", "dims")

    def __init__(
        self,
        mat: np.ndarray,
        dims: Sequence[int] | None = None,
        *,
        positivity_tol: float = POSITIVITY_TOL,
        herm_tol: float = HERMITICITY_TOL,
        trace_tol: float = TRACE_TOL,
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
        # numpy's eigvalsh: scipy's eigh stalls in forked workers on some small sizes
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
    vals, vecs = eigh((mat + mat.conj().T) / 2)
    vals = np.clip(vals, 0.0, None)
    return (vecs * np.sqrt(vals)) @ vecs.conj().T


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


def state_overlap(rho, sigma) -> float:
    """Plain overlap Tr[rho sigma], reported alongside the Uhlmann fidelity."""
    r = _as_array(rho)
    s = _as_array(sigma)
    return float(np.real(np.trace(r @ s)))


def trace_distance(rho, sigma) -> float:
    diff = _as_array(rho) - _as_array(sigma)
    ev = eigh((diff + diff.conj().T) / 2, eigvals_only=True)
    return float(0.5 * np.sum(np.abs(ev)))
