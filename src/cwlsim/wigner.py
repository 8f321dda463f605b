"""Wigner function on a phase-space grid and its total negativity.

The convention is W(beta = x + i p) with a vacuum peak of 2/pi and unit
normalization over d^2 beta = dx dp.  Values come from the Fock
representation in separable Hermite form.  In the y-integral definition
of W, the 45-degree rotation (q - y, q + y) -> (q, y) turns each
h_m(q - y) h_n(q + y) into a sum over h_(N-k)(sqrt2 q) h_k(sqrt2 y),
N = m + n, and the Fourier transform in y takes h_k to i^k h_k.  So

    W(x, p) = (2/sqrt(pi)) Re sum_ab C_ab h_a(2x) h_b(2p),
    C_(N-k, k) = i^k sum_(m+n=N) rho_mn T^(N)[k, n],

where the h_k are the orthonormal Hermite functions and T^(N) is the rotation
on the N-quantum shell of two oscillators, exp((pi/4) G_N), with G_N the
antisymmetric tridiagonal matrix G[j-1, j] = sqrt((N - j + 1) j).  The grid
then costs two small contractions.  This is exact in the truncated basis;
the tests check it against the displaced-parity form
W(beta) = (2/pi) Tr[rho D(2 beta) P] and the y-integral by quadrature.

States far from the origin are shifted to the origin first (W is translation
covariant).  The separable form does not need that shift, and the shift is
not exact: `hilbert.displacement_operator` exponentiates the truncated
generator, which biases W of states with a large mean amplitude.  It is kept
until perfbench's capture negativities are re-pinned against an exact
reference (see ROADMAP), so that every pinned number stays put until then.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, GridTooCoarseError
from .hilbert import DensityMatrix, displacement_operator

MAX_SPACING = 0.1
DEFAULT_SPACING = 0.05
DEFAULT_HALFWIDTH = 4.0
NORM_TOL = 2e-3
REFINE_REL_TOL = 0.01
REFINE_ABS_FLOOR = 1e-5
SUPPORT_CROP_TOL = 1e-13
RECENTER_THRESHOLD = 1.0
IMAG_RESIDUE_TOL = 1e-10


@dataclass(frozen=True)
class WignerResult:
    xs: np.ndarray  # grid along Re(beta)
    ps: np.ndarray  # grid along Im(beta)
    values: np.ndarray  # shape (len(ps), len(xs)), real
    negativity: float  # refined integral of |min(0, W)|
    norm: float  # integral of W over the grid
    spacing: float
    levels: int  # grid evaluations the refined negativity used, the first included


def _as_single_mode(rho) -> np.ndarray:
    if isinstance(rho, DensityMatrix):
        if len(rho.dims) != 1:
            raise ConfigError("Wigner evaluation requires a single-mode state")
        return rho.mat
    return DensityMatrix(rho).mat


def _mean_amplitude(mat: np.ndarray) -> complex:
    n = mat.shape[0]
    if n < 2:
        return 0.0
    # Tr[rho a] = sum_k sqrt(k+1) rho[k+1, k]
    return complex(np.sum(np.sqrt(np.arange(1.0, n)) * np.diagonal(mat, -1)))


def _rotations(count: int):
    """Yield T^(N) = exp((pi/4) G_N), N = 0..count-1; column n is the rotated state |N - n, n>.

    Each table comes from the one before by the creation operators of the
    rotated modes, c+ = (a+ - b+)/sqrt2 and d+ = (a+ + b+)/sqrt2, through
    N |m, n> = sqrt(m) c+ |m-1, n> + sqrt(n) d+ |m, n-1>.  That costs what
    using the table costs, is orthogonal to rounding and makes no BLAS call,
    so nothing is cached.
    """
    T = np.ones((1, 1))
    for N in range(count):
        if N > 0:
            j = np.arange(N + 1)  # row k: |N - k, k> of the unrotated modes a, b
            a_up = np.zeros((N + 1, N))
            a_up[:N] = np.sqrt(N - j[:N, None]) * T
            b_up = np.zeros((N + 1, N))
            b_up[1:] = np.sqrt(j[1:, None]) * T
            T = np.zeros((N + 1, N + 1))
            T[:, :N] += np.sqrt(N - j[:N]) * (a_up - b_up)  # sqrt(m) sqrt2 c+ |m-1, n>
            T[:, 1:] += np.sqrt(j[1:]) * (a_up + b_up)  # sqrt(n) sqrt2 d+ |m, n-1>
            T /= math.sqrt(2.0) * N
        yield T


def _hermite_functions(count: int, z: np.ndarray) -> np.ndarray:
    """Orthonormal Hermite functions h_0..h_(count-1) at z, by the stable upward recurrence."""
    h = np.empty((count, len(z)))
    h[0] = math.pi**-0.25 * np.exp(-0.5 * z * z)
    if count > 1:
        h[1] = math.sqrt(2.0) * z * h[0]
    for k in range(1, count - 1):
        h[k + 1] = math.sqrt(2.0 / (k + 1)) * z * h[k] - math.sqrt(k / (k + 1.0)) * h[k - 1]
    return h


def _wigner_values(mat: np.ndarray, xs: np.ndarray, ps: np.ndarray) -> np.ndarray:
    """Separable Hermite evaluation of W on the grid (rows: p, cols: x).

    The state is read from its upper triangle, as a Hermitian matrix, so the
    imaginary residue is what a non-real diagonal leaves.  ``np.einsum``
    without ``optimize`` never calls BLAS.
    """
    n = mat.shape[0]
    mat = np.triu(mat) + np.triu(mat, 1).conj().T
    K = 2 * n - 1
    coef = np.zeros((K, K), dtype=complex)
    i_pow = np.array([1, 1j, -1, -1j])
    for N, T in enumerate(_rotations(K)):
        cols = np.arange(max(0, N - n + 1), min(N, n - 1) + 1)
        k = np.arange(N + 1)
        c = np.einsum("kn,n->k", T[:, cols], mat[N - cols, cols])
        coef[N - k, k] = i_pow[k % 4] * c
    hx = _hermite_functions(K, 2.0 * np.asarray(xs, dtype=float))
    hp = _hermite_functions(K, 2.0 * np.asarray(ps, dtype=float))
    # both operands contiguous in the summed index: einsum's fastest inner loop
    parts = np.stack([coef.real, coef.imag])
    half = np.einsum("sab,ja->sjb", parts, hx.T.copy())
    vals = (2.0 / math.sqrt(math.pi)) * np.einsum("ib,sjb->sij", hp.T.copy(), half)
    resid = float(np.max(np.abs(vals[1]))) if vals[1].size else 0.0
    if resid > IMAG_RESIDUE_TOL:
        raise ConfigError(f"Wigner values carry imaginary residue {resid:.2e}")
    return vals[0]


def _grid_axes(bounds, spacing):
    (x0, x1), (p0, p1) = bounds
    nx = max(int(round((x1 - x0) / spacing)), 1)
    npts = max(int(round((p1 - p0) / spacing)), 1)
    xs = x0 + spacing * np.arange(nx + 1)
    ps = p0 + spacing * np.arange(npts + 1)
    return xs, ps


def _crop_support(mat: np.ndarray) -> np.ndarray:
    """Drop top Fock levels carrying only numerical residue."""
    mag = np.maximum(np.max(np.abs(mat), axis=0), np.max(np.abs(mat), axis=1))
    keep = np.nonzero(mag > SUPPORT_CROP_TOL)[0]
    if len(keep) == 0:
        return mat[:1, :1]
    top = int(keep[-1]) + 1
    return mat[:top, :top]


def _evaluate(mat: np.ndarray, bounds, spacing) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    xs, ps = _grid_axes(bounds, spacing)
    mu = _mean_amplitude(mat)
    if abs(mu) > RECENTER_THRESHOLD:
        D = displacement_operator(mu, mat.shape[0] - 1)
        shifted = _crop_support(D.conj().T @ mat @ D)
        vals = _wigner_values(shifted, xs - mu.real, ps - mu.imag)
    else:
        vals = _wigner_values(_crop_support(mat), xs, ps)
    return xs, ps, vals


def _quad_neg(vals: np.ndarray, spacing: float) -> float:
    neg = np.abs(np.minimum(vals, 0.0))
    return float(np.trapezoid(np.trapezoid(neg, dx=spacing, axis=1), dx=spacing))


def _quad_norm(vals: np.ndarray, spacing: float) -> float:
    return float(np.trapezoid(np.trapezoid(vals, dx=spacing, axis=1), dx=spacing))


def _refined_negativity(mat: np.ndarray, bounds, spacing: float,
                        first_vals: np.ndarray, max_levels: int = 3) -> tuple[float, int]:
    """Halve the spacing until the quadrature changes by < 1 percent.

    Returns the negativity and the number of grid evaluations used.
    """
    prev = _quad_neg(first_vals, spacing)
    if prev < REFINE_ABS_FLOOR:
        return prev, 1
    for level in range(2, max_levels + 2):
        spacing /= 2.0
        _, _, vals = _evaluate(mat, bounds, spacing)
        cur = _quad_neg(vals, spacing)
        if abs(cur - prev) <= REFINE_REL_TOL * max(abs(cur), abs(prev)) or (
            abs(cur) < REFINE_ABS_FLOOR and abs(prev) < REFINE_ABS_FLOOR
        ):
            return cur, level
        prev = cur
    return prev, max_levels + 1


def default_bounds(rho) -> tuple[tuple[float, float], tuple[float, float]]:
    """Box of half-width 4 centered on the state's mean amplitude."""
    mu = _mean_amplitude(_as_single_mode(rho))
    return (
        (mu.real - DEFAULT_HALFWIDTH, mu.real + DEFAULT_HALFWIDTH),
        (mu.imag - DEFAULT_HALFWIDTH, mu.imag + DEFAULT_HALFWIDTH),
    )


def wigner_grid(rho, bounds=None, spacing: float = DEFAULT_SPACING) -> WignerResult:
    """Wigner function of a single-mode state on a rectangular grid.

    ``bounds`` is ((xmin, xmax), (pmin, pmax)); by default a half-width-4 box
    around the mean amplitude.  The stored negativity is converged under grid
    refinement to better than 1 percent (or below an absolute floor).
    """
    if not 0 < spacing <= MAX_SPACING:
        raise GridTooCoarseError(
            f"grid spacing {spacing} must be positive and at most {MAX_SPACING}"
        )
    mat = _as_single_mode(rho)
    if bounds is None:
        bounds = default_bounds(rho)
    (x0, x1), (p0, p1) = bounds
    if not (x1 > x0 and p1 > p0):
        raise ConfigError(f"grid bounds {bounds!r} need each upper edge above its lower edge")
    xs, ps, vals = _evaluate(mat, bounds, spacing)
    norm = _quad_norm(vals, spacing)
    neg, levels = _refined_negativity(mat, bounds, spacing, vals)
    return WignerResult(
        xs=xs, ps=ps, values=vals, negativity=neg, norm=norm, spacing=spacing, levels=levels,
    )
