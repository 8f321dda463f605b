"""Wigner function on a phase-space grid and its total negativity.

The convention is W(beta = x + i p) with a vacuum peak of 2/pi and unit
normalization over d^2 beta = dx dp.  Values are computed from the Fock
representation through the displaced-parity closed form,

    W(beta) = (2/pi) Tr[rho D(2 beta) P],  P = parity,

whose matrix elements are generalized Laguerre polynomials.  This is exact in
the truncated basis and equals the y-integral definition of W; the tests spot
check that equality by quadrature.  States far from the origin are shifted to
the origin first (W is translation covariant) so the Laguerre recurrences stay
well conditioned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

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


def _wigner_values(mat: np.ndarray, xs: np.ndarray, ps: np.ndarray) -> np.ndarray:
    """Displaced-parity evaluation of W on the grid (rows: p, cols: x).

    For each diagonal offset d the generalized Laguerre polynomials
    L_m^(d)(|2 beta|^2) are generated by the upward degree recurrence,
    vectorized over the grid.
    """
    n = mat.shape[0]
    X, P = np.meshgrid(xs, ps)
    B2 = 4.0 * (X * X + P * P)  # |2 beta|^2
    gamma = 2.0 * (X + 1j * P)
    env = np.exp(-0.5 * B2)

    total = np.zeros_like(B2, dtype=complex)
    gamma_d = np.ones_like(gamma)
    for d in range(n):
        if d > 0:
            gamma_d = gamma_d * gamma
        diag = np.diagonal(mat, offset=d)  # rho[m, m+d]
        sig = np.nonzero(np.abs(diag) > 1e-16)[0]
        if len(sig) == 0:
            continue
        m_top = int(sig[-1])
        acc = np.zeros_like(B2, dtype=complex)
        lm_prev = None  # L_{m-1}^{(d)}
        lm = np.ones_like(B2)  # L_0^{(d)}
        for m in range(m_top + 1):
            if m == 1:
                lm_prev, lm = lm, (1.0 + d) - B2
            elif m >= 2:
                lm_new = (((2.0 * m - 1.0 + d) - B2) * lm - (m - 1.0 + d) * lm_prev) / m
                lm_prev, lm = lm, lm_new
            c = diag[m]
            if abs(c) < 1e-16:
                continue
            scale = math.exp(0.5 * (gammaln(m + 1) - gammaln(m + d + 1)))
            sign = -1.0 if m % 2 else 1.0
            acc += (c * sign * scale) * lm
        term = acc * gamma_d
        if d == 0:
            total += term
        else:
            total += 2.0 * term.real
    vals = (2.0 / math.pi) * env * total
    resid = float(np.max(np.abs(vals.imag))) if vals.size else 0.0
    if resid > IMAG_RESIDUE_TOL:
        raise ConfigError(f"Wigner values carry imaginary residue {resid:.2e}")
    return vals.real


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
                        first_vals: np.ndarray, max_levels: int = 3) -> float:
    """Halve the spacing until the quadrature changes by < 1 percent."""
    prev = _quad_neg(first_vals, spacing)
    if prev < REFINE_ABS_FLOOR:
        return prev
    for _ in range(max_levels):
        spacing /= 2.0
        _, _, vals = _evaluate(mat, bounds, spacing)
        cur = _quad_neg(vals, spacing)
        if abs(cur - prev) <= REFINE_REL_TOL * max(abs(cur), abs(prev)) or (
            abs(cur) < REFINE_ABS_FLOOR and abs(prev) < REFINE_ABS_FLOOR
        ):
            return cur
        prev = cur
    return prev


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
    xs, ps, vals = _evaluate(mat, bounds, spacing)
    norm = _quad_norm(vals, spacing)
    neg = _refined_negativity(mat, bounds, spacing, vals)
    return WignerResult(
        xs=xs, ps=ps, values=vals, negativity=neg, norm=norm, spacing=spacing,
    )
