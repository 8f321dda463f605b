"""Independent Wigner-function oracles for the separable kernel in `cwlsim.wigner`.

Both evaluate the displaced-parity form W(beta) = (2/pi) Tr[rho D(2 beta) P]
in the convention of `cwlsim.wigner` (vacuum peak 2/pi).

- `laguerre_values`: for each diagonal offset d, the upward recurrence of the
  generalized Laguerre polynomials L_m^(d)(|2 beta|^2), vectorized over the
  grid; O(n^2) full-grid sweeps.
- `exact_values`: point by point from the untruncated matrix elements
  <m|D(2 beta)|n> of `hilbert.displacement_block` (no ``expm``).
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import gammaln

from cwlsim.hilbert import displacement_block


def laguerre_values(mat: np.ndarray, xs: np.ndarray, ps: np.ndarray) -> np.ndarray:
    """W on the grid (rows: p, cols: x) from the upper triangle of ``mat``."""
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
    return ((2.0 / math.pi) * env * total).real


def exact_values(mat: np.ndarray, xs: np.ndarray, ps: np.ndarray) -> np.ndarray:
    """W on the grid (rows: p, cols: x), Tr[rho D(2 beta) P] with exact <m|D|n>."""
    n = mat.shape[0]
    parity = (-1.0) ** np.arange(n)
    out = np.empty((len(ps), len(xs)))
    for i, p in enumerate(ps):
        for j, x in enumerate(xs):
            dp = displacement_block(2.0 * complex(x, p), n, n) * parity  # D(2 beta) P
            out[i, j] = (2.0 / math.pi) * np.real(np.sum(mat.T * dp))
    return out
