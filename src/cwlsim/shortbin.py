"""Exact captured-mode state in the short-bin limit (kappa*tau << 1).

For a narrow bin the captured annihilation operator reduces to
b_v ~ sqrt(tau) (alpha + sqrt(kappa) S-) with S- the collective lowering
operator evaluated at the bin opening, so the cavity state follows from the
emitter moments <(S+)^n (S-)^m> alone.  Two independent routes are provided:
the closed-form mixture on the displaced Fock span {0..M} (`shortbin_rho`)
and a direct normally-ordered series evaluation (`shortbin_oracle`).
"""

from __future__ import annotations

import logging
import math

import numpy as np

from .errors import ConfigError, SeriesConvergenceError
from .hilbert import DensityMatrix, displacement_block
from .model import chain_operators, default_cutoff

log = logging.getLogger(__name__)

KAPPA_TAU_SOFT_LIMIT = 0.05


class EmitterMoments:
    """Table of collective-operator moments <(S+)^n (S-)^m>, 0 <= n, m <= M."""

    __slots__ = ("table", "M")

    def __init__(self, table: np.ndarray, M: int):
        table = np.asarray(table, dtype=complex)
        if table.shape != (M + 1, M + 1):
            raise ConfigError(f"moment table must be ({M+1},{M+1}), got {table.shape}")
        if abs(table[0, 0] - 1.0) > 1e-10:
            raise ConfigError("moment (0,0) must equal 1 (unit trace)")
        if np.max(np.abs(table - table.conj().T)) > 1e-10:
            raise ConfigError("moment table must be Hermitian-symmetric")
        table = table.copy()
        table.flags.writeable = False
        self.table = table
        self.M = M


def _emitter_levels(dim: int, M: int) -> int:
    """Levels per emitter, 2 or 3, of an M-emitter state of dimension ``dim``."""
    for levels in (2, 3):
        if levels**M == dim:
            return levels
    raise ConfigError(f"emitter state dim {dim} incompatible with M={M}")


def emitter_moments(rho_emitters: DensityMatrix, M: int) -> EmitterMoments:
    """Moments of the collective lowering operator on the emitter state."""
    dim = rho_emitters.dim
    levels = _emitter_levels(dim, M)
    if M == 0:
        return EmitterMoments(np.ones((1, 1), dtype=complex), 0)
    S = chain_operators(M, levels, 1)["S"].toarray()
    Sd = S.conj().T
    # powers up to M; (S-)^(M+1) vanishes identically
    s_pows = [np.eye(dim, dtype=complex)]
    sd_pows = [np.eye(dim, dtype=complex)]
    for _ in range(M):
        s_pows.append(s_pows[-1] @ S)
        sd_pows.append(sd_pows[-1] @ Sd)
    assert np.max(np.abs(s_pows[-1] @ S)) == 0.0
    rho = rho_emitters.mat
    table = np.empty((M + 1, M + 1), dtype=complex)
    for n in range(M + 1):
        for m in range(M + 1):
            table[n, m] = np.trace(rho @ sd_pows[n] @ s_pows[m])
    table[0, 0] = 1.0 + 0.0j  # exact by unit trace
    return EmitterMoments(table, M)


def shortbin_rho(mom: EmitterMoments, alpha: complex, tau: float, kappa: float,
                 M: int, cutoff: int | None = None) -> DensityMatrix:
    """Closed-form captured-mode state: displaced (M+1)-component mixture.

    ``alpha`` is in units of sqrt(kappa).  The undisplaced kernel lives on the
    Fock span {0..M} and has trace exactly 1; the result is D K D+ with D the
    exact block <m|D(sqrt(tau) alpha)|n>, m <= cutoff, n <= M, of
    `hilbert.displacement_block`.  Its trace falls short of 1 only by the
    weight the displaced kernel puts above the cutoff; that deficit is logged
    and renormalized away.
    """
    if mom.M != M:
        raise ConfigError("moment table size does not match M")
    kt = kappa * tau
    if kt > KAPPA_TAU_SOFT_LIMIT:
        log.warning("kappa*tau = %.3g exceeds the short-bin regime (%.2g)",
                    kt, KAPPA_TAU_SOFT_LIMIT)
    alpha_phys = complex(alpha) * math.sqrt(kappa)
    if cutoff is None:
        cutoff = default_cutoff(tau * abs(alpha_phys) ** 2, M)
    dim = cutoff + 1

    kernel = np.zeros((M + 1, M + 1), dtype=complex)
    for n in range(M + 1):
        for m in range(M + 1):
            w = mom.table[n, m] * kt ** ((n + m) / 2.0)
            if w == 0:
                continue
            for k in range(min(n, m) + 1):
                coeff = (-1.0) ** k / (
                    math.factorial(k)
                    * math.sqrt(math.factorial(n - k))
                    * math.sqrt(math.factorial(m - k))
                )
                kernel[m - k, n - k] += w * coeff

    D = displacement_block(alpha_phys * math.sqrt(tau), dim, M + 1)
    out = D @ kernel @ D.conj().T
    out = (out + out.conj().T) / 2
    tr = float(np.real(np.trace(out)))
    if abs(tr - 1.0) > 1e-12:
        log.info("short-bin trace deficit %.3e renormalized", tr - 1.0)
    out = out / tr
    # the formula is first-order exact in kappa*tau; allow the matching
    # positivity slack when validating
    tol = max(1e-8, 10.0 * kt * kt)
    return DensityMatrix(out, positivity_tol=tol)


def shortbin_oracle(rho_emitters: DensityMatrix, alpha: complex, tau: float,
                    kappa: float, M: int, k_max: int = 30,
                    cutoff: int | None = None) -> DensityMatrix:
    """Direct matrix-element evaluation of the short-bin captured state.

    Expands the normally ordered exponential in <:(b+)^n e^{-b+ b} b^m:> with
    b = sqrt(tau)(alpha + sqrt(kappa) S-) as finite emitter-space matrix
    products, independent of the closed-form combinatorics.  A ratio test
    bounds the truncated k-series tail.
    """
    alpha_phys = complex(alpha) * math.sqrt(kappa)
    if cutoff is None:
        cutoff = default_cutoff(tau * abs(alpha_phys) ** 2, M)
    dim_out = cutoff + 1

    S = chain_operators(M, _emitter_levels(rho_emitters.dim, M), 1)["S"].toarray()
    A = np.conj(alpha_phys) * np.eye(S.shape[0]) + math.sqrt(kappa) * S.conj().T
    B = alpha_phys * np.eye(S.shape[0]) + math.sqrt(kappa) * S

    n_pow = dim_out + k_max + 1
    a_pows = [np.eye(S.shape[0], dtype=complex)]
    b_pows = [np.eye(S.shape[0], dtype=complex)]
    for _ in range(n_pow):
        a_pows.append(a_pows[-1] @ A)
        b_pows.append(b_pows[-1] @ B)

    rho_e = rho_emitters.mat
    left = [rho_e @ ap for ap in a_pows]
    expect = np.empty((n_pow + 1, n_pow + 1), dtype=complex)
    for p in range(n_pow + 1):
        for q in range(n_pow + 1):
            expect[p, q] = np.trace(left[p] @ b_pows[q])

    # log of |(-tau)^k / k!| for the series terms and the tail bound
    log_tau = math.log(tau)
    out = np.zeros((dim_out, dim_out), dtype=complex)
    sqrt_tau = math.sqrt(tau)
    logfact = [math.lgamma(j + 1) for j in range(dim_out)]
    for m in range(dim_out):
        for n in range(m, dim_out):
            pref = sqrt_tau ** (n + m) / math.exp(0.5 * (logfact[n] + logfact[m]))
            total = 0.0 + 0.0j
            for k in range(k_max + 1):
                total += ((-tau) ** k / math.factorial(k)) * expect[n + k, m + k]
            tail_log = ((k_max + 1) * log_tau - math.lgamma(k_max + 2))
            tail = (math.exp(tail_log) if tail_log > -700 else 0.0) * abs(
                expect[n + k_max + 1, m + k_max + 1]
            )
            if tail > 1e-10:
                raise SeriesConvergenceError(
                    f"k-series tail {tail:.2e} above 1e-10 at element ({m},{n}); "
                    f"increase k_max or reduce tau"
                )
            val = pref * total
            out[m, n] = val
            if n != m:
                out[n, m] = np.conj(val)
    out = (out + out.conj().T) / 2
    kt = kappa * tau
    tol = max(1e-8, 10.0 * kt * kt)
    return DensityMatrix(out, positivity_tol=tol, trace_tol=1e-6)
