"""Oracles for the metrology tests.

Dense two-mode interferometer: independent of the production routes in
``cwlsim.metrology``, the full two-mode state is built in a truncated product
basis and pushed through explicit beam-splitter unitaries, and the quantum
bound comes from an ``eigh`` of the whole state after the first splitter.
The cost grows with the product dimension (seconds at N_b = 16), so these
serve as references for the moment-based J_z statistics and the closed-form
``crb``.

Numerical searches: the J_z optimum by a phi scan with golden-section polish
(``jz_search``) and the squeezed reference by a four-start golden-section
search over the squeezing angle (``squeezed_search``), references for the
closed forms of ``jz_sensitivity`` and ``squeezed_reference``.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from scipy.linalg import eigh, expm

from cwlsim.errors import ConfigError
from cwlsim.hilbert import DensityMatrix, coherent_state, default_coherent_cutoff, pad_fock
from cwlsim.metrology import (DERIV_FLOOR_REL, MIN_PHI_POINTS, QFI_EIG_FLOOR, MomentSet,
                              _jz_curves, _jz_stats, jz_sensitivity,
                              squeezed_vacuum_moments)


@lru_cache(maxsize=8)
def beam_splitter_unitary(dim_a: int, dim_b: int) -> np.ndarray:
    """50/50 beam splitter exp(i pi/4 (a+ b + a b+)), i on reflection.

    Photon number is conserved, so the unitary is assembled block by block in
    the total-number sectors (exact within the truncated product space).
    """
    U = np.zeros((dim_a * dim_b, dim_a * dim_b), dtype=complex)

    def idx(na: int, nb: int) -> int:
        return na * dim_b + nb

    for N in range(dim_a + dim_b - 1):
        ks = [k for k in range(N + 1) if k < dim_a and (N - k) < dim_b]
        if not ks:
            continue
        nblk = len(ks)
        h = np.zeros((nblk, nblk), dtype=complex)
        for ii, k in enumerate(ks):
            # <k+1, N-k-1 | a+ b | k, N-k> = sqrt((k+1)(N-k))
            if k + 1 in ks:
                val = math.sqrt((k + 1) * (N - k))
                jj = ks.index(k + 1)
                h[jj, ii] += val
                h[ii, jj] += val
        blk = expm(1j * (math.pi / 4.0) * h)
        for ii, k1 in enumerate(ks):
            for jj, k2 in enumerate(ks):
                U[idx(k1, N - k1), idx(k2, N - k2)] = blk[ii, jj]
    return U


def two_mode_input(rho_a, N_b: float, cutoff_b: int) -> np.ndarray:
    mat_a = rho_a.mat if isinstance(rho_a, DensityMatrix) else np.asarray(rho_a, dtype=complex)
    amps = coherent_state(math.sqrt(N_b), cutoff_b)
    rho_b = np.outer(amps, amps.conj())
    return np.kron(mat_a, rho_b)


def jz_statistics_dense(rho_a, N_b: float, cutoff_b: int, phi: float):
    """Oracle: build the full interferometer and measure (n_a' - n_b')/2.

    Independent of the moment-based route: the two-mode state is pushed
    through both splitter unitaries and the phase explicitly.
    """
    mat_a = rho_a.mat if isinstance(rho_a, DensityMatrix) else np.asarray(rho_a, dtype=complex)
    dim_a, dim_b = mat_a.shape[0], cutoff_b + 1
    rho = two_mode_input(mat_a, N_b, cutoff_b)
    U = beam_splitter_unitary(dim_a, dim_b)
    na = np.kron(np.arange(dim_a), np.ones(dim_b))
    nb = np.kron(np.ones(dim_a), np.arange(dim_b))
    phase = np.exp(1j * phi * na)
    rho1 = U @ rho @ U.conj().T
    rho2 = phase[:, None] * rho1 * phase.conj()[None, :]
    rho3 = U @ rho2 @ U.conj().T
    jz = 0.5 * (na - nb)
    diag = np.real(np.diag(rho3))
    mean = float(diag @ jz)
    var = float(diag @ (jz * jz)) - mean * mean
    return mean, var


def crb_dense(rho_v, N_b: float, phi: float = 0.0, cutoff_b: int | None = None,
              dim_limit: int = 4096) -> float:
    """Quantum bound 1/sqrt(F_Q) on the phase sensitivity.

    F_Q is the quantum Fisher information of the state after the first
    splitter for the balanced generator (n_a - n_b)/2, from the symmetric
    logarithmic derivative eigendecomposition formula.  It is independent of
    phi for this generator; ``phi`` is accepted for interface symmetry and a
    coarse-grid independence check is exposed via ``crb_phi_independence``.
    """
    mat_a = rho_v.mat if isinstance(rho_v, DensityMatrix) else np.asarray(rho_v, dtype=complex)
    # after the splitter each arm carries about (N_a + N_b)/2 photons, so both
    # truncations need headroom beyond the input supports
    na_in = float(np.real(np.arange(mat_a.shape[0]) @ np.real(np.diag(mat_a))))
    per_arm = 0.5 * (na_in + N_b)
    arm_cut = default_coherent_cutoff(math.sqrt(per_arm))
    if cutoff_b is None:
        cutoff_b = max(default_coherent_cutoff(math.sqrt(N_b)), arm_cut)
    dim_a = max(mat_a.shape[0], arm_cut + 1, mat_a.shape[0] + 8)
    if dim_a > mat_a.shape[0]:
        mat_a = pad_fock(mat_a, dim_a)
    dim_b = cutoff_b + 1
    if dim_a * dim_b > dim_limit:
        raise ConfigError(
            f"two-mode dimension {dim_a * dim_b} exceeds limit {dim_limit}"
        )
    rho = two_mode_input(mat_a, N_b, cutoff_b)
    U = beam_splitter_unitary(dim_a, dim_b)
    rho1 = U @ rho @ U.conj().T
    rho1 = (rho1 + rho1.conj().T) / 2

    na = np.kron(np.arange(dim_a), np.ones(dim_b))
    nb = np.kron(np.ones(dim_a), np.arange(dim_b))
    g = 0.5 * (na - nb)
    if phi != 0.0:
        ph = np.exp(-1j * phi * g)
        rho1 = ph[:, None] * rho1 * ph.conj()[None, :]

    vals, vecs = eigh(rho1)
    vals = np.clip(vals, 0.0, None)
    gmat = vecs.conj().T @ (g[:, None] * vecs)
    lam_i = vals[:, None]
    lam_j = vals[None, :]
    den = lam_i + lam_j
    num = (lam_i - lam_j) ** 2
    mask = den > QFI_EIG_FLOOR
    fq = 2.0 * float(np.sum(np.where(mask, num * np.abs(gmat) ** 2 / np.where(mask, den, 1.0), 0.0)))
    if fq <= 0:
        raise ConfigError("quantum Fisher information vanished")
    return 1.0 / math.sqrt(fq)


def crb_phi_independence(rho_v, N_b: float, cutoff_b: int | None = None,
                         phis=(0.0, 0.7, 2.1)) -> float:
    """Max relative spread of the bound over a coarse phi grid (should be ~0)."""
    vals = [crb_dense(rho_v, N_b, phi, cutoff_b) for phi in phis]
    return (max(vals) - min(vals)) / min(vals)


def golden_min(fun, a: float, b: float, tol: float = 1e-10) -> float:
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = b - invphi * (b - a)
    x2 = a + invphi * (b - a)
    f1, f2 = fun(x1), fun(x2)
    while (b - a) > tol:
        if f1 < f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - invphi * (b - a)
            f1 = fun(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + invphi * (b - a)
            f2 = fun(x2)
    return 0.5 * (a + b)


def jz_search(mom: MomentSet, N_b: float, b_phase: float = 0.0) -> tuple[float, float]:
    """Oracle: (delta_phi, phi_opt) of the J_z estimator by numerical search.

    The ratio sqrt(Var)/|slope| is scanned on MIN_PHI_POINTS points of
    [0, pi], both ends included so that an optimum at phi = 0 is found, and
    the grid minimum is polished by golden-section search between its
    neighbours.
    """
    stats = _jz_stats(mom, N_b, b_phase)
    grid = np.linspace(0.0, math.pi, MIN_PHI_POINTS)
    _, var, deriv = _jz_curves(stats, grid)
    floor = DERIV_FLOOR_REL * (mom.N_a + N_b)
    ok = np.abs(deriv) > floor
    if not np.any(ok):
        raise ConfigError("signal slope vanishes on the whole phi grid")
    ratio = np.full_like(grid, np.inf)
    ratio[ok] = np.sqrt(np.maximum(var[ok], 0.0)) / np.abs(deriv[ok])
    i0 = int(np.argmin(ratio))

    def objective(phi: float) -> float:
        _, v, d = _jz_curves(stats, np.asarray([phi]))
        if abs(d[0]) <= floor:
            return np.inf
        return math.sqrt(max(v[0], 0.0)) / abs(d[0])

    lo = grid[max(i0 - 1, 0)]
    hi = grid[min(i0 + 1, len(grid) - 1)]
    phi_opt = golden_min(objective, lo, hi)
    dphi = objective(phi_opt)
    if not np.isfinite(dphi):
        return float(ratio[i0]), float(grid[i0])
    return dphi, phi_opt


def squeezed_search(N_a: float, N_b: float) -> float:
    """Oracle: delta_phi of the best squeezed vacuum with sinh^2 r = N_a.

    The best of the four axes theta = 0, pi/2, pi, 3 pi/2 is polished by
    golden-section search over theta within pi/2 on either side; each angle
    is scored by ``jz_sensitivity``, whose phi optimum ``jz_search`` checks.
    """
    def objective(theta: float) -> float:
        return jz_sensitivity(squeezed_vacuum_moments(N_a, theta), N_b).delta_phi

    best_theta = min((0.0, math.pi / 2, math.pi, 3 * math.pi / 2), key=objective)
    theta = golden_min(objective, best_theta - math.pi / 2, best_theta + math.pi / 2, tol=1e-8)
    return min(objective(theta), objective(best_theta))
