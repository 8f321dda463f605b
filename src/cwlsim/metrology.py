"""Mach-Zehnder phase estimation with the captured state in port a.

Setup: lossless 50/50 beam splitters with an i factor on reflection, phase
phi in arm a between the splitters, port b fed with the coherent state
|sqrt(N_b)>.  In the Schwinger picture the output intensity-difference
estimator is

    J_z(phi) = -cos(phi) J_z + sin(phi) J_x,

with J_z = (n_a - n_b)/2 and J_x = (a+ b + a b+)/2 on the inputs, so its mean
and variance follow exactly from the normally ordered port-a moments
<a+^p a^q> with p + q <= 4 (port b factorizes).  The quantum bound uses the
Fisher information of the state after the first splitter under the balanced
relative-phase generator (n_a - n_b)/2, which reproduces shot noise
1/sqrt(N_a + N_b) for coherent light at both ports.

Because port b holds the pure state |beta>, beta = sqrt(N_b), the input
state rho_a (x) |beta><beta| has eigenvectors e_i (x) |beta>, where
rho_a = sum_i l_i e_i e_i+.  The splitter rotates the generator into
J_y = (a+ b - a b+)/2i (up to a sign that F_Q does not see), whose matrix
elements between those eigenvectors reduce to port a:
<e_i, beta|J_y|e_j, beta> = <e_i|A|e_j> with A = (beta a+ - beta* a)/2i,
and <beta|J_y^2|beta> = G2 = -(beta^2 a+^2 - (N_b+1) a+ a - N_b a a+
+ beta*^2 a^2)/4.  Writing the mixed-state Fisher information as
4 sum_i l_i <G^2>_i minus its coherence term then gives the exact form

    F_Q = 4 Tr[rho_a G2] - 8 sum_ij l_i l_j / (l_i + l_j) |<e_i|A|e_j>|^2,

evaluated on rho_a padded by two Fock levels.  The dense two-mode
construction in tests/metrology_oracles.py serves as its oracle.

The J_z optimum is closed form.  With u = (cos phi, sin phi) the estimator
has variance u.A.u and slope d<J_z>/d phi = b.u, where

    A = [[V_z, -C/2], [-C/2, V_x]],    b = (X, Z),

Z = <J_z>, X = <J_x>, V_z and V_x their input variances and
C = <{J_z, J_x}> - 2 Z X.  A is a covariance matrix, hence positive
semidefinite, and by Cauchy-Schwarz

    min_phi delta_phi = 1/sqrt(b.A+.b),  reached at u ~ A+ b,

with A+ the pseudo-inverse.  For regular A this is
delta_phi^2 = det A / (V_x X^2 + C X Z + V_z Z^2) at
phi_opt = atan2(C X/2 + V_z Z, V_x X + C Z/2) mod pi.  When A has rank one
(a Fock state with N_b = 0, say), the direction of zero variance has zero
slope too, because the state is then an eigenstate of the rotated
estimator: A+ keeps only the eigenvector of the larger eigenvalue, and
phi_opt lies along it.  Eigenvalues below JZ_RCOND times the largest count as zero.  delta_phi
is then the ratio sqrt(Var)/|slope| evaluated at phi_opt, the formula the
returned curves use.  Only scalar arithmetic is involved, no BLAS call.

The squeezed-vacuum reference needs no search over the squeezing angle
theta.  Squeezed vacuum has no odd moments, so X = 0 and C = 0, and
delta_phi^2 = V_x / Z^2 at phi = pi/2.  Z and V_z do not depend on theta;
V_x holds theta only through (N_b/2) Re<a+^2> = -(N_b/2) cos(theta)
sinh r cosh r, which theta = 0 minimizes at every N_b.  Numerical phi and
theta searches in tests/metrology_oracles.py serve as oracles for both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, CutoffConvergenceError
from .hilbert import DensityMatrix, pad_fock

MAX_MOMENT_ORDER = 4
DERIV_FLOOR_REL = 1e-9
MIN_PHI_POINTS = 400
DEFAULT_N_B = 100.0  # second-port photon number when a config names none
QFI_EIG_FLOOR = 1e-12
JZ_RCOND = 1e-12  # relative eigenvalue floor of the J_z covariance pseudo-inverse
# truncation probe of extract_moments: the moments may move by at most
# MOMENT_TAIL_TOL when the top MOMENT_TAIL_LEVELS Fock levels are dropped
MOMENT_TAIL_LEVELS = 2
MOMENT_TAIL_TOL = 1e-3


@dataclass(frozen=True)
class MomentSet:
    """Normally ordered moments mu[p, q] = <a+^p a^q> for p + q <= 4."""

    table: np.ndarray  # (5, 5) complex; entries with p + q > 4 are zero

    def __post_init__(self):
        t = np.asarray(self.table, dtype=complex)
        if t.shape != (5, 5):
            raise ConfigError("moment table must be 5x5")
        if abs(t[0, 0] - 1.0) > 1e-9:
            raise ConfigError("moment (0,0) must be 1")
        if np.max(np.abs(t - t.conj().T)) > 1e-9:
            raise ConfigError("moment table must satisfy mu[p,q] = conj(mu[q,p])")
        if t[1, 1].real < -1e-12:
            raise ConfigError("mean photon number must be non-negative")
        t = t.copy()
        t.flags.writeable = False
        object.__setattr__(self, "table", t)

    @property
    def N_a(self) -> float:
        return float(self.table[1, 1].real)

    def mu(self, p: int, q: int) -> complex:
        return complex(self.table[p, q])


@dataclass(frozen=True)
class MZResult:
    phi_grid: np.ndarray
    mean_jz: np.ndarray
    var_jz: np.ndarray
    delta_phi: float
    phi_opt: float
    delta_phi_sn: float
    improvement: float  # delta_phi_sn / delta_phi - 1
    N_a: float  # mean photon number at port a
    N_a_baseline: float  # photon number entering the shot-noise reference
    N_b: float


def extract_moments(rho_v) -> MomentSet:
    """Moments <a+^p a^q>, p + q <= 4, by exact truncated-basis contraction.

    The moments of a fixed matrix are cutoff independent, so truncation
    sensitivity is probed from below: recomputing with the top
    MOMENT_TAIL_LEVELS Fock levels removed must change every moment by less
    than MOMENT_TAIL_TOL, otherwise the source state was produced with too
    small a cutoff.  (Propagating with a grown cutoff and comparing moments
    is the sharper check; the integrator suite exercises it.)
    """
    mat = rho_v.mat if isinstance(rho_v, DensityMatrix) else np.asarray(rho_v, dtype=complex)
    dim = mat.shape[0]

    def table_for(m: np.ndarray) -> np.ndarray:
        d = m.shape[0]
        a = np.diag(np.sqrt(np.arange(1.0, d)), k=1).astype(complex)
        apow = [np.eye(d, dtype=complex)]
        for _ in range(MAX_MOMENT_ORDER):
            apow.append(apow[-1] @ a)
        t = np.zeros((5, 5), dtype=complex)
        for p in range(5):
            for q in range(5 - p):
                t[p, q] = np.trace(m @ apow[p].conj().T @ apow[q])
        return t

    full = table_for(mat)
    # the proxy needs headroom: on fewer than 8 retained levels the fourth
    # moments are truncation-dominated by construction and the comparison
    # carries no information
    keep = dim - MOMENT_TAIL_LEVELS
    if keep >= 8:
        trunc = mat[:keep, :keep].copy()
        tr = np.trace(trunc).real
        small = table_for(trunc / tr)
        delta = np.max(np.abs(full - small))
        if delta > MOMENT_TAIL_TOL:
            raise CutoffConvergenceError(
                f"moments change by {delta:.2e} when the top {MOMENT_TAIL_LEVELS} Fock "
                f"levels are dropped (tolerance {MOMENT_TAIL_TOL:.1e}); cutoff too small"
            )
    full[0, 0] = 1.0
    # symmetrize against floating-point residue
    full = (full + full.conj().T) / 2
    return MomentSet(full)


def coherent_moments(N_a: float, phase: float = 0.0) -> MomentSet:
    beta = math.sqrt(N_a) * np.exp(1j * phase)
    t = np.zeros((5, 5), dtype=complex)
    for p in range(5):
        for q in range(5 - p):
            t[p, q] = np.conj(beta) ** p * beta**q
    return MomentSet(t)


def squeezed_vacuum_moments(N_a: float, theta: float = 0.0) -> MomentSet:
    """Moments of squeezed vacuum with sinh^2 r = N_a and squeezing angle theta.

    Quartic moments follow from Gaussian (Wick) factorization over the
    normally ordered pair contractions n = <a+ a> and m = <a a>.
    """
    if N_a < 0:
        raise ConfigError("photon number must be non-negative")
    r = math.asinh(math.sqrt(N_a))
    nbar = math.sinh(r) ** 2
    m = -np.exp(1j * theta) * math.sinh(r) * math.cosh(r)  # <a a>
    t = np.zeros((5, 5), dtype=complex)
    t[0, 0] = 1.0
    t[1, 1] = nbar
    t[0, 2] = m
    t[2, 0] = np.conj(m)
    t[2, 2] = abs(m) ** 2 + 2 * nbar**2
    t[1, 3] = 3 * m * nbar
    t[3, 1] = np.conj(t[1, 3])
    t[0, 4] = 3 * m * m
    t[4, 0] = np.conj(t[0, 4])
    return MomentSet(t)


def _jz_stats(mom: MomentSet, N_b: float, b_phase: float = 0.0):
    """Input-frame Schwinger statistics (Z, X, var_z, var_x, cov).

    Z = <J_z>, X = <J_x>, var_z and var_x their variances and
    cov = <{J_z, J_x}> - 2 <J_z><J_x>.  Port b carries the coherent amplitude
    sqrt(N_b) e^{i b_phase}; its moments factorize, so everything reduces to
    the port-a moment table.
    """
    beta = math.sqrt(N_b) * np.exp(1j * b_phase)
    mu = mom.mu
    na = mu(1, 1).real
    Z = 0.5 * (na - N_b)
    X = (mu(1, 0) * beta).real
    jz2 = 0.25 * ((mu(2, 2) + mu(1, 1)).real - 2 * na * N_b + N_b**2 + N_b)
    jx2 = 0.25 * (
        2.0 * (mu(2, 0) * beta * beta).real
        + mu(1, 1).real * (N_b + 1.0)
        + (mu(1, 1).real + 1.0) * N_b
    )
    anti = 0.5 * (
        ((2 * mu(2, 1) + mu(1, 0)) * beta).real
        - (mu(1, 0) * beta).real * (2 * N_b + 1.0)
    )
    return Z, X, jz2 - Z * Z, jx2 - X * X, anti - 2 * Z * X


def _jz_curves(stats, phi):
    """Mean, variance, and analytic phi-derivative of the J_z estimator at ``phi``."""
    Z, X, var_z, var_x, cov = stats
    c, s = np.cos(phi), np.sin(phi)
    mean = -c * Z + s * X
    var = c * c * var_z + s * s * var_x - s * c * cov
    deriv = s * Z + c * X
    return mean, var, deriv


def jz_sensitivity(mom: MomentSet, N_b: float, phi_grid=None,
                   baseline_na: float | None = None,
                   b_phase: float = 0.0) -> MZResult:
    """Best phase sensitivity of the intensity-difference estimator.

    delta_phi = min over phi of sqrt(Var J_z) / |d<J_z>/d phi|, in the closed
    form of the module docstring; mean and variance are also returned on
    ``phi_grid``.  ``baseline_na`` sets the photon number used in the
    shot-noise reference 1/sqrt(N_a + N_b) (default: the port-a mean);
    ``b_phase`` rotates the port-b amplitude (rotating the port-a state and
    co-rotating ``b_phase`` leaves delta_phi unchanged).
    """
    if N_b < 0:
        raise ConfigError("N_b must be non-negative")
    if phi_grid is None:
        phi_grid = np.linspace(1e-4, math.pi - 1e-4, MIN_PHI_POINTS)
    phi_grid = np.asarray(phi_grid, dtype=float)
    if len(phi_grid) < MIN_PHI_POINTS:
        raise ConfigError(f"phi grid needs at least {MIN_PHI_POINTS} points")

    stats = _jz_stats(mom, N_b, b_phase)
    Z, X, var_z, var_x, cov = stats
    na = mom.N_a
    # the largest slope over phi is |b| = hypot(X, Z)
    if math.hypot(X, Z) <= DERIV_FLOOR_REL * (na + N_b):
        raise ConfigError("signal slope vanishes at every phi")
    lam_max = 0.5 * (var_z + var_x) + math.hypot(0.5 * (var_z - var_x), 0.5 * cov)
    if var_z * var_x - 0.25 * cov * cov > JZ_RCOND * lam_max * lam_max:
        phi_opt = math.atan2(0.5 * cov * X + var_z * Z, var_x * X + 0.5 * cov * Z)
    else:  # rank one: A+ b lies along the eigenvector of lam_max
        phi_opt = 0.5 * math.atan2(-cov, var_z - var_x)
    phi_opt %= math.pi
    _, var_opt, deriv_opt = _jz_curves(stats, phi_opt)
    dphi = math.sqrt(max(var_opt, 0.0)) / abs(deriv_opt)

    mean, var, _ = _jz_curves(stats, phi_grid)
    base_na = na if baseline_na is None else float(baseline_na)
    dphi_sn = 1.0 / math.sqrt(base_na + N_b) if base_na + N_b > 0 else math.inf
    return MZResult(
        phi_grid=phi_grid,
        mean_jz=mean,
        var_jz=var,
        delta_phi=float(dphi),
        phi_opt=float(phi_opt),
        delta_phi_sn=dphi_sn,
        improvement=dphi_sn / dphi - 1.0,
        N_a=na,
        N_a_baseline=base_na,
        N_b=N_b,
    )


def squeezed_reference(N_a_match: float, N_b: float, phi_grid=None) -> MZResult:
    """J_z sensitivity with a squeezed vacuum of matched photon number in port a.

    The squeezing angle theta = 0 is optimal at every N_b (module docstring).
    """
    return jz_sensitivity(squeezed_vacuum_moments(N_a_match, 0.0), N_b, phi_grid)


# ---------------------------------------------------------------------------
# quantum bound


def crb(rho_v, N_b: float) -> float:
    """Quantum bound 1/sqrt(F_Q) on the phase sensitivity.

    F_Q is the quantum Fisher information of the state after the first
    splitter for the balanced generator (n_a - n_b)/2, in the closed
    single-mode form of the module docstring.  It is independent of the
    interferometer phase and costs one eigendecomposition of the port-a
    state.
    """
    if N_b < 0:
        raise ConfigError("N_b must be non-negative")
    mat = rho_v.mat if isinstance(rho_v, DensityMatrix) else np.asarray(rho_v, dtype=complex)
    # a+^2 raises the support by two levels; padding keeps a and a+ exact on it
    dim = mat.shape[0] + 2
    mat = pad_fock(mat, dim)
    beta = math.sqrt(N_b)  # real, so beta* = beta and beta^2 = N_b
    a = np.diag(np.sqrt(np.arange(1.0, dim)), k=1)
    ad = a.T
    A = beta * (ad - a) / 2j
    G2 = -(N_b * (ad @ ad + a @ a) - (N_b + 1) * ad @ a - N_b * a @ ad) / 4

    vals, vecs = np.linalg.eigh(mat)
    vals = np.clip(vals, 0.0, None)
    amat = vecs.conj().T @ A @ vecs
    lam_i = vals[:, None]
    lam_j = vals[None, :]
    den = lam_i + lam_j
    mask = den > QFI_EIG_FLOOR
    cross = float(np.sum(np.where(mask, lam_i * lam_j * np.abs(amat) ** 2
                                  / np.where(mask, den, 1.0), 0.0)))
    fq = 4.0 * float(np.trace(mat @ G2).real) - 8.0 * cross
    if fq <= 0:
        raise ConfigError("quantum Fisher information vanished")
    return 1.0 / math.sqrt(fq)
