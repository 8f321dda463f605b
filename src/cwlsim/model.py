"""Time-dependent generator for the driven emitter chain + capture cavity.

Each emitter has levels G (ground), W (radiating excited) and, when dark-state
decay is enabled (gamma_D > 0), D (non-radiating).  All rates are stored
relative to the collective coupling ``kappa``: ``alpha`` is in units of
sqrt(kappa), ``Gamma`` and ``gamma_D`` in units of kappa.  Bin times are
absolute (kappa sets the time unit, default 1).

The dataclasses `SystemConfig`, `Numerics` and `BinSpec` are the only
configuration schema: their defaults are every entry point's defaults, and
each checks its own fields (kind and finiteness by annotation, then range).

The physics is written once, in `_model_parts` and `_drive`: the Hamiltonian
V0 + Hx + g (Hc + V1), whose drive terms V0 and V1 are the only place alpha
enters, and the dissipative channels, each a jump operator A + g B at a fixed
rate.  Both are linear in the real cavity coupling g(t) of the flat capture
mode, the Liouvillian's only time dependence.  `build_hamiltonian` and
`build_jump_operators` state it in the lab frame, `liouvillian_apply` applies
it in operator form, and `Generator` expands it into L0 + g L1 + g^2 L2 in the
displaced frame of `frame_amplitude`, kept in the real form on the Hermitian
coordinates of `hilbert.hermitian_coords` as one real matrix [R0; R1; R2].
All three share one Lindblad form, d rho/dt = K rho + rho K+ + sum r J rho J+
with K = -i H - sum r J+J / 2: K and the jumps are polynomials in g, so each
Lk is the K pair of Kk plus the jump sandwiches of order k.  Two caches, pure
functions of plain keys, hold it: `_drive_free` the terms no drive touches,
per (physics, cavity dimension), and `_superoperators` the stack, per drive
besides.  The bin enters only through g(t).
"""

from __future__ import annotations

import cmath
import math
import numbers
import operator
from dataclasses import dataclass
from functools import lru_cache, reduce
from types import MappingProxyType
from typing import get_args, get_type_hints

import numpy as np
import scipy.sparse as sp

from .errors import ConfigError
from .hilbert import (annihilation, hermitian_coords, hermitian_matrix, identity, kron,
                      real_form, tensor)

G_MAX_DEFAULT = 1.0e3  # clamp on |g| in units sqrt(kappa)


_KINDS = {bool: (bool, "a boolean"), int: (numbers.Integral, "an integer"),
          float: (numbers.Real, "a finite real number"),
          complex: (numbers.Complex, "a finite complex number"), str: (str, "a string")}


@lru_cache(maxsize=None)
def field_types(cls) -> MappingProxyType:
    """The resolved field annotations of the dataclass ``cls``, read-only."""
    return MappingProxyType(get_type_hints(cls))


def check_fields(obj) -> None:
    """Raise ConfigError unless each bool, number or str field of the dataclass
    ``obj`` holds its annotated kind: numbers finite and never bools, None only
    where the annotation allows it."""
    for name, tp in field_types(type(obj)).items():
        value, allowed = getattr(obj, name), get_args(tp) or (tp,)
        kind = next((k for k in allowed if k in _KINDS), None)
        if kind is None or (value is None and type(None) in allowed):
            continue
        abc, noun = _KINDS[kind]
        ok = isinstance(value, abc) and (kind is bool or not isinstance(value, bool))
        if not ok or (kind in (float, complex) and not cmath.isfinite(value)):
            raise ConfigError(f"'{name}' must be {noun}, got {value!r}")


@dataclass(frozen=True)
class Numerics:
    """Integration controls shared by all propagations."""

    rtol: float = 1e-8
    atol: float = 1e-10
    dim_limit: int = 4096
    output_points: int = 500

    def __post_init__(self):
        check_fields(self)
        if min(self.rtol, self.atol) <= 0:
            raise ConfigError("rtol and atol must be positive")
        if self.dim_limit < 1 or self.output_points < 2:
            raise ConfigError("need dim_limit >= 1 and output_points >= 2")


def _levels(gamma_D: float) -> int:
    """Levels per emitter: G, W, and D where dark-state decay feeds it."""
    return 3 if gamma_D > 0 else 2


@dataclass(frozen=True)
class SystemConfig:
    """Emitter chain and drive; emitters get the dark level D when gamma_D > 0."""

    alpha: complex = 0.9  # drive amplitude, units sqrt(kappa)
    kappa: float = 1.0
    Gamma: float = 0.0  # waveguide loss, units kappa
    gamma_D: float = 0.0  # dark-state transfer, units kappa
    M: int = 1
    cavity_cutoff: int | None = None  # None resolves per bin
    numerics: Numerics = Numerics()

    def __post_init__(self):
        check_fields(self)
        if self.kappa <= 0:
            raise ConfigError("kappa must be positive")
        if self.Gamma < 0 or self.gamma_D < 0:
            raise ConfigError("Gamma and gamma_D must be non-negative")
        if self.M < 0:
            raise ConfigError("emitter count M must be non-negative")
        if self.cavity_cutoff is not None and self.cavity_cutoff < 2:
            raise ConfigError("cavity_cutoff must be at least 2")

    @property
    def levels(self) -> int:
        return _levels(self.gamma_D)

    @property
    def alpha_phys(self) -> complex:
        return complex(self.alpha) * math.sqrt(self.kappa)


@dataclass(frozen=True)
class BinSpec:
    """Flat capture mode v(t) = 1/sqrt(tau) on (t0, t0 + tau]."""

    t0: float = 0.0
    tau: float = 1.0
    g_max: float | None = None  # clamp on |g|, units sqrt(kappa); default 1e3

    def __post_init__(self):
        check_fields(self)
        if self.t0 < 0:
            raise ConfigError("bin start t0 must be non-negative")
        if self.tau <= 0:
            raise ConfigError("bin width tau must be positive")
        if self.g_max is not None and self.g_max <= 0:
            raise ConfigError("g_max must be positive")

    @property
    def t_end(self) -> float:
        return self.t0 + self.tau

    def g_max_phys(self, kappa: float) -> float:
        rel = G_MAX_DEFAULT if self.g_max is None else self.g_max
        return rel * math.sqrt(kappa)


def mode_gv(bin: BinSpec, t: float, kappa: float = 1.0) -> complex:
    """Cavity coupling g(t) = -1/sqrt(t - t0) on (t0, t0 + tau], clamped.

    Zero outside the bin; the magnitude is clamped to ``bin.g_max_phys`` near
    the opening edge where the exact coupling diverges.
    """
    if t < 0:
        raise ConfigError("time must be non-negative")
    if not (bin.t0 < t <= bin.t_end):
        return 0.0 + 0.0j
    g = -1.0 / math.sqrt(t - bin.t0)
    gmax = bin.g_max_phys(kappa)
    if abs(g) > gmax:
        g = -gmax
    return complex(g)


def frame_amplitude(cfg: SystemConfig, bin: BinSpec, t: float) -> complex:
    """Amplitude beta(t) of the displaced frame b = beta + b': the cavity's
    coherent response to the drive, beta' = -g alpha - g^2 beta / 2 from
    beta(t0) = 0 with the clamped g of `mode_gv`.  With s = t - t0 and
    G = g_max it is (2 alpha/G)(1 - e^{-G^2 s/2}) for s <= 1/G^2, beyond that
    alpha (sqrt(s) + (1 - 2 e^{-1/2})/(G^2 sqrt(s))), and constant after the bin."""
    s = min(t, bin.t_end) - bin.t0
    if s <= 0:
        return 0.0 + 0.0j
    al, G = cfg.alpha_phys, bin.g_max_phys(cfg.kappa)
    if s * G * G <= 1.0:
        return complex(2 * al / G * -math.expm1(-G * G * s / 2))
    return complex(al * (math.sqrt(s) + (1 - 2 * math.exp(-0.5)) / (G * G * math.sqrt(s))))


def default_cutoff(x: float, M: int) -> int:
    """Cavity cutoff covering x = tau |alpha|^2 coherent photons plus up to M added ones."""
    c = math.ceil(x + M + 6.0 * math.sqrt(x + M)) + 2
    return max(int(c), 2)


def resolve_cutoff(cfg: SystemConfig, bin: BinSpec) -> int:
    if cfg.cavity_cutoff is not None:
        return cfg.cavity_cutoff
    return default_cutoff(bin.tau * abs(cfg.alpha_phys) ** 2, cfg.M)


# ---------------------------------------------------------------------------
# operator assembly


def _single_emitter_ops(levels: int):
    lower = np.zeros((levels, levels), dtype=complex)
    lower[0, 1] = 1.0  # |G><W|
    proj_w = np.zeros((levels, levels), dtype=complex)
    proj_w[1, 1] = 1.0
    dark = None
    if levels == 3:
        dark = np.zeros((levels, levels), dtype=complex)
        dark[2, 1] = 1.0  # |D><W|
    return lower, proj_w, dark


@lru_cache(maxsize=64)
def chain_operators(M: int, levels: int, cav_dim: int):
    """Sparse operators on the full space (emitters first, cavity last).

    Returns a dict with the collective lowering operator ``S``, the cavity
    ``b``, the per-emitter lowering/dark/population operators and the
    dimension ``dim``.
    """
    if cav_dim < 1:
        raise ConfigError("cavity dimension must be positive")
    lower, proj_w, dark = _single_emitter_ops(levels)
    ident_e = np.eye(levels, dtype=complex)
    a = annihilation(cav_dim - 1)
    ident_c = identity(cav_dim)

    def embed(op_site: np.ndarray, site: int):
        facs = [sp.csr_matrix(ident_e)] * M + [ident_c]
        facs[site] = sp.csr_matrix(op_site)
        return tensor(facs)

    sigmas = [embed(lower, i) for i in range(M)]
    pops = [embed(proj_w, i) for i in range(M)]
    darks = [embed(dark, i) for i in range(M)] if levels == 3 else []
    dim = levels**M * cav_dim
    S = reduce(operator.add, sigmas, sp.csr_matrix((dim, dim), dtype=complex))
    b = tensor([sp.identity(levels**M, dtype=complex, format="csr"), a])
    return {
        "S": S.tocsr(),
        "b": b.tocsr(),
        "sigmas": [s.tocsr() for s in sigmas],
        "darks": [d.tocsr() for d in darks],
        "pops": [p.tocsr() for p in pops],
        "dim": dim,
    }


def _physics(cfg: SystemConfig) -> tuple:
    """(kappa, Gamma, gamma_D, M): the fields the model reads besides alpha."""
    return cfg.kappa, cfg.Gamma, cfg.gamma_D, cfg.M


def _model_parts(physics: tuple, cav_dim: int):
    """The model without its drive, for ``physics`` of `_physics`: ``(Hx, Hc,
    channels, ops)`` with the chiral exchange Hx = -i k/2 sum_{i>j} (s_i+ s_j-
    - s_j+ s_i-) and the capture coupling Hc = (i/2) sqrt(k) (S+ b - b+ S).
    Each channel is ``(rate, A, B)``, jump operator A + g B (``B`` None where g
    does not enter): the collective sqrt(k) S + g b, then waveguide loss per
    emitter and, for three-level emitters, dark-state decay per emitter."""
    kappa, Gamma, gamma_D, M = physics
    ops = chain_operators(M, _levels(gamma_D), cav_dim)
    S, b = ops["S"], ops["b"]
    Sd, bd = S.conj().T.tocsr(), b.conj().T.tocsr()
    sqk = math.sqrt(kappa)
    dim = ops["dim"]

    Hx = sp.csr_matrix((dim, dim), dtype=complex)
    for i in range(M):
        for j in range(i):
            sij = ops["sigmas"][i].conj().T @ ops["sigmas"][j]
            Hx = Hx - 1j * (kappa / 2.0) * (sij - sij.conj().T)
    Hc = (1j / 2.0) * sqk * (Sd @ b - bd @ S)

    channels = [(1.0, (sqk * S).tocsr(), b)]
    channels += [(Gamma * kappa, s, None) for s in ops["sigmas"]]
    channels += [(gamma_D * kappa, d, None) for d in ops["darks"]]
    return Hx.tocsr(), Hc.tocsr(), channels, ops


def _drive(alpha_phys: complex, X, scale: float = 1.0):
    """A drive term i scale (a* X - a X+) of H = V0 + Hx + g (Hc + V1), the only
    place alpha enters: V0 = _drive(a, S, sqrt(k)) on the emitters and
    V1 = _drive(a, b) on the cavity, which the displaced frame removes.  Neither
    shares an entry with Hx, Hc or any A+A, so every sum of them is exact."""
    return (1j * scale * (np.conj(alpha_phys) * X - alpha_phys * X.conj().T)).tocsr()


def _lab_model(cfg: SystemConfig, bin: BinSpec, t: float):
    """``(H, jumps)`` of `build_hamiltonian` and `build_jump_operators`, from one
    `_model_parts` at the output cutoff + 1."""
    cav_dim = resolve_cutoff(cfg, bin) + 1
    check_dim(cfg, cav_dim)
    Hx, Hc, channels, ops = _model_parts(_physics(cfg), cav_dim)
    al = cfg.alpha_phys
    V0, V1 = _drive(al, ops["S"], math.sqrt(cfg.kappa)), _drive(al, ops["b"])
    g = mode_gv(bin, t, cfg.kappa)
    H = (V0 + Hx + g.real * (Hc + V1)).tocsr()
    return H, [(A if B is None else (A + np.conj(g) * B).tocsr(), rate)
               for rate, A, B in channels]


def build_hamiltonian(cfg: SystemConfig, bin: BinSpec, t: float):
    """Full Hamiltonian H(t) = V0 + Hx + g(t) (Hc + V1) as a sparse matrix."""
    return _lab_model(cfg, bin, t)[0]


def build_jump_operators(cfg: SystemConfig, bin: BinSpec, t: float):
    """Jump operators with rates, [(A + g(t)* B, rate)], one per channel.

    Every channel is listed, zero rates included: the collective channel at
    rate 1, then s_i- at Gamma and, for three-level emitters, d_i at gamma_D.
    """
    return _lab_model(cfg, bin, t)[1]


def check_dim(cfg: SystemConfig, cav_dim: int):
    dim = cfg.levels**cfg.M * cav_dim
    if dim > cfg.numerics.dim_limit:
        raise ConfigError(
            f"Hilbert-space dimension {dim} exceeds configured limit "
            f"{cfg.numerics.dim_limit}"
        )


# ---------------------------------------------------------------------------
# superoperator assembly (row-major vec convention)


def _sandwich(X, Y, rate=None):
    """rho -> X rho Y+, times ``rate`` where given."""
    return kron(X, Y.conj(), rate)


def _k_pair(K):
    """rho -> K rho + rho K+, the sandwiches K . 1 and 1 . K."""
    eye = sp.identity(K.shape[0], dtype=complex, format="csr")
    return _sandwich(K, eye) + _sandwich(eye, K)


def _k_of(H, terms):
    """K = -i H - sum r Y+ X / 2 (H None: no Hamiltonian) of the jump
    sandwiches r X . Y+ in ``terms``, each (r, X, Y): the part of a Lindblad
    generator that is not a jump."""
    parts = [(-0.5 * r) * (Y.conj().T @ X) for r, X, Y in terms]
    return reduce(operator.add, parts if H is None else [-1j * H] + parts).tocsr()


def _sandwiches(terms):
    """sum r X . Y+ over the (r, X, Y) of ``terms``."""
    return reduce(operator.add, (_sandwich(X, Y, r) for r, X, Y in terms))


@lru_cache(maxsize=16)
def _drive_free(physics: tuple, cav_dim: int):
    """What every drive of ``physics`` shares: ``(K0, ops, S0, R1, R2)``, the
    drive-free part K0 = -i Hx - sum r A+A / 2 of L0's K, the model parts, L0's
    jump sandwiches S0 = sum r A . A+, and R1, R2 of the displaced frame, where
    no drive enters L1.  Each complex sum is put in real form before the next
    is built."""
    Hx, Hc, channels, ops = _model_parts(physics, cav_dim)
    live = [(rate, A, B) for rate, A, B in channels if rate != 0]
    coupled = [(rate, A, B) for rate, A, B in live if B is not None]
    terms1 = [t for r, A, B in coupled for t in ((r, A, B), (r, B, A))]
    terms2 = [(r, B, B) for r, _, B in coupled]
    R1 = real_form(_k_pair(_k_of(Hc, terms1)) + _sandwiches(terms1))
    R2 = real_form(_k_pair(_k_of(None, terms2)) + _sandwiches(terms2))
    terms0 = [(r, A, A) for r, A, _ in live]
    return _k_of(Hx, terms0), ops, _sandwiches(terms0), R1, R2


@lru_cache(maxsize=16)
def _superoperators(alpha: complex, physics: tuple, cav_dim: int):
    """(L, ops) of `Generator`, L = [R0; R1; R2] the real form of L0, L1, L2
    stacked by rows, for the drive ``alpha`` (units sqrt(kappa)) and
    ``physics`` of `_physics`; cached without the bin, which enters only via
    g(t).  Only L0's K pair is built here, from -i V0 and `_drive_free`'s K0;
    the rest is cached there."""
    K0, ops, S0, R1, R2 = _drive_free(physics, cav_dim)
    V0 = _drive(complex(alpha) * math.sqrt(physics[0]), ops["S"], math.sqrt(physics[0]))
    R0 = real_form(_k_pair(K0 - 1j * V0) + S0)
    return sp.vstack([R0, R1, R2], format="csr"), ops


class Generator:
    """Liouvillian L(t) = L0 + g(t) L1 + g(t)^2 L2 of one bin in the displaced
    frame of `frame_amplitude`, H - g V1 for H; cavity dimension 1 is the emitters.

    With the channels (r, A, B) of `_model_parts`, K = K0 + g K1 + g^2 K2 and
    Lk rho = Kk rho + rho Kk+ + the jump sandwiches of order k:
      K0 = -i (V0 + Hx) - sum r A+A / 2,         L0: sum r A . A+,
      K1 = -i Hc - sum r (A+B + B+A) / 2,        L1: sum r (A . B+ + B . A+),
      K2 = -sum r B+B / 2,                       L2: sum r B . B+.
    Channels at rate zero are skipped.  ``L`` holds the three in real form,
    [R0; R1; R2] stacked by rows, with Rk = T Lk T^-1 on the Hermitian
    coordinates x of `hilbert.hermitian_coords`, so that `rhs` is one real
    mat-vec; ``L0``, ``L1`` and ``L2`` read its blocks.  The stack is shared by
    every bin of the same drive, physics and cavity dimension; `get_generator`
    looks it up, and `vacuum` takes the emitters' own generator from it.
    """

    def __init__(self, cfg: SystemConfig, bin: BinSpec, L, ops):
        self.cfg = cfg
        self.bin = bin
        self.L, self.ops = L, ops
        self.dim = ops["dim"]
        n = self.dim**2
        # [R0; R1], the leading rows of L on L's own arrays, so no block is
        # copied; scipy would copy a head of less than half of L's entries,
        # which only the empty head of M = 0 is
        self._head = sp.csr_matrix((L.data, L.indices, L.indptr[:2 * n + 1]), shape=(2 * n, n),
                                   copy=False)

    def _block(self, k: int):
        n = self.dim**2
        return self.L[k * n:(k + 1) * n]

    L0 = property(lambda self: self._block(0))
    L1 = property(lambda self: self._block(1))
    L2 = property(lambda self: self._block(2))

    def vacuum(self) -> Generator:
        """The emitters' own generator, ``get_generator(cfg, bin, 1)`` bit for
        bit: the rows and columns of the stack on the coordinates where the
        cavity is in vacuum on both sides.

        L0 is the emitters' Liouvillian times the identity on the cavity, and
        L1 and L2 move the cavity out of vacuum, so the block is the emitters'
        L0 with empty L1 and L2.  Each of its entries is the same sum of at
        most two terms, with exact factors of 1 from the cavity, as in the
        assembly at cavity dimension 1, and scipy's row and column selection
        keeps the entries in their stored order, which `rhs` sums in."""
        levels = self.cfg.levels**self.cfg.M
        d = self.dim
        cav = d // levels
        # emitter coordinate (e, f) is coordinate (e cav, f cav) of the stack
        at = (np.arange(levels)[:, None] * (cav * d) + np.arange(levels) * cav).reshape(-1)
        rows = np.concatenate([k * d * d + at for k in range(3)])
        return Generator(self.cfg, self.bin, self.L[rows][:, at],
                         chain_operators(self.cfg.M, self.cfg.levels, 1))

    def g(self, t: float) -> float:
        return mode_gv(self.bin, t, self.cfg.kappa).real

    def rhs(self, x: np.ndarray, g: float = 0.0, g2: float = 0.0) -> np.ndarray:
        """(R0 + g R1 + g2 R2) x on the Hermitian coordinates, from one mat-vec;
        with g2 = 0 it runs on [R0; R1] alone and skips R2's entries."""
        n = x.size
        if g2 == 0:
            u = self._head @ x
            return u[:n] + g * u[n:]
        u = self.L @ x
        return u[:n] + g * u[n:2 * n] + g2 * u[2 * n:]

    def apply_vec(self, t: float, y: np.ndarray) -> np.ndarray:
        """L(t) vec(rho) for the row-major vec of a Hermitian rho."""
        g = self.g(t)
        return hermitian_matrix(self.rhs(hermitian_coords(y), g, g * g)).reshape(-1)


def get_generator(cfg: SystemConfig, bin: BinSpec, cav_dim: int | None = None) -> Generator:
    """The displaced-frame `Generator`, by default at the output cutoff + 1."""
    if cav_dim is None:
        cav_dim = resolve_cutoff(cfg, bin) + 1
    check_dim(cfg, cav_dim)
    return Generator(cfg, bin, *_superoperators(cfg.alpha, _physics(cfg), cav_dim))


def liouvillian_apply(cfg: SystemConfig, bin: BinSpec, t: float, rho: np.ndarray) -> np.ndarray:
    """Right-hand side d(rho)/dt of the lab-frame master equation at time t for
    a Hermitian rho, in operator form from the H and J of `build_hamiltonian`
    and `build_jump_operators`, built from one `_model_parts` per call:
    Y + Y+ with Y = -i H_eff rho + sum r J rho J+ / 2 and
    H_eff = H - (i/2) sum r J+ J.  Sparse times dense products only, no BLAS."""
    arr = rho.mat if hasattr(rho, "mat") else np.asarray(rho, dtype=complex)
    H, jumps = _lab_model(cfg, bin, t)
    if arr.shape != H.shape:
        raise ConfigError(f"state dimension {arr.shape} does not match model dim {H.shape[0]}")
    jumps = [(J, r) for J, r in jumps if r != 0]
    H_eff = reduce(operator.add, ((-0.5j * r) * (J.conj().T @ J) for J, r in jumps), H)
    Y = -1j * (H_eff @ arr)
    for J, r in jumps:
        Y += (0.5 * r) * (J @ (J @ arr).conj().T)  # J (J rho)+ = J rho J+
    return Y + Y.conj().T
