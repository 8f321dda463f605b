"""Time-dependent generator for the driven emitter chain + capture cavity.

Each emitter has levels G (ground), W (radiating excited) and, when dark-state
decay is enabled (gamma_D > 0), D (non-radiating).  All rates are stored
relative to the collective coupling ``kappa``: ``alpha`` is in units of
sqrt(kappa), ``Gamma`` and ``gamma_D`` in units of kappa.  Bin times are
absolute (kappa sets the time unit, default 1).

The dataclasses `SystemConfig`, `Numerics` and `BinSpec` are the only
configuration schema: their defaults are every entry point's defaults, and
each checks its own fields (kind and finiteness by annotation, then range).

The physics is written once, in `_model_parts`: the Hamiltonian H0 + g H1 and
the list of dissipative channels, each a jump operator A + g B at a fixed
rate.  Both are linear in the real cavity coupling g(t) of the flat capture
mode, which is the Liouvillian's only time dependence.  `build_hamiltonian`,
`build_jump_operators` and `Generator` all derive from that one source; the
generator expands it into the superoperator polynomial L0 + g L1 + g^2 L2,
cached per (physics, cavity dimension, frame): only g(t) reads the bin.
"""

from __future__ import annotations

import cmath
import dataclasses
import math
import numbers
import operator
from dataclasses import dataclass
from functools import lru_cache, reduce
from typing import get_args, get_type_hints

import numpy as np
import scipy.sparse as sp

from .errors import ConfigError
from .hilbert import annihilation, identity, tensor

G_MAX_DEFAULT = 1.0e3  # clamp on |g| in units sqrt(kappa)


_KINDS = {bool: (bool, "a boolean"), int: (numbers.Integral, "an integer"),
          float: (numbers.Real, "a finite real number"),
          complex: (numbers.Complex, "a finite complex number"), str: (str, "a string")}


def check_fields(obj) -> None:
    """Raise ConfigError unless each bool, number or str field of the dataclass
    ``obj`` holds its annotated kind: numbers finite and never bools, None only
    where the annotation allows it."""
    for name, tp in get_type_hints(type(obj)).items():
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
        return 3 if self.gamma_D > 0 else 2

    @property
    def alpha_phys(self) -> complex:
        return complex(self.alpha) * math.sqrt(self.kappa)

    @property
    def Gamma_phys(self) -> float:
        return self.Gamma * self.kappa

    @property
    def gamma_D_phys(self) -> float:
        return self.gamma_D * self.kappa


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
        return tensor(facs) if M > 0 else ident_c.copy()

    sigmas = [embed(lower, i) for i in range(M)]
    pops = [embed(proj_w, i) for i in range(M)]
    darks = [embed(dark, i) for i in range(M)] if levels == 3 else []
    dim = levels**M * cav_dim
    if M > 0:
        S = reduce(operator.add, sigmas)
        b = tensor([sp.csr_matrix(sp.identity(levels**M, dtype=complex)), a])
    else:
        S = sp.csr_matrix((dim, dim), dtype=complex)
        b = a.copy()
    return {
        "S": S.tocsr(),
        "b": b.tocsr(),
        "sigmas": [s.tocsr() for s in sigmas],
        "darks": [d.tocsr() for d in darks],
        "pops": [p.tocsr() for p in pops],
        "dim": dim,
    }


def _model_parts(cfg: SystemConfig, cav_dim: int, displaced: bool):
    """The model, written once: H(t) = H0 + g H1 and the dissipative channels.

      H0 = i sqrt(k) (a* S - a S+) + chiral exchange between emitters,
      H1 = i (a* b - a b+) + (i/2) sqrt(k) (S+ b - b+ S).
    In the displaced frame the cavity drive term of H1 is dropped.

    Each channel is ``(rate, A, B)`` with jump operator A + g B; ``B`` is None
    for channels that do not depend on g.  The collective channel
    sqrt(k) S + g b comes first, then one waveguide-loss channel per emitter
    and, for three-level emitters, one dark-state channel per emitter.
    """
    ops = chain_operators(cfg.M, cfg.levels, cav_dim)
    S, b = ops["S"], ops["b"]
    Sd, bd = S.conj().T.tocsr(), b.conj().T.tocsr()
    sqk = math.sqrt(cfg.kappa)
    al = cfg.alpha_phys
    dim = ops["dim"]

    H0 = sp.csr_matrix((dim, dim), dtype=complex)
    if cfg.M > 0:
        H0 = H0 + 1j * sqk * (np.conj(al) * S - al * Sd)
        # cascaded exchange: - i k/2 sum_{i>j} (s_i+ s_j- - s_j+ s_i-)
        for i in range(cfg.M):
            for j in range(i):
                sij = ops["sigmas"][i].conj().T @ ops["sigmas"][j]
                H0 = H0 - 1j * (cfg.kappa / 2.0) * (sij - sij.conj().T)

    H1 = (1j / 2.0) * sqk * (Sd @ b - bd @ S)
    if not displaced:
        H1 = H1 + 1j * (np.conj(al) * b - al * bd)

    channels = [(1.0, (sqk * S).tocsr(), b)]
    channels += [(cfg.Gamma_phys, s, None) for s in ops["sigmas"]]
    channels += [(cfg.gamma_D_phys, d, None) for d in ops["darks"]]
    return H0.tocsr(), H1.tocsr(), channels, ops


def build_hamiltonian(cfg: SystemConfig, bin: BinSpec, t: float):
    """Full Hamiltonian H(t) = H0 + g(t) H1 as a sparse matrix."""
    cav_dim = resolve_cutoff(cfg, bin) + 1
    check_dim(cfg, cav_dim)
    H0, H1, _, _ = _model_parts(cfg, cav_dim, displaced=False)
    g = mode_gv(bin, t, cfg.kappa).real
    return (H0 + g * H1).tocsr()


def build_jump_operators(cfg: SystemConfig, bin: BinSpec, t: float):
    """Jump operators with rates, [(A + g(t)* B, rate)], one per channel.

    Every channel is listed, zero rates included: the collective channel at
    rate 1, then s_i- at Gamma and, for three-level emitters, d_i at gamma_D.
    """
    cav_dim = resolve_cutoff(cfg, bin) + 1
    check_dim(cfg, cav_dim)
    _, _, channels, _ = _model_parts(cfg, cav_dim, displaced=False)
    g = mode_gv(bin, t, cfg.kappa)
    return [(A if B is None else (A + np.conj(g) * B).tocsr(), rate)
            for rate, A, B in channels]


def check_dim(cfg: SystemConfig, cav_dim: int):
    dim = cfg.levels**cfg.M * cav_dim
    if dim > cfg.numerics.dim_limit:
        raise ConfigError(
            f"Hilbert-space dimension {dim} exceeds configured limit "
            f"{cfg.numerics.dim_limit}"
        )


# ---------------------------------------------------------------------------
# superoperator assembly (row-major vec convention)


def _left(A):
    n = A.shape[0]
    return sp.kron(A, sp.identity(n, dtype=complex, format="csr"), format="csr")


def _right(A):
    n = A.shape[0]
    return sp.kron(sp.identity(n, dtype=complex, format="csr"), A.T, format="csr")


def _dissipator_super(A):
    """D[A] rho = A rho A+ - {A+ A, rho}/2."""
    AdA = (A.conj().T @ A).tocsr()
    return (sp.kron(A, A.conj(), format="csr") - 0.5 * (_left(AdA) + _right(AdA))).tocsr()


def _cross_super(A, B):
    """Term linear in g of D[A + g B]: A rho B+ + B rho A+ - {A+ B + B+ A, rho}/2."""
    C = (A.conj().T.tocsr() @ B + B.conj().T.tocsr() @ A).tocsr()
    return (
        sp.kron(A, B.conj(), format="csr")
        + sp.kron(B, A.conj(), format="csr")
        - 0.5 * (_left(C) + _right(C))
    ).tocsr()


def _commutator_super(H):
    return (-1j * (_left(H) - _right(H))).tocsr()


@lru_cache(maxsize=16)
def _superoperators(cfg: SystemConfig, cav_dim: int, displaced: bool):
    """(L0, L1, L2, ops) of `Generator`; cached without the bin, which enters only via g(t)."""
    H0, H1, channels, ops = _model_parts(cfg, cav_dim, displaced)
    # terms are summed as they are built, so only one is held at a time
    live = [(rate, A, B) for rate, A, B in channels if rate != 0]
    coupled = [(rate, A, B) for rate, A, B in live if B is not None]
    L0 = reduce(operator.add, (r * _dissipator_super(A) for r, A, _ in live),
                _commutator_super(H0)).tocsr()
    L1 = reduce(operator.add, (r * _cross_super(A, B) for r, A, B in coupled),
                _commutator_super(H1)).tocsr()
    L2 = reduce(operator.add, (r * _dissipator_super(B) for r, _, B in coupled)).tocsr()
    return L0, L1, L2, ops


class Generator:
    """Liouvillian L(t) = L0 + g(t) L1 + g(t)^2 L2 of one bin, acting on vec(rho).

    Expanding sum_r r D[A + g B] over the channels of `_model_parts`:
      L0 = -i[H0, .] + sum r D[A],
      L1 = -i[H1, .] + sum r (A . B+ + B . A+ - {A+ B + B+ A, .}/2),
      L2 = sum r D[B].
    Channels at rate zero are skipped.  The superoperators are shared by
    every bin of the same config, cavity dimension and frame.
    """

    def __init__(self, cfg: SystemConfig, bin: BinSpec, cav_dim: int, displaced: bool):
        self.cfg = cfg
        self.bin = bin
        check_dim(cfg, cav_dim)
        physics = dataclasses.replace(cfg, numerics=Numerics(), cavity_cutoff=None)  # cache key
        self.L0, self.L1, self.L2, self.ops = _superoperators(physics, cav_dim, displaced)
        self.dim = self.ops["dim"]

    def g(self, t: float) -> float:
        return mode_gv(self.bin, t, self.cfg.kappa).real

    def apply_vec(self, t: float, y: np.ndarray) -> np.ndarray:
        g = self.g(t)
        out = self.L0 @ y
        if g != 0.0:
            out = out + g * (self.L1 @ y) + (g * g) * (self.L2 @ y)
        return out


def get_generator(cfg: SystemConfig, bin: BinSpec, cav_dim: int | None = None,
                  displaced: bool = False) -> Generator:
    if cav_dim is None:
        cav_dim = resolve_cutoff(cfg, bin) + 1
    return Generator(cfg, bin, cav_dim, displaced)


def liouvillian_apply(cfg: SystemConfig, bin: BinSpec, t: float, rho: np.ndarray) -> np.ndarray:
    """Right-hand side d(rho)/dt of the master equation at time t."""
    arr = rho.mat if hasattr(rho, "mat") else np.asarray(rho, dtype=complex)
    gen = get_generator(cfg, bin)
    if arr.shape != (gen.dim, gen.dim):
        raise ConfigError(
            f"state dimension {arr.shape} does not match generator dim {gen.dim}"
        )
    return gen.apply_vec(t, arr.reshape(-1)).reshape(arr.shape)
