"""Master-equation propagation over [0, t0 + tau].

Adaptive DOP853 stepping (embedded Runge-Kutta, order 8(5,3)) on the d^2
real Hermitian coordinates x of the density matrix (`hilbert.hermitian_coords`),
split exactly at the generator's discontinuities t0, t0 + s_c (below) and
t0 + tau, every segment by rtol/atol alone.  The state is Hermitian by construction, and its error
norm is that of the complex vec(rho): the coordinates are orthonormal and both
of a pair (Re, Im of rho_ij) are scaled by |rho_ij|.

The bin runs in the displaced frame (see `propagate`) as constant pieces that
solve the clamped coupling g(t) of `model.mode_gv` exactly.  With s = t - t0,
G = g_max and s_c = min(1/G^2, tau):

1. the clamp (0, s_c] steps L0 - G L1 + G^2 L2;
2. where s_c < tau, the cavity loss channel of transmissivity eta = s_c/tau,
   exp(ln(1/eta) D[b']), follows in closed form (`_cavity_loss`);
3. the tail (s_c, tau] steps L0 + c L1 with c = -1/sqrt(tau), without L2.

On the cascade moments Y_pq = Tr_c[b'+^p b'^q rho], L2 = D[b'] is the
diagonal -(p+q)/2 and L1 raises p + q by exactly one.  So the state Z of the
tail carries the clamped model's moments as Y_pq(s) = (tau/s)^((p+q)/2) Z_pq(s):
the factor removes g^2 L2 = L2/s and turns g = -1/sqrt(s) into c.  At s_c the
loss step gives Z its moments eta^((p+q)/2) Y_pq, and at s = tau, where rho_v
is read, Z = Y.  Z is the state of a frame of amplitude sqrt(s/tau) beta(s),
beta being `model.frame_amplitude`.

The output grid records the emitter populations, which Z and Y share, and
the lab-frame cavity occupation, which on the tail reads <b'> scaled by
sqrt(tau/s) and n' by tau/s: after each accepted step that passes grid
times, the solver's dense output is built for the entries those two read
alone (the diagonal of rho and, in the bin, the coordinates of <b'>), and
all the step's grid times before its end are evaluated in one contraction
(one on the end reads the state); the full state is never interpolated.
Positivity is checked on accepted step ends: for each of POSITIVITY_SAMPLES
evenly spaced times, the first step end at or after it, one state per step.
Neither the stepper, the sampler, the loss step nor the frame change makes a
BLAS call, so the result is bit-identical at any BLAS thread count.  The
tableau is `_dop853`, SciPy's coefficients bit for bit.
"""

from __future__ import annotations

import bisect
import functools
import math
import time
import dataclasses
from dataclasses import dataclass

import numpy as np

from . import _dop853 as _dop
from .errors import CutoffConvergenceError, StepSizeError
from .hilbert import (DensityMatrix, coord_modulus, displacement_block, hermitian_coords,
                      hermitian_matrix, partial_trace, trace_weights)
from .model import (BinSpec, Generator, Numerics, SystemConfig, check_dim, frame_amplitude,
                    get_generator, resolve_cutoff)

TRACE_DRIFT_TOL = 1e-8
POSITIVITY_SAMPLES = 10
# accepted |population| of the displaced frame's top cavity level per unit atol:
# 1e-12 at the default atol 1e-10, the smallest top population resolved there
TOP_LEVEL_ATOL_FRAC = 1e-2
# largest lab-frame weight rho_v may lose above its output space
OUTPUT_LEAK_TOL = 1e-6

# DOP853 tableau: _N stages per step, row _N is f at the step end, rows
# _N+1.. are the extra stages of the dense output
_N = _dop.N_STAGES
_A, _B, _C, _D = _dop.A, _dop.B, _dop.C, _dop.D
_E = np.stack([_dop.E5, _dop.E3])  # 5th- and 3rd-order error estimators
ERROR_ORDER = 7
ERROR_EXPONENT = -1 / (ERROR_ORDER + 1)
SAFETY, MIN_FACTOR, MAX_FACTOR = 0.9, 0.2, 10.0


@dataclass(frozen=True)
class Diagnostics:
    """Counters of the propagation; step, RHS and wall counters sum every in-bin attempt."""

    cutoff: int  # cavity cutoff of the displaced frame, as grown
    bin_runs: int  # in-bin attempts, one per cutoff tried
    cutoff_check: float  # |population| of the top cavity level at ``cutoff``
    output_leak: float  # lab-frame weight above the output space, dropped from rho_v
    n_steps: int  # accepted steps
    n_rhs: int  # Generator.rhs calls
    n_rhs_pre: int  # of which in the emitter-only segment before t0
    n_rhs_bin: int  # of which in the bin [t0, t0 + tau]
    pre_bin_s: float  # wall time of the segment before t0
    bin_s: float  # wall time of the in-bin segment, the generators of grown cutoffs included
    assemble_s: float  # wall time in get_generator and Generator.vacuum, cached lookups included
    n_rejected: int  # rejected step attempts
    h_min: float  # smallest step the error control chose; a run with none, its smallest step
    trace_drift_max: float
    positivity_min: float  # smallest eigenvalue of the step-end samples, pre-bin and last attempt
    hermiticity_max: float  # of the final state; 0 by construction on Hermitian coordinates


@dataclass
class _Counters:
    n_steps: int = 0
    n_rhs: int = 0
    n_rhs_pre: int = 0
    n_rejected: int = 0
    pre_bin_s: float = 0.0
    bin_s: float = 0.0
    assemble_s: float = 0.0
    h_min: float = math.inf
    h_end: float = math.inf  # smallest segment-ending step, cut to land on the segment's end
    trace_drift_max: float = 0.0


@dataclass(frozen=True)
class Trajectory:
    times: np.ndarray  # uniform output grid over [0, t_end]
    populations: np.ndarray  # (n_times, M) excited-state populations
    cavity_occupation: np.ndarray  # (n_times,) lab-frame <b+ b>
    rho_v: DensityMatrix  # lab-frame cavity state at t0 + tau, Fock levels 0..resolve_cutoff
    rho_bin_start: DensityMatrix  # full state at t0 (cavity in vacuum)
    diagnostics: Diagnostics


def _stage_sum(coef: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """sum_j coef[j] rows[j].

    ``np.einsum`` without ``optimize`` never calls BLAS, so the sum is the same
    bit for bit at any BLAS thread count.
    """
    return np.einsum("j,jk->k", coef, rows)


class _Dop853:
    """Adaptive DOP853 8(5,3) stepper on the Hermitian coordinates of a state.

    Hairer, Norsett & Wanner, *Solving ODEs I*, Sec. II.10, with scipy's
    tableau (`_dop853`), step controller and initial-step rule.  The error scale at each
    coordinate is atol + rtol |rho_ij| (`hilbert.coord_modulus`), so the weighted RMS
    norm is the one scipy takes of the complex vec(rho).  Every stage sum,
    error norm and dense-output combination is an ``np.einsum`` without
    ``optimize``, so no step goes through BLAS.
    """

    def __init__(self, fun, t: float, y: np.ndarray, t_bound: float,
                 rtol: float, atol: float):
        self.fun, self.t, self.y, self.t_bound = fun, t, y, t_bound
        self.rtol, self.atol = rtol, atol
        self.n_rhs = 0
        self.n_rejected = 0
        self.K = np.empty((_dop.N_STAGES_EXTENDED, y.size))
        self.y_mod = coord_modulus(y)
        self.f = self._rhs(t, y)
        self.h_abs = self._initial_step()
        self.t_old = self.y_old = self.f_old = self.h = None

    def _rhs(self, t: float, y: np.ndarray) -> np.ndarray:
        self.n_rhs += 1
        return self.fun(t, y)

    def _rms(self, x: np.ndarray, scale: np.ndarray) -> float:
        xs = x / scale
        return math.sqrt(np.einsum("k,k->", xs, xs) / scale.size)

    def _initial_step(self) -> float:
        """Hairer's starting-step rule for an error estimator of order 7."""
        t, y, f0 = self.t, self.y, self.f
        span = self.t_bound - t
        scale = self.atol + self.y_mod * self.rtol
        d0, d1 = self._rms(y, scale), self._rms(f0, scale)
        h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
        h0 = min(h0, span)
        f1 = self._rhs(t + h0, y + h0 * f0)
        d2 = self._rms(f1 - f0, scale) / h0
        if d1 <= 1e-15 and d2 <= 1e-15:
            h1 = max(1e-6, h0 * 1e-3)
        else:
            h1 = (0.01 / max(d1, d2)) ** (1 / (ERROR_ORDER + 1))
        return min(100 * h0, h1, span)

    def _stage(self, s: int, t: float, y: np.ndarray, h: float) -> None:
        self.K[s] = self._rhs(t + _C[s] * h, y + _stage_sum(h * _A[s, :s], self.K[:s]))

    def _error_norm(self, h: float, mod_new: np.ndarray) -> float:
        scale = self.atol + np.maximum(self.y_mod, mod_new) * self.rtol
        err = np.einsum("ej,jk->ek", _E, self.K[:_N + 1])
        err /= scale
        e5, e3 = np.einsum("ek,ek->e", err, err)
        if e5 == 0 and e3 == 0:
            return 0.0
        return h * e5 / math.sqrt((e5 + 0.01 * e3) * scale.size)

    def _rk_step(self, t: float, y: np.ndarray, f: np.ndarray, h: float) -> np.ndarray:
        """The 8th-order solution at t + h; fills stage rows 0.._N-1."""
        self.K[0] = f
        for s in range(1, _N):
            self._stage(s, t, y, h)
        return y + _stage_sum(h * _B, self.K[:_N])

    def step(self) -> None:
        """Take one accepted step; raise StepSizeError when h underflows."""
        t, y = self.t, self.y
        min_step = 10 * abs(np.nextafter(t, np.inf) - t)
        h_abs = max(self.h_abs, min_step)
        rejected = False
        while True:
            if h_abs < min_step:
                raise StepSizeError(t, f"step size fell below {min_step:.2e} at t={t:.6g}")
            t_new = min(t + h_abs, self.t_bound)
            h = t_new - t
            y_new = self._rk_step(t, y, self.f, h)
            f_new = self._rhs(t_new, y_new)
            self.K[_N] = f_new
            mod_new = coord_modulus(y_new)
            err = self._error_norm(h, mod_new)
            if err < 1:
                break
            h_abs = h * max(MIN_FACTOR, SAFETY * err**ERROR_EXPONENT)
            rejected = True
            self.n_rejected += 1
        factor = MAX_FACTOR if err == 0 else min(MAX_FACTOR, SAFETY * err**ERROR_EXPONENT)
        if rejected:
            factor = min(1.0, factor)
        self.h_abs = h * factor
        self.t_old, self.y_old, self.f_old, self.h = t, y, self.f, h
        self.t, self.y, self.f, self.y_mod = t_new, y_new, f_new, mod_new

    def dense_output(self, keep: np.ndarray):
        """Order-7 interpolant of the entries ``keep`` of y over the last accepted
        step, as ``interp(ts)``: one row of those entries per time in ``ts``.

        The three extra stages are RHS evaluations of the whole state; the
        interpolant is built and evaluated on the kept entries alone.
        """
        t_old, h = self.t_old, self.h
        for s in range(_N + 1, _dop.N_STAGES_EXTENDED):
            self._stage(s, t_old, self.y_old, h)
        y_old, f_old = self.y_old[keep], self.f_old[keep]
        dy = self.y[keep] - y_old
        F = np.empty((_dop.INTERPOLATOR_POWER, dy.size))
        F[0] = dy
        F[1] = h * f_old - dy
        F[2] = 2 * dy - h * (self.f[keep] + f_old)
        F[3:] = np.einsum("ij,jk->ik", h * _D, self.K.take(keep, axis=1))

        def interp(ts: np.ndarray) -> np.ndarray:
            x = (ts - t_old) / h
            # x, x(1-x), x^2(1-x), ..., x^4(1-x)^3: scipy's nested product
            weights = np.cumprod(np.stack([x, 1 - x] * 3 + [x], axis=1), axis=1)
            return y_old + np.einsum("sj,jk->sk", weights, F)

        return interp


def _integrate_segment(fun, num: Numerics, t_start: float, t_end: float, y0: np.ndarray,
                       sample_times: np.ndarray, sampler,
                       check_times: list[float], check_out: list,
                       counters: _Counters) -> np.ndarray:
    """Step ``fun`` from t_start to t_end, sampling ``sample_times`` via dense output.

    ``sampler`` is `_collector`'s ``(keep, collect)``: each step that passes
    sample times hands them, in order, to ``collect`` with the interpolated
    entries ``keep`` of y, one row per time.  Sample times on a step end (to
    1e-15) read that step's y without a dense output, those at or before
    t_start read y0, and any left after the last step read y_end.  For
    positivity sampling, the first accepted step end at or after each of the
    ``check_times`` is appended to ``check_out``, once per step.
    Step, RHS and drift counts are added to ``counters``.  Returns y_end.
    """
    keep, collect = sampler

    def collect_state(ts, y):
        if len(ts):
            collect(ts, np.broadcast_to(y[keep], (len(ts), keep.size)))

    idx = int(np.count_nonzero(sample_times <= t_start))
    collect_state(sample_times[:idx], y0)
    if t_end <= t_start:
        return y0
    solver = _Dop853(fun, t_start, y0, t_end, num.rtol, num.atol)
    n_steps = 0
    n_checked = 0
    dim = math.isqrt(y0.size)
    diag_idx = np.arange(dim) * (dim + 1)  # diagonal of rho
    while solver.t < t_end:
        solver.step()
        n_steps += 1
        # the last step is cut to land on t_end: its length is not the error control's
        if solver.t < t_end:
            counters.h_min = min(counters.h_min, solver.h)
        else:
            counters.h_end = min(counters.h_end, solver.h)
        drift = abs(np.sum(solver.y[diag_idx]) - 1.0)
        counters.trace_drift_max = max(counters.trace_drift_max, drift)
        if drift > TRACE_DRIFT_TOL:
            raise StepSizeError(
                solver.t, f"trace drifted by {drift:.2e} at t={solver.t:.6g}"
            )
        n_due = int(np.searchsorted(sample_times, solver.t + 1e-15, side="right"))
        n_inside = int(np.searchsorted(sample_times, solver.t))  # the rest land on solver.t
        if n_inside > idx:
            ts = sample_times[idx:n_inside]
            collect(ts, solver.dense_output(keep)(np.maximum(ts, solver.t_old)))
        collect_state(sample_times[max(idx, n_inside):n_due], solver.y)
        idx = n_due
        n_due = bisect.bisect_right(check_times, solver.t + 1e-15)
        if n_due > n_checked:
            check_out.append(solver.y)
            n_checked = n_due
    collect_state(sample_times[idx:], solver.y)  # samples landing exactly on t_end
    counters.n_steps += n_steps
    counters.n_rhs += solver.n_rhs
    counters.n_rejected += solver.n_rejected
    return solver.y


def _cavity_loss(x: np.ndarray, levels: int, eta: float) -> np.ndarray:
    """exp(ln(1/eta) D[b]) on the Hermitian coordinates ``x`` of an emitter (x)
    cavity state with ``levels`` emitter levels: the cavity loss channel of
    transmissivity eta, which scales every moment <b+^p b^q> by eta^((p+q)/2).

    Its Kraus form gives rho'_{(e,m),(f,n)} = sum_k w_k[m] w_k[n]
    rho_{(e,m+k),(f,n+k)} with w_k[m]^2 = C(m+k, k) eta^m (1 - eta)^k, each at
    most 1.  The weights are real and the shift keeps the order of every index
    pair, so the coordinates transform as rho does.  Elementwise, no BLAS.
    """
    cav = math.isqrt(x.size) // levels
    X = x.reshape(levels, cav, levels, cav)
    out = np.zeros_like(X)
    w = eta ** (np.arange(cav) / 2)
    for k in range(cav):
        if k:
            w = w[:-1] * np.sqrt(np.arange(k, cav) / k * (1 - eta))
        out[:, :cav - k, :, :cav - k] += (w[:, None] * w)[:, None, :] * X[:, k:, :, k:]
    return out.reshape(-1)


def _collector(grid: np.ndarray, pops: np.ndarray, cav: np.ndarray, gen: Generator,
               levels: int, frame=None, scale=None):
    """``(keep, collect)`` for `_integrate_segment`: the Hermitian coordinates
    the output grid reads, and ``collect(ts, yk)``, which writes the emitter
    populations at the grid points of the times ``ts`` into ``pops`` from the
    rows ``yk`` of those coordinates.  Given the frame amplitude ``frame(t)``
    it also puts the lab-frame cavity occupation n' + 2 Re(beta* <b'>) + |beta|^2
    into ``cav``, from the in-frame <b'+ b'> and <b'>; ``scale(ts)`` = r, where
    given, reads them off a state whose moments are r^-(p+q) times the
    occupation's, as r^2 n' and r <b'>.  Every contraction is an ``np.einsum``
    without ``optimize``, so none calls BLAS."""
    d = gen.dim
    pop_diags = np.real([p.diagonal() for p in gen.ops["pops"]]).reshape(-1, d)
    cav_diag = np.tile(np.arange(d // levels, dtype=float), levels)
    keep = np.arange(d) * (d + 1)  # diagonal of rho
    if frame is not None:
        b_idx, b_weights = trace_weights(gen.ops["b"])
        keep = np.concatenate([keep, b_idx])

    def collect(ts, yk):
        i = np.minimum(np.searchsorted(grid, ts - 1e-15), len(grid) - 1)
        diag = yk[:, :d]
        pops[i] = np.einsum("sd,kd->sk", diag, pop_diags)
        if frame is not None:
            beta = np.array([frame(t) for t in ts])
            b_mean = np.einsum("sk,k->s", yk[:, d:], b_weights)
            n_in = np.einsum("sd,d->s", diag, cav_diag)
            if scale is not None:
                r = scale(ts)
                b_mean, n_in = r * b_mean, r * r * n_in
            cav[i] = n_in + 2 * (np.conj(beta) * b_mean).real + np.abs(beta) ** 2
    return keep, collect


def propagate(cfg: SystemConfig, bin: BinSpec, *, verify_cutoff: bool = False) -> Trajectory:
    """Propagate the master equation; the captured mode state is ``rho_v``.

    The initial state is all emitters in G with the cavity in vacuum.  While
    the bin is closed the cavity is exactly decoupled and stays in vacuum, so
    the segment before t0 runs on the emitters alone, on the cavity-vacuum
    block of the bin's first generator (`model.Generator.vacuum`), which is
    the emitters' generator bit for bit: a run assembles one generator, not
    two.  Cold, on a 2-core box, METRO_CRB's run spends 7.3 ms in assembly
    against 18 ms for both, parity M=3's 36 against 54 ms
    (``BENCH_oneasm.json``).  The bin runs in the
    displaced frame b = beta(t) + b' of `model.frame_amplitude`, where the
    cavity holds only the few photons the emitters add to the coherent
    background, in the constant pieces of the module docstring.  Its cavity
    cutoff starts at 2M + 7 and doubles, rerunning only the bin, until the
    top level holds at most TOP_LEVEL_ATOL_FRAC * atol;
    past ``dim_limit`` that raises CutoffConvergenceError.  ``rho_v`` is the
    lab-frame state D(beta) rho' D(beta)+ on the Fock levels up to
    `resolve_cutoff`, renormalized to unit trace; dropping more than
    OUTPUT_LEAK_TOL above them raises CutoffConvergenceError too.  The
    output-grid cavity occupation is the lab one.

    ``verify_cutoff`` is accepted and ignored: every run checks its cutoff as
    above.  It stays for callers written against the former cutoff+4 rerun.
    """
    num = cfg.numerics
    out_dim = resolve_cutoff(cfg, bin) + 1
    check_dim(cfg, out_dim)
    levels = cfg.levels**cfg.M
    grid = np.linspace(0.0, bin.t_end, num.output_points)
    pops = np.zeros((len(grid), cfg.M))
    cav = np.zeros(len(grid))
    check_times = np.linspace(0.0, bin.t_end, POSITIVITY_SAMPLES + 1)[1:]
    counters = _Counters()

    top_tol = TOP_LEVEL_ATOL_FRAC * num.atol
    cut_max = num.dim_limit // levels - 1
    cut = min(2 * cfg.M + 7, cut_max)
    t_wall = time.perf_counter()
    gen = get_generator(cfg, bin, cut + 1)
    gen_e = gen.vacuum()
    counters.assemble_s += time.perf_counter() - t_wall
    y = np.zeros(levels * levels)
    y[0] = 1.0  # all emitters in G
    pre_checks: list[np.ndarray] = []
    t_wall = time.perf_counter()
    y = _integrate_segment(
        lambda t, x: gen_e.rhs(x), num, 0.0, bin.t0, y, grid[grid <= bin.t0],
        _collector(grid, pops, cav, gen_e, levels),
        [t for t in check_times if t <= bin.t0], pre_checks, counters,
    )
    counters.pre_bin_s = time.perf_counter() - t_wall
    counters.n_rhs_pre = counters.n_rhs
    rho_e = hermitian_matrix(y)

    frame = functools.partial(frame_amplitude, cfg, bin)
    G = bin.g_max_phys(cfg.kappa)
    s_c = min(1.0 / (G * G), bin.tau)  # the clamp's end, bin time
    t_c = bin.t0 + s_c if s_c < bin.tau else bin.t_end
    c = -1.0 / math.sqrt(bin.tau)  # the tail's coupling

    def gain(ts):  # sqrt(tau/s): from the tail state's moments to the clamped model's
        return np.sqrt(bin.tau / (ts - bin.t0))

    bin_runs = 0
    t_wall = time.perf_counter()
    while True:
        vac = np.zeros((cut + 1, cut + 1), dtype=complex)
        vac[0, 0] = 1.0
        y = hermitian_coords(np.kron(rho_e, vac))
        bin_checks: list[np.ndarray] = []
        pieces = [(bin.t0, t_c, (-G, G * G), None)]  # (start, end, (g, g^2), scale)
        if t_c < bin.t_end:
            pieces.append((t_c, bin.t_end, (c,), gain))
        for t_a, t_b, g, scale in pieces:
            if t_a == t_c:  # the tail starts after the loss step
                y = _cavity_loss(y, levels, s_c / bin.tau)
            y = _integrate_segment(
                lambda t, x: gen.rhs(x, *g), num, t_a, t_b, y,
                grid[(grid > t_a) & (grid <= t_b)],
                _collector(grid, pops, cav, gen, levels, frame, scale),
                [t for t in check_times if t_a < t <= t_b], bin_checks, counters,
            )
        bin_runs += 1
        p = y[:: gen.dim + 1].reshape(levels, cut + 1).sum(axis=0)
        if abs(p[-1]) <= top_tol:
            break
        if cut >= cut_max:
            raise CutoffConvergenceError(
                f"top cavity level holds {p[-1]:.2e} (tolerance {top_tol:.0e}) "
                f"at cutoff {cut}, the largest dim_limit {num.dim_limit} allows"
            )
        cut = min(2 * cut, cut_max)
        t_gen = time.perf_counter()
        gen = get_generator(cfg, bin, cut + 1)
        counters.assemble_s += time.perf_counter() - t_gen
    counters.bin_s = time.perf_counter() - t_wall

    # numpy's eigvalsh, as in DensityMatrix: in forked sweep workers at two
    # BLAS threads, scipy's eigh stalled for ~50 ms a call on these states
    eig_min = [float(np.min(np.linalg.eigvalsh(hermitian_matrix(ys))))
               for ys in pre_checks + bin_checks]
    pos_min = min([0.0] + eig_min)

    rho_end = hermitian_matrix(y)
    herm_max = float(np.max(np.abs(rho_end - rho_end.conj().T)))
    dims = tuple([cfg.levels] * cfg.M + [cut + 1])
    # the last check time is t_end, so the last bin sample is the end state
    end_min = eig_min[-1] if bin_checks[-1] is y else None
    rho_d = partial_trace(DensityMatrix(rho_end, dims, positivity_tol=1e-7, min_eig=end_min),
                          cfg.M).mat
    D = displacement_block(frame(bin.t_end), out_dim, cut + 1)
    lab = np.einsum("mj,jk,nk->mn", D, rho_d, D.conj())
    lab = (lab + lab.conj().T) / 2
    kept = float(np.real(np.trace(lab)))
    leak = 1.0 - kept
    if leak > OUTPUT_LEAK_TOL:
        raise CutoffConvergenceError(f"{leak:.2e} of rho_v lies above the output cutoff "
                                     f"{out_dim - 1} (tolerance {OUTPUT_LEAK_TOL:.0e}); "
                                     "raise cavity_cutoff")
    lab /= kept

    vac = np.zeros((out_dim, out_dim), dtype=complex)
    vac[0, 0] = 1.0
    rho_t0 = np.kron(rho_e, vac)
    # the spectrum of rho_e (x) |0><0| is rho_e's and zeros: solve the small factor
    t0_min = min(float(np.min(np.linalg.eigvalsh(rho_e))), 0.0)
    counts = dataclasses.asdict(counters)
    h_end = counts.pop("h_end")
    if counts["h_min"] == math.inf:  # every step ended a segment
        counts["h_min"] = h_end
    diag = Diagnostics(cutoff=cut, bin_runs=bin_runs, cutoff_check=float(abs(p[-1])),
                       output_leak=leak, n_rhs_bin=counters.n_rhs - counters.n_rhs_pre, positivity_min=pos_min,
                       hermiticity_max=herm_max, **counts)
    return Trajectory(
        times=grid,
        populations=pops,
        cavity_occupation=cav,
        rho_v=DensityMatrix(lab, positivity_tol=1e-7),
        rho_bin_start=DensityMatrix(rho_t0, tuple([cfg.levels] * cfg.M + [out_dim]),
                                    positivity_tol=1e-7, min_eig=t0_min),
        diagnostics=diag,
    )
