"""Master-equation propagation over [0, t0 + tau].

Adaptive DOP853 stepping (embedded Runge-Kutta, order 8(5,3)) on the
vectorized density matrix, split exactly at the generator discontinuities t0
and t0 + tau, both segments by rtol/atol alone.  The bin runs in the
displaced frame (see `propagate`) and opens at the coupling's right limit:
at t0 itself the generator is evaluated just after t0, where g = -g_max, so
the first stage and the starting-step rule see the open bin instead of the
closed-bin g(t0) = 0.  The output grid records the emitter populations and
the lab-frame cavity occupation: after each accepted step that passes grid
times, the solver's dense output is built for the entries those two read
alone (the diagonal of vec(rho) and, in the bin, the entries of <b'>), and
all the step's grid times before its end are evaluated in one contraction
(one on the end reads the state); the full state is never interpolated.
Positivity is checked on accepted step ends: for each of POSITIVITY_SAMPLES
evenly spaced times, the first step end at or after it, one state per step.
Neither the stepper, the sampler nor the frame change makes a BLAS call, so
the result is bit-identical at any BLAS thread count.
"""

from __future__ import annotations

import bisect
import functools
import math
import time
import dataclasses
from dataclasses import dataclass

import numpy as np
from scipy.integrate._ivp import dop853_coefficients as _dop

from .errors import CutoffConvergenceError, StepSizeError
from .hilbert import DensityMatrix, displacement_block, partial_trace
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
    n_rhs: int  # Generator.apply_vec calls
    n_rhs_pre: int  # of which in the emitter-only segment before t0
    n_rhs_bin: int  # of which in the bin [t0, t0 + tau]
    pre_bin_s: float  # wall time of the segment before t0
    bin_s: float  # wall time of the in-bin segment
    n_rejected: int  # rejected step attempts
    h_min: float  # smallest accepted step, steps cut short at a segment end excepted
    trace_drift_max: float
    positivity_min: float  # smallest eigenvalue of the step-end samples, pre-bin and last attempt
    hermiticity_max: float


@dataclass
class _Counters:
    n_steps: int = 0
    n_rhs: int = 0
    n_rhs_pre: int = 0
    n_rejected: int = 0
    pre_bin_s: float = 0.0
    bin_s: float = 0.0
    h_min: float = math.inf
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
    """sum_j coef[j] rows[j] with a real ``coef``, on float64 views.

    ``np.einsum`` without ``optimize`` never calls BLAS, so the sum is the same
    bit for bit at any BLAS thread count.
    """
    return np.einsum("j,jk->k", coef, rows)


class _Dop853:
    """Adaptive DOP853 8(5,3) stepper on a complex state vector.

    Hairer, Norsett & Wanner, *Solving ODEs I*, Sec. II.10, with scipy's
    tableau, step controller and initial-step rule.  Every stage sum, error
    norm and dense-output combination runs on the float64 view of the stage
    array (the coefficients are real), so no step goes through BLAS.
    """

    def __init__(self, fun, t: float, y: np.ndarray, t_bound: float,
                 rtol: float, atol: float):
        self.fun, self.t, self.y, self.t_bound = fun, t, y, t_bound
        self.rtol, self.atol = rtol, atol
        self.n_rhs = 0
        self.n_rejected = 0
        self.K = np.empty((_dop.N_STAGES_EXTENDED, y.size), dtype=complex)
        self.Kf = self.K.view(np.float64)
        self.f = self._rhs(t, y)
        self.h_abs = self._initial_step()
        self.t_old = self.y_old = self.f_old = self.h = None

    def _rhs(self, t: float, y: np.ndarray) -> np.ndarray:
        self.n_rhs += 1
        return self.fun(t, y)

    def _rms(self, x: np.ndarray, scale: np.ndarray) -> float:
        xs = x.view(np.float64).reshape(-1, 2) / scale[:, None]
        return math.sqrt(np.einsum("ij,ij->", xs, xs) / scale.size)

    def _initial_step(self) -> float:
        """Hairer's starting-step rule for an error estimator of order 7."""
        t, y, f0 = self.t, self.y, self.f
        span = self.t_bound - t
        scale = self.atol + np.abs(y) * self.rtol
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

    def _stage(self, s: int, t: float, yf: np.ndarray, h: float) -> None:
        ys = yf + _stage_sum(h * _A[s, :s], self.Kf[:s])
        self.K[s] = self._rhs(t + _C[s] * h, ys.view(complex))

    def _error_norm(self, h: float, y_new: np.ndarray) -> float:
        scale = self.atol + np.maximum(np.abs(self.y), np.abs(y_new)) * self.rtol
        err = np.einsum("ej,jk->ek", _E, self.Kf[:_N + 1]).reshape(2, -1, 2)
        err /= scale[:, None]
        e5, e3 = np.einsum("eki,eki->e", err, err)
        if e5 == 0 and e3 == 0:
            return 0.0
        return h * e5 / math.sqrt((e5 + 0.01 * e3) * scale.size)

    def _rk_step(self, t: float, y: np.ndarray, f: np.ndarray, h: float) -> np.ndarray:
        """The 8th-order solution at t + h; fills stage rows 0.._N-1."""
        yf = y.view(np.float64)
        self.K[0] = f
        for s in range(1, _N):
            self._stage(s, t, yf, h)
        return (yf + _stage_sum(h * _B, self.Kf[:_N])).view(complex)

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
            err = self._error_norm(h, y_new)
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
        self.t, self.y, self.f = t_new, y_new, f_new

    def dense_output(self, keep: np.ndarray):
        """Order-7 interpolant of the entries ``keep`` of y over the last accepted
        step, as ``interp(ts)``: one row of those entries per time in ``ts``.

        The three extra stages are RHS evaluations of the whole state; the
        interpolant is built and evaluated on the kept entries alone.
        """
        t_old, h = self.t_old, self.h
        for s in range(_N + 1, _dop.N_STAGES_EXTENDED):
            self._stage(s, t_old, self.y_old.view(np.float64), h)
        y_old = self.y_old[keep].view(np.float64)
        f_old = self.f_old[keep].view(np.float64)
        dy = self.y[keep].view(np.float64) - y_old
        F = np.empty((_dop.INTERPOLATOR_POWER, dy.size))
        F[0] = dy
        F[1] = h * f_old - dy
        F[2] = 2 * dy - h * (self.f[keep].view(np.float64) + f_old)
        F[3:] = np.einsum("ij,jk->ik", h * _D, self.K.take(keep, axis=1).view(np.float64))

        def interp(ts: np.ndarray) -> np.ndarray:
            x = (ts - t_old) / h
            # x, x(1-x), x^2(1-x), ..., x^4(1-x)^3: scipy's nested product
            weights = np.cumprod(np.stack([x, 1 - x] * 3 + [x], axis=1), axis=1)
            return (y_old + np.einsum("sj,jk->sk", weights, F)).view(complex)

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
    diag_idx = np.arange(dim) * (dim + 1)  # diagonal of vec(rho)
    while solver.t < t_end:
        solver.step()
        n_steps += 1
        # the last step is cut short to land on t_end: it says nothing of h
        if solver.t < t_end or n_steps == 1:
            counters.h_min = min(counters.h_min, solver.h)
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


def _opened_at(gen: Generator, t0: float):
    """The in-bin RHS, taking g's right limit at the opening t0 itself.

    ``mode_gv`` excludes t0 from the bin, so g(t0) = 0.  Seen from there, the
    first stage and the starting-step rule size the first step for a closed
    bin, and the controller then rejects it about twenty times.
    """
    t_open = float(np.nextafter(t0, np.inf))
    return lambda t, y: gen.apply_vec(max(t, t_open), y)


def _collector(grid: np.ndarray, pops: np.ndarray, cav: np.ndarray, gen: Generator,
               levels: int, frame=None):
    """``(keep, collect)`` for `_integrate_segment`: the entries of vec(rho)
    the output grid reads, and ``collect(ts, yk)``, which writes the emitter
    populations at the grid points of the times ``ts`` into ``pops`` from the
    rows ``yk`` of those entries.  Given the frame amplitude ``frame(t)`` it
    also puts the lab-frame cavity occupation n' + 2 Re(beta* <b'>) + |beta|^2
    into ``cav``, from the in-frame <b'+ b'> and <b'>.  Every contraction is an
    ``np.einsum`` without ``optimize``, so none calls BLAS."""
    d = gen.dim
    pop_diags = np.real([p.diagonal() for p in gen.ops["pops"]]).reshape(-1, d)
    cav_diag = np.tile(np.arange(d // levels, dtype=float), levels)
    keep = np.arange(d) * (d + 1)  # diagonal of vec(rho)
    if frame is not None:
        b = gen.ops["b"].tocoo()
        keep = np.concatenate([keep, b.col * d + b.row])  # Tr(b rho) = sum b[r, c] rho[c, r]

    def collect(ts, yk):
        i = np.minimum(np.searchsorted(grid, ts - 1e-15), len(grid) - 1)
        diag = yk[:, :d].real
        pops[i] = np.einsum("sd,kd->sk", diag, pop_diags)
        if frame is not None:
            beta = np.array([frame(t) for t in ts])
            b_mean = np.einsum("sk,k->s", yk[:, d:], b.data)
            cav[i] = (np.einsum("sd,d->s", diag, cav_diag)
                      + 2 * (np.conj(beta) * b_mean).real + np.abs(beta) ** 2)
    return keep, collect


def propagate(cfg: SystemConfig, bin: BinSpec, *, verify_cutoff: bool = False) -> Trajectory:
    """Propagate the master equation; the captured mode state is ``rho_v``.

    The initial state is all emitters in G with the cavity in vacuum.  While
    the bin is closed the cavity is exactly decoupled and stays in vacuum, so
    the segment before t0 runs on the emitters alone.  The bin runs in the
    displaced frame b = beta(t) + b' of `model.frame_amplitude`, where the
    cavity holds only the few photons the emitters add to the coherent
    background.  Its cavity cutoff starts at 2M + 7 and doubles, rerunning
    only the bin, until the top level holds at most TOP_LEVEL_ATOL_FRAC * atol;
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

    gen_e = get_generator(cfg, bin, 1)
    y = np.zeros(levels * levels, dtype=complex)
    y[0] = 1.0
    pre_checks: list[np.ndarray] = []
    t_wall = time.perf_counter()
    y = _integrate_segment(
        gen_e.apply_vec, num, 0.0, bin.t0, y, grid[grid <= bin.t0],
        _collector(grid, pops, cav, gen_e, levels),
        [t for t in check_times if t <= bin.t0], pre_checks, counters,
    )
    counters.pre_bin_s = time.perf_counter() - t_wall
    counters.n_rhs_pre = counters.n_rhs
    rho_e = y.reshape(levels, levels)

    frame = functools.partial(frame_amplitude, cfg, bin)
    top_tol = TOP_LEVEL_ATOL_FRAC * num.atol
    cut_max = num.dim_limit // levels - 1
    cut = min(2 * cfg.M + 7, cut_max)
    bin_runs = 0
    t_wall = time.perf_counter()
    while True:
        gen = get_generator(cfg, bin, cut + 1, displaced=True)
        vac = np.zeros((cut + 1, cut + 1), dtype=complex)
        vac[0, 0] = 1.0
        bin_checks: list[np.ndarray] = []
        y = _integrate_segment(
            _opened_at(gen, bin.t0), num, bin.t0, bin.t_end, np.kron(rho_e, vac).reshape(-1),
            grid[grid > bin.t0], _collector(grid, pops, cav, gen, levels, frame),
            [t for t in check_times if t > bin.t0], bin_checks, counters,
        )
        bin_runs += 1
        p = np.real(y[:: gen.dim + 1]).reshape(levels, cut + 1).sum(axis=0)
        if abs(p[-1]) <= top_tol:
            break
        if cut >= cut_max:
            raise CutoffConvergenceError(
                f"top cavity level holds {p[-1]:.2e} (tolerance {top_tol:.0e}) "
                f"at cutoff {cut}, the largest dim_limit {num.dim_limit} allows"
            )
        cut = min(2 * cut, cut_max)
    counters.bin_s = time.perf_counter() - t_wall

    rho_end = y.reshape(gen.dim, gen.dim)
    herm_max = float(np.max(np.abs(rho_end - rho_end.conj().T)))
    rho_end = (rho_end + rho_end.conj().T) / 2
    dims = tuple([cfg.levels] * cfg.M + [cut + 1])
    rho_d = partial_trace(DensityMatrix(rho_end, dims, positivity_tol=1e-7), cfg.M).mat
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

    # numpy's eigvalsh, as in DensityMatrix: in forked sweep workers at two
    # BLAS threads, scipy's eigh stalled for ~50 ms a call on these states
    pos_min = 0.0
    for ys in pre_checks + bin_checks:
        d = int(round(math.sqrt(ys.size)))
        m = ys.reshape(d, d)
        pos_min = min(pos_min, float(np.min(np.linalg.eigvalsh((m + m.conj().T) / 2))))

    vac = np.zeros((out_dim, out_dim), dtype=complex)
    vac[0, 0] = 1.0
    rho_t0 = np.kron(rho_e, vac)
    diag = Diagnostics(cutoff=cut, bin_runs=bin_runs, cutoff_check=float(abs(p[-1])),
                       output_leak=leak, n_rhs_bin=counters.n_rhs - counters.n_rhs_pre, positivity_min=pos_min,
                       hermiticity_max=herm_max, **dataclasses.asdict(counters))
    return Trajectory(
        times=grid,
        populations=pops,
        cavity_occupation=cav,
        rho_v=DensityMatrix(lab, positivity_tol=1e-7),
        rho_bin_start=DensityMatrix(
            (rho_t0 + rho_t0.conj().T) / 2, tuple([cfg.levels] * cfg.M + [out_dim]),
            positivity_tol=1e-7,
        ),
        diagnostics=diag,
    )
