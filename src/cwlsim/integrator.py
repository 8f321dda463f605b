"""Master-equation propagation over [0, t0 + tau].

Adaptive DOP853 stepping (embedded Runge-Kutta, order 8(5,3)) on the
vectorized density matrix, split exactly at the generator discontinuities t0
and t0 + tau.  Both segments step by rtol/atol alone, with no step cap.  The
in-bin segment [t0, t0 + tau] opens at the coupling's right limit: at t0
itself the generator is evaluated just after t0, where g = -g_max, so the
first stage and the starting-step rule see the open bin instead of the
closed-bin g(t0) = 0.  Emitter populations are sampled on a uniform output
grid from the solver's dense output; the full state is never stored along
the way.  The stepper makes no BLAS call, so the result is bit-identical at
any BLAS thread count.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np
from scipy.integrate._ivp import dop853_coefficients as _dop
from scipy.linalg import eigh

from .errors import CutoffConvergenceError, StepSizeError
from .hilbert import DensityMatrix, partial_trace
from .model import BinSpec, Generator, Numerics, SystemConfig, get_generator, resolve_cutoff

TRACE_DRIFT_TOL = 1e-8
POSITIVITY_SAMPLES = 10
CUTOFF_CHECK_STEP = 4
CUTOFF_CHECK_TOL = 1e-6

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
    """Counters of the propagation (the ``verify_cutoff`` rerun excluded)."""

    cutoff: int
    n_steps: int  # accepted steps
    n_rhs: int  # Generator.apply_vec calls
    n_rhs_pre: int  # of which in the emitter-only segment before t0
    n_rhs_bin: int  # of which in the bin [t0, t0 + tau]
    pre_bin_s: float  # wall time of the segment before t0
    bin_s: float  # wall time of the in-bin segment
    n_rejected: int  # rejected step attempts
    h_min: float  # smallest accepted step, steps cut short at a segment end excepted
    trace_drift_max: float
    positivity_min: float
    hermiticity_max: float
    cutoff_check: float | None = None  # trace distance to the cutoff+4 run


@dataclass
class _Counters:
    n_steps: int = 0
    n_rhs: int = 0
    n_rhs_pre: int = 0
    n_rejected: int = 0
    pre_bin_s: float = 0.0
    bin_s: float = 0.0
    h_min: float = math.inf
    drift_max: float = 0.0


@dataclass(frozen=True)
class Trajectory:
    times: np.ndarray  # uniform output grid over [0, t_end]
    populations: np.ndarray  # (n_times, M) excited-state populations
    cavity_occupation: np.ndarray  # (n_times,)
    rho_final: DensityMatrix  # full state at t0 + tau
    rho_v: DensityMatrix  # cavity reduction at t0 + tau
    rho_bin_start: DensityMatrix  # full state at t0
    diagnostics: Diagnostics
    frame_displacement: complex = 0.0  # nonzero only for displaced-frame runs


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

    def state_at(self, t: float) -> np.ndarray:
        """The state at ``t`` in the last accepted step, by one RK step from its start.

        Unlike the dense output this carries the step's own error bound: on
        steps whose length is set by stability rather than accuracy, as in a
        settled emitter chain, the interpolant can be off by 1e-7 mid-step
        while a direct step stays within 1e-10.  Overwrites the stages, so
        ``dense_output`` must come first when both are needed for this step.
        """
        if t >= self.t:
            return self.y
        return self._rk_step(self.t_old, self.y_old, self.f_old, t - self.t_old)

    def dense_output(self):
        """Order-7 interpolant over the last accepted step, as ``interp(t)``."""
        t_old, h, Kf = self.t_old, self.h, self.Kf
        yf_old = self.y_old.view(np.float64)
        for s in range(_N + 1, _dop.N_STAGES_EXTENDED):
            self._stage(s, t_old, yf_old, h)
        f_old = self.f_old.view(np.float64)
        dy = self.y.view(np.float64) - yf_old
        F = np.empty((_dop.INTERPOLATOR_POWER, dy.size))
        F[0] = dy
        F[1] = h * f_old - dy
        F[2] = 2 * dy - h * (self.f.view(np.float64) + f_old)
        F[3:] = np.einsum("ij,jk->ik", h * _D, Kf)

        def interp(t: float) -> np.ndarray:
            x = (t - t_old) / h
            # x, x(1-x), x^2(1-x), ..., x^4(1-x)^3: scipy's nested product
            weights = np.cumprod([x, 1 - x] * 3 + [x])
            return (yf_old + _stage_sum(weights, F)).view(complex)

        return interp


def _integrate_segment(fun, num: Numerics, t_start: float, t_end: float, y0: np.ndarray,
                       sample_times: np.ndarray, collect,
                       check_times: list[float], check_out: list, dim: int,
                       counters: _Counters) -> np.ndarray:
    """Step ``fun`` from t_start to t_end, sampling ``sample_times`` via dense output.

    ``collect(t, y)`` is called for every sample time in order; states at
    ``check_times``, each from a direct step (``_Dop853.state_at``), are
    appended to ``check_out`` for positivity sampling.
    Step, RHS and drift counts are added to ``counters``.  Returns y_end.
    """
    if t_end <= t_start:
        return y0
    solver = _Dop853(fun, t_start, y0, t_end, num.rtol, num.atol)
    idx = 0
    n_samples = len(sample_times)
    n_steps = 0
    check_iter = iter(check_times)
    next_check = next(check_iter, None)
    diag_idx = np.arange(dim) * (dim + 1)  # diagonal of vec(rho)
    while solver.t < t_end:
        solver.step()
        n_steps += 1
        # the last step is cut short to land on t_end: it says nothing of h
        if solver.t < t_end or n_steps == 1:
            counters.h_min = min(counters.h_min, solver.h)
        drift = abs(np.sum(solver.y[diag_idx]) - 1.0)
        counters.drift_max = max(counters.drift_max, drift)
        if drift > TRACE_DRIFT_TOL:
            raise StepSizeError(
                solver.t, f"trace drifted by {drift:.2e} at t={solver.t:.6g}"
            )
        interp = None
        while idx < n_samples and sample_times[idx] <= solver.t + 1e-15:
            if interp is None:
                interp = solver.dense_output()
            ts = min(max(sample_times[idx], solver.t_old), solver.t)
            collect(sample_times[idx], interp(ts))
            idx += 1
        while next_check is not None and next_check <= solver.t + 1e-15:
            check_out.append(solver.state_at(next_check))
            next_check = next(check_iter, None)
    while idx < n_samples:  # samples landing exactly on t_end
        collect(sample_times[idx], solver.y)
        idx += 1
    while next_check is not None:
        check_out.append(solver.y)
        next_check = next(check_iter, None)
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


def _run(cfg: SystemConfig, bin: BinSpec, cav_dim: int, displaced: bool):
    gen = get_generator(cfg, bin, cav_dim, displaced)
    dim = gen.dim
    num = cfg.numerics
    t_end = bin.t_end
    grid = np.linspace(0.0, t_end, num.output_points)

    pops = np.zeros((len(grid), cfg.M))
    cav = np.zeros(len(grid))

    def make_collect(d: int, pop_diags, cav_diag):
        def collect(t, y):
            i = int(np.searchsorted(grid, t - 1e-15))
            i = min(i, len(grid) - 1)
            diag = np.real(y.reshape(d, d).diagonal())
            for k, pd in enumerate(pop_diags):
                pops[i, k] = float(diag @ pd)
            if cav_diag is not None:
                cav[i] = float(diag @ cav_diag)
        return collect

    ops = gen.ops
    pop_diags = [np.real(p.diagonal()) for p in ops["pops"]]
    nvec = np.arange(cav_dim, dtype=float)
    cav_diag = np.tile(nvec, cfg.levels**cfg.M) if cfg.M > 0 else nvec
    collect = make_collect(dim, pop_diags, cav_diag)

    check_times = list(np.linspace(0.0, t_end, POSITIVITY_SAMPLES + 1)[1:])
    check_states: list[np.ndarray] = []

    counters = _Counters()

    if bin.t0 > 0:
        # While the bin is closed the cavity is exactly decoupled and stays in
        # vacuum, so the pre-bin segment runs on the emitters alone.
        gen_pre = get_generator(cfg, bin, 1, displaced)
        dim_pre = gen_pre.dim
        pre_pop_diags = [np.real(p.diagonal()) for p in gen_pre.ops["pops"]]
        collect_pre = make_collect(dim_pre, pre_pop_diags, None)
        y_pre = np.zeros(dim_pre * dim_pre, dtype=complex)
        y_pre[0] = 1.0
        collect_pre(0.0, y_pre)
        seg_samples = grid[(grid > 0.0) & (grid <= bin.t0)]
        pre_checks = [t for t in check_times if t <= bin.t0]
        t_wall = time.perf_counter()
        y_pre = _integrate_segment(
            gen_pre.apply_vec, num, 0.0, bin.t0, y_pre, seg_samples, collect_pre,
            pre_checks, check_states, dim_pre, counters,
        )
        counters.pre_bin_s = time.perf_counter() - t_wall
        counters.n_rhs_pre = counters.n_rhs
        rho_e = y_pre.reshape(dim_pre, dim_pre)
        vac = np.zeros((cav_dim, cav_dim), dtype=complex)
        vac[0, 0] = 1.0
        y = np.kron(rho_e, vac).reshape(-1)
    else:
        y = np.zeros(dim * dim, dtype=complex)
        y[0] = 1.0  # all emitters in G, cavity vacuum
        collect(0.0, y)
    rho_t0 = y.reshape(dim, dim).copy()

    seg_samples = grid[grid > bin.t0]
    bin_checks = [t for t in check_times if t > bin.t0]
    t_wall = time.perf_counter()
    y = _integrate_segment(
        _opened_at(gen, bin.t0), num, bin.t0, t_end, y, seg_samples, collect,
        bin_checks, check_states, dim, counters,
    )
    counters.bin_s = time.perf_counter() - t_wall

    rho_end = y.reshape(dim, dim)
    herm_max = float(np.max(np.abs(rho_end - rho_end.conj().T)))
    rho_end = (rho_end + rho_end.conj().T) / 2

    pos_min = 0.0
    for ys in check_states:
        d = int(round(math.sqrt(ys.size)))
        m = ys.reshape(d, d)
        m = (m + m.conj().T) / 2
        pos_min = min(pos_min, float(np.min(eigh(m, eigvals_only=True))))

    return rho_t0, rho_end, pops, cav, grid, counters, herm_max, pos_min


def _propagate_impl(cfg: SystemConfig, bin: BinSpec, displaced: bool,
                    verify_cutoff: bool) -> Trajectory:
    cutoff = resolve_cutoff(cfg, bin)
    cav_dim = cutoff + 1
    (rho_t0, rho_end, pops, cav, grid, counters, herm_max,
     pos_min) = _run(cfg, bin, cav_dim, displaced)

    cutoff_check = None
    if verify_cutoff:
        _, rho_end_big, *_ = _run(cfg, bin, cav_dim + CUTOFF_CHECK_STEP, displaced)
        dims_big = tuple([cfg.levels] * cfg.M + [cav_dim + CUTOFF_CHECK_STEP])
        rv_big = partial_trace(
            DensityMatrix(rho_end_big, dims_big, positivity_tol=1e-6), cfg.M
        ).mat[:cav_dim, :cav_dim]
        dims = tuple([cfg.levels] * cfg.M + [cav_dim])
        rv_small = partial_trace(
            DensityMatrix(rho_end, dims, positivity_tol=1e-6), cfg.M
        ).mat
        diff = rv_big - rv_small
        ev = eigh((diff + diff.conj().T) / 2, eigvals_only=True)
        cutoff_check = float(0.5 * np.sum(np.abs(ev)))
        if cutoff_check > CUTOFF_CHECK_TOL:
            raise CutoffConvergenceError(
                f"cavity reduction changed by {cutoff_check:.3e} under cutoff "
                f"increase (tolerance {CUTOFF_CHECK_TOL:.1e})"
            )

    dims = tuple([cfg.levels] * cfg.M + [cav_dim])
    rho_final = DensityMatrix(rho_end, dims, positivity_tol=1e-7)
    rho_v = partial_trace(rho_final, cfg.M)  # cavity is the last subsystem
    rho_start = DensityMatrix(
        (rho_t0 + rho_t0.conj().T) / 2, dims, positivity_tol=1e-7
    )
    diag = Diagnostics(
        cutoff=cutoff,
        n_steps=counters.n_steps,
        n_rhs=counters.n_rhs,
        n_rhs_pre=counters.n_rhs_pre,
        n_rhs_bin=counters.n_rhs - counters.n_rhs_pre,
        pre_bin_s=counters.pre_bin_s,
        bin_s=counters.bin_s,
        n_rejected=counters.n_rejected,
        h_min=float(counters.h_min),
        trace_drift_max=counters.drift_max,
        positivity_min=pos_min,
        hermiticity_max=herm_max,
        cutoff_check=cutoff_check,
    )
    frame = 0.0 + 0.0j
    if displaced:
        frame = cfg.alpha_phys * math.sqrt(bin.tau)
    return Trajectory(
        times=grid,
        populations=pops,
        cavity_occupation=cav,
        rho_final=rho_final,
        rho_v=rho_v,
        rho_bin_start=rho_start,
        diagnostics=diag,
        frame_displacement=frame,
    )


def propagate(cfg: SystemConfig, bin: BinSpec, *, verify_cutoff: bool = False) -> Trajectory:
    """Propagate the master equation; the captured mode state is ``rho_v``.

    The initial state is all emitters in G with the cavity in vacuum.  With
    ``verify_cutoff`` the propagation is repeated at cutoff+4 and the cavity
    reduction must agree to trace distance 1e-6.
    """
    return _propagate_impl(cfg, bin, displaced=False, verify_cutoff=verify_cutoff)


def propagate_displaced(cfg: SystemConfig, bin: BinSpec, *,
                        verify_cutoff: bool = False) -> Trajectory:
    """Propagate in the frame with the coherent background factored out.

    The drive acts only on the emitters and the cavity is undriven; the
    returned ``rho_v`` is the non-displaced cavity state.  Displacing it by
    ``frame_displacement`` (= sqrt(tau) alpha at the bin end) reproduces the
    direct propagation's cavity state.
    """
    return _propagate_impl(cfg, bin, displaced=True, verify_cutoff=verify_cutoff)
