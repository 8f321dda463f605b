"""Full-state output-grid oracle for `integrator._integrate_segment`.

`propagate` interpolates only the Hermitian coordinates its output grid
reads and evaluates all the grid times of a step in one contraction.  The
oracle takes the same accepted steps, builds the order-7 dense output of the
whole state, and hands each grid time to a scalar ``collect(t, y)`` that
reads the populations and the cavity occupation off the full interpolated
density matrix; a grid time on a step end reads that step's state, as in
`propagate`.  Both
replace their production counterparts through ``monkeypatch``.
"""

import bisect
import math

import numpy as np
from scipy.integrate._ivp import dop853_coefficients as _dop

from cwlsim import integrator
from cwlsim.errors import StepSizeError
from cwlsim.hilbert import hermitian_matrix


def full_interpolant(solver):
    """``interp(t)``: the dense output of the whole state over the last step."""
    t_old, h, y_old, f_old = solver.t_old, solver.h, solver.y_old, solver.f_old
    for s in range(integrator._N + 1, _dop.N_STAGES_EXTENDED):
        solver._stage(s, t_old, y_old, h)
    dy = solver.y - y_old
    F = np.empty((_dop.INTERPOLATOR_POWER, dy.size))
    F[0] = dy
    F[1] = h * f_old - dy
    F[2] = 2 * dy - h * (solver.f + f_old)
    F[3:] = np.einsum("ij,jk->ik", h * integrator._D, solver.K)

    def interp(t):
        x = (t - t_old) / h
        weights = np.cumprod([x, 1 - x] * 3 + [x])
        return y_old + np.einsum("j,jk->k", weights, F)

    return interp


def segment(fun, num, t_start, t_end, y0, sample_times, collect, check_times, check_out,
            counters):
    """`integrator._integrate_segment` with the full-state, per-sample output."""
    idx = 0
    while idx < len(sample_times) and sample_times[idx] <= t_start:
        collect(sample_times[idx], y0)
        idx += 1
    if t_end <= t_start:
        return y0
    solver = integrator._Dop853(fun, t_start, y0, t_end, num.rtol, num.atol)
    n_steps = n_checked = 0
    dim = math.isqrt(y0.size)
    diag_idx = np.arange(dim) * (dim + 1)
    while solver.t < t_end:
        solver.step()
        n_steps += 1
        if solver.t < t_end:
            counters.h_min = min(counters.h_min, solver.h)
        else:
            counters.h_end = min(counters.h_end, solver.h)
        drift = abs(np.sum(solver.y[diag_idx]) - 1.0)
        counters.trace_drift_max = max(counters.trace_drift_max, drift)
        if drift > integrator.TRACE_DRIFT_TOL:
            raise StepSizeError(solver.t, f"trace drifted by {drift:.2e}")
        interp = None
        while idx < len(sample_times) and sample_times[idx] <= solver.t + 1e-15:
            if sample_times[idx] >= solver.t:  # on the step end
                collect(sample_times[idx], solver.y)
            else:
                if interp is None:
                    interp = full_interpolant(solver)
                collect(sample_times[idx], interp(max(sample_times[idx], solver.t_old)))
            idx += 1
        n_due = bisect.bisect_right(check_times, solver.t + 1e-15)
        if n_due > n_checked:
            check_out.append(solver.y)
            n_checked = n_due
    while idx < len(sample_times):
        collect(sample_times[idx], solver.y)
        idx += 1
    counters.n_steps += n_steps
    counters.n_rhs += solver.n_rhs
    counters.n_rejected += solver.n_rejected
    return solver.y


def collector(grid, pops, cav, gen, levels, frame=None, scale=None):
    """Scalar ``collect(t, x)`` on the full Hermitian coordinates ``x``, as
    `integrator._collector` writes; it reads the density matrix they give,
    and with ``scale`` = r the moments r^2 n' and r <b'> off it."""
    d = gen.dim
    pop_diags = [np.real(p.diagonal()) for p in gen.ops["pops"]]
    cav_diag = np.tile(np.arange(d // levels, dtype=float), levels)
    b = gen.ops["b"].tocoo()
    b_at = b.col * d + b.row  # Tr(b rho) = sum b[r, c] rho[c, r]

    def collect(t, x):
        i = min(int(np.searchsorted(grid, t - 1e-15)), len(grid) - 1)
        y = hermitian_matrix(x).reshape(-1)
        diag = np.real(y.reshape(d, d).diagonal())
        for k, pd in enumerate(pop_diags):
            pops[i, k] = float(np.sum(diag * pd))
        if frame is not None:
            beta, r = frame(t), 1.0 if scale is None else scale(t)
            b_mean = r * np.sum(b.data * y[b_at])
            cav[i] = (r * r * float(np.sum(diag * cav_diag)) + 2 * (np.conj(beta) * b_mean).real
                      + abs(beta) ** 2)
    return collect
