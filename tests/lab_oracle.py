"""Lab-frame oracle for `propagate`.

`propagate` runs the bin in the displaced frame.  The oracle runs the plain
lab-frame generator, cavity drive included, with scipy's ``solve_ivp``
(DOP853, rtol 1e-11) at the output cutoff plus 8, so that its own truncation
and step errors sit well below the tolerances it checks.  It also opens the
bin at g(t0) = 0 and lets the step controller find the opening by itself.
"""

from functools import lru_cache

import numpy as np
from scipy.integrate import solve_ivp

from cwlsim.hilbert import DensityMatrix, displacement_operator, pad_fock, partial_trace
from cwlsim.model import get_generator, resolve_cutoff

PAD = 8
TIGHT = {"method": "DOP853", "rtol": 1e-11, "atol": 1e-13}


@lru_cache(maxsize=None)
def lab_reference(cfg, b):
    """The lab-frame cavity state at t0 + tau on `propagate`'s output space,
    renormalized as `propagate` does, and the populations (n_times, M) and
    cavity occupation at ``times``, the points of `propagate`'s output grid
    inside the bin; returns (rho_v, times, populations, occupation)."""
    times = np.linspace(0.0, b.t_end, cfg.numerics.output_points)
    times = times[times > b.t0]
    gen_pre = get_generator(cfg, b, 1)
    y0 = np.zeros(gen_pre.dim**2, dtype=complex)
    y0[0] = 1.0
    rho_e = solve_ivp(gen_pre.apply_vec, (0.0, b.t0), y0, **TIGHT).y[:, -1]
    out_dim = resolve_cutoff(cfg, b) + 1
    cav_dim = out_dim + PAD
    vac = np.zeros((cav_dim, cav_dim), dtype=complex)
    vac[0, 0] = 1.0
    y_t0 = np.kron(rho_e.reshape(gen_pre.dim, gen_pre.dim), vac).reshape(-1)
    gen = get_generator(cfg, b, cav_dim)
    t_eval = np.union1d(times, [b.t_end])
    sol = solve_ivp(gen.apply_vec, (b.t0, b.t_end), y_t0, t_eval=t_eval, **TIGHT)
    diags = np.real(sol.y.reshape(gen.dim, gen.dim, -1).diagonal(axis1=0, axis2=1))
    diags = diags[np.searchsorted(t_eval, times)]
    pops = diags @ np.real([p.diagonal() for p in gen.ops["pops"]]).reshape(-1, gen.dim).T
    b_op = gen.ops["b"]
    cav = diags @ np.real((b_op.conj().T @ b_op).diagonal())
    dims = tuple([cfg.levels] * cfg.M + [cav_dim])
    rho_end = sol.y[:, -1].reshape(gen.dim, gen.dim)
    full = DensityMatrix((rho_end + rho_end.conj().T) / 2, dims, positivity_tol=1e-7)
    rho_v = partial_trace(full, cfg.M).mat[:out_dim, :out_dim]
    return rho_v / np.trace(rho_v).real, times, pops, cav


def undisplace(rho, beta, pad=40):
    """D(-beta) rho D(-beta)+, with rho padded by ``pad`` Fock levels so that
    the truncated matrix exponential is exact on rho's own levels."""
    dim = rho.shape[0]
    d = displacement_operator(-beta, dim + pad - 1)
    return (d @ pad_fock(rho, dim + pad) @ d.conj().T)[:dim, :dim]
