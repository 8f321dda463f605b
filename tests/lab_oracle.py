"""Lab-frame oracle for `propagate`.

`propagate` steps the real superoperator stack of `model.Generator`: the
emitters alone before the bin, then the displaced frame.  The oracle shares
none of that.  It steps the lab-frame master equation in the operator form of
`model.liouvillian_apply`, d(rho)/dt = Y + Y+, with scipy's ``solve_ivp``
(DOP853, rtol 1e-11) on the complex vec(rho).  The Hamiltonian
V0 + Hx + g (Hc + V1) and the jump operators A + g B come from
`model._model_parts` and `model._drive`, taken as polynomials in g and built
once.  One cavity dimension, the output cutoff plus 8, serves both segments,
so that its own truncation and step errors sit well below the tolerances it
checks: before t0, where g = 0, the cavity is exactly decoupled and stays in
vacuum.  It also opens the bin at g(t0) = 0 and lets the step controller find
the opening by itself.

`displacement_operator` is the other form of D(beta): the matrix exponential
of the generator truncated to a finite Fock space, independent of the
Laguerre elements of `hilbert.displacement_block`.  It is exact on the low
levels of a space padded far past them, and off in the top rows and columns.
"""

import math
from functools import lru_cache

import numpy as np
import scipy.sparse as sp
from scipy.integrate import solve_ivp
from scipy.linalg import expm

from cwlsim.hilbert import DensityMatrix, annihilation, pad_fock, partial_trace
from cwlsim.model import _drive, _model_parts, _physics, mode_gv, resolve_cutoff

PAD = 8
TIGHT = {"method": "DOP853", "rtol": 1e-11, "atol": 1e-13}


def _affine(*Ks):
    """g -> K0 + g K1 + g^2 K2 + ... for sparse Ks, on their joint pattern.  Each
    call overwrites the entries of one matrix and returns it, which saves a
    third of a small RHS against building a new one."""
    P = sp.csr_matrix(sum(abs(K) for K in Ks), dtype=complex)
    rows = np.repeat(np.arange(P.shape[0]), np.diff(P.indptr))
    coef = [np.asarray(K[rows, P.indices]).ravel() for K in Ks]

    def at(g):
        P.data[:] = sum(g**k * c for k, c in enumerate(coef))
        return P

    return at


@lru_cache(maxsize=None)
def lab_reference(cfg, b):
    """The lab-frame cavity state at t0 + tau on `propagate`'s output space,
    renormalized as `propagate` does, and the populations (n_times, M) and
    cavity occupation at ``times``, the points of `propagate`'s output grid
    inside the bin; returns (rho_v, times, populations, occupation)."""
    times = np.linspace(0.0, b.t_end, cfg.numerics.output_points)
    times = times[times > b.t0]
    out_dim = resolve_cutoff(cfg, b) + 1
    cav_dim = out_dim + PAD
    Hx, Hc, channels, ops = _model_parts(_physics(cfg), cav_dim)
    al = cfg.alpha_phys
    V0, V1 = _drive(al, ops["S"], math.sqrt(cfg.kappa)), _drive(al, ops["b"])
    dim = ops["dim"]
    # With J = A + g B and g real, H_eff = H - (i/2) sum r J+ J = E0 + g E1 + g^2 E2;
    # each J carries sqrt(r/2), so that Y + Y+ below holds r J rho J+ once
    E = [V0 + Hx, Hc + V1, sp.csr_matrix((dim, dim), dtype=complex)]
    jumps = []
    for r, A, B in (c for c in channels if c[0] != 0):
        Ks = [A] if B is None else [A, B]
        for i, K in enumerate(Ks):
            for j, L in enumerate(Ks):
                E[i + j] = E[i + j] - 0.5j * r * (K.conj().T @ L)
        jumps.append(_affine(*(math.sqrt(r / 2) * K for K in Ks)))
    H_eff = _affine(*E)

    def rhs(t, y):
        # Y + Y+ with Y = -i H_eff rho + sum r J rho J+ / 2
        g = mode_gv(b, t, cfg.kappa).real
        rho = y.reshape(dim, dim)
        Y = -1j * (H_eff(g) @ rho)
        for J in (J_of(g) for J_of in jumps):
            Y += J @ (J @ rho).conj().T  # J (J rho)+ = J rho J+
        return (Y + Y.conj().T).reshape(-1)

    y0 = np.zeros(dim * dim, dtype=complex)
    y0[0] = 1.0
    y_t0 = solve_ivp(rhs, (0.0, b.t0), y0, **TIGHT).y[:, -1]
    t_eval = np.union1d(times, [b.t_end])
    sol = solve_ivp(rhs, (b.t0, b.t_end), y_t0, t_eval=t_eval, **TIGHT)
    diags = np.real(sol.y.reshape(dim, dim, -1).diagonal(axis1=0, axis2=1))
    diags = diags[np.searchsorted(t_eval, times)]
    pops = diags @ np.real([p.diagonal() for p in ops["pops"]]).reshape(-1, dim).T
    cav = diags @ np.real((ops["b"].conj().T @ ops["b"]).diagonal())
    dims = tuple([cfg.levels] * cfg.M + [cav_dim])
    rho_end = sol.y[:, -1].reshape(dim, dim)
    full = DensityMatrix((rho_end + rho_end.conj().T) / 2, dims, positivity_tol=1e-7)
    rho_v = partial_trace(full, cfg.M).mat[:out_dim, :out_dim]
    return rho_v / np.trace(rho_v).real, times, pops, cav


def undisplace(rho, beta, pad=40):
    """D(-beta) rho D(-beta)+, with rho padded by ``pad`` Fock levels so that
    the truncated matrix exponential is exact on rho's own levels."""
    dim = rho.shape[0]
    d = displacement_operator(-beta, dim + pad - 1)
    return (d @ pad_fock(rho, dim + pad) @ d.conj().T)[:dim, :dim]


def displacement_operator(beta, cutoff):
    """exp(beta a+ - beta* a) of the generator truncated to Fock levels 0..cutoff."""
    a = annihilation(cutoff).toarray()
    return expm(beta * a.conj().T - np.conj(beta) * a)
