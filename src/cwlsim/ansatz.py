"""Three-component fit of the captured state by displaced few-photon states.

After undoing the coherent displacement sqrt(tau) alpha (D+ rho D, with D the
exact block of `hilbert.displacement_block` on the state's own Fock levels),
the captured state is approximated by a rank-3 mixture whose components live
in the span of the lowest Fock levels.  The component weights are the largest
eigenvalues of the undisplaced state and the coefficient rows come from
projecting the corresponding eigenvectors, re-orthonormalized in
descending-eigenvalue order.  Each component is displaced back by the same
block and normalized, so the mixture has unit trace.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._blas import single_thread
from .errors import ConfigError
from .hilbert import DensityMatrix, displacement_block, fidelity, state_overlap

SPAN_LEVELS = 3  # |0>, |1>, |2>
N_COMPONENTS = 3


@dataclass(frozen=True)
class AnsatzFit:
    weights: np.ndarray  # descending, sum <= 1 + eps
    coefficients: np.ndarray  # (3, span) rows orthonormal, dominant entry real > 0
    fidelity: float  # Uhlmann fidelity of the normalized mixture with rho_v
    overlap: float  # plain Tr[rho sigma] overlap, for reference
    displacement: complex  # sqrt(tau) alpha used to undo the coherent part


def _fix_row_phase(row: np.ndarray) -> np.ndarray:
    idx = int(np.argmax(np.abs(row)))
    ph = row[idx]
    if abs(ph) < 1e-15:
        return row
    return row * (np.conj(ph) / abs(ph))


@single_thread
def fit_displaced_mixture(rho_v, alpha: complex, tau: float, kappa: float = 1.0,
                          span: int = SPAN_LEVELS) -> AnsatzFit:
    """Fit rho_v by a displaced rank-3 mixture on the lowest ``span`` levels.

    ``alpha`` is in units of sqrt(kappa).  Enlarging ``span`` can only improve
    the fit; the default matches the displaced two-photon form.
    """
    mat = rho_v.mat if isinstance(rho_v, DensityMatrix) else np.asarray(rho_v, dtype=complex)
    dim = mat.shape[0]
    if span > dim:
        raise ConfigError(f"span {span} exceeds state dimension {dim}")
    beta = complex(alpha) * math.sqrt(kappa) * math.sqrt(tau)
    D = displacement_block(beta, dim, dim)
    tilde = D.conj().T @ mat @ D
    tilde = (tilde + tilde.conj().T) / 2

    vals, vecs = np.linalg.eigh(tilde)
    order = np.argsort(vals)[::-1]
    top = order[:N_COMPONENTS]
    weights = np.clip(vals[top], 0.0, None)

    rows = []
    for k in top:
        v = vecs[:, k][:span].copy()
        for prev in rows:
            v -= prev * (prev.conj() @ v)
        nrm = np.linalg.norm(v)
        if nrm < 1e-12:
            # projected vector exhausted by earlier components; take the first
            # basis direction orthogonal to them
            for j in range(span):
                cand = np.zeros(span, dtype=complex)
                cand[j] = 1.0
                for prev in rows:
                    cand -= prev * (prev.conj() @ cand)
                if np.linalg.norm(cand) > 1e-8:
                    v = cand
                    nrm = np.linalg.norm(v)
                    break
        rows.append(v / nrm)
    coeffs = np.array([_fix_row_phase(r) for r in rows])

    # reconstruct the mixture in the original frame
    wsum = float(np.sum(weights))
    sigma = np.zeros_like(mat)
    for w, row in zip(weights, coeffs):
        psi = D[:, :span] @ row
        psi /= np.linalg.norm(psi)
        sigma += (w / wsum) * np.outer(psi, psi.conj())
    fid = fidelity(mat, sigma)
    ov = state_overlap(mat, sigma)
    return AnsatzFit(
        weights=weights,
        coefficients=coeffs,
        fidelity=fid,
        overlap=ov,
        displacement=beta,
    )
