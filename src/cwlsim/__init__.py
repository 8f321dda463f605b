"""Classical light on a chiral emitter chain: captured temporal-mode states,
their Wigner-function nonclassicality, and interferometric metrology."""

__version__ = "0.1.0"

from . import _blas
from .ansatz import AnsatzFit, fit_displaced_mixture
from .bethe import transmission_phase
from .hilbert import (DensityMatrix, annihilation, coherent_state, fidelity,
                      fock_state, partial_trace, pure_density, tensor,
                      trace_distance)
from .integrator import Trajectory, propagate
from .metrology import (MomentSet, MZResult, crb, extract_moments,
                        jz_sensitivity, squeezed_reference)
from .model import (BinSpec, Numerics, SystemConfig, build_hamiltonian,
                    build_jump_operators, liouvillian_apply, mode_gv)
from .shortbin import EmitterMoments, emitter_moments, shortbin_oracle, shortbin_rho
from .sweep import SweepPlan, SweepRow, run_sweep
from .wigner import WignerResult, wigner_grid

# find the OpenBLAS builds at import, now that numpy has loaded its own, the one cwlsim calls
_blas.controls()

__all__ = [
    "__version__",
    "AnsatzFit", "fit_displaced_mixture",
    "transmission_phase",
    "DensityMatrix", "annihilation", "coherent_state", "fidelity", "fock_state",
    "partial_trace", "pure_density", "tensor", "trace_distance",
    "Trajectory", "propagate",
    "MomentSet", "MZResult", "crb", "extract_moments", "jz_sensitivity",
    "squeezed_reference",
    "BinSpec", "Numerics", "SystemConfig", "build_hamiltonian",
    "build_jump_operators", "liouvillian_apply", "mode_gv",
    "EmitterMoments", "emitter_moments", "shortbin_oracle", "shortbin_rho",
    "SweepPlan", "SweepRow", "run_sweep",
    "WignerResult", "wigner_grid",
]
