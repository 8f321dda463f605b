"""Transmission phase of photonic eigenstates scattering off one emitter.

An n-photon bound state (n = 1 for scattering states) of energy E picks up
the unimodular factor (E - i kappa n^2/2) / (E + i kappa n^2/2).  At E = 0
the factor is -1, which is what makes chains with an even number of emitters
return steady-state light to its coherent input form while odd chains do not.
"""

from __future__ import annotations

from .errors import ConfigError


def transmission_phase(E: float, n: int, kappa: float) -> complex:
    """Unimodular phase (E - i kappa n^2/2) / (E + i kappa n^2/2)."""
    if n < 1:
        raise ConfigError("bound-state size n must be at least 1")
    if kappa <= 0:
        raise ConfigError("kappa must be positive")
    z = 0.5 * kappa * n * n
    return (E - 1j * z) / (E + 1j * z)
