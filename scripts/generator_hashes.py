#!/usr/bin/env python3
"""SHA-256 fingerprints of generators, propagations and sweep rows.

    PYTHONPATH=src python3 scripts/generator_hashes.py > after.txt

Run it on two checkouts and ``diff`` the outputs: equal lines mean the same
bits.  Three sections:

- ``generator``: the blocks ``L0``, ``L1`` and ``L2`` of the real generator
  (data, indices, indptr of each, so the hash does not depend on how the
  blocks are stacked) of 42 generators, 7 physics x 3 drives x cavity dimension 1 (the emitters
  alone) and 4 (the displaced frame), each built on empty caches ("cold") and
  after the other two drives of the same physics ("warm").  Each dimension-4
  generator adds a ``vacuum`` line, the same hash of its cavity-vacuum block
  (`Generator.vacuum`), which must equal the ``dim=1`` line of its physics
  and drive.
- ``preset``: 15 preset propagations, cold and after a propagation of the same
  physics at another drive and bin ("warm"): ``rho_v``, the output-grid
  samples and the step counters.
- ``sweep``: the rows of a 12-point ``jz_improvement`` sweep, serial and on
  the worker pool (``CWL_THREADS`` sets its size), wall times left out.
"""

from __future__ import annotations

import dataclasses
import hashlib

from cwlsim import model
from cwlsim.integrator import propagate
from cwlsim.model import BinSpec, SystemConfig, get_generator
from cwlsim.presets import (DRIVE_SERIES, METRO_CRB_BIN, METRO_CRB_CFG, METRO_PAIR_BIN,
                            METRO_PAIR_CFG, METRO_SINGLE_BIN, METRO_SINGLE_CFG, NOISE_BIN,
                            NOISE_DRIVE, PARITY_BIN, PARITY_DRIVE, SINGLE_DRIVE,
                            SINGLE_SHORT_BIN, SINGLE_STEADY_BIN)
from cwlsim.sweep import SweepPlan, run_sweep

PHYSICS = {"M0": dict(M=0), "M1": dict(M=1), "M2": dict(M=2), "M1-Gamma": dict(M=1, Gamma=0.3),
           "M1-gammaD": dict(M=1, gamma_D=0.4), "M1-gammaD-kappa": dict(M=1, gamma_D=0.4, kappa=1.7),
           "M2-both-kappa": dict(M=2, Gamma=0.2, gamma_D=0.5, kappa=0.6)}
DRIVES = (0.3, 0.5 - 0.2j, 1.1j)

PRESETS = {
    "metro_single": (METRO_SINGLE_CFG, METRO_SINGLE_BIN),
    "metro_crb": (METRO_CRB_CFG, METRO_CRB_BIN),
    "metro_pair": (METRO_PAIR_CFG, METRO_PAIR_BIN),
    "single_short": (SystemConfig(alpha=SINGLE_DRIVE), SINGLE_SHORT_BIN),
    "single_steady": (SystemConfig(alpha=SINGLE_DRIVE), SINGLE_STEADY_BIN),
    **{f"drive{a}": (SystemConfig(alpha=a), b) for a, b in DRIVE_SERIES},
    "noise_Gamma": (SystemConfig(alpha=NOISE_DRIVE, Gamma=0.5), NOISE_BIN),
    "noise_gammaD": (SystemConfig(alpha=NOISE_DRIVE, gamma_D=0.5), NOISE_BIN),
    **{f"parity{m}": (SystemConfig(alpha=PARITY_DRIVE, M=m), PARITY_BIN) for m in range(4)},
}


def clear_caches() -> None:
    for f in vars(model).values():
        if hasattr(f, "cache_clear"):
            f.cache_clear()


def digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(a.tobytes())
    return h.hexdigest()[:24]


def generators() -> None:
    b = BinSpec(t0=1.0, tau=2.0)
    for name, physics in PHYSICS.items():
        for cav_dim in (1, 4):
            for alpha in DRIVES:
                def bits(a):  # of the generator and of its vacuum block
                    gen = get_generator(SystemConfig(alpha=a, **physics), b, cav_dim)
                    return [digest(*(arr for L in (g.L0, g.L1, g.L2)
                                     for arr in (L.data, L.indices, L.indptr)))
                            for g in (gen, gen.vacuum())]

                clear_caches()
                cold = bits(alpha)
                clear_caches()
                for other in DRIVES:
                    if other != alpha:
                        bits(other)
                warm = bits(alpha)
                print(f"generator {name} dim={cav_dim} alpha={alpha}"
                      f" cold={cold[0]} warm={warm[0]}")
                if cav_dim > 1:
                    print(f"generator {name} vacuum alpha={alpha}"
                          f" cold={cold[1]} warm={warm[1]}")


def presets() -> None:
    for name, (cfg, b) in PRESETS.items():
        def run():
            traj = propagate(cfg, b)
            d = traj.diagnostics
            return (f"rho_v={digest(traj.rho_v.mat)}"
                    f" grid={digest(traj.times, traj.populations, traj.cavity_occupation)}"
                    f" n_rhs={d.n_rhs} n_steps={d.n_steps} n_rejected={d.n_rejected}"
                    f" cutoff={d.cutoff}")

        clear_caches()
        cold = run()
        clear_caches()
        propagate(dataclasses.replace(cfg, alpha=1.25 * cfg.alpha),
                  BinSpec(t0=b.t0 / 2, tau=b.tau / 2))
        print(f"preset {name} cold {cold}\npreset {name} warm {run()}")


def sweep() -> None:
    plan = SweepPlan(axes=(("alpha", (0.16, 0.2)), ("t0", (1.5, 2.0, 2.5)), ("tau", (4.0, 5.0))),
                     objective="jz_improvement")
    for parallel in (False, True):
        rows = run_sweep(plan, METRO_SINGLE_CFG, METRO_SINGLE_BIN, parallel=parallel)
        text = repr([dataclasses.replace(r, wall_s=0.0) for r in rows])
        print(f"sweep parallel={parallel} rows={hashlib.sha256(text.encode()).hexdigest()[:24]}")


def main() -> int:
    generators()
    presets()
    sweep()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
