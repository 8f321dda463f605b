#!/usr/bin/env python3
"""Single-emitter study: population dynamics and the three-bin comparison.

Writes the excited-state population curve and, for each preset bin, the
phase-space grid and its negativity.  Output: results/single_emitter/.
"""

import argparse
from pathlib import Path

import numpy as np

from cwlsim.integrator import propagate
from cwlsim.model import SystemConfig
from cwlsim.presets import (SINGLE_DRIVE, SINGLE_MID_BIN, SINGLE_SHORT_BIN,
                            SINGLE_STEADY_BIN)
from cwlsim.serialize import write_csv, write_json
from cwlsim.wigner import wigner_grid


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="results/single_emitter")
    ap.add_argument("--alpha", type=float, default=SINGLE_DRIVE)
    args = ap.parse_args()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    cfg = SystemConfig(alpha=args.alpha, M=1)
    summary = {}
    for label, b in (("short", SINGLE_SHORT_BIN), ("mid", SINGLE_MID_BIN),
                     ("steady", SINGLE_STEADY_BIN)):
        traj = propagate(cfg, b)
        rows = np.column_stack((traj.times, traj.populations[:, 0], traj.cavity_occupation))
        write_csv(out / f"population_{label}.csv", ["t", "pop", "cavity_n"], rows)
        w = wigner_grid(traj.rho_v)
        xs, ps = np.meshgrid(w.xs, w.ps)  # row-major over (p, x): x runs fastest
        grid = np.column_stack((xs.ravel(), ps.ravel(), w.values.ravel()))
        write_csv(out / f"wigner_{label}.csv", ["x", "p", "W"], grid)
        summary[label] = {"t0": b.t0, "tau": b.tau, "negativity": w.negativity,
                          "norm": w.norm}
        print(f"{label}: bin ({b.t0}, {b.t0 + b.tau}) negativity {w.negativity:.5f}")
    write_json(summary, out / "summary.json")


if __name__ == "__main__":
    main()
