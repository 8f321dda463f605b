#!/usr/bin/env python3
"""Interferometer study: estimator and quantum-bound improvements.

Reproduces the headline numbers at N_b = 100: the intensity-difference
improvement of the single-emitter capture, the squeezed-vacuum reference at
matched photon number, and the quantum bound, together with its trend over
small N_b.
Output: results/metrology.json.
"""

import argparse
import math
from pathlib import Path

from cwlsim.integrator import propagate
from cwlsim.metrology import (crb, extract_moments, jz_sensitivity,
                              squeezed_reference)
from cwlsim.presets import (METRO_CRB_BIN, METRO_CRB_CFG, METRO_CRB_NB_TREND,
                            METRO_N_B, METRO_PAIR_BIN, METRO_PAIR_CFG,
                            METRO_SINGLE_BIN, METRO_SINGLE_CFG)
from cwlsim.serialize import write_json


def improvement_block(cfg, bin, n_b):
    traj = propagate(cfg, bin)
    mom = extract_moments(traj.rho_v)
    base = bin.tau * abs(cfg.alpha_phys) ** 2
    res = jz_sensitivity(mom, n_b, baseline_na=base)
    return traj, mom, res


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="results/metrology.json")
    args = ap.parse_args()
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)

    doc = {}
    traj, mom, res = improvement_block(METRO_SINGLE_CFG, METRO_SINGLE_BIN, METRO_N_B)
    sq = squeezed_reference(mom.N_a, METRO_N_B)
    doc["single_emitter"] = {
        "improvement": res.improvement,
        "N_a": mom.N_a,
        "squeezed_matched_improvement": res.delta_phi_sn / sq.delta_phi - 1.0,
    }
    print(f"single emitter: {res.improvement*100:.2f}% "
          f"(squeezed reference {doc['single_emitter']['squeezed_matched_improvement']*100:.2f}%)")

    _, _, res2 = improvement_block(METRO_PAIR_CFG, METRO_PAIR_BIN, METRO_N_B)
    doc["two_emitters_strong_decay"] = {"improvement": res2.improvement}
    print(f"two emitters at strong dark-state decay: {res2.improvement*100:.2f}%")

    traj3, mom3, _ = improvement_block(METRO_CRB_CFG, METRO_CRB_BIN, METRO_N_B)
    base3 = METRO_CRB_BIN.tau * abs(METRO_CRB_CFG.alpha_phys) ** 2
    trend = []
    for n_b in METRO_CRB_NB_TREND + (METRO_N_B,):
        bound = crb(traj3.rho_v, n_b)
        sn = 1.0 / math.sqrt(base3 + n_b)
        trend.append({"N_b": n_b, "improvement_cr": sn / bound - 1.0})
        print(f"quantum bound at N_b={n_b}: {(sn/bound-1)*100:.2f}%")
    doc["quantum_bound_trend"] = trend
    write_json(doc, args.out)


if __name__ == "__main__":
    main()
