#!/usr/bin/env python3
"""Cold generator assembly timed in two source checkouts, alternating rounds.

    python3 scripts/bench_assembly.py --before ../parent --after . \\
        --rounds 4 --out BENCH_oneasm.json

Each round runs one fresh process per checkout, the side that runs first
alternating from round to round.  In it every case is timed ``--repeats``
times on empty caches (every ``lru_cache`` of `cwlsim.model` and
`cwlsim.hilbert` cleared) and the best time is kept:

- ``superoperators_ms``: `model._superoperators` of METRO_CRB at cavity
  dimension 1 (the emitters alone) and 10 (its bin's first cutoff 2M + 7,
  plus one), and of parity M=3 at 14;
- ``propagate_assemble_ms``: the ``assemble_s`` counter of a cold METRO_CRB
  and parity M=3 `propagate`, all the generator work of a run.

The output keeps every round and, per side, the median over rounds of each
case, under the key ``assembly``; an existing output file keeps its other
keys.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

CHILD = r"""
import json, sys, time
from cwlsim import hilbert, model
from cwlsim.integrator import propagate
from cwlsim.model import SystemConfig, _physics
from cwlsim.presets import METRO_CRB_BIN, METRO_CRB_CFG, PARITY_BIN, PARITY_DRIVE

def clear():
    for mod in (model, hilbert):
        for f in vars(mod).values():
            if hasattr(f, "cache_clear"):
                f.cache_clear()

def best(fn, repeats):
    times = []
    for _ in range(repeats):
        clear()
        times.append(fn())
    return round(min(times) * 1e3, 3)

def timed(fn):
    t = time.perf_counter()
    fn()
    return time.perf_counter() - t

repeats = int(sys.argv[1])
parity = SystemConfig(alpha=PARITY_DRIVE, M=3)
sup = {f"{name} cav {cav}": best(lambda: timed(lambda: model._superoperators(
           cfg.alpha, _physics(cfg), cav)), repeats)
       for name, cfg, cav in (("METRO_CRB", METRO_CRB_CFG, 1), ("METRO_CRB", METRO_CRB_CFG, 10),
                              ("parity3", parity, 14))}
run = {name: best(lambda: propagate(cfg, b).diagnostics.assemble_s, repeats)
       for name, cfg, b in (("METRO_CRB", METRO_CRB_CFG, METRO_CRB_BIN),
                            ("parity3", parity, PARITY_BIN))}
print(json.dumps({"superoperators_ms": sup, "propagate_assemble_ms": run}))
"""


def run_once(checkout: Path, repeats: int) -> dict:
    env = dict(os.environ, PYTHONPATH=str(checkout.resolve() / "src"))
    proc = subprocess.run([sys.executable, "-c", CHILD, str(repeats)], env=env,
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--before", type=Path, required=True, help="parent checkout")
    p.add_argument("--after", type=Path, required=True, help="changed checkout")
    p.add_argument("--rounds", type=int, default=4)
    p.add_argument("--repeats", type=int, default=9)
    p.add_argument("--out", type=Path, required=True)
    args = p.parse_args(argv)

    rounds = {"before": [], "after": []}
    for i in range(args.rounds):
        for side in ("before", "after") if i % 2 == 0 else ("after", "before"):
            res = run_once(getattr(args, side), args.repeats)
            rounds[side].append(res)
            print(f"round {i} {side}: {res}", flush=True)
    median = {side: {group: {case: statistics.median(r[group][case] for r in rs)
                             for case in rs[0][group]}
                     for group in rs[0]}
              for side, rs in rounds.items()}
    doc = json.loads(args.out.read_text()) if args.out.exists() else {}
    doc["assembly"] = {"harness": "scripts/bench_assembly.py", "repeats": args.repeats,
                       "median": median, "rounds": rounds}
    args.out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
