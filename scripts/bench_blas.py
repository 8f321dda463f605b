#!/usr/bin/env python3
"""Criterion 08's sweeps timed at one and two OpenBLAS threads, in two source
checkouts, alternating rounds.

    python3 scripts/bench_blas.py --before ../parent --after . \\
        --rounds 10 --out BENCH_blas.json

Each round runs, for each checkout (the side that runs first alternating from
round to round), each OpenBLAS thread count (``OPENBLAS_NUM_THREADS`` 1 and
2) and each case, one fresh process that times the case once:

- ``single`` and ``pair``: the parallel `run_sweep` of criterion 08 on
  ``METRO_SINGLE_GRID`` with ``METRO_SINGLE_CFG`` and on ``METRO_PAIR_GRID``
  with ``METRO_PAIR_CFG`` (objective ``jz_improvement``, N_b 100), cold, as
  the test runs it; the pair grid's positivity solves are dim 108;
- ``parity4``: one warm `propagate` of parity M=4 (``PARITY_BIN``, drive
  ``PARITY_DRIVE``), after a first run that assembles its generator.

``wall_s`` is the case's wall time and ``cpu_s`` the CPU time of the process
and of its sweep workers over it.  The output keeps every run and, per side,
thread count and case, the median and quartiles of both, and the commit
each checkout holds (``source``, as in ``bench_pairs.py``), under the key
``sweeps``; an existing output file keeps its other keys.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy
import scipy
from bench_pairs import source

CASES = ("single", "pair", "parity4")
THREADS = ("1", "2")

CHILD = r"""
import json, resource, sys, time
from cwlsim import SweepPlan, SystemConfig, propagate, run_sweep
from cwlsim.presets import (METRO_N_B, METRO_PAIR_CFG, METRO_PAIR_GRID, METRO_SINGLE_CFG,
                            METRO_SINGLE_GRID, PARITY_BIN, PARITY_DRIVE)

def cpu():
    own, kids = (resource.getrusage(w) for w in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime

case = sys.argv[1]
if case == "parity4":
    cfg = SystemConfig(alpha=PARITY_DRIVE, M=4)
    propagate(cfg, PARITY_BIN)
    run = lambda: propagate(cfg, PARITY_BIN)
else:
    cfg, grid = {"single": (METRO_SINGLE_CFG, METRO_SINGLE_GRID),
                 "pair": (METRO_PAIR_CFG, METRO_PAIR_GRID)}[case]
    plan = SweepPlan(axes=tuple((k, grid[k]) for k in ("alpha", "t0", "tau")),
                     objective="jz_improvement", N_b=METRO_N_B)
    run = lambda: run_sweep(plan, cfg)
t, c = time.perf_counter(), cpu()
run()
print(json.dumps({"wall_s": time.perf_counter() - t, "cpu_s": cpu() - c}))
"""


def run_once(checkout: Path, threads: str, case: str) -> dict:
    env = dict(os.environ, PYTHONPATH=str(checkout.resolve() / "src"),
               OPENBLAS_NUM_THREADS=threads)
    env.pop("CWL_THREADS", None)
    proc = subprocess.run([sys.executable, "-c", CHILD, case], env=env,
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": round(med, 4), "q1": round(q1, 4), "q3": round(q3, 4)}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--before", type=Path, required=True, help="parent checkout")
    p.add_argument("--after", type=Path, required=True, help="changed checkout")
    p.add_argument("--rounds", type=int, default=10)
    p.add_argument("--out", type=Path, required=True)
    args = p.parse_args(argv)

    runs = {side: {th: {case: [] for case in CASES} for th in THREADS}
            for side in ("before", "after")}
    for i in range(args.rounds):
        for side in ("before", "after") if i % 2 == 0 else ("after", "before"):
            for th in THREADS:
                for case in CASES:
                    res = run_once(getattr(args, side), th, case)
                    runs[side][th][case].append(res)
                    print(f"round {i} {side} threads {th} {case}: {res}", flush=True)
    summary = {side: {th: {case: {m: summarize([r[m] for r in rs]) for m in ("wall_s", "cpu_s")}
                           for case, rs in by_case.items()}
                      for th, by_case in by_th.items()}
               for side, by_th in runs.items()}
    doc = json.loads(args.out.read_text()) if args.out.exists() else {}
    doc["sweeps"] = {"harness": "scripts/bench_blas.py", "rounds": args.rounds,
                     "nproc": os.cpu_count(), "python": platform.python_version(),
                     "numpy": numpy.__version__, "scipy": scipy.__version__,
                     "source": {side: source(getattr(args, side)) for side in runs},
                     "summary": summary, "runs": runs}
    args.out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
