#!/usr/bin/env python3
"""`hilbert.displacement_block` per call, in two source checkouts, alternating
rounds.

    python3 scripts/bench_displacement.py --before ../parent --after . \\
        --rounds 10 --out BENCH_scipyfree.json

Each round runs, for each checkout (the side that runs first alternating from
round to round), one fresh process that imports that checkout's cwlsim and
times `displacement_block(1.7 + 0.3j, rows, cols)` for each shape in
``SHAPES``, in µs per call: ``cold``, the first call of that shape in the
process (after one call of a shape not in ``SHAPES``, which pays the
process's one-off costs), and ``warm``, then the best of 7 repeats of 200
calls.  The output keeps every round and, per kind, side and shape, the
median and quartiles, the commit each checkout holds (``source``, as in
``bench_pairs.py``) and the library versions, under the key
``displacement_block``; an existing output file keeps its other keys.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy
import scipy
from bench_pairs import source

# square blocks (the ansatz), tall ones (propagate's frame change, the short
# bin; 11 x 10 and 14 x 10 are the commonest in perfbench's workloads) and one
# column (coherent states)
SHAPES = ((10, 10), (20, 20), (40, 40), (60, 60), (11, 10), (14, 10), (28, 14), (60, 3),
          (30, 1))

CHILD = r"""
import json, sys, timeit
from cwlsim.hilbert import displacement_block
from time import perf_counter
shapes = json.loads(sys.argv[1])
displacement_block(1.7 + 0.3j, 5, 4)
out = {"cold": {}, "warm": {}}
for rows, cols in shapes:
    t0 = perf_counter()
    displacement_block(1.7 + 0.3j, rows, cols)
    out["cold"][f"{rows}x{cols}"] = (perf_counter() - t0) * 1e6
for rows, cols in shapes:
    best = min(timeit.repeat(lambda: displacement_block(1.7 + 0.3j, rows, cols),
                             number=200, repeat=7))
    out["warm"][f"{rows}x{cols}"] = best / 200 * 1e6
print(json.dumps(out))
"""


def run_once(checkout: Path) -> dict:
    proc = subprocess.run([sys.executable, "-c", CHILD, json.dumps(SHAPES)], check=True,
                          capture_output=True, text=True, env={"PYTHONPATH": str(checkout / "src")})
    return json.loads(proc.stdout)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--before", type=Path, required=True, help="parent checkout")
    p.add_argument("--after", type=Path, required=True, help="changed checkout")
    p.add_argument("--rounds", type=int, default=10)
    p.add_argument("--out", type=Path, required=True)
    args = p.parse_args(argv)

    runs = {"before": [], "after": []}
    for i in range(args.rounds):
        for side in ("before", "after") if i % 2 == 0 else ("after", "before"):
            runs[side].append(run_once(getattr(args, side)))
            print(f"round {i} {side}: {runs[side][-1]}", flush=True)
    summary = {}
    for kind in ("cold", "warm"):
        summary[kind] = {}
        for side, rs in runs.items():
            summary[kind][side] = {}
            for shape in rs[0][kind]:
                q1, med, q3 = statistics.quantiles([r[kind][shape] for r in rs], n=4,
                                                   method="inclusive")
                summary[kind][side][shape] = {"median_us": med, "q1_us": q1, "q3_us": q3}

    doc = json.loads(args.out.read_text()) if args.out.exists() else {}
    doc["displacement_block"] = {
        "harness": "scripts/bench_displacement.py", "rounds": args.rounds,
        "env": {"python": platform.python_version(), "numpy": numpy.__version__,
                "scipy": scipy.__version__},
        "source": {side: source(getattr(args, side)) for side in runs},
        "summary": summary, "runs": runs,
    }
    args.out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
