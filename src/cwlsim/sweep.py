"""Deterministic grid search over the scalar fields of SystemConfig and BinSpec.

Every grid point is evaluated exactly once, in the order generated from the
axes; results are reported sorted by objective (descending) with a stable
tie-break on the grid index, so parallel and sequential execution produce
identical tables.  Per-point failures are recorded, not fatal.

Parallel sweeps run one forked worker process per usable CPU.  Fork, not
spawn: a spawned worker re-imports numpy, scipy and cwlsim, 0.5-0.8 s before
its first point against ~12 ms for a forked one (a one-worker pool on a 2-core
box), which costs more than a typical sweep saves, while a forked one inherits
the loaded modules and the generator cache.  The workers take the points in
chunks that keep each config's points together (`_dispatch_order`), so a
worker assembles the generators of its own configs only.  The stepping
makes no BLAS call, and a row does not depend on the process that computed
it or on its BLAS thread count.  The positivity samples and the state checks
do call LAPACK: each public cwlsim function that does runs its BLAS at one
thread (`_blas`) and restores the caller's counts on return, so the workers
get that policy through the points they evaluate, and no worker wakes
OpenBLAS's thread pool; `_blas` resets its own lock in each worker.  Fork
copies only the calling thread: a program that holds locks in other Python
threads while it sweeps should set ``CWL_THREADS=1``.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import math
import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from itertools import product
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .integrator import propagate
from .metrology import DEFAULT_N_B, crb, extract_moments, jz_sensitivity
from .model import BinSpec, SystemConfig, check_fields
from .serialize import write_density_matrix
from .wigner import wigner_grid

OBJECTIVES = ("negativity", "jz_improvement", "crb_improvement")
# sweepable field name -> the dataclass that owns it
AXES = {f.name: cls for cls in (SystemConfig, BinSpec) for f in dataclasses.fields(cls)
        if not dataclasses.is_dataclass(f.default)}


@dataclass(frozen=True)
class SweepPlan:
    axes: tuple = ()  # ordered ((name, (values...)), ...)
    objective: str = "negativity"
    budget: int = 10_000
    N_b: float = DEFAULT_N_B  # used by the metrology objectives

    def __post_init__(self):
        check_fields(self)
        if self.N_b < 0:
            raise ConfigError(f"'N_b' must be non-negative, got {self.N_b!r}")
        if not isinstance(self.axes, tuple) or not self.axes:
            raise ConfigError("sweep needs a tuple of one or more (name, values) axes")
        for name, values in self.axes:
            if name not in AXES:
                raise ConfigError(f"unknown sweep axis {name!r}")
            if not isinstance(values, (tuple, list)) or len(values) == 0:
                raise ConfigError(f"axis {name!r} needs a non-empty sequence, got {values!r}")
        if self.objective not in OBJECTIVES:
            raise ConfigError(f"objective must be one of {OBJECTIVES}")
        n = self.n_points
        if n > self.budget:
            raise ConfigError(f"grid has {n} points, over budget {self.budget}")

    @property
    def n_points(self) -> int:
        n = 1
        for _, values in self.axes:
            n *= len(values)
        return n


@dataclass(frozen=True)
class SweepRow:
    index: int
    params: dict
    objective: float
    n_a: float
    cutoff: int
    trace_drift: float
    n_rhs: int = -1  # Diagnostics.n_rhs of the point's propagation
    wall_s: float = field(default=float("nan"), compare=False)  # the point's own wall time
    artifact: str | None = None
    error: str | None = None  # "<exception class>: <message>"
    error_class: str | None = None


def _point_id(params: dict) -> str:
    blob = json.dumps({k: repr(v) for k, v in sorted(params.items())})
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def apply_params(base_cfg: SystemConfig, base_bin: BinSpec, params: dict):
    """(config, bin) with each swept field replaced on the dataclass that owns it."""
    def part(base):
        return dataclasses.replace(base, **{k: v for k, v in params.items()
                                            if AXES[k] is type(base)})

    return part(base_cfg), part(base_bin)


def _evaluate_point(index: int, params: dict, base_cfg: SystemConfig,
                    base_bin: BinSpec, plan: SweepPlan, out_dir: Path | None):
    """One row.  The point propagates on the smallest output grid, its two
    ends: a row reads only ``rho_v`` and the diagnostics, and the grid never
    steers the steps, so ``rho_v`` is the same bit for bit as on any grid."""
    t_wall = time.perf_counter()
    try:
        cfg, bin = apply_params(base_cfg, base_bin, params)
        traj = propagate(dataclasses.replace(
            cfg, numerics=dataclasses.replace(cfg.numerics, output_points=2)), bin)
        mom = extract_moments(traj.rho_v)
        if plan.objective == "negativity":
            value = wigner_grid(traj.rho_v).negativity
        else:
            baseline = bin.tau * abs(cfg.alpha_phys) ** 2
            if plan.objective == "jz_improvement":
                value = jz_sensitivity(mom, plan.N_b, baseline_na=baseline).improvement
            else:
                dphi_cr = crb(traj.rho_v, plan.N_b)
                sn = 1.0 / math.sqrt(baseline + plan.N_b)
                value = sn / dphi_cr - 1.0
        artifact = None
        if out_dir is not None:
            pdir = out_dir / "artifacts" / _point_id(params)
            pdir.mkdir(parents=True, exist_ok=True)
            artifact = str(pdir / "rho_v.json")
            write_density_matrix(traj.rho_v, artifact)
        return SweepRow(
            index=index,
            params=params,
            objective=float(value),
            n_a=mom.N_a,
            cutoff=traj.diagnostics.cutoff,
            trace_drift=traj.diagnostics.trace_drift_max,
            n_rhs=traj.diagnostics.n_rhs,
            wall_s=time.perf_counter() - t_wall,
            artifact=artifact,
        )
    except Exception as exc:  # per-point failures recorded, not fatal
        return SweepRow(
            index=index,
            params=params,
            objective=float("nan"),
            n_a=float("nan"),
            cutoff=-1,
            trace_drift=float("nan"),
            wall_s=time.perf_counter() - t_wall,
            error=f"{type(exc).__name__}: {exc}",
            error_class=type(exc).__name__,
        )


def max_workers() -> int:
    """``CWL_THREADS`` if set, else the CPUs this process may run on."""
    env = os.environ.get("CWL_THREADS", "")
    if env.strip():
        try:
            n = int(env)
        except ValueError as exc:
            raise ConfigError(f"CWL_THREADS must be an integer, got {env!r}") from exc
        return max(1, n)
    if hasattr(os, "sched_getaffinity"):  # honours taskset and cpuset limits
        return max(1, len(os.sched_getaffinity(0)))
    return max(1, os.cpu_count() or 1)


def _dispatch_order(points: list, nw: int):
    """``(points, chunksize)`` for a pool of ``nw`` workers: the ``(index, params)``
    points grouped stably by their values on the SystemConfig axes, so that
    each config's points are adjacent and in grid order, and the chunk size
    ``len(points) // (2 nw)`` (at least one).  A worker then takes runs of one
    config and assembles about 1/nw of the generators, while the at least
    2 nw chunks (given that many points) let a faster worker take more."""
    rank: dict = {}

    def config(point):
        key = tuple(repr(v) for name, v in point[1].items() if AXES[name] is SystemConfig)
        return rank.setdefault(key, len(rank))  # the order a config first appears in

    return sorted(points, key=config), max(1, len(points) // (2 * nw))


def run_sweep(plan: SweepPlan, base_cfg: SystemConfig,
              base_bin: BinSpec = BinSpec(), out_dir=None,
              parallel: bool = True) -> list[SweepRow]:
    """Evaluate the grid and return rows sorted by objective, best first.

    ``base_bin`` provides the bin fields not swept over.  With ``parallel``
    the points run on ``min(max_workers(), n_points)`` forked worker
    processes, in the chunks of `_dispatch_order`; where fork is unavailable
    they run in this process.
    """
    names = [name for name, _ in plan.axes]
    out_path = Path(out_dir) if out_dir is not None else None

    points = []
    for index, combo in enumerate(product(*(vals for _, vals in plan.axes))):
        points.append((index, dict(zip(names, combo))))

    evaluate = functools.partial(_evaluate_point, base_cfg=base_cfg, base_bin=base_bin,
                                 plan=plan, out_dir=out_path)
    nw = min(max_workers(), len(points)) if parallel else 1
    if nw > 1 and "fork" in multiprocessing.get_all_start_methods():
        order, chunk = _dispatch_order(points, nw)
        with ProcessPoolExecutor(nw, mp_context=multiprocessing.get_context("fork")) as pool:
            rows = list(pool.map(evaluate, *zip(*order), chunksize=chunk))
    else:
        rows = [evaluate(i, params) for i, params in points]

    def sort_key(row: SweepRow):
        bad = 1 if (row.error is not None or not np.isfinite(row.objective)) else 0
        val = -row.objective if not bad else 0.0
        return (bad, val, row.index)

    return sorted(rows, key=sort_key)
