"""Command-line entry point.

Configuration is a single JSON document with sections
{system, bin, grid, metrology, sweep}; rates are relative to kappa (drive in
units of sqrt(kappa)) and times absolute.  Each section is read into its
dataclass (`SECTIONS`) by the field annotations: unknown keys are rejected
and omitted keys keep the dataclass default; `main` builds every section but
`sweep` before any work, so a malformed one fails every subcommand.  Each
subcommand but `sweep` propagates once and hands the trajectory to its
``cmd_*`` function.  Every numerical subcommand writes its outputs plus a run
manifest (config snapshot, version, wall time, convergence diagnostics, file
list, per-phase wall times) into the output directory.

Exit codes: 0 success, 1 configuration error, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import get_args

import numpy as np

from . import __version__
from .ansatz import fit_displaced_mixture
from .errors import ConfigError, CwlError, NumericalError
from .hilbert import coherent_state, fidelity, partial_trace, pure_density, trace_distance
from .integrator import propagate
from .metrology import (DEFAULT_N_B, MIN_PHI_POINTS, crb, extract_moments,
                        jz_sensitivity, squeezed_reference)
from .model import BinSpec, SystemConfig, check_fields, field_types
from .serialize import write_csv, write_density_matrix, write_json
from .shortbin import emitter_moments, shortbin_oracle, shortbin_rho
from .sweep import AXES, SweepPlan, apply_params, run_sweep
from .wigner import DEFAULT_SPACING, MAX_SPACING, wigner_grid


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors are configuration errors: exit 1
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        sys.exit(1)


@dataclass(frozen=True)
class GridSpec:  # the wigner subcommand's phase-space grid
    spacing: float = DEFAULT_SPACING
    bounds: tuple | None = None  # ((xmin, xmax), (pmin, pmax)); default around the mean

    def __post_init__(self):
        check_fields(self)
        if not 0 < self.spacing <= MAX_SPACING:
            raise ConfigError(f"'spacing' must be positive and at most {MAX_SPACING}, "
                              f"got {self.spacing!r}")
        if self.bounds is not None:
            object.__setattr__(self, "bounds", _bounds(self.bounds))


def _bounds(value) -> tuple:
    """``[[xmin, xmax], [pmin, pmax]]`` as float pairs, each edge a finite number
    and each upper edge above its lower one."""
    try:
        (x0, x1), (p0, p1) = value
        ok = all(_is_real(e) and math.isfinite(e) for e in (x0, x1, p0, p1))
        ok = ok and x0 < x1 and p0 < p1
    except (TypeError, ValueError):
        ok = False
    if not ok:
        raise ConfigError(f"'bounds' must be [[xmin, xmax], [pmin, pmax]] with finite "
                          f"edges, each max above its min, got {value!r}")
    return (float(x0), float(x1)), (float(p0), float(p1))


@dataclass(frozen=True)
class MetrologySpec:  # second-port photons, phase samples, quantum bound
    N_b: float = DEFAULT_N_B
    phi_points: int = MIN_PHI_POINTS
    crb: bool = False

    def __post_init__(self):
        check_fields(self)
        if self.N_b < 0:
            raise ConfigError(f"'N_b' must be non-negative, got {self.N_b!r}")
        if self.phi_points < MIN_PHI_POINTS:
            raise ConfigError(f"'phi_points' must be at least {MIN_PHI_POINTS}, "
                              f"got {self.phi_points!r}")


SECTIONS = {"system": SystemConfig, "bin": BinSpec, "grid": GridSpec,
            "metrology": MetrologySpec, "sweep": SweepPlan}


def load_config(path) -> dict:
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}")
    if not isinstance(doc, dict):
        raise ConfigError("config document must be a JSON object")
    _reject_unknown(doc, SECTIONS, "config")
    return doc


def _reject_unknown(sec: dict, known, name: str):
    unknown = [key for key in sec if key not in known]
    if unknown:
        raise ConfigError(f"unknown key {unknown[0]!r} in '{name}' "
                          f"(expected one of {', '.join(known)})")


def _convert(tp, value, key: str):
    """A JSON value as the annotated type ``tp``: numbers widen to float (a real
    value of a complex field stays real), ``[re, im]`` becomes complex and an
    object becomes the dataclass.  Anything else passes through for the
    dataclass to accept or reject."""
    tp = next((a for a in get_args(tp) if a is not type(None)), tp)  # X | None -> X
    if dataclasses.is_dataclass(tp):
        return _build(tp, value, key)
    if tp is complex and isinstance(value, list) and len(value) == 2 and all(map(_is_real, value)):
        return complex(*value)
    if tp in (float, complex) and _is_real(value):
        return float(value)
    return value


def _is_real(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _build(cls, sec, name: str):
    """The dataclass ``cls`` from the JSON object ``sec``; omitted fields keep their default."""
    if not isinstance(sec, dict):
        raise ConfigError(f"'{name}' must be a JSON object")
    types = field_types(cls)
    _reject_unknown(sec, types, name)
    return cls(**{key: _convert(types[key], value, key) for key, value in sec.items()})


def _section(doc: dict, name: str):
    """Section ``name`` of the config as its dataclass; a missing one is all defaults."""
    return _build(SECTIONS[name], doc.get(name, {}), name)


def config_snapshot(cfg: SystemConfig, bin: BinSpec, doc: dict) -> dict:
    """The model sections as built, the others as given."""
    return {**doc, "system": dataclasses.asdict(cfg), "bin": dataclasses.asdict(bin)}


class Manifest:
    def __init__(self, subcommand: str, snapshot: dict):
        self.doc = {
            "tool": "cwlsim",
            "version": __version__,
            "subcommand": subcommand,
            "config": snapshot,
            "wall_time_s": None,
            "timings": {},
            "diagnostics": {},
            "outputs": [],
        }
        self._t0 = time.time()

    @contextmanager
    def timed(self, phase: str):
        """Add the wall time of the ``with`` body to ``timings[phase]``: one of
        ``propagate``, ``reduce`` (the state's figures of merit: fidelity,
        partial trace and moments, the ansatz fit), ``wigner``, ``metrology``,
        ``sweep`` and ``write`` (every output file but the manifest)."""
        t0 = time.perf_counter()
        yield
        timings = self.doc["timings"]
        timings[phase] = timings.get(phase, 0.0) + time.perf_counter() - t0

    def add_output(self, path):
        self.doc["outputs"].append(str(path))

    def diag(self, **kv):
        self.doc["diagnostics"].update(kv)

    def write(self, out_dir: Path):
        self.doc["wall_time_s"] = time.time() - self._t0
        path = out_dir / "manifest.json"
        write_json(self.doc, path)
        return path


# Each cmd_* but cmd_sweep gets the trajectory, the built sections (SystemConfig,
# BinSpec, GridSpec, MetrologySpec), the Manifest and the output directory.


def cmd_simulate(traj, cfg, bin, grid, spec, man, out):
    with man.timed("write"):
        rows = np.column_stack((traj.times, traj.populations, traj.cavity_occupation))
        header = ["t"] + [f"pop_{k+1}" for k in range(cfg.M)] + ["cavity_n"]
        write_csv(out / "trajectory.csv", header, rows)
        man.add_output(out / "trajectory.csv")
        write_density_matrix(traj.rho_v, out / "rho_v.json")
        man.add_output(out / "rho_v.json")
    with man.timed("reduce"):
        beta = cfg.alpha_phys * math.sqrt(bin.tau)
        f_coh = fidelity(traj.rho_v, pure_density(coherent_state(beta, traj.rho_v.dim - 1)))
    man.diag(coherent_fidelity=f_coh)


def cmd_wigner(traj, cfg, bin, grid, spec, man, out):
    with man.timed("wigner"):
        w = wigner_grid(traj.rho_v, bounds=grid.bounds, spacing=grid.spacing)
    with man.timed("write"):
        xs, ps = np.meshgrid(w.xs, w.ps)  # row-major over (p, x): x runs fastest
        rows = np.column_stack((xs.ravel(), ps.ravel(), w.values.ravel()))
        write_csv(out / "wigner.csv", ["x", "p", "W"], rows)
        man.add_output(out / "wigner.csv")
        write_json({"negativity": w.negativity, "norm": w.norm, "spacing": w.spacing,
                    "levels": w.levels}, out / "wigner.json")
        man.add_output(out / "wigner.json")
    man.diag(negativity=w.negativity, wigner_norm=w.norm, wigner_levels=w.levels)


def cmd_shortbin_check(traj, cfg, bin, grid, spec, man, out):
    with man.timed("reduce"):
        rho_e = partial_trace(traj.rho_bin_start, tuple(range(cfg.M)))
        mom = emitter_moments(rho_e, cfg.M)
        cutoff = traj.rho_v.dim - 1
        closed = shortbin_rho(mom, cfg.alpha, bin.tau, cfg.kappa, cfg.M, cutoff=cutoff)
        oracle = shortbin_oracle(rho_e, cfg.alpha, bin.tau, cfg.kappa, cfg.M, cutoff=cutoff)
        report = {
            "kappa_tau": cfg.kappa * bin.tau,
            "trace_distance_integrator_vs_closed": trace_distance(traj.rho_v, closed),
            "max_entry_closed_vs_oracle": float(np.max(np.abs(closed.mat - oracle.mat))),
        }
    with man.timed("write"):
        write_json(report, out / "shortbin_report.json")
        man.add_output(out / "shortbin_report.json")
    man.diag(**report)


def cmd_ansatz(traj, cfg, bin, grid, spec, man, out):
    with man.timed("reduce"):
        fit = fit_displaced_mixture(traj.rho_v, cfg.alpha, bin.tau, cfg.kappa)
    doc_out = {
        "weights": list(fit.weights),
        "coefficients": [[complex(c) for c in row] for row in fit.coefficients],
        "fidelity": fit.fidelity,
        "overlap": fit.overlap,
        "displacement": complex(fit.displacement),
    }
    with man.timed("write"):
        write_json(doc_out, out / "ansatz.json")
        man.add_output(out / "ansatz.json")
    man.diag(fit_fidelity=fit.fidelity)


def cmd_metrology(traj, cfg, bin, grid, spec, man, out):
    with man.timed("metrology"):
        mom = extract_moments(traj.rho_v)
        baseline = bin.tau * abs(cfg.alpha_phys) ** 2
        phi_grid = np.linspace(1e-4, math.pi - 1e-4, spec.phi_points)
        res = jz_sensitivity(mom, spec.N_b, phi_grid, baseline_na=baseline)
        sq = squeezed_reference(mom.N_a, spec.N_b, phi_grid)
        dphi_cr = crb(traj.rho_v, spec.N_b) if spec.crb else None
    result = {
        "N_a": res.N_a,
        "N_a_baseline": res.N_a_baseline,
        "N_b": spec.N_b,
        "delta_phi": res.delta_phi,
        "phi_opt": res.phi_opt,
        "delta_phi_sn": res.delta_phi_sn,
        "improvement": res.improvement,
        "squeezed_delta_phi": sq.delta_phi,
        "squeezed_improvement": res.delta_phi_sn / sq.delta_phi - 1.0,
    }
    if spec.crb:
        result["delta_phi_cr"] = dphi_cr
        result["improvement_cr"] = res.delta_phi_sn / dphi_cr - 1.0
    with man.timed("write"):
        write_json(result, out / "metrology.json")
        man.add_output(out / "metrology.json")
        rows = np.column_stack((res.phi_grid, res.mean_jz, res.var_jz))
        write_csv(out / "jz_curves.csv", ["phi", "mean_jz", "var_jz"], rows)
        man.add_output(out / "jz_curves.csv")
    man.diag(improvement=res.improvement)


def _axis(name: str, values, cfg: SystemConfig, bin: BinSpec) -> tuple:
    """Axis ``(name, values)``, each value converted by the type of the field it
    sets and checked by its dataclass; `SweepPlan` rejects other names and values."""
    if name in AXES and isinstance(values, list):
        values = tuple(_convert(field_types(AXES[name])[name], v, name) for v in values)
        for v in values:
            apply_params(cfg, bin, {name: v})
    return name, values


def cmd_sweep(doc: dict, cfg: SystemConfig, bin: BinSpec, man: Manifest, out: Path):
    sec = doc.get("sweep", {})
    if isinstance(sec, dict) and isinstance(sec.get("axes"), dict):
        sec = {**sec, "axes": tuple(_axis(n, v, cfg, bin) for n, v in sec["axes"].items())}
    plan = _build(SweepPlan, sec, "sweep")
    with man.timed("sweep"):
        rows = run_sweep(plan, cfg, bin, out_dir=out)
    names = [name for name, _ in plan.axes]
    # an axis holding a complex value takes two real columns, <name>_re and <name>_im
    split = {name for name, values in plan.axes if any(isinstance(v, complex) for v in values)}

    def axis_cells(params: dict) -> list:
        return [c for n in names for c in ((complex(params[n]).real, complex(params[n]).imag)
                                           if n in split else (params[n],))]

    csv_rows = [[r.index] + axis_cells(r.params)
                + [r.objective, r.n_a, r.cutoff, r.trace_drift, r.n_rhs, r.wall_s,
                   r.artifact or "", r.error_class or ""]
                for r in rows]
    axis_cols = [c for n in names for c in ((f"{n}_re", f"{n}_im") if n in split else (n,))]
    header = (["index"] + axis_cols + ["objective", "N_a", "cutoff", "trace_drift", "n_rhs",
                                       "wall_s", "artifact", "error_class"])
    with man.timed("write"):
        write_csv(out / "sweep.csv", header, csv_rows)
        man.add_output(out / "sweep.csv")
        write_json([{"index": r.index, "params": r.params, "objective": r.objective,
                     "N_a": r.n_a, "artifact": r.artifact, "error": r.error} for r in rows],
                   out / "sweep.json")
        man.add_output(out / "sweep.json")
    man.diag(n_points=plan.n_points, objective=plan.objective)


COMMANDS = {
    "simulate": cmd_simulate,
    "wigner": cmd_wigner,
    "shortbin-check": cmd_shortbin_check,
    "ansatz": cmd_ansatz,
    "metrology": cmd_metrology,
    "sweep": cmd_sweep,
}


def main(argv=None) -> int:
    parser = _Parser(prog="cwlsim",
                     description="Chiral emitter chain light-capture simulator")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON configuration file")
        p.add_argument("--out", required=True, help="output directory")
    sub.add_parser("selftest")
    args = parser.parse_args(argv)

    if args.command == "selftest":
        from .selftest import run_selftest

        return run_selftest()

    try:
        doc = load_config(args.config)
        cfg, bin, grid, spec = (_section(doc, name)
                                for name in ("system", "bin", "grid", "metrology"))
        man = Manifest(args.command, config_snapshot(cfg, bin, doc))
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        if args.command == "sweep":
            cmd_sweep(doc, cfg, bin, man, out)
        else:
            with man.timed("propagate"):
                traj = propagate(cfg, bin)
            COMMANDS[args.command](traj, cfg, bin, grid, spec, man, out)
            man.diag(**dataclasses.asdict(traj.diagnostics))
        path = man.write(out)
        print(f"wrote {path}")
        return 0
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except CwlError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
