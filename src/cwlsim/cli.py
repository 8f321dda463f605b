"""Command-line entry point.

Configuration is a single JSON document with sections
{system, bin, grid, metrology, sweep}; rates are relative to kappa (drive in
units of sqrt(kappa)) and times absolute.  Each section is read into its
dataclass (`SECTIONS`) by the field annotations: unknown keys are rejected
and omitted keys keep the dataclass default.  Every numerical subcommand writes
its outputs plus a run manifest (config snapshot, version, wall time,
convergence diagnostics, file list) into the output directory.

Exit codes: 0 success, 1 configuration error, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import get_args, get_type_hints

import numpy as np

from . import __version__
from .ansatz import fit_displaced_mixture
from .errors import ConfigError, CwlError, NumericalError
from .hilbert import coherent_state, fidelity, partial_trace, pure_density, trace_distance
from .integrator import propagate
from .metrology import (DEFAULT_N_B, MIN_PHI_POINTS, crb, extract_moments,
                        jz_sensitivity, squeezed_reference)
from .model import BinSpec, SystemConfig, check_fields
from .serialize import write_csv, write_density_matrix, write_json
from .shortbin import emitter_moments, shortbin_oracle, shortbin_rho
from .sweep import AXES, SweepPlan, apply_params, run_sweep
from .wigner import DEFAULT_SPACING, wigner_grid


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors are configuration errors: exit 1
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        sys.exit(1)


@dataclass(frozen=True)
class GridSpec:  # the wigner subcommand's phase-space grid
    spacing: float = DEFAULT_SPACING
    bounds: list | None = None  # [[xmin, xmax], [pmin, pmax]]; default around the mean

    def __post_init__(self):
        check_fields(self)


@dataclass(frozen=True)
class MetrologySpec:  # second-port photons, phase samples, quantum bound
    N_b: float = DEFAULT_N_B
    phi_points: int = MIN_PHI_POINTS
    crb: bool = False

    def __post_init__(self):
        check_fields(self)


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
    types = get_type_hints(cls)
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
            "diagnostics": {},
            "outputs": [],
        }
        self._t0 = time.time()

    def add_output(self, path):
        self.doc["outputs"].append(str(path))

    def diag(self, **kv):
        self.doc["diagnostics"].update(kv)

    def write(self, out_dir: Path):
        self.doc["wall_time_s"] = time.time() - self._t0
        path = out_dir / "manifest.json"
        write_json(self.doc, path)
        return path


def _traj_diag(traj) -> dict:
    return dataclasses.asdict(traj.diagnostics)


def cmd_simulate(doc: dict, cfg: SystemConfig, bin: BinSpec, man: Manifest, out: Path):
    traj = propagate(cfg, bin)
    rows = []
    for i, t in enumerate(traj.times):
        rows.append([t] + [traj.populations[i, k] for k in range(cfg.M)]
                    + [traj.cavity_occupation[i]])
    header = ["t"] + [f"pop_{k+1}" for k in range(cfg.M)] + ["cavity_n"]
    write_csv(out / "trajectory.csv", header, rows)
    man.add_output(out / "trajectory.csv")
    write_density_matrix(traj.rho_v, out / "rho_v.json")
    man.add_output(out / "rho_v.json")
    beta = cfg.alpha_phys * math.sqrt(bin.tau)
    f_coh = fidelity(traj.rho_v, pure_density(coherent_state(beta, traj.rho_v.dim - 1)))
    man.diag(coherent_fidelity=f_coh, **_traj_diag(traj))


def cmd_wigner(doc: dict, cfg: SystemConfig, bin: BinSpec, man: Manifest, out: Path):
    grid = _section(doc, "grid")
    bounds = grid.bounds
    if bounds is not None:
        try:
            (x0, x1), (p0, p1) = bounds
            bounds = ((float(x0), float(x1)), (float(p0), float(p1)))
        except (TypeError, ValueError):
            raise ConfigError(f"'bounds' must be [[xmin, xmax], [pmin, pmax]], got {bounds!r}")
    traj = propagate(cfg, bin)
    w = wigner_grid(traj.rho_v, bounds=bounds, spacing=grid.spacing)
    rows = []
    for ip, p in enumerate(w.ps):
        for ix, x in enumerate(w.xs):
            rows.append([x, p, w.values[ip, ix]])
    write_csv(out / "wigner.csv", ["x", "p", "W"], rows)
    man.add_output(out / "wigner.csv")
    write_json({"negativity": w.negativity, "norm": w.norm, "spacing": w.spacing,
                "levels": w.levels}, out / "wigner.json")
    man.add_output(out / "wigner.json")
    man.diag(negativity=w.negativity, wigner_norm=w.norm, wigner_levels=w.levels,
             **_traj_diag(traj))


def cmd_shortbin_check(doc: dict, cfg: SystemConfig, bin: BinSpec, man: Manifest, out: Path):
    traj = propagate(cfg, bin)
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
    write_json(report, out / "shortbin_report.json")
    man.add_output(out / "shortbin_report.json")
    man.diag(**report, **_traj_diag(traj))


def cmd_ansatz(doc: dict, cfg: SystemConfig, bin: BinSpec, man: Manifest, out: Path):
    traj = propagate(cfg, bin)
    fit = fit_displaced_mixture(traj.rho_v, cfg.alpha, bin.tau, cfg.kappa)
    doc_out = {
        "weights": list(fit.weights),
        "coefficients": [[complex(c) for c in row] for row in fit.coefficients],
        "fidelity": fit.fidelity,
        "overlap": fit.overlap,
        "displacement": complex(fit.displacement),
    }
    write_json(doc_out, out / "ansatz.json")
    man.add_output(out / "ansatz.json")
    man.diag(fit_fidelity=fit.fidelity, **_traj_diag(traj))


def cmd_metrology(doc: dict, cfg: SystemConfig, bin: BinSpec, man: Manifest, out: Path):
    spec = _section(doc, "metrology")
    traj = propagate(cfg, bin)
    mom = extract_moments(traj.rho_v)
    baseline = bin.tau * abs(cfg.alpha_phys) ** 2
    phi_grid = np.linspace(1e-4, math.pi - 1e-4, spec.phi_points)
    res = jz_sensitivity(mom, spec.N_b, phi_grid, baseline_na=baseline)
    sq = squeezed_reference(mom.N_a, spec.N_b, phi_grid)
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
        dphi_cr = crb(traj.rho_v, spec.N_b)
        result["delta_phi_cr"] = dphi_cr
        result["improvement_cr"] = res.delta_phi_sn / dphi_cr - 1.0
    write_json(result, out / "metrology.json")
    man.add_output(out / "metrology.json")
    rows = [[p, m, v] for p, m, v in zip(res.phi_grid, res.mean_jz, res.var_jz)]
    write_csv(out / "jz_curves.csv", ["phi", "mean_jz", "var_jz"], rows)
    man.add_output(out / "jz_curves.csv")
    man.diag(improvement=res.improvement, **_traj_diag(traj))


def _axis(name: str, values, cfg: SystemConfig, bin: BinSpec) -> tuple:
    """Axis ``(name, values)``, each value converted by the type of the field it
    sets and checked by its dataclass; `SweepPlan` rejects other names and values."""
    if name in AXES and isinstance(values, list):
        values = tuple(_convert(get_type_hints(AXES[name])[name], v, name) for v in values)
        for v in values:
            apply_params(cfg, bin, {name: v})
    return name, values


def cmd_sweep(doc: dict, cfg: SystemConfig, bin: BinSpec, man: Manifest, out: Path):
    sec = doc.get("sweep", {})
    if isinstance(sec, dict) and isinstance(sec.get("axes"), dict):
        sec = {**sec, "axes": tuple(_axis(n, v, cfg, bin) for n, v in sec["axes"].items())}
    plan = _build(SweepPlan, sec, "sweep")
    rows = run_sweep(plan, cfg, bin, out_dir=out)
    names = [name for name, _ in plan.axes]
    csv_rows = [[r.index] + [r.params[n] for n in names]
                + [r.objective, r.n_a, r.cutoff, r.trace_drift, r.artifact or "", r.error or ""]
                for r in rows]
    header = ["index"] + names + ["objective", "N_a", "cutoff", "trace_drift",
                                  "artifact", "error"]
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
        cfg, bin = _section(doc, "system"), _section(doc, "bin")
        man = Manifest(args.command, config_snapshot(cfg, bin, doc))
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        COMMANDS[args.command](doc, cfg, bin, man, out)
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
