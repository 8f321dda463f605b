"""Command-line entry point.

Configuration is a single JSON document with sections
{system, bin, grid, metrology, sweep}; rates are relative to kappa (drive in
units of sqrt(kappa)) and times absolute.  Every numerical subcommand writes
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
from pathlib import Path

import numpy as np

from . import __version__
from .ansatz import fit_displaced_mixture
from .errors import ConfigError, CwlError, NumericalError
from .hilbert import coherent_state, fidelity, partial_trace, pure_density, trace_distance
from .integrator import propagate
from .metrology import crb, extract_moments, jz_sensitivity, squeezed_reference
from .model import BinSpec, Numerics, SystemConfig
from .serialize import write_csv, write_density_matrix, write_json
from .shortbin import emitter_moments, shortbin_oracle, shortbin_rho
from .sweep import SweepPlan, run_sweep
from .wigner import DEFAULT_SPACING, wigner_grid


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors are configuration errors: exit 1
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        sys.exit(1)


def _complex_from(v) -> complex:
    if isinstance(v, (list, tuple)):
        return complex(v[0], v[1])
    return complex(v)


def load_config(path) -> dict:
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}")
    if not isinstance(doc, dict):
        raise ConfigError("config document must be a JSON object")
    return doc


def _section(doc: dict, name: str) -> dict:
    sec = doc.get(name, {})
    if not isinstance(sec, dict):
        raise ConfigError(f"'{name}' must be a JSON object")
    return sec


def _read(sec: dict, key: str, default, kind):
    """``sec[key]`` as ``kind`` (int, float or complex); an unset optional stays None."""
    v = sec.get(key, default)
    if v is None and default is None:
        return None
    if kind is int:
        if isinstance(v, bool) or not isinstance(v, int):
            raise ConfigError(f"'{key}' must be an integer, got {v!r}")
        return v
    try:
        return _complex_from(v) if kind is complex else kind(v)
    except (TypeError, ValueError, IndexError):
        raise ConfigError(f"'{key}' must be a number, got {v!r}")


def build_system(doc: dict) -> SystemConfig:
    sec = _section(doc, "system")
    num = _section(sec, "numerics")
    return SystemConfig(
        alpha=_read(sec, "alpha", 0.9, complex),
        kappa=_read(sec, "kappa", 1.0, float),
        Gamma=_read(sec, "Gamma", 0.0, float),
        gamma_D=_read(sec, "gamma_D", 0.0, float),
        M=_read(sec, "M", 1, int),
        emitter_levels=_read(sec, "emitter_levels", None, int),
        cavity_cutoff=_read(sec, "cavity_cutoff", None, int),
        numerics=Numerics(**{f.name: _read(num, f.name, f.default, type(f.default))
                             for f in dataclasses.fields(Numerics)}),
    )


def build_bin(doc: dict) -> BinSpec:
    sec = _section(doc, "bin")
    return BinSpec(
        t0=_read(sec, "t0", 0.0, float),
        tau=_read(sec, "tau", 1.0, float),
        g_max=_read(sec, "g_max", None, float),
        mode=sec.get("mode", "flat"),
    )


def config_snapshot(cfg: SystemConfig, bin: BinSpec, doc: dict) -> dict:
    snap = {"system": dataclasses.asdict(cfg), "bin": dataclasses.asdict(bin)}
    for key in ("grid", "metrology", "sweep"):
        if key in doc:
            snap[key] = doc[key]
    return snap


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


def cmd_simulate(doc: dict, out: Path) -> Manifest:
    cfg, bin = build_system(doc), build_bin(doc)
    man = Manifest("simulate", config_snapshot(cfg, bin, doc))
    traj = propagate(cfg, bin, verify_cutoff=True)
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
    return man


def cmd_wigner(doc: dict, out: Path) -> Manifest:
    cfg, bin = build_system(doc), build_bin(doc)
    man = Manifest("wigner", config_snapshot(cfg, bin, doc))
    traj = propagate(cfg, bin)
    grid_sec = _section(doc, "grid")
    spacing = _read(grid_sec, "spacing", DEFAULT_SPACING, float)
    bounds = grid_sec.get("bounds")
    if bounds is not None:
        try:
            (x0, x1), (p0, p1) = bounds
            bounds = ((float(x0), float(x1)), (float(p0), float(p1)))
        except (TypeError, ValueError):
            raise ConfigError(f"'bounds' must be [[xmin, xmax], [pmin, pmax]], got {bounds!r}")
    w = wigner_grid(traj.rho_v, bounds=bounds, spacing=spacing)
    rows = []
    for ip, p in enumerate(w.ps):
        for ix, x in enumerate(w.xs):
            rows.append([x, p, w.values[ip, ix]])
    write_csv(out / "wigner.csv", ["x", "p", "W"], rows)
    man.add_output(out / "wigner.csv")
    write_json({"negativity": w.negativity, "norm": w.norm, "spacing": w.spacing},
               out / "wigner.json")
    man.add_output(out / "wigner.json")
    man.diag(negativity=w.negativity, wigner_norm=w.norm, **_traj_diag(traj))
    return man


def cmd_shortbin_check(doc: dict, out: Path) -> Manifest:
    cfg, bin = build_system(doc), build_bin(doc)
    man = Manifest("shortbin-check", config_snapshot(cfg, bin, doc))
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
    return man


def cmd_ansatz(doc: dict, out: Path) -> Manifest:
    cfg, bin = build_system(doc), build_bin(doc)
    man = Manifest("ansatz", config_snapshot(cfg, bin, doc))
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
    return man


def cmd_metrology(doc: dict, out: Path) -> Manifest:
    cfg, bin = build_system(doc), build_bin(doc)
    man = Manifest("metrology", config_snapshot(cfg, bin, doc))
    sec = _section(doc, "metrology")
    n_b = _read(sec, "N_b", 100.0, float)
    phi_points = _read(sec, "phi_points", 400, int)
    with_crb = bool(sec.get("crb", False))
    traj = propagate(cfg, bin)
    mom = extract_moments(traj.rho_v)
    baseline = bin.tau * abs(cfg.alpha_phys) ** 2
    phi_grid = np.linspace(1e-4, math.pi - 1e-4, max(phi_points, 400))
    res = jz_sensitivity(mom, n_b, phi_grid, baseline_na=baseline)
    sq = squeezed_reference(mom.N_a, n_b, phi_grid)
    result = {
        "N_a": res.N_a,
        "N_a_baseline": res.N_a_baseline,
        "N_b": n_b,
        "delta_phi": res.delta_phi,
        "phi_opt": res.phi_opt,
        "delta_phi_sn": res.delta_phi_sn,
        "improvement": res.improvement,
        "squeezed_delta_phi": sq.delta_phi,
        "squeezed_improvement": res.delta_phi_sn / sq.delta_phi - 1.0,
    }
    if with_crb:
        dphi_cr = crb(traj.rho_v, n_b)
        result["delta_phi_cr"] = dphi_cr
        result["improvement_cr"] = res.delta_phi_sn / dphi_cr - 1.0
    write_json(result, out / "metrology.json")
    man.add_output(out / "metrology.json")
    rows = [[p, m, v] for p, m, v in zip(res.phi_grid, res.mean_jz, res.var_jz)]
    write_csv(out / "jz_curves.csv", ["phi", "mean_jz", "var_jz"], rows)
    man.add_output(out / "jz_curves.csv")
    man.diag(improvement=res.improvement, **_traj_diag(traj))
    return man


def cmd_sweep(doc: dict, out: Path) -> Manifest:
    cfg, bin = build_system(doc), build_bin(doc)
    man = Manifest("sweep", config_snapshot(cfg, bin, doc))
    sec = _section(doc, "sweep")
    axes_doc = _section(sec, "axes")
    if not axes_doc:
        raise ConfigError("sweep config must define axes")
    axes = tuple((name, tuple(values)) for name, values in axes_doc.items())
    plan = SweepPlan(
        axes=axes,
        objective=sec.get("objective", "negativity"),
        budget=_read(sec, "budget", 10_000, int),
        N_b=_read(sec, "N_b", 100.0, float),
    )
    rows = run_sweep(plan, cfg, bin, out_dir=out)
    names = [name for name, _ in axes]
    csv_rows = []
    for r in rows:
        csv_rows.append(
            [r.index]
            + [r.params[n] for n in names]
            + [r.objective, r.n_a, r.cutoff, r.trace_drift, r.artifact or "",
               r.error or ""]
        )
    header = ["index"] + names + ["objective", "N_a", "cutoff", "trace_drift",
                                  "artifact", "error"]
    write_csv(out / "sweep.csv", header, csv_rows)
    man.add_output(out / "sweep.csv")
    write_json(
        [
            {
                "index": r.index,
                "params": r.params,
                "objective": r.objective,
                "N_a": r.n_a,
                "artifact": r.artifact,
                "error": r.error,
            }
            for r in rows
        ],
        out / "sweep.json",
    )
    man.add_output(out / "sweep.json")
    man.diag(n_points=plan.n_points, objective=plan.objective)
    return man


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
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        man = COMMANDS[args.command](doc, out)
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
