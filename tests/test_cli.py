import csv
import dataclasses
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cwlsim import cli, sweep
from cwlsim.cli import COMMANDS, main
from cwlsim.serialize import dumps_json, read_density_matrix, write_csv, write_json


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


BASE = {
    "system": {"alpha": 0.7, "kappa": 1.0, "Gamma": 0.0, "gamma_D": 0.0, "M": 0},
    "bin": {"t0": 0.2, "tau": 0.8},
}


def test_simulate_writes_outputs_and_manifest(tmp_path):
    cfg = write_config(tmp_path, BASE)
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    man = json.loads((out / "manifest.json").read_text())
    assert man["subcommand"] == "simulate"
    assert man["diagnostics"]["coherent_fidelity"] >= 0.9999
    diag = man["diagnostics"]
    assert diag["n_rhs"] > 12 * diag["n_steps"] > 0
    assert diag["n_rejected"] >= 0 and diag["h_min"] > 0
    # per segment: the emitter-only run to t0 = 0.2, then the bin
    assert diag["n_rhs_pre"] > 0 and diag["n_rhs_bin"] > 0
    assert diag["n_rhs_pre"] + diag["n_rhs_bin"] == diag["n_rhs"]
    assert diag["pre_bin_s"] > 0 and diag["bin_s"] > 0
    assert diag["pre_bin_s"] + diag["bin_s"] <= man["wall_time_s"]
    listed = {Path(p).name for p in man["outputs"]}
    assert {"trajectory.csv", "rho_v.json"} <= listed
    for p in man["outputs"]:
        assert Path(p).exists()
    # trajectory CSV has a header row and LF endings
    raw = (out / "trajectory.csv").read_bytes()
    assert b"\r" not in raw
    assert raw.decode().splitlines()[0] == "t,cavity_n"


@pytest.mark.parametrize("index", range(4), ids=["drive0.5", "drive0.9", "drive1.5", "drive2.5"])
def test_simulate_drive_series_presets(tmp_path, index):
    # the paper's drive series, each with its calibrated bin; the two strongest
    # drives used to fail their cutoff check with exit code 2
    from cwlsim.presets import DRIVE_SERIES

    alpha, b = DRIVE_SERIES[index]
    doc = {"system": {"alpha": alpha, "M": 1}, "bin": {"t0": b.t0, "tau": b.tau}}
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(write_config(tmp_path, doc)),
                 "--out", str(out)]) == 0
    diag = json.loads((out / "manifest.json").read_text())["diagnostics"]
    assert diag["cutoff_check"] <= 1e-12
    assert diag["bin_runs"] == 1
    assert abs(diag["output_leak"]) <= 1e-6


def test_simulate_too_small_output_space_fails(tmp_path, capsys):
    # Fock levels 0..3 cannot hold the drive-2.5 state: rho_v would drop most
    # of its weight, so the run exits 2 instead of renormalizing silently
    from cwlsim.presets import DRIVE_SERIES

    alpha, b = DRIVE_SERIES[3]
    doc = {"system": {"alpha": alpha, "M": 1, "cavity_cutoff": 3},
           "bin": {"t0": b.t0, "tau": b.tau}}
    assert main(["simulate", "--config", str(write_config(tmp_path, doc)),
                 "--out", str(tmp_path / "out")]) == 2
    assert "cavity_cutoff" in capsys.readouterr().err


def test_manifest_config_roundtrip(tmp_path):
    cfg = write_config(tmp_path, BASE)
    out1 = tmp_path / "o1"
    assert main(["simulate", "--config", str(cfg), "--out", str(out1)]) == 0
    man = json.loads((out1 / "manifest.json").read_text())
    snap = man["config"]
    # re-run from the manifest's config snapshot
    cfg2 = write_config(tmp_path, snap, name="snap.json")
    out2 = tmp_path / "o2"
    assert main(["simulate", "--config", str(cfg2), "--out", str(out2)]) == 0
    assert (out1 / "rho_v.json").read_bytes() == (out2 / "rho_v.json").read_bytes()
    assert (out1 / "trajectory.csv").read_bytes() == (out2 / "trajectory.csv").read_bytes()


def test_wigner_subcommand(tmp_path):
    doc = {
        "system": {"alpha": 0.9, "M": 1},
        "bin": {"t0": 1.0, "tau": 2.0},
    }
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["wigner", "--config", str(cfg), "--out", str(out)]) == 0
    wdoc = json.loads((out / "wigner.json").read_text())
    assert wdoc["negativity"] > 0.01
    # the grid and one refinement: the quadrature agrees to 1 percent at once
    assert wdoc["levels"] == 2
    man = json.loads((out / "manifest.json").read_text())
    assert man["diagnostics"]["wigner_levels"] == 2
    header = (out / "wigner.csv").read_text().splitlines()[0]
    assert header == "x,p,W"


def test_shortbin_check_subcommand(tmp_path):
    doc = {"system": {"alpha": 0.9, "M": 1}, "bin": {"t0": 1.5, "tau": 1e-3}}
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["shortbin-check", "--config", str(cfg), "--out", str(out)]) == 0
    rep = json.loads((out / "shortbin_report.json").read_text())
    assert rep["trace_distance_integrator_vs_closed"] < 5e-3
    assert rep["max_entry_closed_vs_oracle"] < 1e-8


def test_ansatz_subcommand(tmp_path):
    doc = {"system": {"alpha": 0.9, "M": 1}, "bin": {"t0": 1.0, "tau": 2.0}}
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["ansatz", "--config", str(cfg), "--out", str(out)]) == 0
    fit = json.loads((out / "ansatz.json").read_text())
    assert fit["fidelity"] > 0.99
    assert len(fit["weights"]) == 3


def test_metrology_subcommand(tmp_path):
    doc = {
        "system": {"alpha": 0.18, "M": 1, "gamma_D": 0.1},
        "bin": {"t0": 2.0, "tau": 5.0},
        "metrology": {"N_b": 100.0, "phi_points": 500},
    }
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["metrology", "--config", str(cfg), "--out", str(out)]) == 0
    res = json.loads((out / "metrology.json").read_text())
    assert abs(res["improvement"] - 0.10) < 0.03
    assert res["squeezed_improvement"] > res["improvement"]
    assert (out / "jz_curves.csv").exists()


def test_metrology_subcommand_quantum_bound(tmp_path):
    # METRO_CRB working point at the default N_b = 100
    doc = {
        "system": {"alpha": 0.3, "M": 1, "gamma_D": 0.1},
        "bin": {"t0": 2.0, "tau": 5.0},
        "metrology": {"crb": True},
    }
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["metrology", "--config", str(cfg), "--out", str(out)]) == 0
    res = json.loads((out / "metrology.json").read_text())
    assert res["N_b"] == 100.0
    assert res["delta_phi_cr"] <= res["delta_phi"] * (1 + 1e-6)


def test_sweep_subcommand(tmp_path):
    doc = {
        "system": {"alpha": 0.9, "M": 1},
        "bin": {"t0": 1.0, "tau": 2.0},
        "sweep": {"axes": {"tau": [0.4, 2.0]}, "objective": "negativity"},
    }
    cfg = write_config(tmp_path, doc)
    out = tmp_path / 'o,"x'  # the artifact cells hold a comma and a double quote
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    rows = json.loads((out / "sweep.json").read_text())
    assert len(rows) == 2
    assert rows[0]["objective"] >= rows[1]["objective"]
    assert Path(rows[0]["artifact"]).exists()
    with open(out / "sweep.csv", newline="") as f:
        cells = list(csv.reader(f))
    assert [len(row) for row in cells] == [len(cells[0])] * 3
    table = [dict(zip(cells[0], row)) for row in cells[1:]]
    assert list(table[0]) == ["index", "tau", "objective", "N_a", "cutoff", "trace_drift",
                              "n_rhs", "wall_s", "artifact", "error_class"]
    assert all(int(r["n_rhs"]) > 0 and 0 < float(r["wall_s"]) < 60 for r in table)
    assert [r["artifact"] for r in table] == [r["artifact"] for r in rows]


def test_config_error_exit_code(tmp_path):
    cfg = write_config(tmp_path, {"system": {"alpha": 0.5, "kappa": -1.0}})
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    missing = tmp_path / "nope.json"
    assert main(["simulate", "--config", str(missing), "--out", str(tmp_path / "o")]) == 1


REMOVED_KEYS = {"emitter_levels", "mode", "max_step_bin_frac"}


@pytest.mark.parametrize("section, key, value", [
    ("bin", "mode", "gaussian"),
    ("system", "M", "two"),
    ("system", "M", 1.5),
    ("system", "emitter_levels", 3.0),
    ("system", "cavity_cutoff", 6.5),
    ("system", "numerics", {"dim_limit": 4096.5}),
    ("system", "numerics", {"output_points": "many"}),
    ("system", "kappa", None),
    ("system", "alpha", "strong"),
    ("bin", "g_max", "big"),
    ("bin", None, [0.2, 0.8]),
    ("system", None, "none"),
    ("grid", "bounds", [-4, 4]),
    ("system", "Gama", 0.1),
    ("bin", "tua", 0.8),
    ("metrology", "crb", "false"),
    ("metrology", "phi_points", 50),
    ("grid", "spacing", 0),
    ("grid", "spacing", -0.05),
    ("sweep", "axes", {"tau": 1.0}),
    ("sweep", "axes", {"M": [0.5]}),
    ("system", "kappa", math.nan),
    ("system", "numerics", {"output_points": 0}),
    ("system", "numerics", {"atol": -1}),
    ("system", "numerics", {"max_step_bin_frac": 0}),
    ("system", "numerics", {"max_step_bin_frac": 0.02}),
    ("system", "emitter_levels", 2),
    ("bin", "mode", "flat"),
    ("sytem", None, {"M": 0}),
    ("sweep", "N_b", -1),
    ("grid", "spacing", "fine"),
    ("grid", "spacing", 0.5),
    ("grid", "bounds", [[2, 1], [1, 1]]),
    ("grid", "bounds", [["-4", 4], [-4, 4]]),
    ("metrology", "N_b", -4),
], ids=["mode", "M-str", "M-frac", "levels-float", "cutoff-frac", "dim_limit-frac",
        "output_points-str", "kappa-null", "alpha-str", "g_max-str", "bin-list",
        "system-str", "bounds-flat", "Gamma-typo", "tau-typo", "crb-str", "phi_points-low",
        "spacing-zero", "spacing-negative", "axis-scalar", "axis-M-frac", "kappa-nan",
        "output_points-zero", "atol-negative", "max_step-zero", "max_step-legacy",
        "levels-legacy",
        "mode-legacy", "section-typo", "sweep-N_b-negative", "spacing-str",
        "spacing-coarse", "bounds-empty", "bounds-str", "N_b-negative"])
def test_malformed_config_is_configuration_error(tmp_path, capsys, monkeypatch,
                                                 section, key, value):
    # every subcommand reads the section, and rejects it before it propagates
    def no_propagation(*args, **kwargs):
        raise AssertionError("propagated before the configuration was checked")

    monkeypatch.setattr(cli, "propagate", no_propagation)
    monkeypatch.setattr(sweep, "propagate", no_propagation)
    doc = {name: dict(sec) for name, sec in BASE.items()}
    doc["sweep"] = {"axes": {"tau": [0.8]}, "objective": "jz_improvement"}
    if key is None:
        doc[section] = value
    else:
        doc.setdefault(section, {})[key] = value
    cfg = write_config(tmp_path, doc)
    for command in ["sweep"] if section == "sweep" else COMMANDS:
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1, command
        err = capsys.readouterr().err
        assert "configuration error:" in err
        keys = {key} | (set(value) if isinstance(value, dict) else set())
        for removed in keys & REMOVED_KEYS:
            assert repr(removed) in err  # a removed knob is refused by name


def test_omitted_keys_take_dataclass_defaults(tmp_path):
    from cwlsim.model import BinSpec, SystemConfig

    cfg = write_config(tmp_path, {"system": {"M": 0}})
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    snap = json.loads((out / "manifest.json").read_text())["config"]
    expected = json.loads(dumps_json({"system": dataclasses.asdict(SystemConfig(M=0)),
                                      "bin": dataclasses.asdict(BinSpec())}))
    assert snap == expected


def test_unknown_flag_reports_usage():
    proc = subprocess.run(
        [sys.executable, "-m", "cwlsim.cli", "simulate", "--bogus"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 1
    assert "usage" in proc.stderr.lower()


def test_float_serialization_roundtrip():
    vals = [0.1, 1 / 3, math.pi, 1e-17, 123456.789012345678]
    text = dumps_json({"vals": vals})
    back = json.loads(text)
    assert back["vals"] == vals  # the shortest round-trip text reads back exactly


def test_float_text_is_shortest_and_bit_exact(tmp_path):
    # JSON and CSV write Python's repr, the shortest text that reads back to the
    # same double, and the tokens NaN, Infinity and -Infinity
    assert dumps_json({"v": 0.05}) == '{\n  "v": 0.05\n}\n'
    rng = np.random.default_rng(7)
    bits = rng.integers(0, 2**63, 300, dtype=np.int64).view(np.float64)
    vals = ([0.05, 1.1, 1e-17, -0.0, 5e-324, math.nan, math.inf, -math.inf]
            + [float(x) for x in bits[np.isfinite(bits)]]
            + list(rng.standard_normal(100) * 10.0 ** rng.integers(-300, 300, 100)))
    want = np.array(vals).view(np.uint64)
    back = json.loads(dumps_json({"vals": vals}))["vals"]
    assert np.array_equal(np.array(back).view(np.uint64), want)
    path = tmp_path / "vals.csv"
    write_csv(path, ["v", "v32"], [[v, np.float32(0.05)] for v in vals])
    lines = path.read_text().splitlines()
    cells = [line.split(",") for line in lines[1:]]
    assert cells[0] == ["0.05", "0.05000000074505806"]
    assert [c[0] for c in cells[5:8]] == ["NaN", "Infinity", "-Infinity"]
    assert np.array_equal(np.array([float(c[0]) for c in cells]).view(np.uint64), want)


def test_sweep_error_with_comma_keeps_csv_rows(tmp_path):
    # the tau = 18 point fails with a message that holds a comma; sweep.csv
    # records the error class, sweep.json the whole message
    doc = {
        "system": {"alpha": 0.9, "M": 1, "cavity_cutoff": 9, "numerics": {"dim_limit": 20}},
        "bin": {"t0": 12.0, "tau": 18.0},
        "sweep": {"axes": {"tau": [1.0, 18.0]}, "objective": "jz_improvement"},
    }
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(write_config(tmp_path, doc)),
                 "--out", str(out)]) == 0
    with open(out / "sweep.csv", newline="") as f:
        table = list(csv.reader(f))
    header = table[0]
    assert [len(row) for row in table] == [len(header)] * 3
    by_tau = {row[header.index("tau")]: row for row in table[1:]}
    assert by_tau["18.0"][header.index("error_class")] == "CutoffConvergenceError"
    rows = {r["params"]["tau"]: r for r in json.loads((out / "sweep.json").read_text())}
    assert rows[18.0]["error"].startswith("CutoffConvergenceError: ")
    assert "at cutoff 9, the largest dim_limit 20 allows" in rows[18.0]["error"]


def test_density_matrix_file_roundtrip(tmp_path):
    from cwlsim.hilbert import coherent_state, pure_density

    dm = pure_density(coherent_state(0.6, 8))
    from cwlsim.serialize import write_density_matrix

    path = tmp_path / "rho.json"
    write_density_matrix(dm, path)
    back = read_density_matrix(path)
    assert np.array_equal(back.mat, dm.mat)
    doc = json.loads(path.read_text())
    assert doc["kind"] == "density_matrix"
    assert doc["layout"] == "row-major"
