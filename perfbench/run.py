"""cwlsim benchmark: three workloads through the public API, one cold
process per pass.

    python3 perfbench/run.py --workload capture --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; the library is imported from
``src/``.  ``--trace 0`` prints the end-to-end metrics (set-up, pass wall and
CPU time, peak memory, share of ops that succeed); ``--trace 1`` runs one
plain pass, one traced pass and the per-layer probes, and prints the
per-layer metrics.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  The environment record and
every sample go to ``.perfbench_out/result-*.json``, the spans of a traced
run to ``.perfbench_out/trace-*.json``.

``--smoke`` runs a reduced pass of the workload (used by the benchmark's own
tests); ``--record-reference`` re-records ``perfbench/reference.json``.

Exit codes: 0 on a completed run (correct or not), 2 when the benchmark
cannot run (no source tree, no reference, a child crashed or timed out).
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
REFERENCE = HERE / "reference.json"
WORKLOADS = ("capture", "metro_sweep", "metro_bound")

SETUP_SAMPLES = 2  # set-up-only processes per run, besides each pass's own
RUN_LIMIT_S = 170.0  # every child is killed past this point of the run
RHS_EVALS_PER_STEP = 12  # DOP853 stages per accepted step, a lower bound

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "cpu_s": "s",
                    "peak_rss_mb": "MB", "ok_ratio": "ratio"}
PER_LAYER_UNITS = {
    "model.assemble_s": "s", "model.rhs_s": "s", "model.rhs_nnz": "count",
    "model.rhs_flops": "count", "model.rhs_bytes": "bytes",
    "integrator.propagate_s": "s", "integrator.propagate_n": "count",
    "integrator.steps": "count", "integrator.steps_per_s": "1/s",
    "integrator.rhs_share_est": "ratio", "integrator.verify_s": "s",
    "integrator.fail": "count",
    "hilbert.partial_trace_s": "s", "hilbert.fidelity_s": "s",
    "wigner.grid_s": "s", "wigner.grid_n": "count",
    "shortbin.closed_s": "s", "shortbin.oracle_s": "s", "ansatz.fit_s": "s",
    "metrology.moments_s": "s", "metrology.jz_s": "s", "metrology.squeezed_s": "s",
    "metrology.crb_s": "s", "metrology.crb_n": "count", "metrology.crb_fail": "count",
    "sweep.run_s": "s", "sweep.points": "count", "sweep.failed_points": "count",
    "sweep.workers": "count", "sweep.serial_s": "s", "sweep.speedup": "ratio",
    "serialize.write_s": "s", "serialize.bytes": "bytes",
    "trace.overhead_s": "s",
}
# span name -> (time metric, count metric) summed over a traced pass
SPAN_METRICS = {
    "hilbert.partial_trace": ("hilbert.partial_trace_s", None),
    "hilbert.fidelity": ("hilbert.fidelity_s", None),
    "wigner.grid": ("wigner.grid_s", "wigner.grid_n"),
    "shortbin.closed": ("shortbin.closed_s", None),
    "shortbin.oracle": ("shortbin.oracle_s", None),
    "ansatz.fit": ("ansatz.fit_s", None),
    "metrology.moments": ("metrology.moments_s", None),
    "metrology.jz": ("metrology.jz_s", None),
    "metrology.squeezed": ("metrology.squeezed_s", None),
    "metrology.crb": ("metrology.crb_s", "metrology.crb_n"),
    "sweep.run": ("sweep.run_s", None),
    "serialize.write": ("serialize.write_s", None),
}


class BenchError(Exception):
    """The benchmark itself could not run."""


class Runner:
    """Starts the child processes of one run, one at a time, under a deadline."""

    def __init__(self, workload: str, seed: int, smoke: bool, out: Path):
        self.workload, self.seed, self.smoke, self.out = workload, seed, smoke, out
        self.deadline = time.perf_counter() + RUN_LIMIT_S
        self.env = dict(os.environ)
        src = str(ROOT / "src")
        self.env["PYTHONPATH"] = src + os.pathsep + self.env["PYTHONPATH"] \
            if self.env.get("PYTHONPATH") else src
        self.n = 0

    def spawn(self, mode: str) -> tuple[float, float, dict]:
        """Run one child; return (set-up seconds, total seconds, its JSON)."""
        self.n += 1
        pass_dir = self.out / f"pass-{os.getpid()}-{self.n}"
        cmd = [sys.executable, str(CHILD), "--workload", self.workload,
               "--seed", str(self.seed), "--mode", mode, "--out", str(pass_dir)]
        if self.smoke:
            cmd.append("--smoke")
        t0 = time.perf_counter()
        # unbuffered: readline must not read ahead of what communicate() reads
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=self.env,
                                cwd=ROOT, bufsize=0)
        try:
            ready, _, _ = select.select([proc.stdout], [], [], self._left())
            line = proc.stdout.readline() if ready else b""
            if line.strip() != b"READY":
                raise BenchError(f"{mode} child did not get ready: {line!r}")
            setup = time.perf_counter() - t0
            rest, _ = proc.communicate(timeout=self._left())
        except subprocess.TimeoutExpired:
            raise BenchError(f"{mode} child ran past the run's time limit")
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
            shutil.rmtree(pass_dir, ignore_errors=True)
        total = time.perf_counter() - t0
        if proc.returncode != 0:
            raise BenchError(f"{mode} child exited with code {proc.returncode}")
        lines = rest.decode().strip().splitlines()
        if not lines:
            raise BenchError(f"{mode} child printed no result")
        return setup, total, json.loads(lines[-1])

    def _left(self) -> float:
        left = self.deadline - time.perf_counter()
        if left <= 0:
            raise BenchError("run time limit reached")
        return left


# ---------------------------------------------------------------------------
# aggregation


def _outcomes(passes: list[dict]) -> dict:
    """Op outcomes summed over the passes of a run."""
    counts = {"attempted": 0, "ok": 0, "known": 0, "failed": 0, "wrong": 0}
    notes = []
    for doc in passes:
        counts["attempted"] += doc["ops"]
        for op_id, (status, detail) in doc["status"].items():
            counts[status] += 1
            if status != "ok":
                notes.append(f"{op_id} {status}: {detail}")
        notes += [f"unexpected {u}" for u in doc["unexpected"]]
    counts["notes"] = sorted(set(notes))
    counts["unexpected"] = sum(len(d["unexpected"]) for d in passes)
    return counts


def end_to_end(setups: list[float], passes: list[dict], outcome: dict) -> dict:
    med = statistics.median
    return {
        "setup_s": med(setups),
        "wall_s": med(d["wall_s"] for d in passes),
        "cpu_s": med(d["cpu_s"] for d in passes),
        "peak_rss_mb": med(d["peak_rss_mb"] for d in passes),
        "ok_ratio": outcome["ok"] / outcome["attempted"],
    }


def per_layer(plain: dict, traced: dict, probe: dict, replay: dict | None) -> dict:
    m = {name: 0.0 for name in PER_LAYER_UNITS}
    spans = traced["spans"] + (replay["spans"] if replay else [])
    prop_by_config: dict = {}
    steps_plain = time_plain = 0.0
    for sp in spans:
        dur = sp["end"] - sp["start"]
        name = sp["name"]
        if name in SPAN_METRICS:
            t_key, n_key = SPAN_METRICS[name]
            m[t_key] += dur
            if n_key:
                m[n_key] += 1
        if name == "metrology.crb" and "error" in sp:
            m["metrology.crb_fail"] += 1
        if name == "sweep.run":
            m["sweep.points"] += sp["points"]
            m["sweep.failed_points"] += sp.get("failed_points", 0)
            m["sweep.workers"] = sp["workers"]
        if name == "serialize.write":
            m["serialize.bytes"] += sp.get("bytes", 0)
        if name == "integrator.propagate":
            m["integrator.propagate_s"] += dur
            m["integrator.propagate_n"] += 1
            if "error" in sp:
                m["integrator.fail"] += 1
                continue
            m["integrator.steps"] += sp["steps"]
            if not sp["verify"]:
                steps_plain += sp["steps"]
                time_plain += dur
            if "config" in sp:
                prop_by_config.setdefault(sp["config"], {})[sp["verify"]] = dur
    if time_plain > 0:
        m["integrator.steps_per_s"] = steps_plain / time_plain
    m["integrator.verify_s"] = sum(d[True] - d[False] for d in prop_by_config.values()
                                   if True in d and False in d)
    for key in ("assemble_s", "rhs_s", "rhs_nnz", "rhs_flops", "rhs_bytes"):
        m[f"model.{key}"] = probe[key]
    m["integrator.rhs_share_est"] = (RHS_EVALS_PER_STEP * probe["ref_steps"]
                                     * probe["rhs_s"] / probe["ref_propagate_s"])
    if replay:
        m["sweep.serial_s"] = replay["serial_s"]
        if m["sweep.run_s"] > 0:
            m["sweep.speedup"] = replay["serial_s"] / m["sweep.run_s"]
    m["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
    return m


def _median_dicts(dicts: list[dict]) -> dict:
    return {k: statistics.median(d[k] for d in dicts) for k in dicts[0]}


# ---------------------------------------------------------------------------
# runs


def run_untraced(r: Runner, seconds: float) -> dict:
    setups, env = [], None
    for _ in range(SETUP_SAMPLES):
        s, _, doc = r.spawn("setup")
        setups.append(s)
        env = env or doc["env"]
    passes, durations = [], []
    t0 = time.perf_counter()
    while True:
        s, total, doc = r.spawn("plain")
        setups.append(s)
        passes.append(doc)
        durations.append(total)
        if time.perf_counter() - t0 + statistics.median(durations) > seconds:
            break
    outcome = _outcomes(passes)
    return {"env": env, "setup_samples": setups, "passes": passes, "outcome": outcome,
            "metrics": end_to_end(setups, passes, outcome), "units": END_TO_END_UNITS,
            "determinism": None}


def run_traced(r: Runner, seconds: float) -> dict:
    _, _, env_doc = r.spawn("setup")
    cycles, passes, all_spans = [], [], []
    determinism = True if r.workload == "metro_sweep" else None
    t0 = time.perf_counter()
    while True:
        c0 = time.perf_counter()
        _, _, plain = r.spawn("plain")
        _, _, traced = r.spawn("traced")
        _, _, probe = r.spawn("probe")
        replay = None
        if r.workload == "metro_sweep":
            _, _, replay = r.spawn("replay")
            # ROADMAP aim 3: parallel and serial sweeps agree bit for bit
            determinism = determinism and (
                traced.get("sweep_objectives") == replay["sweep_objectives"])
        passes += [plain, traced]
        all_spans.append({"traced": traced["spans"],
                          "replay": replay["spans"] if replay else []})
        cycles.append(per_layer(plain, traced, probe, replay))
        if time.perf_counter() - t0 + (time.perf_counter() - c0) > seconds:
            break
    outcome = _outcomes(passes)
    return {"env": env_doc["env"], "passes": passes, "outcome": outcome,
            "metrics": _median_dicts(cycles), "units": PER_LAYER_UNITS,
            "determinism": determinism, "spans": all_spans}


def commit_hash() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def record_reference(out: Path) -> None:
    """Run one full plain pass of each workload and write reference.json."""
    ref = {"known_failures": {}}
    for workload in WORKLOADS:
        r = Runner(workload, 0, False, out)
        r.deadline += 600.0
        _, _, doc = r.spawn("plain")
        if doc["unexpected"]:
            raise BenchError(f"unexpected errors: {doc['unexpected']}")
        for op_id, err in sorted(doc["errors"].items()):
            ref["known_failures"][f"{op_id}"] = err
            if workload == "metro_bound":  # no seed value to compare against
                doc["values"][op_id] = {"delta_phi": None}
        ref[workload] = doc["values"]
    REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    print(f"wrote {REFERENCE}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="cwlsim benchmark")
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="reduced pass, for the tests")
    p.add_argument("--out", default=str(ROOT / ".perfbench_out"))
    p.add_argument("--record-reference", action="store_true")
    args = p.parse_args(argv)

    out = Path(args.out)
    try:
        if not (ROOT / "src" / "cwlsim" / "__init__.py").is_file():
            raise BenchError(f"no cwlsim source tree under {ROOT / 'src'}")
        out.mkdir(parents=True, exist_ok=True)
        if args.record_reference:
            record_reference(out)
            return 0
        if args.workload is None:
            raise BenchError("--workload is required")
        if not REFERENCE.is_file():
            raise BenchError(f"missing {REFERENCE.name}; the outputs cannot be checked")
        r = Runner(args.workload, args.seed, args.smoke, out)
        res = (run_traced if args.trace else run_untraced)(r, args.seconds)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    outcome = res["outcome"]
    failed = outcome["failed"] + outcome["wrong"]
    correct = failed == 0 and outcome["unexpected"] == 0 and res["determinism"] is not False
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}"
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "smoke": args.smoke, "seconds": args.seconds, "commit": commit_hash(),
        "env": res["env"], "correct": correct,
        "metrics": {k: {"value": v, "unit": res["units"][k]}
                    for k, v in res["metrics"].items()},
        "fail_ratio": 1.0 - outcome["ok"] / outcome["attempted"],
        "outcome": outcome, "determinism": res["determinism"],
        "setup_samples": res.get("setup_samples"),
        "passes": [{k: d[k] for k in ("wall_s", "cpu_s", "peak_rss_mb")}
                   for d in res["passes"]],
    }
    (out / f"result-{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    if args.trace:  # spans kept in memory, written once at the end
        (out / f"trace-{tag}.json").write_text(json.dumps(res["spans"]) + "\n")

    print(f"perfbench {tag}: {len(res['passes'])} passes, commit {record['commit']}")
    for k, v in record["metrics"].items():
        print(f"  {k:26s} {v['value']:.6g} {v['unit']}")
    print(f"  {'fail_ratio':26s} {record['fail_ratio']:.6g} ratio "
          f"({outcome['attempted'] - outcome['ok']} of {outcome['attempted']} ops)")
    if not args.trace:
        print(f"  wall_s samples: {len(res['passes'])}, setup_s samples: "
              f"{len(res['setup_samples'])}")
    for note in outcome["notes"]:
        print(f"  {note}")
    if res["determinism"] is not None:
        print(f"  sweep replay bit-identical: {res['determinism']}")
    print("env " + json.dumps(dict(res["env"], commit=record["commit"], seed=args.seed)))
    print(json.dumps({"correct": correct, "attempted": outcome["attempted"],
                      "failed": failed, "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
