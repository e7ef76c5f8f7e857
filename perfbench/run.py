"""Campaign benchmark for the sparsemp CLI.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --all [--seconds S] [--trace 0|1]

Run from the root of a source checkout.  Each command of a workload is a
fresh ``python3 perfbench/child.py`` process that calls ``sparsemp.cli.main``
with one BLAS thread and ``--workers 1``: a closed loop with one client,
starting the next command when the last has exited, until ``--seconds`` have
passed (at least one command always runs).  Every command's reports go
through the correctness gate in ``workloads.py``.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0`` and
the per-layer metrics with ``--trace 1``.  Lines before it give each metric
with its unit, the error rate and the provenance; ``.perfbench_out/`` keeps
every command's reports, the spans and a ``result.json`` per run.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from child import now  # noqa: E402
from workloads import WORKLOADS, Checker, close, compare_reference  # noqa: E402

REFERENCE = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
BLAS_THREADS = 1          # single-threaded baseline: steadiest on a 2-core box
WORKERS = 1
SETUP_PROBES = 3          # extra set-up-only processes per run
RUN_LIMIT_S = 170.0       # a run must end well inside 180 s
OUT_ROOT = Path(".perfbench_out")

END_TO_END = {"wall_s": "s", "reps_per_s": "1/s", "setup_s": "s", "peak_rss_mib": "MiB"}

# per-layer metric -> unit; computed from the spans of one traced command
PER_LAYER = {
    "model.sample_matrix.calls": "count",
    "model.sample_matrix.self_s": "s",
    "model.sample_matrix.mib": "MiB",
    "spectral.singular_values.calls": "count",
    "spectral.singular_values.self_s": "s",
    "spectral.resolvent_max_abs.calls": "count",
    "spectral.resolvent_max_abs.self_s": "s",
    "spectral.resolvent_max_abs.gflop": "GFLOP",
    "spectral.resolvent_max_abs.gflop_per_s": "GFLOP/s",
    "locallaw.locallaw_scan.self_s": "s",
    "locallaw.self_consistency_audit.self_s": "s",
    "locallaw.audit.minor_svds": "count",
    "mplaw.stieltjes_mp.calls": "count",
    "mplaw.stieltjes_mp.self_s": "s",
    "mplaw.gamma_n.calls": "count",
    "mplaw.domain_grid.self_s": "s",
    "configuration.build_configuration.self_s": "s",
    "configuration.classify.calls": "count",
    "configuration.classify.self_s": "s",
    "configuration.links": "count",
    "configuration.components_useful_ratio": "fraction",
    "mc.map_replications.reps": "count",
    "mc.map_replications.workers": "count",
    "cli.command.self_s": "s",
    "cli.bytes_written": "B",
    "cli.files_written": "count",
    "trace.overhead_s": "s",
    "trace.coverage": "fraction",
}


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("SPARSEMP_WORKERS", None)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def spawn(mode: str, cmd: str, config: Path, out_dir: Path, deadline: float) -> dict:
    """Run one child process to completion; returns its timings and sidecar."""
    out_dir.mkdir(parents=True)
    sidecar = out_dir.parent / f"{out_dir.name}.sidecar.json"
    argv = [sys.executable, str(HERE / "child.py"), "src", str(sidecar), mode, "--",
            cmd, "--config", str(config), "--out-dir", str(out_dir),
            "--workers", str(WORKERS)]
    with open(out_dir.parent / f"{out_dir.name}.log", "wb") as log:
        t0 = now()
        proc = subprocess.Popen(argv, env=child_env(), stdin=subprocess.DEVNULL,
                                stdout=log, stderr=log)
        timer = threading.Timer(max(deadline - t0, 1.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            t1 = now()
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            timer.cancel()
    side = json.loads(sidecar.read_text()) if sidecar.is_file() else {}
    marks = side.get("marks", {})
    return {
        "rc": proc.returncode,
        "wall_s": t1 - t0,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "setup_s": marks["setup"] - t0 if "setup" in marks else None,
        "rss_mib": usage.ru_maxrss / 1024.0,
        "spans": side.get("spans"),
        "counts": side.get("counts", {}),
        "marks": marks,
        "provenance": side.get("provenance"),
    }


def layer_metrics(res: dict, out_dir: Path) -> dict:
    """Per-layer numbers of one traced command, from its spans."""
    marks, counts = res["marks"], res["counts"]
    spans = res["spans"] or []
    start = marks.get("setup", marks.get("main", 0.0))
    root = [0, "cli.command", start, marks.get("end", start), None, None]
    child_time: dict[int, float] = {}
    for sid, _, s0, s1, parent, _ in spans:
        child_time[parent] = child_time.get(parent, 0.0) + (s1 - s0)
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    attrs: dict[str, float] = {}
    for sid, name, s0, s1, _, extra in [root] + spans:
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + (s1 - s0) - child_time.get(sid, 0.0)
        for key, val in (extra or {}).items():
            attrs[f"{name}:{key}"] = attrs.get(f"{name}:{key}", 0) + val

    files = [p for p in out_dir.rglob("*") if p.is_file()]
    rmax_s = self_s.get("spectral.resolvent_max_abs", 0.0)
    gflop = attrs.get("spectral.resolvent_max_abs:flop", 0) / 1e9
    comps = attrs.get("configuration.classify:components", 0)
    return {
        "model.sample_matrix.calls": calls.get("model.sample_matrix", 0),
        "model.sample_matrix.self_s": self_s.get("model.sample_matrix", 0.0),
        "model.sample_matrix.mib": attrs.get("model.sample_matrix:bytes", 0) / 2**20,
        "spectral.singular_values.calls": calls.get("spectral.singular_values", 0),
        "spectral.singular_values.self_s": self_s.get("spectral.singular_values", 0.0),
        "spectral.resolvent_max_abs.calls": calls.get("spectral.resolvent_max_abs", 0),
        "spectral.resolvent_max_abs.self_s": rmax_s,
        "spectral.resolvent_max_abs.gflop": gflop,
        "spectral.resolvent_max_abs.gflop_per_s": gflop / rmax_s if rmax_s > 0 else 0.0,
        "locallaw.locallaw_scan.self_s": self_s.get("locallaw.locallaw_scan", 0.0),
        "locallaw.self_consistency_audit.self_s":
            self_s.get("locallaw.self_consistency_audit", 0.0),
        "locallaw.audit.minor_svds": attrs.get("locallaw.self_consistency_audit:minor_svds", 0),
        "mplaw.stieltjes_mp.calls": calls.get("mplaw.stieltjes_mp", 0),
        "mplaw.stieltjes_mp.self_s": self_s.get("mplaw.stieltjes_mp", 0.0),
        "mplaw.gamma_n.calls": calls.get("mplaw.gamma_n", 0),
        "mplaw.domain_grid.self_s": self_s.get("mplaw.domain_grid", 0.0),
        "configuration.build_configuration.self_s":
            self_s.get("configuration.build_configuration", 0.0),
        "configuration.classify.calls": calls.get("configuration.classify", 0),
        "configuration.classify.self_s": self_s.get("configuration.classify", 0.0),
        "configuration.links": attrs.get("configuration.build_configuration:links", 0),
        "configuration.components_useful_ratio":
            attrs.get("configuration.classify:useful", 0) / comps if comps else 0.0,
        "mc.map_replications.reps": sum(counts.get("mc.map_replications.reps", [])),
        # a worker count is a setting, not a sum
        "mc.map_replications.workers": max(counts.get("mc.map_replications.workers", []),
                                           default=0),
        "cli.command.self_s": self_s["cli.command"],
        "cli.bytes_written": sum(p.stat().st_size for p in files),
        "cli.files_written": len(files),
        # every span nests in the root, so the root is what the spans cover
        "trace.coverage": (root[3] - root[2]) / res["wall_s"],
    }


def git_commit() -> str:
    if not Path(".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10, check=True)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip()


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 smoke: bool = False) -> dict:
    """One benchmark run of one workload; prints its metrics and returns the result."""
    work = WORKLOADS[name]
    t_start = now()
    deadline = t_start + RUN_LIMIT_S
    run_dir = OUT_ROOT / f"{name}-seed{seed}-trace{int(trace)}{'-smoke' if smoke else ''}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    schema_dir = Path("src/sparsemp/schemas")
    reference = REFERENCE["workloads"].get(name, {}) if (
        seed == REFERENCE["seed"] and not smoke) else {}

    setups: list[float] = []
    probe_failures = 0
    provenance = None
    probe_cfg = run_dir / "probe_config.json"
    probe_cfg.write_text(json.dumps(work.make_config(seed, 0, smoke)))
    for i in range(SETUP_PROBES):
        res = spawn("setup", work.command, probe_cfg, run_dir / f"probe{i}", deadline)
        if res["rc"] == 0 and res["setup_s"] is not None:
            setups.append(res["setup_s"])
            provenance = provenance or res["provenance"]
        else:
            probe_failures += 1

    commands: list[dict] = []
    first_heads: dict[str, dict] = {}
    t_measure = now()
    k = 0
    while (k < (2 if trace else 1) or now() - t_measure < seconds) and now() < deadline:
        cfg = work.make_config(seed, k, smoke)
        key = json.dumps(cfg, sort_keys=True)
        cfg_path = run_dir / f"cmd{k}_config.json"
        cfg_path.write_text(key)
        # a traced run alternates plain and traced commands, for the overhead
        mode = "trace" if trace and k % 2 == 1 else "run"
        out_dir = run_dir / f"cmd{k}"
        res = spawn(mode, work.command, cfg_path, out_dir, deadline)
        checker = Checker(schema_dir)
        checker.expect(res["rc"] == 0, f"exit code {res['rc']}")
        checker.expect(res["setup_s"] is not None, "no campaign call recorded")
        try:
            heads = work.check(checker, cfg, out_dir)
        except (KeyError, ValueError, TypeError) as exc:
            heads = {}
            checker.fail(f"malformed report: {exc!r}")
        if key in first_heads:
            for h, v in first_heads[key].items():
                checker.expect(h in heads and (heads[h] == v or isinstance(v, float)
                                               and close(heads[h], v)),
                               f"headline {h} differs between commands of one run")
        elif not checker.problems:
            first_heads[key] = heads
        compare_reference(checker, heads, reference)
        for problem in checker.problems:
            print(f"FAILED {name} cmd{k}: {problem}")
        res.update(mode=mode, problems=checker.problems, headlines=heads, reps=work.reps(cfg),
                   config_sha256=hashlib.sha256(key.encode()).hexdigest())
        if res["setup_s"] is not None:
            setups.append(res["setup_s"])
        if mode == "trace" and res["spans"] is not None:
            res["layers"] = layer_metrics(res, out_dir)
        commands.append(res)
        k += 1
    return finish(name, seed, trace, commands, setups, probe_failures, provenance,
                  run_dir, smoke)


def finish(name: str, seed: int, trace: bool, commands: list[dict], setups: list[float],
           probe_failures: int, provenance: dict | None, run_dir: Path, smoke: bool) -> dict:
    """Reduce one run's commands to its metrics, print them and save result.json."""
    plain = [c for c in commands if c["mode"] == "run"]
    traced = [c for c in commands if "layers" in c]
    failed = sum(1 for c in commands if c["problems"]) + probe_failures
    attempted = len(commands) + SETUP_PROBES
    samples = {
        "wall_s": [c["wall_s"] for c in plain],
        "reps_per_s": [c["reps"] / (c["wall_s"] - c["setup_s"])
                       for c in plain if c["setup_s"] is not None],
        "setup_s": setups,
        "peak_rss_mib": [c["rss_mib"] for c in plain],
    }
    units = dict(END_TO_END)
    if trace:
        units = dict(PER_LAYER)
        samples = {m: [c["layers"][m] for c in traced] for m in PER_LAYER
                   if not m.startswith("trace.overhead")}
        overhead = [statistics.median([c["wall_s"] for c in traced])
                    - statistics.median([c["wall_s"] for c in plain])] if traced and plain else []
        samples["trace.overhead_s"] = overhead

    metrics, spread = {}, {}
    for metric, unit in units.items():
        vals = samples.get(metric) or []
        if not vals:
            print(f"error: {name}: no samples for {metric}", file=sys.stderr)
            return {"ok": False}
        q1, med, q3 = quartiles(vals)
        metrics[metric] = {"value": med, "unit": unit}
        spread[metric] = {"q1": q1, "q3": q3, "n": len(vals)}
        print(f"{name} {metric} = {med:.6g} {unit} "
              f"(median of {len(vals)}, q1 {q1:.6g}, q3 {q3:.6g})")
    print(f"{name} error_rate = {failed / attempted:.6g} fraction ({failed} of {attempted} commands)")

    prov = dict(provenance or {}, git_commit=git_commit(), nproc=os.cpu_count(),
                cpus_usable=len(os.sched_getaffinity(0)), blas_threads=BLAS_THREADS,
                workers=WORKERS, seed=seed, workload=name, smoke=smoke,
                config_sha256=commands[0]["config_sha256"] if commands else None)
    print("provenance " + json.dumps(prov, sort_keys=True))
    with open(run_dir / "spans.jsonl", "w", encoding="utf-8") as fh:
        for k, c in enumerate(commands):
            for sid, sname, s0, s1, parent, extra in c["spans"] or []:
                fh.write(json.dumps({"run": f"{run_dir.name}/cmd{k}", "id": sid,
                                     "name": sname, "start": s0, "end": s1,
                                     "parent": parent, "attrs": extra}) + "\n")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    detail = [{k: v for k, v in c.items() if k not in ("spans", "layers")} for c in commands]
    (run_dir / "result.json").write_text(json.dumps(
        dict(result, spread=spread, provenance=prov, commands=detail), indent=1))
    return dict(result, ok=True)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    which = ap.add_mutually_exclusive_group(required=True)
    which.add_argument("--workload", choices=sorted(WORKLOADS))
    which.add_argument("--all", action="store_true", help="run every workload")
    ap.add_argument("--seed", type=int, default=REFERENCE["seed"],
                    help="workload seed (default: the seed with reference values)")
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (0 <= args.seed < 2**63):
        ap.error("--seed must be a nonnegative 63-bit integer")
    if not Path("src/sparsemp/cli.py").is_file():
        print("error: run from the root of a sparsemp checkout (src/sparsemp missing)",
              file=sys.stderr)
        return 2
    compileall.compile_dir("src/sparsemp", quiet=1)

    names = list(WORKLOADS) if args.all else [args.workload]
    results = [run_workload(n, args.seed, args.seconds, bool(args.trace)) for n in names]
    if not all(r["ok"] for r in results):
        return 1
    if args.all:
        final = {"correct": all(r["correct"] for r in results),
                 "attempted": sum(r["attempted"] for r in results),
                 "failed": sum(r["failed"] for r in results),
                 "metrics": {f"{n}.{m}": v for n, r in zip(names, results)
                             for m, v in r["metrics"].items()}}
    else:
        final = {k: results[0][k] for k in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
