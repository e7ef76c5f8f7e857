"""Alternating parent/change runs of the campaign benchmark, recorded as BENCH_<tag>.json.

    python3 scripts/bench_pairs.py PARENT_DIR CHANGE_DIR --workload W --pairs N --tag T
        [--seed S] [--parent-rev REV] [--change-rev REV]

PARENT_DIR and CHANGE_DIR are two source checkouts (a git clone or a
``git archive`` of each commit).  Pair i runs ``python3 perfbench/run.py
--workload W --seconds S`` once in each checkout, with S the ``run_seconds``
of the change's BENCHMARK.json, the parent first in even pairs and the change
first in odd ones, so that drift of the host's speed favours neither side.
Each run uses the benchmark code of its own checkout; compare only checkouts
whose ``perfbench/`` is the same.

The record holds every run's metrics, each side's median and quartiles per
metric, how many pairs the change won (the direction of "better" is read from
the change's BENCHMARK.json; ties count for neither side) and whether that
meets the rule for a speed claim: every change run passed the benchmark's
gate, the change failed no more operations than the parent, at least nine
tenths of the pairs were won and the median gain is larger than the parent's
interquartile range.  Provenance gives both revisions, a SHA-256 over each
checkout's ``src/`` and ``perfbench/``, nproc, and the numpy and scipy
versions.  The record goes to ``BENCH_<tag>.json`` at the root of the
repository that holds this script.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np
import scipy

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def tree_sha256(checkout: Path, subdir: str) -> str:
    """SHA-256 over the relative paths and contents of the files under ``subdir``."""
    digest = hashlib.sha256()
    base = checkout / subdir
    for path in sorted(p for p in base.rglob("*")
                       if p.is_file() and "__pycache__" not in p.parts):
        digest.update(path.relative_to(checkout).as_posix().encode() + b"\0")
        digest.update(path.read_bytes() + b"\0")
    return digest.hexdigest()


def git_rev(checkout: Path) -> str | None:
    try:
        out = subprocess.run(["git", "-C", str(checkout), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


def run_once(checkout: Path, workload: str, seed: int | None, seconds: float) -> dict:
    """One benchmark run in ``checkout``; returns the JSON of its last stdout line."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seconds", str(seconds)]
    if seed is not None:
        argv += ["--seed", str(seed)]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"benchmark failed in {checkout} (exit {proc.returncode}):\n"
                         f"{proc.stdout}\n{proc.stderr}")
    result = json.loads(lines[-1])
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()}}


def quartiles(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": med, "q3": q3}


def gate(runs: list[dict]) -> dict:
    """Per side: did every run pass the benchmark's gate, and how many operations failed."""
    return {side: {"all_correct": all(r["correct"] for r in runs if r["side"] == side),
                   "failed": sum(r["failed"] for r in runs if r["side"] == side)}
            for side in SIDES}


def summarize(runs: list[dict], pairs: int, better: dict[str, str]) -> dict:
    by_side = {side: [r for r in runs if r["side"] == side] for side in SIDES}
    g = gate(runs)
    gate_ok = g["change"]["all_correct"] and g["change"]["failed"] <= g["parent"]["failed"]
    summary = {}
    for metric in runs[0]["metrics"]:
        sign = 1.0 if better.get(metric, "lower") == "lower" else -1.0
        vals = {side: [r["metrics"][metric] for r in by_side[side]] for side in SIDES}
        stats = {side: quartiles(vals[side]) for side in SIDES}
        wins = sum(1 for a, b in zip(vals["parent"], vals["change"])
                   if sign * (a - b) > 0)
        losses = sum(1 for a, b in zip(vals["parent"], vals["change"])
                     if sign * (a - b) < 0)
        gain = sign * (stats["parent"]["median"] - stats["change"]["median"])
        parent_iqr = stats["parent"]["q3"] - stats["parent"]["q1"]
        summary[metric] = {
            "better": "lower" if sign > 0 else "higher",
            **stats,
            "change_wins": wins,
            "change_losses": losses,
            "median_gain": gain,
            "median_ratio_change_over_parent":
                stats["change"]["median"] / stats["parent"]["median"]
                if stats["parent"]["median"] else None,
            "parent_iqr": parent_iqr,
            "claim_holds": gate_ok and wins >= 0.9 * pairs and gain > parent_iqr,
        }
    return summary


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("parent_dir", type=Path)
    ap.add_argument("change_dir", type=Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--tag", required=True)
    ap.add_argument("--seed", type=int, default=None,
                    help="workload seed (default: the benchmark's reference seed)")
    ap.add_argument("--parent-rev", help="revision label when PARENT_DIR is no git checkout")
    ap.add_argument("--change-rev", help="revision label when CHANGE_DIR is no git checkout")
    args = ap.parse_args(argv)
    if args.pairs < 2:
        ap.error("--pairs must be at least 2")
    dirs = {"parent": args.parent_dir.resolve(), "change": args.change_dir.resolve()}
    for side, d in dirs.items():
        if not (d / "perfbench" / "run.py").is_file():
            ap.error(f"{side} checkout {d} has no perfbench/run.py")

    spec = json.loads((dirs["change"] / "BENCHMARK.json").read_text(encoding="utf-8"))
    better = {m["name"]: m["better"] for m in spec.get("end_to_end", [])}
    seconds = float(spec["run_seconds"])

    runs = []
    for i in range(args.pairs):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        for position, side in enumerate(order):
            res = run_once(dirs[side], args.workload, args.seed, seconds)
            runs.append({"pair": i, "side": side, "position": position, **res})
            print(f"pair {i} {side}: " + ", ".join(
                f"{k}={v:.4g}" for k, v in res["metrics"].items())
                + ("" if res["correct"] else " (FAILED the gate)"), flush=True)

    revs = {"parent": args.parent_rev, "change": args.change_rev}
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": seconds,
        "pairs": args.pairs,
        "order": "parent first in even pairs, change first in odd pairs",
        "provenance": {
            **{f"{side}_rev": revs[side] or git_rev(dirs[side]) or "unknown"
               for side in SIDES},
            **{f"{side}_{sub}_sha256": tree_sha256(dirs[side], sub)
               for side in SIDES for sub in ("src", "perfbench")},
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "machine": platform.machine(),
        },
        "gate": gate(runs),
        "summary": summarize(runs, args.pairs, better),
        "runs": runs,
    }
    out = ROOT / f"BENCH_{args.tag}.json"
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    for metric, s in record["summary"].items():
        print(f"{metric}: parent {s['parent']['median']:.4g} "
              f"[{s['parent']['q1']:.4g}, {s['parent']['q3']:.4g}], change "
              f"{s['change']['median']:.4g} [{s['change']['q1']:.4g}, "
              f"{s['change']['q3']:.4g}], change won {s['change_wins']}/{args.pairs}"
              f"{', claim holds' if s['claim_holds'] else ''}")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
