"""Run every CLI command in two checkouts and compare their reports file by file.

    python3 scripts/output_drift.py PARENT_DIR CHANGE_DIR

PARENT_DIR and CHANGE_DIR are two source checkouts (a git clone or a
``git archive`` of each commit).  Each case below runs ``python -m
sparsemp.cli COMMAND --config CFG --out-dir OUT --workers 1`` once per
checkout, with that checkout's ``src/`` on PYTHONPATH and the BLAS pinned to
one thread.  The cases are the six payloads of acceptance criterion 10
(``tests/test_acceptance.py``) plus ``tn-moments`` at q = 2 and at a ladder
whose first level v = 0.01 is not a0 log^4(n)/n round-tripped exactly
(n = 200), at q = 0 and q = 2.

For each output file it prints ``identical`` when the bytes agree, and
otherwise the largest relative difference |a - b| / max(|a|, |b|) over the
numbers of the two files, read in order.  A file that only one side wrote,
a different exit code, or a difference outside the numbers is printed as
such.  The exit code is 0 when every file is identical and 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

SIDES = ("parent", "change")

_MODEL = {"n": 60, "m": 120, "p": 0.5, "dist": "gaussian", "delta": 2.0, "seed": 55}
_TN = {"model": {**_MODEL, "n": 20, "m": 40}, "u": 0.9, "v": 0.5}
_TN_LOW_V = {"model": {**_MODEL, "n": 200, "m": 400}, "u": 0.9, "v": 0.01,
             "replications": 1000, "gamma": 0.5}

# (case name, command, config payload)
CASES = (
    ("spectrum", "spectrum", {"model": {**_MODEL, "p": 1.0}, "bins": 21}),
    ("locallaw", "locallaw", {
        "sweep": {"dist": "gaussian", "delta": 2.0, "seed": 5,
                  "n_values": [40, 60], "y": 0.5, "p": 0.5},
        "domain": {"kind": "d_mu", "mu": 0.2, "a0": 0.05, "V": 1.0,
                   "grid_u": 2, "grid_v": 2},
        "replications": 2, "C0": 1.0, "max_entry_stride": 1}),
    ("config-analyze", "config-analyze", {
        "sweep": {"dist": "pareto", "alpha": 6.0, "delta": 1.0, "seed": 9,
                  "n_values": [30], "y": 0.5, "np_product": 15.0},
        "threshold_c": 0.5, "replications": 100, "report_sample": True}),
    ("concentration", "concentration", {
        "k": 3, "q": 8, "xi": {"dist": "rademacher"}, "eta": {"dist": "rademacher"},
        "mode": "exact", "matrix_kind": "gaussian", "matrix_seed": 4, "corpus": 3}),
    ("audit", "audit", {"model": _MODEL, "u": 0.9, "v": 0.5, "tolerance": 1e-8}),
    ("tn-moments-q0", "tn-moments", {**_TN, "q": 0, "replications": 1000, "gamma": 10.0}),
    ("tn-moments-q2", "tn-moments", {**_TN, "q": 2, "replications": 1000, "gamma": 0.05}),
    ("tn-moments-low-v-q0", "tn-moments", {**_TN_LOW_V, "q": 0}),
    ("tn-moments-low-v-q2", "tn-moments", {**_TN_LOW_V, "q": 2}),
)

_NUMBER = re.compile(r"-?(?:\d+\.?\d*(?:[eE][-+]?\d+)?|inf|nan)")


def run_case(checkout: Path, command: str, cfg: Path, out: Path) -> int:
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    proc = subprocess.run([sys.executable, "-m", "sparsemp.cli", command, "--config",
                           str(cfg), "--out-dir", str(out), "--workers", "1"],
                          env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        print(f"  {checkout.name}: exit {proc.returncode}: {proc.stderr.strip()}")
    return proc.returncode


def compare(a: bytes, b: bytes) -> str:
    """"identical", or the largest relative difference between the files' numbers."""
    if a == b:
        return "identical"
    ta, tb = a.decode(), b.decode()
    if _NUMBER.sub("#", ta) != _NUMBER.sub("#", tb):
        return "differs outside its numbers"
    worst = 0.0
    for x, y in zip(map(float, _NUMBER.findall(ta)), map(float, _NUMBER.findall(tb))):
        if x != y:
            scale = max(abs(x), abs(y))
            worst = max(worst, abs(x - y) / scale if scale else 0.0)
    return f"max relative difference {worst:.3g}"


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("parent_dir", type=Path)
    ap.add_argument("change_dir", type=Path)
    args = ap.parse_args(argv)
    dirs = {"parent": args.parent_dir.resolve(), "change": args.change_dir.resolve()}
    for side, d in dirs.items():
        if not (d / "src" / "sparsemp" / "cli.py").is_file():
            ap.error(f"{side} checkout {d} has no src/sparsemp/cli.py")

    all_identical = True
    with tempfile.TemporaryDirectory(prefix="output_drift_") as tmp:
        tmp = Path(tmp)
        for name, command, payload in CASES:
            cfg = tmp / f"{name}.json"
            cfg.write_text(json.dumps(payload), encoding="utf-8")
            outs = {side: tmp / side / name for side in SIDES}
            print(f"{name}:", flush=True)
            codes = {side: run_case(dirs[side], command, cfg, outs[side]) for side in SIDES}
            if codes["parent"] != codes["change"]:
                print(f"  exit code {codes['parent']} -> {codes['change']}")
                all_identical = False
            files = {side: {p.name: p.read_bytes() for p in outs[side].glob("*")}
                     for side in SIDES}
            for fname in sorted(files["parent"].keys() | files["change"].keys()):
                if fname not in files["change"] or fname not in files["parent"]:
                    only = "parent" if fname in files["parent"] else "change"
                    verdict = f"written by the {only} only"
                else:
                    verdict = compare(files["parent"][fname], files["change"][fname])
                all_identical &= verdict == "identical"
                print(f"  {fname}: {verdict}", flush=True)
    return 0 if all_identical else 1


if __name__ == "__main__":
    sys.exit(main())
