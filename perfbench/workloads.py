"""Workload configs and the correctness gate for the campaign benchmark.

Each workload is one ``sparsemp`` CLI command on a config made from the
benchmark seed.  ``check`` reads the reports a command wrote and returns the
problems it finds plus the command's headline numbers; a command with any
problem counts as failed.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import jsonschema

# Floats are compared to the references within this relative tolerance: wide
# enough for BLAS reordering or an exact change of algorithm (singular values
# agree to ~1e-14), far below any change of the sampled matrices.
REL_TOL = 1e-8
ABS_TOL = 1e-12

# Audit commands of one run cycle through this many replications.
AUDIT_REPLICATIONS = 4

SCHEMAS = {
    "locallaw": "locallaw_report.schema.json",
    "config": "config_report.schema.json",
    "audit": "audit_report.schema.json",
}


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    why: str
    make_config: Callable[[int, int, bool], dict]   # (seed, command index, smoke)
    reps: Callable[[dict], int]                      # MC replications per command
    check: Callable[["Checker", dict, Path], dict]   # headline numbers


class Checker:
    """Collects problems while one command's reports are read."""

    def __init__(self, schema_dir: Path):
        self.schema_dir = schema_dir
        self.problems: list[str] = []
        self._schemas: dict[str, dict] = {}

    def fail(self, msg: str) -> None:
        self.problems.append(msg)

    def expect(self, ok: bool, msg: str) -> bool:
        if not ok:
            self.fail(msg)
        return ok

    def report(self, path: Path, schema: str) -> dict | None:
        """Load a JSON report and validate it against its schema."""
        if not path.is_file():
            self.fail(f"missing report {path.name}")
            return None
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            self.fail(f"{path.name}: not JSON ({exc})")
            return None
        if schema not in self._schemas:
            self._schemas[schema] = json.loads(
                (self.schema_dir / SCHEMAS[schema]).read_text(encoding="utf-8"))
        try:
            jsonschema.validate(payload, self._schemas[schema])
        except jsonschema.ValidationError as exc:
            self.fail(f"{path.name}: schema violation: {exc.message}")
            return None
        return payload

    def rows(self, path: Path) -> list[dict[str, str]]:
        if not path.is_file():
            self.fail(f"missing report {path.name}")
            return []
        with open(path, newline="", encoding="utf-8") as fh:
            return list(csv.DictReader(fh))

    def params(self, name: str, got: dict, want: dict) -> None:
        """The params a report echoes must equal the workload config."""
        same = set(got) == set(want) and all(
            math.isclose(got[k], want[k], rel_tol=1e-12)
            if isinstance(want[k], float) and isinstance(got[k], (int, float))
            else got[k] == want[k]
            for k in want)
        self.expect(same, f"{name}: params {got} differ from config {want}")


def close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL)


def _sweep_params(sweep: dict, n: int) -> dict:
    """The model params the CLI derives for one n of a sweep config."""
    out = {"n": n, "m": round(n / sweep["y"]), "p": sweep["np_product"] / n,
           "delta": sweep["delta"], "seed": sweep["seed"], "dist": sweep["dist"]}
    if "alpha" in sweep:
        out["alpha"] = sweep["alpha"]
    return out


# ---------------------------------------------------------------------------
# locallaw


def _locallaw_config(n_values, grid_u, grid_v, stride):
    def make(seed: int, k: int, smoke: bool) -> dict:
        ns, gu, gv = ([60, 80], 2, 3) if smoke else (n_values, grid_u, grid_v)
        return {
            "sweep": {"dist": "gaussian", "delta": 2.0, "seed": seed,
                      "n_values": ns, "y": 0.5, "np_product": 50.0},
            "domain": {"kind": "d_mu", "mu": 0.2, "a0": 0.1, "V": 1.0,
                       "grid_u": gu, "grid_v": gv},
            "replications": 1,
            "C0": 1.0,
            "max_entry_stride": stride,
        }
    return make


def check_locallaw(c: Checker, cfg: dict, out: Path) -> dict:
    sweep, stride = cfg["sweep"], cfg["max_entry_stride"]
    points = 2 * cfg["domain"]["grid_u"] * cfg["domain"]["grid_v"]
    heads: dict[str, Any] = {}
    summary = {int(r["n"]): r for r in c.rows(out / "locallaw_summary.csv")}
    for n in sweep["n_values"]:
        rep = c.report(out / f"locallaw_n{n}.json", "locallaw")
        c.expect((out / f"locallaw_points_n{n}.csv").is_file(),
                 f"missing report locallaw_points_n{n}.csv")
        if rep is None:
            continue
        c.params(f"locallaw_n{n}", rep["params"], _sweep_params(sweep, n))
        c.expect(rep["replications"] == cfg["replications"] and rep["C0"] == cfg["C0"],
                 f"locallaw_n{n}: replications/C0 differ from config")
        c.expect(len(rep["per_point"]) == points,
                 f"locallaw_n{n}: {len(rep['per_point'])} grid points, want {points}")
        maxes = [pp["max_entry"] for pp in rep["per_point"] if pp["max_entry"] is not None]
        want = math.ceil(len(rep["per_point"]) / stride) if stride else 0
        c.expect(len(maxes) == want,
                 f"locallaw_n{n}: max_entry on {len(maxes)} points, want {want}")
        agg = rep["aggregates"]
        c.expect(len(agg["sup_lambda_per_replication"]) == cfg["replications"],
                 f"locallaw_n{n}: wrong number of replications in aggregates")
        row = summary.get(n)
        c.expect(row is not None and close(float(row["sup_ratio"]), agg["sup_ratio"]),
                 f"locallaw_summary.csv disagrees with locallaw_n{n}.json")
        heads[f"n{n}.sup_ratio"] = agg["sup_ratio"]
        heads[f"n{n}.median_sup_lambda"] = agg["median_sup_lambda"]
        if maxes:
            heads[f"n{n}.max_entry"] = max(maxes)
    return heads


# ---------------------------------------------------------------------------
# config-analyze


def _admissibility_config(seed: int, k: int, smoke: bool) -> dict:
    return {
        "sweep": {"dist": "pareto", "alpha": 6.0, "delta": 1.0, "seed": seed,
                  "n_values": [60, 80] if smoke else [400, 800], "y": 0.5,
                  "np_product": 50.0},
        "threshold_c": 0.6,
        "replications": 100,
        "report_sample": True,
    }


def check_admissibility(c: Checker, cfg: dict, out: Path) -> dict:
    sweep, reps = cfg["sweep"], cfg["replications"]
    heads: dict[str, Any] = {}
    rows = {int(r["n"]): r for r in c.rows(out / "inadmissibility.csv")}
    c.expect(sorted(rows) == sorted(sweep["n_values"]),
             f"inadmissibility.csv has n values {sorted(rows)}")
    for n in sweep["n_values"]:
        want = _sweep_params(sweep, n)
        rep = c.report(out / f"config_report_n{n}.json", "config")
        if rep is not None:
            c.expect(rep["typical_count"] + rep["deviant_count"] == n + want["m"],
                     f"config_report_n{n}: deviant + typical != n + m")
        row = rows.get(n)
        if row is None:
            continue
        c.expect(math.isclose(float(row["p"]), want["p"], rel_tol=1e-12),
                 f"inadmissibility.csv: p for n={n} differs from config")
        count = float(row["estimate"]) * reps
        if c.expect(abs(count - round(count)) < 1e-6 and 0 <= round(count) <= reps,
                    f"inadmissibility.csv: estimate for n={n} is not a count of {reps}"):
            heads[f"n{n}.inadmissible"] = round(count)
    return heads


# ---------------------------------------------------------------------------
# audit


def _audit_config(seed: int, k: int, smoke: bool) -> dict:
    n, m = (20, 40) if smoke else (200, 400)
    return {"model": {"n": n, "m": m, "p": 0.5, "dist": "gaussian", "delta": 2.0,
                      "seed": seed},
            "u": 0.9, "v": 0.5, "replication": k % AUDIT_REPLICATIONS,
            "tolerance": 1e-8}


def check_audit(c: Checker, cfg: dict, out: Path) -> dict:
    rep = c.report(out / "audit_report.json", "audit")
    if rep is None:
        return {}
    model = cfg["model"]
    c.params("audit_report", rep["params"], model)
    c.expect(rep["z"] == {"u": cfg["u"], "v": cfg["v"]}
             and rep["tolerance"] == cfg["tolerance"],
             "audit_report: z/tolerance differ from config")
    c.expect([r["j"] for r in rep["rows"]] == list(range(model["n"])),
             f"audit_report: {len(rep['rows'])} rows, want {model['n']}")
    c.expect(rep["convention"] == [-1.0, -1.0, 1.0],
             f"audit_report: convention {rep['convention']}, want [-1, -1, 1]")
    c.expect(rep["max_residual"] <= cfg["tolerance"],
             f"audit_report: max_residual {rep['max_residual']:.3e} above tolerance")
    return {f"rep{cfg['replication']}.t_n.re": rep["t_n"]["re"],
            f"rep{cfg['replication']}.t_n.im": rep["t_n"]["im"]}


def _sweep_reps(cfg: dict) -> int:
    return cfg["replications"] * len(cfg["sweep"]["n_values"])


WORKLOADS = {w.name: w for w in (
    Workload("locallaw-values", "locallaw",
             "values-only SVD route of locallaw_scan (criterion 5 shape); "
             "target of the spectrum change",
             _locallaw_config([1000, 2000], 6, 8, 0),
             _sweep_reps,
             check_locallaw),
    Workload("locallaw-maxentry", "locallaw",
             "full SVD plus blockwise max-entry scans (criterion 8 shape); "
             "the vectors route and the only memory-heavy workload",
             _locallaw_config([1000], 4, 6, 10),
             _sweep_reps,
             check_locallaw),
    Workload("admissibility", "config-analyze",
             "many cheap sampling + classification replications, no spectrum "
             "(criterion 7 shape); bypasses every spectral change",
             _admissibility_config,
             _sweep_reps,
             check_admissibility),
    Workload("identity-audit", "audit",
             "n minor SVDs per audit; the only workload on the correction-terms layer",
             _audit_config,
             lambda cfg: 1,
             check_audit),
)}


def compare_reference(c: Checker, heads: dict, ref: dict) -> None:
    """Headline numbers of the default seed must match the recorded values."""
    for key, want in ref.items():
        got = heads.get(key)
        if got is None:
            c.fail(f"headline {key} missing")
        elif isinstance(want, float):
            c.expect(close(got, want), f"headline {key} = {got!r}, reference {want!r}")
        else:
            c.expect(got == want, f"headline {key} = {got!r}, reference {want!r}")
