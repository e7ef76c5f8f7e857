"""Toy-size smoke check of the benchmark harness and its correctness gate.

    python3 perfbench/smoke.py

Runs every workload at toy size (one plain and one traced command each) and
requires that every command passes the gate and every per-layer metric is
reported.  Then it damages copies of the reports, and perturbs the headline
numbers against their own values, in ways the gate must catch.  Takes about
half a minute; exits 0 when all checks hold.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import run
from workloads import WORKLOADS, Checker, compare_reference

SEED = 3


def _edit_json(path: Path, edit) -> None:
    payload = json.loads(path.read_text())
    edit(payload)
    path.write_text(json.dumps(payload))


def _first_json(out: Path) -> Path:
    return sorted(out.glob("*.json"))[0]


def _drop_report(out: Path) -> None:
    _first_json(out).unlink()


def _break_schema(out: Path) -> None:
    _edit_json(_first_json(out), lambda d: d.update(schema_version=99))


def _wrong_params(out: Path) -> None:
    _edit_json(_first_json(out), lambda d: d["params"].update(seed=d["params"]["seed"] + 1))


def _toggle_max_entry(out: Path) -> None:
    def edit(d):
        pp = d["per_point"][1]
        pp["max_entry"] = None if pp["max_entry"] is not None else 1.0
    _edit_json(_first_json(out), edit)


def _fractional_count(out: Path) -> None:
    path = out / "inadmissibility.csv"
    lines = path.read_text().splitlines()
    n, p, _, se = lines[1].split(",")
    lines[1] = ",".join([n, p, "0.0123", se])
    path.write_text("\n".join(lines) + "\n")


def _drop_row(out: Path) -> None:
    _edit_json(out / "audit_report.json", lambda d: d["rows"].pop())


def _bad_convention(out: Path) -> None:
    _edit_json(out / "audit_report.json", lambda d: d.update(convention=[1.0, 1.0, 1.0]))


def _big_residual(out: Path) -> None:
    _edit_json(out / "audit_report.json", lambda d: d.update(max_residual=1.0))


DAMAGE = {
    "locallaw": [_drop_report, _break_schema, _wrong_params, _toggle_max_entry],
    "config-analyze": [_drop_report, _break_schema, _fractional_count],
    "audit": [_drop_report, _break_schema, _wrong_params, _drop_row, _bad_convention,
              _big_residual],
}


def _perturb(value):
    if isinstance(value, float):
        return value * (1.0 + 1e-6)
    if isinstance(value, int):
        return value + 1
    return [-v for v in value]


def main() -> int:
    if not Path("src/sparsemp/cli.py").is_file():
        print("error: run from the root of a sparsemp checkout", file=sys.stderr)
        return 2
    schema_dir = Path("src/sparsemp/schemas")
    errors: list[str] = []
    for name, work in WORKLOADS.items():
        result = run.run_workload(name, SEED, 0.0, trace=True, smoke=True)
        if not (result["ok"] and result["correct"]):
            errors.append(f"{name}: toy run failed the gate")
            continue
        missing = set(run.PER_LAYER) - set(result["metrics"])
        if missing:
            errors.append(f"{name}: per-layer metrics missing: {sorted(missing)}")

        run_dir = run.OUT_ROOT / f"{name}-seed{SEED}-trace1-smoke"
        cfg = json.loads((run_dir / "cmd0_config.json").read_text())
        clean = Checker(schema_dir)
        heads = work.check(clean, cfg, run_dir / "cmd0")
        if clean.problems or not heads:
            errors.append(f"{name}: clean reports rejected: {clean.problems}")
        for damage in DAMAGE[work.command]:
            copy = run_dir / f"damaged{damage.__name__}"
            shutil.copytree(run_dir / "cmd0", copy)
            damage(copy)
            checker = Checker(schema_dir)
            work.check(checker, cfg, copy)
            if not checker.problems:
                errors.append(f"{name}: gate missed damage {damage.__name__}")
        for key, value in heads.items():
            checker = Checker(schema_dir)
            compare_reference(checker, heads, {key: _perturb(value)})
            if not checker.problems:
                errors.append(f"{name}: gate missed a changed headline {key}")

    for err in errors:
        print(f"SMOKE FAILED {err}")
    print("smoke ok" if not errors else f"smoke failed: {len(errors)} problem(s)")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
