import contextlib
import copy
import importlib.util
import io
import json
import math
import subprocess
import sys
from dataclasses import fields, is_dataclass
from pathlib import Path
from typing import get_type_hints

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_array

import sparsemp as sm
from sparsemp import cli
from sparsemp.cli import (AuditConfig, ConcentrationConfig, ConfigAnalyzeConfig,
                          DomainTemplate, LocalLawConfig, SpectrumConfig,
                          SweepConfig, TnMomentsConfig, _load, main)
from sparsemp.locallaw import TnMomentResult
from sparsemp.model import EntryDistribution, ModelParams

from conftest import watch_solver_input


def write_cfg(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def read_all(out_dir: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}


MODEL = {"n": 120, "m": 240, "p": 1.0, "dist": "gaussian", "delta": 2.0, "seed": 11}


def test_unknown_subcommand_usage_exit():
    assert main(["bogus"]) == 64
    assert main([]) == 64


def test_spectrum_runs_and_is_deterministic(tmp_path):
    cfg = write_cfg(tmp_path, "spec.json", {"model": MODEL, "bins": 31})
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert main(["spectrum", "--config", cfg, "--out-dir", str(out1)]) == 0
    assert main(["spectrum", "--config", cfg, "--out-dir", str(out2)]) == 0
    files = read_all(out1)
    assert set(files) == {"singular_values.csv", "esd_histogram.csv",
                          "spectrum_summary.json"}
    assert files == read_all(out2)
    summary = json.loads(files["spectrum_summary.json"])
    assert summary["sup_gap_interior"] < 0.5
    header = files["esd_histogram.csv"].decode().splitlines()[0]
    assert header == "bin_left,bin_right,count,density_emp,density_mp_binavg,density_mp_mid"
    lines = files["singular_values.csv"].decode().splitlines()
    assert lines[0] == "index,singular_value"
    assert len(lines) == 1 + MODEL["n"]
    x = sm.sample_matrix(_load(ModelParams, MODEL), 0)
    top = sm.singular_values(x.scaled, vectors=False).singulars[0]
    assert float(lines[1].split(",")[1]) == pytest.approx(top, rel=1e-15)


def test_spectrum_dense_calibration_gap(tmp_path):
    # dense p=1 run at n=2000: the interior histogram must hug the MP density
    model = {"n": 2000, "m": 4000, "p": 1.0, "dist": "gaussian", "delta": 2.0,
             "seed": 99}
    cfg = write_cfg(tmp_path, "dense.json", {"model": model, "bins": 41})
    out = tmp_path / "out"
    assert main(["spectrum", "--config", cfg, "--out-dir", str(out)]) == 0
    summary = json.loads((out / "spectrum_summary.json").read_text())
    assert summary["sup_gap_interior"] < 0.05


def test_spectrum_rank_deficient_resolution(tmp_path):
    # m p = 3: about 5% of the rows are empty, so s has exact zeros.  The
    # Gram route resolves s only down to about sqrt(n eps) s_max: a zero reads
    # up to ~1e-8 s_max, every other value keeps full relative accuracy
    # above 1e-3 s_max, and no histogram count moves.
    model = {"n": 200, "m": 400, "p": 0.0075, "dist": "rademacher", "delta": 1.0,
             "seed": 4}
    cfg = write_cfg(tmp_path, "sparse.json", {"model": model})
    out = tmp_path / "out"
    assert main(["spectrum", "--config", cfg, "--out-dir", str(out)]) == 0
    x = sm.sample_matrix(ModelParams(n=200, m=400, p=0.0075,
                                     dist=EntryDistribution.rademacher(), delta=1.0,
                                     seed=4), 0)
    empty_rows = int(np.count_nonzero(~x.scaled.any(axis=1)))
    assert empty_rows > 0
    ref = np.linalg.svd(x.scaled, compute_uv=False)
    s = np.loadtxt(out / "singular_values.csv", delimiter=",", skiprows=1)[:, 1]
    assert s.shape == ref.shape and np.all(np.diff(s) <= 0) and s.min() >= 0.0
    top = ref[0]
    assert np.max(np.abs(s - ref)) <= 1e-7 * top
    big = ref >= 1e-3 * top
    assert np.max(np.abs(s[big] - ref[big]) / ref[big]) <= 1e-10
    assert np.count_nonzero(s < 1e-6 * top) == np.count_nonzero(ref < 1e-6 * top) >= empty_rows
    hist = np.loadtxt(out / "esd_histogram.csv", delimiter=",", skiprows=1)
    edges = np.append(hist[:, 0], hist[-1, 1])
    assert np.array_equal(hist[:, 2], np.histogram(np.concatenate([-ref, ref]), edges)[0])


@pytest.mark.parametrize("p, route", [(1 / 16, csr_array), (1.0, np.ndarray)])
def test_spectrum_solver_input(tmp_path, monkeypatch, p, route):
    solves = watch_solver_input(monkeypatch, cli)
    cfg = write_cfg(tmp_path, "spec.json", {"model": {**MODEL, "p": p}})
    assert main(["spectrum", "--config", cfg, "--out-dir", str(tmp_path / "o")]) == 0
    assert solves == [(route, (MODEL["n"], MODEL["m"]))]


def test_spectrum_bad_params_exit_2(tmp_path):
    cfg = write_cfg(tmp_path, "bad.json", {"model": {**MODEL, "n": 0}})
    assert main(["spectrum", "--config", cfg, "--out-dir", str(tmp_path / "o")]) == 2


def test_spectrum_missing_config_exit_2(tmp_path):
    assert main(["spectrum", "--config", str(tmp_path / "nope.json")]) == 2


def _locallaw_payload(grid_u=2, grid_v=2):
    return {
        "sweep": {"dist": "gaussian", "delta": 2.0, "seed": 5,
                  "n_values": [40, 60], "y": 0.5, "p": 0.5},
        "domain": {"kind": "d_mu", "mu": 0.2, "a0": 0.05, "V": 1.0,
                   "grid_u": grid_u, "grid_v": grid_v},
        "replications": 2,
        "C0": 1.0,
        "max_entry_stride": 0,
    }


def test_locallaw_sweep_outputs(tmp_path):
    cfg = write_cfg(tmp_path, "ll.json", _locallaw_payload())
    out = tmp_path / "out"
    assert main(["locallaw", "--config", cfg, "--out-dir", str(out)]) == 0
    summary = (out / "locallaw_summary.csv").read_text().strip().splitlines()
    assert summary[0] == "n,sup_ratio,fitted_K"
    assert len(summary) == 3
    for n in (40, 60):
        assert (out / f"locallaw_n{n}.json").exists()
        points = (out / f"locallaw_points_n{n}.csv").read_text().splitlines()
        assert points[0] == "u,v,lambda_abs,gamma,ratio,max_entry"
        assert len(points) == 1 + 8   # 2 x 2 grid over both sign bands of u
        assert points[1].endswith(",")   # max_entry empty when stride disabled
    # worker count must not change bytes
    out2 = tmp_path / "out2"
    assert main(["locallaw", "--config", cfg, "--out-dir", str(out2),
                 "--workers", "2"]) == 0
    assert read_all(out) == read_all(out2)


def _strict_json(text: str):
    def reject(token):
        raise ValueError(f"non-JSON constant {token}")
    return json.loads(text, parse_constant=reject)


def test_locallaw_one_replication_report_is_strict_json(tmp_path):
    payload = _locallaw_payload()
    payload["replications"] = 1
    cfg = write_cfg(tmp_path, "ll1.json", payload)
    out = tmp_path / "out"
    assert main(["locallaw", "--config", cfg, "--out-dir", str(out)]) == 0
    for n in (40, 60):
        report = _strict_json((out / f"locallaw_n{n}.json").read_text())
        assert report["aggregates"]["median_sup_lambda_stderr"] is None


def test_tn_report_with_one_survivor_round_trips(tmp_path):
    result = TnMomentResult(q=2, estimate=0.5, stderr=None, survivors=1,
                            replications=1000, envelope_c1=0.25, fitted_c=1.5)
    path = tmp_path / "tn_moments.json"
    cli._write_json(path, result.to_dict(), schema="tn_report.schema.json")
    assert _strict_json(path.read_text()) == result.to_dict()


def test_write_json_refuses_nan(tmp_path):
    # a NaN that reaches the writer is an error, never the non-JSON token NaN
    result = TnMomentResult(q=2, estimate=0.5, stderr=math.nan, survivors=2,
                            replications=1000, envelope_c1=0.25, fitted_c=1.5)
    path = tmp_path / "tn_moments.json"
    with pytest.raises(ValueError, match="JSON compliant"):
        cli._write_json(path, result.to_dict(), schema="tn_report.schema.json")
    assert "NaN" not in path.read_text()


def test_locallaw_stride_defaults_to_library():
    payload = _locallaw_payload()
    del payload["max_entry_stride"]
    assert _load(LocalLawConfig, payload).max_entry_stride == 10


def test_locallaw_empty_grid_exit_2(tmp_path):
    cfg = write_cfg(tmp_path, "ll0.json", _locallaw_payload(grid_u=0))
    assert main(["locallaw", "--config", cfg, "--out-dir", str(tmp_path / "x")]) == 2


CONFIG_ANALYZE = {
    "sweep": {"dist": "pareto", "alpha": 6.0, "delta": 1.0, "seed": 9,
              "n_values": [30, 50], "y": 0.5, "np_product": 15.0},
    "threshold_c": 0.5,
    "replications": 100,
    "report_sample": True,
}


def test_config_analyze_outputs(tmp_path):
    cfg = write_cfg(tmp_path, "ca.json", CONFIG_ANALYZE)
    out = tmp_path / "out"
    assert main(["config-analyze", "--config", cfg, "--out-dir", str(out)]) == 0
    rows = (out / "inadmissibility.csv").read_text().strip().splitlines()
    assert rows[0] == "n,p,estimate,stderr"
    assert len(rows) == 3
    n, p, est, se = rows[1].split(",")
    assert int(n) == 30 and float(p) == 0.5
    assert 0.0 <= float(est) <= 1.0
    assert (out / "config_report_n30.json").exists()
    report = json.loads((out / "config_report_n30.json").read_text())
    assert report["verdict"] in ("admissible", "deviant_inadmissible",
                                 "connected_inadmissible", "both")


CONCENTRATION = {"k": 2, "q": 2, "xi": {"dist": "rademacher"},
                 "eta": {"dist": "rademacher"}, "mode": "exact",
                 "matrix_kind": "identity", "corpus": 0}


def test_concentration_exact_identity(tmp_path):
    cfg = write_cfg(tmp_path, "cc.json", CONCENTRATION)
    out = tmp_path / "out"
    assert main(["concentration", "--config", cfg, "--out-dir", str(out)]) == 0
    report = json.loads((out / "concentration_report.json").read_text())
    assert report["lhs"] == 2.0
    assert report["lhs_exact"] is True
    assert not (out / "concentration_corpus.csv").exists()


def test_concentration_corpus(tmp_path):
    payload = {"k": 3, "q": 8, "xi": {"dist": "rademacher"},
               "eta": {"dist": "rademacher"}, "mode": "exact",
               "matrix_kind": "gaussian", "matrix_seed": 4, "corpus": 3}
    cfg = write_cfg(tmp_path, "cc2.json", payload)
    out = tmp_path / "out"
    assert main(["concentration", "--config", cfg, "--out-dir", str(out)]) == 0
    rows = (out / "concentration_corpus.csv").read_text().strip().splitlines()
    assert rows[0] == "trial,lhs,A1,A2,A3,fitted_C"
    assert len(rows) == 4
    for row in rows[1:]:
        assert float(row.split(",")[5]) >= 1.0


AUDIT = {"model": {"n": 50, "m": 100, "p": 0.5, "dist": "gaussian",
                   "delta": 2.0, "seed": 21},
         "u": 0.9, "v": 0.5, "tolerance": 1e-8}


def test_audit_exit_zero_and_report(tmp_path):
    cfg = write_cfg(tmp_path, "audit.json", AUDIT)
    out = tmp_path / "out"
    assert main(["audit", "--config", cfg, "--out-dir", str(out)]) == 0
    report = json.loads((out / "audit_report.json").read_text())
    assert report["max_residual"] < 1e-8
    assert report["convention"] == [-1.0, -1.0, 1.0]
    assert len(report["rows"]) == 50


def test_command_type_error_is_not_a_parameter_error(tmp_path, monkeypatch):
    def broken(cfg, out_dir, workers):
        raise TypeError("bug inside the command")

    monkeypatch.setitem(cli._COMMANDS, "audit", (AuditConfig, broken))
    cfg = write_cfg(tmp_path, "audit.json", {"model": MODEL})
    with pytest.raises(TypeError):
        main(["audit", "--config", cfg, "--out-dir", str(tmp_path / "o")])


TN_MOMENTS = {"model": {"n": 20, "m": 40, "p": 0.5, "dist": "gaussian",
                        "delta": 2.0, "seed": 23},
              "u": 0.9, "v": 0.5, "q": 0, "replications": 1000, "gamma": 10.0}


def test_tn_moments_q0(tmp_path):
    cfg = write_cfg(tmp_path, "tn.json", TN_MOMENTS)
    out = tmp_path / "out"
    assert main(["tn-moments", "--config", cfg, "--out-dir", str(out)]) == 0
    report = json.loads((out / "tn_moments.json").read_text())
    assert report["estimate"] == 1.0
    assert report["survivors"] == 1000


def test_tn_moments_q2_workers_identical(tmp_path):
    # q = 2 runs the vectors route and the correction terms in every survivor;
    # at gamma 0.05 about half the replications fail the ladder
    cfg = write_cfg(tmp_path, "tn2.json", {**TN_MOMENTS, "q": 2, "gamma": 0.05})
    outputs = []
    for workers in ("1", "2"):
        out = tmp_path / f"out{workers}"
        assert main(["tn-moments", "--config", cfg, "--out-dir", str(out),
                     "--workers", workers]) == 0
        outputs.append(read_all(out))
    assert outputs[0] == outputs[1]
    report = json.loads(outputs[0]["tn_moments.json"])
    assert 0 < report["survivors"] < 1000 and report["estimate"] > 0


def test_tn_moments_degenerate_exit_1(tmp_path):
    payload = {"model": {"n": 20, "m": 40, "p": 0.5, "dist": "gaussian",
                         "delta": 2.0, "seed": 23},
               "u": 0.9, "v": 0.5, "q": 0, "replications": 1000, "gamma": 0.0}
    cfg = write_cfg(tmp_path, "tn0.json", payload)
    assert main(["tn-moments", "--config", cfg, "--out-dir", str(tmp_path / "o")]) == 1


def test_tn_moments_long_ladder_exit_2(tmp_path):
    # s0 just above 1 would need about 3e12 ladder levels from v = 0.5 to V = 10
    code, err = run_cli(tmp_path, "tn-moments",
                        {**TN_MOMENTS, "s0": 1.000000000001, "V": 10.0})
    assert code == 2
    assert "s0=1.000000000001" in err
    assert not (tmp_path / "out").exists() or not any((tmp_path / "out").iterdir())


def test_tn_moments_overflowing_s0_exit_2(tmp_path):
    # s0^2 = 1e400 overflows a float before s0^l v reaches V
    code, err = run_cli(tmp_path, "tn-moments",
                        {**TN_MOMENTS, "v": 1e-300, "V": 1e10, "s0": 1e200})
    assert code == 2
    assert "s0=1e+200" in err


@pytest.mark.parametrize("command, payload", [("audit", AUDIT), ("tn-moments", TN_MOMENTS)])
@pytest.mark.parametrize("v", [0.0, -0.5, math.nan, math.inf])
def test_bad_v_exit_2_before_sampling(tmp_path, monkeypatch, command, payload, v):
    def no_sample(*args, **kwargs):
        raise AssertionError("a sample was drawn before the config was checked")

    monkeypatch.setattr(cli, "sample_matrix", no_sample)
    monkeypatch.setattr(sm.locallaw, "scaled_sample", no_sample)
    code, err = run_cli(tmp_path, command, {**payload, "v": v})
    assert code == 2
    assert "'v'" in err
    assert not (tmp_path / "out").exists() or not any((tmp_path / "out").iterdir())


def test_config_roundtrips():
    model = ModelParams(n=120, m=240, p=1.0, dist=EntryDistribution.gaussian(),
                        delta=2.0, seed=11)
    cases = [
        ({"model": MODEL, "replication": 2, "bins": 41},
         SpectrumConfig(model=model, replication=2, bins=41)),
        (_locallaw_payload(),
         LocalLawConfig(sweep=SweepConfig(dist=EntryDistribution.gaussian(), delta=2.0,
                                          seed=5, n_values=(40, 60), y=0.5, p=0.5),
                        domain=DomainTemplate(a0=0.05, grid_u=2, grid_v=2),
                        replications=2, C0=1.0, max_entry_stride=0)),
        ({"sweep": {"dist": "pareto", "alpha": 6.0, "delta": 1.0, "seed": 9,
                    "n_values": [30], "y": 0.5, "np_product": 15.0},
          "threshold_c": 0.7, "replications": 200, "report_sample": False},
         ConfigAnalyzeConfig(sweep=SweepConfig(dist=EntryDistribution.pareto(6.0),
                                               delta=1.0, seed=9, n_values=(30,), y=0.5,
                                               np_product=15.0),
                             threshold_c=0.7, replications=200, report_sample=False)),
        ({"k": 4, "q": 8, "corpus": 5, "matrix_seed": 3,
          "eta": {"dist": "pareto", "alpha": 9}},
         ConcentrationConfig(k=4, q=8, corpus=5, matrix_seed=3,
                             eta=EntryDistribution.pareto(9.0))),
        ({"model": MODEL, "u": 1, "v": 0.4, "tolerance": 1e-9},
         AuditConfig(model=model, u=1.0, v=0.4, tolerance=1e-9)),
        ({"model": MODEL, "q": 2, "replications": 1500},
         TnMomentsConfig(model=model, q=2, replications=1500)),
    ]
    for payload, expected in cases:
        assert _load(type(expected), json.loads(json.dumps(payload))) == expected
    # a JSON integer in a float field is read as a float, as the reports echo it
    audit = _load(AuditConfig, {"model": {**MODEL, "p": 1}, "u": 1})
    assert type(audit.u) is float and type(audit.model.p) is float


def test_sweep_config_validation():
    with pytest.raises(sm.ParameterError):
        SweepConfig(dist=EntryDistribution.gaussian(), delta=2.0, seed=1,
                    n_values=(10,), y=0.5, np_product=5.0, p=0.5)
    with pytest.raises(sm.ParameterError):
        SweepConfig(dist=EntryDistribution.gaussian(), delta=2.0, seed=1,
                    n_values=(), y=0.5, p=0.5)


# ---------------------------------------------------------------------------
# config loader: unknown, missing and mistyped keys exit 2 and name the key

VALID = {
    "spectrum": {"model": MODEL, "bins": 31},
    "locallaw": _locallaw_payload(),
    "config-analyze": CONFIG_ANALYZE,
    "concentration": CONCENTRATION,
    "audit": AUDIT,
    "tn-moments": TN_MOMENTS,
}

KNOWN_KEYS = {"dist", "alpha"} | {
    f.name for cls in (ModelParams, DomainTemplate, SweepConfig, SpectrumConfig,
                       LocalLawConfig, ConfigAnalyzeConfig, ConcentrationConfig,
                       AuditConfig, TnMomentsConfig)
    for f in fields(cls)}


def run_cli(cfg_dir: Path, command: str, payload) -> tuple[int, str]:
    """Exit code and stderr of one command on a payload."""
    cfg = cfg_dir / "cfg.json"
    cfg.write_text(json.dumps(payload), encoding="utf-8")
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main([command, "--config", str(cfg), "--out-dir", str(cfg_dir / "out")])
    return code, err.getvalue()


def object_paths(payload: dict, path: tuple = ()):
    """The key path of every JSON object in a payload, itself included."""
    yield path
    for key, val in payload.items():
        if isinstance(val, dict):
            yield from object_paths(val, path + (key,))


def int_paths(cls, payload: dict, path: tuple = ()):
    """The key paths of the int fields a payload sets, read from the dataclasses."""
    hints = get_type_hints(cls)
    for f in fields(cls):
        tp = hints[f.name]
        if f.name not in payload or tp is EntryDistribution:
            continue
        if tp is int:
            yield path + (f.name,)
        elif is_dataclass(tp):
            yield from int_paths(tp, payload[f.name], path + (f.name,))


def at(payload: dict, path: tuple) -> dict:
    for key in path:
        payload = payload[key]
    return payload


@pytest.fixture(scope="module")
def cfg_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("configs")


@settings(max_examples=60, deadline=None, database=None)
@given(data=st.data(), command=st.sampled_from(sorted(VALID)),
       key=st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,11}", fullmatch=True)
       .filter(lambda k: k not in KNOWN_KEYS))
def test_unknown_key_at_any_level_exit_2(cfg_dir, data, command, key):
    payload = copy.deepcopy(VALID[command])
    path = data.draw(st.sampled_from(list(object_paths(payload))))
    at(payload, path)[key] = 1
    code, err = run_cli(cfg_dir, command, payload)
    assert code == 2
    assert repr(".".join(path + (key,))) in err


@settings(max_examples=60, deadline=None, database=None)
@given(data=st.data(), command=st.sampled_from(sorted(VALID)),
       bad=st.one_of(st.floats(allow_nan=False, allow_infinity=False)
                     .filter(lambda v: not v.is_integer()),
                     st.booleans(), st.text(max_size=5)))
def test_int_field_rejects_float_bool_and_string(cfg_dir, data, command, bad):
    payload = copy.deepcopy(VALID[command])
    paths = list(int_paths(cli._COMMANDS[command][0], payload))
    assert paths
    path = data.draw(st.sampled_from(paths))
    at(payload, path[:-1])[path[-1]] = bad
    code, err = run_cli(cfg_dir, command, payload)
    assert code == 2
    assert repr(".".join(path)) in err


def _with(payload: dict, path: tuple, value) -> dict:
    payload = copy.deepcopy(payload)
    at(payload, path[:-1])[path[-1]] = value
    return payload


def _without(payload: dict, path: tuple) -> dict:
    payload = copy.deepcopy(payload)
    del at(payload, path[:-1])[path[-1]]
    return payload


@pytest.mark.parametrize("command, payload, key", [
    ("audit", _with(AUDIT, ("replicaton",), 3), "replicaton"),
    ("audit", _with(AUDIT, ("model", "alhpa"), 6.0), "model.alhpa"),
    ("config-analyze", _with(CONFIG_ANALYZE, ("replications",), 150.9), "replications"),
    ("config-analyze", _with(CONFIG_ANALYZE, ("report_sampel",), False), "report_sampel"),
    ("config-analyze", _with(CONFIG_ANALYZE, ("report_sample",), "false"), "report_sample"),
    ("locallaw", _with(_locallaw_payload(), ("domain", "grid_u"), "2"), "domain.grid_u"),
    ("locallaw", _without(_locallaw_payload(), ("sweep", "n_values")), "sweep.n_values"),
    ("locallaw", _with(_locallaw_payload(), ("sweep", "n_values"), [40, 60.5]),
     "sweep.n_values[1]"),
    ("spectrum", _without({"model": MODEL}, ("model", "dist")), "model.dist"),
    ("concentration", _with(CONCENTRATION, ("xi", "alpha"), "6"), "xi.alpha"),
    ("tn-moments", _with(TN_MOMENTS, ("gamma",), None), "gamma"),
    ("tn-moments", _with(TN_MOMENTS, ("gamma",), 10 ** 400), "gamma"),
    ("audit", _with(AUDIT, ("model",), [1, 2]), "model"),
    ("spectrum", {"model": MODEL, "bins": 0}, "bins"),
    ("spectrum", {"model": MODEL, "bins": -1}, "bins"),
    ("concentration", _with(CONCENTRATION, ("k",), -1), "k"),
    ("audit", _with(AUDIT, ("tolerance",), 0.0), "tolerance"),
    ("audit", _with(AUDIT, ("tolerance",), -1.0), "tolerance"),
    ("audit", _with(AUDIT, ("tolerance",), math.nan), "tolerance"),
    ("audit", _with(AUDIT, ("tolerance",), math.inf), "tolerance"),
    ("config-analyze", _with(CONFIG_ANALYZE, ("sweep", "y"), 0.0), "y"),
    ("config-analyze", _with(CONFIG_ANALYZE, ("sweep", "y"), math.nan), "y"),
    ("config-analyze", _with(CONFIG_ANALYZE, ("sweep", "y"), 1.5), "y"),
    ("locallaw", _with(_locallaw_payload(), ("sweep", "y"), 0.0), "y"),
    ("locallaw", _with(_locallaw_payload(), ("sweep", "y"), math.nan), "y"),
    ("config-analyze", _with(CONFIG_ANALYZE, ("deviant_threshold",), math.nan),
     "deviant_threshold"),
    ("config-analyze", _with(CONFIG_ANALYZE, ("deviant_threshold",), -1.0),
     "deviant_threshold"),
    ("config-analyze", _with(CONFIG_ANALYZE, ("deviant_threshold",), 0.0),
     "deviant_threshold"),
    ("config-analyze", _with(CONFIG_ANALYZE, ("deviant_threshold",), math.inf),
     "deviant_threshold"),
    ("config-analyze", _with(CONFIG_ANALYZE, ("threshold_c",), 0.0), "threshold_c"),
    ("config-analyze", _with(CONFIG_ANALYZE, ("threshold_c",), -0.5), "threshold_c"),
    ("config-analyze", _with(CONFIG_ANALYZE, ("threshold_c",), math.nan), "threshold_c"),
])
def test_motivating_configs_exit_2(cfg_dir, command, payload, key):
    code, err = run_cli(cfg_dir, command, payload)
    assert code == 2
    assert repr(key) in err


def _sweep(payload: dict, **sweep) -> dict:
    payload = copy.deepcopy(payload)
    payload["sweep"].pop("p", None)
    payload["sweep"].update(sweep)
    return payload


@pytest.mark.parametrize("command, payload, message", [
    # p = 50/40 > 1 at the second n
    ("locallaw", _sweep(_locallaw_payload(), np_product=50.0, n_values=[100, 40]),
     "p must lie in (0, 1]"),
    # v0 = a0 log^4(n)/n is 0.83 at n = 2000 but 1.14 > V at n = 1000
    ("locallaw", _sweep(_with(_locallaw_payload(), ("domain", "a0"), 0.5),
                        p=0.5, n_values=[2000, 1000]), "exceeds V"),
    ("config-analyze", _sweep(CONFIG_ANALYZE, np_product=50.0, n_values=[100, 30]),
     "p must lie in (0, 1]"),
])
def test_sweep_checks_every_n_before_any_report(tmp_path, command, payload, message):
    cfg = write_cfg(tmp_path, "sweep.json", payload)
    out = tmp_path / "out"
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main([command, "--config", cfg, "--out-dir", str(out)])
    assert code == 2
    assert message in err.getvalue()
    assert list(out.glob("*")) == []


@pytest.mark.parametrize("content", [None, b"\xff\xfe{}", b"{\"model\": "])
def test_unreadable_config_exit_2(tmp_path, content):
    cfg = tmp_path / "cfg.json"
    if content is None:
        cfg.mkdir()
    else:
        cfg.write_bytes(content)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["audit", "--config", str(cfg), "--out-dir", str(tmp_path / "o")])
    assert code == 2
    assert str(cfg) in err.getvalue()


def test_benchmark_configs_load():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads   # dataclass decoration looks the module up
    try:
        spec.loader.exec_module(workloads)
    finally:
        del sys.modules[spec.name]
    for w in workloads.WORKLOADS.values():
        cls = cli._COMMANDS[w.command][0]
        for smoke in (True, False):
            for k in range(4):
                assert isinstance(_load(cls, w.make_config(1, k, smoke)), cls)


def test_cli_import_skips_quadrature_and_optimize():
    # the CLI's start-up cost: neither subpackage is needed by the library
    code = ("import sys, sparsemp.cli; "
            "print(sorted(m for m in ('scipy.integrate', 'scipy.optimize') if m in sys.modules))")
    src = str(Path(sm.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={"PYTHONPATH": src})
    assert out.stdout.strip() == "[]"
