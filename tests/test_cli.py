import json
import math
from pathlib import Path

import pytest

import sparsemp as sm
from sparsemp import cli
from sparsemp.cli import (AuditConfig, ConcentrationConfig, ConfigAnalyzeConfig,
                          DomainTemplate, LocalLawConfig, SpectrumConfig,
                          SweepConfig, TnMomentsConfig, main)
from sparsemp.model import EntryDistribution, ModelParams


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


def test_spectrum_dense_calibration_gap(tmp_path):
    # dense p=1 run at n=2000: the interior histogram must hug the MP density
    model = {"n": 2000, "m": 4000, "p": 1.0, "dist": "gaussian", "delta": 2.0,
             "seed": 99}
    cfg = write_cfg(tmp_path, "dense.json", {"model": model, "bins": 41})
    out = tmp_path / "out"
    assert main(["spectrum", "--config", cfg, "--out-dir", str(out)]) == 0
    summary = json.loads((out / "spectrum_summary.json").read_text())
    assert summary["sup_gap_interior"] < 0.05


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
        assert (out / f"locallaw_points_n{n}.csv").exists()
    # worker count must not change bytes
    out2 = tmp_path / "out2"
    assert main(["locallaw", "--config", cfg, "--out-dir", str(out2),
                 "--workers", "2"]) == 0
    assert read_all(out) == read_all(out2)


def test_locallaw_stride_defaults_to_library():
    payload = _locallaw_payload()
    del payload["max_entry_stride"]
    assert LocalLawConfig.from_dict(payload).max_entry_stride == 10


def test_locallaw_empty_grid_exit_2(tmp_path):
    cfg = write_cfg(tmp_path, "ll0.json", _locallaw_payload(grid_u=0))
    assert main(["locallaw", "--config", cfg, "--out-dir", str(tmp_path / "x")]) == 2


def test_config_analyze_outputs(tmp_path):
    payload = {
        "sweep": {"dist": "pareto", "alpha": 6.0, "delta": 1.0, "seed": 9,
                  "n_values": [30, 50], "y": 0.5, "np_product": 15.0},
        "threshold_c": 0.5,
        "replications": 100,
        "report_sample": True,
    }
    cfg = write_cfg(tmp_path, "ca.json", payload)
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


def test_concentration_exact_identity(tmp_path):
    payload = {"k": 2, "q": 2, "xi": {"dist": "rademacher"},
               "eta": {"dist": "rademacher"}, "mode": "exact",
               "matrix_kind": "identity", "corpus": 0}
    cfg = write_cfg(tmp_path, "cc.json", payload)
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


def test_audit_exit_zero_and_report(tmp_path):
    payload = {"model": {"n": 50, "m": 100, "p": 0.5, "dist": "gaussian",
                         "delta": 2.0, "seed": 21},
               "u": 0.9, "v": 0.5, "tolerance": 1e-8}
    cfg = write_cfg(tmp_path, "audit.json", payload)
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


def test_tn_moments_q0(tmp_path):
    payload = {"model": {"n": 20, "m": 40, "p": 0.5, "dist": "gaussian",
                         "delta": 2.0, "seed": 23},
               "u": 0.9, "v": 0.5, "q": 0, "replications": 1000, "gamma": 10.0}
    cfg = write_cfg(tmp_path, "tn.json", payload)
    out = tmp_path / "out"
    assert main(["tn-moments", "--config", cfg, "--out-dir", str(out)]) == 0
    report = json.loads((out / "tn_moments.json").read_text())
    assert report["estimate"] == 1.0
    assert report["survivors"] == 1000


def test_tn_moments_degenerate_exit_1(tmp_path):
    payload = {"model": {"n": 20, "m": 40, "p": 0.5, "dist": "gaussian",
                         "delta": 2.0, "seed": 23},
               "u": 0.9, "v": 0.5, "q": 0, "replications": 1000, "gamma": 0.0}
    cfg = write_cfg(tmp_path, "tn0.json", payload)
    assert main(["tn-moments", "--config", cfg, "--out-dir", str(tmp_path / "o")]) == 1


def test_config_roundtrips():
    model = ModelParams.from_dict(MODEL)
    cfgs = [
        SpectrumConfig(model=model, replication=2, bins=41),
        LocalLawConfig(sweep=SweepConfig.from_dict(_locallaw_payload()["sweep"]),
                       domain=DomainTemplate(), replications=3, C0=2.0,
                       max_entry_stride=5),
        ConfigAnalyzeConfig(sweep=SweepConfig.from_dict(
            {"dist": "pareto", "alpha": 6.0, "delta": 1.0, "seed": 9,
             "n_values": [30], "y": 0.5, "np_product": 15.0}),
            threshold_c=0.7, replications=200, report_sample=False),
        ConcentrationConfig(k=4, q=8, corpus=5, matrix_seed=3),
        AuditConfig(model=model, u=1.0, v=0.4, tolerance=1e-9),
        TnMomentsConfig(model=model, q=2, replications=1500),
    ]
    for cfg in cfgs:
        rebuilt = type(cfg).from_dict(json.loads(json.dumps(cfg.to_dict())))
        assert rebuilt == cfg


def test_sweep_config_validation():
    with pytest.raises(sm.ParameterError):
        SweepConfig(dist=EntryDistribution.gaussian(), delta=2.0, seed=1,
                    n_values=(10,), y=0.5, np_product=5.0, p=0.5)
    with pytest.raises(sm.ParameterError):
        SweepConfig(dist=EntryDistribution.gaussian(), delta=2.0, seed=1,
                    n_values=(), y=0.5, p=0.5)
