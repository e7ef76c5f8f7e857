"""Command-line experiment harness.

Subcommands: spectrum, locallaw, config-analyze, concentration, audit,
tn-moments.  Every command takes a JSON config (--config) and writes JSON/CSV
reports into --out-dir.  All randomness flows from config seeds, reductions
are order-independent, and no timestamps enter the outputs, so reruns with
any worker count produce byte-identical files.

Exit codes: 0 ok, 1 invariant violation, 2 bad parameters, 64 usage.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from importlib import resources
from pathlib import Path
from typing import Any, get_args, get_origin, get_type_hints

import jsonschema
import numpy as np

from . import concentration as conc
from .configuration import (classify, inadmissibility_probability,
                            sample_configuration)
from .errors import (DegenerateConditioningError, IdentityFailureError,
                     NumericalError, ParameterError)
from .locallaw import locallaw_scan, self_consistency_audit, tn_moment_study
from .model import EntryDistribution, ModelParams, sample_matrix, scaled_sample
from .mplaw import DomainSpec, domain_grid, mp_cdf, mp_density, mp_edges
from .spectral import esd_histogram, singular_values

EXIT_OK = 0
EXIT_INVARIANT = 1
EXIT_PARAMS = 2
EXIT_USAGE = 64


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


@functools.cache
def _validator(name: str) -> Any:
    """The validator of one packaged schema, checked against its metaschema
    once per process; each report is still validated in full."""
    schema = json.loads(resources.files("sparsemp").joinpath("schemas", name)
                        .read_text(encoding="utf-8"))
    cls = jsonschema.validators.validator_for(schema)
    cls.check_schema(schema)
    return cls(schema)


def _write_json(path: Path, payload: dict, schema: str) -> None:
    _validator(schema).validate(payload)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def _write_csv(path: Path, header: str, rows: list[str]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(row + "\n")


def _fmt(x: float) -> str:
    return repr(float(x))


# ---------------------------------------------------------------------------
# command configs: the dataclass annotations and defaults are the config
# schema, read by _load


@dataclass(frozen=True)
class DomainTemplate:
    kind: str = "d_mu"
    mu: float = 0.2
    a0: float = 0.1
    V: float = 1.0
    grid_u: int = 8
    grid_v: int = 8

    def spec_for(self, n: int) -> DomainSpec:
        return DomainSpec(kind=self.kind, a0=self.a0, V=self.V, n=n,
                          grid_u=self.grid_u, grid_v=self.grid_v, mu=self.mu)


@dataclass(frozen=True)
class SpectrumConfig:
    model: ModelParams
    replication: int = 0
    bins: int = 61

    def __post_init__(self):
        if self.bins < 1:
            raise ParameterError(f"config key 'bins' must be >= 1, got {self.bins!r}")


@dataclass(frozen=True)
class SweepConfig:
    """Shared shape for n-sweep campaigns (locallaw, config-analyze)."""

    dist: EntryDistribution
    delta: float
    seed: int
    n_values: tuple[int, ...]
    y: float
    np_product: float | None = None
    p: float | None = None

    def __post_init__(self):
        if (self.np_product is None) == (self.p is None):
            raise ParameterError("exactly one of np_product or p must be set")
        if not self.n_values:
            raise ParameterError("n_values must be nonempty")
        if not (0.0 < self.y <= 1.0):   # also rejects NaN
            raise ParameterError(f"config key 'y' must lie in (0, 1], got {self.y!r}")
        for n in self.n_values:   # every n is checked before any report is written
            self.params_for(n)

    def params_for(self, n: int) -> ModelParams:
        m = round(n / self.y)
        p = self.p if self.p is not None else self.np_product / n
        return ModelParams(n=n, m=m, p=p, dist=self.dist, delta=self.delta,
                           seed=self.seed)


@dataclass(frozen=True)
class LocalLawConfig:
    sweep: SweepConfig
    domain: DomainTemplate = field(default_factory=DomainTemplate)
    replications: int = 20
    C0: float = 1.0
    max_entry_stride: int = 10

    def __post_init__(self):
        for n in self.sweep.n_values:   # every n's domain, before any report is written
            domain_grid(self.domain.spec_for(n), self.sweep.y)


@dataclass(frozen=True)
class ConfigAnalyzeConfig:
    sweep: SweepConfig
    threshold_c: float = 1.0
    replications: int = 1000
    report_sample: bool = True
    deviant_threshold: float | None = None

    def __post_init__(self):
        if not (self.threshold_c > 0.0):   # also rejects NaN
            raise ParameterError(
                f"config key 'threshold_c' must be positive, got {self.threshold_c!r}")
        if self.deviant_threshold is not None and not (0.0 < self.deviant_threshold < math.inf):
            raise ParameterError(
                "config key 'deviant_threshold' must be positive and finite, "
                f"got {self.deviant_threshold!r}")


@dataclass(frozen=True)
class ConcentrationConfig:
    k: int = 5
    q: int = 8
    xi: EntryDistribution = field(default_factory=EntryDistribution.rademacher)
    eta: EntryDistribution = field(default_factory=EntryDistribution.rademacher)
    mode: str = "auto"
    samples: int = 20000
    seed: int = 0
    matrix_kind: str = "gaussian"
    matrix_seed: int = 0
    matrix_scale: float = 1.0
    corpus: int = 0
    a2_moment_side: str = "xi"

    def __post_init__(self):
        if self.k < 1:
            raise ParameterError(f"config key 'k' must be >= 1, got {self.k!r}")

    def matrix_for(self, trial: int) -> np.ndarray:
        if self.matrix_kind == "identity":
            return self.matrix_scale * np.eye(self.k)
        if self.matrix_kind == "gaussian":
            ss = np.random.SeedSequence(entropy=self.matrix_seed, spawn_key=(trial,))
            rng = np.random.Generator(np.random.Philox(ss))
            return self.matrix_scale * rng.standard_normal((self.k, self.k))
        raise ParameterError(f"unknown matrix_kind {self.matrix_kind!r}")


def _check_v(v: float) -> None:
    """Reject a spectral parameter off the upper half-plane before any sample is drawn."""
    if not (0.0 < v < math.inf):   # also rejects NaN
        raise ParameterError(f"config key 'v' must be positive and finite, got {v!r}")


@dataclass(frozen=True)
class AuditConfig:
    model: ModelParams
    u: float = 0.9
    v: float = 0.5
    replication: int = 0
    tolerance: float = 1e-8

    def __post_init__(self):
        _check_v(self.v)
        if not (0.0 < self.tolerance < math.inf):   # also rejects NaN
            raise ParameterError(
                f"config key 'tolerance' must be positive and finite, got {self.tolerance!r}")


@dataclass(frozen=True)
class TnMomentsConfig:
    model: ModelParams
    u: float = 0.9
    v: float = 0.5
    q: int = 2
    replications: int = 1000
    gamma: float = 0.5
    s0: float = 2.0
    mu: float = 0.2
    V: float = 1.0
    grid_u: int = 8

    def __post_init__(self):
        _check_v(self.v)


def _load(cls, raw: Any, where: str = ""):
    """Build the config dataclass ``cls`` from parsed JSON.

    Every key must name a field, every field without a default must be
    present, and every value must have its field's JSON type; otherwise a
    ParameterError names the dotted key.  An ``EntryDistribution`` is written
    as its ``dist``/``alpha`` keys: flattened into the enclosing object for a
    field named ``dist``, as a nested object otherwise.  The range checks
    stay in each class's ``__post_init__``.
    """
    rest = _object(raw, where.rstrip("."))
    hints = get_type_hints(cls)
    kw = {}
    for f in fields(cls):
        key = where + f.name
        if f.name == "dist" and hints[f.name] is EntryDistribution:
            kw[f.name] = _distribution(rest, where)
        elif f.name in rest:
            kw[f.name] = _value(hints[f.name], rest.pop(f.name), key)
        elif f.default is MISSING and f.default_factory is MISSING:
            raise ParameterError(f"missing config key {key!r}")
    _no_unknown(rest, where)
    return cls(**kw)


def _object(raw: Any, key: str) -> dict:
    if not isinstance(raw, dict):
        what = f"config key {key!r}" if key else "config"
        raise ParameterError(f"{what} must be a JSON object, got {raw!r}")
    return dict(raw)


def _no_unknown(rest: dict, where: str) -> None:
    if rest:
        raise ParameterError(f"unknown config key {where + min(rest)!r}")


def _distribution(rest: dict, where: str) -> EntryDistribution:
    """Pop the ``dist`` and optional ``alpha`` keys of one object."""
    if "dist" not in rest:
        raise ParameterError(f"missing config key {where + 'dist'!r}")
    kind = _value(str, rest.pop("dist"), where + "dist")
    alpha = _value(float | None, rest.pop("alpha", None), where + "alpha")
    return EntryDistribution(kind, alpha=alpha)


def _value(tp: Any, v: Any, key: str) -> Any:
    if tp is EntryDistribution:
        rest = _object(v, key)
        dist = _distribution(rest, key + ".")
        _no_unknown(rest, key + ".")
        return dist
    if is_dataclass(tp):
        return _load(tp, v, key + ".")
    args = get_args(tp)
    if type(None) in args:                       # X | None
        return None if v is None else _value(args[0], v, key)
    if get_origin(tp) is tuple:                  # tuple[X, ...]
        if not isinstance(v, list):
            raise ParameterError(f"config key {key!r} must be a list, got {v!r}")
        return tuple(_value(args[0], item, f"{key}[{i}]") for i, item in enumerate(v))
    if tp is float and type(v) is int and abs(v) <= sys.float_info.max:
        v = float(v)
    if type(v) is not tp:                        # JSON true is no int
        raise ParameterError(f"config key {key!r} must be {tp.__name__}, got {v!r}")
    return v


# ---------------------------------------------------------------------------
# commands


def cmd_spectrum(cfg: SpectrumConfig, out_dir: Path, workers: int | None) -> int:
    params = cfg.model
    y = params.y
    a_edge, b_edge = mp_edges(y)
    s = singular_values(scaled_sample(params, cfg.replication), vectors=False).singulars
    _write_csv(out_dir / "singular_values.csv", "index,singular_value",
               [f"{i},{_fmt(v)}" for i, v in enumerate(s)])

    top = float(s[0]) if s.size else 0.0
    hi = max(b_edge, top) * 1.02
    edges = np.linspace(-hi, hi, cfg.bins + 1)
    counts = esd_histogram(s, edges)
    width = edges[1] - edges[0]
    n2 = 2 * params.n
    emp = counts / (n2 * width)
    binavg = np.diff(mp_cdf(edges, y)) / width
    mids = 0.5 * (edges[:-1] + edges[1:])
    mid_density = mp_density(mids, y)

    # interior bins: fully inside the support and clear of both edges by 5%
    pad = 0.05 * (b_edge - a_edge)
    lo_in, hi_in = a_edge + pad, b_edge - pad
    edge_in = (np.abs(edges) >= lo_in) & (np.abs(edges) <= hi_in)
    interior = edge_in[:-1] & edge_in[1:] & (np.abs(mids) >= lo_in) & (np.abs(mids) <= hi_in)
    gaps = np.abs(emp - binavg)[interior]
    sup_gap = gaps.max() if gaps.size else 0.0

    rows = [
        ",".join([_fmt(edges[i]), _fmt(edges[i + 1]), str(int(counts[i])),
                  _fmt(emp[i]), _fmt(binavg[i]), _fmt(mid_density[i])])
        for i in range(cfg.bins)
    ]
    _write_csv(out_dir / "esd_histogram.csv",
               "bin_left,bin_right,count,density_emp,density_mp_binavg,density_mp_mid",
               rows)
    _write_json(out_dir / "spectrum_summary.json", {
        "schema_version": 1,
        "params": params.to_dict(),
        "replication": cfg.replication,
        "bins": cfg.bins,
        "a_edge": a_edge,
        "b_edge": b_edge,
        "sup_gap_interior": float(sup_gap),
        "top_singular": top,
        "files": {"singular_values": "singular_values.csv",
                  "histogram": "esd_histogram.csv"},
    }, schema="spectrum_summary.schema.json")
    return EXIT_OK


def cmd_locallaw(cfg: LocalLawConfig, out_dir: Path, workers: int | None) -> int:
    summary_rows = []
    for n in cfg.sweep.n_values:
        params = cfg.sweep.params_for(n)
        domain = cfg.domain.spec_for(n)
        report = locallaw_scan(params, domain, cfg.replications, C0=cfg.C0,
                               max_entry_stride=cfg.max_entry_stride, workers=workers)
        _write_json(out_dir / f"locallaw_n{n}.json", report.to_dict(),
                    schema="locallaw_report.schema.json")
        points = [",".join([_fmt(z.real), _fmt(z.imag), _fmt(ps.lambda_abs), _fmt(ps.gamma),
                            _fmt(ps.ratio), "" if ps.max_entry is None else _fmt(ps.max_entry)])
                  for z, ps in zip(report.grid.tolist(), report.per_point)]
        _write_csv(out_dir / f"locallaw_points_n{n}.csv",
                   "u,v,lambda_abs,gamma,ratio,max_entry", points)
        summary_rows.append(f"{n},{_fmt(report.sup_ratio)},{_fmt(report.fitted_k)}")
    _write_csv(out_dir / "locallaw_summary.csv", "n,sup_ratio,fitted_K", summary_rows)
    return EXIT_OK


def cmd_config_analyze(cfg: ConfigAnalyzeConfig, out_dir: Path,
                       workers: int | None) -> int:
    rows = []
    for n in cfg.sweep.n_values:
        params = cfg.sweep.params_for(n)
        est = inadmissibility_probability(params, cfg.threshold_c, cfg.replications,
                                          deviant_threshold=cfg.deviant_threshold,
                                          workers=workers)
        rows.append(f"{n},{_fmt(params.p)},{_fmt(est.value)},{_fmt(est.stderr)}")
        if cfg.report_sample:
            report = classify(sample_configuration(params, 0, cfg.threshold_c),
                              params.p, cfg.deviant_threshold)
            _write_json(out_dir / f"config_report_n{n}.json", report.to_dict(),
                        schema="config_report.schema.json")
    _write_csv(out_dir / "inadmissibility.csv", "n,p,estimate,stderr", rows)
    return EXIT_OK


def cmd_concentration(cfg: ConcentrationConfig, out_dir: Path,
                      workers: int | None) -> int:
    trials = max(1, cfg.corpus)
    corpus_rows = []
    first_report = None
    for trial in range(trials):
        a = cfg.matrix_for(trial)
        inp = conc.ConcentrationInput(a=a, xi_dist=cfg.xi, eta_dist=cfg.eta, q=cfg.q)
        report = conc.evaluate(inp, mode=cfg.mode, samples=cfg.samples,
                               seed=cfg.seed + trial, a2_moment_side=cfg.a2_moment_side)
        if first_report is None:
            first_report = report
        corpus_rows.append(",".join([
            str(trial), _fmt(report.lhs), _fmt(report.a1), _fmt(report.a2),
            _fmt(report.a3), _fmt(report.fitted_c),
        ]))
    _write_json(out_dir / "concentration_report.json", first_report.to_dict(),
                schema="concentration_report.schema.json")
    if cfg.corpus > 0:
        _write_csv(out_dir / "concentration_corpus.csv",
                   "trial,lhs,A1,A2,A3,fitted_C", corpus_rows)
    return EXIT_OK


def cmd_audit(cfg: AuditConfig, out_dir: Path, workers: int | None) -> int:
    params = cfg.model
    x = sample_matrix(params, cfg.replication)
    audit = self_consistency_audit(x, complex(cfg.u, cfg.v), tol=cfg.tolerance)
    _write_json(out_dir / "audit_report.json", {
        "schema_version": 1,
        "params": params.to_dict(),
        "z": {"u": cfg.u, "v": cfg.v},
        "tolerance": cfg.tolerance,
        "convention": list(audit.convention),
        "max_residual": audit.max_residual,
        "t_n": {"re": audit.t_n.real, "im": audit.t_n.imag},
        "residual_exact": audit.residual_exact,
        "residual_flipped": audit.residual_flipped,
        "rows": [{"j": j, "identity_residual": r}
                 for j, r in enumerate(audit.residuals.tolist())],
    }, schema="audit_report.schema.json")
    return EXIT_OK


def cmd_tn_moments(cfg: TnMomentsConfig, out_dir: Path, workers: int | None) -> int:
    result = tn_moment_study(cfg.model, complex(cfg.u, cfg.v), cfg.q,
                             cfg.replications, gamma=cfg.gamma, s0=cfg.s0,
                             mu=cfg.mu, V=cfg.V, grid_u=cfg.grid_u, workers=workers)
    _write_json(out_dir / "tn_moments.json", result.to_dict(),
                schema="tn_report.schema.json")
    return EXIT_OK


_COMMANDS = {
    "spectrum": (SpectrumConfig, cmd_spectrum),
    "locallaw": (LocalLawConfig, cmd_locallaw),
    "config-analyze": (ConfigAnalyzeConfig, cmd_config_analyze),
    "concentration": (ConcentrationConfig, cmd_concentration),
    "audit": (AuditConfig, cmd_audit),
    "tn-moments": (TnMomentsConfig, cmd_tn_moments),
}


def _build_parser() -> _Parser:
    parser = _Parser(prog="sparsemp",
                     description="Sparse sample covariance simulation laboratory")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name, help=f"run the {name} experiment")
        p.add_argument("--config", required=True, help="JSON config file")
        p.add_argument("--out-dir", default=".", help="output directory")
        p.add_argument("--workers", type=int, default=None,
                       help="worker threads (default: 1)")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    cfg_cls, runner = _COMMANDS[args.command]
    try:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                raw = json.load(fh)
        except (OSError, ValueError) as exc:
            # an unreadable file or malformed JSON; _load raises ParameterError
            # for bad keys and values, so nothing else is caught here
            raise ParameterError(f"cannot read config {args.config}: {exc}") from exc
        cfg = _load(cfg_cls, raw)
        out_dir = Path(args.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        return runner(cfg, out_dir, args.workers)
    except ParameterError as exc:
        print(f"parameter error: {exc}", file=sys.stderr)
        return EXIT_PARAMS
    except (IdentityFailureError, NumericalError, DegenerateConditioningError) as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
