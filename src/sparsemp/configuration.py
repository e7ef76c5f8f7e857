"""Thresholded configuration matrix, index classification, admissibility.

An entry (j, k) is a *link* when it is present (mask bit set) and its raw
value clears the threshold C (n p)^(1/2 - kappa).  Indices touched by a link
are *deviant*; the block layout puts rows at 0..n-1 and columns at n..n+m-1.
A configuration is inadmissible when it has at least sqrt(n/p) deviant
indices, or a connected set of at least max(floor(log n), 2) indices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from .errors import ParameterError
from .mc import MCEstimate, binomial_estimate, map_replications
from .model import ModelParams, SampledMatrix, sample_matrix

ADMISSIBLE = "admissible"
DEVIANT_INADMISSIBLE = "deviant_inadmissible"
CONNECTED_INADMISSIBLE = "connected_inadmissible"
BOTH = "both"


@dataclass(frozen=True)
class ConfigurationMatrix:
    """Link pattern L_jk = xi_jk * 1{|X_jk| >= C (n p)^(1/2 - kappa)}."""

    links: np.ndarray        # n x m uint8
    threshold_c: float
    kappa: float

    @property
    def n(self) -> int:
        return self.links.shape[0]

    @property
    def m(self) -> int:
        return self.links.shape[1]


def build_configuration(x: SampledMatrix, params: ModelParams,
                        threshold_c: float = 1.0) -> ConfigurationMatrix:
    if not (threshold_c > 0.0):
        raise ParameterError(f"threshold_c must be positive, got {threshold_c!r}")
    kappa = params.kappa()
    cut = threshold_c * (params.n * params.p) ** (0.5 - kappa)
    links = (x.mask.astype(bool) & (np.abs(x.raw) >= cut)).astype(np.uint8)
    return ConfigurationMatrix(links=links, threshold_c=float(threshold_c), kappa=kappa)


@dataclass(frozen=True)
class ConfigurationReport:
    """Classification of one link pattern over the n+m block indices."""

    deviant: tuple[int, ...]
    typical: tuple[int, ...]
    components: tuple[tuple[int, ...], ...]
    deviant_count: int
    r_threshold: int
    deviant_threshold: float
    verdict: str

    def to_dict(self) -> dict[str, Any]:
        return {
            "schema_version": 1,
            "deviant": list(self.deviant),
            "typical_count": len(self.typical),
            "components": [list(c) for c in self.components if len(c) > 1],
            "singleton_components": sum(1 for c in self.components if len(c) == 1),
            "deviant_count": self.deviant_count,
            "r_threshold": self.r_threshold,
            "deviant_threshold": self.deviant_threshold,
            "verdict": self.verdict,
        }


def connectivity_threshold(n: int) -> int:
    """max(floor(log n), 2); the floor keeps tiny-n runs out of the degenerate
    regime where every singleton would trip the connectivity test."""
    return max(int(math.floor(math.log(n))), 2)


def classify(config: ConfigurationMatrix, n: int, m: int, p: float,
             deviant_threshold: float | None = None) -> ConfigurationReport:
    """Deviant/typical split, connected components, admissibility verdict."""
    if config.links.shape != (n, m):
        raise ParameterError(
            f"links shape {config.links.shape} does not match (n, m) = ({n}, {m})"
        )
    if deviant_threshold is None:
        deviant_threshold = math.sqrt(n / p)
    # the bipartite link graph on rows 0..n-1 and columns n..n+m-1
    j, k = np.divmod(np.flatnonzero(config.links), m)
    total = n + m
    graph = coo_matrix((np.ones(j.size, dtype=np.int8), (j, n + k)), shape=(total, total))
    _, labels = connected_components(graph, directed=False)
    members = np.argsort(labels, kind="stable").tolist()
    ends = np.cumsum(np.bincount(labels)).tolist()
    # disjoint tuples sort by their smallest member
    components = sorted(tuple(members[a:b]) for a, b in zip([0] + ends[:-1], ends))
    deviant_mask = np.zeros(total, dtype=bool)
    deviant_mask[j] = True
    deviant_mask[n + k] = True
    deviant = tuple(np.flatnonzero(deviant_mask).tolist())
    typical = tuple(np.flatnonzero(~deviant_mask).tolist())
    r_thr = connectivity_threshold(n)
    dev_bad = len(deviant) >= deviant_threshold
    conn_bad = any(len(c) >= r_thr for c in components)
    if dev_bad and conn_bad:
        verdict = BOTH
    elif dev_bad:
        verdict = DEVIANT_INADMISSIBLE
    elif conn_bad:
        verdict = CONNECTED_INADMISSIBLE
    else:
        verdict = ADMISSIBLE
    return ConfigurationReport(
        deviant=deviant,
        typical=typical,
        components=tuple(components),
        deviant_count=len(deviant),
        r_threshold=r_thr,
        deviant_threshold=float(deviant_threshold),
        verdict=verdict,
    )


def classify_sample(x: SampledMatrix, params: ModelParams, threshold_c: float = 1.0,
                    deviant_threshold: float | None = None) -> ConfigurationReport:
    config = build_configuration(x, params, threshold_c)
    return classify(config, params.n, params.m, params.p, deviant_threshold)


def inadmissibility_probability(params: ModelParams, threshold_c: float,
                                replications: int,
                                deviant_threshold: float | None = None,
                                workers: int | None = None) -> MCEstimate:
    """Monte Carlo frequency of inadmissible configurations, with binomial SE."""
    if replications < 100:
        raise ParameterError(f"replications must be >= 100, got {replications}")

    def one(rep: int) -> bool:
        x = sample_matrix(params, rep)
        report = classify_sample(x, params, threshold_c, deviant_threshold)
        return report.verdict != ADMISSIBLE

    flags = map_replications(one, replications, workers)
    return binomial_estimate(sum(flags), replications)
