"""Thresholded configuration matrix, index classification, admissibility.

An entry (j, k) is a *link* when it is present (mask bit set) and its raw
value clears the threshold C (n p)^(1/2 - kappa).  Indices touched by a link
are *deviant*; the block layout puts rows at 0..n-1 and columns at n..n+m-1.
A configuration is inadmissible when it has at least sqrt(n/p) deviant
indices, or a connected set of at least max(floor(log n), 2) indices.

The links are few (about 45 at n = 800, p = 50/n), so they are drawn as
coordinates straight from the sampling streams and never as an n x m array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Any

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from .errors import ParameterError
from .mc import MCEstimate, binomial_estimate, map_replications
from .model import ModelParams, present_magnitudes

ADMISSIBLE = "admissible"
DEVIANT_INADMISSIBLE = "deviant_inadmissible"
CONNECTED_INADMISSIBLE = "connected_inadmissible"
BOTH = "both"


@dataclass(frozen=True)
class ConfigurationMatrix:
    """Link pattern L_jk = xi_jk * 1{|X_jk| >= C (n p)^(1/2 - kappa)}.

    ``links`` holds the coordinates (rows j, columns k) of the links, in
    row-major order, as ``np.nonzero`` returns them for a dense pattern.
    """

    links: tuple[np.ndarray, np.ndarray]
    shape: tuple[int, int]
    threshold_c: float
    kappa: float

    @property
    def n(self) -> int:
        return self.shape[0]

    @property
    def m(self) -> int:
        return self.shape[1]


def sample_configuration(params: ModelParams, replication: int = 0,
                         threshold_c: float = 1.0) -> ConfigurationMatrix:
    """The link pattern of ``sample_matrix(params, replication)``, bit for bit.

    Only the mask stream and the first-stage draw of the raw stream are
    taken (see ``model.present_magnitudes``); the sample itself is never built.
    """
    if not (threshold_c > 0.0):
        raise ParameterError(f"threshold_c must be positive, got {threshold_c!r}")
    kappa = params.kappa()
    cut = threshold_c * (params.n * params.p) ** (0.5 - kappa)
    flat, mag = present_magnitudes(params, replication)
    links = np.divmod(flat[mag >= cut], params.m)
    return ConfigurationMatrix(links=links, shape=(params.n, params.m),
                               threshold_c=float(threshold_c), kappa=kappa)


@dataclass(frozen=True, eq=False)
class ConfigurationReport:
    """Classification of one link pattern over the n+m block indices.

    ``labels`` gives each block index its connected component and
    ``deviant_mask`` flags the deviant indices.  The verdict needs only
    their counts; the index tuples are built when they are first read.
    """

    labels: np.ndarray
    deviant_mask: np.ndarray
    deviant_count: int
    r_threshold: int
    deviant_threshold: float
    verdict: str

    @cached_property
    def deviant(self) -> tuple[int, ...]:
        return tuple(np.flatnonzero(self.deviant_mask).tolist())

    @cached_property
    def typical(self) -> tuple[int, ...]:
        return tuple(np.flatnonzero(~self.deviant_mask).tolist())

    @cached_property
    def components(self) -> tuple[tuple[int, ...], ...]:
        """The full partition, singletons included, each component ascending."""
        members = np.argsort(self.labels, kind="stable").tolist()
        ends = np.cumsum(np.bincount(self.labels)).tolist()
        # disjoint tuples sort by their smallest member
        return tuple(sorted(tuple(members[a:b]) for a, b in zip([0] + ends[:-1], ends)))

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


def classify(config: ConfigurationMatrix, p: float,
             deviant_threshold: float | None = None) -> ConfigurationReport:
    """Deviant/typical split, connected components, admissibility verdict."""
    n, m = config.shape
    if deviant_threshold is None:
        deviant_threshold = math.sqrt(n / p)
    # the bipartite link graph on rows 0..n-1 and columns n..n+m-1
    j, k = config.links
    total = n + m
    graph = coo_matrix((np.ones(j.size, dtype=np.int8), (j, n + k)), shape=(total, total))
    _, labels = connected_components(graph, directed=False)
    deviant_mask = np.zeros(total, dtype=bool)
    deviant_mask[j] = True
    deviant_mask[n + k] = True
    deviant_count = int(np.count_nonzero(deviant_mask))
    r_thr = connectivity_threshold(n)
    dev_bad = deviant_count >= deviant_threshold
    conn_bad = int(np.bincount(labels).max()) >= r_thr
    if dev_bad and conn_bad:
        verdict = BOTH
    elif dev_bad:
        verdict = DEVIANT_INADMISSIBLE
    elif conn_bad:
        verdict = CONNECTED_INADMISSIBLE
    else:
        verdict = ADMISSIBLE
    return ConfigurationReport(
        labels=labels,
        deviant_mask=deviant_mask,
        deviant_count=deviant_count,
        r_threshold=r_thr,
        deviant_threshold=float(deviant_threshold),
        verdict=verdict,
    )


def inadmissibility_probability(params: ModelParams, threshold_c: float,
                                replications: int,
                                deviant_threshold: float | None = None,
                                workers: int | None = None) -> MCEstimate:
    """Monte Carlo frequency of inadmissible configurations, with binomial SE."""
    if replications < 100:
        raise ParameterError(f"replications must be >= 100, got {replications}")

    def one(rep: int) -> bool:
        config = sample_configuration(params, rep, threshold_c)
        report = classify(config, params.p, deviant_threshold)
        return report.verdict != ADMISSIBLE

    flags = map_replications(one, replications, workers)
    return binomial_estimate(sum(flags), replications)
