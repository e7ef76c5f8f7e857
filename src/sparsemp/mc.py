"""Shared Monte Carlo plumbing: estimates and replication pools.

Replications are always mapped by index so reductions are order-independent:
results are identical for any worker count, which is what the determinism
contract of the CLI relies on.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, TypeVar

import numpy as np

from .errors import ParameterError

T = TypeVar("T")


@dataclass(frozen=True)
class MCEstimate:
    """Point estimate with its standard error and sample count."""

    value: float
    stderr: float
    samples: int


def resolve_workers(workers: int | None) -> int:
    """The worker count to use: ``workers``, or 1 when it is None."""
    if workers is None:
        return 1
    if workers < 1:
        raise ParameterError(f"workers must be >= 1, got {workers}")
    return workers


def map_replications(fn: Callable[[int], T], count: int, workers: int | None = None) -> list[T]:
    """Evaluate fn(0..count-1), optionally on a thread pool, results in index order."""
    nw = resolve_workers(workers)
    if nw == 1 or count <= 1:
        return [fn(i) for i in range(count)]
    with ThreadPoolExecutor(max_workers=nw) as pool:
        return list(pool.map(fn, range(count)))


def binomial_estimate(successes: int, trials: int) -> MCEstimate:
    p = successes / trials
    return MCEstimate(value=p, stderr=float(np.sqrt(p * (1.0 - p) / trials)), samples=trials)
