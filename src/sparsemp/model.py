"""Sparse sample covariance ensemble: entry laws, parameters, sampling.

The observation matrix is

    X = (xi_jk * X_jk) / sqrt(m * p),   1 <= j <= n,  1 <= k <= m,

where the X_jk are i.i.d. mean-zero unit-variance draws from a chosen entry
distribution and the xi_jk are independent Bernoulli(p) presence indicators.
Raw draws and the mask are kept alongside the scaled matrix for the tests and
the benchmark; no library computation reads them.  The
thresholded-configuration analysis needs only the untruncated magnitudes at
the present entries; ``present_magnitudes`` reads them from the same streams
without drawing the whole sample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

import numpy as np

from .errors import DivergentMomentError, ParameterError

GAUSSIAN = "gaussian"
RADEMACHER = "rademacher"
PARETO = "pareto"

_KINDS = (GAUSSIAN, RADEMACHER, PARETO)


@dataclass(frozen=True)
class EntryDistribution:
    """Mean-zero, unit-variance entry law.

    Variants: standard Gaussian, Rademacher (+-1 fair coin), and a symmetric
    Pareto with tail exponent ``alpha``.  The Pareto variant samples T with
    density (alpha/2)|t|^(-alpha-1) on |t| >= 1 and divides by its standard
    deviation sqrt(alpha/(alpha-2)), so every variant has variance exactly 1.
    """

    kind: str
    alpha: float | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ParameterError(f"unknown entry distribution kind {self.kind!r}")
        if self.kind == PARETO:
            if self.alpha is None or not math.isfinite(self.alpha) or self.alpha <= 4:
                raise ParameterError(
                    f"symmetric Pareto needs tail exponent alpha > 4, got {self.alpha!r}"
                )
        elif self.alpha is not None:
            raise ParameterError(f"alpha is only meaningful for {PARETO!r}")

    @classmethod
    def gaussian(cls) -> "EntryDistribution":
        return cls(GAUSSIAN)

    @classmethod
    def rademacher(cls) -> "EntryDistribution":
        return cls(RADEMACHER)

    @classmethod
    def pareto(cls, alpha: float) -> "EntryDistribution":
        return cls(PARETO, alpha=float(alpha))

    @property
    def sigma(self) -> float:
        """Standard deviation; 1.0 by construction for every variant."""
        return 1.0

    def sample(self, rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
        if self.kind == GAUSSIAN:
            return rng.standard_normal(shape)
        if self.kind == RADEMACHER:
            return _signs(rng, shape)
        # symmetric Pareto by inverse CDF on the magnitude, then a sign flip
        mag = self._pareto_magnitude(rng.random(shape))
        return _signs(rng, shape) * mag

    def magnitudes_at(self, rng: np.random.Generator, shape: tuple[int, ...],
                      flat: np.ndarray) -> np.ndarray:
        """|X| at the flat indices ``flat`` of a draw of ``shape``.

        Bit-identical to ``np.abs(self.sample(rng, shape)).ravel()[flat]``,
        but only the first-stage draw is taken from ``rng`` (the uniforms of
        the Pareto variant, the normals of the Gaussian one, nothing for
        Rademacher) and evaluated at ``flat``.  A sign is +-1, so it changes
        no magnitude bit.
        """
        if self.kind == RADEMACHER:
            return np.ones(flat.size)
        if self.kind == GAUSSIAN:
            return np.abs(rng.standard_normal(shape).ravel()[flat])
        return self._pareto_magnitude(rng.random(shape).ravel()[flat])

    def _pareto_magnitude(self, u: np.ndarray) -> np.ndarray:
        return u ** (-1.0 / self.alpha) / math.sqrt(self.alpha / (self.alpha - 2.0))

    def abs_moment(self, r: float) -> float:
        """E|X|^r in closed form. Raises if the moment diverges."""
        if r < 0:
            raise ParameterError(f"moment order must be nonnegative, got {r}")
        if r == 0:
            return 1.0
        if self.kind == RADEMACHER:
            return 1.0
        if self.kind == GAUSSIAN:
            if float(r).is_integer() and int(r) % 2 == 0:
                # (r-1)!! exactly for even integer orders
                out = 1.0
                for k in range(int(r) - 1, 0, -2):
                    out *= k
                return out
            return 2.0 ** (r / 2.0) * math.gamma((r + 1.0) / 2.0) / math.sqrt(math.pi)
        if r >= self.alpha:
            raise DivergentMomentError(
                f"E|X|^{r} diverges for symmetric Pareto with alpha={self.alpha}"
            )
        return (self.alpha / (self.alpha - r)) * ((self.alpha - 2.0) / self.alpha) ** (r / 2.0)

    def to_dict(self) -> dict[str, Any]:
        d: dict[str, Any] = {"dist": self.kind}
        if self.alpha is not None:
            d["alpha"] = self.alpha
        return d


@dataclass(frozen=True)
class ModelParams:
    """Full specification of one random-matrix ensemble.

    n, m   : observation and sample dimensions, m >= n so y = n/m <= 1.
    p      : Bernoulli sparsity probability in (0, 1].
    dist   : entry distribution (variance 1).
    delta  : moment exponent; the entry law must have E|X|^(4+delta) finite.
    seed   : root seed; replications derive independent substreams from it.
    """

    n: int
    m: int
    p: float
    dist: EntryDistribution
    delta: float
    seed: int

    def __post_init__(self):
        if not isinstance(self.n, int) or self.n < 1:
            raise ParameterError(f"n must be a positive integer, got {self.n!r}")
        if not isinstance(self.m, int) or self.m < self.n:
            raise ParameterError(f"m must be an integer >= n={self.n}, got {self.m!r}")
        if not (0.0 < self.p <= 1.0):
            raise ParameterError(f"p must lie in (0, 1], got {self.p!r}")
        if not (self.delta > 0.0 and math.isfinite(self.delta)):
            raise ParameterError(f"delta must be positive and finite, got {self.delta!r}")
        if not isinstance(self.seed, int) or not (0 <= self.seed < 2**64):
            raise ParameterError(f"seed must be a 64-bit unsigned integer, got {self.seed!r}")
        if self.dist.kind == PARETO and self.dist.alpha <= 4.0 + self.delta:
            raise DivergentMomentError(
                f"Pareto alpha={self.dist.alpha} gives divergent (4+delta) moment "
                f"for delta={self.delta}; need alpha > {4.0 + self.delta}"
            )

    @property
    def y(self) -> float:
        return self.n / self.m

    def kappa(self) -> float:
        """kappa(delta) = delta / (2 (4 + delta)), always in (0, 1/4)."""
        return self.delta / (2.0 * (4.0 + self.delta))

    def to_dict(self) -> dict[str, Any]:
        d: dict[str, Any] = {
            "n": self.n,
            "m": self.m,
            "p": self.p,
            "delta": self.delta,
            "seed": self.seed,
        }
        d.update(self.dist.to_dict())
        return d


@dataclass(frozen=True)
class SampledMatrix:
    """One draw of the ensemble: raw entries, presence mask, scaled matrix.

    Invariant: scaled[j, k] == raw[j, k] * mask[j, k] / sqrt(m * p).
    """

    raw: np.ndarray
    mask: np.ndarray
    scaled: np.ndarray

    @property
    def n(self) -> int:
        return self.scaled.shape[0]

    @property
    def m(self) -> int:
        return self.scaled.shape[1]

    @classmethod
    def from_dense(cls, scaled: np.ndarray) -> "SampledMatrix":
        """Wrap an explicit matrix as a dense (p = 1) sample for injection tests."""
        scaled = np.asarray(scaled, dtype=np.float64)
        if scaled.ndim != 2:
            raise ParameterError("from_dense expects a 2-D matrix")
        m = scaled.shape[1]
        return cls(
            raw=scaled * math.sqrt(m),
            mask=np.ones_like(scaled, dtype=np.uint8),
            scaled=scaled,
        )


def _signs(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    return 2.0 * rng.integers(0, 2, size=shape).astype(np.float64) - 1.0


def _streams(params: ModelParams,
             replication: int) -> tuple[np.random.Generator, np.random.Generator]:
    # splittable counter-based scheme: Philox keyed by (seed, replication),
    # with separate children for the raw draws and the mask
    if not isinstance(replication, int) or replication < 0:
        raise ParameterError(f"replication must be a nonnegative integer, got {replication!r}")
    root = np.random.SeedSequence(entropy=params.seed, spawn_key=(replication,))
    raw_ss, mask_ss = root.spawn(2)
    return (
        np.random.Generator(np.random.Philox(raw_ss)),
        np.random.Generator(np.random.Philox(mask_ss)),
    )


def _present(mask_rng: np.random.Generator, params: ModelParams) -> np.ndarray:
    return mask_rng.random((params.n, params.m)) < params.p


def sample_matrix(params: ModelParams, replication: int = 0) -> SampledMatrix:
    """Draw one sparse sample matrix, bit-reproducible for (seed, replication)."""
    raw_rng, mask_rng = _streams(params, replication)
    raw = params.dist.sample(raw_rng, (params.n, params.m))
    mask = _present(mask_rng, params).astype(np.uint8)
    scaled = raw * mask / math.sqrt(params.m * params.p)
    return SampledMatrix(raw=raw, mask=mask, scaled=scaled)


def present_magnitudes(params: ModelParams,
                       replication: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Flat indices of the present entries of one draw, and |X| at them.

    For ``x = sample_matrix(params, replication)`` the pair is bit-identical
    to ``np.flatnonzero(x.mask)`` and ``np.abs(x.raw).ravel()`` at those
    indices, from the same two streams, but neither the signs nor any
    n x m float array beyond the streams' own fills is made.
    """
    raw_rng, mask_rng = _streams(params, replication)
    flat = np.flatnonzero(_present(mask_rng, params))
    return flat, params.dist.magnitudes_at(raw_rng, (params.n, params.m), flat)



def moment_4_delta(dist: EntryDistribution, delta: float) -> float:
    """mu_{4+delta} = E|X_11|^{4+delta}, in closed form per variant."""
    if delta < 0:
        raise ParameterError(f"delta must be nonnegative, got {delta}")
    return dist.abs_moment(4.0 + delta)


def check_c0(params: ModelParams, c0: float) -> bool:
    """Whether n*p >= c0 * (log n)^(2/kappa).

    Desk-scale runs almost always fail this for realistic c0; the result is
    reported, not enforced.
    """
    kappa = params.kappa()
    return params.n * params.p >= c0 * math.log(params.n) ** (2.0 / kappa)
