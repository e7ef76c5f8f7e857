"""Local-law experiment harness.

Computes Lambda_n = s_n - S_y over domain grids, audits the exact diagonal
resolvent identities with their correction terms, runs seeded Monte Carlo
campaigns, and produces the scaling studies behind the headline bounds.

Sign convention
---------------
The exact identity for diagonal entries is

    R_jj = S_y(z) * (1 - eps_j R_jj + y Lambda_n R_jj),      j <= n,
    R_{l+n,l+n} = -(z + y S_y)^{-1} * (1 - eps_{l+n} R_{l+n,l+n}
                                         + y Lambda_n R_{l+n,l+n}),

with eps = eps_1 - eps_2 - eps_3 (trace-difference term plus, centered-square
and bilinear terms minus).  The terms are computed from the scaled entries
with 1/m weights (``correction_terms``), so the sparsity p cancels from the
identity and the audit needs only the sample.  The convention was
adjudicated by brute force at n = 2, where exactly one choice of signs
balances to machine precision; it is frozen in CORRECTION_SIGNS and
regression-tested.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

import numpy as np
from scipy.sparse import issparse

from .errors import (DegenerateConditioningError, IdentityFailureError,
                     ParameterError)
from .mc import map_replications
from .model import ModelParams, SampledMatrix, scaled_sample
from .mplaw import (D_MU, DomainSpec, _as_complex, _band_rows, _check_y,
                    domain_grid, gamma_n, stieltjes_mp)
from .spectral import (SpectrumResult, _diag_factors, resolvent_max_abs,
                       singular_values, stieltjes_esd)

ROW = "row"
COLUMN = "column"

# (sign of combined eps term, sign of eps_2/eps_3 relative to eps_1, sign of
# the y*Lambda term) inside R = base * (1 + sA*(e1 + sB*(e2+e3))*R + sC*y*L*R)
CORRECTION_SIGNS = (-1.0, -1.0, 1.0)

# the other conventions, tried only to name the one that balances when the
# frozen one does not
_OTHER_CONVENTIONS = tuple(
    (sa, sb, sc)
    for sa in (1.0, -1.0) for sb in (1.0, -1.0) for sc in (1.0, -1.0)
    if (sa, sb, sc) != CORRECTION_SIGNS
)

# most levels a ladder_grid may have: every replication of a tn_moment_study
# evaluates Lambda_n at each level, so an s0 near 1 would stall the study
_MAX_LADDER_LEVELS = 1000

# rows of the off-diagonal block R_12 held at once by the correction terms
_SCHUR_BLOCK = 256


def lambda_n(s2: np.ndarray, z: "complex | np.ndarray", y: float) -> "complex | np.ndarray":
    """Lambda_n(z) = s_n(z) - S_y(z) from the squared singular values s2.

    Takes a scalar z or an array of z and returns the same shape.
    """
    return stieltjes_esd(s2, z) - stieltjes_mp(z, y)


def correction_terms(a: np.ndarray, spec: SpectrumResult, z: complex,
                     side: str = ROW) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Correction terms eps_1..3 and the diagonal R entry for every index of a side.

    In the scaled n x m sample w = a the terms of index j read

        eps_1 = (1/m) (tr R_22 - tr R^(j)_22),
        eps_2 = sum_k (w_jk^2 - 1/m) R^(j)_kk,
        eps_3 = sum_{k != l} w_jk w_jl R^(j)_kl,

    with 1/m weights only: the 1/(m p) of the unscaled form is absorbed by
    w = xi X / sqrt(m p), so p does not enter.  The column side swaps the
    roles of the two blocks and takes w^T.

    Deleting row j of X deletes index j of the block matrix, so the minor
    resolvent follows from the full one by the Schur downdate
    R^(j)_ab = R_ab - R_aj R_jb / R_jj; no minor is ever factorized, and the
    full resolvent comes from ``spec``, the Gram-route SVD of
    ``singular_values``.  For the row side, with A = U diag(s / (s^2 - z^2))
    the off-diagonal block is B = A W^T, and the column corner of the minor
    has trace tr R_22 - |A_j|^2 / R_jj and diagonal diag R_22 - B_j^2 / R_jj.
    The column side swaps U and W.
    """
    if side == ROW:
        own, other = spec.left_vectors, spec.right_vectors
        w = a
    elif side == COLUMN:
        own, other = spec.right_vectors, spec.left_vectors
        w = a.T
    else:
        raise ParameterError(f"side must be {ROW!r} or {COLUMN!r}, got {side!r}")
    m = a.shape[1]
    zc = _as_complex(z)
    d_proj, d_mid = _diag_factors(spec.singulars, zc)
    own_mid = own * d_mid
    r_diag = (own * own) @ d_proj - 1.0 / zc
    corner_diag = (other * other) @ d_proj - 1.0 / zc   # opposite corner, full matrix
    w2 = w * w
    centered = w2 - 1.0 / m
    proj = w @ other
    quad = (proj * proj) @ d_proj - w2.sum(axis=1) / zc
    bw = np.einsum("ij,ij->i", own_mid, proj)           # B_j . w_j
    # row sums of B_j^2 weighted by the centered squares and by w_j^2,
    # blocked so that B never exceeds _SCHUR_BLOCK rows
    b2_centered = np.empty(r_diag.shape, dtype=np.complex128)
    b2_w2 = np.empty(r_diag.shape, dtype=np.complex128)
    for lo in range(0, r_diag.size, _SCHUR_BLOCK):
        hi = lo + _SCHUR_BLOCK
        b = own_mid[lo:hi] @ other.T
        b *= b
        b2_centered[lo:hi] = np.einsum("ij,ij->i", centered[lo:hi], b)
        b2_w2[lo:hi] = np.einsum("ij,ij->i", w2[lo:hi], b)
    eps1 = np.einsum("ij,ij->i", own_mid, own_mid) / (r_diag * m)
    eps2 = centered @ corner_diag - b2_centered / r_diag
    eps3 = quad - bw * bw / r_diag - (w2 @ corner_diag - b2_w2 / r_diag)
    return eps1, eps2, eps3, r_diag


def _identity_residual(S: complex, r_diag, eps, lam: complex, y: float,
                       signs: tuple[float, float, float]):
    """|R_jj - S (1 + ...)| for every row index j under one sign convention."""
    sa, sb, sc = signs
    eff = eps[0] + sb * (eps[1] + eps[2])
    return abs(r_diag - S * (1.0 + sa * eff * r_diag + sc * y * lam * r_diag))


def _t_n(eps1: np.ndarray, eps2: np.ndarray, eps3: np.ndarray,
         r_diag: np.ndarray) -> complex:
    """T_n = (1/n) sum_j eps_j R_jj under the frozen sign convention."""
    _, sb, _ = CORRECTION_SIGNS
    return complex(np.mean((eps1 + sb * (eps2 + eps3)) * r_diag))


@dataclass(frozen=True)
class AuditResult:
    """Row-side identity audit plus the summed self-consistent equation.

    The arrays hold one entry per row index j.  Both sign variants of the
    summed equation are recorded: ``residual_exact`` is
    |s_n - S (1 - T_n + y Lambda s_n)| (the variant that balances) and
    ``residual_flipped`` is |s_n - S (1 + T_n - y Lambda s_n)|.
    """

    eps1: np.ndarray
    eps2: np.ndarray
    eps3: np.ndarray
    r_diag: np.ndarray
    residuals: np.ndarray
    convention: tuple[float, float, float]
    t_n: complex
    residual_exact: float
    residual_flipped: float

    @property
    def max_residual(self) -> float:
        return float(self.residuals.max())


def self_consistency_audit(x: SampledMatrix, z: complex, tol: float = 1e-8) -> AuditResult:
    """Audit the exact diagonal identity for every row index, at y = n/m.

    The identity must balance to ``tol`` under the frozen CORRECTION_SIGNS;
    otherwise an IdentityFailureError flags an upstream bug and names the
    convention that balances instead, if one does.
    """
    zc = _as_complex(z)
    y = x.n / x.m
    _check_y(y)
    spec = singular_values(x.scaled, vectors=True)
    s_n = stieltjes_esd(spec.singulars ** 2, zc)
    S = stieltjes_mp(zc, y)
    lam = s_n - S

    eps1, eps2, eps3, r_diag = correction_terms(x.scaled, spec, zc)
    eps = (eps1, eps2, eps3)
    residuals = _identity_residual(S, r_diag, eps, lam, y, CORRECTION_SIGNS)
    frozen = float(residuals.max())
    if not frozen <= tol:   # NaN fails too
        worst = {signs: float(np.max(_identity_residual(S, r_diag, eps, lam, y, signs)))
                 for signs in _OTHER_CONVENTIONS}
        best = min(worst, key=lambda k: worst[k])
        found = (f"{best} balances instead ({worst[best]:.3e})" if worst[best] <= tol
                 else f"no other convention balances (best {best}, {worst[best]:.3e})")
        raise IdentityFailureError(
            f"frozen convention {CORRECTION_SIGNS} misses residual {tol} "
            f"({frozen:.3e}); {found}"
        )

    t_n = _t_n(eps1, eps2, eps3, r_diag)
    return AuditResult(
        eps1=eps1, eps2=eps2, eps3=eps3, r_diag=r_diag, residuals=residuals,
        convention=CORRECTION_SIGNS, t_n=t_n,
        residual_exact=abs(s_n - S * (1.0 - t_n + y * lam * s_n)),
        residual_flipped=abs(s_n - S * (1.0 + t_n - y * lam * s_n)))


def ladder_grid(v: float, V: float, s0: float, y: float, mu: float,
                grid_u: int) -> np.ndarray:
    """The z-grid of the multiscale v-ladder, one row per level.

    Row l sits at Im z = s0^l v for l = 0..k_v: the first level is v itself
    and k_v is the least l with s0^l v >= V (0 when v >= V).  A ladder of more
    than 1000 levels is rejected before any level is evaluated, and so is an
    s0 whose powers overflow on the way to V.  Each row holds the ``grid_u``
    points of the D_mu u-band 1 - sqrt(y) + mu <= |u| <= 1 + sqrt(y) - mu in
    each sign band, in the row layout of ``domain_grid``.
    """
    if not (1.0 < s0 < math.inf):
        raise ParameterError(f"s0 must exceed 1 and be finite, got {s0!r}")
    if not (0.0 < v < math.inf):
        raise ParameterError(f"v must be positive and finite, got {v!r}")
    if not (mu > 0.0):
        raise ParameterError(f"d_mu domain needs mu > 0, got {mu!r}")
    if not (0.0 < V < math.inf):
        raise ParameterError(f"V must be positive and finite, got {V!r}")
    if grid_u < 1:
        raise ParameterError(f"grid_u must be >= 1, got {grid_u!r}")
    k_v = 0
    try:
        while s0 ** k_v * v < V:
            k_v += 1
            if k_v >= _MAX_LADDER_LEVELS:
                raise ParameterError(
                    f"s0={s0!r} gives more than {_MAX_LADDER_LEVELS} ladder levels "
                    f"from v={v!r} to V={V!r}; raise s0")
        levels = np.array([s0 ** l * v for l in range(k_v + 1)])
    except OverflowError:
        levels = np.array([math.inf])
    if not math.isfinite(levels[-1]):
        raise ParameterError(f"s0={s0!r} overflows the ladder levels from v={v!r} "
                             f"to V={V!r}; lower s0")
    return _band_rows(D_MU, mu, y, levels, grid_u)


@dataclass(frozen=True)
class PointStats:
    """Worst-case statistics for one grid point across replications."""

    lambda_abs: float
    gamma: float
    ratio: float
    max_entry: float | None


@dataclass(frozen=True)
class LocalLawReport:
    """Per-point and aggregate results of one local-law scan."""

    params: ModelParams
    C0: float
    grid: np.ndarray   # complex, one z per point of ``per_point``
    per_point: tuple[PointStats, ...]
    replications: int
    sup_ratio: float
    fitted_k: float
    exceedance_rate: float
    sup_lambda_per_replication: tuple[float, ...]

    @property
    def median_sup_lambda(self) -> float:
        return float(np.median(self.sup_lambda_per_replication))

    @property
    def median_sup_lambda_stderr(self) -> float | None:
        # normal-approximation standard error of the sample median; undefined
        # (None) at one replication
        v = np.asarray(self.sup_lambda_per_replication)
        if v.size < 2:
            return None
        return float(1.2533 * v.std(ddof=1) / math.sqrt(v.size))

    def to_dict(self) -> dict[str, Any]:
        return {
            "schema_version": 1,
            "params": self.params.to_dict(),
            "C0": self.C0,
            "replications": self.replications,
            "grid": [{"u": z.real, "v": z.imag} for z in self.grid.tolist()],
            "per_point": [
                {
                    "lambda_abs": ps.lambda_abs,
                    "gamma": ps.gamma,
                    "ratio": ps.ratio,
                    "max_entry": ps.max_entry,
                }
                for ps in self.per_point
            ],
            "aggregates": {
                "sup_ratio": self.sup_ratio,
                "fitted_K": self.fitted_k,
                "exceedance_rate_at_K": self.exceedance_rate,
                "sup_lambda_per_replication": list(self.sup_lambda_per_replication),
                "median_sup_lambda": self.median_sup_lambda,
                "median_sup_lambda_stderr": self.median_sup_lambda_stderr,
            },
        }


def locallaw_scan(params: ModelParams, domain: DomainSpec, replications: int,
                  C0: float = 1.0, max_entry_stride: int = 10,
                  workers: int | None = None) -> LocalLawReport:
    """Monte Carlo scan of |Lambda_n| / Gamma_n over a domain grid.

    One spectrum per replication; |Lambda_n| and Gamma_n at every grid point;
    max resolvent entries on every ``max_entry_stride``-th point (0 disables
    the max-entry pass, which then needs no singular vectors).  Each sample
    reaches the solver from ``scaled_sample``: as CSR at p <= 1/16, so that
    no dense n x m sample is drawn, and as the dense scaled array above it.
    """
    if replications < 1:
        raise ParameterError(f"replications must be >= 1, got {replications}")
    if max_entry_stride < 0:
        raise ParameterError(f"max_entry_stride must be >= 0, got {max_entry_stride}")
    y = params.y
    _check_y(y)
    grid = domain_grid(domain, y).ravel()
    gammas = gamma_n(params.n, params.p, grid.imag, C0)
    me_idx = list(range(0, grid.size, max_entry_stride)) if max_entry_stride else []

    def one(rep: int) -> tuple[np.ndarray, list[float]]:
        spec = singular_values(scaled_sample(params, rep), vectors=bool(me_idx))
        lam_abs = np.abs(lambda_n(spec.singulars ** 2, grid, y))
        return lam_abs, [resolvent_max_abs(spec, grid[i]) for i in me_idx]

    results = map_replications(one, replications, workers)

    lam_matrix = np.vstack([lam for lam, _ in results])      # reps x points
    ratios = lam_matrix / gammas[None, :]
    sup_ratio = float(ratios.max())
    lam_sup, ratio_sup = lam_matrix.max(axis=0), ratios.max(axis=0)
    me_sup = dict(zip(me_idx, np.max([me for _, me in results], axis=0).tolist()))
    per_point = tuple(PointStats(lambda_abs=float(lam_sup[i]), gamma=float(gammas[i]),
                                 ratio=float(ratio_sup[i]), max_entry=me_sup.get(i))
                      for i in range(grid.size))
    sup_per_rep = tuple(float(v) for v in lam_matrix.max(axis=1))
    return LocalLawReport(
        params=params,
        C0=float(C0),
        grid=grid,
        per_point=per_point,
        replications=replications,
        sup_ratio=sup_ratio,
        fitted_k=sup_ratio,
        exceedance_rate=float(np.mean(ratios > sup_ratio)),
        sup_lambda_per_replication=sup_per_rep,
    )


@dataclass(frozen=True)
class TnMomentResult:
    """Conditional Monte Carlo moment of T_n with its envelope comparison."""

    q: int
    estimate: float
    stderr: float | None   # None when a single replication survives
    survivors: int
    replications: int
    envelope_c1: float
    fitted_c: float

    def to_dict(self) -> dict[str, Any]:
        return {
            "schema_version": 1,
            "q": self.q,
            "estimate": self.estimate,
            "stderr": self.stderr,
            "survivors": self.survivors,
            "replications": self.replications,
            "envelope_at_C1": self.envelope_c1,
            "fitted_C": self.fitted_c,
        }


def tn_moment_study(params: ModelParams, z: complex, q: int,
                    replications: int, gamma: float = 0.5, s0: float = 2.0,
                    mu: float = 0.2, V: float = 1.0, grid_u: int = 8,
                    workers: int | None = None) -> TnMomentResult:
    """Monte Carlo estimate of E[|T_n|^q] restricted to the ladder event Q.

    The conditioning ladder starts at v = Im z and climbs by factors of s0
    up to V, checking sup_u |Lambda_n| <= gamma over the D_mu u-band at each
    level (``ladder_grid``, built once per study).  Reported against the
    envelope ((1/(nv) + 1/(np)) log n)^q at C = 1, together with the fitted
    C.  Each sample reaches the solver from ``scaled_sample``, as CSR at
    p <= 1/16; only a replication that passes the ladder at q > 0 densifies
    a CSR sample, for the correction terms.
    """
    if q not in (0, 2, 4):
        raise ParameterError(f"q must be one of 0, 2, 4, got {q!r}")
    if replications < 1000:
        raise ParameterError(f"replications must be >= 1000, got {replications}")
    if not (gamma >= 0.0):
        raise ParameterError(f"gamma must be nonnegative, got {gamma!r}")
    zc = _as_complex(z)
    y = params.y
    _check_y(y)
    v = zc.imag
    zs = ladder_grid(v, V, s0, y, mu, grid_u)
    scale = gamma_n(params.n, params.p, v, 1.0)   # the envelope's base at C = 1

    def one(rep: int) -> float | None:
        a = scaled_sample(params, rep)
        spec = singular_values(a, vectors=q > 0)
        if not (np.abs(lambda_n(spec.singulars ** 2, zs, y)).max(axis=1) <= gamma).all():
            return None
        if q == 0:
            return 1.0
        dense = a.toarray() if issparse(a) else a
        return abs(_t_n(*correction_terms(dense, spec, zc))) ** q

    values = [val for val in map_replications(one, replications, workers) if val is not None]
    if not values:
        raise DegenerateConditioningError(
            f"all {replications} replications failed the Q ladder at gamma={gamma}"
        )
    arr = np.asarray(values)
    estimate = float(arr.mean())
    stderr = float(arr.std(ddof=1) / math.sqrt(arr.size)) if arr.size > 1 else None
    envelope = scale ** q
    fitted_c = estimate ** (1.0 / q) / scale if q > 0 else 0.0
    return TnMomentResult(q=q, estimate=estimate, stderr=stderr, survivors=arr.size,
                          replications=replications, envelope_c1=envelope,
                          fitted_c=fitted_c)
