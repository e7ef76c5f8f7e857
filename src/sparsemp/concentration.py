"""Bilinear-form moment inequality: exact/Monte Carlo left side, closed right side.

For independent coordinate vectors xi, eta and a k x k matrix A the inequality
bounds E|xi^T A eta|^q by

    C^q * ( A1 * ||A||^q  +  A2 * sum_j L_j^q  +  A3 * sum_{ij} |a_ij|^q ),

with column norms L_j^2 = sum_i a_ij^2 and ||A||^2 = sum_j L_j^2 (the
Frobenius-type quantity, not the operator norm).  The displayed A2 exponent
"(q-6)/(2(q-4)" carries an unbalanced parenthesis and its mu subscript mixes
xi and eta; both readings are exposed, the literal text is the default, and
the A2 term is only computed for q >= 8 where the literal exponents are sane.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from .errors import ExactEnumerationError, ParameterError
from .mc import MCEstimate
from .model import RADEMACHER, EntryDistribution

A2_SIDE_XI = "xi"
A2_SIDE_ETA = "eta"

_EXACT_MAX_K = 8


@dataclass(frozen=True, eq=False)
class ConcentrationInput:
    """Matrix, coordinate distributions, and even moment order q >= 2."""

    a: np.ndarray
    xi_dist: EntryDistribution
    eta_dist: EntryDistribution
    q: int

    def __post_init__(self):
        a = np.asarray(self.a, dtype=np.float64)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ParameterError(f"A must be a square matrix, got shape {a.shape}")
        object.__setattr__(self, "a", a)
        if not isinstance(self.q, int) or self.q < 2 or self.q % 2 != 0:
            raise ParameterError(f"q must be an even integer >= 2, got {self.q!r}")

    @property
    def k(self) -> int:
        return self.a.shape[0]


def column_norms(a: np.ndarray) -> np.ndarray:
    """L_j = sqrt(sum_i a_ij^2)."""
    return np.sqrt((np.asarray(a) ** 2).sum(axis=0))


def bilinear_moment_exact(inp: ConcentrationInput) -> float:
    """E|xi^T A eta|^q by full enumeration of the 2^(2k) Rademacher outcomes."""
    if inp.xi_dist.kind != RADEMACHER or inp.eta_dist.kind != RADEMACHER:
        raise ExactEnumerationError(
            "exact enumeration needs finitely supported (Rademacher) coordinates"
        )
    k = inp.k
    if k > _EXACT_MAX_K:
        raise ParameterError(f"exact enumeration capped at k <= {_EXACT_MAX_K}, got k={k}")
    signs = ((np.arange(2 ** k)[:, None] >> np.arange(k)[None, :]) & 1) * 2.0 - 1.0
    values = signs @ inp.a @ signs.T
    return float(np.mean(np.abs(values) ** inp.q))


def bilinear_moment_mc(inp: ConcentrationInput, samples: int, seed: int = 0) -> MCEstimate:
    """Plain Monte Carlo mean of |xi^T A eta|^q with its standard error."""
    if samples < 1000:
        raise ParameterError(f"samples must be >= 1000, got {samples}")
    xi_ss, eta_ss = np.random.SeedSequence(seed).spawn(2)
    xi = inp.xi_dist.sample(np.random.Generator(np.random.Philox(xi_ss)), (samples, inp.k))
    eta = inp.eta_dist.sample(np.random.Generator(np.random.Philox(eta_ss)), (samples, inp.k))
    forms = np.einsum("si,ij,sj->s", xi, inp.a, eta)
    values = np.abs(forms) ** inp.q
    return MCEstimate(value=float(values.mean()),
                      stderr=float(values.std(ddof=1) / math.sqrt(samples)), samples=samples)


@dataclass(frozen=True)
class ConcentrationReport:
    """Left side, the three right-side coefficients, and the fitted constant."""

    q: int
    a1: float
    a2: float
    a3: float
    a2_omitted: bool
    a2_moment_side: str
    norm_q: float          # ||A||^q
    col_sum_q: float       # sum_j L_j^q
    entry_sum_q: float     # sum_ij |a_ij|^q
    lhs: float | None = None
    lhs_stderr: float | None = None
    lhs_exact: bool = False

    def rhs_at_c(self, c: float) -> float:
        return c ** self.q * (self.a1 * self.norm_q + self.a2 * self.col_sum_q
                              + self.a3 * self.entry_sum_q)

    @property
    def fitted_c(self) -> float | None:
        """Smallest C >= 1 with lhs <= rhs_at_c(C)."""
        if self.lhs is None:
            return None
        base = self.rhs_at_c(1.0)
        if self.lhs <= 0.0:
            return 1.0
        if base <= 0.0:
            return math.inf
        return max(1.0, (self.lhs / base) ** (1.0 / self.q))

    def to_dict(self) -> dict[str, Any]:
        return {
            "schema_version": 1,
            "q": self.q,
            "A1": self.a1,
            "A2": self.a2,
            "A3": self.a3,
            "A2_omitted": self.a2_omitted,
            "A2_moment_side": self.a2_moment_side,
            "norm_q": self.norm_q,
            "col_sum_q": self.col_sum_q,
            "entry_sum_q": self.entry_sum_q,
            "lhs": self.lhs,
            "lhs_stderr": self.lhs_stderr,
            "lhs_exact": self.lhs_exact,
            "rhs_at_C1": self.rhs_at_c(1.0),
            "fitted_C": self.fitted_c,
        }


def lemma_rhs(inp: ConcentrationInput, a2_moment_side: str = A2_SIDE_XI) -> ConcentrationReport:
    """Right-side coefficients A1, A2, A3 and the matrix functionals.

    A1 = q^(3q/2) (sigma_xi^(2q) + sigma_eta^(2q));
    A2 = q^(3q/2) (sigma_xi^(2q) + sigma_eta^(2q))^((q-6)/(2(q-4)))
                  * (mu^(q/2))^(2(q-2)/(q-4))   [literal text uses mu_xi];
    A3 = q^(2q) mu_xi^(q) mu_eta^(q).
    """
    if a2_moment_side not in (A2_SIDE_XI, A2_SIDE_ETA):
        raise ParameterError(f"a2_moment_side must be 'xi' or 'eta', got {a2_moment_side!r}")
    q = inp.q
    sig_xi = inp.xi_dist.sigma
    sig_eta = inp.eta_dist.sigma
    sigma_sum = sig_xi ** (2 * q) + sig_eta ** (2 * q)
    a1 = q ** (1.5 * q) * sigma_sum
    a3 = q ** (2.0 * q) * inp.xi_dist.abs_moment(q) * inp.eta_dist.abs_moment(q)
    a2_omitted = q < 8
    if a2_omitted:
        a2 = 0.0
    else:
        side = inp.xi_dist if a2_moment_side == A2_SIDE_XI else inp.eta_dist
        mu_half = side.abs_moment(q / 2.0)
        a2 = (q ** (1.5 * q) * sigma_sum ** ((q - 6.0) / (2.0 * (q - 4.0)))
              * mu_half ** (2.0 * (q - 2.0) / (q - 4.0)))
    norms = column_norms(inp.a)
    return ConcentrationReport(
        q=q,
        a1=a1,
        a2=a2,
        a3=a3,
        a2_omitted=a2_omitted,
        a2_moment_side=a2_moment_side,
        norm_q=float((norms ** 2).sum() ** (q / 2.0)),
        col_sum_q=float((norms ** q).sum()),
        entry_sum_q=float((np.abs(inp.a) ** q).sum()),
    )


def evaluate(inp: ConcentrationInput, mode: str = "auto", samples: int = 20000,
             seed: int = 0, a2_moment_side: str = A2_SIDE_XI) -> ConcentrationReport:
    """Full report: right side plus the left side by enumeration or Monte Carlo."""
    rhs = lemma_rhs(inp, a2_moment_side)
    exact_ok = (inp.xi_dist.kind == RADEMACHER and inp.eta_dist.kind == RADEMACHER
                and inp.k <= _EXACT_MAX_K)
    if mode not in ("auto", "exact", "mc"):
        raise ParameterError(f"mode must be auto, exact or mc, got {mode!r}")
    if mode == "exact" or (mode == "auto" and exact_ok):
        lhs = bilinear_moment_exact(inp)
        return ConcentrationReport(**{**rhs.__dict__, "lhs": lhs, "lhs_stderr": 0.0,
                                      "lhs_exact": True})
    est = bilinear_moment_mc(inp, samples, seed)
    return ConcentrationReport(**{**rhs.__dict__, "lhs": est.value,
                                  "lhs_stderr": est.stderr, "lhs_exact": False})
