"""Closed-form analytics of the symmetrized Marchenko-Pastur law.

Provides the density g_y, its CDF, the Stieltjes transform S_y(z), the
auxiliary function b(z), the spectral-domain grids, and the deterministic
error envelopes (Gamma_n, d, d_n and the two-branch prior bound) used by the
local-law experiments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError

D_MU = "d_mu"
D_A0 = "d_a0"


@dataclass(frozen=True)
class ComplexPoint:
    """A point z = u + iv strictly in the upper half-plane."""

    u: float
    v: float

    def __post_init__(self):
        if not (self.v > 0.0):
            raise ParameterError(f"spectral parameter needs v > 0, got v={self.v!r}")

    @property
    def z(self) -> complex:
        return complex(self.u, self.v)


def _as_complex(z: "ComplexPoint | complex | np.ndarray") -> "complex | np.ndarray":
    """z as a complex number, or as a complex array when z is an array.

    Every element must have a positive imaginary part.
    """
    zc = np.asarray(z.z if isinstance(z, ComplexPoint) else z, dtype=np.complex128)
    if not (zc.imag.min(initial=math.inf) > 0.0):
        raise ParameterError("spectral parameter must have positive imaginary part, "
                             f"got {complex(zc.flat[zc.imag.argmin()])}")
    return complex(zc) if zc.ndim == 0 else zc


def _check_y(y: float) -> float:
    if not (0.0 < y < 1.0):
        raise ParameterError(f"aspect ratio y must lie in (0, 1), got {y!r}")
    return float(y)


def mp_edges(y: float) -> tuple[float, float]:
    """Support edges (a, b) = (1 - sqrt(y), 1 + sqrt(y)) of the symmetrized law."""
    _check_y(y)
    r = math.sqrt(y)
    return 1.0 - r, 1.0 + r


def _w_and_b(z: "ComplexPoint | complex | np.ndarray",
             y: float) -> tuple[np.ndarray, np.ndarray]:
    """w = z - (1-y)/z and b = sqrt(w - 2 sqrt y) sqrt(w + 2 sqrt y), elementwise.

    For Im z > 0 also Im w > 0, so both principal roots lie in the first
    quadrant and Im b > 0: b is the root of b^2 = w^2 - 4y on the Herglotz
    branch, with no sign to pick.  Scalars go through the same array code, so
    a scalar call returns exactly the element of an array call.
    """
    _check_y(y)
    zc = np.atleast_1d(_as_complex(z))
    w = zc - (1.0 - y) / zc
    r = 2.0 * math.sqrt(y)
    return w, np.sqrt(w - r) * np.sqrt(w + r)


def _like(z, out: np.ndarray) -> "complex | np.ndarray":
    """``out`` as it is for an array z; its one element as a Python scalar for a scalar z."""
    return out if np.ndim(z) else out.item()


def stieltjes_mp(z: "ComplexPoint | complex | np.ndarray",
                 y: float) -> "complex | np.ndarray":
    """Stieltjes transform S_y(z) of the symmetrized Marchenko-Pastur law.

    S is the root with positive imaginary part (the Herglotz branch) of
    y*S^2 + w*S + 1 = 0, w = z - (1-y)/z.  In the form S = -2 / (w + b) the
    sum w + b has no cancellation, since Im w and Im b are both positive.
    Takes a scalar z or an array of z and returns the same shape.
    """
    w, b = _w_and_b(z, y)
    return _like(z, -2.0 / (w + b))


def b_function(z: "ComplexPoint | complex | np.ndarray",
               y: float) -> "complex | np.ndarray":
    """b(z) = z - (1-y)/z + 2*y*S_y(z)  (equivalently -1/S + y*S).

    Equal to sqrt(w^2 - 4y) on the Herglotz branch; scalar or array z.
    """
    _, b = _w_and_b(z, y)
    return _like(z, b)


def mp_density(x: "float | np.ndarray", y: float) -> "float | np.ndarray":
    """Symmetrized MP density g_y(x) = sqrt((x^2-a^2)(b^2-x^2)) / (2 pi y |x|).

    Takes a scalar x or an array of x and returns the same shape; zero off
    the support.
    """
    a, b = mp_edges(y)
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    x2 = xs * xs
    inside = (x2 > a * a) & (x2 < b * b)
    out = np.zeros_like(xs)
    x2 = x2[inside]
    out[inside] = np.sqrt((x2 - a * a) * (b * b - x2)) / (2.0 * math.pi * y * np.abs(xs[inside]))
    return _like(x, out)


def mp_cdf(x: "float | np.ndarray", y: float) -> "float | np.ndarray":
    """CDF G of the symmetrized MP law in closed form; scalar or array x.

    The mass of g_y on (a, |x|) is integrated after the substitution
    x^2 = 1 + y + 2 sqrt(y) sin(theta), with theta taken by atan2: arcsin
    would lose half the digits at the edges.  G is exactly 1/2 on the gap
    [-a, a], 0 for x <= -b and 1 for x >= b.
    """
    a, b = mp_edges(y)
    r = math.sqrt(y)
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    t = np.clip(np.abs(xs), a, b)
    rho = np.sqrt((b - t) * (b + t) * (t - a) * (t + a))   # 2 sqrt(y) cos(theta)
    c = t * t - (1.0 + y)                                   # 2 sqrt(y) sin(theta)
    tau = c / (2.0 * r + rho)                               # tan(theta / 2)
    arcs = np.arctan(((1.0 + y) * tau + 2.0 * r) / (1.0 - y)) + math.atan((1.0 - r) / (1.0 + r))
    mass = ((1.0 + y) * (np.arctan2(c, rho) + 0.5 * math.pi) + rho
            - 2.0 * (1.0 - y) * arcs) / (4.0 * math.pi * y)
    out = np.select([xs >= b, xs <= -b, np.abs(xs) <= a], [1.0, 0.0, 0.5],
                    0.5 + np.sign(xs) * mass)
    return _like(x, out)


def gamma_n(n: int, p: float, v: float, C0: float) -> float:
    """Simplified error envelope Gamma_n = C0 * log(n) * (1/(n v) + 1/(n p)).

    This is the form valid inside D_mu, where |b(z)| is bounded below.
    """
    if not isinstance(n, int) or n < 2:
        raise ParameterError(f"n must be an integer >= 2, got {n!r}")
    if not (p > 0.0 and v > 0.0):
        raise ParameterError(f"p and v must be positive, got p={p!r}, v={v!r}")
    if C0 < 0.0:
        raise ParameterError(f"C0 must be nonnegative, got {C0!r}")
    return C0 * math.log(n) * (1.0 / (n * v) + 1.0 / (n * p))


def gamma_n_theorem1(z: "ComplexPoint | complex", n: int, p: float, C0: float, y: float) -> float:
    """Envelope with the min term: 2 C0 log(n) (1/(nv) + min(1/(np|b|), 1/sqrt(np)))."""
    if not isinstance(n, int) or n < 2:
        raise ParameterError(f"n must be an integer >= 2, got {n!r}")
    if not (p > 0.0):
        raise ParameterError(f"p must be positive, got {p!r}")
    zc = _as_complex(z)
    v = zc.imag
    absb = abs(b_function(zc, y))
    if absb > 0.0:
        min_term = min(1.0 / (n * p * absb), 1.0 / math.sqrt(n * p))
    else:
        min_term = 1.0 / math.sqrt(n * p)
    return 2.0 * C0 * math.log(n) * (1.0 / (n * v) + min_term)


def d_function(z: "ComplexPoint | complex", y: float) -> float:
    """d(z) = Im b(z) / |b(z)|."""
    b = b_function(z, y)
    return b.imag / abs(b)


def d_n_function(z: "ComplexPoint | complex", n: int, p: float, y: float) -> float:
    """d_n(z) = (1/(nv)) (d(z) + log(n)/(nv |b|)) + 1/(np |b|)."""
    zc = _as_complex(z)
    v = zc.imag
    b = b_function(zc, y)
    absb = abs(b)
    d = b.imag / absb
    return (d + math.log(n) / (n * v * absb)) / (n * v) + 1.0 / (n * p * absb)


def prior_bound_tn(z: "ComplexPoint | complex", n: int, p: float, C0: float, y: float) -> float:
    """Two-branch deterministic bound on |Lambda_n|, evaluated literally.

    The branch indicator compares |b(z)| against the min-form envelope; the
    |b| >= Gamma branch is driven by d_n(z), the other branch by powers of
    the envelope itself.  Both indicators are evaluated with non-strict
    inequalities as displayed, so at exact equality the two branches add.
    """
    zc = _as_complex(z)
    v = zc.imag
    gam = gamma_n_theorem1(zc, n, p, C0, y)
    absb = abs(b_function(zc, y))
    nv = n * v
    out = 0.0
    if absb >= gam:
        dn = d_n_function(zc, n, p, y)
        out += dn + dn ** 0.75 / nv ** 0.25 + dn ** 0.5 / nv ** 0.5
    if absb <= gam:
        out += math.sqrt(gam / nv) + math.sqrt(gam) * (math.sqrt(gam) / math.sqrt(nv)
                                                       + 1.0 / math.sqrt(n * p))
    return out


@dataclass(frozen=True)
class DomainSpec:
    """Rectangular scan domain in the upper half-plane.

    kind "d_mu": the band 1 - sqrt(y) + mu <= |u| <= 1 + sqrt(y) - mu, fixed in v.
    kind "d_a0": the wider band (1 - sqrt(y) - v)_+ <= |u| <= 1 + sqrt(y) + v.
    In both cases v runs log-spaced from v0 = a0 (log n)^4 / n up to V.
    """

    kind: str
    a0: float
    V: float
    n: int
    grid_u: int
    grid_v: int
    mu: float = 0.0

    def __post_init__(self):
        if self.kind not in (D_MU, D_A0):
            raise ParameterError(f"unknown domain kind {self.kind!r}")
        if not (self.a0 > 0.0):
            raise ParameterError(f"a0 must be positive, got {self.a0!r}")
        if not (self.V > 0.0):
            raise ParameterError(f"V must be positive, got {self.V!r}")
        if not isinstance(self.n, int) or self.n < 2:
            raise ParameterError(f"n must be an integer >= 2, got {self.n!r}")
        if self.grid_u < 1 or self.grid_v < 1:
            raise ParameterError("grid_u and grid_v must be >= 1")
        if self.kind == D_MU and not (self.mu > 0.0):
            raise ParameterError(f"d_mu domain needs mu > 0, got {self.mu!r}")

    @property
    def v0(self) -> float:
        return self.a0 * math.log(self.n) ** 4 / self.n


def _u_band(kind: str, mu: float, y: float, v: float) -> tuple[float, float]:
    r = math.sqrt(y)
    if kind == D_MU:
        lo, hi = 1.0 - r + mu, 1.0 + r - mu
    else:
        lo, hi = max(1.0 - r - v, 0.0), 1.0 + r + v
    if lo > hi:
        raise ParameterError(
            f"empty u-band for kind={kind}, mu={mu}, y={y}: [{lo}, {hi}]"
        )
    return lo, hi


def domain_grid(spec: DomainSpec, y: float) -> list[ComplexPoint]:
    """Grid points covering both sign bands of the domain.

    v is log-spaced on [v0, V]; u is uniform within each band.  Points are
    emitted v-ascending, negative band before positive, u ascending, which
    fixes a deterministic serialization order.
    """
    _check_y(y)
    v0 = spec.v0
    if v0 > spec.V:
        raise ParameterError(
            f"v0 = a0 log^4(n)/n = {v0:.6g} exceeds V = {spec.V}; "
            "reduce a0 or raise V for this n"
        )
    vs = np.geomspace(v0, spec.V, spec.grid_v)
    points: list[ComplexPoint] = []
    for v in vs:
        lo, hi = _u_band(spec.kind, spec.mu, y, float(v))
        us = np.linspace(lo, hi, spec.grid_u)
        for u in us[::-1]:
            points.append(ComplexPoint(-float(u), float(v)))
        for u in us:
            points.append(ComplexPoint(float(u), float(v)))
    return points
