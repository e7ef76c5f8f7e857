import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import sparsemp as sm
from sparsemp import ComplexPoint, DomainSpec, ParameterError

from conftest import stieltjes_mp_oracle


def _random_points(count, seed=0, umax=3.0, vmin=1e-3, vmax=3.0):
    rng = np.random.default_rng(seed)
    us = rng.uniform(-umax, umax, count)
    vs = np.exp(rng.uniform(math.log(vmin), math.log(vmax), count))
    return us + 1j * vs


def test_stieltjes_frozen_value():
    s = sm.stieltjes_mp(10j, 0.5)
    assert s == pytest.approx(0.0990147305046316j, abs=1e-12)


def test_stieltjes_pure_imaginary_on_axis():
    for v in (0.1, 1.0, 5.0):
        s = sm.stieltjes_mp(complex(0.0, v), 0.3)
        assert abs(s.real) < 1e-14
        assert s.imag > 0


def test_quadratic_identity_and_branch():
    for y in (0.1, 0.25, 0.5, 0.9):
        for z in _random_points(1000, seed=hash(y) % 2**32):
            s = sm.stieltjes_mp(z, y)
            assert s.imag > 0
            w = z - (1 - y) / z
            assert abs(y * s * s + w * s + 1.0) < 1e-12


def test_b_dual_forms_agree():
    for y in (0.1, 0.5, 0.9):
        for z in _random_points(300, seed=5):
            s = sm.stieltjes_mp(z, y)
            b = sm.b_function(z, y)
            assert abs(b - (-1.0 / s + y * s)) < 1e-12


@settings(max_examples=200, deadline=None, database=None)
@given(pts=st.lists(st.tuples(st.floats(-3.0, 3.0), st.floats(1e-3, 3.0)),
                    min_size=1, max_size=40),
       y=st.floats(0.05, 0.95))
def test_law_identities_property(pts, y):
    z = np.array([complex(u, v) for u, v in pts])
    s = sm.stieltjes_mp(z, y)
    b = sm.b_function(z, y)
    assert s.shape == b.shape == z.shape
    w = z - (1 - y) / z
    assert np.all(s.imag > 0)
    assert np.abs(y * s * s + w * s + 1.0).max() <= 1e-12
    assert np.abs(b - (-1.0 / s + y * s)).max() <= 1e-12
    assert np.abs(b - (w + 2.0 * y * s)).max() <= 1e-12
    for i, zi in enumerate(z):
        zi = complex(zi)
        assert sm.stieltjes_mp(zi, y) == s[i]
        assert sm.b_function(zi, y) == b[i]
        oracle = stieltjes_mp_oracle(zi, y)
        assert abs(s[i] - oracle) <= 1e-12 * abs(oracle)


@settings(max_examples=50, deadline=None, database=None)
@given(size=st.integers(1, 10), data=st.data(),
       bad_v=st.sampled_from([0.0, -0.0, -1e-300, -0.5, math.nan]))
def test_array_z_with_nonpositive_imag_rejected(size, data, bad_v):
    z = np.full(size, complex(0.5, 0.25))
    z[data.draw(st.integers(0, size - 1))] = complex(0.5, bad_v)
    for f in (sm.stieltjes_mp, sm.b_function):
        with pytest.raises(ParameterError):
            f(z, 0.5)
    with pytest.raises(ParameterError):
        sm.stieltjes_esd(np.ones(3), z)


def test_stieltjes_asymptotic_minus_one_over_z():
    s = sm.stieltjes_mp(1e4j, 0.5)
    assert abs(s - (-1.0 / 1e4j)) < 1e-7


def test_stieltjes_rejects_bad_inputs():
    with pytest.raises(ParameterError):
        sm.stieltjes_mp(1j, 1.0)
    with pytest.raises(ParameterError):
        sm.stieltjes_mp(complex(1.0, -0.1), 0.5)
    with pytest.raises(ParameterError):
        ComplexPoint(1.0, 0.0)


def test_density_frozen_value_and_edges():
    assert sm.mp_density(1.0, 0.25) == pytest.approx(0.6164044440614999, abs=1e-12)
    a, b = sm.mp_edges(0.25)
    assert (a, b) == (0.5, 1.5)
    assert sm.mp_density(a, 0.25) == 0.0
    assert sm.mp_density(b, 0.25) == 0.0
    assert sm.mp_density(0.3, 0.25) == 0.0
    assert sm.mp_density(-1.0, 0.25) == sm.mp_density(1.0, 0.25)


def test_density_stieltjes_inversion():
    y = 0.25
    for x in np.linspace(0.6, 1.4, 20):
        inv = sm.stieltjes_mp(complex(x, 1e-8), y).imag / math.pi
        assert abs(inv - sm.mp_density(float(x), y)) < 1e-6


@pytest.mark.parametrize("y", [0.1, 0.25, 0.5, 0.9])
def test_density_mass_one(y):
    a, b = sm.mp_edges(y)
    val, err = quad(sm.mp_density, a, b, args=(y,), epsabs=1e-12, limit=200)
    assert err < 1e-8   # quad's estimate is conservative near the sqrt edges
    assert 2.0 * val == pytest.approx(1.0, abs=1e-8)


def test_cdf_normalization_symmetry_support():
    y = 0.3
    b = sm.mp_edges(y)[1]
    assert sm.mp_cdf(b, y) == pytest.approx(1.0, abs=1e-8)
    assert sm.mp_cdf(10.0, y) == 1.0
    assert sm.mp_cdf(0.0, y) == 0.5
    assert sm.mp_cdf(-b, y) == pytest.approx(0.0, abs=1e-10)
    assert sm.mp_cdf(-10.0, y) == 0.0
    xs = np.linspace(-2.0, 2.0, 41)
    vals = [sm.mp_cdf(float(t), y) for t in xs]
    assert all(v2 >= v1 - 1e-12 for v1, v2 in zip(vals, vals[1:]))
    for t in (0.4, 0.9, 1.3):
        assert sm.mp_cdf(t, y) + sm.mp_cdf(-t, y) == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("y", [0.01, 0.1, 0.3, 0.5, 0.9, 0.99])
def test_cdf_closed_form_against_quadrature(y):
    a, b = sm.mp_edges(y)
    edges = [a, b, a + 1e-9, b - 1e-9]
    xs = np.concatenate([np.linspace(-2.2, 2.2, 89), edges, np.negative(edges)])
    got = sm.mp_cdf(xs, y)
    assert got.shape == xs.shape
    for x, g in zip(xs, got):
        t = abs(float(x))
        if t <= a:
            oracle = 0.5
        elif t >= b:
            oracle = 1.0 if x > 0 else 0.0
        else:
            mass, _ = quad(sm.mp_density, a, t, args=(y,), epsabs=1e-14, epsrel=1e-14,
                           limit=200)
            oracle = 0.5 + math.copysign(mass, x)
        assert abs(g - oracle) <= 1e-12
        assert sm.mp_cdf(float(x), y) == g
    grid = np.stack([xs, -xs])
    assert np.array_equal(sm.mp_cdf(grid, y)[0], got)
    assert np.array_equal(sm.mp_density(grid, y),
                          [[sm.mp_density(float(x), y) for x in row] for row in grid])


def test_gamma_n_frozen_and_properties():
    val = sm.gamma_n(1000, 0.05, 0.1, 1.0)
    assert val == pytest.approx(math.log(1000) * 0.03, rel=1e-12)
    assert val == pytest.approx(0.2072, abs=5e-4)
    assert sm.gamma_n(1000, 0.05, 0.1, 0.0) == 0.0
    # with the 1/(np) term absent, doubling v halves the value
    lim = sm.gamma_n(100, 1e12, 0.2, 1.0)
    assert lim == pytest.approx(0.5 * sm.gamma_n(100, 1e12, 0.1, 1.0), rel=1e-6)
    with pytest.raises(ParameterError):
        sm.gamma_n(1, 0.1, 0.1, 1.0)
    with pytest.raises(ParameterError):
        sm.gamma_n(100, -0.1, 0.1, 1.0)


def test_theorem1_gamma_min_form():
    z = complex(1.0, 0.2)
    y = 0.5
    n, p, c0 = 1000, 0.05, 1.0
    absb = abs(sm.b_function(z, y))
    expected = 2.0 * c0 * math.log(n) * (1.0 / (n * 0.2)
                                         + min(1.0 / (n * p * absb), 1.0 / math.sqrt(n * p)))
    assert sm.gamma_n_theorem1(z, n, p, c0, y) == pytest.approx(expected, rel=1e-12)


def test_d_and_dn_formulas():
    z = complex(0.9, 0.3)
    y = 0.5
    b = sm.b_function(z, y)
    assert sm.d_function(z, y) == pytest.approx(b.imag / abs(b), rel=1e-12)
    n, p = 500, 0.1
    expected = (sm.d_function(z, y) + math.log(n) / (n * 0.3 * abs(b))) / (n * 0.3) \
        + 1.0 / (n * p * abs(b))
    assert sm.d_n_function(z, n, p, y) == pytest.approx(expected, rel=1e-12)


def test_prior_bound_branches():
    z = complex(1.0, 0.4)
    y = 0.5
    n, p = 2000, 0.1
    # C0 = 0 kills Gamma, so only the d_n branch contributes
    dn = sm.d_n_function(z, n, p, y)
    nv = n * 0.4
    expected = dn + dn ** 0.75 / nv ** 0.25 + math.sqrt(dn / nv)
    assert sm.prior_bound_tn(z, n, p, 0.0, y) == pytest.approx(expected, rel=1e-12)
    # huge C0 forces the |b| <= Gamma branch
    big = sm.prior_bound_tn(z, n, p, 1e6, y)
    gam = sm.gamma_n_theorem1(z, n, p, 1e6, y)
    expected2 = math.sqrt(gam / nv) + math.sqrt(gam) * (math.sqrt(gam) / math.sqrt(nv)
                                                        + 1.0 / math.sqrt(n * p))
    assert big == pytest.approx(expected2, rel=1e-12)
    assert sm.prior_bound_tn(z, n, p, 1.0, y) > 0.0


def test_prior_bound_doubling_n_non_increasing():
    y = 0.5
    lo, hi = 1 - math.sqrt(y) + 0.2, 1 + math.sqrt(y) - 0.2
    for u in np.linspace(lo, hi, 5):
        for v in np.geomspace(0.1, 1.0, 5):
            z = complex(u, v)
            for n in (500, 1000, 2000):
                a = sm.prior_bound_tn(z, n, 0.1, 1.0, y)
                b = sm.prior_bound_tn(z, 2 * n, 0.1, 1.0, y)
                assert b <= a + 1e-12


def test_domain_grid_dmu_band():
    spec = DomainSpec(kind="d_mu", a0=0.5, V=1.0, n=2000, grid_u=5, grid_v=4, mu=0.2)
    pts = sm.domain_grid(spec, 0.25)
    assert len(pts) == 2 * 5 * 4
    for pt in pts:
        assert 0.7 - 1e-12 <= abs(pt.u) <= 1.3 + 1e-12
        assert spec.v0 - 1e-12 <= pt.v <= 1.0 + 1e-12


def test_domain_grid_degenerate_two_points():
    spec = DomainSpec(kind="d_mu", a0=0.5, V=1.0, n=2000, grid_u=1, grid_v=1, mu=0.2)
    pts = sm.domain_grid(spec, 0.25)
    assert len(pts) == 2
    assert pts[0].u == -pts[1].u


def test_domain_grid_v0_exceeds_V():
    spec = DomainSpec(kind="d_mu", a0=1.0, V=1.0, n=1000, grid_u=2, grid_v=2, mu=0.2)
    assert spec.v0 == pytest.approx(math.log(1000) ** 4 / 1000, rel=1e-12)
    assert spec.v0 > 2.2
    with pytest.raises(ParameterError):
        sm.domain_grid(spec, 0.25)


def test_domain_grid_empty_band():
    spec = DomainSpec(kind="d_mu", a0=0.1, V=1.0, n=2000, grid_u=2, grid_v=2, mu=0.6)
    with pytest.raises(ParameterError):
        sm.domain_grid(spec, 0.25)   # mu >= sqrt(y)


def test_domain_grid_da0_band_tracks_v():
    spec = DomainSpec(kind="d_a0", a0=0.5, V=1.0, n=2000, grid_u=4, grid_v=3)
    pts = sm.domain_grid(spec, 0.25)
    r = 0.5
    for pt in pts:
        assert max(1 - r - pt.v, 0.0) - 1e-12 <= abs(pt.u) <= 1 + r + pt.v + 1e-12


def test_min_abs_b_nondecreasing_in_mu():
    y = 0.5
    eps = []
    for mu in (0.05, 0.1, 0.2, 0.3):
        spec = DomainSpec(kind="d_mu", a0=0.2, V=1.0, n=2000, grid_u=8, grid_v=6, mu=mu)
        pts = sm.domain_grid(spec, y)
        eps.append(min(abs(sm.b_function(pt, y)) for pt in pts))
    assert eps[0] > 0
    assert all(b >= a - 1e-12 for a, b in zip(eps, eps[1:]))
