import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.sparse import csr_array

import sparsemp as sm
from sparsemp import DivergentMomentError, EntryDistribution, ModelParams, ParameterError
from sparsemp.cli import _load


def test_scaling_is_raw_times_mask_over_sqrt_mp():
    params = ModelParams(n=4, m=8, p=0.5, dist=EntryDistribution.gaussian(),
                         delta=2.0, seed=42)
    x = sm.sample_matrix(params, 0)
    assert x.scaled.shape == (4, 8)
    # sqrt(m p) = sqrt(4) = 2
    np.testing.assert_array_equal(x.scaled, x.raw * x.mask / 2.0)


def test_p_one_forces_dense_mask():
    params = ModelParams(n=4, m=8, p=1.0, dist=EntryDistribution.rademacher(),
                         delta=2.0, seed=1)
    x = sm.sample_matrix(params, 0)
    assert x.mask.all()
    np.testing.assert_allclose(np.abs(x.scaled), 1.0 / math.sqrt(8), rtol=0, atol=1e-15)


def test_mask_fill_fraction_binomial():
    params = ModelParams(n=200, m=400, p=0.1, dist=EntryDistribution.gaussian(),
                         delta=2.0, seed=7)
    x = sm.sample_matrix(params, 0)
    se = math.sqrt(0.1 * 0.9 / (200 * 400))
    assert abs(x.mask.mean() - 0.1) <= 4 * se


def test_bit_reproducible_and_streams_independent():
    params = ModelParams(n=20, m=40, p=0.3, dist=EntryDistribution.gaussian(),
                         delta=2.0, seed=123)
    a = sm.sample_matrix(params, 5)
    b = sm.sample_matrix(params, 5)
    np.testing.assert_array_equal(a.raw, b.raw)
    np.testing.assert_array_equal(a.mask, b.mask)
    c = sm.sample_matrix(params, 6)
    assert not np.array_equal(a.raw, c.raw)
    # the raw stream does not depend on p: only the mask changes
    params9 = ModelParams(n=20, m=40, p=0.9, dist=EntryDistribution.gaussian(),
                          delta=2.0, seed=123)
    d = sm.sample_matrix(params9, 5)
    np.testing.assert_array_equal(a.raw, d.raw)
    assert not np.array_equal(a.mask, d.mask)


@pytest.mark.parametrize("dist, delta", [
    (EntryDistribution.gaussian(), 2.0),
    (EntryDistribution.rademacher(), 2.0),
    (EntryDistribution.pareto(6.0), 1.0),
])
@pytest.mark.parametrize("n, m, p", [
    (13, 29, 0.2),
    (13, 29, 1.0),
    (40, 80, 0.01),   # about e^-0.8 = 45% of the rows empty
    (17, 17, 0.5),
    (1, 9, 0.5),
])
def test_sparse_sample_bitwise_from_sample(dist, delta, n, m, p):
    params = ModelParams(n=n, m=m, p=p, dist=dist, delta=delta, seed=77)
    for rep in (0, 3):
        x = sm.sample_matrix(params, rep)
        a = sm.sparse_sample(params, rep)
        assert isinstance(a, csr_array) and a.shape == (n, m)
        assert a.has_canonical_format and a.data.dtype == np.float64
        assert np.array_equal(a.toarray(), x.scaled)
        # the stored values bit for bit, absent zeros not stored
        present = x.mask.astype(bool)
        np.testing.assert_array_equal(a.data.view(np.uint64),
                                      x.scaled[present].view(np.uint64))
        np.testing.assert_array_equal(np.diff(a.indptr), present.sum(axis=1))
        if p == 0.01:
            assert (np.diff(a.indptr) == 0).sum() >= n // 4
    with pytest.raises(ParameterError):
        sm.sparse_sample(params, -1)


@pytest.mark.parametrize("p, route", [(1 / 16, csr_array),
                                      (math.nextafter(1 / 16, 1.0), np.ndarray),
                                      (1.0, np.ndarray)])
def test_scaled_sample_route_follows_p(p, route):
    # CSR up to p = 1/16, where the two Gram products take equal time
    params = ModelParams(n=30, m=60, p=p, dist=EntryDistribution.gaussian(),
                         delta=2.0, seed=5)
    a = sm.scaled_sample(params, 2)
    assert type(a) is route
    dense = a.toarray() if route is csr_array else a
    assert np.array_equal(dense, sm.sample_matrix(params, 2).scaled)


@pytest.mark.parametrize("dist, delta", [
    (EntryDistribution.gaussian(), 2.0),
    (EntryDistribution.rademacher(), 2.0),
    (EntryDistribution.pareto(6.0), 1.0),
    (EntryDistribution.pareto(4.8), 0.5),
])
@pytest.mark.parametrize("p", [1.0, 0.2])
def test_present_magnitudes_bitwise_from_sample(dist, delta, p):
    params = ModelParams(n=13, m=29, p=p, dist=dist, delta=delta, seed=77)
    for rep in (0, 3):
        x = sm.sample_matrix(params, rep)
        flat, mag = sm.model.present_magnitudes(params, rep)
        np.testing.assert_array_equal(flat, np.flatnonzero(x.mask))
        np.testing.assert_array_equal(mag, np.abs(x.raw).ravel()[flat])
    with pytest.raises(ParameterError):
        sm.model.present_magnitudes(params, -1)


@pytest.mark.parametrize("dist", [
    EntryDistribution.gaussian(),
    EntryDistribution.rademacher(),
    EntryDistribution.pareto(6.0),
])
def test_unit_variance_within_four_se(dist):
    rng = np.random.Generator(np.random.Philox(2024))
    draws = dist.sample(rng, (200_000,))
    mu4 = dist.abs_moment(4.0)
    # bounded entries make Var(X^2) = 0; the estimator itself still has O(1/N) noise
    se = max(math.sqrt(max(mu4 - 1.0, 0.0) / draws.size), 2.0 / draws.size)
    assert abs(draws.var(ddof=1) - 1.0) <= 4 * se
    assert abs(draws.mean()) <= 4 / math.sqrt(draws.size) * math.sqrt(1.0)


def test_moment_rademacher_and_gaussian():
    assert EntryDistribution.rademacher().abs_moment(4 + 4.0) == 1.0
    assert EntryDistribution.gaussian().abs_moment(4 + 0.0) == pytest.approx(3.0, abs=1e-12)
    # double-factorial path: E N^8 = 105
    assert EntryDistribution.gaussian().abs_moment(8) == pytest.approx(105.0, abs=1e-9)


def test_moment_pareto_against_quadrature_oracle():
    alpha, delta = 6.0, 1.0
    dist = EntryDistribution.pareto(alpha)
    sd = math.sqrt(alpha / (alpha - 2.0))
    # E |T/sd|^5 over the density (alpha/2)|t|^(-alpha-1), |t| >= 1, symmetrized
    oracle, err = quad(lambda t: (t / sd) ** 5 * alpha * t ** (-alpha - 1.0), 1.0, np.inf)
    assert err < 1e-10
    assert dist.abs_moment(4 + delta) == pytest.approx(oracle, rel=1e-10)


def test_divergent_pareto_moment_raises():
    dist = EntryDistribution.pareto(6.0)
    with pytest.raises(DivergentMomentError):
        dist.abs_moment(4 + 2.0)   # 4 + 2 = alpha diverges
    with pytest.raises(DivergentMomentError):
        dist.abs_moment(6.5)


def test_pareto_constructor_and_pairing():
    with pytest.raises(ParameterError):
        EntryDistribution.pareto(3.5)
    with pytest.raises(DivergentMomentError):
        ModelParams(n=4, m=8, p=0.5, dist=EntryDistribution.pareto(5.0),
                    delta=1.5, seed=0)   # alpha <= 4 + delta
    ModelParams(n=4, m=8, p=0.5, dist=EntryDistribution.pareto(6.0), delta=1.0, seed=0)


def test_kappa_value():
    params = ModelParams(n=10, m=20, p=1.0, dist=EntryDistribution.gaussian(),
                         delta=4.0, seed=0)
    assert params.kappa() == pytest.approx(0.25, abs=0)


@pytest.mark.parametrize("kwargs", [
    dict(n=0, m=8, p=0.5),
    dict(n=4, m=3, p=0.5),
    dict(n=4, m=8, p=0.0),
    dict(n=4, m=8, p=1.5),
])
def test_invalid_params_rejected(kwargs):
    with pytest.raises(ParameterError):
        ModelParams(dist=EntryDistribution.gaussian(), delta=2.0, seed=0, **kwargs)


def test_negative_replication_rejected():
    params = ModelParams(n=4, m=8, p=0.5, dist=EntryDistribution.gaussian(),
                         delta=2.0, seed=0)
    with pytest.raises(ParameterError):
        sm.sample_matrix(params, -1)


def test_params_json_roundtrip():
    for dist in (EntryDistribution.gaussian(), EntryDistribution.pareto(7.5)):
        params = ModelParams(n=12, m=24, p=0.25, dist=dist, delta=1.5, seed=99)
        assert _load(ModelParams, params.to_dict()) == params
