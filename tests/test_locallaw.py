import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_array

import sparsemp as sm
from sparsemp import (CORRECTION_SIGNS, DomainSpec, IdentityFailureError,
                      ParameterError)

from conftest import (dense_resolvent, dense_sample, gaussian_params,
                      watch_solver_input)


def oracle_corrections(x, z, p, j, side):
    """Correction terms by dense inversion and explicit loops (independent path)."""
    n, m = x.n, x.m
    full = dense_resolvent(x.scaled, z)
    if side == "row":
        keep = [i for i in range(n) if i != j]
        minor = dense_resolvent(x.scaled[keep, :], z)
        block = [minor[(n - 1) + l, (n - 1) + l] for l in range(m)]
        e1 = sum(full[n + l, n + l] for l in range(m)) / m - sum(block) / m
        e2 = sum((x.raw[j, l] ** 2 * x.mask[j, l] - p) * block[l] for l in range(m)) / (m * p)
        e3 = 0.0
        for l in range(m):
            for k in range(m):
                if l != k:
                    e3 += (x.raw[j, l] * x.raw[j, k] * x.mask[j, l] * x.mask[j, k]
                           * minor[(n - 1) + l, (n - 1) + k])
        e3 /= m * p
        r_diag = full[j, j]
    else:
        keep = [i for i in range(m) if i != j]
        minor = dense_resolvent(x.scaled[:, keep], z)
        block = [minor[i, i] for i in range(n)]
        e1 = sum(full[i, i] for i in range(n)) / m - sum(block) / m
        e2 = sum((x.raw[i, j] ** 2 * x.mask[i, j] - p) * block[i] for i in range(n)) / (m * p)
        e3 = 0.0
        for i in range(n):
            for k in range(n):
                if i != k:
                    e3 += (x.raw[i, j] * x.raw[k, j] * x.mask[i, j] * x.mask[k, j]
                           * minor[i, k])
        e3 /= m * p
        r_diag = full[n + j, n + j]
    return e1, e2, e3, r_diag


def test_lambda_symmetry_in_u(medium_sample):
    _, x = medium_sample
    s2 = sm.singular_values(x.scaled, vectors=True).singulars ** 2
    for u, v in ((0.8, 0.3), (1.4, 0.05), (0.2, 1.0)):
        a = abs(sm.lambda_n(s2, complex(u, v), 0.5))
        b = abs(sm.lambda_n(s2, complex(-u, v), 0.5))
        assert abs(a - b) < 1e-12


def test_lambda_dense_calibration_large_n():
    # dense p=1 surrogate of the limit: Lambda at z=i must be small
    params = gaussian_params(4000, 8000, 1.0, seed=314)
    x = sm.sample_matrix(params, 0)
    assert abs(sm.lambda_n(sm.singular_values(x.scaled, vectors=False).singulars ** 2, 1j, 0.5)) < 0.05


def identity_residuals(x, z, side, terms):
    """|R - base (1 - eps R + y Lambda R)| per index, eps = eps_1 - eps_2 - eps_3.

    base is S_y(z) on the row side and -(z + y S_y(z))^{-1} on the column side.
    """
    e1, e2, e3, r = terms
    y = x.n / x.m
    S = sm.stieltjes_mp(z, y)
    base = S if side == "row" else -1.0 / (z + y * S)
    lam = sm.lambda_n(sm.singular_values(x.scaled, vectors=True).singulars ** 2, z, y)
    return np.abs(r - base * (1.0 - (e1 - e2 - e3) * r + y * lam * r))


@pytest.mark.parametrize("side", ["row", "column"])
def test_correction_terms_against_dense_oracle(side):
    # the library reads only x.scaled; the oracle rebuilds the unscaled
    # entries from raw and mask with the model p, so p must cancel
    rng = np.random.default_rng(8)
    dists = (sm.EntryDistribution.gaussian(), sm.EntryDistribution.rademacher(),
             sm.EntryDistribution.pareto(6.0))
    cases = []
    for trial, (dist, p) in enumerate(itertools.product(dists, (0.3, 0.7, 1.0))):
        params = sm.ModelParams(n=2 + trial % 2, m=4, p=p, dist=dist, delta=1.0,
                                seed=100 + trial)
        cases.append((sm.sample_matrix(params, 0), p))
    cases.append((dense_sample(np.zeros((2, 3))), 1.0))
    for x, p in cases:
        z = complex(rng.uniform(-1.5, 1.5), rng.uniform(0.2, 1.0))
        spec = sm.singular_values(x.scaled, vectors=True)
        terms = sm.correction_terms(x.scaled, spec, z, side=side)
        size = x.n if side == "row" else x.m
        assert all(t.shape == (size,) for t in terms)
        for j in range(size):
            want = oracle_corrections(x, z, p, j, side)
            for got, exp in zip(terms, want):
                assert got[j] == pytest.approx(exp, abs=1e-12)
        assert identity_residuals(x, z, side, terms).max() < 1e-10
    with pytest.raises(ParameterError):
        sm.correction_terms(x.scaled, spec, z, side="diagonal")


def test_correction_terms_square_small_direct():
    # n = m, so deleting a column leaves a minor with m' < n; the Schur
    # downdate must stay exact there, on both sides
    x = dense_sample(np.array([[1.0, -0.5], [0.3, 2.0]]))
    z = complex(0.4, 0.6)
    spec = sm.singular_values(x.scaled, vectors=True)
    for side in ("row", "column"):
        terms = sm.correction_terms(x.scaled, spec, z, side=side)
        for j in range(2):
            want = oracle_corrections(x, z, 1.0, j, side)
            for got, exp in zip(terms, want):
                assert got[j] == pytest.approx(exp, abs=1e-12)


def test_correction_terms_zero_matrix():
    x = dense_sample(np.zeros((3, 4)))
    z = complex(0.7, 0.3)
    terms = sm.correction_terms(x.scaled, sm.singular_values(x.scaled, vectors=True), z)
    eps1, eps2, eps3, _ = terms
    # with X = 0 the centering leaves eps2 = (1/z), and the bilinear sum dies
    np.testing.assert_allclose(eps2, 1.0 / z, rtol=0, atol=1e-13)
    assert (eps3 == 0.0).all()
    np.testing.assert_allclose(eps1, 0.0, rtol=0, atol=1e-13)
    assert identity_residuals(x, z, "row", terms).max() < 1e-12


def test_eps1_interlacing_scale():
    rng = np.random.default_rng(41)
    for _ in range(1000):
        n = int(rng.integers(2, 8))
        m = int(rng.integers(n + 1, 2 * n + 2))
        params = gaussian_params(n, m, float(rng.uniform(0.4, 1.0)),
                                 seed=int(rng.integers(10**6)))
        x = sm.sample_matrix(params, 0)
        v = float(rng.uniform(0.1, 1.5))
        z = complex(rng.uniform(-1.5, 1.5), v)
        eps1 = sm.correction_terms(x.scaled, sm.singular_values(x.scaled, vectors=True), z)[0]
        assert np.abs(eps1).max() <= 2.0 / (m * v)


def test_audit_null_matrix_balances():
    x = dense_sample(np.zeros((4, 6)))
    audit = sm.self_consistency_audit(x, complex(0.3, 0.8))
    assert audit.convention == CORRECTION_SIGNS
    assert audit.max_residual < 1e-12
    assert audit.residual_exact < 1e-12


def test_audit_rejects_a_balancing_non_frozen_convention(monkeypatch):
    # with eps_2 and eps_3 flipped the identity balances under (-1, 1, 1)
    # instead of the frozen convention; the audit must refuse, not adopt it
    correct = sm.locallaw.correction_terms

    def flipped(a, spec, z, side="row"):
        e1, e2, e3, r = correct(a, spec, z, side)
        return e1, -e2, -e3, r

    monkeypatch.setattr(sm.locallaw, "correction_terms", flipped)
    x = sm.sample_matrix(gaussian_params(20, 40, 0.5, seed=3), 0)
    with pytest.raises(IdentityFailureError, match=r"\(-1\.0, 1\.0, 1\.0\) balances instead"):
        sm.self_consistency_audit(x, complex(0.9, 0.5))


def test_audit_rejects_nan_residuals(monkeypatch):
    # NaN > tol is false, so a NaN residual must not slip through as balanced
    correct = sm.locallaw.correction_terms

    def poisoned(a, spec, z, side="row"):
        e1, e2, e3, r = correct(a, spec, z, side)
        return np.full_like(e1, np.nan), e2, e3, r

    monkeypatch.setattr(sm.locallaw, "correction_terms", poisoned)
    x = sm.sample_matrix(gaussian_params(20, 40, 0.5, seed=3), 0)
    with pytest.raises(IdentityFailureError, match="no other convention balances"):
        sm.self_consistency_audit(x, complex(0.9, 0.5))


def test_audit_unique_convention_n2():
    params = gaussian_params(2, 4, 0.8, seed=7)
    x = sm.sample_matrix(params, 0)
    z = complex(0.6, 0.5)
    audit = sm.self_consistency_audit(x, z)
    assert audit.convention == CORRECTION_SIGNS
    assert audit.max_residual < 1e-10
    # alternate conventions are off by order one, not machine precision
    S = sm.stieltjes_mp(z, 0.5)
    lam = sm.lambda_n(sm.singular_values(x.scaled, vectors=True).singulars ** 2, z, 0.5)
    for sa, sb, sc in ((1, 1, 1), (-1, 1, 1), (1, -1, -1), (-1, -1, -1)):
        eff = audit.eps1 + sb * (audit.eps2 + audit.eps3)
        r = audit.r_diag
        resid = np.abs(r - S * (1 + sa * eff * r + sc * 0.5 * lam * r))
        assert (resid > 1e-6).all()


def test_audit_convention_stable_across_n():
    for n, seed in ((2, 1), (5, 2), (17, 3), (40, 4)):
        params = gaussian_params(n, 2 * n, 0.6, seed=seed)
        x = sm.sample_matrix(params, 0)
        audit = sm.self_consistency_audit(x, complex(0.9, 0.4))
        assert audit.convention == CORRECTION_SIGNS
        assert audit.max_residual < 1e-8
        assert audit.residual_exact < 1e-10
        assert audit.residuals.shape == (n,)


@settings(max_examples=40, deadline=None, database=None)
@given(n=st.integers(2, 30), extra=st.integers(1, 40), p=st.floats(0.3, 1.0),
       u=st.floats(-2.0, 2.0), v=st.floats(0.2, 1.5),
       dist=st.sampled_from([sm.EntryDistribution.gaussian(),
                             sm.EntryDistribution.rademacher(),
                             sm.EntryDistribution.pareto(6.0)]),
       seed=st.integers(0, 10**9))
# a sparse sample whose mask fill fraction is not exactly p: the audit reads no p
@example(n=100, extra=100, p=0.3, u=0.9, v=0.5, dist=sm.EntryDistribution.gaussian(),
         seed=3)
def test_audit_convention_property(n, extra, p, u, v, dist, seed):
    params = sm.ModelParams(n=n, m=n + extra, p=p, dist=dist, delta=1.0, seed=seed)
    x = sm.sample_matrix(params, 0)
    audit = sm.self_consistency_audit(x, complex(u, v))
    assert audit.convention == CORRECTION_SIGNS
    assert audit.max_residual <= 1e-10


def test_audit_large_n_pinned_convention():
    params = gaussian_params(400, 800, 0.5, seed=0)
    x = sm.sample_matrix(params, 0)
    audit = sm.self_consistency_audit(x, complex(0.9, 0.5))
    assert audit.convention == CORRECTION_SIGNS
    assert audit.max_residual <= 1e-8
    assert audit.residuals.shape == (400,)


def test_self_consistent_fixed_point_algebra():
    # with eps == 0: s = S(1 - 0 + y*Lambda*s) balances iff Lambda == 0
    z, y = complex(0.8, 0.6), 0.5
    S = sm.stieltjes_mp(z, y)
    assert abs(S - S * (1 + y * 0.0 * S)) == 0.0
    lam = 0.1
    s_fake = S + lam
    assert abs(s_fake - S * (1 + y * lam * s_fake)) > 1e-3


def ladder_sups(s2, levels, y, mu, grid_u):
    """Per-level sup_u |Lambda_n| by a loop of scalar lambda_n calls (the oracle)."""
    lo, hi = 1.0 - math.sqrt(y) + mu, 1.0 + math.sqrt(y) - mu
    sups = []
    for lvl in levels:
        sup = 0.0
        for u in np.linspace(lo, hi, grid_u):
            for sign in (-1.0, 1.0):
                sup = max(sup, abs(sm.lambda_n(s2, complex(sign * u, lvl), y)))
        sups.append(sup)
    return sups


def test_ladder_grid_counts():
    # v = 0.1, s0 = 2, V = 1 -> k_v = 4, 5 levels
    zs = sm.ladder_grid(0.1, 1.0, 2.0, y=0.5, mu=0.2, grid_u=4)
    assert zs.shape == (5, 8)
    levels = zs[:, 0].imag
    assert levels[0] == 0.1
    np.testing.assert_allclose(levels, 0.1 * 2.0 ** np.arange(5), rtol=1e-15, atol=0)
    assert (zs.imag == levels[:, None]).all()
    # every row in the layout of domain_grid: negative band first, u ascending
    dom = DomainSpec(kind="d_mu", a0=0.1, V=1.0, n=2000, grid_u=4, grid_v=1, mu=0.2)
    assert np.array_equal(zs.real, np.broadcast_to(sm.domain_grid(dom, 0.5).real, zs.shape))
    assert (np.diff(zs.real, axis=1) > 0).all()
    params = gaussian_params(60, 120, 0.5, seed=3)
    s2 = sm.singular_values(sm.sample_matrix(params, 0).scaled, vectors=True).singulars ** 2
    sups = np.abs(sm.lambda_n(s2, zs, 0.5)).max(axis=1)
    assert (sups <= 1e9).all()
    assert not (sups <= 0.0).any()
    # a gamma between the smallest and largest per-level sup splits the flags
    want = ladder_sups(s2, levels, 0.5, 0.2, 4)
    gamma = 0.5 * (min(want) + max(want))
    assert min(want) < gamma < max(want)
    flags = sups <= gamma
    assert flags.tolist() == [sup <= gamma for sup in want]
    assert flags.any() and not flags.all()
    # the first level already at V: one level
    assert sm.ladder_grid(1.5, 1.0, 2.0, y=0.5, mu=0.2, grid_u=4).shape == (1, 8)
    for bad in ({"s0": 1.0}, {"s0": math.inf}, {"v": 0.0}, {"v": math.inf}, {"mu": 0.0},
                {"mu": 0.8}, {"y": 1.0}, {"V": math.nan}, {"V": math.inf}, {"grid_u": 0}):
        with pytest.raises(ParameterError):
            sm.ladder_grid(**{"v": 0.1, "V": 1.0, "s0": 2.0, "y": 0.5, "mu": 0.2,
                              "grid_u": 4, **bad})


def test_ladder_grid_rejects_long_ladder():
    # 1000 levels are allowed, 1001 are not
    assert sm.ladder_grid(2.0 ** -999, 1.0, 2.0, y=0.5, mu=0.2, grid_u=1).shape == (1000, 2)
    for s0, v in ((2.0, 2.0 ** -1000), (1.001, 0.01), (1.000000000001, 0.01),
                  (1.0 + 2.0 ** -52, 5e-324)):
        with pytest.raises(ParameterError, match="s0"):
            sm.ladder_grid(v, 1.0, s0, y=0.5, mu=0.2, grid_u=1)


def test_ladder_grid_rejects_overflowing_s0():
    # s0^2 overflows before s0^l v reaches V; s0^1 v overflows to inf
    for v, V, s0 in ((1e-300, 1e10, 1e200), (1e300, 1e305, 1e10)):
        with pytest.raises(ParameterError, match="s0"):
            sm.ladder_grid(v, V, s0, y=0.5, mu=0.2, grid_u=2)
    # an ordinary s0 keeps the levels s0^l v exactly
    zs = sm.ladder_grid(0.013, 1.0, 1.7, y=0.5, mu=0.2, grid_u=2)
    assert zs[:, 0].imag.tolist() == [1.7 ** l * 0.013 for l in range(zs.shape[0])]


def test_locallaw_scan_plumbing():
    params = gaussian_params(50, 100, 0.5, seed=11)
    n = 50
    a0 = 0.2 * n / math.log(n) ** 4
    dom = DomainSpec(kind="d_mu", a0=a0, V=1.0, n=n, grid_u=1, grid_v=1, mu=0.2)
    report = sm.locallaw_scan(params, dom, replications=3, C0=1.0, max_entry_stride=1)
    assert len(report.grid) == 2
    for ps in report.per_point:
        assert ps.ratio == pytest.approx(ps.lambda_abs / ps.gamma, rel=1e-12)
        assert ps.gamma > 0
        assert ps.max_entry is not None and np.isfinite(ps.max_entry)
    assert report.sup_ratio == max(ps.ratio for ps in report.per_point)
    assert report.fitted_k == report.sup_ratio
    assert report.exceedance_rate == 0.0
    assert len(report.sup_lambda_per_replication) == 3
    assert report.median_sup_lambda > 0
    # deterministic with respect to worker count
    report2 = sm.locallaw_scan(params, dom, replications=3, C0=1.0,
                               max_entry_stride=1, workers=2)
    assert report2.sup_ratio == report.sup_ratio
    assert report2.sup_lambda_per_replication == report.sup_lambda_per_replication
    assert ([ps.max_entry for ps in report2.per_point]
            == [ps.max_entry for ps in report.per_point])


def test_locallaw_scan_max_entry_matches_direct():
    params = gaussian_params(40, 80, 0.5, seed=13)
    n = 40
    a0 = 0.3 * n / math.log(n) ** 4
    dom = DomainSpec(kind="d_mu", a0=a0, V=1.0, n=n, grid_u=2, grid_v=1, mu=0.2)
    report = sm.locallaw_scan(params, dom, replications=1, C0=1.0, max_entry_stride=1)
    spec = sm.singular_values(sm.sample_matrix(params, 0).scaled, vectors=True)
    for z, ps in zip(report.grid, report.per_point):
        r = sm.resolvent(spec, z)
        assert ps.max_entry == pytest.approx(np.abs(r).max(), abs=1e-12)


@pytest.mark.parametrize("p, route", [(1 / 16, csr_array), (0.5, np.ndarray)])
@pytest.mark.parametrize("stride", [0, 1])
def test_locallaw_scan_solver_input(monkeypatch, stride, p, route):
    params = gaussian_params(30, 60, p, seed=19)
    dom = DomainSpec(kind="d_mu", a0=0.3 * 30 / math.log(30) ** 4, V=1.0, n=30,
                     grid_u=2, grid_v=1, mu=0.2)
    solves = watch_solver_input(monkeypatch, sm.locallaw)
    sm.locallaw_scan(params, dom, replications=2, max_entry_stride=stride)
    assert solves == [(route, (30, 60))] * 2


@pytest.mark.parametrize("p, route", [(1 / 16, csr_array), (0.5, np.ndarray)])
@pytest.mark.parametrize("q", [0, 2])
def test_tn_moment_study_solver_input(monkeypatch, q, p, route):
    params = gaussian_params(20, 40, p, seed=29)
    solves = watch_solver_input(monkeypatch, sm.locallaw)
    res = sm.tn_moment_study(params, complex(0.9, 0.5), q=q, replications=1000,
                             gamma=0.5)
    assert res.survivors > 0
    assert solves == [(route, (20, 40))] * 1000


def test_tn_moment_study_solves_once_per_replication(monkeypatch):
    calls = []
    gram = sm.spectral._gram

    def counted(a):
        calls.append(a.shape)
        return gram(a)

    monkeypatch.setattr(sm.spectral, "_gram", counted)
    params = gaussian_params(20, 40, 0.5, seed=29)
    res = sm.tn_moment_study(params, complex(0.9, 0.5), q=2, replications=1000,
                             gamma=0.5)
    assert res.survivors > 0
    assert len(calls) == 1000


def test_locallaw_scan_rejects_bad_args():
    params = gaussian_params(50, 100, 0.5, seed=11)
    dom = DomainSpec(kind="d_mu", a0=0.05, V=1.0, n=50, grid_u=1, grid_v=1, mu=0.2)
    with pytest.raises(ParameterError):
        sm.locallaw_scan(params, dom, replications=0)
    dense = gaussian_params(10, 10, 0.5, seed=1)   # y = 1 rejected downstream
    with pytest.raises(ParameterError):
        sm.locallaw_scan(dense, dom, replications=1)


def test_locallaw_report_serialization():
    params = gaussian_params(30, 60, 0.5, seed=19)
    n = 30
    a0 = 0.3 * n / math.log(n) ** 4
    dom = DomainSpec(kind="d_mu", a0=a0, V=1.0, n=n, grid_u=2, grid_v=2, mu=0.2)
    report = sm.locallaw_scan(params, dom, replications=2, C0=1.0, max_entry_stride=0)
    d = report.to_dict()
    assert d["schema_version"] == 1
    assert len(d["grid"]) == len(d["per_point"]) == 8
    assert d["aggregates"]["fitted_K"] == report.sup_ratio


def test_tn_moment_study_q0_and_errors():
    params = gaussian_params(20, 40, 0.5, seed=23)
    z = complex(0.9, 0.5)
    res = sm.tn_moment_study(params, z, q=0, replications=1000, gamma=10.0)
    assert res.estimate == 1.0
    assert res.survivors == 1000
    with pytest.raises(ParameterError):
        sm.tn_moment_study(params, z, q=0, replications=0)
    with pytest.raises(ParameterError):
        sm.tn_moment_study(params, z, q=3, replications=1000)


def test_tn_moment_study_q2_finite():
    params = gaussian_params(20, 40, 0.5, seed=29)
    z = complex(0.9, 0.5)
    res = sm.tn_moment_study(params, z, q=2, replications=1000, gamma=0.5)
    assert res.survivors > 0
    assert np.isfinite(res.estimate) and res.estimate > 0
    assert np.isfinite(res.stderr)
    assert res.envelope_c1 > 0
    assert res.fitted_c == pytest.approx(
        math.sqrt(res.estimate) / ((1 / (20 * 0.5) + 1 / (20 * 0.5)) * math.log(20)),
        rel=1e-12)
    d = res.to_dict()
    assert d["fitted_C"] == res.fitted_c


def test_tn_degenerate_conditioning():
    params = gaussian_params(20, 40, 0.5, seed=31)
    z = complex(0.9, 0.5)
    with pytest.raises(sm.DegenerateConditioningError):
        sm.tn_moment_study(params, z, q=0, replications=1000, gamma=0.0)


def test_error_term_tn_matches_audit():
    # T_n = (1/n) sum_j eps_j R_jj, summed by hand from the dense oracle
    # at the model p, against the audit that reads only x.scaled
    params = gaussian_params(8, 16, 0.7, seed=37)
    x = sm.sample_matrix(params, 0)
    z = complex(0.8, 0.6)
    audit = sm.self_consistency_audit(x, z)
    _, sb, _ = CORRECTION_SIGNS
    want = 0.0
    for j in range(x.n):
        e1, e2, e3, r_diag = oracle_corrections(x, z, params.p, j, "row")
        want += (e1 + sb * (e2 + e3)) * r_diag
    assert audit.t_n == pytest.approx(want / x.n, abs=1e-12)
    assert audit.residual_exact < 1e-12
    assert audit.residual_flipped > 1e-6
