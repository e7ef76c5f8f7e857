import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import sparsemp as sm
from sparsemp import (CORRECTION_SIGNS, ComplexPoint, DomainSpec,
                      IdentityFailureError, ParameterError, SampledMatrix)
from sparsemp.locallaw import ladder_levels
from sparsemp.mplaw import _u_band
from sparsemp.spectral import squared_singular_values

from conftest import dense_resolvent, gaussian_params, zero_sample


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
    s2 = sm.singular_values(x).singulars ** 2
    for u, v in ((0.8, 0.3), (1.4, 0.05), (0.2, 1.0)):
        a = abs(sm.lambda_n(s2, complex(u, v), 0.5))
        b = abs(sm.lambda_n(s2, complex(-u, v), 0.5))
        assert abs(a - b) < 1e-12


def test_lambda_dense_calibration_large_n():
    # dense p=1 surrogate of the limit: Lambda at z=i must be small
    params = gaussian_params(4000, 8000, 1.0, seed=314)
    x = sm.sample_matrix(params, 0)
    assert abs(sm.lambda_n(squared_singular_values(x), 1j, 0.5)) < 0.05


def identity_residuals(x, z, side, terms):
    """|R - base (1 - eps R + y Lambda R)| per index, eps = eps_1 - eps_2 - eps_3.

    base is S_y(z) on the row side and -(z + y S_y(z))^{-1} on the column side.
    """
    e1, e2, e3, r = terms
    y = x.n / x.m
    S = sm.stieltjes_mp(z, y)
    base = S if side == "row" else -1.0 / (z + y * S)
    lam = sm.lambda_n(sm.singular_values(x).singulars ** 2, z, y)
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
    cases.append((zero_sample(2, 3), 1.0))
    for x, p in cases:
        z = complex(rng.uniform(-1.5, 1.5), rng.uniform(0.2, 1.0))
        terms = sm.correction_terms(x, sm.singular_values(x), z, side=side)
        size = x.n if side == "row" else x.m
        assert all(t.shape == (size,) for t in terms)
        for j in range(size):
            want = oracle_corrections(x, z, p, j, side)
            for got, exp in zip(terms, want):
                assert got[j] == pytest.approx(exp, abs=1e-12)
        assert identity_residuals(x, z, side, terms).max() < 1e-10
    with pytest.raises(ParameterError):
        sm.correction_terms(x, sm.singular_values(x), z, side="diagonal")


def test_correction_terms_zero_matrix():
    x = zero_sample(3, 4)
    z = complex(0.7, 0.3)
    terms = sm.correction_terms(x, sm.singular_values(x), z)
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
        eps1 = sm.correction_terms(x, sm.singular_values(x), z)[0]
        assert np.abs(eps1).max() <= 2.0 / (m * v)


def test_audit_null_matrix_balances():
    x = zero_sample(4, 6)
    audit = sm.self_consistency_audit(x, complex(0.3, 0.8))
    assert audit.convention == CORRECTION_SIGNS
    assert audit.max_residual < 1e-12
    assert audit.residual_exact < 1e-12


def test_audit_unique_convention_n2():
    params = gaussian_params(2, 4, 0.8, seed=7)
    x = sm.sample_matrix(params, 0)
    z = complex(0.6, 0.5)
    audit = sm.self_consistency_audit(x, z)
    assert audit.convention == CORRECTION_SIGNS
    assert audit.max_residual < 1e-10
    # alternate conventions are off by order one, not machine precision
    S = sm.stieltjes_mp(z, 0.5)
    lam = sm.lambda_n(sm.singular_values(x).singulars ** 2, z, 0.5)
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


def ladder_sups(s2, domain, s0, y):
    """Per-level sup_u |Lambda_n| by a loop of scalar lambda_n calls (the oracle)."""
    _, levels = ladder_levels(domain.v0, domain.V, s0)
    sups = []
    for lvl in levels:
        lo, hi = _u_band(domain, y, lvl)
        sup = 0.0
        for u in np.linspace(lo, hi, domain.grid_u):
            for sign in (-1.0, 1.0):
                sup = max(sup, abs(sm.lambda_n(s2, complex(sign * u, lvl), y)))
        sups.append(sup)
    return sups


def test_multiscale_ladder_counts():
    # v0 = 0.1 by choosing a0 accordingly; s0 = 2, V = 1 -> k_v = 4, 5 levels
    n = 2000
    a0 = 0.1 * n / math.log(n) ** 4
    dom = DomainSpec(kind="d_mu", a0=a0, V=1.0, n=n, grid_u=4, grid_v=2, mu=0.2)
    params = gaussian_params(60, 120, 0.5, seed=3)
    s2 = sm.singular_values(sm.sample_matrix(params, 0)).singulars ** 2
    lad = sm.multiscale_ladder(s2, dom, gamma=1e9, s0=2.0, y=0.5)
    assert lad.k_v == 4
    assert len(lad.levels) == 5
    assert lad.levels[0] == pytest.approx(0.1, rel=1e-12)
    assert lad.levels[-1] == pytest.approx(1.6, rel=1e-12)
    assert lad.all_pass
    lad0 = sm.multiscale_ladder(s2, dom, gamma=0.0, s0=2.0, y=0.5)
    assert not any(lad0.gamma_flags)
    assert set(lad.flags_by_level()) == set(lad.levels)
    # a gamma between the smallest and largest per-level sup splits the flags
    sups = ladder_sups(s2, dom, 2.0, 0.5)
    gamma = 0.5 * (min(sups) + max(sups))
    assert min(sups) < gamma < max(sups)
    lad_mid = sm.multiscale_ladder(s2, dom, gamma=gamma, s0=2.0, y=0.5)
    assert lad_mid.gamma_flags == tuple(sup <= gamma for sup in sups)
    assert any(lad_mid.gamma_flags) and not all(lad_mid.gamma_flags)


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
    spec = sm.singular_values(sm.sample_matrix(params, 0))
    for pt, ps in zip(report.grid, report.per_point):
        r = sm.resolvent_from_spectrum(spec, pt)
        assert ps.max_entry == pytest.approx(np.abs(r.entries).max(), abs=1e-12)


def test_locallaw_scan_rejects_bad_args():
    params = gaussian_params(50, 100, 0.5, seed=11)
    dom = DomainSpec(kind="d_mu", a0=0.05, V=1.0, n=50, grid_u=1, grid_v=1, mu=0.2)
    with pytest.raises(ParameterError):
        sm.locallaw_scan(params, dom, replications=0)
    dense = gaussian_params(10, 10, 0.5, seed=1)   # y = 1 rejected downstream
    with pytest.raises(ParameterError):
        sm.locallaw_scan(dense, dom, replications=1)


def test_locallaw_report_serialization(tmp_path):
    params = gaussian_params(30, 60, 0.5, seed=19)
    n = 30
    a0 = 0.3 * n / math.log(n) ** 4
    dom = DomainSpec(kind="d_mu", a0=a0, V=1.0, n=n, grid_u=2, grid_v=2, mu=0.2)
    report = sm.locallaw_scan(params, dom, replications=2, C0=1.0, max_entry_stride=0)
    d = report.to_dict()
    assert d["schema_version"] == 1
    assert len(d["grid"]) == len(d["per_point"]) == 8
    assert d["aggregates"]["fitted_K"] == report.sup_ratio
    path = tmp_path / "points.csv"
    report.write_points_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "u,v,lambda_abs,gamma,ratio,max_entry"
    assert len(lines) == 9
    assert lines[1].endswith(",")   # max_entry empty when stride disabled


def test_tn_moment_study_q0_and_errors():
    params = gaussian_params(20, 40, 0.5, seed=23)
    z = ComplexPoint(0.9, 0.5)
    res = sm.tn_moment_study(params, z, q=0, replications=1000, gamma=10.0)
    assert res.estimate == 1.0
    assert res.survivors == 1000
    with pytest.raises(ParameterError):
        sm.tn_moment_study(params, z, q=0, replications=0)
    with pytest.raises(ParameterError):
        sm.tn_moment_study(params, z, q=3, replications=1000)


def test_tn_moment_study_q2_finite():
    params = gaussian_params(20, 40, 0.5, seed=29)
    z = ComplexPoint(0.9, 0.5)
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
    z = ComplexPoint(0.9, 0.5)
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
