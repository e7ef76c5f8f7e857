"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines.  The scaling campaigns (criteria 5, 7, 8) dominate the runtime; the
whole module stays inside the stated budgets on a laptop-class machine.
"""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

import sparsemp as sm
from sparsemp import ComplexPoint, DomainSpec, EntryDistribution, ModelParams
from sparsemp.cli import main as cli_main

from conftest import dense_resolvent, gaussian_params
from test_configuration import oracle_classify

GAUSS = EntryDistribution.gaussian()
RAD = EntryDistribution.rademacher()
PARETO6 = EntryDistribution.pareto(6.0)

# regression pins frozen from the reference campaign on this corpus
PINNED_CONVENTION = (-1.0, -1.0, 1.0)
PINNED_H_BRACKET = (1.0, 2.0)
PINNED_FITTED_C_MAX = 4.0


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")


def test_criterion_01_algebraic_identities():
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    worst_quad = worst_dual = 0.0
    for _ in range(10_000):
        y = float(rng.uniform(0.05, 0.95))
        z = complex(rng.uniform(-3, 3), math.exp(rng.uniform(math.log(1e-3), math.log(3))))
        s = sm.stieltjes_mp(z, y)
        w = z - (1 - y) / z
        worst_quad = max(worst_quad, abs(y * s * s + w * s + 1.0))
        worst_dual = max(worst_dual, abs(sm.b_function(z, y) - (-1.0 / s + y * s)))
    elapsed = time.perf_counter() - t0
    ok = worst_quad < 1e-12 and worst_dual < 1e-12 and elapsed < 1.0
    _report(1, "algebraic-identities", ok,
            f"quad {worst_quad:.2e}, dual {worst_dual:.2e}, {elapsed:.2f}s")
    assert worst_quad < 1e-12
    assert worst_dual < 1e-12
    assert elapsed < 1.0


def test_criterion_02_mp_law_numerics():
    from scipy.integrate import quad
    t0 = time.perf_counter()
    worst_mass = 0.0
    for y in (0.1, 0.25, 0.5, 0.9):
        a, b = sm.mp_edges(y)
        val, _ = quad(sm.mp_density, a, b, args=(y,), epsabs=1e-12, limit=200)
        worst_mass = max(worst_mass, abs(2.0 * val - 1.0))
    worst_inv = 0.0
    y = 0.25
    a, b = sm.mp_edges(y)
    pad = 0.05 * (b - a)
    for x in np.linspace(a + pad, b - pad, 100):
        inv = sm.stieltjes_mp(complex(float(x), 1e-6), y).imag / math.pi
        worst_inv = max(worst_inv, abs(inv - sm.mp_density(float(x), y)))
    elapsed = time.perf_counter() - t0
    ok = worst_mass < 1e-8 and worst_inv < 1e-4 and elapsed < 10.0
    _report(2, "mp-law-numerics", ok,
            f"mass gap {worst_mass:.2e}, inversion gap {worst_inv:.2e}, {elapsed:.1f}s")
    assert worst_mass < 1e-8
    assert worst_inv < 1e-4
    assert elapsed < 10.0


def test_criterion_03_resolvent_correctness():
    params = gaussian_params(30, 60, 0.5, seed=303)
    x = sm.sample_matrix(params, 0)
    v_mat = np.zeros((90, 90))
    v_mat[:30, 30:] = x.scaled
    v_mat[30:, :30] = x.scaled.T
    rng = np.random.default_rng(303)
    worst_ident = worst_dense = 0.0
    for _ in range(20):
        z = complex(rng.uniform(-2, 2), rng.uniform(0.05, 2.0))
        r = sm.resolvent(x, z)
        worst_ident = max(worst_ident, float(np.abs(
            (v_mat - z * np.eye(90)) @ r.entries - np.eye(90)).max()))
        worst_dense = max(worst_dense, float(np.abs(
            r.entries - dense_resolvent(x.scaled, z)).max()))
    params_tr = gaussian_params(100, 150, 0.4, seed=304)
    xt = sm.sample_matrix(params_tr, 0)
    spec = sm.singular_values(xt)
    worst_trace = 0.0
    for _ in range(10):
        z = complex(rng.uniform(-2, 2), rng.uniform(0.05, 2.0))
        r = sm.resolvent_from_spectrum(spec, z)
        trace = np.trace(r.entries[:100, :100]) / 100
        worst_trace = max(worst_trace, abs(trace - sm.stieltjes_esd(spec.singulars ** 2, z)))
    ok = worst_ident < 1e-9 and worst_dense < 1e-9 and worst_trace < 1e-10
    _report(3, "resolvent-correctness", ok,
            f"identity {worst_ident:.2e}, dense gap {worst_dense:.2e}, "
            f"trace gap {worst_trace:.2e}")
    assert worst_ident < 1e-9
    assert worst_dense < 1e-9
    assert worst_trace < 1e-10


def test_criterion_04_self_consistency_audit():
    rng = np.random.default_rng(404)
    dists = [GAUSS, RAD, PARETO6]
    worst = 0.0
    conventions = set()
    for _ in range(100):
        n = int(rng.integers(2, 51))
        m = int(rng.integers(n + 1, 2 * n + 11))
        dist = dists[int(rng.integers(0, 3))]
        params = ModelParams(n=n, m=m, p=float(rng.uniform(0.3, 1.0)), dist=dist,
                             delta=1.0, seed=int(rng.integers(10**9)))
        x = sm.sample_matrix(params, 0)
        z = complex(rng.uniform(-2, 2), rng.uniform(0.2, 1.5))
        audit = sm.self_consistency_audit(x, z, tol=1e-8)
        worst = max(worst, audit.max_residual)
        conventions.add(audit.convention)
    ok = worst < 1e-8 and conventions == {PINNED_CONVENTION}
    _report(4, "self-consistency-audit", ok,
            f"max residual {worst:.2e}, conventions {sorted(conventions)}")
    assert worst < 1e-8
    assert conventions == {PINNED_CONVENTION}


def test_criterion_05_local_law_scaling():
    t0 = time.perf_counter()
    sizes = (500, 1000, 2000, 4000)
    # common grid: the domain instantiated at the smallest size; its points lie
    # inside D_mu for every larger n because v0(n) only shrinks along the sweep
    domain = DomainSpec(kind="d_mu", a0=0.1, V=1.0, n=sizes[0], grid_u=6,
                        grid_v=8, mu=0.2)
    meds, ses, sups = {}, {}, {}
    for n in sizes:
        params = ModelParams(n=n, m=2 * n, p=50.0 / n, dist=GAUSS, delta=2.0,
                             seed=20250809)
        rep = sm.locallaw_scan(params, domain, replications=20, C0=1.0,
                               max_entry_stride=0)
        meds[n] = rep.median_sup_lambda
        ses[n] = rep.median_sup_lambda_stderr
        sups[n] = rep.sup_ratio
    elapsed = time.perf_counter() - t0
    fitted_k = max(sups.values())
    bounded = all(sups[n] <= fitted_k for n in sizes)
    decreasing = all(
        meds[b] < meds[a] + 2.0 * math.hypot(ses[a], ses[b])
        for a, b in zip(sizes, sizes[1:])
    )
    ok = bounded and decreasing and elapsed < 1800.0
    detail = ", ".join(f"n={n}: med {meds[n]:.5f}+-{ses[n]:.5f} sup_ratio {sups[n]:.3f}"
                       for n in sizes)
    _report(5, "local-law-scaling", ok, f"K={fitted_k:.3f}; {detail}; {elapsed:.0f}s")
    assert bounded
    assert decreasing, (meds, ses)
    assert elapsed < 1800.0


def test_criterion_06_configuration_oracle():
    rng = np.random.default_rng(606)
    mismatches = 0
    for _ in range(1000):
        n = int(rng.integers(2, 7))
        m = int(rng.integers(n, 13 - n))
        links = (rng.random((n, m)) < rng.uniform(0.05, 0.5)).astype(np.uint8)
        p = float(rng.uniform(0.2, 1.0))
        cfg = sm.ConfigurationMatrix(links=np.nonzero(links), shape=(n, m),
                                     threshold_c=1.0, kappa=0.1)
        rep = sm.classify(cfg, p)
        dev_o, comps_o, verdict_o = oracle_classify(links, n, m, p)
        if (frozenset(rep.deviant) != dev_o or frozenset(rep.components) != comps_o
                or rep.verdict != verdict_o):
            mismatches += 1
    params = ModelParams(n=500, m=1000, p=0.1, dist=PARETO6, delta=1.0, seed=606)
    bound = sm.moment_4_delta(PARETO6, 1.0) / (500 ** 2 * 0.1)
    means = []
    for r in range(10):
        links = sm.sample_configuration(params, r, threshold_c=1.0).links
        means.append(links[0].size / (500 * 1000))
    mean = float(np.mean(means))
    se = math.sqrt(max(mean, 1e-9) / (10 * 500 * 1000))
    markov_ok = mean <= bound + 3 * se
    ok = mismatches == 0 and markov_ok
    _report(6, "configuration-oracle", ok,
            f"mismatches {mismatches}/1000, link mean {mean:.2e} vs bound {bound:.2e}")
    assert mismatches == 0
    assert markov_ok


def test_criterion_07_inadmissibility_decay():
    t0 = time.perf_counter()
    sizes = (200, 400, 800)
    ests = {}
    for n in sizes:
        params = ModelParams(n=n, m=2 * n, p=50.0 / n, dist=PARETO6, delta=1.0,
                             seed=707)
        ests[n] = sm.inadmissibility_probability(params, threshold_c=0.6,
                                                 replications=1000)
    elapsed = time.perf_counter() - t0
    non_increasing = all(
        ests[b].value <= ests[a].value + 2.0 * math.hypot(ests[a].stderr, ests[b].stderr)
        for a, b in zip(sizes, sizes[1:])
    )
    ok = non_increasing and elapsed < 600.0
    detail = ", ".join(f"n={n}: {ests[n].value:.4f}+-{ests[n].stderr:.4f}" for n in sizes)
    _report(7, "inadmissibility-decay", ok, f"{detail}; {elapsed:.0f}s")
    assert non_increasing, ests
    assert ests[800].value < ests[200].value   # visible decay, not just noise
    assert elapsed < 600.0


def test_criterion_08_resolvent_boundedness():
    domain = DomainSpec(kind="d_mu", a0=0.1, V=1.0, n=500, grid_u=4, grid_v=6,
                        mu=0.2)
    sizes = (500, 1000, 2000)
    maxes = {}
    for n in sizes:
        params = ModelParams(n=n, m=2 * n, p=50.0 / n, dist=GAUSS, delta=2.0,
                             seed=11)
        rep = sm.locallaw_scan(params, domain, replications=3, C0=1.0,
                               max_entry_stride=10)
        vals = [ps.max_entry for ps in rep.per_point if ps.max_entry is not None]
        assert vals
        maxes[n] = max(vals)
    slope = float(np.polyfit(np.log(sizes), np.log([maxes[n] for n in sizes]), 1)[0])
    fitted_h = max(maxes.values())
    ok = slope < 0.1 and PINNED_H_BRACKET[0] <= fitted_h <= PINNED_H_BRACKET[1]
    detail = ", ".join(f"n={n}: {maxes[n]:.3f}" for n in sizes)
    _report(8, "resolvent-boundedness", ok,
            f"{detail}; slope {slope:.3f}, fitted H {fitted_h:.3f}")
    assert slope < 0.1
    assert PINNED_H_BRACKET[0] <= fitted_h <= PINNED_H_BRACKET[1]


def test_criterion_09_concentration_lemma():
    rng = np.random.default_rng(909)
    worst_sigma = 0.0
    for k in range(1, 7):
        a = rng.standard_normal((k, k))
        inp = sm.ConcentrationInput(a=a, xi_dist=RAD, eta_dist=RAD, q=2)
        exact = sm.bilinear_moment_exact(inp)
        est = sm.bilinear_moment_mc(inp, 20000, seed=int(rng.integers(10**6)))
        gap = abs(est.value - exact)
        band = 3 * est.stderr + 1e-12 * max(1.0, exact)
        worst_sigma = max(worst_sigma, gap / band if band else 0.0)
        assert gap <= band
    violations = 0
    worst_c = 1.0
    for q in (8, 12):
        for trial in range(100):
            a = rng.standard_normal((5, 5))
            rep = sm.concentration_evaluate(
                sm.ConcentrationInput(a=a, xi_dist=RAD, eta_dist=RAD, q=q),
                mode="exact")
            if rep.lhs > rep.rhs_at_c(1.0):
                violations += 1
            worst_c = max(worst_c, rep.fitted_c)
    ok = violations == 0 and worst_c <= PINNED_FITTED_C_MAX
    _report(9, "concentration-lemma", ok,
            f"violations {violations}/200, max fitted_C {worst_c:.2f}")
    assert violations == 0
    assert worst_c <= PINNED_FITTED_C_MAX


def test_criterion_10_cli_determinism(tmp_path):
    model = {"n": 60, "m": 120, "p": 0.5, "dist": "gaussian", "delta": 2.0, "seed": 55}
    jobs = {
        "spectrum": {"model": {**model, "p": 1.0}, "bins": 21},
        "locallaw": {
            "sweep": {"dist": "gaussian", "delta": 2.0, "seed": 5,
                      "n_values": [40, 60], "y": 0.5, "p": 0.5},
            "domain": {"kind": "d_mu", "mu": 0.2, "a0": 0.05, "V": 1.0,
                       "grid_u": 2, "grid_v": 2},
            "replications": 2, "C0": 1.0, "max_entry_stride": 1,
        },
        "config-analyze": {
            "sweep": {"dist": "pareto", "alpha": 6.0, "delta": 1.0, "seed": 9,
                      "n_values": [30], "y": 0.5, "np_product": 15.0},
            "threshold_c": 0.5, "replications": 100, "report_sample": True,
        },
        "concentration": {"k": 3, "q": 8, "xi": {"dist": "rademacher"},
                          "eta": {"dist": "rademacher"}, "mode": "exact",
                          "matrix_kind": "gaussian", "matrix_seed": 4, "corpus": 3},
        "audit": {"model": model, "u": 0.9, "v": 0.5, "tolerance": 1e-8},
        "tn-moments": {"model": {**model, "n": 20, "m": 40}, "u": 0.9, "v": 0.5,
                       "q": 0, "replications": 1000, "gamma": 10.0},
    }
    mismatched = []
    for cmd, payload in jobs.items():
        cfg = tmp_path / f"{cmd}.json"
        cfg.write_text(json.dumps(payload), encoding="utf-8")
        outputs = []
        for tag, workers in (("a", "1"), ("b", "2"), ("c", "1")):
            out = tmp_path / f"{cmd}_{tag}"
            code = cli_main([cmd, "--config", str(cfg), "--out-dir", str(out),
                             "--workers", workers])
            assert code == 0, (cmd, code)
            outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        if not (outputs[0] == outputs[1] == outputs[2]):
            mismatched.append(cmd)
    ok = not mismatched
    _report(10, "cli-determinism", ok,
            f"{len(jobs)} commands x 3 runs, mismatches: {mismatched or 'none'}")
    assert not mismatched
