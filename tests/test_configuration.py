import math
from collections import deque

import numpy as np
import pytest

import sparsemp as sm
from sparsemp import ConfigurationMatrix, EntryDistribution, ModelParams, ParameterError

from conftest import gaussian_params


def oracle_classify(links, n, m, p, deviant_threshold=None):
    """Brute-force BFS classification, independent of the csgraph path."""
    total = n + m
    adj = {i: set() for i in range(total)}
    deviant = set()
    for j in range(n):
        for k in range(m):
            if links[j, k]:
                adj[j].add(n + k)
                adj[n + k].add(j)
                deviant.add(j)
                deviant.add(n + k)
    seen = set()
    comps = []
    for start in range(total):
        if start in seen:
            continue
        comp = []
        queue = deque([start])
        seen.add(start)
        while queue:
            node = queue.popleft()
            comp.append(node)
            for nb in adj[node]:
                if nb not in seen:
                    seen.add(nb)
                    queue.append(nb)
        comps.append(tuple(sorted(comp)))
    if deviant_threshold is None:
        deviant_threshold = math.sqrt(n / p)
    r_thr = max(int(math.floor(math.log(n))), 2)
    dev_bad = len(deviant) >= deviant_threshold
    conn_bad = any(len(c) >= r_thr for c in comps)
    verdict = ("both" if dev_bad and conn_bad else
               "deviant_inadmissible" if dev_bad else
               "connected_inadmissible" if conn_bad else "admissible")
    return frozenset(deviant), frozenset(comps), verdict


def test_no_links_when_threshold_huge():
    params = gaussian_params(10, 20, 0.8, seed=3)
    x = sm.sample_matrix(params, 0)
    cfg = sm.build_configuration(x, params, threshold_c=1e9)
    assert not cfg.links.any()
    rep = sm.classify(cfg, 10, 20, 0.8)
    assert rep.verdict == "admissible"
    assert rep.deviant_count == 0
    assert len(rep.typical) == 30


def test_single_huge_entry_two_deviants():
    params = gaussian_params(4, 8, 1.0, seed=5)
    x = sm.sample_matrix(params, 0)
    raw = np.zeros((4, 8))
    raw[2, 5] = 1e6
    x = sm.SampledMatrix(raw=raw, mask=x.mask, scaled=raw * x.mask / math.sqrt(8))
    cfg = sm.build_configuration(x, params, threshold_c=1.0)
    assert cfg.links.sum() == 1
    rep = sm.classify(cfg, 4, 8, 1.0)
    assert rep.deviant == (2, 4 + 5)
    assert rep.deviant_count == 2


def test_links_bitwise_formula():
    params = sm.ModelParams(n=30, m=60, p=0.4, dist=EntryDistribution.pareto(6.0),
                            delta=1.0, seed=11)
    x = sm.sample_matrix(params, 0)
    c = 0.4
    cfg = sm.build_configuration(x, params, threshold_c=c)
    kappa = params.kappa()
    cut = c * (30 * 0.4) ** (0.5 - kappa)
    expected = (x.mask.astype(bool) & (np.abs(x.raw) >= cut))
    np.testing.assert_array_equal(cfg.links.astype(bool), expected)
    assert cfg.kappa == kappa
    # links only where the mask is set
    assert not (cfg.links.astype(bool) & ~x.mask.astype(bool)).any()


def test_threshold_monotonicity():
    params = sm.ModelParams(n=20, m=40, p=0.5, dist=EntryDistribution.pareto(6.0),
                            delta=1.0, seed=13)
    x = sm.sample_matrix(params, 0)
    prev = sm.build_configuration(x, params, threshold_c=0.1).links
    for c in (0.2, 0.4, 0.8, 1.6):
        cur = sm.build_configuration(x, params, threshold_c=c).links
        assert not (cur & ~prev).any()   # raising C never adds links
        prev = cur


def test_classify_matches_bfs_oracle():
    rng = np.random.default_rng(17)
    for _ in range(1000):
        n = int(rng.integers(2, 7))
        m = int(rng.integers(n, 13 - n))
        assert n + m <= 12
        links = (rng.random((n, m)) < rng.uniform(0.05, 0.5)).astype(np.uint8)
        p = float(rng.uniform(0.2, 1.0))
        cfg = ConfigurationMatrix(links=links, threshold_c=1.0, kappa=0.1)
        rep = sm.classify(cfg, n, m, p)
        dev_o, comps_o, verdict_o = oracle_classify(links, n, m, p)
        assert frozenset(rep.deviant) == dev_o
        assert frozenset(rep.components) == comps_o
        # members ascending, components ordered by their smallest member
        assert all(list(c) == sorted(c) for c in rep.components)
        assert [c[0] for c in rep.components] == sorted(c[0] for c in rep.components)
        assert rep.verdict == verdict_o
        # partition property and deviant/typical complementarity
        flat = [i for c in rep.components for i in c]
        assert sorted(flat) == list(range(n + m))
        assert sorted(rep.deviant + rep.typical) == list(range(n + m))


def test_classify_spec_example_component():
    links = np.zeros((3, 3), dtype=np.uint8)
    links[0, 0] = 1
    links[1, 0] = 1
    cfg = ConfigurationMatrix(links=links, threshold_c=1.0, kappa=0.1)
    rep = sm.classify(cfg, 3, 3, 0.5)
    assert (0, 1, 3) in rep.components
    assert rep.deviant_count == 3
    assert rep.deviant == (0, 1, 3)


def test_small_n_connectivity_floor():
    links = np.ones((2, 2), dtype=np.uint8)
    cfg = ConfigurationMatrix(links=links, threshold_c=1.0, kappa=0.1)
    rep = sm.classify(cfg, 2, 2, 0.5)
    assert rep.r_threshold == 2   # floor(log 2) = 0 is floored to 2
    assert max(len(c) for c in rep.components) == 4
    assert rep.verdict in ("connected_inadmissible", "both")


def test_classify_shape_mismatch():
    cfg = ConfigurationMatrix(links=np.zeros((2, 3), dtype=np.uint8),
                              threshold_c=1.0, kappa=0.1)
    with pytest.raises(ParameterError):
        sm.classify(cfg, 3, 3, 0.5)


def test_markov_bound_gaussian():
    params = sm.ModelParams(n=500, m=1000, p=0.1, dist=EntryDistribution.gaussian(),
                            delta=4.0, seed=19)
    bound = sm.moment_4_delta(params.dist, 4.0) / (500 ** 2 * 0.1)
    means = []
    for rep in range(4):
        x = sm.sample_matrix(params, rep)
        cfg = sm.build_configuration(x, params, threshold_c=1.0)
        means.append(cfg.links.mean())
    mean = float(np.mean(means))
    se = math.sqrt(max(mean, 1e-12) / (4 * 500 * 1000))
    assert mean <= bound + 3 * se


def test_deviant_set_equals_edge_endpoints():
    rng = np.random.default_rng(23)
    links = (rng.random((5, 7)) < 0.2).astype(np.uint8)
    cfg = ConfigurationMatrix(links=links, threshold_c=1.0, kappa=0.1)
    rep = sm.classify(cfg, 5, 7, 0.5)
    endpoints = set()
    for j, k in np.argwhere(links):
        endpoints.add(int(j))
        endpoints.add(5 + int(k))
    assert set(rep.deviant) == endpoints


def test_inadmissibility_probability_zero_case():
    params = sm.ModelParams(n=10, m=20, p=1.0, dist=EntryDistribution.rademacher(),
                            delta=2.0, seed=29)
    est = sm.inadmissibility_probability(params, threshold_c=10.0, replications=100)
    assert est.value == 0.0
    assert est.stderr == 0.0
    assert est.samples == 100


def test_inadmissibility_stderr_formula():
    params = sm.ModelParams(n=12, m=24, p=0.9, dist=EntryDistribution.pareto(6.0),
                            delta=1.0, seed=31)
    est = sm.inadmissibility_probability(params, threshold_c=0.05, replications=100)
    assert est.stderr == pytest.approx(math.sqrt(est.value * (1 - est.value) / 100), abs=1e-15)


def test_inadmissibility_replication_floor():
    params = gaussian_params(10, 20, 0.5, seed=1)
    with pytest.raises(ParameterError):
        sm.inadmissibility_probability(params, 1.0, replications=99)


def test_custom_deviant_threshold():
    links = np.zeros((4, 4), dtype=np.uint8)
    links[0, 0] = 1
    cfg = ConfigurationMatrix(links=links, threshold_c=1.0, kappa=0.1)
    relaxed = sm.classify(cfg, 4, 4, 1.0, deviant_threshold=100.0)
    strict = sm.classify(cfg, 4, 4, 1.0, deviant_threshold=1.0)
    assert relaxed.deviant_threshold == 100.0
    assert strict.verdict in ("deviant_inadmissible", "both")
