import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sparsemp as sm
from sparsemp import SampledMatrix
from sparsemp.spectral import squared_singular_values

from conftest import dense_resolvent, gaussian_params, zero_sample


def test_zero_matrix_spectrum_and_resolvent():
    x = zero_sample(3, 5)
    spec = sm.singular_values(x)
    assert np.all(spec.singulars == 0.0)
    z = complex(0.4, 0.7)
    r = sm.resolvent(x, z)
    np.testing.assert_allclose(r.entries, -np.eye(8) / z, atol=1e-14)


def test_diagonal_injection_singulars():
    x = SampledMatrix.from_dense(np.array([[1.0, 0.0], [0.0, 2.0]]))
    spec = sm.singular_values(x)
    np.testing.assert_allclose(spec.singulars, [2.0, 1.0], atol=1e-14)


def test_svd_against_eigensolver_oracle():
    params = gaussian_params(50, 100, 0.6, seed=5)
    x = sm.sample_matrix(params, 0)
    spec = sm.singular_values(x)
    eigs = np.linalg.eigvalsh(x.scaled @ x.scaled.T)
    oracle = np.sqrt(np.clip(eigs, 0.0, None))[::-1]
    np.testing.assert_allclose(spec.singulars, oracle, atol=1e-9)
    # reconstruction and orthonormality
    rebuilt = spec.left_vectors @ np.diag(spec.singulars) @ spec.right_vectors.T
    assert np.linalg.norm(rebuilt - x.scaled) <= 1e-9 * np.linalg.norm(x.scaled)
    assert np.abs(spec.left_vectors.T @ spec.left_vectors - np.eye(50)).max() < 1e-10
    assert np.abs(spec.right_vectors.T @ spec.right_vectors - np.eye(50)).max() < 1e-10


def test_squared_singular_values_against_svd():
    assert np.all(squared_singular_values(zero_sample(2, 3)) == 0.0)
    for n, p in ((2, 1.0), (50, 0.6), (300, 0.1)):
        x = sm.sample_matrix(gaussian_params(n, 2 * n, p, seed=n), 0)
        oracle = np.linalg.svd(x.scaled, compute_uv=False)[::-1] ** 2
        np.testing.assert_allclose(squared_singular_values(x), oracle, rtol=0, atol=1e-12)


def test_stieltjes_esd_values():
    z = complex(0.3, 0.8)
    assert sm.stieltjes_esd(np.zeros(4), z) == pytest.approx(-1.0 / z, abs=1e-15)
    assert sm.stieltjes_esd(np.ones(2), 10j) == pytest.approx(10j / 101.0, abs=1e-15)
    # an array of z keeps its shape and equals the per-z values
    s2 = np.random.default_rng(3).uniform(0.0, 4.0, 25)
    zs = np.array([[complex(0.3, 0.8), 10j, complex(-1.2, 1e-3)],
                   [complex(2.0, 0.05), complex(0.0, 3.0), complex(0.9, 0.4)]])
    out = sm.stieltjes_esd(s2, zs)
    assert out.shape == zs.shape
    for idx in np.ndindex(zs.shape):
        assert out[idx] == sm.stieltjes_esd(s2, complex(zs[idx]))


def test_stieltjes_esd_matches_resolvent_trace(medium_sample):
    _, x = medium_sample
    spec = sm.singular_values(x)
    for z in (complex(0.5, 0.4), complex(-1.2, 0.15), complex(0.0, 2.0)):
        r = sm.resolvent_from_spectrum(spec, z)
        trace = np.trace(r.entries[:x.n, :x.n]) / x.n
        assert abs(trace - sm.stieltjes_esd(spec.singulars ** 2, z)) < 1e-10


def test_resolvent_one_by_one_hand_case():
    a = 0.8
    x = SampledMatrix.from_dense(np.array([[a]]))
    z = complex(0.2, 0.5)
    r = sm.resolvent(x, z)
    denom = a * a - z * z
    assert r.entries[0, 0] == pytest.approx(z / denom, abs=1e-14)
    assert r.entries[0, 1] == pytest.approx(a / denom, abs=1e-14)
    assert r.entries[1, 1] == pytest.approx(z / denom, abs=1e-14)


def test_resolvent_against_dense_inverse(medium_sample):
    _, x = medium_sample
    rng = np.random.default_rng(17)
    v_mat = np.zeros((90, 90))
    v_mat[:30, 30:] = x.scaled
    v_mat[30:, :30] = x.scaled.T
    for _ in range(5):
        z = complex(rng.uniform(-2, 2), rng.uniform(0.05, 2.0))
        r = sm.resolvent(x, z)
        dense = dense_resolvent(x.scaled, z)
        assert np.abs(r.entries - dense).max() < 1e-9
        ident = (v_mat - z * np.eye(90)) @ r.entries - np.eye(90)
        assert np.abs(ident).max() < 1e-9
        assert np.abs(r.entries - r.entries.T).max() < 1e-10


def test_resolvent_minor_empty_equals_full(medium_sample):
    _, x = medium_sample
    z = complex(0.7, 0.3)
    full = sm.resolvent(x, z)
    minor = sm.resolvent_minor(x, z)
    np.testing.assert_allclose(minor.entries, full.entries, atol=1e-12)
    np.testing.assert_array_equal(minor.labels, full.labels)


def test_resolvent_minor_small_direct():
    x = SampledMatrix.from_dense(np.array([[1.0, -0.5], [0.3, 2.0]]))
    z = complex(0.4, 0.6)
    minor = sm.resolvent_minor(x, z, rows_j=[0])
    sub = SampledMatrix.from_dense(x.scaled[1:, :])
    direct = dense_resolvent(sub.scaled, z)
    np.testing.assert_allclose(minor.entries, direct, atol=1e-12)
    np.testing.assert_array_equal(minor.labels, [1, 2, 3])
    # column deletion can leave m' < n; the assembly must still be exact
    minor_c = sm.resolvent_minor(x, z, cols_k=[1])
    direct_c = dense_resolvent(x.scaled[:, :1], z)
    np.testing.assert_allclose(minor_c.entries, direct_c, atol=1e-12)
    np.testing.assert_array_equal(minor_c.labels, [0, 1, 2])


def test_resolvent_minor_out_of_range(medium_sample):
    _, x = medium_sample
    with pytest.raises(IndexError):
        sm.resolvent_minor(x, 1j, rows_j=[30])
    with pytest.raises(IndexError):
        sm.resolvent_minor(x, 1j, cols_k=[-1])


def test_trace_interlacing_bound():
    rng = np.random.default_rng(29)
    for _ in range(100):
        n = int(rng.integers(2, 10))
        m = int(rng.integers(n + 1, 2 * n + 4))
        params = gaussian_params(n, m, float(rng.uniform(0.3, 1.0)),
                                 seed=int(rng.integers(10**6)))
        x = sm.sample_matrix(params, 0)
        v = float(rng.uniform(0.05, 2.0))
        z = complex(rng.uniform(-2, 2), v)
        j = int(rng.integers(0, n))
        full = np.trace(sm.resolvent(x, z).entries)
        minor = np.trace(sm.resolvent_minor(x, z, rows_j=[j]).entries)
        assert abs(full - minor) <= 2.0 / v


def test_ward_identity(medium_sample):
    _, x = medium_sample
    v = 0.35
    z = complex(0.8, v)
    r = sm.resolvent(x, z)
    row_norms = (np.abs(r.entries) ** 2).sum(axis=1)
    np.testing.assert_allclose(row_norms, np.imag(np.diag(r.entries)) / v, atol=1e-8)


def test_multiplicative_inequality_diagonal(medium_sample):
    _, x = medium_sample
    spec = sm.singular_values(x)
    rng = np.random.default_rng(31)
    d = x.n + x.m
    for _ in range(1000):
        j = int(rng.integers(0, d))
        u = float(rng.uniform(-2, 2))
        v = float(rng.uniform(0.05, 1.0))
        s = float(rng.uniform(1.0, 10.0))
        r1 = sm.resolvent_from_spectrum(spec, complex(u, v))
        r2 = sm.resolvent_from_spectrum(spec, complex(u, s * v))
        assert abs(r1.entries[j, j]) <= s * abs(r2.entries[j, j]) + 1e-12


def test_large_v_limit(medium_sample):
    _, x = medium_sample
    z = complex(0.5, 1000.0)
    r = sm.resolvent(x, z)
    assert np.abs(np.diag(r.entries) + 1.0 / z).max() < 1e-4


def test_max_entry_examples(medium_sample):
    x0 = zero_sample(2, 3)
    r0 = sm.resolvent(x0, 1j)
    assert np.abs(r0.entries).max() == pytest.approx(1.0, abs=1e-15)
    _, x = medium_sample
    z = complex(0.9, 0.25)
    r = sm.resolvent(x, z)
    full_scan = np.abs(r.entries).max()
    assert full_scan >= abs(r.entries[0, 0])
    # blockwise path equals the full scan
    spec = sm.singular_values(x)
    assert sm.resolvent_max_abs(spec, z) == pytest.approx(full_scan, abs=1e-12)
    assert sm.resolvent_max_abs(spec, z, chunk=7) == pytest.approx(full_scan, abs=1e-12)


def _rank_one(a, b):
    a, b = np.asarray(a, float), np.asarray(b, float)
    return SampledMatrix.from_dense(np.outer(a / np.linalg.norm(a), b / np.linalg.norm(b)))


def test_resolvent_max_abs_against_dense_scan():
    """The blockwise real upper-triangle scan equals the dense max |R_jk|.

    Every block must hold the dense argmax somewhere, on and off the corner
    diagonals, so that a skipped block or a wrong triangle cannot pass.
    """
    samples = {
        "zero 2x3": zero_sample(2, 3),
        "n=2": sm.sample_matrix(gaussian_params(2, 4, 1.0, seed=2), 0),
        "y near 1": sm.sample_matrix(gaussian_params(40, 41, 0.5, seed=40), 0),
        "10x300": sm.sample_matrix(gaussian_params(10, 300, 0.5, seed=10), 0),
        # crafted so that R_12, an off-diagonal of the U corner and one of
        # the W corner hold the argmax at z = 0.9 + 0.01i
        "diagonal": SampledMatrix.from_dense(np.array([[1.0, 0, 0], [0, 0.5, 0]])),
        "rank one, U spread": _rank_one([1, 1], [1, 1, 1]),
        "rank one, W spread": _rank_one([1, 1, 1], [1, 1, 0, 0]),
    }
    seen = set()
    for name, x in samples.items():
        spec = sm.singular_values(x)
        n = x.n
        for re in (0.1, 0.9, 2.5):
            for im in (0.01, 0.25, 5.0):
                z = complex(re, im)
                r = sm.resolvent_from_spectrum(spec, z)
                want = np.abs(r.entries).max()
                dense = np.abs(r.entries)
                j, k = np.unravel_index(dense.argmax(), dense.shape)
                block = "U" if j < n and k < n else "W" if j >= n and k >= n else "R12"
                seen.add(block if block == "R12" else f"{block} {'diag' if j == k else 'off'}")
                got = {chunk: sm.resolvent_max_abs(spec, z, chunk=chunk)
                       for chunk in {1, 7, max(n - 1, 1), n, n + 1}}
                got["default"] = sm.resolvent_max_abs(spec, z)
                for chunk, val in got.items():
                    assert val == pytest.approx(want, rel=1e-12, abs=0), (name, z, chunk)
    assert seen == {"U diag", "U off", "W diag", "W off", "R12"}


def _ward_active(entries: np.ndarray, z: complex) -> np.ndarray:
    """Rows whose Ward bound on the off-diagonal entries exceeds max |R_jj|^2."""
    diag = np.diag(entries)
    bound = diag.imag / z.imag - np.abs(diag) ** 2
    return bound > (np.abs(diag) ** 2).max()


def _random_sample(n: int, m: int, density: float, seed: int) -> SampledMatrix:
    """A Gaussian sample with the given density; density 0 gives X = 0."""
    if density == 0.0:
        return zero_sample(n, m)
    rng = np.random.default_rng(seed)
    mask = rng.random((n, m)) < density
    return SampledMatrix.from_dense(rng.standard_normal((n, m)) * mask / math.sqrt(m * density))


@settings(max_examples=150, deadline=None, database=None)
@given(n=st.integers(2, 25), m=st.one_of(st.integers(2, 25), st.just(-1)),
       density=st.one_of(st.just(0.0), st.floats(0.05, 1.0)),
       re=st.floats(-3.0, 3.0), log_im=st.floats(-3.0, 1.0),
       chunk=st.sampled_from([1, 3, None]), seed=st.integers(0, 2**32 - 1))
def test_resolvent_max_abs_pruned_property(n, m, density, re, log_im, chunk, seed):
    """The Ward-pruned scan equals the dense max |R_jk| on any shape.

    m = -1 stands for y near 1 (m = n + 1); n > m gives tall samples.  The
    factors must be as orthonormal as the scan's tolerance assumes.
    """
    m = n + 1 if m == -1 else m
    x = _random_sample(n, m, density, seed)
    spec = sm.singular_values(x)
    for f in (spec.left_vectors, spec.right_vectors):
        r = f.shape[1]
        assert np.linalg.norm(f.T @ f - np.eye(r), 2) <= 4 * (r + 2) * np.finfo(float).eps
    z = complex(re, 10.0 ** log_im)
    want = np.abs(sm.resolvent_from_spectrum(spec, z).entries).max()
    got = (sm.resolvent_max_abs(spec, z) if chunk is None
           else sm.resolvent_max_abs(spec, z, chunk=chunk))
    assert got == pytest.approx(want, rel=1e-12, abs=0)


def test_resolvent_max_abs_partial_pruning():
    """Only the two indices of the top singular pair are active, and the max
    sits off the diagonal between them, 0.2% above the largest diagonal."""
    z = complex(0.9, 0.05)
    x = SampledMatrix.from_dense(np.array([[0.0, 0.0, 1.002 * abs(z)],
                                           [0.3, 0.0, 0.0]]))
    spec = sm.singular_values(x)
    r = sm.resolvent_from_spectrum(spec, z)
    dense = np.abs(r.entries)
    active = _ward_active(r.entries, z)
    assert 0 < active.sum() < active.size
    j, k = np.unravel_index(dense.argmax(), dense.shape)
    assert j != k and active[j] and active[k]
    assert dense[j, k] > 1.001 * np.abs(np.diag(r.entries)).max()
    for chunk in (1, 3, 1024):
        assert sm.resolvent_max_abs(spec, z, chunk=chunk) == pytest.approx(
            np.abs(r.entries).max(), rel=1e-12, abs=0)


def test_ward_identity_against_dense_resolvent():
    """sum_k |R_jk|^2 = Im R_jj / Im z for every row of both blocks."""
    samples = [_random_sample(2, 3, 0.0, 0), _random_sample(2, 2, 1.0, 2),
               _random_sample(12, 7, 0.6, 12), _random_sample(20, 21, 0.3, 20),
               _random_sample(15, 40, 0.1, 15)]
    for x in samples:
        spec = sm.singular_values(x)
        for z in (complex(0.9, 1e-3), complex(-0.4, 0.05), complex(1.3, 1.0), complex(0.2, 10.0)):
            for entries in (dense_resolvent(x.scaled, z),
                            sm.resolvent_from_spectrum(spec, z).entries):
                rows = (np.abs(entries) ** 2).sum(axis=1)
                np.testing.assert_allclose(rows, np.diag(entries).imag / z.imag,
                                           rtol=1e-12, atol=0)


def test_csv_exports(tmp_path, medium_sample):
    _, x = medium_sample
    spec = sm.singular_values(x)
    p1 = tmp_path / "spectrum.csv"
    sm.spectral.write_spectrum_csv(p1, spec.singulars)
    lines = p1.read_text().strip().splitlines()
    assert lines[0] == "index,singular_value"
    assert len(lines) == 1 + 30
    assert float(lines[1].split(",")[1]) == pytest.approx(spec.singulars[0], rel=1e-15)
    counts = sm.spectral.esd_histogram(spec.singulars, np.linspace(-2, 2, 9))
    assert counts.sum() == 60   # all +-s_j fall inside [-2, 2]
