"""Shared helpers: independent brute-force oracles used across test modules."""

import cmath
import math
import weakref

import numpy as np
import pytest
from scipy.sparse import csr_array

import sparsemp as sm


def block_matrix(scaled: np.ndarray) -> np.ndarray:
    """The symmetric block matrix V = [[0, X], [X^T, 0]]."""
    n, m = scaled.shape
    v = np.zeros((n + m, n + m))
    v[:n, n:] = scaled
    v[n:, :n] = scaled.T
    return v


def dense_resolvent(scaled: np.ndarray, z: complex) -> np.ndarray:
    """Resolvent by direct dense inversion; the oracle for the SVD assembly."""
    v = block_matrix(scaled)
    return np.linalg.inv(v - z * np.eye(v.shape[0]))


def stieltjes_mp_oracle(z: complex, y: float) -> complex:
    """S_y(z) by the quadratic formula in cmath, with an explicit branch pick.

    The root of y S^2 + w S + 1 = 0 is taken with the square root aligned
    with w (no cancellation), the other root from the product 1/y, and the
    one with positive imaginary part is returned.  The oracle for the
    closed form in ``sparsemp.mplaw``.
    """
    w = z - (1.0 - y) / z
    disc = cmath.sqrt(w * w - 4.0 * y)
    if (w.real * disc.real + w.imag * disc.imag) < 0.0:
        disc = -disc
    big = -(w + disc) / (2.0 * y)
    small = 1.0 / (y * big)
    return big if big.imag > 0.0 else small


def gaussian_params(n: int, m: int, p: float, seed: int, delta: float = 2.0) -> sm.ModelParams:
    return sm.ModelParams(n=n, m=m, p=p, dist=sm.EntryDistribution.gaussian(),
                          delta=delta, seed=seed)


def dense_sample(scaled) -> sm.SampledMatrix:
    """Wrap an explicit matrix as a dense (p = 1) sample: raw = scaled sqrt(m), mask = 1."""
    scaled = np.asarray(scaled, dtype=np.float64)
    return sm.SampledMatrix(raw=scaled * math.sqrt(scaled.shape[1]),
                            mask=np.ones(scaled.shape, dtype=np.uint8), scaled=scaled)


def watch_solver_input(monkeypatch, module) -> list:
    """Record what ``module`` hands to ``singular_values``, and the dense draws.

    ``sparsemp.model.sample_matrix`` is wrapped so that every dense draw is
    seen.  A CSR input asserts that no dense sample was drawn at all; a dense
    input asserts that every sample drawn so far is already freed, so that
    only its scaled matrix is alive while the Gram matrix is solved.  Returns
    the list that grows by one (input type, shape) per solve.
    """
    samples, solves = [], []
    draw, solve = sm.model.sample_matrix, module.singular_values

    def recorded(*args, **kwargs):
        x = draw(*args, **kwargs)
        samples.append(weakref.ref(x))
        return x

    def checked(a, *args, **kwargs):
        if isinstance(a, csr_array):
            assert not samples
        else:
            assert samples and all(ref() is None for ref in samples)
        solves.append((type(a), a.shape))
        return solve(a, *args, **kwargs)

    monkeypatch.setattr(sm.model, "sample_matrix", recorded)
    monkeypatch.setattr(module, "singular_values", checked)
    return solves


@pytest.fixture(scope="session")
def medium_sample():
    """One 30 x 60 Gaussian sample at p = 0.5, reused by read-only tests."""
    params = gaussian_params(30, 60, 0.5, seed=42)
    return params, sm.sample_matrix(params, 0)
