"""Spectra, symmetrized ESD, and the resolvent of the block matrix V.

V is the (n+m) x (n+m) symmetric matrix with X in the upper-right block and
X^T in the lower-left.  Its resolvent R(z) = (V - zI)^{-1} is assembled in
closed form from the singular value decomposition X = U diag(s) W^T, which
``singular_values`` takes from the eigenpairs of the smaller Gram matrix:

    R_11 = U D_p U^T - I_n / z         D_p = diag(s^2 / (z (s^2 - z^2)))
    R_12 = U diag(s / (s^2 - z^2)) W^T
    R_22 = W D_p W^T - I_m / z

which is what makes hundreds of z evaluations per sample affordable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.sparse import issparse, sparray

from .errors import NumericalError
from .mplaw import ComplexPoint, _as_complex, _like


@dataclass(frozen=True)
class SpectrumResult:
    """Singular values of one sample, descending, and its thin SVD X = U diag(s) W^T
    when ``singular_values`` was asked for vectors (otherwise both factors are None).

    Both factors have orthonormal columns to ||F^T F - I||_2 <= 4 (r + 2) eps,
    the bound ``resolvent_max_abs`` assumes.
    """

    singulars: np.ndarray
    left_vectors: np.ndarray | None = None   # U, n x r (r = min(n, m))
    right_vectors: np.ndarray | None = None  # W, m x r


def _gram(a: "np.ndarray | sparray") -> np.ndarray:
    """The smaller Gram matrix: a a^T for a wide or square a, a^T a for a tall one,
    as a dense array also for a sparse a."""
    gram = a.T @ a if a.shape[0] > a.shape[1] else a @ a.T
    return gram.toarray() if issparse(gram) else gram


def singular_values(a: "np.ndarray | sparray", vectors: bool) -> SpectrumResult:
    """Singular values of the scaled matrix ``a`` from its smaller Gram matrix,
    with the singular vectors too when ``vectors`` is true.

    ``a`` is a dense array or a scipy sparse array; the campaigns pass
    ``model.scaled_sample``, which is CSR at p <= 1/16.  A sparse Gram
    product is densified before the solve, and W = a^T U / s is the same
    expression for both.  At
    2000 x 4000 with np = 50 and one BLAS thread the CSR product took
    0.14-0.19 s against 0.27-0.31 s for the dense one, 1.3e-15 apart.

    s = sqrt(max(lambda, 0)) in descending order, lambda the eigenvalues of
    a a^T for a wide sample and of a^T a for a tall one.  Without vectors
    ``np.linalg.eigvalsh`` gives them; with vectors ``np.linalg.eigh`` gives
    U and s, and W = a^T U / s.  Both release the GIL.  At n = 1000, m = 2000
    with one BLAS thread the vectors route took 0.31 s against 0.83 s for a
    full SVD.

    Column j of a^T U / s is orthonormal only to about eps s_max^2 / s_j^2, so
    it is kept for the head s_j^2 > 16 s_max^2 / (r + 2) alone, which keeps
    the factor inside the orthonormality bound of ``SpectrumResult``.  The
    tail columns come from a Householder QR of the whole quotient (head
    scaled, tail a^T U unscaled): its Q is orthonormal by construction, so
    null directions are completed too, and |R_jj| (the norm of a^T u_j outside
    the columns before it) replaces sqrt(lambda_j) as the tail's singular
    value.  That reads an exact zero to rounding, where sqrt(lambda) reads up
    to about sqrt(r eps) s_max.  For y = 0.5 and r = 1000 the tail is empty
    (s_min / s_max is about 0.17 against the cutoff's 0.13).

    Raises NumericalError when the eigensolver does not converge.
    """
    tall = a.shape[0] > a.shape[1]
    try:
        solved = (np.linalg.eigh if vectors else np.linalg.eigvalsh)(_gram(a))
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"Gram eigensolver failed for shape {a.shape}: {exc}") from exc
    lam, vec = solved if vectors else (solved, None)
    s = np.sqrt(np.maximum(lam[::-1], 0.0))
    if not vectors:
        return SpectrumResult(singulars=s)
    own = np.ascontiguousarray(vec[:, ::-1])
    other = a @ own if tall else a.T @ own
    head = int(np.count_nonzero(s * s > 16.0 * s[0] ** 2 / (s.size + 2)))
    other[:, :head] /= s[:head]
    if head < s.size:
        q, r = np.linalg.qr(other)
        diag = np.diagonal(r)[head:]
        other[:, head:] = q[:, head:] * np.where(diag < 0.0, -1.0, 1.0)
        s[head:] = np.abs(diag)
        order = np.argsort(-s, kind="stable")
        s, own, other = s[order], own.take(order, axis=1), other.take(order, axis=1)
    u, w = (other, own) if tall else (own, other)
    return SpectrumResult(singulars=s, left_vectors=u, right_vectors=w)


def stieltjes_esd(s2: np.ndarray,
                  z: "ComplexPoint | complex | np.ndarray") -> "complex | np.ndarray":
    """s_n(z) = (1/n) sum_j z / (s_j^2 - z^2) from the squared singular values s2.

    Takes a scalar z or an array of z and returns the same shape.
    """
    zs = np.atleast_1d(_as_complex(z))[..., None]
    return _like(z, (zs / (s2 - zs * zs)).mean(axis=-1))


def _diag_factors(s: np.ndarray, z: complex) -> tuple[np.ndarray, np.ndarray]:
    denom = s * s - z * z
    d_proj = s * s / (z * denom)   # diagonal weight for the two corner blocks
    d_mid = s / denom              # weight for the off-diagonal block
    return d_proj, d_mid


def resolvent(spec: SpectrumResult, z: "ComplexPoint | complex") -> np.ndarray:
    """The (n + m) x (n + m) resolvent of the block matrix from a spectrum with vectors."""
    zc = _as_complex(z)
    u, w = spec.left_vectors, spec.right_vectors
    n, m = u.shape[0], w.shape[0]
    d_proj, d_mid = _diag_factors(spec.singulars, zc)
    out = np.empty((n + m, n + m), dtype=np.complex128)
    out[:n, :n] = (u * d_proj) @ u.T
    out[:n, :n].flat[:: n + 1] -= 1.0 / zc
    out[:n, n:] = (u * d_mid) @ w.T
    out[n:, :n] = out[:n, n:].T
    out[n:, n:] = (w * d_proj) @ w.T
    out[n:, n:].flat[:: m + 1] -= 1.0 / zc
    return out


def _active_rows(factor: np.ndarray, active: np.ndarray) -> np.ndarray:
    """The active rows of a factor, without a copy when all are active."""
    return factor if active.all() else factor[active]


def resolvent_max_abs(spec: SpectrumResult, z: "ComplexPoint | complex",
                      chunk: int = 256) -> float:
    """max |R_jk|, pruned by the Ward identity, never materializing R.

    Diagonal and Ward bound.  R_jj = sum_i F_ji^2 d_i - 1/z for F = U or W and
    d = d_proj, so all n + m diagonal entries cost one (n + m) x r product
    with three weight columns.  They give ``best = max |R_jj|^2``.  V is real
    symmetric, so the Ward identity sum_k |R_jk|^2 = Im R_jj / Im z holds, and
    every off-diagonal entry of row j obeys |R_jk|^2 <= b_j with
    b_j = Im R_jj / Im z - |R_jj|^2.  R is symmetric, so |R_jk| <= min(sqrt
    b_j, sqrt b_k): an entry can beat ``best`` only if its row and its column
    are both *active*, b_j + tol_j > best.

    Tolerance.  With v = Im z, nu_j = sum_i F_ji^2 |d_i| and mu_j = nu_j +
    1/|z|, the bound b_j can be wrong in three ways:

    - The identity needs orthonormal columns of U and W (the row norms of F
      may be anything, so tall and wide samples alike).  With ||F^T F - I||_2
      <= eta it is off by at most eta sum_i F_ji^2 (|d_i|^2 + |e_i|^2) <= 3 eta
      nu_j / v, where e = d_mid and |d_i|^2 + |e_i|^2 = Im d_i / v +
      2 Re(d_i / conj z) <= 3 |d_i| / v.
    - The computed R_jj is a length-r dot product per real and imaginary
      part, so it is off by at most delta_j = 2 (r + 2) eps mu_j.  That moves
      b_j by at most delta_j / v + 3 mu_j delta_j.
    - The remaining operations of b_j add at most 4 eps (mu_j / v + mu_j^2).

    For eta <= 4 (r + 2) eps the three sum to less than
    ``tol_j = 16 (r + 2) eps (mu_j / v + mu_j^2)``.  The Gram route of
    ``singular_values`` stays inside that eta: at most 0.36 of it was
    measured over 2036 samples, shapes from 2 x 2 to 1000 x 2000 with tall,
    y near 1, sparse, rank-deficient and zero ones among them.  So no pruned
    entry exceeds ``best`` by more than rounding, and the result equals the
    dense scan to rounding.

    Scan.  The active rows ``U[active_U]`` and ``W[active_W]`` go through a
    blockwise scan in real arithmetic: for row block ``[lo:hi]`` of a factor
    F with complex diagonal weights d, the rows ``F[lo:hi] * d.real`` and
    ``F[lo:hi] * d.imag`` are stacked and multiplied by the real factor in
    one real GEMM, giving Re and Im of the block side by side.  The two
    corner blocks F D_p F^T - I/z are complex symmetric, so row block
    ``[lo:hi]`` is multiplied only against ``F[lo:]``: the upper triangle,
    plus the lower half of the square on the diagonal.  R_12 = U D_m W^T is
    scanned on active rows x active columns.  Each block is reduced to
    max(re^2 + im^2) in place and one square root is taken at the end.

    In the worst case every index is active: the full triangle scan plus the
    O((n + m) r) diagonal pass.  The largest temporaries are one block of
    2 * chunk x max(n, m) float64 values and the 2 * chunk x r stacked rows
    (7.8 MiB and 3.9 MiB at chunk = 256, r = 1000, m = 2000); no complex copy
    of U or W is made.
    """
    zc = _as_complex(z)
    u, s, w = spec.left_vectors, spec.singulars, spec.right_vectors
    d_proj, d_mid = _diag_factors(s, zc)
    inv_z = 1.0 / zc
    weights = np.column_stack((d_proj.real, d_proj.imag, np.abs(d_proj)))
    slack = 16.0 * (s.size + 2) * np.finfo(np.float64).eps

    def ward(factor: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        re, im, nu = ((factor * factor) @ weights).T
        re = re - inv_z.real
        im = im - inv_z.imag
        diag = re * re + im * im
        mu = nu + abs(inv_z)
        bound = im / zc.imag - diag + slack * (mu / zc.imag + mu * mu)
        return diag, bound

    diag_u, bound_u = ward(u)
    diag_w, bound_w = ward(w)
    best = float(max(diag_u.max(), diag_w.max()))
    u, w = _active_rows(u, bound_u > best), _active_rows(w, bound_w > best)

    def block_max(rows: np.ndarray, d: np.ndarray, right: np.ndarray,
                  diag: bool) -> float:
        h = rows.shape[0]
        block = np.vstack((rows * d.real, rows * d.imag)) @ right.T
        re, im = block[:h], block[h:]
        if diag:
            idx = np.arange(h)
            re[idx, idx] -= inv_z.real
            im[idx, idx] -= inv_z.imag
        np.square(block, out=block)
        re += im
        return float(re.max())

    for factor in (u, w):
        for lo in range(0, factor.shape[0], chunk):
            rows = factor[lo:lo + chunk]
            best = max(best, block_max(rows, d_proj, factor[lo:], diag=True))
    if w.shape[0]:
        for lo in range(0, u.shape[0], chunk):
            best = max(best, block_max(u[lo:lo + chunk], d_mid, w, diag=False))
    return math.sqrt(best)


def esd_histogram(singulars: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """Counts of the symmetrized spectrum {+-s_j} over the given bin edges."""
    sym = np.concatenate([-singulars, singulars])
    counts, _ = np.histogram(sym, bins=edges)
    return counts
