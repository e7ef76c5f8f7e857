"""Spectra, symmetrized ESD, and the resolvent of the block matrix V.

V is the (n+m) x (n+m) symmetric matrix with X in the upper-right block and
X^T in the lower-left.  Its resolvent R(z) = (V - zI)^{-1} is assembled in
closed form from one SVD X = U diag(s) W^T:

    R_11 = U D_p U^T - I_n / z         D_p = diag(s^2 / (z (s^2 - z^2)))
    R_12 = U diag(s / (s^2 - z^2)) W^T
    R_22 = W D_p W^T - I_m / z

which is what makes hundreds of z evaluations per sample affordable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np
from scipy.linalg import eigvalsh

from .errors import NumericalError, ParameterError
from .model import SampledMatrix
from .mplaw import ComplexPoint, _as_complex, _like


@dataclass(frozen=True)
class SpectrumResult:
    """Full SVD of one sampled matrix, singular values descending."""

    singulars: np.ndarray
    left_vectors: np.ndarray   # n x r, orthonormal columns (r = min(n, m))
    right_vectors: np.ndarray  # m x r, orthonormal columns

    @property
    def n(self) -> int:
        return self.left_vectors.shape[0]

    @property
    def m(self) -> int:
        return self.right_vectors.shape[0]


@dataclass(frozen=True)
class ResolventEval:
    """Dense resolvent of the block matrix at one z.

    ``labels`` maps each row/column of ``entries`` back to its index in the
    undeleted block matrix, so minors keep their original bookkeeping.
    """

    z: complex
    entries: np.ndarray
    labels: np.ndarray


def singular_values(x: SampledMatrix) -> SpectrumResult:
    """Full SVD of the scaled matrix; raises NumericalError on non-convergence."""
    try:
        u, s, vt = np.linalg.svd(x.scaled, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"SVD failed for shape {x.scaled.shape}: {exc}") from exc
    return SpectrumResult(singulars=s, left_vectors=u, right_vectors=vt.T)


def squared_singular_values(x: SampledMatrix) -> np.ndarray:
    """s_j^2 (ascending) as the eigenvalues of the n x n Gram matrix X X^T.

    For n <= m, when no singular vectors are needed: about four times faster
    than a values-only SVD at n = 4000, m = 8000, agreeing with its squares
    to 1e-13.  The squares are returned as they are, since the Stieltjes
    transform needs s^2, not s.  The symmetric Gram matrix is handed over by
    its Fortran-ordered transpose so that the eigensolver overwrites it
    instead of copying it.
    """
    gram = x.scaled @ x.scaled.T
    try:
        return eigvalsh(gram.T, overwrite_a=True, check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"Gram eigensolver failed for shape {x.scaled.shape}: {exc}") from exc


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


def _assemble_resolvent(u: np.ndarray, s: np.ndarray, w: np.ndarray,
                        z: complex) -> np.ndarray:
    n, m = u.shape[0], w.shape[0]
    d_proj, d_mid = _diag_factors(s, z)
    out = np.empty((n + m, n + m), dtype=np.complex128)
    out[:n, :n] = (u * d_proj) @ u.T
    out[:n, :n].flat[:: n + 1] -= 1.0 / z
    out[:n, n:] = (u * d_mid) @ w.T
    out[n:, :n] = out[:n, n:].T
    out[n:, n:] = (w * d_proj) @ w.T
    out[n:, n:].flat[:: m + 1] -= 1.0 / z
    return out


def resolvent_from_spectrum(spec: SpectrumResult, z: "ComplexPoint | complex") -> ResolventEval:
    """Resolvent of the block matrix, reusing an existing SVD."""
    zc = _as_complex(z)
    entries = _assemble_resolvent(spec.left_vectors, spec.singulars,
                                  spec.right_vectors, zc)
    return ResolventEval(z=zc, entries=entries,
                         labels=np.arange(spec.n + spec.m))


def resolvent(x: SampledMatrix, z: "ComplexPoint | complex") -> ResolventEval:
    """R(z) = (V - zI)^{-1} assembled from a fresh SVD of the sample."""
    return resolvent_from_spectrum(singular_values(x), z)


def resolvent_minor(x: SampledMatrix, z: "ComplexPoint | complex",
                    rows_j: Iterable[int] = (), cols_k: Iterable[int] = ()) -> ResolventEval:
    """Resolvent of the block matrix built from X with rows/columns deleted.

    ``labels`` carries the original block-matrix indices of the survivors
    (rows keep their index, surviving column l becomes n + l).
    """
    zc = _as_complex(z)
    n, m = x.n, x.m
    rows = sorted(set(int(j) for j in rows_j))
    cols = sorted(set(int(k) for k in cols_k))
    if rows and (rows[0] < 0 or rows[-1] >= n):
        raise IndexError(f"row index out of range [0, {n}): {rows}")
    if cols and (cols[0] < 0 or cols[-1] >= m):
        raise IndexError(f"column index out of range [0, {m}): {cols}")
    keep_r = np.setdiff1d(np.arange(n), rows)
    keep_c = np.setdiff1d(np.arange(m), cols)
    sub = x.scaled[np.ix_(keep_r, keep_c)]
    try:
        u, s, vt = np.linalg.svd(sub, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"minor SVD failed for shape {sub.shape}: {exc}") from exc
    entries = _assemble_resolvent(u, s, vt.T, zc)
    labels = np.concatenate([keep_r, n + keep_c])
    return ResolventEval(z=zc, entries=entries, labels=labels)


def _active_rows(factor: np.ndarray, active: np.ndarray) -> np.ndarray:
    """The active rows of a factor, without a copy when all are active."""
    return factor if active.all() else factor[active]


def resolvent_max_abs(spec: SpectrumResult, z: "ComplexPoint | complex",
                      chunk: int = 1024) -> float:
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
    ``tol_j = 16 (r + 2) eps (mu_j / v + mu_j^2)``.  LAPACK's SVD stays well
    inside that eta: at most 0.3 of it was measured, over shapes from 2 x 2
    to 1000 x 2000, tall ones included.  So no pruned entry
    exceeds ``best`` by more than rounding, and the result equals the dense
    scan to rounding.  A route whose factors are less orthonormal (singular
    vectors rebuilt as W = X^T U / s for small s) must re-verify eta.

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
    O((n + m) r) diagonal pass.  The largest temporary is one block of
    2 * chunk x max(n, m) float64 values (32 MiB at chunk = 1024, m = 2000);
    no complex copy of U or W is made.
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


def write_spectrum_csv(path, singulars: np.ndarray) -> None:
    lines = ["index,singular_value"]
    for i, s in enumerate(singulars):
        lines.append(f"{i},{float(s)!r}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def esd_histogram(singulars: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """Counts of the symmetrized spectrum {+-s_j} over the given bin edges."""
    sym = np.concatenate([-singulars, singulars])
    counts, _ = np.histogram(sym, bins=edges)
    return counts
