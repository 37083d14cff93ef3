"""Rank verdicts and minimum-norm least-squares measurements.

Numerical rank counts singular values above a tolerance, always the relative
tau = factor * sigma_1 with the default factor max(m, n) * eps, so a verdict does not
depend on the scale of the matrix.  Verdicts flag decisions as borderline when any singular
value lands within a factor of 10 of the threshold, so experiment drivers can report
ambiguity instead of silently misclassifying.  ``_verdicts`` is the only code that
compares singular values with tau: ``_spectra``'s eigensolve flags and the recovery's
vectors path (``_solve_by_vectors``) read it too.

The one verdict rule is two steps: ``_spectra`` settles a stack's singular
values, and ``_verdicts`` draws the verdicts from them.  In ``_spectra`` the
matrices that equal their transposes bit for bit get one stacked symmetric
eigensolve, whose |eigenvalues| are the singular values, and only those it
flags borderline are factored again by the stacked SVD; every other matrix
takes the SVD alone.  ``covrank tensor`` takes Psi's verdict as row 0 of those
of a one-matrix stack.  The rank-law engine (``montecarlo``) measures a k's kernel
trials in chunks and takes one verdict per k.  Its Y and Z verdicts and those
of ``covrank tensor`` come from one path (``tensor._system_verdicts``), which
certifies tall reduced Y and Z first, by test (a) of the recovery certificate
below (``_certify_columns``), and gives only the trials left the spectra, with
the full shapes' thresholds, and their verdicts.  The condition sweep keeps
its own rule (``montecarlo.condition_sweep``).  Least squares
(``_solve_augmented``, behind ``tensor.recover`` and the recovery experiments)
follows Chan's R-SVD (T. F. Chan, ACM TOMS 8, 1982): one stacked Householder
QR of the augmented systems [A | b], then a two-step ladder on the
triangular factor.  No singular value is computed to certify, by interlacing,
the systems whose A has full rank and whose [A | b] has a rank no round-off
can flip: norm bounds of the leading block R_A bound sigma_1, and 1/||R_A^-1||_F
bounds sigma_n from below, after the diagonal's min |r_ii| bounds it from above
and screens out the systems that cannot pass.  One blocked triangular inverse
of R_A gives both that bound and the certified systems' solutions, x = R_A^-1 r
refined once.  No LU of R_A is formed: np.linalg.inv sees only its diagonal
blocks of at most 64, where LU with no row exchange is back substitution.
Only the rest pay for singular vectors: one stacked SVD with vectors of A's
block, which gives the rank of A and the minimum-norm solution, and one
values-only SVD of the triangle for rank [A | b].
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

__all__ = ["Tolerance"]


@dataclass(frozen=True)
class Tolerance:
    """Threshold policy for deciding which singular values count as nonzero:
    tau = factor * sigma_1, with factor None meaning max(m, n) * eps."""

    factor: float | None = None

    def __post_init__(self):
        if self.factor is not None and not 0 < self.factor < np.inf:
            raise ValueError(f"tolerance factor must be positive and finite, got {self.factor}")

    def threshold(self, shape: tuple[int, int], sigma1: np.ndarray) -> np.ndarray:
        """Thresholds tau, of sigma1's shape, for m x n matrices whose largest singular
        values are the array sigma1."""
        factor = self.factor if self.factor is not None else max(shape) * np.finfo(float).eps
        return factor * sigma1


DEFAULT_TOLERANCE = Tolerance()


def _validated(matrix, ndim: int = 2) -> np.ndarray:
    a = np.asarray(matrix, dtype=float)
    if a.ndim != ndim or a.size == 0:
        raise ValueError(f"expected a non-empty {ndim}-d array")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix has non-finite entries")
    return a


def _spectra(a: np.ndarray, policy: Tolerance, rows: int | None = None) -> np.ndarray:
    """Settled singular values (T, min(m, n)), descending, of a validated (T, m, n) stack:
    the measurement of the one verdict rule.

    The square matrices that equal their transposes bit for bit get one stacked
    symmetric eigensolve; only those it flags borderline are factored again by the
    stacked SVD, whose singular values replace theirs, and the SVD measures every other
    matrix alone.  The flags use the threshold of matrices of shape (rows, n): rows
    defaults to m, and a caller whose stack is an orthogonally reduced copy of taller
    matrices passes their row count, so tau is theirs.  Both factorizations are
    backward stable, so their values differ by round-off of order eps * sigma_1, which
    the 10x band around the threshold is there to absorb; at a rank gap the
    eigensolve's round-off lands in the band more often than the SVD's, and those
    matrices pay for both.  That a verdict the eigensolve decides is the SVD's is
    checked on fixed seeds (tests/test_engine.py), not proven.  A matrix's values do
    not depend on the rest of its stack, so a caller may measure a stack in chunks and
    take the verdicts (``_verdicts``) of all of them at once.
    """
    shape = (a.shape[1] if rows is None else rows, a.shape[2])
    s = np.empty((len(a), min(a.shape[1:])))
    svd = np.ones(len(a), bool)  # every matrix but the symmetric ones the eigensolve decides
    if a.shape[1] == a.shape[2]:
        symmetric = (a == np.swapaxes(a, 1, 2)).all(axis=(1, 2))
        if symmetric.any():  # a mask that keeps every matrix would copy the stack
            eig = _singular_values(a if symmetric.all() else a[symmetric], True)
            s[symmetric] = eig
            svd[symmetric] = _verdicts(eig, policy, shape).borderline
    if svd.any():
        s[svd] = _singular_values(a if svd.all() else a[svd])
    return s


def _singular_values(a: np.ndarray, symmetric: bool = False) -> np.ndarray:
    """Singular values (T, min(m, n)), descending, of a (T, m, n) stack from one stacked
    SVD or, with symmetric=True, the |eigenvalues| of one stacked symmetric
    eigensolve, which reads only the lower triangle."""
    if symmetric:
        return -np.sort(-np.abs(np.linalg.eigvalsh(a)), axis=1)
    return np.linalg.svd(a, compute_uv=False)


class _Verdicts(NamedTuple):
    """The verdicts of a stack of T matrices, one entry per matrix."""

    numerical_rank: np.ndarray  # (T,) int
    tolerance_used: np.ndarray  # (T,)
    borderline: np.ndarray  # (T,) bool


def _verdicts(s: np.ndarray, policy: Tolerance, shape: tuple[int, int]) -> _Verdicts:
    """The verdicts of matrices of the given shape whose singular values are s (T, r), descending:
    the count of values above tau, tau, and whether any value lies within 10x of tau."""
    tol = policy.threshold(shape, s[:, 0])
    near = (tol > 0) & ((s > (tol / 10)[:, None]) & (s < (tol * 10)[:, None])).any(axis=1)
    return _Verdicts(np.count_nonzero(s > tol[:, None], axis=1), tol, near)


def _norms(x: np.ndarray) -> np.ndarray:
    """Euclidean norms along the last axis, scaled by the largest |entry| so that no
    square overflows or underflows."""
    scale = np.max(np.abs(x), axis=-1, initial=0.0)
    unit = np.divide(x, scale[..., None], out=np.zeros_like(x), where=scale[..., None] > 0)
    return scale * np.sqrt((unit * unit).sum(axis=-1))


def _scale_exponents(g: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exponents e (T,) that put ||b 2^-e|| in [g/2, g) for sizes g (T,) and vectors
    b (T, m); e = 0 where ||b|| or g is 0.  No quotient of ||b|| and g is formed, so
    none overflows."""
    nb = _norms(b)
    (mb, eb), (mg, eg) = np.frexp(nb), np.frexp(g)
    both = (nb > 0) & (g > 0)
    ratio = np.divide(mb, mg, out=np.ones_like(mb), where=both)  # in [1/2, 2)
    return np.where(both, eb - eg + np.frexp(ratio)[1], 0)


class _AugmentedSolution(NamedTuple):
    """Least-squares results for a stack of T systems, one entry per system."""

    x: np.ndarray  # (T, n) minimum-norm solutions
    residual: np.ndarray  # (T,) ||A x - b||
    rank: np.ndarray  # (T,) numerical rank of A
    rank_augmented: np.ndarray  # (T,) numerical rank of [A | b]
    borderline: np.ndarray  # (T,) bool: either rank may flip under a small perturbation


_MARGIN = 20  # a certificate's bounds clear the 10x band by this factor, 2x to spare


def _solve_augmented(Ab: np.ndarray, policy: Tolerance, rows: int | None = None) -> _AugmentedSolution:
    """Minimum-norm least squares of every system [A | b] of a (T, m, n+1) stack, m >= n+1,
    as every reduced system (``tensor._reduced_systems``) is.

    One stacked QR gives [A | b] = Q R, R (n+1) x (n+1).  x solves
    R[:, :n] x = R[:, n], which is A x = b in the coordinates of Q.  The thresholds
    use the shapes (rows, n+1) and (rows, n) of the original matrices: rows defaults
    to m, and a caller whose stack is an orthogonally reduced copy of taller systems
    passes their row count, so tau is theirs.  A solution is borderline when a
    singular value of A or of [A | b] lies within 10x of its threshold, or when
    rank([A | b]) is neither rank(A) nor rank(A) + 1.

    The solve is a two-step ladder.  Bounds on the singular values of R[:n, :n], from
    its norms, its diagonal and its inverse, certify the systems whose verdicts they
    settle (``_certify``): A of rank n and [A | b] of rank n or n + 1, nothing near a
    threshold; their x comes from that inverse.  The rest take the vectors path
    (``_solve_by_vectors``), run on the gathered subset.  Every result for a system
    equals, bit for bit, what a stack holding only that system gives.

    rank([A | b]) does not depend on the scale of b, but a threshold set by
    sigma_1([A | b]) would: a b far larger than A puts every singular value of
    A below it.  So R[:, n] = Q^T b, which is linear in b, is scaled by the
    power of two 2^-e that brings ||b|| into [g/2, g), g = ||A||_F / sqrt(n)
    <= sigma_1(A) (from R[:n, :n], whose norms each step measures), and x and
    the residual are scaled back by 2^e.  Scaling by a power of two is exact,
    so they keep their bits, and Ab is not touched.

    R is made C-contiguous right after the QR, whatever the layout of Ab: numpy's sums
    and matmuls may add in another order on another layout, so every bound and solution
    of the ladder is computed on the same layout, and has the same bits, for a row-major
    Ab and for the column-major systems of ``tensor._reduced_systems``.
    """
    m, n = Ab.shape[1] if rows is None else rows, Ab.shape[2] - 1
    R = np.ascontiguousarray(np.linalg.qr(Ab, mode="r"))  # (T, n+1, n+1)
    certified, solution = _certify(R, policy, m)
    if not certified.all():
        rest = ~certified
        for out, got in zip(solution, _solve_by_vectors(R[rest], policy, m)):
            out[rest] = got
    return solution


def _certify(R: np.ndarray, policy: Tolerance, m: int) -> tuple[np.ndarray, _AugmentedSolution]:
    """Step 1 of ``_solve_augmented``: which systems of a stack of (n+1) x (n+1) triangles
    R = [[R_A, r], [0, rho]] bounds certify, and the solutions of the stack, of which
    only the certified systems' hold.

    No singular value is computed; every one the certificate reads is bounded instead.
    sigma_1(R_A) lies in [g_lo, g_hi], g_lo = max(largest column norm, ||R_A 1|| /
    sqrt(n)) and g_hi = min(||R_A||_F, sqrt(||R_A||_1 ||R_A||_inf)), so the threshold t
    of [A | b] lies in [t_lo, t_hi], those of g_lo and of ||(g_hi, r, rho)||, which
    bound sigma_1(R) below and above.  sigma_n(R_A) lies in [1 / ||R_A^-1||_F, min_i
    |r_ii|].  A system is certified when (a) 1 / ||R_A^-1||_F > 20 t_hi: by interlacing
    sigma_i(R) >= sigma_i(R_A), so A has rank n and none of sigma_1..sigma_n of R_A
    and of R lies in the 10x band; and (b), with x = R_A^-1 r and w = (x, -1), either
    u = ||R w|| / ||w|| < t_lo / 20, so sigma_n+1(R) <= u puts rank([A | b]) at n, or
    l = 1 / (||R_A^-1||_F + ||w|| / |rho|) > 20 t_hi, so sigma_n+1(R) = 1 / ||R^-1||
    >= l puts it at n + 1.  The upper bound of sigma_n
    screens first, for free: a system with min_i |r_ii| <= 20 t_hi fails (a) and is
    never inverted, so no exactly singular triangle is.

    The factor 20 leaves 2x of room for the round-off of every bound.  The norms and
    the bounds of sigma_1 are sums of |entries|, within a relative n eps of their
    values.  One blocked inverse X of R_A (``_invert``) gives both 1 / ||R_A^-1||_F and
    x.  Its leaves are inverted by back substitution, its off-diagonal blocks are
    -(X11 R12) X22, a method whose computed inverse is within about n eps cond(R_A)
    relative of R_A^-1, as the unblocked one is (Du Croz and Higham, "Stability of
    methods for matrix inversion", IMA J. Numer. Anal. 12, 1992).  x = X r, refined
    once by x += X (r - R_A x), a step of fixed-precision iterative refinement that
    keeps x's forward error at about n eps cond(R_A) and brings its residual down to
    what a backward-stable solve leaves (Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed., ch. 12).  (a) passes only when cond(R_A) < sigma_1(R) /
    (20 t_hi), at most 1 / (20 m eps) under the default tolerance, m >= n, which puts
    those errors below 1/20.  An inverse that overflows certifies nothing.  The scale
    2^-e of b uses g = ||R_A||_F / sqrt(n).  R is not written."""
    n = R.shape[2] - 1
    RA, Rb = R[:, :n, :n], R[:, :, n]
    g_lo, g_hi, frobenius = _sigma1_bounds(RA)
    e = _scale_exponents(frobenius / math.sqrt(n), Rb)
    Rb = np.ldexp(Rb, -e[:, None])
    t_hi = policy.threshold((m, n + 1), np.hypot(g_hi, _norms(Rb)))
    full, s_n, x = _full_rank(RA, t_hi, Rb[:, :n])
    x[~full] = 0.0  # an inverse that overflowed leaves x non-finite
    residual = _norms((R[:, :, :n] @ x[..., None])[..., 0] - Rb)  # ||R w||
    w = np.hypot(_norms(x), 1.0)
    with np.errstate(divide="ignore", over="ignore"):  # an infinite 1/l fails the test below
        low = 1 / (1 / s_n + w / np.abs(Rb[:, n]))
    spanned = residual / w < policy.threshold((m, n + 1), g_lo) / _MARGIN
    certified = full & (spanned | (low > _MARGIN * t_hi))
    return certified, _AugmentedSolution(np.ldexp(x, e[:, None]), np.ldexp(residual, e), np.full(len(R), n),
                                         np.where(spanned, n, n + 1), np.zeros(len(R), bool))


def _full_rank(RA: np.ndarray, t_hi: np.ndarray, r: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Test (a) of the certificate, shared by ``_certify`` and ``_certify_columns``: which
    of a stack of upper triangles RA (T, n, n) have every singular value above _MARGIN
    t_hi (T,), the bounds 1 / ||RA^-1||_F <= sigma_n (T,) that decide it, and x = RA^-1 r
    (T, n) of vectors r (T, n), of which only the passing triangles' hold.  The diagonal
    screens first, as min_i |r_ii| >= sigma_n: a triangle at or below the margin there
    fails and is never inverted, so no exactly singular one is; the others get one
    blocked inverse each (``_invert``)."""
    screened = np.abs(np.diagonal(RA, axis1=1, axis2=2)).min(axis=1) > _MARGIN * t_hi
    s_n = np.zeros(len(RA))  # 0 where the screen fails
    x = np.zeros(r.shape)
    if screened.any():
        pick = slice(None) if screened.all() else screened
        s_n[pick], x[pick] = _invert(RA[pick], r[pick])
    return s_n > _MARGIN * t_hi, s_n, x


def _certify_columns(a: np.ndarray, policy: Tolerance, shape: tuple[int, int]) -> np.ndarray:
    """Which matrices of a stack a (T, m, n), m > n, bounds certify to have rank n with no
    singular value within 10x of the threshold of matrices of the given shape, with no
    singular value computed: one stacked QR a = Q R, sigma_1(R) <= g_hi (``_sigma1_bounds``)
    and t_hi the threshold of g_hi, then the test (a) of ``_certify`` on R, 1 / ||R^-1||_F
    > 20 t_hi (``_full_rank``).  The verdicts it certifies are those of ``_verdicts`` of
    the singular values, up to round-off the factor 20 absorbs.  A threshold or bound
    that overflows certifies nothing and raises nothing, so it leaves the verdict, and
    any overflow of its threshold, to the singular values."""
    R = np.linalg.qr(a, mode="r")
    with np.errstate(over="ignore", invalid="ignore"):
        # no right-hand side: the x of a zero vector costs three matrix-vector products
        return _full_rank(R, policy.threshold(shape, _sigma1_bounds(R)[1]), np.zeros(R.shape[:2]))[0]


def _sigma1_bounds(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Bounds g_lo <= sigma_1 <= g_hi (T,) of a (T, n, n) stack, and its Frobenius norms:
    g_lo = max(largest column norm, ||a 1|| / sqrt(n)) and g_hi = min(||a||_F,
    sqrt(||a||_1 ||a||_inf)).  Made from one |a|, scaled so that no square overflows."""
    absolute = a.copy()
    columns, e = _column_norms(absolute)
    frobenius = _norms(columns)
    sums = np.sqrt(absolute.sum(axis=1).max(axis=1) * absolute.sum(axis=2).max(axis=1))
    g_lo = np.maximum(columns.max(axis=1), _norms(a.sum(axis=2)) / math.sqrt(a.shape[2]))
    return g_lo, np.minimum(frobenius, np.ldexp(sums, e)), frobenius


_LEAF = 64  # the largest diagonal block ``_triangular_inverse`` hands to np.linalg.inv


def _invert(a: np.ndarray, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """1 / ||a^-1||_F <= sigma_n (T,) and x = a^-1 r (T, n) of a stack of nonsingular upper
    triangles a (T, n, n) and vectors r (T, n), both from one blocked inverse X
    (``_triangular_inverse``): x = X r, refined once by x += X (r - a x).  Where the
    inverse overflows the bound is 0 or nan, so no comparison passes, and x is not
    finite; nothing raises."""
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        X = _triangular_inverse(a)
        x = X @ r[..., None]
        x += X @ (r[..., None] - a @ x)
        return 1 / _norms(_column_norms(X)[0]), x[..., 0]


def _triangular_inverse(a: np.ndarray) -> np.ndarray:
    """Inverses of a stack (T, n, n) of nonsingular upper triangles, upper triangles with
    exact zeros below the diagonal.  Split at h = n // 2, X11 = R11^-1 and X22 = R22^-1
    recursively, and X12 = -(X11 R12) X22, a product of two matmuls; np.linalg.inv
    inverts only the diagonal blocks of at most _LEAF, where the recursion stops."""
    n = a.shape[-1]
    if n <= _LEAF:
        return np.linalg.inv(a)
    h = n // 2
    x = np.zeros_like(a)
    x[:, :h, :h] = _triangular_inverse(a[:, :h, :h])
    x[:, h:, h:] = _triangular_inverse(a[:, h:, h:])
    x[:, :h, h:] = np.negative(x[:, :h, :h] @ a[:, :h, h:]) @ x[:, h:, h:]
    return x


def _column_norms(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Euclidean norms (T, q) of the columns of a (T, p, q) stack, and exponents e (T,).
    a is overwritten by |a| 2^-e, e putting each matrix's largest |entry| in [1/2, 1)
    (e = 0 for a zero matrix) so that no square overflows; the scaling is exact but for
    entries it takes below the normal range, which lie far below the norms."""
    np.abs(a, out=a)
    e = np.frexp(a.max(axis=(1, 2)))[1]
    with np.errstate(under="ignore"):
        np.ldexp(a, -e[:, None, None], out=a)
        return np.ldexp(np.sqrt(np.einsum("tij,tij->tj", a, a)), e[:, None]), e


def _solve_by_vectors(R: np.ndarray, policy: Tolerance, m: int) -> _AugmentedSolution:
    """Step 2 of ``_solve_augmented``: the solutions of a stack of (n+1) x (n+1) triangles R
    from one stacked SVD with vectors of A's block, R[:n, :n] = U S V^T, which gives the
    singular values of A and the minimum-norm x, and one values-only SVD of the triangle,
    whose singular values are those of [A | b 2^-e], for rank([A | b]).  R's last column
    is scaled in place."""
    n = R.shape[2] - 1
    RA, Rb = R[:, :, :n], R[:, :, n]
    U, s, Vt = np.linalg.svd(RA[:, :n], full_matrices=False)
    e = _scale_exponents(_norms(s) / math.sqrt(n), Rb)
    np.ldexp(Rb, -e[:, None], out=Rb)
    z = (np.swapaxes(U, 1, 2) @ Rb[:, :n, None])[..., 0]
    rank_augmented, _, near_augmented = _verdicts(np.linalg.svd(R, compute_uv=False), policy, (m, n + 1))
    rank, tau, near = _verdicts(s, policy, (m, n))
    keep = s > tau[:, None]
    # appending a column raises the rank by 0 or 1, so any other verdict is round-off
    borderline = near_augmented | near | (rank_augmented < rank) | (rank_augmented > rank + 1)
    coeff = np.divide(z, s, out=np.zeros_like(s), where=keep)
    x = (np.swapaxes(Vt, 1, 2) @ coeff[..., None])[..., 0]
    # Q has orthonormal columns spanning A's and b's, so ||A x - b|| = ||R[:, :n] x - R[:, n]||
    residual = _norms((RA @ x[..., None])[..., 0] - Rb)
    return _AugmentedSolution(np.ldexp(x, e[:, None]), np.ldexp(residual, e), rank, rank_augmented, borderline)
