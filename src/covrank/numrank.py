"""Rank, conditioning, and minimum-norm least-squares measurements.

Numerical rank counts singular values above a tolerance, always the relative
tau = factor * sigma_1 with the default factor max(m, n) * eps, so a verdict
does not depend on the scale of the matrix.  Reports flag decisions as
borderline when any singular value lands within a factor of 10 of the
threshold, so experiment drivers can report ambiguity instead of silently
misclassifying.

``batched_rank_report`` measures a stack of same-shape matrices with one
stacked SVD, or, for matrices the caller declares symmetric, one stacked
symmetric eigensolve whose |eigenvalues| are the singular values;
``rank_report`` is its one-matrix SVD case.  Least squares (``_solve_augmented``,
behind ``tensor.recover`` and the recovery experiments) follows Chan's R-SVD
(T. F. Chan, ACM TOMS 8, 1982): one stacked Householder QR of the augmented
systems [A | b], then two small SVDs of the triangular factor, one for the
rank of [A | b] and one for the rank of A and the minimum-norm solution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

__all__ = [
    "Tolerance",
    "RankReport",
    "BatchedRankReport",
    "rank_report",
    "batched_rank_report",
]


@dataclass(frozen=True)
class Tolerance:
    """Threshold policy for deciding which singular values count as nonzero:
    tau = factor * sigma_1, with factor None meaning max(m, n) * eps."""

    factor: float | None = None

    def __post_init__(self):
        if self.factor is not None and not 0 < self.factor < np.inf:
            raise ValueError(f"tolerance factor must be positive and finite, got {self.factor}")

    def threshold(self, shape: tuple[int, int], sigma1):
        """tau for m x n matrices with largest singular value sigma1.

        sigma1 may be a float, giving a float, or an array of them, giving
        an array of thresholds of the same shape.
        """
        factor = self.factor if self.factor is not None else max(shape) * np.finfo(float).eps
        tau = factor * np.asarray(sigma1, dtype=float)
        return tau if tau.ndim else float(tau)


DEFAULT_TOLERANCE = Tolerance()


@dataclass(frozen=True)
class RankReport:
    """Singular values of one matrix and the decisions drawn from them.

    condition_number is sigma_1 / sigma_min, reported as inf when the matrix
    is numerically singular under the policy.  log_abs_det is the sum of log
    singular values for square matrices (None otherwise) and is the usable
    determinant diagnostic at scales where |det| itself underflows.
    """

    singular_values: np.ndarray
    numerical_rank: int
    tolerance_used: float
    condition_number: float
    log_abs_det: float | None
    borderline: bool

    def __post_init__(self):
        self.singular_values.setflags(write=False)

    @property
    def spectral_ratio(self) -> float:
        """Raw sigma_1 / sigma_min, ignoring the tolerance policy."""
        s = self.singular_values
        if s[-1] == 0.0:
            return float("inf")
        return float(s[0] / s[-1])


@dataclass(frozen=True)
class BatchedRankReport:
    """RankReport fields for a stack of T same-shape matrices, one entry per matrix.

    Indexing with a matrix number gives that matrix's RankReport;
    ``concatenate`` joins reports of consecutive chunks of one stack.
    """

    singular_values: np.ndarray  # (T, min(m, n)), descending
    numerical_rank: np.ndarray  # (T,) int
    tolerance_used: np.ndarray  # (T,)
    condition_number: np.ndarray  # (T,)
    log_abs_det: np.ndarray | None  # (T,), None unless the matrices are square
    borderline: np.ndarray  # (T,) bool

    @property
    def spectral_ratio(self) -> np.ndarray:
        """Raw sigma_1 / sigma_min per matrix, ignoring the tolerance policy."""
        s = self.singular_values
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(s[:, -1] == 0.0, np.inf, s[:, 0] / s[:, -1])

    def __getitem__(self, t: int) -> RankReport:
        return RankReport(
            singular_values=self.singular_values[t],
            numerical_rank=int(self.numerical_rank[t]),
            tolerance_used=float(self.tolerance_used[t]),
            condition_number=float(self.condition_number[t]),
            log_abs_det=None if self.log_abs_det is None else float(self.log_abs_det[t]),
            borderline=bool(self.borderline[t]),
        )

    @classmethod
    def concatenate(cls, reports) -> "BatchedRankReport":
        reports = list(reports)

        def joined(name):
            parts = [getattr(r, name) for r in reports]
            return None if parts[0] is None else np.concatenate(parts)

        return cls(**{f.name: joined(f.name) for f in fields(cls)})


def _validated(matrix, ndim: int = 2) -> np.ndarray:
    a = np.asarray(matrix, dtype=float)
    if a.ndim != ndim or a.size == 0:
        raise ValueError(f"expected a non-empty {ndim}-d array")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix has non-finite entries")
    return a


def batched_rank_report(
    matrices, policy: Tolerance = DEFAULT_TOLERANCE, symmetric: bool = False
) -> BatchedRankReport:
    """rank_report of every matrix of a (T, m, n) stack, from one stacked SVD.

    With symmetric=True the matrices must be square and symmetric, and the
    singular values are the |eigenvalues| of one stacked symmetric
    eigensolve, which reads only the lower triangle: the caller declares
    symmetry, it is not checked.  On either path every field equals, bit for
    bit, what that path gives for the matrix alone (rank_report, for the SVD).
    """
    return _report(_validated(matrices, ndim=3), policy, symmetric)


def rank_report(matrix, policy: Tolerance = DEFAULT_TOLERANCE) -> RankReport:
    """Measure numerical rank, conditioning, and log-determinant in one SVD."""
    return _report(_validated(matrix)[None], policy)[0]


def _report(a: np.ndarray, policy: Tolerance, symmetric: bool = False) -> BatchedRankReport:
    if symmetric:
        s = -np.sort(-np.abs(np.linalg.eigvalsh(a)), axis=1)
    else:
        s = np.linalg.svd(a, compute_uv=False)
    shape = a.shape[1:]
    tol = policy.threshold(shape, s[:, 0])
    rank = np.count_nonzero(s > tol[:, None], axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        cond = np.where(rank < s.shape[1], np.inf, s[:, 0] / s[:, -1])
        # log 0 = -inf, so a singular matrix gets log_abs_det = -inf
        log_abs_det = np.log(s).sum(axis=1) if shape[0] == shape[1] else None
    near = (s > (tol / 10)[:, None]) & (s < (tol * 10)[:, None])
    borderline = (tol > 0) & near.any(axis=1)
    return BatchedRankReport(
        singular_values=s,
        numerical_rank=rank,
        tolerance_used=tol,
        condition_number=cond,
        log_abs_det=log_abs_det,
        borderline=borderline,
    )


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


def _solve_augmented(Ab: np.ndarray, policy: Tolerance, rows: int | None = None) -> _AugmentedSolution:
    """Minimum-norm least squares of every system [A | b] of a (T, m, n+1) stack.

    One stacked QR gives [A | b] = Q R with R of at most n+1 rows, so both
    SVDs below are small whatever m is.  The singular values of R are those
    of [A | b]; those of R[:n, :n] are those of A, and its SVD solves
    R[:, :n] x = R[:, n], which is A x = b in the coordinates of Q.  The
    thresholds use the shapes (rows, n+1) and (rows, n) of the original
    matrices: rows defaults to m, and a caller whose stack is an orthogonally
    reduced copy of taller systems passes their row count, so tau is theirs.
    Every result for a system equals, bit for bit, what a stack holding only
    that system gives.

    rank([A | b]) does not depend on the scale of b, but a threshold set by
    sigma_1([A | b]) would: a b far larger than A puts every singular value of
    A below it.  So R[:, n] = Q^T b, which is linear in b, is scaled by the
    power of two 2^-e that brings ||b|| into [g/2, g), g = ||A||_F / sqrt(n)
    <= sigma_1(A) (from A's singular values, so no copy of R is made), and x
    and the residual are scaled back by 2^e.  Scaling by a power of two is
    exact, so they keep their bits, and Ab is not touched.
    """
    m, n = Ab.shape[1] if rows is None else rows, Ab.shape[2] - 1
    R = np.linalg.qr(Ab, mode="r")  # (T, min(Ab.shape[1], n+1), n+1)
    RA, Rb = R[:, :, :n], R[:, :, n]
    U, s, Vt = np.linalg.svd(RA[:, :n], full_matrices=False)
    e = _scale_exponents(_norms(s) / math.sqrt(n), Rb)
    np.ldexp(Rb, -e[:, None], out=Rb)
    s_aug = np.linalg.svd(R, compute_uv=False)
    rank_augmented = np.count_nonzero(s_aug > policy.threshold((m, n + 1), s_aug[:, 0])[:, None], axis=1)
    keep = s > policy.threshold((m, n), s[:, 0])[:, None]
    coeff = np.divide((np.swapaxes(U, 1, 2) @ Rb[:, :n, None])[..., 0], s, out=np.zeros_like(s), where=keep)
    x = (np.swapaxes(Vt, 1, 2) @ coeff[..., None])[..., 0]
    # Q has orthonormal columns spanning A's and b's, so ||A x - b|| = ||R[:, :n] x - R[:, n]||
    residual = _norms((RA @ x[..., None])[..., 0] - Rb)
    return _AugmentedSolution(np.ldexp(x, e[:, None]), np.ldexp(residual, e), np.count_nonzero(keep, axis=1),
                              rank_augmented)

