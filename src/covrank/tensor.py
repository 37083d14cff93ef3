"""Rank-one operator fields, covariance fields, and the unfolded linear systems.

For a k-point sample the field stores blocks ``Y[j, i] = eta_ji eta_ji^T``
where ``eta_ji`` is the log-map vector at point j pointing to point i and
d is the ambient coordinate dimension.  Three flattenings of the field are
used downstream, all pinned to layout version ``v1``:

* ``assemble_Y``: the (d^2 k) x k system matrix.  Component (l, m) of block
  (j, i) lands in row ``(l*d + m)*k + j``, column ``i`` (zero-based l, m).
* ``unfold_C``: covariance matrices Sigma_j flattened the same way, entry
  ``(l*d + m)*k + j`` holds ``Sigma_j[l, m]``, so the forward model is
  exactly ``Y_unfolded @ f = C_unfolded``.
* ``assemble_Z``: the (d k) x (d k) block arrangement whose block at
  block-row r, block-column s is ``Y[s, r]``.

Y, Sigma and Psi are computed from the log vectors eta_ji of the sample,
which the field stores; no (k, k, d, d) array of blocks is ever built.
Each entry of Y is the single product eta_ji[l] * eta_ji[m], the same bits
as the block entry.  Two identities of layout v1 follow, both bit for bit:
row block (l, m) of Y equals row block (m, l), since IEEE multiplication
commutes, and every entry of Z is an entry of Y,
``Z[r*d + a, s*d + b] == Y[(a*d + b)*k + s, r]``, so Z is an index map of Y.

A weight function f on the sample is recoverable from its covariance field
precisely when Y_unfolded has full column rank; ``recover`` therefore runs a
minimum-norm least-squares solve and reports rank and uniqueness rather than
failing on deficiency.  It does not factor the d^2 k rows of [Y | c]: each
Sigma_j = sum_i f_i eta_ji eta_ji^T lies in the n(n+1)/2-dimensional space of
symmetric forms on the tangent space at p_j.  Rotated into a frame of that
tangent space, with Y's mirrored rows folded, [Y | c] becomes an orthogonally
equivalent system of n(n+1)/2 k + 1 rows (``_reduced_systems``; 3k + 1 on
S^2 instead of 9k), whose last row [0 ... 0 | r] carries every part of c
that the fold and the projection drop.  The Y rows the projection drops
vanish only up to the round-off normal parts of the log vectors, which grow
as eps / sin(theta) near the sphere's cut locus; a trial on which they are
not negligible against the rank threshold keeps them, d(d+1)/2 k + 1 rows
(``_split``, then ``_recoveries``).  One QR and the two-step ladder of ``numrank``
(norm bounds and one triangular inverse certify full-rank systems; the rest
take one stacked SVD with vectors of Y's block, and one values-only SVD of the
triangle for rank [Y | c]) solve either, thresholded for the
shapes of the unreduced system; ``recovery_experiment`` runs the same path batched
over trials.  The reduction stays inside the solve: Y, C and the layout-v1
dump are unchanged.  The rank-law engine and ``covrank tensor`` take their Y
and Z verdicts on such reductions too, from one batched path (``_system_verdicts``),
which enforces the spaces' Y and Z bounds for both, as ``_recoveries`` enforces Y's
for recovery: Y on the Y rows of that system, Z on its nk columns along the tangent
spaces, as rank Z <= nk on S^n.  A tall reduction is certified first: one QR and one
triangular inverse, the test recover's certificate makes of A, settle a
full-rank Y or Z with no singular value, and the SVD measures only the trials
the certificate leaves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .manifold import SampleSet, _ManifoldBase
from .numrank import DEFAULT_TOLERANCE, Tolerance, _certify_columns, _norms, _solve_augmented, _spectra, _verdicts

__all__ = [
    "LAYOUT_VERSION",
    "RankBoundError",
    "OperatorField",
    "CovField",
    "RecoveryResult",
    "outer_field",
    "sigma_field",
    "assemble_Y",
    "unfold_C",
    "assemble_Z",
    "trace_system",
    "recover",
]

LAYOUT_VERSION = "v1"


class RankBoundError(RuntimeError):
    """A measured rank exceeded its proven bound: the tolerance policy is too tight."""


def _enforce_bound(system: str, rank: int, bound: int | None, k: int) -> None:
    """Raise RankBoundError when the rank of a k-point system exceeds its proven bound;
    None proves none."""
    if bound is not None and rank > bound:
        raise RankBoundError(f"{system} system exceeded its proven rank bound: rank {rank} > {bound} at k={k}")


@dataclass(frozen=True)
class OperatorField:
    """The pairwise log vectors eta_ji of one sample, which define the rank-one blocks
    eta_ji eta_ji^T."""

    manifold: _ManifoldBase
    sample: SampleSet
    eta: np.ndarray  # (k, k, d); eta[j, i] is the log vector at p_j pointing to p_i

    def __post_init__(self):
        self.eta.setflags(write=False)

    @property
    def k(self) -> int:
        return self.sample.points.shape[0]

    @property
    def d(self) -> int:
        return self.sample.points.shape[1]


@dataclass(frozen=True)
class CovField:
    """Covariance matrices Sigma_j of one sample."""

    sigmas: np.ndarray  # (k, d, d)

    def __post_init__(self):
        self.sigmas.setflags(write=False)


def outer_field(manifold: _ManifoldBase, sample: SampleSet) -> OperatorField:
    """The field of a sample: every log vector eta_ji; the diagonal ones are exactly zero."""
    if sample.manifold != manifold:
        raise ValueError("sample does not live on the given manifold")
    return OperatorField(manifold=manifold, sample=sample, eta=manifold.pairwise_log(sample.points))


def _weighted_sigmas(eta: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Sigma_j = sum_i g_ji eta_ji eta_ji^T of log vectors eta (..., k, k, d), batched over
    leading axes; g broadcasts to (..., k, k).  Each Sigma_j is one matrix product."""
    return np.swapaxes(eta * g[..., None], -1, -2) @ eta


def sigma_field(field: OperatorField, f) -> CovField:
    """Sigma_j = sum_i f_i Y[j, i]; linear in f."""
    f = np.asarray(f, dtype=float)
    if f.shape != (field.k,):
        raise ValueError(f"f must have length {field.k}, got shape {f.shape}")
    return CovField(sigmas=_weighted_sigmas(field.eta, f[None, :]))


def assemble_Y(field: OperatorField) -> np.ndarray:
    """Unfold the field into the (d^2 k) x k system matrix (layout v1): row
    (l*d + m)*k + j, column i holds eta_ji[l] * eta_ji[m]."""
    E = np.moveaxis(field.eta, -1, 0)  # E[l, j, i] = eta[j, i, l]
    return (E[:, None] * E[None]).reshape(-1, field.k)


def _Z_array(eta: np.ndarray, W: np.ndarray) -> np.ndarray:
    """Z (..., d k, m k) of log vectors eta (..., k, k, d) and their coordinates W (..., k, k, m),
    batched over leading axes: entry (r*d + a, s*m + b) is eta[..., s, r, a] * W[..., s, r, b].
    With W = eta it is layout-v1 Z, each entry the product of its Y entry."""
    *lead, k, _, d = eta.shape
    E, F = np.moveaxis(eta, -3, -1), np.swapaxes(W, -3, -2)  # [..., r, a, s], [..., r, s, b]
    return (E[..., None] * F[..., None, :, :]).reshape(*lead, d * k, W.shape[-1] * k)


def _frame_coordinates(
    manifold: _ManifoldBase, P: np.ndarray, eta: np.ndarray, sigmas: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray | None]:
    """Log vectors eta (T, k, k, d) and covariance stacks sigmas (T, k, d, d), if any, of
    point stacks P (T, k, d) in the frame Q_j of each point (``manifold._tangent_frames``),
    whose first n axes span the tangent space: V[t, j, i] = Q_j^T eta_ji and
    S[t, j] = Q_j^T Sigma_j Q_j.  On R^n the frames are the identity and nothing moves."""
    frames = manifold._tangent_frames(P)
    if frames is None:
        return eta, sigmas
    return eta @ frames, None if sigmas is None else np.swapaxes(frames, -1, -2) @ sigmas @ frames


def _reduced_systems(V: np.ndarray, S: np.ndarray, dims: int) -> np.ndarray:
    """Systems (T, dims(dims+1)/2 k + 1, k+1) of log vectors V (T, k, k, d) and covariance
    stacks S (T, k, d, d) in the frames of ``_frame_coordinates``, orthogonally
    equivalent to the layout-v1 [Y | c] (T, d^2 k, k+1) up to Y's entries (a, b) with
    a or b >= dims, which they drop.

    The d^2 rows of point j carry the d x d matrices eta_ji eta_ji^T and Sigma_j, and
    rotating each into the frame, M -> Q_j^T M Q_j, is orthogonal on those rows.  Y's
    rows (a, b) and (b, a) are equal, and (x + y)/sqrt(2), (x - y)/sqrt(2) turns each
    such pair into the row sqrt(2) x and a row whose Y part is zero.  Row pair*k + j
    keeps block (a, b), a <= b < dims, numbered as np.triu_indices(dims); every other
    row folds into the last row [0 ... 0 | r], where r is the norm of the c entries
    they hold: the antisymmetric parts of Sigma and its entries outside the kept
    dims x dims corner.  With dims = n those are the normal parts, and the Y entries
    dropped with them vanish but for round-off (``_dropped_norms``); with dims = d
    nothing of Y is dropped.

    Each system is column-major, a transposed view of a (T, k+1, rows) array, and its Y
    part is written along its columns, in memory order.  LAPACK's QR factors column-major matrices, and
    np.linalg.qr copies a row-major stack into that order column by column, reading each
    column across the whole system; a column-major stack it copies in contiguous runs.
    The values are those of a row-major stack, and so is the QR's triangle.
    """
    T, k = V.shape[:2]
    a, b = np.triu_indices(dims)
    strict = a < b
    columns = np.empty((T, k + 1, len(a) * k + 1))  # columns[t, i]: column i of system t
    # column i holds the products of V_ji over j, the transpose of V's order: they run along
    # j, the last axis of both views, so they are written in memory order
    W = np.moveaxis(V[..., :dims], -1, 1).swapaxes(2, 3)  # a view: W[t, c, i, j] = V[t, j, i, c]
    _reduced_Y(W, columns[:, :k, :-1].reshape(T, k, len(a), k).swapaxes(1, 2))  # a view: [t, pair, i, j]
    half = S * math.sqrt(0.5)
    c = np.where(strict, half[..., a, b] + half[..., b, a], S[..., a, b])  # c[t, j, pair]
    columns[:, k, :-1] = np.swapaxes(c, 1, 2).reshape(T, -1)
    columns[:, :k, -1] = 0.0
    dropped = [half[..., a[strict], b[strict]] - half[..., b[strict], a[strict]], S[..., dims:, :], S[..., :dims, dims:]]
    columns[:, k, -1] = _norms(np.concatenate([part.reshape(T, -1) for part in dropped], axis=1))
    return columns.swapaxes(1, 2)


def _reduced_Y(W: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Products (T, dims(dims+1)/2, p, q) of coordinate stacks W (T, dims, p, q), written into
    out if given: [t, pair, p, q] holds W[t, a, p, q] W[t, b, p, q], times sqrt(2) where
    a < b, the pairs (a, b) numbered as np.triu_indices(dims).  With W[t, a, j, i] the frame
    coordinate a of eta_ji, they are the Y rows pair*k + j of _reduced_systems(V, S, dims)."""
    a, b = np.triu_indices(W.shape[1])
    if out is None:
        out = np.empty((len(W), len(a)) + W.shape[2:])
    for row, (x, y) in enumerate(zip(a, b)):
        np.multiply(W[:, x], W[:, y], out=out[:, row])
        if x != y:
            out[:, row] *= math.sqrt(2.0)
    return out


def _dropped_norms(V: np.ndarray, dims: int, weight: float) -> np.ndarray:
    """Frobenius norms (T,) of the entries that the reductions of Y (weight 2) or Z (weight 1)
    to dims frame axes drop: per log vector v = (v_T, v_N), split at dims, they hold
    |v_N|^2 (weight |v_T|^2 + |v_N|^2), summed free of cancellation.  Each squared norm is
    added up in place, one coordinate at a time in coordinate order, which fixes its bits."""
    term = np.empty(V.shape[:-1])
    tangent, normal = (_squares(V, axes, term) for axes in (range(dims), range(dims, V.shape[-1])))
    tangent *= weight
    tangent += normal
    tangent *= normal
    return np.sqrt(tangent.sum(axis=(-2, -1)))


def _squares(V: np.ndarray, axes: range, term: np.ndarray) -> np.ndarray:
    """sum_a V[..., a]^2 over the given coordinates of V, a new array (zeros if there are
    none), each square made in the scratch array term, then added."""
    if not axes:
        return np.zeros(V.shape[:-1])
    out = np.multiply(V[..., axes[0]], V[..., axes[0]])
    for a in axes[1:]:
        np.multiply(V[..., a], V[..., a], out=term)
        out += term
    return out


def _system_rows(manifold: _ManifoldBase, k: int) -> int:
    """Rows of a k-point trial's reduced [Y | c] system at most: d(d+1)/2 k + 1."""
    d = manifold.coord_dim
    return d * (d + 1) // 2 * k + 1


def _system_shape(manifold: _ManifoldBase, k: int, system: str) -> tuple[int, int]:
    """Shape of layout-v1 Y, (d^2 k, k), or Z, (d k, d k), of a k-point sample."""
    d = manifold.coord_dim
    return (d * d * k, k) if system == "Y" else (d * k, d * k)


def _split(manifold: _ManifoldBase, V: np.ndarray, policy: Tolerance, system: str) -> list[tuple]:
    """(trials, dims) pairs that cover each trial of log vectors V (T, k, k, d) in the frames
    of ``_frame_coordinates`` once, dims the frame axes its reduced Y or Z (system) keeps.

    A trial keeps its n tangent axes where the entries they drop are negligible: their
    norm is at most tau / 10, tau the threshold of the unreduced system.  No singular
    value then moves by more than tau / 10, so no verdict outside the borderline band
    (tau / 10, 10 tau).  Otherwise, as near the sphere's cut locus, where a log vector's
    round-off normal part grows as eps / sin(theta), it keeps all d.  tau is bounded
    below with no SVD by ||Y 1||, the norm of the unfolded sums sum_i eta_ji eta_ji^T:
    sigma_1(Y) >= ||Y 1|| / sqrt(k), and sigma_1(Z) >= ||Y 1|| / sqrt(dk), since
    (1_k (x) I_d)^T Z / sqrt(k), of rank at most d, holds the same sums over r of the
    blocks (r, s) = eta_sr eta_sr^T.  trials is slice(None) where one pair covers all.
    """
    n, d, k = manifold.n, manifold.coord_dim, V.shape[1]
    if n == d:  # R^n: the frames are the ambient axes, and nothing is dropped
        return [(slice(None), n)]
    shape = _system_shape(manifold, k, system)
    ones = _norms((np.swapaxes(V, -1, -2) @ V).reshape(len(V), -1))  # ||Y 1||, V's frames being orthonormal
    tau = policy.threshold(shape, ones / math.sqrt(shape[1]))
    full = _dropped_norms(V, n, 2.0 if system == "Y" else 1.0) > tau / 10
    return [(slice(None) if group.all() else np.flatnonzero(group), dims)
            for dims, group in ((n, ~full), (d, full)) if group.any()]


def _reduced_stacks(manifold: _ManifoldBase, V: np.ndarray, eta: np.ndarray, policy: Tolerance, system: str):
    """(trials, stack) pairs that cover each trial of log vectors eta (T, k, k, d), V in the
    frames of ``_frame_coordinates``, once: the stacks of the reductions of Y or Z (system)
    that ``_split`` chooses.

    Y is reduced to the Y rows of recover's reduced system, n(n+1)/2 k rows instead of
    d^2 k.  Column block s of Z, whose blocks hold log vectors tangent at p_s,
    annihilates p_s, so Z blockdiag(Q_s) has the columns eta_sr[a] V_sr[b], of which
    those with b >= n are round-off; the reduced Z keeps the nk others, and the k(d - n)
    dropped singular values are exactly 0.  On R^n nothing is dropped.
    """
    k = V.shape[1]
    for trials, dims in _split(manifold, V, policy, system):
        if system == "Y":
            Y = _reduced_Y(np.moveaxis(V[trials, ..., :dims], -1, 1))
            yield trials, Y.reshape(len(Y), -1, k)
        else:
            yield trials, _Z_array(eta[trials], V[trials, ..., :dims])


def _system_verdicts(
    manifold: _ManifoldBase, P: np.ndarray, eta: np.ndarray, policy: Tolerance, system: str
) -> tuple[np.ndarray, np.ndarray]:
    """Ranks and borderline flags (T,) of layout-v1 Y or Z (system) of point stacks
    P (T, k, d) with log vectors eta = manifold.pairwise_log(P), measured on orthogonally
    equivalent reductions (``_reduced_stacks``) but thresholded for the full shapes
    (``_system_shape``); each trial's are those of a stack of it alone.  A rank above the
    bound the space proves for the system (``_proven_ranks``) raises RankBoundError, so
    neither the rank-law engine nor ``covrank tensor`` reads the Y or Z law again.

    A tall reduced stack goes through ``numrank._certify_columns`` first, unless the
    bound lies below its width, as Y's does on R^n past k = (n+1)(n+2)/2.  A certified
    trial has the reduced width as its rank, Z's dropped values being 0, and no value
    near the threshold, so it is not borderline; it takes no SVD.  Every other trial,
    and every square stack (whole Z, Y on S^1 and R^1), takes the verdicts
    (``numrank._verdicts``) of its settled singular values (``numrank._spectra``), read
    against the full width: the values the reduction drops are 0, which count neither
    above the threshold nor near it.
    """
    k = P.shape[1]
    V, _ = _frame_coordinates(manifold, P, eta)
    shape = _system_shape(manifold, k, system)
    bound = manifold._proven_ranks().get(system)
    rank, borderline = np.empty(len(P), int), np.zeros(len(P), bool)
    for trials, a in _reduced_stacks(manifold, V, eta, policy, system):
        trials, width = np.arange(len(P))[trials], a.shape[2]
        certified = np.zeros(len(a), bool)
        if a.shape[1] > width and (bound is None or bound >= width):
            certified = _certify_columns(a, policy, shape)
        rank[trials[certified]] = width
        rest = ~certified
        if rest.any():
            report = _verdicts(_spectra(a if rest.all() else a[rest], policy, shape[0]), policy, shape)
            rank[trials[rest]], borderline[trials[rest]] = report.numerical_rank, report.borderline
    _enforce_bound(system, int(rank.max()), bound, k)
    return rank, borderline


def _forward_recoveries(
    manifold: _ManifoldBase, P: np.ndarray, f: np.ndarray, policy: Tolerance
) -> list[RecoveryResult]:
    """_recoveries of point stacks P (T, k, d) and the covariance fields of weights
    f (T, k); each trial's bits equal recover's for that sample and
    sigma_field(outer_field(...), f)."""
    eta = manifold.pairwise_log(P)
    V, S = _frame_coordinates(manifold, P, eta, _weighted_sigmas(eta, f[..., None, :]))
    del eta  # V holds all the systems need; spare the memory while they are built
    return _recoveries(manifold, V, S, policy)


def unfold_C(cov: CovField) -> np.ndarray:
    """Flatten Sigma_1..Sigma_k into the d^2 k right-hand-side vector (layout v1):
    entry (l*d + m)*k + j holds Sigma_j[l, m]."""
    return np.moveaxis(cov.sigmas, 0, -1).reshape(-1)


def assemble_Z(field: OperatorField) -> np.ndarray:
    """Arrange the blocks into the (d k) x (d k) matrix with block (r, s) = Y[s, r]."""
    return _Z_array(field.eta, field.eta)


def trace_system(field: OperatorField, cov: CovField | None = None):
    """Blockwise traces: Psi[j, i] = tr Y[j, i] (the squared-distance matrix) and c_j = tr Sigma_j.
    Psi[j, i] = ||eta_ji||^2 has the bits of the trace of the block eta_ji eta_ji^T."""
    psi = (field.eta * field.eta).sum(-1)
    if cov is None:
        return psi, None
    if cov.sigmas.shape != (field.k, field.d, field.d):
        raise ValueError("covariance field does not match the sample")
    return psi, np.trace(cov.sigmas, axis1=1, axis2=2)


@dataclass(frozen=True)
class RecoveryResult:
    f_hat: np.ndarray
    residual: float
    rank_Y: int
    rank_augmented: int
    unique: bool
    borderline: bool

    def __post_init__(self):
        self.f_hat.setflags(write=False)


def recover(field: OperatorField, cov: CovField, policy: Tolerance = DEFAULT_TOLERANCE) -> RecoveryResult:
    """Minimum-norm least-squares solve of the unfolded system Y f = C, C = unfold_C(cov).

    Rank deficiency is an expected outcome (it is the whole point on
    Euclidean samples), so deficient systems are solved and reported with
    unique=False instead of raising.  rank_augmented is the rank of [Y | C];
    it equals rank_Y whenever cov really is a covariance field of the sample.
    unique holds when exactly one f solves Y f = C: rank_Y == k and
    rank_augmented == rank_Y, so a C outside Y's range is never unique.
    borderline flags a verdict that a small perturbation could flip: a singular
    value of Y or of [Y | C] within 10x of its threshold, or a rank_augmented other
    than rank_Y or rank_Y + 1.
    The solve runs on the reduced system of ``_recoveries``, orthogonally
    equivalent to [Y | C] but n(n+1)/2 k + 1 rows tall instead of d^2 k (or
    d(d+1)/2 k + 1 where Y's dropped normal part is not negligible), with one
    QR, then the two-step ladder of ``numrank._solve_augmented`` on its
    triangular factor, at most (k+1) x (k+1): norm bounds and one triangular
    inverse certify a full-rank system, and only a system they leave pays for
    one stacked SVD with vectors of Y's block, and one values-only SVD of the
    triangle for rank [Y | C].
    Ranks are thresholded for the shapes of [Y | C] and Y, so the tolerance is
    that of the unreduced system.
    """
    sigmas = cov.sigmas
    shape = (field.k, field.d, field.d)
    if sigmas.shape != shape:
        raise ValueError(f"covariance field must have shape {shape}, got {sigmas.shape}")
    if not np.all(np.isfinite(sigmas)):
        raise ValueError("covariance field has non-finite entries")
    V, S = _frame_coordinates(field.manifold, field.sample.points[None], field.eta[None], sigmas[None])
    return _recoveries(field.manifold, V, S, policy)[0]


def _recoveries(manifold: _ManifoldBase, V: np.ndarray, S: np.ndarray, policy: Tolerance) -> list[RecoveryResult]:
    """The RecoveryResult of every trial of log vectors V (T, k, k, d) and covariance stacks
    S (T, k, d, d) in the frames of ``_frame_coordinates``, in trial order.

    Each group of trials ``_split`` makes of Y is solved in place: a trial gets the tangent
    system of _reduced_systems(V, S, n), n(n+1)/2 k + 1 rows, where the Y entries it drops
    are negligible, and dims = d otherwise, thresholded for the shapes of the unreduced
    [Y | c] and Y.  A rank_Y above the Y bound the space proves raises RankBoundError."""
    k = V.shape[1]
    rows, bound = _system_shape(manifold, k, "Y")[0], manifold._proven_ranks().get("Y")
    results = [None] * len(V)
    for trials, dims in _split(manifold, V, policy, "Y"):
        solution = _solve_augmented(_reduced_systems(V[trials], S[trials], dims), policy, rows)
        _enforce_bound("Y", int(solution.rank.max()), bound, k)
        for t, x, residual, rank, rank_augmented, borderline in zip(np.arange(len(V))[trials], *solution):
            results[t] = RecoveryResult(f_hat=x, residual=float(residual), rank_Y=int(rank),
                                        rank_augmented=int(rank_augmented),
                                        unique=bool(rank == k and rank_augmented == rank),
                                        borderline=bool(borderline))
    return results
