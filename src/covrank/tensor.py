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
which the field stores; the blocks are built from them only when read.
Each entry of Y is the single product eta_ji[l] * eta_ji[m], the same bits
as the block entry.  Two identities of layout v1 follow, both bit for bit:
row block (l, m) of Y equals row block (m, l), since IEEE multiplication
commutes, and every entry of Z is an entry of Y,
``Z[r*d + a, s*d + b] == Y[(a*d + b)*k + s, r]``, so Z is an index map of Y.

A weight function f on the sample is recoverable from its covariance field
precisely when Y_unfolded has full column rank; ``recover`` therefore runs a
minimum-norm least-squares solve and reports rank and uniqueness rather than
failing on deficiency.  It writes [Y | c] into one array and solves it with
one QR and two small SVDs (``numrank``), the same path that
``recovery_experiment`` runs batched over trials.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .manifold import Euclidean, SampleSet, UnitSphere
from .numrank import DEFAULT_TOLERANCE, Tolerance, _solve_augmented

__all__ = [
    "LAYOUT_VERSION",
    "OperatorField",
    "CovField",
    "RecoveryResult",
    "outer_field",
    "sigma_field",
    "modified_sigma_field",
    "assemble_Y",
    "unfold_C",
    "assemble_Z",
    "trace_system",
    "recover",
]

LAYOUT_VERSION = "v1"


@dataclass(frozen=True)
class OperatorField:
    """The pairwise log vectors eta_ji of one sample, and the rank-one blocks
    eta_ji eta_ji^T they define."""

    manifold: Euclidean | UnitSphere
    sample: SampleSet
    eta: np.ndarray  # (k, k, d); eta[j, i] = log_map(p_j, p_i)

    def __post_init__(self):
        self.eta.setflags(write=False)

    @cached_property
    def blocks(self) -> np.ndarray:
        """(k, k, d, d) blocks eta_ji eta_ji^T, built on first read; Y, Z, Sigma and Psi
        are computed from eta instead."""
        blocks = np.einsum("jia,jib->jiab", self.eta, self.eta)
        blocks.setflags(write=False)
        return blocks

    @property
    def k(self) -> int:
        return self.sample.points.shape[0]

    @property
    def d(self) -> int:
        return self.sample.points.shape[1]


@dataclass(frozen=True)
class CovField:
    """Covariance matrices Sigma_j; f is kept for forward tests, None when withheld."""

    sigmas: np.ndarray  # (k, d, d)
    f: np.ndarray | None = None

    def __post_init__(self):
        self.sigmas.setflags(write=False)

    @property
    def k(self) -> int:
        return self.sigmas.shape[0]


def outer_field(manifold: Euclidean | UnitSphere, sample: SampleSet) -> OperatorField:
    """The field of a sample: every log vector eta_ji; the diagonal ones are exactly zero."""
    if sample.manifold != manifold:
        raise ValueError("sample does not live on the given manifold")
    return OperatorField(manifold=manifold, sample=sample, eta=manifold.pairwise_log(sample.points))


def _squared_norms(eta: np.ndarray) -> np.ndarray:
    """||eta_ji||^2 (k, k): the traces of the blocks, with the same bits."""
    return (eta * eta).sum(-1)


def _weighted_sigmas(eta: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Sigma_j = sum_i g_ji eta_ji eta_ji^T of log vectors eta (..., k, k, d), batched over
    leading axes; g broadcasts to (..., k, k).  Each Sigma_j is one matrix product."""
    return np.swapaxes(eta * g[..., None], -1, -2) @ eta


def _check_f(field: OperatorField, f) -> np.ndarray:
    f = np.asarray(f, dtype=float)
    if f.shape != (field.k,):
        raise ValueError(f"f must have length {field.k}, got shape {f.shape}")
    return f


def sigma_field(field: OperatorField, f) -> CovField:
    """Sigma_j = sum_i f_i Y[j, i]; linear in f."""
    f = _check_f(field, f)
    return CovField(sigmas=_weighted_sigmas(field.eta, f[None, :]), f=f)


def modified_sigma_field(field: OperatorField, f, alpha) -> CovField:
    """Shift-weighted covariance field: each term carries (1 - alpha_j / d(p_j, p_i))^2.

    Pairs at distance zero are skipped (their block vanishes anyway), and
    alpha = 0 reproduces sigma_field bit for bit.
    """
    f = _check_f(field, f)
    alpha = np.broadcast_to(np.asarray(alpha, dtype=float), (field.k,))
    if np.any(alpha < 0):
        raise ValueError("alpha values must be non-negative")
    dist = np.sqrt(_squared_norms(field.eta))
    positive = dist > 0
    ratio = np.divide(alpha[:, None], dist, out=np.zeros_like(dist), where=positive)
    weights = np.where(positive, (1.0 - ratio) ** 2, 0.0)
    return CovField(sigmas=_weighted_sigmas(field.eta, weights * f[None, :]), f=f)


def assemble_Y(field: OperatorField) -> np.ndarray:
    """Unfold the field into the (d^2 k) x k system matrix (layout v1)."""
    return _Y_array(field.eta, field.k)


def _Y_array(eta: np.ndarray, width: int) -> np.ndarray:
    """A new (..., d^2 k, width) array whose first k columns hold the layout-v1 Y of
    log vectors eta (..., k, k, d), batched over leading axes.

    Row (l*d + m)*k + j, column i gets eta[..., j, i, l] * eta[..., j, i, m],
    written in place; columns k and up are left for the caller to fill.
    """
    *lead, k, _, d = eta.shape
    out = np.empty((*lead, d * d * k, width))
    E = np.moveaxis(eta, -1, -3)  # E[..., l, j, i] = eta[..., j, i, l]
    Y = out.reshape(*lead, d, d, k, width)[..., :k]
    np.multiply(E[..., :, None, :, :], E[..., None, :, :, :], out=Y)
    return out


def _unfold(sigmas: np.ndarray) -> np.ndarray:
    """Layout-v1 right-hand sides of Sigma stacks (..., k, d, d): entry (l*d + m)*k + j."""
    *lead, k, d, _ = sigmas.shape
    return np.moveaxis(sigmas, -3, -1).reshape(*lead, d * d * k)


def _forward_systems(manifold: Euclidean | UnitSphere, P: np.ndarray, f: np.ndarray) -> np.ndarray:
    """[Y | c] (T, d^2 k, k+1) of point stacks P (T, k, d), c the unfolded covariance
    field of weights f (T, k); each trial's bits equal recover's array for
    that sample and sigma_field(outer_field(...), f)."""
    eta = manifold.pairwise_log(P)
    system = _Y_array(eta, P.shape[-2] + 1)
    system[..., -1] = _unfold(_weighted_sigmas(eta, f[..., None, :]))
    return system


def unfold_C(cov: CovField) -> np.ndarray:
    """Flatten Sigma_1..Sigma_k into the d^2 k right-hand-side vector (layout v1)."""
    return _unfold(cov.sigmas)


def assemble_Z(field: OperatorField) -> np.ndarray:
    """Arrange the blocks into the (d k) x (d k) matrix with block (r, s) = Y[s, r]."""
    return _Z_of_Y(assemble_Y(field))


def _Z_of_Y(Y: np.ndarray) -> np.ndarray:
    """Layout-v1 Z (..., d k, d k) of layout-v1 Y stacks (..., d^2 k, k) of any dtype:
    Z[..., r*d + a, s*d + b] = Y[..., (a*d + b)*k + s, r], batched over leading axes."""
    *lead, rows, k = Y.shape
    d = math.isqrt(rows // k)
    Y4 = Y.reshape(*lead, d, d, k, k)  # [..., a, b, s, r]
    return np.swapaxes(np.moveaxis(Y4, -1, -4), -1, -2).reshape(*lead, k * d, k * d)


def trace_system(field: OperatorField, cov: CovField | None = None):
    """Blockwise traces: Psi[j, i] = tr Y[j, i] (the squared-distance matrix) and c_j = tr Sigma_j."""
    psi = _squared_norms(field.eta)
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


def recover(
    field: OperatorField,
    C: CovField | np.ndarray,
    policy: Tolerance = DEFAULT_TOLERANCE,
) -> RecoveryResult:
    """Minimum-norm least-squares solve of the unfolded system Y f = C.

    Rank deficiency is an expected outcome (it is the whole point on
    Euclidean samples), so deficient systems are solved and reported with
    unique=False instead of raising.  rank_augmented is the rank of [Y | C];
    it equals rank_Y whenever C really is a covariance field of the sample.
    [Y | C] is written into one array and factored with one QR, followed by
    two small SVDs of its triangular factor, at most (k+1) x (k+1).
    """
    c = unfold_C(C) if isinstance(C, CovField) else np.asarray(C, dtype=float)
    rows = field.d * field.d * field.k
    if c.shape != (rows,):
        raise ValueError(f"right-hand side must have length {rows}, got shape {c.shape}")
    if not np.all(np.isfinite(c)):
        raise ValueError("right-hand side has non-finite entries")
    system = _Y_array(field.eta, field.k + 1)
    system[:, -1] = c
    return _recoveries(system[None], policy)[0]


def _recoveries(systems: np.ndarray, policy: Tolerance) -> list[RecoveryResult]:
    """The RecoveryResult of every [Y | c] system of a (T, d^2 k, k+1) stack."""
    k = systems.shape[-1] - 1
    return [
        RecoveryResult(f_hat=x, residual=float(residual), rank_Y=int(rank),
                       rank_augmented=int(rank_augmented), unique=bool(rank == k))
        for x, residual, rank, rank_augmented in zip(*_solve_augmented(systems, policy))
    ]
