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

A weight function f on the sample is recoverable from its covariance field
precisely when Y_unfolded has full column rank; ``recover`` therefore runs a
minimum-norm least-squares solve and reports rank and uniqueness rather than
failing on deficiency.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .manifold import Euclidean, SampleSet, UnitSphere
from .numrank import DEFAULT_TOLERANCE, Tolerance, rank_report, solve_least_squares

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
    """All pairwise rank-one blocks eta_ji eta_ji^T of one sample."""

    manifold: Euclidean | UnitSphere
    sample: SampleSet
    blocks: np.ndarray  # (k, k, d, d); blocks[j, i] uses eta = log_map(p_j, p_i)

    def __post_init__(self):
        self.blocks.setflags(write=False)

    @property
    def k(self) -> int:
        return self.blocks.shape[0]

    @property
    def d(self) -> int:
        return self.blocks.shape[2]


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
    """Build every block eta_ji eta_ji^T; diagonal blocks are exactly zero."""
    if sample.manifold != manifold:
        raise ValueError("sample does not live on the given manifold")
    return OperatorField(manifold=manifold, sample=sample, blocks=_blocks(manifold, sample.points))


def _blocks(manifold: Euclidean | UnitSphere, P: np.ndarray) -> np.ndarray:
    """Blocks (..., k, k, d, d) of point stacks P (..., k, d), batched over leading axes."""
    eta = manifold.pairwise_log(P)
    return np.einsum("...jia,...jib->...jiab", eta, eta)


def _weighted_sum(field: OperatorField, f: np.ndarray, weights: np.ndarray) -> np.ndarray:
    return np.einsum("ji,i,jiab->jab", weights, f, field.blocks)


def _check_f(field: OperatorField, f) -> np.ndarray:
    f = np.asarray(f, dtype=float)
    if f.shape != (field.k,):
        raise ValueError(f"f must have length {field.k}, got shape {f.shape}")
    return f


def sigma_field(field: OperatorField, f) -> CovField:
    """Sigma_j = sum_i f_i Y[j, i]; linear in f."""
    f = _check_f(field, f)
    weights = np.ones((field.k, field.k))
    return CovField(sigmas=_weighted_sum(field, f, weights), f=f)


def modified_sigma_field(field: OperatorField, f, alpha) -> CovField:
    """Shift-weighted covariance field: each term carries (1 - alpha_j / d(p_j, p_i))^2.

    Pairs at distance zero are skipped (their block vanishes anyway), and
    alpha = 0 reproduces sigma_field bit for bit.
    """
    f = _check_f(field, f)
    alpha = np.broadcast_to(np.asarray(alpha, dtype=float), (field.k,))
    if np.any(alpha < 0):
        raise ValueError("alpha values must be non-negative")
    dist = np.sqrt(np.trace(field.blocks, axis1=2, axis2=3))  # ||eta_ji||
    positive = dist > 0
    ratio = np.divide(alpha[:, None], dist, out=np.zeros_like(dist), where=positive)
    weights = np.where(positive, (1.0 - ratio) ** 2, 0.0)
    return CovField(sigmas=_weighted_sum(field, f, weights), f=f)


def assemble_Y(field: OperatorField) -> np.ndarray:
    """Unfold the field into the (d^2 k) x k system matrix (layout v1)."""
    return _Y_layout(field.blocks)


def _Y_layout(blocks: np.ndarray) -> np.ndarray:
    """Layout-v1 Y of blocks (..., k, k, d, d), batched over leading axes."""
    *lead, k, _, d, _ = blocks.shape
    return np.moveaxis(blocks, (-2, -1), (-4, -3)).reshape(*lead, d * d * k, k)


def unfold_C(cov: CovField) -> np.ndarray:
    """Flatten Sigma_1..Sigma_k into the d^2 k right-hand-side vector (layout v1)."""
    return cov.sigmas.transpose(1, 2, 0).reshape(-1)


def assemble_Z(field: OperatorField) -> np.ndarray:
    """Arrange the blocks into the (d k) x (d k) matrix with block (r, s) = Y[s, r]."""
    return _Z_layout(field.blocks)


def _Z_layout(blocks: np.ndarray) -> np.ndarray:
    """Layout-v1 Z of blocks (..., k, k, d, d), batched over leading axes."""
    *lead, k, _, d, _ = blocks.shape
    return np.moveaxis(blocks, -4, -2).reshape(*lead, k * d, k * d)


def trace_system(field: OperatorField, cov: CovField | None = None):
    """Blockwise traces: Psi[j, i] = tr Y[j, i] (the squared-distance matrix) and c_j = tr Sigma_j."""
    psi = np.trace(field.blocks, axis1=2, axis2=3)
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
    """
    Y = assemble_Y(field)
    c = unfold_C(C) if isinstance(C, CovField) else np.asarray(C, dtype=float)
    if c.shape != (Y.shape[0],):
        raise ValueError(f"right-hand side must have length {Y.shape[0]}, got shape {c.shape}")
    sol = solve_least_squares(Y, c, policy)
    augmented = rank_report(np.column_stack([Y, c]), policy)
    return RecoveryResult(
        f_hat=sol.x,
        residual=sol.residual_norm,
        rank_Y=sol.rank,
        rank_augmented=augmented.numerical_rank,
        unique=sol.unique,
    )
