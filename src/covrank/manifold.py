"""Geometry of the two model spaces: Euclidean boxes and unit spheres.

Points live in ambient coordinates (length ``n`` for Euclidean space,
``n + 1`` for the sphere embedded in R^{n+1}).  Tangent vectors on the
sphere are carried in the same ambient coordinates, which keeps
``tr(v v^T) = ||v||^2`` equal to the squared geodesic distance without any
per-point frame bookkeeping.

Randomness is reproducible by construction: every sampling routine is keyed
by a 64-bit seed plus a stream index, fed to numpy's counter-based Philox
generator.  Stream ``s`` of seed ``q`` is ``Philox(key=[q, s])``, so parallel
and serial runs that agree on (seed, stream) agree on the bits.

Pairwise maps (distances, log maps) are batched over leading axes: a stack
of samples of shape (..., k, coord_dim) gives one k x k result per sample,
with the same bits as computing each sample on its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

__all__ = [
    "AntipodalPairError",
    "Euclidean",
    "UnitSphere",
    "SampleSet",
    "rng_stream",
    "rng_streams",
]

# Log map on the sphere is refused this close to the cut locus.
ANTIPODAL_MARGIN = 1e-8


class AntipodalPairError(ValueError):
    """Sphere log map requested at (numerically) antipodal points."""


def rng_stream(seed: int, stream: int = 0) -> np.random.Generator:
    """Counter-based generator for the pair (seed, stream).

    Distinct streams of the same seed are independent, so per-trial streams
    can be handed to parallel workers without coordination.
    """
    if seed < 0 or stream < 0:
        raise ValueError("seed and stream must be non-negative")
    key = np.array([seed, stream], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def rng_streams(seed: int, streams: Iterable[int]) -> Iterator[np.random.Generator]:
    """Generators with the bits of ``rng_stream(seed, s)`` for each s in streams, in order.

    One Philox bit generator is re-keyed per stream (key [seed, s], counter 0,
    empty buffer) instead of constructed anew, because construction spends
    most of its time pulling SeedSequence entropy.  The same Generator object
    is yielded each time: finish drawing from it before advancing.
    """
    if seed < 0:
        raise ValueError("seed and stream must be non-negative")
    bitgen = np.random.Philox(key=np.array([seed, 0], dtype=np.uint64))
    gen = np.random.Generator(bitgen)
    fresh = bitgen.state  # a copy: counter 0, empty buffer
    for stream in streams:
        if stream < 0:
            raise ValueError("seed and stream must be non-negative")
        fresh["state"]["key"][1] = stream
        bitgen.state = fresh
        yield gen


def _zero_diagonal(a: np.ndarray) -> np.ndarray:
    """Set a[..., i, i] = 0 in place and return a."""
    i = np.arange(a.shape[-1])
    a[..., i, i] = 0.0
    return a


def _as_point(x, coord_dim: int) -> np.ndarray:
    p = np.asarray(x, dtype=float)
    if p.shape != (coord_dim,):
        raise ValueError(f"expected a point of length {coord_dim}, got shape {p.shape}")
    return p


def _normalize_region(n: int, region) -> np.ndarray:
    """Coerce a sampling box to shape (n, 2); default is the unit cube."""
    if region is None:
        box = np.tile([0.0, 1.0], (n, 1))
    else:
        box = np.asarray(region, dtype=float)
        if box.shape == (2,):
            box = np.tile(box, (n, 1))
        if box.shape != (n, 2):
            raise ValueError(f"region must be (lo, hi) or an ({n}, 2) array")
    with np.errstate(over="ignore", invalid="ignore"):
        width = box[:, 1] - box[:, 0]  # finite only if both bounds are
    if not np.all(np.isfinite(width)):
        raise ValueError("degenerate sampling box: every bound and side length must be finite")
    if np.any(box[:, 1] <= box[:, 0]):
        raise ValueError("degenerate sampling box: every side needs hi > lo")
    return box


@dataclass(frozen=True)
class SampleSet:
    """An ordered batch of manifold points plus the randomness that made it."""

    manifold: "Euclidean | UnitSphere"
    points: np.ndarray  # (k, coord_dim)
    seed: int
    stream: int = 0

    def __post_init__(self):
        self.points.setflags(write=False)

    @property
    def k(self) -> int:
        return self.points.shape[0]


@dataclass(frozen=True)
class _ManifoldBase:
    """Shared plumbing; concrete spaces fill in the geometric kernels.

    Each space spells its distance once, in the batched ``distance_matrix``;
    ``distance`` and ``paired_distance`` are read off it, so a pair gets the same
    bits whichever of the three computes it.
    """

    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("dimension must be positive")

    def sample_uniform(self, k: int, seed: int, *, stream: int = 0, region=None) -> SampleSet:
        """Draw k independent uniform points; identical inputs give identical bits."""
        pts = self.sample_batch(k, seed, [stream], region=region)[0]
        return SampleSet(manifold=self, points=pts, seed=seed, stream=stream)

    def sample_batch(self, k: int, seed: int, streams: Iterable[int], *, region=None) -> np.ndarray:
        """The points of ``sample_uniform(k, seed, stream=s, region=region)`` for each s in
        streams, stacked into shape (len(streams), k, coord_dim) with the same bits."""
        if k < 1:
            raise ValueError("k must be at least 1")
        box = self._box(region)
        return np.stack([self._draw(rng, k, box) for rng in rng_streams(seed, streams)])

    def expected_distance(self, trials: int, seed: int, *, stream: int = 0, region=None) -> float:
        """Monte Carlo estimate of E d(X, Y) for independent uniform X, Y.

        Draws a single 2*trials sample and pairs the first half against the
        second, so trials=1 returns the distance of points[0] and points[1]
        of the corresponding 2-point sample.
        """
        if trials < 1:
            raise ValueError("trials must be at least 1")
        pts = self.sample_uniform(2 * trials, seed, stream=stream, region=region).points
        return float(np.mean(self.paired_distance(pts[:trials], pts[trials:])))

    def distance(self, p, q) -> float:
        p, q = self._check_pair(p, q)
        return float(self.distance_matrix(p[None], q[None])[0, 0])

    def paired_distance(self, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
        """Distances d(X[t], Y[t]) of two (T, coord_dim) point arrays, row by row."""
        return self.distance_matrix(X[:, None], Y[:, None])[:, 0, 0]

    def pairwise_distance(self, P: np.ndarray) -> np.ndarray:
        """Distance matrices of point stacks P (..., k, coord_dim) with themselves.

        d(p, p) = 0 exactly, sparing the arccos round-off on the diagonal.
        """
        return _zero_diagonal(self.distance_matrix(P, P))

    def log_map(self, p, q) -> np.ndarray:
        """Tangent vector at p of length d(p, q) pointing along the geodesic to q.

        Undefined at the sphere's cut locus: antipodal pairs raise AntipodalPairError.
        """
        p, q = self._check_pair(p, q)
        return self.pairwise_log(np.stack([p, q]))[0, 1]

    def _check_pair(self, p, q):
        return _as_point(p, self.coord_dim), _as_point(q, self.coord_dim)


class Euclidean(_ManifoldBase):
    """Flat R^n.  Uniform sampling requires a bounded axis-aligned box."""

    @property
    def coord_dim(self) -> int:
        return self.n

    def pairwise_log(self, P: np.ndarray) -> np.ndarray:
        """Log-map vectors eta[..., j, i, :] = p_i - p_j of point stacks P (..., k, n)."""
        return P[..., None, :, :] - P[..., :, None, :]

    def exp_map(self, p, v) -> np.ndarray:
        p, v = self._check_pair(p, v)
        return p + v

    def distance_matrix(self, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
        diff = X[..., :, None, :] - Y[..., None, :, :]
        return np.sqrt((diff * diff).sum(axis=-1))

    def _box(self, region) -> tuple[np.ndarray, np.ndarray]:
        box = _normalize_region(self.n, region)
        return box[:, 0], box[:, 1] - box[:, 0]

    def _draw(self, rng: np.random.Generator, k: int, box) -> np.ndarray:
        # the bits of rng.uniform(lo, hi, (k, n)), without its per-call argument checks
        lo, width = box
        return lo + width * rng.random((k, self.n))

    def __str__(self):
        return f"euclid:{self.n}"


class UnitSphere(_ManifoldBase):
    """Unit n-sphere in R^{n+1} with the arc-length (geodesic) distance."""

    @property
    def coord_dim(self) -> int:
        return self.n + 1

    def pairwise_log(self, P: np.ndarray) -> np.ndarray:
        """Log-map vectors eta[..., j, i, :] at p_j pointing to p_i, for point stacks P (..., k, n+1).

        eta_ji = theta / sin(theta) * (p_i - cos(theta) p_j) with theta = d(p_j, p_i),
        and eta_jj = 0.  Pairs within ANTIPODAL_MARGIN of antipodal raise
        AntipodalPairError, since the log map is undefined at the cut locus.
        """
        G = np.clip(P @ np.swapaxes(P, -1, -2), -1.0, 1.0)
        theta = _zero_diagonal(np.arccos(G))
        bad = np.argwhere(theta > np.pi - ANTIPODAL_MARGIN)
        if bad.size:
            j, i = bad[0][-2:]
            raise AntipodalPairError(
                f"points {j} and {i} are antipodal; the log map is undefined there"
            )
        sin = np.sin(theta)
        factor = np.divide(theta, sin, out=np.ones_like(theta), where=sin > 0)
        eta = factor[..., None] * (P[..., None, :, :] - G[..., None] * P[..., :, None, :])
        i = np.arange(P.shape[-2])
        eta[..., i, i, :] = 0.0
        return eta

    def exp_map(self, p, v) -> np.ndarray:
        """Geodesic flow from p along tangent v (requires ||v|| < pi)."""
        p, v = self._check_pair(p, v)
        if abs(float(p @ v)) > 1e-10:
            raise ValueError("vector is not tangent to the sphere at its base point")
        norm = float(np.linalg.norm(v))
        if norm == 0.0:
            return p.copy()
        return math.cos(norm) * p + math.sin(norm) * (v / norm)

    def distance_matrix(self, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
        # clamp guards floating-point drift of nearly (anti)parallel pairs
        return np.arccos(np.clip(X @ np.swapaxes(Y, -1, -2), -1.0, 1.0))

    def _box(self, region) -> None:
        if region is not None:
            raise ValueError("sphere sampling takes no region")

    def _draw(self, rng: np.random.Generator, k: int, box) -> np.ndarray:
        # normalized Gaussians are rotation-invariant, hence uniform
        g = rng.standard_normal((k, self.coord_dim))
        return g / np.linalg.norm(g, axis=1, keepdims=True)

    def __str__(self):
        return f"sphere:{self.n}"
