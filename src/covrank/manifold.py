"""Geometry of the two model spaces: Euclidean space and unit spheres.

Points live in ambient coordinates (length ``n`` for Euclidean space,
``n + 1`` for the sphere embedded in R^{n+1}).  Uniform sampling needs a
bounded set, so ``Euclidean`` carries its sampling box ``[lo, hi]^n`` as the
field ``box`` (default the unit cube); the sphere needs none.  Tangent
vectors on the sphere are carried in the same ambient coordinates, which
keeps ``tr(v v^T) = ||v||^2`` equal to the squared geodesic distance without
any per-point frame bookkeeping.

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
import operator
import sys
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

# The smallest side of a Euclidean sampling box, about 1.0e-146: below it the round-off
# of a squared distance, eps side^2, falls below the smallest normal double.
_MIN_SIDE = math.sqrt(sys.float_info.min / sys.float_info.epsilon)


class AntipodalPairError(ValueError):
    """Sphere log map requested at (numerically) antipodal points."""


def _check_key_word(value: int) -> int:
    """A seed or stream as an int, refused unless it is one unsigned 64-bit Philox key word:
    an integer, numpy's included, in [0, 2**64).  The key is cast to uint64, which would
    run 1.5 as 1."""
    try:
        value = operator.index(value)
    except TypeError:
        raise ValueError(f"seed and stream must be integers, got {value!r}") from None
    if not 0 <= value < 1 << 64:
        raise ValueError(f"seed and stream must lie in [0, 2**64), got {value}")
    return value


def rng_stream(seed: int, stream: int = 0) -> np.random.Generator:
    """Counter-based generator for the pair (seed, stream).

    Distinct streams of the same seed are independent, so per-trial streams
    can be handed to parallel workers without coordination.
    """
    return next(rng_streams(seed, [stream]))


def rng_streams(seed: int, streams: Iterable[int]) -> Iterator[np.random.Generator]:
    """Generators for the pairs (seed, s), s in streams, in order: Philox keyed by
    [seed, s] from counter 0.  One bit generator, keyed [seed, 0], is re-keyed per
    stream by setting key word 1 of a copy of its fresh state (counter 0, empty buffer)
    and handing that state back: the bits of a Philox built with that key, and faster
    than building one, which spends most of its time pulling SeedSequence entropy.  The
    state holds plain ints, which the setter reads word by word faster than numpy
    arrays.  The same Generator object is yielded each time: finish drawing from it
    before advancing.  Keys are checked lazily: the seed as the first generator is
    asked for, each stream as its own is."""
    _check_key_word(seed)
    bitgen = np.random.Philox(key=np.array([seed, 0], dtype=np.uint64))
    fresh = bitgen.state
    fresh["state"] = {name: words.tolist() for name, words in fresh["state"].items()}
    fresh["buffer"] = fresh["buffer"].tolist()
    gen = np.random.Generator(bitgen)
    for stream in streams:
        _check_key_word(stream)
        fresh["state"]["key"][1] = stream
        bitgen.state = fresh
        yield gen


def _zero_diagonal(a: np.ndarray) -> np.ndarray:
    """Set a[..., i, i] = 0 in place and return a."""
    i = np.arange(a.shape[-1])
    a[..., i, i] = 0.0
    return a


@dataclass(frozen=True)
class SampleSet:
    """An ordered batch of points on one manifold."""

    manifold: "_ManifoldBase"
    points: np.ndarray  # (k, coord_dim)

    def __post_init__(self):
        self.points.setflags(write=False)


@dataclass(frozen=True)
class _ManifoldBase:
    """Shared plumbing; every fact about one space lives in its class.

    A space defines ``coord_dim``, ``distance_matrix``, ``pairwise_log``,
    ``_tangent_frames``, ``_draw``, ``_finish`` and ``__str__``, and declares
    what is proven about it: ``_proven_ranks()``, the ranks of kernel families and
    of the systems "Y" and "Z" keyed by name, an int for a finite rank and None for
    full rank almost everywhere, a missing key unsettled; ``mean_distance``; and
    ``_unit_points``, whether every point has norm 1, so that arccos(p.p) = 0.
    The ranks have one reader, the law lookup ``kernels._law``; no reader tests the class.
    Each space spells its distance once, in the batched ``distance_matrix``;
    ``pairwise_distance`` and ``paired_distance`` are read off it, so a pair gets
    the same bits whichever computes it.  Maps act on stacks only: a single pair
    is a stack of one.
    """

    n: int
    mean_distance = None  # exact E d(X, Y) of independent uniform X, Y, None if unknown
    _unit_points = False

    def __post_init__(self):
        try:  # numpy integers pass; 2.5 is refused, and 2.0 would print euclid:2.0
            n = operator.index(self.n)
        except TypeError:
            raise ValueError(f"dimension must be an integer, got {self.n!r}") from None
        if n < 1:
            raise ValueError("dimension must be positive")
        object.__setattr__(self, "n", n)

    def sample_uniform(self, k: int, seed: int, *, stream: int = 0) -> SampleSet:
        """Draw k independent uniform points; identical inputs give identical bits."""
        pts = self.sample_batch(k, seed, [stream])[0]
        return SampleSet(manifold=self, points=pts)

    def sample_batch(self, k: int, seed: int, streams: Iterable[int]) -> np.ndarray:
        """The points of ``sample_uniform(k, seed, stream=s)`` for each s in streams,
        stacked into shape (len(streams), k, coord_dim) with the same bits: the re-keyed
        generators of ``rng_streams`` fill each slice with raw draws, and one pass over
        the stack makes them points.  A seed or stream that is no integer in [0, 2**64)
        raises ValueError before anything is drawn, as does a k that is no integer."""
        try:  # numpy integers pass; 2.5 is refused, and 2.0 too, as by the dimension
            k = operator.index(k)
        except TypeError:
            raise ValueError(f"k must be an integer, got {k!r}") from None
        if k < 1:
            raise ValueError("k must be at least 1")
        streams = list(streams)
        for key in [seed, *streams]:  # refuse a bad key before any draw
            _check_key_word(key)
        out = np.empty((len(streams), k, self.coord_dim))
        for gen, points in zip(rng_streams(seed, streams), out):
            self._draw(gen, points)
        self._finish(out)
        return out

    def expected_distance(self, trials: int, seed: int) -> float:
        """Monte Carlo estimate of E d(X, Y) for independent uniform X, Y.

        Draws a single 2*trials sample and pairs the first half against the
        second, so trials=1 returns the distance of points[0] and points[1]
        of the corresponding 2-point sample.
        """
        try:  # numpy integers pass; 1.5 is refused, which 2 * trials would make a k of 3.0
            trials = operator.index(trials)
        except TypeError:
            raise ValueError(f"trials must be an integer, got {trials!r}") from None
        if trials < 1:
            raise ValueError("trials must be at least 1")
        pts = self.sample_uniform(2 * trials, seed).points
        return float(np.mean(self.paired_distance(pts[:trials], pts[trials:])))

    def paired_distance(self, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
        """Distances d(X[t], Y[t]) of two (T, coord_dim) point arrays, row by row."""
        return self.distance_matrix(X[:, None], Y[:, None])[:, 0, 0]

    def pairwise_distance(self, P: np.ndarray) -> np.ndarray:
        """Distance matrices of point stacks P (..., k, coord_dim) with themselves.

        d(p, p) = 0 exactly, sparing the arccos round-off on the diagonal.
        """
        return _zero_diagonal(self.distance_matrix(P, P))


@dataclass(frozen=True)
class Euclidean(_ManifoldBase):
    """Flat R^n, sampled uniformly from the cube [lo, hi]^n given by ``box``.

    The box is part of the space, so a sample's manifold records the box it was
    drawn from; ``str`` prints ``euclid:<n>`` whatever the box.  Its side must be at
    least about 1.0e-146 (``_MIN_SIDE``): below that, eps times a squared distance
    underflows, and the rank thresholds lose the round-off they are set against.
    """

    box: tuple[float, float] = (0.0, 1.0)

    def __post_init__(self):
        super().__post_init__()
        try:
            lo, hi = (float(x) for x in self.box)
        except (TypeError, ValueError):
            raise ValueError(f"box must be a pair (lo, hi) of numbers, got {self.box!r}") from None
        if not math.isfinite(hi - lo):  # finite only if both bounds are
            raise ValueError("degenerate sampling box: bounds and side length must be finite")
        if hi <= lo:
            raise ValueError("degenerate sampling box: the box needs hi > lo")
        if hi - lo < _MIN_SIDE:
            raise ValueError(f"sampling box side {hi - lo:.3g} is below {_MIN_SIDE:.3g}, where the "
                             "round-off of squared distances underflows")
        object.__setattr__(self, "box", (lo, hi))

    @property
    def coord_dim(self) -> int:
        return self.n

    def pairwise_log(self, P: np.ndarray) -> np.ndarray:
        """Log-map vectors eta[..., j, i, :] = p_i - p_j of point stacks P (..., k, n)."""
        return P[..., None, :, :] - P[..., :, None, :]

    def _tangent_frames(self, P: np.ndarray) -> None:
        """None: the ambient axes already span every tangent space, so there is nothing
        to rotate."""
        return None

    def _proven_ranks(self) -> dict:
        # d^2 = |p|^2 - 2 p.q + |q|^2 spans {1, coordinates, |p|^2}; the log map
        # p_i - p_j is affine in both points, which caps the ranks of Y and Z
        n = self.n
        return {"sqdist": n + 2, "dot:cos": None, "Y": (n + 1) * (n + 2) // 2, "Z": n * (n + 2)}

    def distance_matrix(self, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
        """Distances of point stacks X (..., r, n) and Y (..., s, n), summed coordinate by
        coordinate into one (..., r, s) array: for n < 8, where numpy's sum over a last axis
        adds in the same order, the bits of ``sqrt(((X_i - Y_j) ** 2).sum(-1))``."""
        n = X.shape[-1]
        if Y.shape[-1] != n:
            raise ValueError(f"points of {n} and {Y.shape[-1]} coordinates have no distance")
        acc = X[..., :, None, 0] - Y[..., None, :, 0]
        acc *= acc
        term = np.empty_like(acc)
        for c in range(1, n):
            np.subtract(X[..., :, None, c], Y[..., None, :, c], out=term)
            term *= term
            acc += term
        return np.sqrt(acc, out=acc if acc.dtype.kind == "f" else None)  # integer points too

    def _draw(self, rng: np.random.Generator, out: np.ndarray) -> None:
        rng.random(out=out)

    def _finish(self, U: np.ndarray) -> None:
        # the bits of rng.uniform(lo, hi, (k, n)), without its per-call argument checks
        lo, hi = self.box
        U *= hi - lo
        U += lo

    def __str__(self):
        return f"euclid:{self.n}"


class UnitSphere(_ManifoldBase):
    """Unit n-sphere in R^{n+1} with the arc-length (geodesic) distance."""

    mean_distance = math.pi / 2  # in every dimension, by the symmetry p -> -p
    _unit_points = True

    @property
    def coord_dim(self) -> int:
        return self.n + 1

    def _proven_ranks(self) -> dict:
        # analytic functions of p.q with infinitely many nonzero series coefficients;
        # the flat S^1 leaves arccos^2 unsettled: on a closed semicircle, which k points
        # occupy with probability k / 2^(k-1) (Wendel 1962), it is a line's, rank <= 3
        full = ("dot:arccos", "dot:cos") + (("sqdist", "dot:arccos2") if self.n > 1 else ())
        return dict.fromkeys(full)

    def pairwise_log(self, P: np.ndarray) -> np.ndarray:
        """Log-map vectors eta[..., j, i, :] at p_j pointing to p_i, for point stacks P (..., k, n+1).

        eta_ji = theta / sin(theta) * (p_i - cos(theta) p_j) with theta = d(p_j, p_i),
        and eta_jj = 0.  Pairs within ANTIPODAL_MARGIN of antipodal raise
        AntipodalPairError, since the log map is undefined at the cut locus.
        """
        G = P @ np.swapaxes(P, -1, -2)
        np.clip(G, -1.0, 1.0, out=G)
        theta = _zero_diagonal(np.arccos(G))
        if theta.max(initial=0.0) > np.pi - ANTIPODAL_MARGIN:
            j, i = np.argwhere(theta > np.pi - ANTIPODAL_MARGIN)[0][-2:]
            raise AntipodalPairError(
                f"points {j} and {i} are antipodal; the log map is undefined there"
            )
        # theta / sin(theta) in sin's buffer, and 1 where sin(theta) = 0, which is at theta = 0
        factor = np.sin(theta)
        np.divide(theta, factor, out=factor, where=factor > 0)
        factor[factor == 0.0] = 1.0
        # one coordinate at a time, in theta's buffer, with the bits of the plain expression
        # factor * (p_i - G_ji p_j) and no (..., k, k, n+1) temporary
        eta = np.empty(G.shape + P.shape[-1:])
        term = theta
        for c in range(P.shape[-1]):
            np.multiply(G, P[..., :, c, None], out=term)
            np.subtract(P[..., None, :, c], term, out=term)
            np.multiply(factor, term, out=eta[..., c])
        i = np.arange(P.shape[-2])
        eta[..., i, i, :] = 0.0
        return eta

    def _tangent_frames(self, P: np.ndarray) -> np.ndarray:
        """Orthogonal frames (..., k, n+1, n+1) of point stacks P (..., k, n+1) whose first n
        columns span the tangent space at each point.

        The frame at p is the Householder reflection H = I - 2 u u^T / (u^T u) with
        u = p + s e_{n+1}, s = sign(p_{n+1}), which takes p to -s e_{n+1}; the sign
        keeps u^T u = 2 (1 + |p_{n+1}|) clear of cancellation.
        """
        u = P.copy()
        u[..., -1] += np.where(P[..., -1] < 0, -1.0, 1.0)
        scale = 2.0 / (u * u).sum(axis=-1)
        return np.eye(self.coord_dim) - scale[..., None, None] * u[..., :, None] * u[..., None, :]

    def distance_matrix(self, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
        # clamp guards floating-point drift of nearly (anti)parallel pairs
        return np.arccos(np.clip(X @ np.swapaxes(Y, -1, -2), -1.0, 1.0))

    def _draw(self, rng: np.random.Generator, out: np.ndarray) -> None:
        rng.standard_normal(out=out)

    def _finish(self, G: np.ndarray) -> None:
        # normalized Gaussians are rotation-invariant, hence uniform
        G /= np.linalg.norm(G, axis=-1, keepdims=True)

    def __str__(self):
        return f"sphere:{self.n}"
