"""Kernel families on the model spaces and their theoretical rank classes.

Three families are supported, written in the CLI grammar used throughout:

* ``sqdist``          -- squared distance d(p, q)^2
* ``shifted:<alpha>`` -- shifted squared distance (d(p, q) - alpha)^2
* ``dot:arccos`` / ``dot:arccos2`` / ``dot:cos`` -- analytic functions of
  the ambient dot product p.q

``shifted:0`` evaluates identically to ``sqdist``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .manifold import Euclidean, UnitSphere

__all__ = [
    "Kernel",
    "RankClass",
    "UnclassifiedKernelError",
    "parse_kernel",
    "arccos_taylor_coeffs",
    "arccos_taylor_eval",
    "theoretical_rank",
]

_DOT_VARIANTS = ("arccos", "arccos2", "cos")
FAMILIES = ("sqdist", "shifted") + tuple(f"dot:{h}" for h in _DOT_VARIANTS)


class UnclassifiedKernelError(ValueError):
    """Raised when the rank oracle is asked about a kernel it cannot settle.

    The oracle backs tests, so refusing beats silently guessing.
    """


@dataclass(frozen=True)
class Kernel:
    """One member of the supported kernel families on a fixed manifold."""

    manifold: Euclidean | UnitSphere
    family: str
    alpha: float = 0.0

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown kernel family {self.family!r}; expected one of {FAMILIES}")
        if not math.isfinite(self.alpha):
            raise ValueError(f"kernel shift alpha must be finite, got {self.alpha!r}")
        if self.alpha < 0:
            raise ValueError("alpha must be non-negative")
        if self.alpha != 0.0 and self.family != "shifted":
            raise ValueError("alpha only applies to the shifted family")

    def evaluate(self, p, q) -> float:
        """Kernel value at a single pair of points, with the bits of ``pairwise`` there."""
        p, q = self.manifold._check_pair(p, q)
        return float(self.pairwise(p[None], q[None])[0, 0])

    def pairwise(self, X: np.ndarray, Y: np.ndarray | None = None) -> np.ndarray:
        """Values k(x_r, y_s) for point stacks X (..., r, c) and Y (..., s, c), batched
        over leading axes.  Y = None pairs X with itself, where d(p, p) = 0 exactly."""
        if self.family in ("sqdist", "shifted"):
            m = self.manifold
            d = m.pairwise_distance(X) if Y is None else m.distance_matrix(X, Y)
            d -= self.alpha
            d *= d
            return d
        return self._apply_dot(X @ np.swapaxes(X if Y is None else Y, -1, -2))

    def _apply_dot(self, g):
        h = self.family.split(":", 1)[1]
        if h == "cos":
            return np.cos(g)
        a = np.arccos(np.clip(g, -1.0, 1.0))
        return a * a if h == "arccos2" else a

    def __str__(self):
        if self.family == "shifted":
            return f"shifted:{self.alpha:.17g}"
        return self.family


def parse_kernel(text: str, manifold: Euclidean | UnitSphere) -> Kernel:
    """Parse the CLI kernel grammar: sqdist | shifted:<alpha> | dot:{arccos,arccos2,cos}."""
    if text == "sqdist":
        return Kernel(manifold, "sqdist")
    if text.startswith("shifted:"):
        try:
            alpha = float(text.split(":", 1)[1])
        except ValueError:
            raise ValueError(f"bad shift value in kernel spec {text!r}") from None
        return Kernel(manifold, "shifted", alpha=alpha)
    if text in FAMILIES:
        return Kernel(manifold, text)
    raise ValueError(f"unknown kernel spec {text!r}")


def arccos_taylor_coeffs(order: int) -> np.ndarray:
    """Maclaurin coefficients c_0..c_order of arccos(z).

    c_0 = pi/2, c_{2m+1} = -(2m)! / (2^{2m} (m!)^2 (2m+1)), even coefficients
    beyond c_0 vanish.  The central factor a_m = (2m)!/(2^{2m}(m!)^2) is built
    by the ratio recurrence a_{m+1} = a_m (2m+1)/(2m+2), which stays finite
    where raw factorials overflow (m around 85).
    """
    if order < 0:
        raise ValueError("order must be non-negative")
    coeffs = np.zeros(order + 1)
    coeffs[0] = math.pi / 2
    a = 1.0
    m = 0
    while 2 * m + 1 <= order:
        coeffs[2 * m + 1] = -a / (2 * m + 1)
        a *= (2 * m + 1) / (2 * m + 2)
        m += 1
    return coeffs


def arccos_taylor_eval(z, order: int):
    """Partial sum of the arccos series at z (elementwise)."""
    coeffs = arccos_taylor_coeffs(order)
    return np.polyval(coeffs[::-1], np.asarray(z, dtype=float))


@dataclass(frozen=True)
class RankClass:
    """Either a finite kernel rank or full rank almost everywhere (rank None)."""

    rank: int | None

    @property
    def finite(self) -> bool:
        return self.rank is not None

    def __str__(self):
        return f"finite:{self.rank}" if self.finite else "full-rank-a.e."

    @classmethod
    def finite_rank(cls, rank: int) -> "RankClass":
        if rank < 1:
            raise ValueError("finite rank must be positive")
        return cls(rank=rank)

    @classmethod
    def full_rank_ae(cls) -> "RankClass":
        return cls(rank=None)


def theoretical_rank(kernel: Kernel) -> RankClass:
    """Rank classification of the kernel as a bivariate function.

    Settled cases: squared Euclidean distance has finite rank n + 2 (its
    global expansion spans {1, coordinates, squared norm}); squared or plain
    geodesic distance on the sphere, and cos(p.q) anywhere, are full rank
    almost everywhere (analytic dot-product kernels with infinitely many
    non-zero series coefficients).  Everything else raises
    UnclassifiedKernelError.
    """
    m = kernel.manifold
    family = kernel.family
    if family == "shifted" and kernel.alpha == 0.0:
        family = "sqdist"
    if family == "sqdist":
        if isinstance(m, Euclidean):
            return RankClass.finite_rank(m.n + 2)
        return RankClass.full_rank_ae()
    if family == "dot:cos":
        return RankClass.full_rank_ae()
    if family in ("dot:arccos", "dot:arccos2") and isinstance(m, UnitSphere):
        return RankClass.full_rank_ae()
    raise UnclassifiedKernelError(f"no rank classification for {kernel} on {m}")
