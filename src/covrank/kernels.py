"""Kernel families on the model spaces and their theoretical ranks.

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

from .manifold import _ManifoldBase, _zero_diagonal

__all__ = [
    "Kernel",
    "UnclassifiedKernelError",
    "parse_kernel",
    "arccos_taylor_coeffs",
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

    manifold: _ManifoldBase
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

    def pairwise(self, P: np.ndarray) -> np.ndarray:
        """Kernel matrices k(p_r, p_s) of point stacks P (..., k, c), batched over leading
        axes, where d(p, p) = 0 exactly, and so is arccos(p.p) on unit points, which
        spares the round-off of p.p just below 1; a single pair is a two-point stack."""
        if self.family in ("sqdist", "shifted"):
            d = self.manifold.pairwise_distance(P)
            if self.alpha:  # d - 0.0 has the bits of d
                d -= self.alpha
            d *= d
            return d
        g = P @ np.swapaxes(P, -1, -2)
        if self.family == "dot:cos":
            return np.cos(g)
        a = np.arccos(np.clip(g, -1.0, 1.0))
        if self.manifold._unit_points:
            _zero_diagonal(a)
        return a * a if self.family == "dot:arccos2" else a

    def __str__(self):
        if self.family == "shifted":
            return f"shifted:{self.alpha:.17g}"
        return self.family


def parse_kernel(text: str, manifold: _ManifoldBase) -> Kernel:
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


def _law(manifold: _ManifoldBase, system: Kernel | str) -> tuple[int | None, int | None, int]:
    """The rank law a space proves for a kernel on it or for its system "Y" or "Z", the one
    reader of ``manifold._proven_ranks()``: (bound, c, own), with shifted:0 counted as sqdist.

    bound is the declared rank, an int, or None for full rank almost everywhere.  Each point
    adds at most c to the rank: 1 for a kernel and Y, and n for Z, whose column block s stacks
    eta_sr eta_sr^T over r != s and so lies in span{eta_sr}; c is None where the space proves
    no law.  own is 1 where a point's own entries vanish, as in Y, Z, sqdist, and dot:arccos
    and dot:arccos2 on unit points (arccos(p.p) = 0), which then draw on the other k - 1
    points alone.  The expected rank at k is min(bound, k min(c, k - own)).
    """
    if isinstance(system, Kernel):
        name = "sqdist" if system.family == "shifted" and not system.alpha else system.family
        c, own = 1, name == "sqdist" or (name.startswith("dot:arccos") and manifold._unit_points)
    else:
        name, c, own = system, 1 if system == "Y" else manifold.n, True
    ranks = manifold._proven_ranks()
    return ranks.get(name), c if name in ranks else None, int(own)


def theoretical_rank(kernel: Kernel) -> int | None:
    """Rank of the kernel as a bivariate function: the proven rank its space declares
    (``_law``), an int, or None for full rank almost everywhere.  A kernel its space
    does not settle raises UnclassifiedKernelError."""
    bound, c, _ = _law(kernel.manifold, kernel)
    if c is None:
        raise UnclassifiedKernelError(f"no rank classification for {kernel} on {kernel.manifold}")
    return bound
