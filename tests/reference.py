"""Reference computations for tests to compare against: formulas that share no code
with covrank; the report of one factorization, which covrank's verdict rule
(eigensolve, then SVD where it flags) is checked against; and the settled spectra of
the reduced Y and Z, which their certified verdicts are checked against.  The
helpers of stacks return their spectra or their verdicts (``numrank._verdicts``);
``spectrum_report`` makes one matrix's RankReport of both, and ``rank_report`` that
of one matrix measured by the verdict rule."""

import math
from typing import NamedTuple

import numpy as np

from covrank import DEFAULT_TOLERANCE
from covrank.numrank import _spectra, _validated, _verdicts
from covrank.tensor import _frame_coordinates, _reduced_stacks, _system_shape


def euclidean_distances(X, Y):
    """Distances of point stacks X (..., r, n) and Y (..., s, n) through one (..., r, s, n)
    difference tensor, summed over its last axis."""
    diff = X[..., :, None, :] - Y[..., None, :, :]
    return np.sqrt((diff * diff).sum(axis=-1))


def sphere_log(P):
    """Sphere log vectors eta[..., j, i, :] = theta / sin(theta) (p_i - cos(theta) p_j) of
    point stacks P (..., k, n+1), each step one whole-array expression: cos(theta) the
    clipped p_j . p_i, theta / sin(theta) taken as 1 where sin(theta) is 0, and zero
    diagonals."""
    G = np.clip(P @ np.swapaxes(P, -1, -2), -1.0, 1.0)
    theta = np.arccos(G)
    i = np.arange(P.shape[-2])
    theta[..., i, i] = 0.0
    sin = np.sin(theta)
    factor = np.divide(theta, sin, out=np.ones_like(theta), where=sin > 0)
    eta = factor[..., None] * (P[..., None, :, :] - G[..., None] * P[..., :, None, :])
    eta[..., i, i, :] = 0.0
    return eta


def dropped_norms(V, dims, weight):
    """sqrt(sum |v_N|^2 (weight |v_T|^2 + |v_N|^2)) over the log vectors v = (v_T, v_N) of
    V (T, k, k, d), split at dims, each squared norm summed over its coordinates in order."""
    tangent = sum(V[..., a] * V[..., a] for a in range(dims))
    normal = sum(V[..., a] * V[..., a] for a in range(dims, V.shape[-1]))
    return np.sqrt((normal * (weight * tangent + normal)).sum(axis=(-2, -1)))


def factorization_spectra(a, symmetric=False):
    """The singular values (T, min(m, n)) of one stacked factorization of a (T, m, n), with
    no ladder: its SVD's or, with symmetric=True, the sorted |eigenvalues| of its
    symmetric eigensolve, which reads only the lower triangle."""
    if symmetric:
        return -np.sort(-np.abs(np.linalg.eigvalsh(a)), axis=1)
    return np.linalg.svd(a, compute_uv=False)


def factorization_report(a, policy, symmetric=False):
    """The verdicts (``numrank._verdicts``) of factorization_spectra."""
    return _verdicts(factorization_spectra(a, symmetric), policy, a.shape[1:])


class RankReport(NamedTuple):
    """Singular values of one matrix and the verdicts drawn from them."""

    singular_values: np.ndarray
    numerical_rank: int
    tolerance_used: float
    borderline: bool

    @property
    def spectral_ratio(self):
        """Raw sigma_1 / sigma_min, ignoring the tolerance policy: inf where sigma_min is 0."""
        s = self.singular_values
        return math.inf if s[-1] == 0.0 else float(s[0]) / float(s[-1])


def spectrum_report(s, policy, shape):
    """The RankReport of one matrix of the given shape whose singular values are s (r,),
    descending: row 0 of the verdicts (``numrank._verdicts``) of a stack of it alone."""
    rank, tolerance, borderline = _verdicts(s[None], policy, shape)
    return RankReport(s, int(rank[0]), float(tolerance[0]), bool(borderline[0]))


def rank_report(matrix, policy=DEFAULT_TOLERANCE):
    """The RankReport of one matrix by covrank's verdict rule: its settled spectrum, row 0
    of those (``numrank._spectra``) of a stack of it alone, and that spectrum's verdicts."""
    a = _validated(matrix)
    return spectrum_report(_spectra(a[None], policy)[0], policy, a.shape)


def system_spectra(manifold, P, eta, policy, system):
    """The settled singular values (T, width) of layout-v1 Y or Z (system) of point stacks
    P (T, k, d) with log vectors eta = manifold.pairwise_log(P), measured on covrank's
    orthogonally equivalent reductions (``tensor._reduced_stacks``) with no certificate,
    but thresholded for the full shapes (``tensor._system_shape``).  Z's dropped singular
    values are reported as their exact value 0."""
    rows, width = _system_shape(manifold, P.shape[1], system)
    V, _ = _frame_coordinates(manifold, P, eta)
    s = np.zeros((len(P), width))
    for trials, a in _reduced_stacks(manifold, V, eta, policy, system):
        s[trials, :a.shape[2]] = _spectra(a, policy, rows)
    return s


def system_report(manifold, P, eta, policy, system):
    """The verdicts (``numrank._verdicts``) of system_spectra, thresholded for the full shape."""
    spectra = system_spectra(manifold, P, eta, policy, system)
    return _verdicts(spectra, policy, _system_shape(manifold, P.shape[1], system))
