"""Reference computations for tests to compare against: formulas that share no code
with covrank; the report of one factorization, which covrank's verdict rule
(eigensolve, then SVD where it flags) is checked against; and the settled spectra of
the reduced Y and Z, which their certified verdicts are checked against.  The
helpers of stacks return their spectra or their verdicts (``numrank._verdicts``);
``spectrum_report`` makes one matrix's RankReport of both."""

import numpy as np

from covrank import RankReport
from covrank.numrank import _spectra, _verdicts
from covrank.tensor import _frame_coordinates, _reduced_stacks, _system_shape


def euclidean_distances(X, Y):
    """Distances of point stacks X (..., r, n) and Y (..., s, n) through one (..., r, s, n)
    difference tensor, summed over its last axis."""
    diff = X[..., :, None, :] - Y[..., None, :, :]
    return np.sqrt((diff * diff).sum(axis=-1))


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


def spectrum_report(s, policy, shape):
    """The RankReport of one matrix of the given shape whose singular values are s (r,),
    descending: row 0 of the verdicts (``numrank._verdicts``) of a stack of it alone."""
    rank, tolerance, borderline = _verdicts(s[None], policy, shape)
    return RankReport(s, int(rank[0]), float(tolerance[0]), bool(borderline[0]))


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
