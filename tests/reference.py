"""Reference computations for tests to compare against: formulas that share no code
with covrank, and the report of one factorization, which covrank's verdict rule
(eigensolve, then SVD where it flags) is checked against."""

import numpy as np

from covrank.numrank import _verdicts


def euclidean_distances(X, Y):
    """Distances of point stacks X (..., r, n) and Y (..., s, n) through one (..., r, s, n)
    difference tensor, summed over its last axis."""
    diff = X[..., :, None, :] - Y[..., None, :, :]
    return np.sqrt((diff * diff).sum(axis=-1))


def factorization_report(a, policy, symmetric=False):
    """The verdicts (``numrank._verdicts``) of one stacked factorization of a (T, m, n),
    with no ladder: its SVD's singular values or, with symmetric=True, the sorted
    |eigenvalues| of its symmetric eigensolve, which reads only the lower triangle."""
    if symmetric:
        s = -np.sort(-np.abs(np.linalg.eigvalsh(a)), axis=1)
    else:
        s = np.linalg.svd(a, compute_uv=False)
    return _verdicts(s, policy, a.shape[1:])
