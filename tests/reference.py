"""Reference formulas that share no code with covrank, for tests to compare against."""

import numpy as np


def euclidean_distances(X, Y):
    """Distances of point stacks X (..., r, n) and Y (..., s, n) through one (..., r, s, n)
    difference tensor, summed over its last axis."""
    diff = X[..., :, None, :] - Y[..., None, :, :]
    return np.sqrt((diff * diff).sum(axis=-1))
