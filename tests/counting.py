"""Counters of numpy.linalg calls, for tests that pin which factorizations a path makes."""

import numpy as np

from covrank import numrank


def counted_svds(monkeypatch):
    """The (input, compute_uv) of every np.linalg.svd call made from now on."""
    calls = []
    svd = np.linalg.svd

    def counted(a, *args, **kwargs):
        calls.append((np.array(a), kwargs.get("compute_uv", True)))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    return calls


def counted_inverses(monkeypatch):
    """The input of every np.linalg.inv call made from now on."""
    calls = []
    inv = np.linalg.inv

    def counted(a):
        calls.append(np.array(a))
        return inv(a)

    monkeypatch.setattr(np.linalg, "inv", counted)
    return calls


def counted_solves(monkeypatch):
    """The input of every np.linalg.solve call made from now on."""
    calls = []
    solve = np.linalg.solve

    def counted(a, b):
        calls.append(np.array(a))
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", counted)
    return calls


def counted_qrs(monkeypatch):
    """The input of every np.linalg.qr call made from now on."""
    calls = []
    qr = np.linalg.qr

    def counted(a, *args, **kwargs):
        calls.append(np.array(a))
        return qr(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "qr", counted)
    return calls


def assert_leaf_inverses(inverses, RA):
    """The inputs of np.linalg.inv are diagonal blocks of the triangles RA (T, n, n), each
    at most numrank._LEAF wide, that cover the diagonal once, in order."""
    start = 0
    for a in inverses:
        width = a.shape[-1]
        assert 1 <= width <= numrank._LEAF
        assert np.array_equal(a, RA[:, start:start + width, start:start + width])
        start += width
    assert start == RA.shape[-1]
