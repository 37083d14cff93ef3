"""Property tests: 17-digit CSV and JSON-lines values read back as the same doubles,
the layout-v1 index formulas of Y, Z and C hold bit for bit on random samples, and
a pair of points gets the same distance and kernel value from every path."""

import json
import math
import struct
from dataclasses import fields

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st  # noqa: E402

from covrank import (  # noqa: E402
    Euclidean,
    Kernel,
    UnitSphere,
    assemble_Y,
    assemble_Z,
    outer_field,
    rows_to_jsonl,
    sigma_field,
    trace_system,
    unfold_C,
)
from covrank.montecarlo import RecoveryTrial, SweepRow, fmt17  # noqa: E402
from covrank.tensor import _Z_of_Y  # noqa: E402


def same_double(a: float, b: float) -> bool:
    """Bit equality, except that every nan matches every nan."""
    if math.isnan(a):
        return math.isnan(b)
    return struct.pack("<d", a) == struct.pack("<d", b)


@given(st.floats())
def test_fmt17_round_trips_every_double(x):
    assert same_double(float(fmt17(x)), x)


sweep_rows = st.builds(
    SweepRow,
    k=st.integers(1, 10**6),
    **{f.name: st.floats() for f in fields(SweepRow) if f.name != "k"},
)
recovery_rows = st.builds(
    RecoveryTrial,
    trial=st.integers(0, 10**6),
    k=st.integers(1, 10**6),
    rel_error=st.floats(),
    residual=st.floats(),
    rank_Y=st.integers(0, 10**6),
    rank_augmented=st.integers(0, 10**6),
    unique=st.booleans(),
)


@given(st.one_of(st.lists(sweep_rows, min_size=1, max_size=5),
                 st.lists(recovery_rows, min_size=1, max_size=5)))
def test_jsonl_float_fields_round_trip(rows):
    # Integral doubles are written with a fraction ("-0.0", "3.0"), so the default
    # reader gives back floats, and -0.0 with its sign.
    lines = rows_to_jsonl(rows).splitlines()
    assert len(lines) == len(rows)
    for row, line in zip(rows, lines):
        parsed = json.loads(line)
        for f in fields(row):
            value = getattr(row, f.name)
            if isinstance(value, float):
                assert isinstance(parsed[f.name], float), f.name
                assert same_double(parsed[f.name], value), f.name
            else:
                assert parsed[f.name] == value, f.name


# --- layout v1 -------------------------------------------------------------


def draw_region(draw, manifold):
    """A random sampling box for Euclidean space; None for the sphere."""
    if not isinstance(manifold, Euclidean):
        return None
    lo = draw(st.floats(-10, 10))
    return (lo, lo + draw(st.floats(0.01, 10)))


@st.composite
def operator_fields(draw):
    """The field of a random sample on euclid:1-3 (in a random box) or sphere:2-3, k >= 1."""
    manifold = draw(st.sampled_from([Euclidean(1), Euclidean(2), Euclidean(3), UnitSphere(2), UnitSphere(3)]))
    region = draw_region(draw, manifold)
    k = draw(st.integers(1, 9))
    return outer_field(manifold, manifold.sample_uniform(k, draw(st.integers(0, 2**32 - 1)), region=region))


def same_bits(a, b) -> bool:
    """Bit equality of two float arrays, so -0.0 and 0.0 differ."""
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


@given(operator_fields())
def test_Y_entries_are_the_block_entries(field):
    # component (l, m) of block (j, i) sits at row (l*d + m)*k + j, column i
    k, d = field.k, field.d
    l, m, j, i = np.indices((d, d, k, k))
    assert same_bits(assemble_Y(field)[(l * d + m) * k + j, i], field.blocks[j, i, l, m])


@given(operator_fields())
def test_Y_mirrored_row_blocks_are_equal(field):
    k, d = field.k, field.d
    Y4 = assemble_Y(field).reshape(d, d, k, k)
    assert same_bits(Y4, np.swapaxes(Y4, 0, 1))


@given(operator_fields())
def test_Z_is_an_index_map_of_Y(field):
    # Z[r*d + a, s*d + b] = Y[(a*d + b)*k + s, r] = blocks[s, r, a, b]
    k, d = field.k, field.d
    Y, Z = assemble_Y(field), assemble_Z(field)
    r, a, s, b = np.indices((k, d, k, d))
    assert same_bits(Z[r * d + a, s * d + b], Y[(a * d + b) * k + s, r])
    assert same_bits(Z[r * d + a, s * d + b], field.blocks[s, r, a, b])


@given(operator_fields())
def test_Z_map_keeps_any_dtype_and_batches(field):
    k, d = field.k, field.d
    labels = np.array([str(x) for x in range(d * d * k * k)], dtype=object).reshape(d * d * k, k)
    r, a, s, b = np.indices((k, d, k, d))
    assert np.array_equal(_Z_of_Y(labels)[r * d + a, s * d + b], labels[(a * d + b) * k + s, r])
    Y = assemble_Y(field)
    stacked = _Z_of_Y(np.stack([Y, -Y]))
    assert same_bits(stacked[0], _Z_of_Y(Y)) and same_bits(stacked[1], _Z_of_Y(-Y))


@given(operator_fields(), st.data())
def test_C_entries_are_the_sigma_entries(field, data):
    # entry (l*d + m)*k + j holds Sigma_j[l, m]
    k, d = field.k, field.d
    f = np.array(data.draw(st.lists(st.floats(0, 1), min_size=k, max_size=k)))
    cov = sigma_field(field, f)
    l, m, j = np.indices((d, d, k))
    assert same_bits(unfold_C(cov)[(l * d + m) * k + j], cov.sigmas[j, l, m])


@given(operator_fields())
def test_psi_is_the_block_trace(field):
    assert same_bits(trace_system(field)[0], np.trace(field.blocks, axis1=2, axis2=3))


# --- one pair, one distance -------------------------------------------------


@st.composite
def paired_points(draw):
    """Row-paired point arrays X, Y (T, coord_dim) on euclid:1-3 (in a random box) or sphere:1-3."""
    manifold = draw(st.sampled_from([Euclidean(1), Euclidean(2), Euclidean(3),
                                     UnitSphere(1), UnitSphere(2), UnitSphere(3)]))
    region = draw_region(draw, manifold)
    T = draw(st.integers(1, 40))
    points = manifold.sample_uniform(2 * T, draw(st.integers(0, 2**32 - 1)), region=region).points
    return manifold, points[:T], points[T:]


@given(paired_points())
def test_paired_distance_is_the_pair_distance(pairs):
    manifold, X, Y = pairs
    paired = manifold.paired_distance(X, Y)
    for t in range(len(X)):
        assert same_double(paired[t], manifold.distance(X[t], Y[t])), t


@given(paired_points(), st.floats(0, 4))
def test_kernel_value_is_the_batched_value(pairs, alpha):
    # the array formula of Kernel.pairwise; a Python-float ** 2 may round differently
    manifold, X, Y = pairs
    for kernel in (Kernel(manifold, "sqdist"), Kernel(manifold, "shifted", alpha=alpha)):
        expected = (manifold.paired_distance(X, Y) - kernel.alpha) ** 2
        for t in range(len(X)):
            assert same_double(kernel.evaluate(X[t], Y[t]), expected[t]), (str(kernel), t)
