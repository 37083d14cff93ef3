"""Property tests: 17-digit CSV and JSON-lines values read back as the same doubles,
a matrix row spelled by one template has the bytes fmt17 gives value by value, the
layout-v1 index formulas of Y, Z and C hold bit for bit on random samples, the
reduced recovery system keeps the singular values and rank verdicts of [Y | c],
a pair of points gets the same distance and kernel value from every path, and
Euclidean distances have the bits of a reference that shares no code with them."""

import json
import math
import struct
from dataclasses import fields

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, strategies as st  # noqa: E402
from hypothesis.extra import numpy as hnp  # noqa: E402

from covrank import (  # noqa: E402
    CovField,
    Euclidean,
    Kernel,
    Tolerance,
    UnitSphere,
    assemble_Y,
    assemble_Z,
    outer_field,
    rank_report,
    rng_stream,
    rows_to_jsonl,
    sigma_field,
    trace_system,
    unfold_C,
)
from covrank.cli import _spelled_lines  # noqa: E402
from covrank.cli import _csv, _spell  # noqa: E402
from covrank.montecarlo import RecoveryTrial, SweepRow, fmt17  # noqa: E402
from covrank.numrank import _solve_augmented  # noqa: E402
from covrank.tensor import _frame_coordinates, _recovery_systems, _Z_of_Y  # noqa: E402
from reference import euclidean_distances  # noqa: E402


def same_double(a: float, b: float) -> bool:
    """Bit equality, except that every nan matches every nan."""
    if math.isnan(a):
        return math.isnan(b)
    return struct.pack("<d", a) == struct.pack("<d", b)


@given(st.floats())
def test_fmt17_round_trips_every_double(x):
    assert same_double(float(fmt17(x)), x)


@given(st.lists(st.floats(), min_size=1, max_size=8))
@example([math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, 2.2250738585072009e-308, 1.7976931348623157e308])
def test_row_template_spells_as_fmt17(row):
    assert _spelled_lines(np.array([row]))[0] == ",".join(map(fmt17, row)) + "\n"


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
    borderline=st.booleans(),
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


def draw_space(draw, spaces):
    """One of spaces; a Euclidean one is drawn with a random sampling box."""
    manifold = draw(st.sampled_from(spaces))
    if not isinstance(manifold, Euclidean):
        return manifold
    lo = draw(st.floats(-10, 10))
    return Euclidean(manifold.n, box=(lo, lo + draw(st.floats(0.01, 10))))


@st.composite
def operator_fields(draw):
    """The field of a random sample on euclid:1-3 (in a random box) or sphere:2-3, k >= 1."""
    manifold = draw_space(draw, [Euclidean(1), Euclidean(2), Euclidean(3), UnitSphere(2), UnitSphere(3)])
    k = draw(st.integers(1, 9))
    return outer_field(manifold, manifold.sample_uniform(k, draw(st.integers(0, 2**32 - 1))))


def _blocks(field):
    """The (k, k, d, d) rank-one blocks eta_ji eta_ji^T of a field."""
    return np.einsum("jia,jib->jiab", field.eta, field.eta)


def same_bits(a, b) -> bool:
    """Bit equality of two float arrays, so -0.0 and 0.0 differ."""
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


@given(operator_fields())
def test_Y_entries_are_the_block_entries(field):
    # component (l, m) of block (j, i) sits at row (l*d + m)*k + j, column i
    k, d = field.k, field.d
    l, m, j, i = np.indices((d, d, k, k))
    assert same_bits(assemble_Y(field)[(l * d + m) * k + j, i], _blocks(field)[j, i, l, m])


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
    assert same_bits(Z[r * d + a, s * d + b], _blocks(field)[s, r, a, b])


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
    assert same_bits(trace_system(field)[0], np.trace(_blocks(field), axis1=2, axis2=3))


# --- the reduced recovery system ---------------------------------------------


@st.composite
def recovery_systems(draw):
    """The field of a random sample on euclid:1-3 (in a random box) or sphere:1-3, k >= 1,
    and Sigma stacks: its forward covariance field, or that field plus a random matrix
    per point, which has antisymmetric and, on the sphere, normal parts."""
    manifold = draw_space(draw, [Euclidean(1), Euclidean(2), Euclidean(3),
                                 UnitSphere(1), UnitSphere(2), UnitSphere(3)])
    k = draw(st.integers(1, 9))
    seed = draw(st.integers(0, 2**32 - 1))
    field = outer_field(manifold, manifold.sample_uniform(k, seed))
    rng = rng_stream(seed, 1)
    sigmas = sigma_field(field, rng.random(k)).sigmas
    if draw(st.booleans()):
        sigmas = sigmas + rng.standard_normal(sigmas.shape)
    return field, sigmas


@given(recovery_systems())
def test_reduced_system_keeps_the_singular_values_and_ranks_of_Y_c(system):
    field, sigmas = system
    k, d = field.k, field.d
    Y = assemble_Y(field)
    full = np.column_stack([Y, unfold_C(CovField(sigmas=sigmas))])
    V, S = _frame_coordinates(field.manifold, field.sample.points[None], field.eta[None], sigmas[None])
    [(_, reduced)] = _recovery_systems(field.manifold, V, S, Tolerance())
    s_full, s_reduced = (np.linalg.svd(a, compute_uv=False) for a in (full, reduced[0]))
    # on euclid:1 [Y | c] has k rows, and the reduced system's extra singular value is 0
    s_full = np.pad(s_full, (0, k + 1 - len(s_full)))
    assert np.max(np.abs(s_reduced - s_full), initial=0.0) <= 1e-12 * s_full[0]
    # the solve thresholds the reduced system for the unreduced shapes and, away from
    # the borderline band, decides the ranks of Y and [Y | c] as they do
    solution = _solve_augmented(reduced, Tolerance(), d * d * k)
    for report, rank in ((rank_report(Y), solution.rank[0]), (rank_report(full), solution.rank_augmented[0])):
        if not report.borderline:
            assert rank == report.numerical_rank


# --- one pair, one distance -------------------------------------------------


@st.composite
def paired_points(draw):
    """Row-paired point arrays X, Y (T, coord_dim) on euclid:1-3 (in a random box) or sphere:1-3."""
    manifold = draw_space(draw, [Euclidean(1), Euclidean(2), Euclidean(3),
                                 UnitSphere(1), UnitSphere(2), UnitSphere(3)])
    T = draw(st.integers(1, 40))
    points = manifold.sample_uniform(2 * T, draw(st.integers(0, 2**32 - 1))).points
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


@st.composite
def euclidean_stacks(draw):
    """Point stacks X (..., r, n) and Y (..., s, n), n = 1..7, with the same leading axes,
    drawn from a box whose side runs from 1e-8 to 1e8 and whose corner may sit far off."""
    n, r, s = draw(st.integers(1, 7)), draw(st.integers(1, 30)), draw(st.integers(1, 30))
    lead = tuple(draw(st.lists(st.integers(1, 3), max_size=2)))
    side = 10.0 ** draw(st.integers(-8, 8))
    lo = side * draw(st.floats(-1e3, 1e3))
    rng = rng_stream(draw(st.integers(0, 2**32 - 1)))
    return rng.uniform(lo, lo + side, lead + (r, n)), rng.uniform(lo, lo + side, lead + (s, n))


@given(euclidean_stacks())
def test_euclidean_distances_have_the_reference_bits(stacks):
    # below 8 terms numpy's sum over the last axis adds in order, as distance_matrix does
    X, Y = stacks
    space = Euclidean(X.shape[-1])
    for got, expected in ((space.distance_matrix(X, Y), euclidean_distances(X, Y)),
                          (space.distance_matrix(X, X), euclidean_distances(X, X))):
        assert got.shape == expected.shape and got.tobytes() == expected.tobytes()


# --- the matrix speller: adversarial corpora --------------------------------


def percent_spelled(matrix: np.ndarray) -> bytes:
    """A matrix's CSV text with each value spelled on its own by "%.17g": the reference."""
    return "".join(",".join("%.17g" % v for v in row) + "\n" for row in matrix.tolist()).encode()


def adversarial_corpus(name: str) -> np.ndarray:
    rng = np.random.default_rng(15)
    if name == "ties":
        # n + 1/4 and n + 3/4 are exact, and their 17th digit is followed by exactly 5
        n = np.concatenate([[2.0**50, 2.0**51 - 1], rng.integers(2**50, 2**51, 20000)]).astype(float)
        return np.concatenate([n + 0.25, n + 0.75])
    if name == "powers-of-ten":
        p = np.array([float(f"1e{e}") for e in range(-307, 309)])
        return np.concatenate([p, np.nextafter(p, 0.0), np.nextafter(p, np.inf)])
    if name == "powers-of-two":
        return np.ldexp(1.0, np.arange(-1074, 1024))
    if name == "special":
        subnormal = rng.integers(1, 2**52, 1000, dtype=np.uint64).view(np.float64)
        limits = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324, 2.2250738585072009e-308,
                  2.2250738585072014e-308, np.finfo(float).max]
        return np.concatenate([limits, subnormal, -np.asarray(limits), -subnormal])
    assert name == "random-bits"
    return rng.integers(0, 2**64, 10**5, dtype=np.uint64).view(np.float64)


@pytest.mark.parametrize("name", ["ties", "powers-of-ten", "powers-of-two", "special", "random-bits"])
def test_speller_spells_adversarial_corpora_as_percent(name):
    matrix = adversarial_corpus(name).reshape(-1, 1)
    assert _csv(_spell(matrix)) == percent_spelled(matrix)


@given(hnp.arrays(np.float64, st.tuples(st.integers(1, 8), st.integers(1, 40))))
def test_speller_spells_matrices_as_percent(matrix):
    assert _csv(_spell(matrix)) == percent_spelled(matrix)
