"""Property tests: 17-digit CSV and JSON-lines values read back as the same doubles."""

import json
import math
import struct
from dataclasses import fields

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st  # noqa: E402

from covrank import rows_to_jsonl  # noqa: E402
from covrank.montecarlo import RecoveryTrial, SweepRow, fmt17  # noqa: E402


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
