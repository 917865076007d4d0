"""Distortion profiles kept as integer columns, against the dict oracles.

A profile keeps its ratios as integer columns up to the output: the
distinct r and s values (reduced integer pairs on exact tables), and per
pair the codes, count and witness.  The CSV writer formats each distinct
value once from its integer pair, and the order is one `lexsort` on exact
ranks of the distinct values.  The oracles here are the writer that walks
`sorted(pairs)` through `csv.writer` and `frac_str`, and the order and
envelope checks of `test_quasisym_oracle`, run on int64 kernels near 2^62,
where distinct ratios share one float64 and their reduced pairs pass 2^53.
"""

import csv
import io
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_quasisym_oracle import (
    WIDE_THETAS,
    as_floats,
    assert_order_and_envelope_match,
    drawn_profiles,
    fat_cantor_pair,
    laminar_pairs,
)

from cellspace import MetricTable, distortion_profile, formats


def ref_profile_csv(p) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["r", "s", "count"])
    for r, s in sorted(p.pairs):
        w.writerow([formats.frac_str(r), formats.frac_str(s), p.pairs[(r, s)][0]])
    return buf.getvalue()


def _csv_or_error(write, p):
    try:
        return write(p).encode()
    except OverflowError as e:  # frac_str of an infinite float
        return type(e)


def assert_csv_matches_oracle(p):
    got = _csv_or_error(formats.profile_to_csv, p)
    assert got == _csv_or_error(ref_profile_csv, p)
    got_swapped = _csv_or_error(formats.profile_to_csv, p.swap())
    assert got_swapped == _csv_or_error(ref_profile_csv, p.swap())


@pytest.mark.parametrize("depth", [2, 3, 4, 5])
@pytest.mark.parametrize("kind", ["int64", "wide", "float"])
def test_csv_matches_oracle_on_fat_cantor(depth, kind):
    # prime gap proportions near 10^6 give the line table a Python-int
    # kernel from depth 4 on
    d, dt = fat_cantor_pair(depth, F(1, 2), WIDE_THETAS[:depth] if kind == "wide" else None)
    if kind == "float":
        d, dt = as_floats(d), as_floats(dt)
    assert (d.kernel.dtype == object) == (kind == "wide" and depth >= 4)
    for cap in (512, 1):
        assert_csv_matches_oracle(distortion_profile(d, dt, cap=cap))
        assert_csv_matches_oracle(distortion_profile(dt, d, cap=cap))


@settings(max_examples=60, deadline=None)
@given(laminar_pairs(), st.booleans())
def test_csv_matches_oracle_on_laminar_profiles(pair, floats):
    d, dt = pair
    if floats:
        d, dt = as_floats(d), as_floats(dt)
    assert_csv_matches_oracle(distortion_profile(d, dt))
    assert_csv_matches_oracle(distortion_profile(d, dt, cap=1))


@settings(max_examples=150, deadline=None)
@given(drawn_profiles())
def test_csv_matches_oracle_on_drawn_profiles(p):
    # huge, tiny and near-tie rationals, and floats, up to +inf
    assert_csv_matches_oracle(p)


# -- int64 kernels near 2^62 -------------------------------------------------------


@st.composite
def near_limit_tables(draw):
    """Two int64 tables on one point set whose entries lie just below 2^62,
    plus a few small ones, so that many distinct ratios round to one float
    and their reduced pairs pass 2^53."""
    n = draw(st.integers(2, 6))
    entry = st.one_of(st.integers(2**62 - 2**12, 2**62 - 1), st.integers(1, 9))
    labels = tuple(f"p{i}" for i in range(n))
    tables = []
    for _ in range(2):
        kernel = np.array([[draw(entry) for _ in range(n)] for _ in range(n)], np.int64)
        np.fill_diagonal(kernel, 0)
        tables.append(MetricTable.from_kernel(labels, kernel, 1))
    return tables


@settings(max_examples=100, deadline=None)
@given(near_limit_tables(), st.integers(0, 2))
def test_order_and_envelope_match_sort_past_the_float_key(tables, cap):
    d, dt = tables
    for p in (distortion_profile(d, dt), distortion_profile(d, dt, cap=cap)):
        assert_order_and_envelope_match(p)
        assert_order_and_envelope_match(p.swap())
        assert_csv_matches_oracle(p)


def test_near_limit_ratios_share_a_float_and_sort_exactly():
    big = 2**62
    kernel = np.array([[0, big - 1, big - 2, big - 3], [big - 1, 0, big - 5, big - 7],
                       [big - 2, big - 5, 0, big - 11], [big - 3, big - 7, big - 11, 0]], np.int64)
    d = MetricTable.from_kernel(tuple("abcd"), kernel, 1)
    p = distortion_profile(d, d)
    rs = {r for r, _ in p.pairs}
    assert len({float(r) for r in rs}) < len(rs)  # exact ties in float64
    assert max(r.denominator for r in rs) > 2**53
    assert_order_and_envelope_match(p)
    assert_csv_matches_oracle(p)
