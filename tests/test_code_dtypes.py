"""Kernel codes in the narrowest unsigned dtype, against the same tables with intp codes.

`MetricTable.kernel_codes` and `ultrametric_from_weight` keep their codes
as uint8 up to 256 keys, uint16 up to 65,536 and uint32 beyond, and every
reader upcasts them before any arithmetic: under NumPy 2 a uint8 array
times a Python int stays uint8 and wraps, or raises when the int does not
fit.  The tables sit on both sides of each boundary:

- weight-built trees with 256 and 257 keys, of 255 and 256 internal cells
  of distinct heights on near-balanced binary trees (a short row of
  distinct values per point, so exact profiles stay small);
- line metrics with 65,536 and 65,537 keys, on about 400 integer points.

Each comes as an int64 table, a Python-int table and a float table.  The
oracle of a table is the same table with its codes widened to intp, the
dtype `np.unique` returns: `_ratio_codes`, `_exact_triples`,
`_sampled_triples`, `_count_triples`, `_value_bins`, `BallScanner`,
`_line_doubling`, `critical_radii` and `_strips_hold` must answer the
same on both.  One more test pins the memory of the weight-built path:
the code fill (`metrics._tree_codes`) writes each strip in place, and
`_value_bins` counts codes in row blocks, so neither makes a temporary the
size of the code matrix.
"""

import random
import tracemalloc
from fractions import Fraction as F
from functools import cache

import numpy as np
import pytest

from cellspace import (
    MetricTable,
    ProductSpec,
    RootedTree,
    WeightFn,
    cells_of,
    critical_radii,
    distortion_profile,
    product_space,
    ultrametric_from_weight,
    weight_from_sequence,
)
from cellspace import analysis, metrics, quasisym
from cellspace.analysis import _line_doubling

BIG = 2**70  # a scale that forces Python-int kernels
KINDS = ("int64", "python-int", "float")
TREE_KEYS = (256, 257)
LINE_KEYS = (65536, 65537)


def code_dtype(n_keys: int):
    return np.uint8 if n_keys <= 256 else np.uint16 if n_keys <= 65536 else np.uint32


def split_tree(n: int):
    """A binary tree of n leaves "0", ..., "n-1", halving each run."""
    def node(lo, hi):
        if hi - lo == 1:
            return RootedTree(str(lo))
        mid = (lo + hi) // 2
        return RootedTree(children=[node(lo, mid), node(mid, hi)])

    return cells_of(node(0, n))


def line_points(n_keys: int) -> list[int]:
    """About 400 integer points on a line whose table has exactly `n_keys`
    distinct entries, 0 among them: the run 0, ..., a - 1, the point a + g
    and m points far out in generic position.  The distances are 1..a - 1
    in the run, a..a + g from a + g to the run, the interval b - a + 1..b
    and b - a - g from each far point b, and the C(m, 2) gaps between far
    points: a - 1 + (g + 1) + m (a + 1) + C(m, 2) positive values."""
    m = 229

    def count(a):  # the positive values at g = 0
        return a + m * (a + 1) + m * (m - 1) // 2

    a = next(a for a in range(2, 400) if 0 <= n_keys - 1 - count(a) < a)
    g = n_keys - 1 - count(a)
    far = random.Random(n_keys).sample(range(2**30, 2**40), m)
    return list(range(a)) + [a + g] + far


@cache
def tree_case(n_keys: int, kind: str):
    tree = split_tree(n_keys)  # n_keys - 1 internal cells, and the leaves at 0
    scale = BIG if kind == "python-int" else 1
    w = WeightFn(tree, tuple(F(0) if tree.is_leaf(c) else F((tree.n_cells - c) * scale) for c in tree.cells()))
    table = ultrametric_from_weight(tree, w)
    if kind == "float":
        table = MetricTable.from_kernel(table.labels, table.kernel.astype(float), None)
    return tree, table


@cache
def line_case(n_keys: int, kind: str) -> tuple[MetricTable, np.ndarray]:
    pts = line_points(n_keys)
    pos = np.array([p * BIG for p in pts], dtype=object) if kind == "python-int" else np.array(pts)
    kernel = abs(pos[:, None] - pos[None, :])
    labels = tuple(f"p{i}" for i in range(len(pts)))
    table = MetricTable.from_kernel(labels, kernel.astype(float), None) if kind == "float" else (
        MetricTable.from_kernel(labels, kernel, 1)
    )
    return table, np.argsort(pts, kind="stable")


def widened(table: MetricTable) -> MetricTable:
    """The same table with its kernel codes as intp, read-only."""
    keys, codes = table.kernel_codes()
    wide = MetricTable.__new__(MetricTable)
    keep = ("labels", "exact", "tol", "den", "_kernel_den", "_built")
    wide.__dict__.update((k, v) for k, v in table.__dict__.items() if k in keep)
    codes = codes.astype(np.intp)
    codes.flags.writeable = False
    wide.__dict__["_kernel_codes"] = (keys, codes)
    return wide


def values_of(vals: quasisym._Values) -> list:
    return [vals[i] for i in range(len(vals.num))]


def profile_facts(p) -> tuple:
    return list(p.pairs.items()), p.n_triples, p.sampled


def same_arrays(got, want) -> bool:
    return all(g.dtype == w.dtype and np.array_equal(g, w) for g, w in zip(got, want, strict=True))


# -- the dtype rule ------------------------------------------------------------------


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("n_keys", TREE_KEYS + LINE_KEYS)
def test_codes_take_the_narrowest_unsigned_dtype(n_keys, kind):
    table = tree_case(n_keys, kind)[1] if n_keys in TREE_KEYS else line_case(n_keys, kind)[0]
    keys, codes = table.kernel_codes()
    assert len(keys) == n_keys and codes.dtype == code_dtype(n_keys) and not codes.flags.writeable
    assert table.kernel.dtype == (object if kind == "python-int" else float if kind == "float" else np.int64)
    if "_built" in table.__dict__:  # the same codes as np.unique's on the gathered kernel
        plain = MetricTable.from_kernel(table.labels, table.kernel.copy(), table.den)
        assert same_arrays(plain.kernel_codes(), (keys, codes))


def test_an_empty_or_one_point_table_takes_uint8_codes():
    for n in (0, 1):
        table = MetricTable.from_kernel(tuple(map(str, range(n))), np.zeros((n, n), np.int64), 1)
        assert table.kernel_codes()[1].dtype == np.uint8
    tree = cells_of(RootedTree("a"))
    assert ultrametric_from_weight(tree, WeightFn(tree, (F(0),))).kernel_codes()[1].dtype == np.uint8


# -- profile readers -----------------------------------------------------------------


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("n_keys", TREE_KEYS)
def test_tree_profiles_match_intp_codes(n_keys, kind):
    d, dt = tree_case(n_keys, kind)[1], tree_case(n_keys, "int64")[1]
    wd, wdt = widened(d), widened(dt)
    got, want = quasisym._exact_triples(d, dt), quasisym._exact_triples(wd, wdt)
    assert same_arrays(got, want)
    exact = profile_facts(quasisym._count_triples(d, dt, *got, False))
    assert exact == profile_facts(quasisym._count_triples(wd, wdt, *want, False))
    assert exact == profile_facts(distortion_profile(d, dt, cap=10**9))
    sampled = quasisym._sampled_triples(d, dt, 5)
    assert same_arrays(sampled[:1], quasisym._sampled_triples(wd, wdt, 5)[:1])
    assert profile_facts(distortion_profile(d, dt, cap=0, seed=5)) == profile_facts(
        distortion_profile(wd, wdt, cap=0, seed=5)
    )


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("n_keys", LINE_KEYS)
def test_line_profiles_match_intp_codes(n_keys, kind):
    d, line = line_case(n_keys, kind)
    dt = line_case(n_keys, "int64")[0]
    wd, wdt = widened(d), widened(dt)
    n, rng = d.n, np.random.default_rng(n_keys)
    x, y, z = rng.integers(0, n, (3, 20000))
    keep = (x != y) & (x != z)
    # the two ends of the line: the largest code, where a narrow a * len(keys) wraps
    ends = [int(line[0]), int(line[-1])]
    xyz = np.concatenate([np.array([x[keep], y[keep], z[keep]]), [ends, ends[::-1], [line[1], line[2]]]], axis=1)
    xyz = xyz.astype(np.int32)
    codes, wide_codes = d.kernel_codes()[1], wd.kernel_codes()[1]
    a, b = codes[xyz[0], xyz[1]], codes[xyz[0], xyz[2]]
    assert int(a.max()) == n_keys - 1
    vals, idx = quasisym._ratio_codes(d, a, b)
    wide_vals, wide_idx = quasisym._ratio_codes(wd, wide_codes[xyz[0], xyz[1]], wide_codes[xyz[0], xyz[2]])
    assert np.array_equal(idx, wide_idx) and values_of(vals) == values_of(wide_vals)
    got = quasisym._count_triples(d, dt, xyz, None, False)
    assert profile_facts(got) == profile_facts(quasisym._count_triples(wd, wdt, xyz, None, False))
    assert same_arrays(quasisym._sampled_triples(d, dt, 3)[:1], quasisym._sampled_triples(wd, wdt, 3)[:1])
    floats = [float(v) for v in d.value_codes()[0]]
    assert np.array_equal(quasisym._value_bins(floats, codes), quasisym._value_bins(floats, wide_codes))


# -- ball readers --------------------------------------------------------------------


def scanner_facts(table: MetricTable) -> tuple:
    s = table.ball_scanner
    radii = critical_radii(table)
    bounds = s.bounds(radii)
    rng = np.random.default_rng(table.n)
    xs, bs = rng.integers(0, table.n, 500), rng.integers(0, len(s.keys) + 1, 500)
    return (
        radii,
        [(a.dtype, a.tolist()) for a in (s.orders, s.sorted_codes, s.halves, *s.balls, bounds)],
        [a.tolist() for a in s.change_radii(bounds[0])],
        s.count(xs, bs).tolist(),
        sorted(s.ball_below(int(xs[0]), int(bs[0]))),
    )


search_rows = analysis._search_rows


def checked_search_rows(rows, top):
    """`_search_rows`, after checking its contract: each row sorted, in [-1, top).
    A row that breaks it (wrapped codes) could keep `_line_doubling` from ending."""
    if not ((np.diff(rows, axis=1) >= 0).all() and rows.min(initial=-1) >= -1 and rows.max(initial=0) < top):
        raise AssertionError("row search on rows that are not sorted codes")
    return search_rows(rows, top)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("n_keys", TREE_KEYS + LINE_KEYS)
def test_ball_readers_match_intp_codes(n_keys, kind, monkeypatch):
    if n_keys in TREE_KEYS:
        table, line = tree_case(n_keys, kind)[1], None
    else:
        table, line = line_case(n_keys, kind)
    wide = widened(table)
    monkeypatch.setattr(analysis, "_search_rows", checked_search_rows)
    assert scanner_facts(table) == scanner_facts(wide)
    if line is not None:
        assert _line_doubling(table, line) == _line_doubling(wide, line)


# -- the strip certificate -----------------------------------------------------------


@pytest.mark.parametrize("kind", ("int64", "python-int"))
@pytest.mark.parametrize("n_keys", TREE_KEYS)
def test_certificates_match_intp_codes(n_keys, kind):
    # `_strips_hold`, the strip certificate of `_cluster_tree`
    tree, table = tree_case(n_keys, kind)
    heights = table._built[1]
    order, runs = tree.leaf_order
    for t in (table, widened(table)):
        keys, codes = t.kernel_codes()
        want = np.searchsorted(keys, heights)
        assert metrics._strips_hold(codes, tree.children, order, runs, want)
        for i, j in ((0, tree.n_points - 1), (tree.n_points - 2, tree.n_points - 1)):
            bad = codes.copy()
            bad[i, j] = len(keys) - 1 - bad[i, j]  # the top code at a leaf pair, or 0 at the root's
            assert not metrics._strips_hold(bad, tree.children, order, runs, want)


# -- no temporary the size of the code matrix ----------------------------------------


def peak_bytes(fn, *args) -> int:
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_weight_built_fill_and_value_bins_make_no_matrix_sized_temporary():
    tree = product_space(ProductSpec((2,) * 12))
    table = ultrametric_from_weight(tree, weight_from_sequence(tree, [F(1, 2**k) for k in range(13)]))
    filled = peak_bytes(metrics._tree_codes, *table._built)
    values, codes = table.value_codes()
    assert codes.dtype == np.uint8 and codes.nbytes == table.n**2
    binned = peak_bytes(quasisym._value_bins, [float(v) for v in values], codes)
    # beyond the codes it returns, the fill writes each strip in place (the
    # root strip alone holds a quarter of the entries)
    assert filled - codes.nbytes < codes.nbytes // 8 and binned < codes.nbytes // 8
