"""Weight-built tables against the plain kernel path.

`ultrametric_from_weight` builds its table codes first: the cell heights
are ranked once, each cell's code is written on its strips, the kernel is
gathered only when read, and the table records its construction tree.
`_linkage` certifies that tree against the codes (`metrics._certified`),
so Prim's single linkage runs only when the certificate declines, and the
diameters and separations of a geometry on that tree are read off the
heights.

The oracle is the same kernel given to `MetricTable.from_kernel`, which
runs the plain path: `np.unique` codes, Prim, strip maxima and `np.ix_`
blocks.  Every fact is compared on generated weight trees: random laminar
trees with 2 to 6 children per cell (n = 1 and n = 2 among them), a cell
with 64 children, `seq:` weights whose common denominator forces Python-int
kernels, and trees relabeled so that leaf order is not point order.

The certificate is checked to be live: a recorded tree whose codes differ
in one strip entry, or whose heights do not strictly increase, is declined,
and the table then answers exactly as the plain table does.
"""

from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cellspace import (
    Geometry,
    MetricTable,
    ProductSpec,
    WeightFn,
    balls_equal_cells,
    metrics,
    product_space,
    random_laminar,
    ultrametric_from_weight,
    validate_family,
    validate_ultrametric,
    weight_from_sequence,
)
from cellspace.analysis import (
    MeasureAtoms,
    measure_metric_doubling,
    metric_doubling_constant,
    metric_regularity,
)
from cellspace.formats import space_to_json
from test_code_dtypes import code_dtype

WIDE = 3**45  # a denominator that forces Python-int kernels


def ref_rows(tree, values) -> tuple:
    """d(x, y) = values[minimal cell holding x and y], cells below overwriting cells above."""
    rows = [[F(0)] * tree.n_points for _ in range(tree.n_points)]
    for c in sorted(tree.cells(), key=tree.depth.__getitem__):
        for i in tree.members[c]:
            for j in tree.members[c]:
                rows[i][j] = values[c]
    return tuple(map(tuple, rows))


def relabeled(tree, perm):
    """The same family on the points permuted by `perm` (point i becomes perm[i])."""
    return validate_family(tree.points, [{perm[i] for i in s} for s in tree.members])


def drop_weights(draw, tree, scale) -> WeightFn:
    """Weights that drop by 1 or 2 from a cell to each internal child, times `scale`."""
    weight = [0] * tree.n_cells
    for c in tree.internal_cells():  # preorder: a parent before its children
        par = tree.parent[c]
        weight[c] = 20 if par is None else weight[par] - draw(st.integers(1, 2))
    return WeightFn(tree, tuple(F(v) * scale for v in weight))


@st.composite
def weight_trees(draw):
    kind = draw(st.sampled_from(("laminar", "wide", "seq")))
    if kind == "laminar":
        n = draw(st.sampled_from((1, 2)) | st.integers(3, 60))
        tree = random_laminar(draw(st.integers(0, 2**32 - 1)), draw(st.integers(2, 6)), 8, n)
    elif kind == "wide":
        sizes = [64] + draw(st.lists(st.integers(2, 3), max_size=1))
        tree = product_space(ProductSpec(tuple(draw(st.permutations(sizes)))))
    else:
        sizes = tuple(draw(st.lists(st.integers(2, 4), min_size=1, max_size=3)))
        tree = product_space(ProductSpec(sizes))
    if tree.n_points > 1 and draw(st.booleans()):
        tree = relabeled(tree, draw(st.permutations(range(tree.n_points))))
    if kind == "seq":
        depth = max(tree.depth[c] for c in tree.leaves())
        ratio = draw(st.sampled_from((F(1, 2), F(2, 3), F(1, WIDE))))
        return tree, weight_from_sequence(tree, [ratio**i for i in range(depth + 1)])
    return tree, drop_weights(draw, tree, draw(st.sampled_from((F(1, 3), 1 + F(1, WIDE)))))


def siblings(tree):
    for c in tree.internal_cells():
        kids = tree.children[c]
        for a in range(len(kids)):
            for b in range(a + 1, len(kids)):
                yield kids[a], kids[b]


def facts(tree, t) -> dict:
    """Everything the ball and geometry layers read of a table on `tree`."""
    g = Geometry.from_table(tree, t)
    keys, codes = t.kernel_codes()
    link = t._linkage
    um = t.ultrametric_tree
    seps = [g.separation(a, b) for a, b in siblings(tree)]
    diams = metrics._diameter_keys(tree, t)
    return {
        "codes": (keys.tolist(), keys.dtype, codes.tolist(), codes.dtype),
        "linkage": None if link is None else (link[0], link[1].tolist(), link[1].dtype),
        "ultrametric_tree": None if um is None else (um[0], um[1].tolist()),
        "diameter_keys": (diams.tolist(), diams.dtype),
        "diams": [(g.diam(c), type(g.diam(c))) for c in tree.cells()],
        "separations": [(s, type(s)) for s in seps],
        "ultrametric": validate_ultrametric(t),
        "balls=cells": balls_equal_cells(tree, t),
    }


@settings(max_examples=80, deadline=None, database=None)
@given(case=weight_trees())
def test_weight_built_tables_match_the_plain_kernel_path(case):
    tree, w = case
    t = ultrametric_from_weight(tree, w)
    got = facts(tree, t)
    assert "_kernel_den" not in t.__dict__  # no fact above gathers the kernel
    plain = MetricTable.from_kernel(t.labels, t.kernel.copy(), t.den)
    assert got == facts(tree, plain)
    assert t.den == plain.den and t.kernel.dtype == plain.kernel.dtype
    assert (t.kernel == plain.kernel).all() and not t.kernel.flags.writeable
    assert t.rows == plain.rows == ref_rows(tree, w.values)
    assert t == plain
    assert (t.kernel.dtype == object) == (2 * max(v * t.den for v in w.values) >= 2**62)
    for c in (F(1, 3), 2**40):
        s, p = t.scale(c), plain.scale(c)
        assert (s.den, s.kernel.dtype, s.kernel.tolist()) == (p.den, p.kernel.dtype, p.kernel.tolist())
    assert got["linkage"][0] == tree and got["ultrametric"].ok and got["balls=cells"].ok


def test_den_and_values_do_not_gather_the_kernel():
    tree = product_space(ProductSpec((3, 4)))
    t = ultrametric_from_weight(tree, weight_from_sequence(tree, [1, F(1, 2), F(1, 5)]))
    assert t.den == 2 and t.value_codes()[0] == [0, F(1, 2), 1]
    g = Geometry.from_table(tree, t)
    metric_regularity(tree, g)
    metric_doubling_constant(g)
    measure_metric_doubling(g, MeasureAtoms.uniform(tree))
    assert "_kernel_den" not in t.__dict__
    assert t.d(0, 1) == F(1, 2) and t.d(0, 4) == 1 and "_kernel_den" in t.__dict__


# -- the certificate is live ----------------------------------------------------------


def built_table(tree, heights: np.ndarray, rows=None) -> MetricTable:
    """A table recorded as built from (tree, heights), as `ultrametric_from_weight`
    makes it, whose codes are those of `rows` (by default, of the heights), in
    the narrowest unsigned dtype that indexes the keys."""
    rows = ref_rows(tree, [int(h) for h in heights.tolist()]) if rows is None else rows
    kernel = np.array([[int(v) for v in row] for row in rows], dtype=heights.dtype)
    keys, codes = np.unique(kernel, return_inverse=True)
    codes = codes.astype(code_dtype(len(keys)))
    for a in (keys, codes, heights):
        a.flags.writeable = False
    t = MetricTable.__new__(MetricTable)
    t.__dict__.update(labels=tree.points, exact=True, tol=0.0, den=1)
    t.__dict__.update(_kernel_codes=(keys, codes.reshape(kernel.shape)), _built=(tree, heights))
    return t


def assert_declined_like_plain(tree, t, monkeypatch):
    calls = []
    linkage = metrics._single_linkage
    monkeypatch.setattr(metrics, "_single_linkage", lambda table: calls.append(table) or linkage(table))
    plain = MetricTable.from_kernel(t.labels, t.kernel.copy(), t.den)
    assert not metrics._certified(t, *t._built)
    got, want = facts(tree, t), facts(tree, plain)
    assert calls[0] is t
    assert got == want


@settings(max_examples=30, deadline=None, database=None)
@given(case=weight_trees(), data=st.data())
def test_certificate_declines_a_changed_strip_code(case, data):
    tree, w = case
    if tree.n_points < 2:
        return
    good = ultrametric_from_weight(tree, w)
    heights = good._built[1]
    rows = [list(row) for row in ref_rows(tree, heights.tolist())]
    i, j = sorted(data.draw(st.lists(st.integers(0, tree.n_points - 1), min_size=2, max_size=2, unique=True)))
    rows[i][j] += data.draw(st.sampled_from((1, -1, int(heights.max()))))
    if data.draw(st.booleans()):  # both sides of the strip, or one
        rows[j][i] = rows[i][j]
    with pytest.MonkeyPatch.context() as mp:
        assert_declined_like_plain(tree, built_table(tree, heights.copy(), rows), mp)


@pytest.mark.parametrize("bend", (0, 1))
@settings(max_examples=20, deadline=None, database=None)
@given(case=weight_trees(), data=st.data())
def test_certificate_declines_heights_that_do_not_increase(bend, case, data):
    # an internal cell as high as its parent (an ultrametric whose balls
    # are not the cells) or higher (no ultrametric at all)
    tree, w = case
    inner = [c for c in tree.internal_cells() if c != tree.ROOT]
    if not inner:
        return
    heights = ultrametric_from_weight(tree, w)._built[1].copy()
    c = data.draw(st.sampled_from(inner))
    heights[c] = heights[tree.parent[c]] + bend
    with pytest.MonkeyPatch.context() as mp:
        assert_declined_like_plain(tree, built_table(tree, heights), mp)


def test_certificate_declines_leaves_above_0(monkeypatch):
    # every other check holds: the heights are keys, strictly increasing,
    # and the codes are those of the heights, 1 on the diagonal
    tree = product_space(ProductSpec((2, 2)))
    good = np.array([4, 2, 0, 0, 2, 0, 0])
    assert metrics._certified(built_table(tree, good), tree, good)
    assert_declined_like_plain(tree, built_table(tree, np.array([4, 2, 1, 1, 2, 1, 1])), monkeypatch)


def test_certificate_declines_heights_that_are_not_keys(monkeypatch):
    # keys 0, 2, 4: the height 1 searches to the code of 2
    tree = product_space(ProductSpec((2, 2)))
    rows = built_table(tree, np.array([4, 2, 0, 0, 2, 0, 0])).rows
    assert_declined_like_plain(tree, built_table(tree, np.array([4, 1, 0, 0, 1, 0, 0]), rows), monkeypatch)


def test_weight_built_tables_never_run_single_linkage_in_the_cli(tmp_path, capsys, monkeypatch):
    from cellspace.cli import main

    def refuse(*args):
        raise AssertionError("single linkage ran")

    seen = []
    gather = metrics._exact_matrix
    monkeypatch.setattr(metrics, "_single_linkage", refuse)
    monkeypatch.setattr(metrics, "_exact_matrix", lambda t: seen.append(t) or gather(t))
    tree = relabeled(product_space(ProductSpec((3, 2, 2))), [5, 0, 11, 1, 3, 2, 10, 4, 9, 6, 8, 7])
    w = weight_from_sequence(tree, [1, F(1, 3), F(1, 7), F(1, 11)])
    weighted = tmp_path / "w.json"
    weighted.write_text(space_to_json(tree, weights=w))
    assert main(["validate", str(weighted)]) == 0
    assert "checks=structure,weights,ultrametric,balls=cells" in capsys.readouterr().out
    for spec in ("weights", "geo:1/2", "reg:1/3", "seq:1,1/2,1/5,1/" + str(WIDE)):
        assert main(["analyze", str(weighted), "--metric", spec]) == 0, spec
    assert seen == []  # and no weight-built kernel was gathered


def test_declined_single_linkage_builds_no_member_sets(monkeypatch):
    def refuse(*args):
        raise AssertionError("member sets built for a declined table")

    xs = [2**k - 1 for k in range(40)]  # a caterpillar line: Prim's tree is a chain
    pos = np.array(xs)
    line = MetricTable.from_kernel(tuple(f"p{i}" for i in range(len(xs))), abs(pos[:, None] - pos[None, :]), 1)
    monkeypatch.setattr(metrics, "frozenset", refuse, raising=False)  # the member sets
    monkeypatch.setattr(metrics.CellTree, "_from_children", refuse)
    assert metrics._single_linkage(line) is None
