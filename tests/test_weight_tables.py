"""Weight-built tables against the plain kernel path.

`ultrametric_from_weight` fills no n x n array: the table records its
construction tree and the cell heights, and that tree is its `_linkage`.
`WeightFn` checks the hypotheses under which d(x, y) = w(minimal common
cell) is an ultrametric whose closed balls are the cells (0 exactly on the
leaves, positive and strictly decreasing on the internal cells), so the
construction is the certificate.  The codes are written on the strips of
the tree when first read (`metrics._tree_codes`), the kernel is gathered
from them, and the diameters and separations of a geometry on that tree
are read off the heights.

The oracle is the same kernel given to `MetricTable.from_kernel`, which
runs the plain path: `np.unique` codes, Prim, strip maxima and `np.ix_`
blocks.  Every fact is compared on generated weight trees: random laminar
trees with 2 to 6 children per cell (n = 1 and n = 2 among them), a cell
with 64 children, `seq:` weights whose common denominator forces Python-int
kernels, and trees relabeled so that leaf order is not point order.

`WeightFn` is then the only guard, so each of its rejections is checked
directly, and through `validate` on every weighted file that can express
it, a weight stated on a leaf among them.  On the CLI, `validate` and `analyze` never write codes, and
`distortion` writes them and answers as tables built from rows do.
"""

import json
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
from cellspace.errors import NotDecreasing
from cellspace.formats import space_to_json

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


def test_weight_built_tables_never_run_single_linkage_in_the_cli(tmp_path, capsys, monkeypatch):
    from cellspace.cli import main

    def refuse(what):
        def refused(*args):
            raise AssertionError(f"{what} ran")
        return refused

    seen, written = [], []
    gather, fill, linkage = metrics._exact_matrix, metrics._tree_codes, metrics._single_linkage
    monkeypatch.setattr(metrics, "_single_linkage", refuse("single linkage"))
    monkeypatch.setattr(metrics, "_tree_codes", refuse("the code fill"))
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

    # distortion reads codes: one fill per table, and the outputs of tables built from rows
    monkeypatch.setattr(metrics, "_single_linkage", linkage)
    monkeypatch.setattr(metrics, "_tree_codes", lambda *a: written.append(a) or fill(*a))
    product = tmp_path / "p.json"
    assert main(["generate", "product", "--sizes", "2,2,2", "--out", str(product)]) == 0

    def distortion(out):
        capsys.readouterr()
        code = main([
            "distortion", str(product), "geo:1/2", "geo:1/3",
            "--depths", "3,5", "--grid", "pow2:-8:2", "--out", str(tmp_path / out),
        ])
        return code, capsys.readouterr().out, {f.name: f.read_bytes() for f in (tmp_path / out).iterdir()}

    built = distortion("built")
    assert len(written) == 4  # two metrics at two depths
    monkeypatch.setattr(
        metrics, "ultrametric_from_weight", lambda tree, w: MetricTable(tree.points, ref_rows(tree, w.values))
    )
    assert distortion("rows") == built and built[0] == 0 and len(written) == 4


# -- WeightFn, the only guard ----------------------------------------------------------

TREE = product_space(ProductSpec((2, 2)))  # cells in preorder: 0 the root, 1 and 4 its children
GOOD = (F(1), F(1, 2), F(0), F(0), F(1, 2), F(0), F(0))


def with_value(c, v) -> tuple:
    return GOOD[:c] + (v,) + GOOD[c + 1 :]


REJECTIONS = {
    "leaf-above-0": (with_value(2, F(1, 3)), ValueError, "leaf cell 2 must have weight 0, got 1/3"),
    "leaf-below-0": (with_value(6, F(-1, 3)), ValueError, "leaf cell 6 must have weight 0, got -1/3"),
    "root-0": (with_value(0, F(0)), ValueError, "internal cell 0 must have positive weight"),
    "internal-0": (with_value(1, F(0)), ValueError, "internal cell 1 must have positive weight"),
    "internal-below-0": (with_value(4, F(-1, 2)), ValueError, "internal cell 4 must have positive weight"),
    "child-equal": (with_value(1, F(1)), NotDecreasing, "weight does not strictly decrease on edge 0 -> 1"),
    "child-greater": (with_value(4, F(2)), NotDecreasing, "weight does not strictly decrease on edge 0 -> 4"),
    "too-few": (GOOD[:-1], ValueError, "one weight per cell required"),
    "too-many": (GOOD + (F(0),), ValueError, "one weight per cell required"),
}


def test_weightfn_accepts_weights_that_strictly_decrease_to_0_on_the_leaves():
    assert WeightFn(TREE, GOOD).values == GOOD


@pytest.mark.parametrize(("values", "error", "message"), REJECTIONS.values(), ids=REJECTIONS)
def test_weightfn_rejects(values, error, message):
    with pytest.raises(ValueError) as info:
        WeightFn(TREE, values)
    assert type(info.value) is error and str(info.value) == message


def validate_weighted(tmp_path, root: str, child: str, leaf: str | None = None) -> int:
    """`validate` on the weighted product 2x2 with the weights of the root, of
    its first child and (if given) of the leaf "00" (cell 2) replaced."""
    from cellspace.cli import main

    doc = json.loads(space_to_json(TREE, weights=weight_from_sequence(TREE, [1, F(1, 2), F(1, 4)])))
    doc["root"]["weight"], doc["root"]["children"][0]["weight"] = root, child
    if leaf is not None:
        doc["root"]["children"][0]["children"][0]["weight"] = leaf
    weighted = tmp_path / "w.json"
    weighted.write_text(json.dumps(doc))
    return main(["validate", str(weighted)])


@pytest.mark.parametrize(
    ("root", "child", "leaf", "message"),
    [
        ("0", "1/2", None, "internal cell 0 must have positive weight"),
        ("1", "0", None, "internal cell 1 must have positive weight"),
        ("1", "-1/2", None, "internal cell 1 must have positive weight"),
        ("1", "1", None, "weight does not strictly decrease on edge 0 -> 1"),
        ("1", "2", None, "weight does not strictly decrease on edge 0 -> 1"),
        ("1", "1/2", "1/3", "leaf cell 2 must have weight 0, got 1/3"),
    ],
    ids=["root-0", "child-0", "child-below-0", "child-equal", "child-greater", "leaf-1/3"],
)
def test_validate_fails_on_weights_that_weightfn_rejects(tmp_path, capsys, root, child, leaf, message):
    # the weight count is not expressible in a file: the loader gives every
    # internal cell one weight, and a leaf the weight stated on it, or 0
    assert validate_weighted(tmp_path, root, child, leaf) == 1
    assert capsys.readouterr() == (f"FAIL: {message}\n", "")


def test_validate_accepts_a_leaf_weight_of_0(tmp_path, capsys):
    assert validate_weighted(tmp_path, "1", "1/2", "0") == 0
    assert capsys.readouterr() == ("OK: points=4 cells=7 checks=structure,weights,ultrametric,balls=cells\n", "")


def test_declined_single_linkage_builds_no_member_sets(monkeypatch):
    def refuse(*args):
        raise AssertionError("member sets built for a declined table")

    xs = [2**k - 1 for k in range(40)]  # a caterpillar line: Prim's tree is a chain
    pos = np.array(xs)
    line = MetricTable.from_kernel(tuple(f"p{i}" for i in range(len(xs))), abs(pos[:, None] - pos[None, :]), 1)
    monkeypatch.setattr(metrics, "frozenset", refuse, raising=False)  # the member sets
    monkeypatch.setattr(metrics.CellTree, "_from_children", refuse)
    assert metrics._single_linkage(line) is None
