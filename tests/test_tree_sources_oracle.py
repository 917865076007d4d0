"""Cell trees built straight from their sources, against the builds they replaced.

`product_space`, `random_laminar` and `complete_rays` hand `cells_of` the
flat preorder form of their trees (each vertex's parent and leaf label),
with no `RootedTree` per vertex.  The reference generators below are the
earlier ones, unchanged: they build a `RootedTree` and read it with the
one-walk `ref_cells_of` that `cells_of` used to be.  Both must give equal
CellTrees, or raise the same exception with the same message.

`load_space` walks the node objects once, collapsing unary chains as it
goes; on documents with several faults it must still report the first bad
node in document order before a duplicate label, and a duplicate label
before a weight.
"""

import math
import random
from itertools import product as iproduct

import pytest

from cellspace import (
    CellTree,
    ProductSpec,
    RootedTree,
    cells_of,
    complete_tree,
    product_space,
    random_laminar,
    ray_space,
)
from cellspace.errors import BrokenCellTree, DuplicateLeafLabel, FormatError
from cellspace.formats import load_space
from cellspace.spaces import _capped_power, _check_points, complete_rays


def ref_cells_of(tree: RootedTree) -> CellTree:
    leaf_at: dict[str, int] = {}  # label -> leaf cell, in point order
    parent: list[int | None] = []
    kids: list[list[int]] = []
    depth: list[int] = []
    stack: list = [(tree, None, [])]  # vertex, parent cell, its child list
    while stack:
        node, up, siblings = stack.pop()
        while len(node.children) == 1:
            node = node.children[0]
        c = len(parent)
        siblings.append(c)
        parent.append(up)
        kids.append([])
        depth.append(0 if up is None else depth[up] + 1)
        stack.extend((k, c, kids[c]) for k in reversed(node.children))
        if not node.children:
            if node.label is None or node.label in leaf_at:
                raise DuplicateLeafLabel(node.label)
            leaf_at[node.label] = c
    return CellTree(tuple(leaf_at), tuple(parent), tuple(map(tuple, kids)),
                    tuple(depth), tuple(leaf_at.values()))


def ref_product_space(spec: ProductSpec) -> CellTree:
    _check_points(spec.sizes)
    sep = "" if max(spec.sizes) <= 10 else "."
    coords = iproduct(*(range(k) for k in spec.sizes))
    level = [RootedTree(label=sep.join(map(str, c))) for c in coords]
    for k in reversed(spec.sizes):
        level = [RootedTree(children=level[i : i + k]) for i in range(0, len(level), k)]
    tree = ref_cells_of(level[0])
    if tree.points != tuple(spec.labels()):
        raise BrokenCellTree("product tree points are not the coordinate strings")
    return tree


def _with_ray_labels(tree: RootedTree) -> RootedTree:
    root = RootedTree()
    stack = [(tree, root, ())]
    while stack:
        node, new, path = stack.pop()
        if node.is_leaf():
            new.label = "r" + ".".join(map(str, path)) if node.label is None else node.label
        for i, ch in enumerate(node.children):
            new.children.append(RootedTree())
            stack.append((ch, new.children[-1], path + (i,)))
    return root


def ref_ray_space(tree: RootedTree) -> CellTree:
    return ref_cells_of(_with_ray_labels(tree))


def ref_random_laminar(seed, max_branch=4, max_depth=8, n_points=16) -> CellTree:
    if max_branch < 2 or max_depth < 1 or n_points < 1:
        raise ValueError("need max_branch >= 2, max_depth >= 1, n_points >= 1")
    _check_points([n_points])
    reach = _capped_power(max_branch, max_depth, n_points)
    if reach < n_points:
        raise ValueError(f"max_branch**max_depth = {reach} < {n_points} points")
    rng = random.Random(seed)
    root = RootedTree()
    stack = [(root, 0, n_points, max_depth)]
    while stack:
        node, lo, hi, levels_left = stack.pop()
        size = hi - lo
        if size == 1:
            node.label = f"p{lo}"
            continue
        cap = _capped_power(max_branch, levels_left - 1, size)
        kmin = max(2, math.ceil(size / cap))
        kmax = min(max_branch, size)
        k = rng.randint(kmin, kmax)
        kids = []
        rem = size
        for j in range(k):
            slots_after = k - j - 1
            lo_sz = max(1, rem - cap * slots_after)
            hi_sz = min(cap, rem - slots_after)
            s = rng.randint(lo_sz, hi_sz) if j < k - 1 else rem
            kids.append((RootedTree(), hi - rem, hi - rem + s, levels_left - 1))
            rem -= s
        node.children = [kid[0] for kid in kids]
        stack.extend(reversed(kids))
    return ref_cells_of(root)


def _outcome(fn, *args):
    try:
        return fn(*args), None
    except Exception as e:  # both sides must fail alike, whatever the type
        return None, (type(e), str(e))


# -- generators ------------------------------------------------------------------


@pytest.mark.parametrize(
    "sizes",
    [(2,) * k for k in range(1, 13)] + [(6, 6, 6, 6), (64, 64), (12, 3, 5), (11,), (3, 10, 2), (10, 11)],
)
def test_product_space_matches_the_rooted_tree_build(sizes):
    spec = ProductSpec(sizes)
    got = product_space(spec)
    assert got == ref_product_space(spec)
    got.check_invariants()


def test_product_labels_with_dots_past_ten_letters():
    assert product_space(ProductSpec((64, 64))).points[64:66] == ("1.0", "1.1")
    assert product_space(ProductSpec((10, 2))).points[-1] == "91"


def test_random_laminar_matches_the_rooted_tree_build():
    rng = random.Random(5)
    seen = set()
    for trial in range(300):
        args = (rng.randrange(2**32), rng.randint(2, 7), rng.randint(1, 12), rng.randint(1, 400))
        got, err = _outcome(random_laminar, *args)
        want, ref_err = _outcome(ref_random_laminar, *args)
        assert (got, err) == (want, ref_err), (trial, args)
        seen.add(err is None)
    assert seen == {True, False}  # some depth caps are too tight for the points


@pytest.mark.parametrize("arity", [1, 2, 3, 4])
@pytest.mark.parametrize("depth", [0, 1, 2, 5])
def test_complete_rays_match_the_rooted_tree_build(arity, depth):
    want = ref_ray_space(complete_tree(arity, depth))
    assert complete_rays(arity, depth) == want
    assert ray_space(complete_tree(arity, depth)) == want


def test_complete_rays_of_arity_one_collapse_to_one_point():
    t = complete_rays(1, 3)
    assert (t.points, t.n_cells) == (("r0.0.0",), 1)
    assert complete_rays(1, 0).points == ("r",)
    with pytest.raises(ValueError, match="need arity >= 1"):
        complete_rays(0, 2)


def test_ray_space_keeps_labels_and_names_the_rest_by_path():
    tree = RootedTree(children=[
        RootedTree(label="a"),
        RootedTree(children=[RootedTree(children=[RootedTree(), RootedTree(label="b")])]),
    ])
    got = ray_space(tree)
    assert got == ref_ray_space(tree) and got.points == ("a", "r1.0.0", "b")


# -- the flat form ---------------------------------------------------------------


def test_flat_cells_of_equals_the_rooted_tree_build():
    for seed in range(40):
        t = random_laminar(seed, 3, 6, 2 + seed)
        rooted = t.tree_of()
        nodes = rooted.preorder()
        at = {id(node): v for v, node in enumerate(nodes)}
        up = [None] * len(nodes)
        for node in nodes:
            for k in node.children:
                up[at[id(k)]] = at[id(node)]
        labels = [node.label if node.is_leaf() else None for node in nodes]
        assert cells_of(up, labels) == cells_of(rooted) == ref_cells_of(rooted) == t


def test_flat_cells_of_single_vertex_and_unary_chains():
    assert cells_of([None], ["x"]) == ref_cells_of(RootedTree(label="x"))
    chain = cells_of([None, 0, 1, 2, 2], [None, None, None, "a", "b"])
    assert (chain.points, chain.parent, chain.children) == (("a", "b"), (None, 0, 0), ((1, 2), (), ()))
    assert cells_of([None, 0, 1], [None, None, "only"]).n_cells == 1


def test_flat_cells_of_names_the_first_bad_leaf_in_preorder():
    with pytest.raises(DuplicateLeafLabel, match="'a'"):
        cells_of([None, 0, 0, 2, 2], [None, "a", None, "b", "a"])
    with pytest.raises(DuplicateLeafLabel, match="None"):
        cells_of([None, 0, 0, 0], [None, "a", None, "a"])  # the unlabelled leaf comes first
    with pytest.raises(DuplicateLeafLabel, match="'b'"):
        cells_of([None, 0, 0, 0], [None, "b", "b", None])
    # an internal vertex's label is not a leaf label
    assert cells_of([None, 0, 0], ["a", "a", "b"]).points == ("a", "b")


# -- load_space: which fault is reported ----------------------------------------


def test_malformed_node_is_reported_before_a_duplicate_label():
    doc = {"children": [{"point": "a"}, {"point": "a"}, {"children": [{"point": 3}, {"point": "b"}]}]}
    with pytest.raises(FormatError, match=r"^root\.children\[2\]\.children\[0\]: point label"):
        load_space(doc)
    doc["children"][2]["children"][0] = {"children": [{"children": []}]}
    with pytest.raises(FormatError, match=r"^root\.children\[2\]\.children\[0\]\.children\[0\]: internal"):
        load_space(doc)
    doc["children"][2]["children"][0] = "leaf"
    with pytest.raises(FormatError, match=r"^root\.children\[2\]\.children\[0\]: node must be an object"):
        load_space(doc)
    doc["children"][2]["children"][0] = {"point": "c"}
    with pytest.raises(DuplicateLeafLabel):
        load_space(doc)


def test_duplicate_label_is_reported_before_a_weight():
    doc = {
        "weight": "1",
        "children": [
            {"children": [{"point": "a"}, {"point": "b"}], "weight": "2"},
            {"children": [{"children": [{"point": "a"}, {"point": "c"}], "weight": "x"}]},
        ],
    }
    with pytest.raises(DuplicateLeafLabel):
        load_space(doc)
    doc["children"][1]["children"][0]["children"][0]["point"] = "d"
    with pytest.raises(FormatError, match="bad rational 'x'"):
        load_space(doc)
    doc["children"][1]["children"][0]["children"][0] = []
    with pytest.raises(FormatError, match=r"children\[1\]\.children\[0\]\.children\[0\]: node must"):
        load_space(doc)


def test_weights_of_a_unary_chain_are_read_deepest_first():
    chain = {"weight": "x", "children": [{"weight": "2", "children": [
        {"weight": "1", "children": [{"point": "a"}, {"point": "b"}]}]}]}
    doc = {"weight": "3", "children": [chain, {"point": "c"}]}
    with pytest.raises(FormatError, match=r"conflicting weights for collapsed cell \[0, 1\]"):
        load_space(doc)
    chain["children"][0]["weight"] = "1"
    with pytest.raises(FormatError, match="bad rational 'x'"):
        load_space(doc)
