"""Laminar family / cell tree behavior.

Covers: family validation and its error cases, children/ancestors/minimal
cell queries against brute-force oracles, clopen decomposition minimality,
partition completion, induced substructures, and the tree duality round
trip.
"""

from dataclasses import replace

import pytest

from cellspace import (
    CellTree,
    ProductSpec,
    cells_of,
    product_space,
    random_laminar,
    validate_family,
)
from cellspace.celltree import RootedTree
from cellspace.errors import (
    BrokenCellTree,
    CellSpaceError,
    DuplicateLeafLabel,
    EmptyCell,
    EmptySubset,
    MissingRoot,
    NotABase,
    NotDisjoint,
    Overlap,
)


def _family_of(tree: CellTree):
    return {frozenset(tree.members[c]) for c in tree.cells()}


def _points_of(tree: CellTree, c: int):
    return sorted(tree.cell_points(c))


# -- validate_family ----------------------------------------------------------


def test_validate_family_three_points():
    t = validate_family(["1", "2", "3"], [{0, 1, 2}, {0, 1}, {0}, {1}, {2}])
    assert _points_of(t, t.ROOT) == ["1", "2", "3"]
    kids = [(sorted(t.cell_points(c))) for c in t.children[t.ROOT]]
    assert kids == [["1", "2"], ["3"]]
    t.check_invariants()


def _break(tree: CellTree, how: str) -> CellTree:
    root_kids = tree.children[tree.ROOT]
    if how == "unary":
        children = (root_kids[:1],) + tree.children[1:]
        return replace(tree, children=children)
    if how == "order":
        children = (tuple(reversed(root_kids)),) + tree.children[1:]
        return replace(tree, children=children)
    if how == "parent":
        parent = list(tree.parent)
        parent[root_kids[0]] = root_kids[1]
        return replace(tree, parent=tuple(parent))
    if how == "internal point":  # point 0 on its parent cell, whose leaf is left empty
        return replace(tree, leaf_of=(root_kids[0],) + tree.leaf_of[1:])
    if how == "point off the tree":
        return replace(tree, leaf_of=(tree.n_cells,) + tree.leaf_of[1:])
    if how == "two points on a leaf":
        return replace(tree, leaf_of=tree.leaf_of[:1] * 2 + tree.leaf_of[2:])
    if how == "leaf without a point":  # the last point dropped, its leaf kept
        return replace(tree, points=tree.points[:-1], leaf_of=tree.leaf_of[:-1])
    if how == "point without a leaf":
        return replace(tree, leaf_of=tree.leaf_of[:-1])
    raise AssertionError(how)


@pytest.mark.parametrize(
    "how, message",
    [
        ("unary", "unary"),
        ("order", "out of order"),
        ("parent", "another parent"),
        ("internal point", "point 0 is on 1, which is not a leaf"),
        ("point off the tree", "point 0 is on 7, which is not a leaf"),
        ("two points on a leaf", "leaf 2 with several points"),
        ("leaf without a point", "leaf 6 holds no point"),
        ("point without a leaf", "3 leaves listed for 4 points"),
    ],
)
def test_check_invariants_raises_on_broken_tree(how, message):
    # built directly, bypassing validation; the check must raise even under -O
    tree = _break(product_space(ProductSpec((2, 2))), how)
    with pytest.raises(BrokenCellTree, match=message) as exc:
        tree.check_invariants()
    assert isinstance(exc.value, CellSpaceError)


def _miswire(how: str) -> CellTree:
    if how == "orphan":
        # a star on three points plus a leaf {0} that no cell lists; the cell
        # count stays within 2n - 1, so only the walk from the root sees it
        t = product_space(ProductSpec((3,)))
        return replace(
            t,
            parent=t.parent + (0,),
            children=t.children + ((),),
            depth=t.depth + (1,),
        )
    # cells of the 2x2 product: 0 root, 1 {0,1}, 2 {0}, 3 {1}, 4 {2,3}, 5 {2}, 6 {3}
    t = product_space(ProductSpec((2, 2)))
    children = list(t.children)
    if how == "two parents":
        children[1] = (2, 3, 5)  # {2} also under {0,1}
    elif how == "cycle":
        children[4] = (5, 6, 0)  # {2,3} lists the root
    else:
        raise AssertionError(how)
    return replace(t, children=tuple(children))


@pytest.mark.parametrize(
    "how, message",
    [("orphan", "not reachable"), ("two parents", "reached twice"), ("cycle", "reached twice")],
)
def test_check_invariants_walk_reaches_every_cell_once(how, message):
    with pytest.raises(BrokenCellTree, match=message):
        _miswire(how).check_invariants()


def test_check_invariants_requires_preorder_ids():
    # the 2x2 product with cells 1 <-> 4, 2 <-> 5, 3 <-> 6 renumbered
    # consistently: parents, children, depths and leaves all agree, and the
    # root's children (4, 1) are in order of least point, but the ids are not
    # the preorder that `leaf_order` reads, so its runs would give cell 4 the
    # points 2 and 3 where it holds 0 and 1
    t = product_space(ProductSpec((2, 2)))
    new = (0, 4, 5, 6, 1, 2, 3)
    old = sorted(range(7), key=new.__getitem__)
    renumbered = replace(
        t,
        parent=tuple(None if t.parent[c] is None else new[t.parent[c]] for c in old),
        children=tuple(tuple(new[k] for k in t.children[c]) for c in old),
        depth=tuple(t.depth[c] for c in old),
        leaf_of=tuple(new[c] for c in t.leaf_of),
    )
    assert renumbered.children[0] == (4, 1) and renumbered.leaf_of == (5, 6, 2, 3)
    with pytest.raises(BrokenCellTree, match="cell 4 is out of preorder"):
        renumbered.check_invariants()
    t.check_invariants()


def test_validate_family_overlap_witness():
    with pytest.raises(Overlap) as exc:
        validate_family(["1", "2", "3"], [{0, 1, 2}, {0, 1}, {1, 2}, {0}, {1}, {2}])
    assert exc.value.a == frozenset({"1", "2"})
    assert exc.value.b == frozenset({"2", "3"})


def test_validate_family_one_point():
    t = validate_family(["1"], [{0}])
    assert t.n_cells == 1
    assert t.is_leaf(t.ROOT)


def test_validate_family_missing_root():
    with pytest.raises(MissingRoot):
        validate_family(["a", "b"], [{0}, {1}])


def test_validate_family_empty_cell():
    with pytest.raises(EmptyCell):
        validate_family(["a", "b"], [{0, 1}, set(), {0}, {1}])


def test_validate_family_base_condition():
    with pytest.raises(NotABase) as exc:
        validate_family(["a", "b", "c"], [{0, 1, 2}, {0}, {1}])
    assert exc.value.point == "c"
    t = validate_family(["a", "b", "c"], [{0, 1, 2}, {0}, {1}], strict=False)
    assert frozenset({2}) in _family_of(t)


def test_validate_family_dedups():
    t = validate_family(["a", "b"], [{0, 1}, {0, 1}, {0}, {0}, {1}])
    assert t.n_cells == 3


# -- children / ancestors / minimal_cell ---------------------------------------


def test_children_depth2_binary():
    t = product_space(ProductSpec((2, 2)))
    kids = t.children[t.ROOT]
    assert [len(t.members[c]) for c in kids] == [2, 2]
    leaf = t.leaf_of[0]
    assert t.children[leaf] == ()


def test_children_product_3_2_matches_coordinate_oracle():
    t = product_space(ProductSpec((3, 2)))
    got = sorted(sorted(t.cell_points(c)) for c in t.children[t.ROOT])
    by_first = {}
    for p in t.points:
        by_first.setdefault(p[0], []).append(p)
    assert got == sorted(sorted(v) for v in by_first.values())


def test_children_partition_property():
    for seed in range(10):
        t = random_laminar(seed, n_points=17)
        for c in t.internal_cells():
            union = set()
            for k in t.children[c]:
                assert not (set(t.members[k]) & union)
                union |= set(t.members[k])
            assert union == set(t.members[c])


def test_ancestors_chain():
    t = product_space(ProductSpec((2, 2, 2)))
    assert t.ancestors(t.ROOT) == []
    leaf = t.leaf_of[t.point_index("000")]
    chain = t.ancestors(leaf)
    assert [len(t.members[c]) for c in chain] == [2, 4, 8]
    for a, b in zip(chain, chain[1:]):
        assert t.members[a] < t.members[b]


def test_ancestors_totally_ordered_everywhere():
    t = random_laminar(3, n_points=23)
    for c in t.cells():
        chain = [c] + t.ancestors(c)
        assert len(chain) == t.depth[c] + 1
        for a, b in zip(chain, chain[1:]):
            assert t.members[a] < t.members[b]


def test_minimal_cell_binary_prefix():
    t = product_space(ProductSpec((2, 2)))
    c = t.minimal_cell("00", "01")
    assert _points_of(t, c) == ["00", "01"]
    assert _points_of(t, t.minimal_cell("00", "00")) == ["00"]


def test_minimal_cell_matches_prefix_oracle():
    t = product_space(ProductSpec((2, 3, 2)))
    for x in t.points:
        for y in t.points:
            c = t.minimal_cell(x, y)
            if x == y:
                assert t.cell_points(c) == frozenset({x})
                continue
            agree = 0
            while agree < len(x) and x[agree] == y[agree]:
                agree += 1
            assert t.depth[c] == agree
            assert {p for p in t.points if p[:agree] == x[:agree]} == t.cell_points(c)


# -- decompose_clopen / complete_partition --------------------------------------


def test_decompose_clopen_examples():
    t = product_space(ProductSpec((2, 2)))
    out = t.decompose_clopen({"00", "01", "10"})
    assert [sorted(t.cell_points(c)) for c in out] == [["00", "01"], ["10"]]
    assert t.decompose_clopen(set()) == []
    assert t.decompose_clopen(set(t.points)) == [t.ROOT]


def _brute_min_disjoint_cover(tree: CellTree, want: frozenset):
    """Exact-cover DP over point bitmasks; independent of the tree walk."""
    masks = []
    for c in tree.cells():
        m = 0
        for i in tree.members[c]:
            m |= 1 << i
        masks.append(m)
    by_bit = {}
    for c, m in enumerate(masks):
        low = 1 << min(tree.members[c])
        by_bit.setdefault(low, []).append(c)
    from functools import lru_cache

    @lru_cache(maxsize=None)
    def solve(mask):
        if mask == 0:
            return (0, ())
        low = mask & -mask
        best = None
        for c in by_bit.get(low, []):
            if masks[c] & ~mask:
                continue
            cnt, chosen = solve(mask & ~masks[c])
            if best is None or cnt + 1 < best[0]:
                best = (cnt + 1, (c,) + chosen)
        assert best is not None, "singletons always tile"
        return best

    mask = 0
    for i in want:
        mask |= 1 << i
    return solve(mask)


def test_decompose_clopen_is_minimal_cover():
    t = random_laminar(11, n_points=10)
    points = list(t.points)
    for mask in range(2 ** len(points)):
        want = {points[i] for i in range(len(points)) if mask >> i & 1}
        got = t.decompose_clopen(want)
        union = set()
        for c in got:
            assert not (set(t.members[c]) & union)
            union |= set(t.members[c])
        assert {t.points[i] for i in union} == want
        cnt, chosen = _brute_min_disjoint_cover(
            t, frozenset(t.point_index(p) for p in want)
        )
        assert len(got) == cnt
        assert sorted(got) == sorted(chosen)


def test_complete_partition_examples():
    t = product_space(ProductSpec((2, 2)))
    leaf00 = t.leaf_of[t.point_index("00")]
    out = t.complete_partition([leaf00])
    assert [sorted(t.cell_points(c)) for c in out] == [["00"], ["01"], ["10", "11"]]
    assert t.complete_partition([t.ROOT]) == [t.ROOT]
    assert t.complete_partition([]) == [t.ROOT]


def test_complete_partition_not_disjoint():
    t = product_space(ProductSpec((2, 2)))
    with pytest.raises(NotDisjoint):
        t.complete_partition([t.ROOT, t.leaf_of[0]])


def test_complete_partition_is_partition_property():
    for seed in range(8):
        t = random_laminar(seed, n_points=14)
        cs = [t.leaf_of[0]]
        if t.children[t.ROOT]:
            cs.append(t.children[t.ROOT][-1])
        if t.members[cs[-1]] & t.members[cs[0]]:
            cs = cs[:1]
        out = t.complete_partition(cs)
        seen = set()
        for c in out:
            assert not (set(t.members[c]) & seen)
            seen |= set(t.members[c])
        assert seen == set(range(t.n_points))


# -- induced substructure -------------------------------------------------------


def test_induced_substructure_examples():
    t = product_space(ProductSpec((2, 2)))
    sub = t.induced_substructure({"00", "01", "11"})
    assert _family_of(sub) == {
        frozenset({0, 1, 2}),
        frozenset({0, 1}),
        frozenset({0}),
        frozenset({1}),
        frozenset({2}),
    }
    one = t.induced_substructure({"10"})
    assert one.n_cells == 1
    assert t.induced_substructure(set(t.points)) == t


def test_induced_substructure_empty():
    t = product_space(ProductSpec((2, 2)))
    with pytest.raises(EmptySubset):
        t.induced_substructure(set())


def test_induced_substructure_invariants():
    t = random_laminar(5, n_points=20)
    sub = t.induced_substructure({p for i, p in enumerate(t.points) if i % 3 != 0})
    sub.check_invariants()


# -- tree duality ---------------------------------------------------------------


def test_round_trip_binary():
    t = product_space(ProductSpec((2, 2)))
    assert cells_of(t.tree_of()) == t


def test_cells_of_single_vertex():
    t = cells_of(RootedTree(label="x"))
    assert t.n_cells == 1 and t.points == ("x",)


def test_cells_of_duplicate_labels():
    with pytest.raises(DuplicateLeafLabel):
        cells_of(RootedTree(children=[RootedTree(label="a"), RootedTree(label="a")]))


def test_cells_of_collapses_unary_chains():
    chain = RootedTree(
        children=[
            RootedTree(
                children=[
                    RootedTree(children=[RootedTree(label="a"), RootedTree(label="b")])
                ]
            )
        ]
    )
    t = cells_of(chain)
    assert t.n_cells == 3


def _caterpillar(levels: int) -> RootedTree:
    """Each internal vertex has a leaf and one deeper internal vertex."""
    node = RootedTree(children=[RootedTree(label="a"), RootedTree(label="b")])
    for i in range(levels - 1):
        node = RootedTree(children=[RootedTree(label=f"x{i}"), node])
    return node


def test_deep_caterpillar_round_trip_and_signature():
    # far beyond the interpreter's recursion limit
    rooted = _caterpillar(2000)
    assert len(rooted.leaves()) == 2001
    t = cells_of(rooted)
    assert t.n_points == 2001 and t.n_cells == 4001
    assert max(t.depth) == 2000
    t.check_invariants()
    assert cells_of(t.tree_of()) == t
    sig = t.shape_signature()
    assert sig[0] == ()
    assert t.decompose_clopen(t.points[1:]) == [t.children[t.ROOT][1]]


def test_deep_caterpillars_isomorphic_without_recursion():
    # comparing nested signatures 3,000 levels deep recurses in C
    a = cells_of(_caterpillar(3000))
    b = cells_of(_caterpillar(3000))
    assert a.isomorphic_to(b) and b.isomorphic_to(a)
    assert not a.isomorphic_to(cells_of(_caterpillar(2999)))
    # as many points and cells, but two pairs at the bottom
    def pair(x, y):
        return RootedTree(children=[RootedTree(label=x), RootedTree(label=y)])

    node = RootedTree(children=[pair("a", "b"), pair("c", "d")])
    for i in range(2997):
        node = RootedTree(children=[RootedTree(label=f"x{i}"), node])
    other = cells_of(node)
    assert (other.n_points, other.n_cells) == (a.n_points, a.n_cells)
    assert not a.isomorphic_to(other) and not other.isomorphic_to(a)


def test_isomorphic_to_agrees_with_equal_signatures():
    trees = [random_laminar(seed, 3, 6, 3 + seed % 7) for seed in range(60)]
    for t in trees:
        for u in trees:
            assert t.isomorphic_to(u) == (t.shape_signature() == u.shape_signature())
    assert sum(t.isomorphic_to(u) for t in trees for u in trees) > len(trees)


def test_round_trip_random_regression():
    for seed in range(100):
        t = random_laminar(seed, n_points=5 + seed % 25)
        assert cells_of(t.tree_of()) == t


# -- global invariants ----------------------------------------------------------


def test_laminarity_exhaustive_pairs():
    t = random_laminar(9, n_points=18)
    for a in t.cells():
        for b in t.cells():
            ma, mb = t.members[a], t.members[b]
            assert ma.isdisjoint(mb) or ma <= mb or mb <= ma


def test_point_chain_length():
    t = random_laminar(13, n_points=15)
    for i, p in enumerate(t.points):
        chain = [c for c in t.cells() if i in t.members[c]]
        leaf = t.leaf_of[i]
        assert len(chain) == t.depth[leaf] + 1


def test_cell_count_bound():
    for seed in range(30):
        t = random_laminar(seed, n_points=2 + seed)
        assert t.n_cells <= 2 * t.n_points - 1
