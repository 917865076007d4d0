"""Cell-tree building and validation against slow reference loops.

`CellTree._from_member_sets` finds parents and overlaps with one owner pass,
and `check_invariants` proves laminarity with one walk from the root.  The
reference functions below are the pairwise loops they replaced: the
nearest-superset search, the pairwise overlap scan of `validate_family` and
the pairwise laminarity check.  The property tests perturb the families of
`random_laminar` trees (shuffled order, duplicate sets, missing singletons
in strict and lenient mode, injected sets that may overlap) and compare
verdicts, exception types and accepted trees field by field.

`cells_of` reads the canonical tree straight off its rooted tree in one
preorder walk.  Its reference, `ref_cells_of`, is the set-based build it
replaced: the leaf-label set below every vertex, then the nearest-superset
search.

A CellTree stores no point sets: a cell's points are its run of
`leaf_order`, and `members` is built from the runs.  The reference trees
keep the sets they were built from as their `members`, and every tree
comparison checks both the runs and `members` against them: on tree-form
input, on families whose point order is not the leaf order, on induced
substructures, and on the cluster trees that single linkage finds on
ultrametric tables with permuted labels.
"""

import random
from collections import Counter
from dataclasses import fields
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cellspace import (
    CellTree,
    MetricTable,
    RootedTree,
    cells_of,
    metrics,
    random_laminar,
    synthesize_regular_weight,
    ultrametric_from_weight,
    validate_family,
)
from cellspace.errors import DuplicateLeafLabel, NotABase, Overlap


def ref_from_member_sets(points, sets) -> CellTree:
    points = tuple(points)
    fam = sorted(set(sets), key=lambda s: (-len(s), min(s)))
    # nearest strict superset = parent (supersets of a set form a chain)
    parent_of = {fam[0]: None}
    kids = {s: [] for s in fam}
    for i, s in enumerate(fam[1:], start=1):
        best = None
        for t in fam[:i]:
            if s < t and (best is None or len(t) < len(best)):
                best = t
        parent_of[s] = best
        kids[best].append(s)
    for s in kids:
        kids[s].sort(key=min)
    order = []
    stack = [fam[0]]
    while stack:
        s = stack.pop()
        order.append(s)
        stack.extend(reversed(kids[s]))
    ids = {s: i for i, s in enumerate(order)}
    parent = tuple(None if parent_of[s] is None else ids[parent_of[s]] for s in order)
    children = tuple(tuple(ids[k] for k in kids[s]) for s in order)
    depth = [0] * len(order)
    for i in range(len(order)):
        if parent[i] is not None:
            depth[i] = depth[parent[i]] + 1
    leaf_of = [0] * len(points)
    for i, s in enumerate(order):
        if len(s) == 1 and not children[i]:
            leaf_of[next(iter(s))] = i
    tree = CellTree(
        points=points,
        parent=parent,
        children=children,
        depth=tuple(depth),
        leaf_of=tuple(leaf_of),
    )
    tree.__dict__["members"] = tuple(order)  # the reference keeps its own sets
    return tree


def ref_validate_family(points, subsets, strict=True) -> CellTree:
    """The pairwise scan; raises Overlap on the first pair in input order."""
    points = tuple(points)
    n = len(points)
    fam, seen = [], set()
    for s in subsets:
        fs = frozenset(s)
        if fs not in seen:
            seen.add(fs)
            fam.append(fs)
    for i, a in enumerate(fam):
        for b in fam[i + 1 :]:
            inter = a & b
            if inter and not (a <= b or b <= a):
                raise Overlap(
                    {points[k] for k in a},
                    {points[k] for k in b},
                    (points[min(inter)], points[min((a | b) - inter)]),
                )
    for i in range(n):
        if frozenset({i}) not in seen:
            if strict:
                raise NotABase(points[i])
            fam.append(frozenset({i}))
    return ref_from_member_sets(points, fam)


def ref_laminar_violation(tree: CellTree):
    """First pair of cells that are neither disjoint nor nested, or None."""
    for a in tree.cells():
        for b in tree.cells():
            ma, mb = tree.members[a], tree.members[b]
            if not (ma.isdisjoint(mb) or ma <= mb or mb <= ma):
                return a, b
    return None


def _outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs), None
    except (Overlap, NotABase) as e:
        return None, e


def _assert_same_tree(got: CellTree, want: CellTree):
    for f in fields(CellTree):
        assert getattr(got, f.name) == getattr(want, f.name), f.name
    order, runs = got.leaf_order
    assert sorted(order.tolist()) == list(range(got.n_points))
    assert [frozenset(order[run].tolist()) for run in runs] == list(want.members)
    assert got.members == want.members


def _assert_true_overlap(e: Overlap, points, family):
    index = {p: i for i, p in enumerate(points)}
    a = frozenset(index[p] for p in e.a)
    b = frozenset(index[p] for p in e.b)
    assert a in family and b in family
    assert a & b and not a <= b and not b <= a
    assert e.witness == (points[min(a & b)], points[min(a ^ b)])


@st.composite
def families(draw):
    """(points, subsets, strict) from a perturbed random laminar family."""
    tree = random_laminar(
        draw(st.integers(0, 10**6)),
        draw(st.integers(2, 4)),
        8,
        draw(st.integers(1, 24)),
    )
    n = tree.n_points
    rng = random.Random(draw(st.integers(0, 10**6)))
    cells = list(tree.members)
    if draw(st.booleans()):  # drop singletons; members[0] is the full set
        cells = cells[:1] + [c for c in cells[1:] if len(c) > 1 or rng.random() < 0.7]
    for _ in range(draw(st.integers(0, 3))):  # duplicates
        cells.append(rng.choice(cells))
    for _ in range(draw(st.integers(0, 2))):  # injected sets, often overlapping
        if rng.random() < 0.5:
            lo = rng.randrange(n)
            cells.append(frozenset(range(lo, rng.randrange(lo, n) + 1)))
        else:
            cells.append(frozenset(rng.sample(range(n), rng.randint(1, n))))
    if draw(st.booleans()):
        rng.shuffle(cells)
    if draw(st.booleans()):  # point order no longer the leaf order
        perm = rng.sample(range(n), n)
        cells = [frozenset(perm[i] for i in c) for c in cells]
    return tree.points, cells, draw(st.booleans())


ORACLE = settings(max_examples=400, deadline=None, database=None)


@ORACLE
@given(case=families())
def test_validate_family_matches_pairwise_scan(case):
    points, cells, strict = case
    got, err = _outcome(validate_family, points, cells, strict=strict)
    want, ref_err = _outcome(ref_validate_family, points, cells, strict=strict)
    assert type(err) is type(ref_err)
    if isinstance(err, Overlap):
        _assert_true_overlap(err, points, {frozenset(c) for c in cells})
    elif isinstance(err, NotABase):
        assert err.point == ref_err.point
    else:
        _assert_same_tree(got, want)
        got.check_invariants()
        assert ref_laminar_violation(got) is None


@ORACLE
@given(seed=st.integers(0, 10**6), n=st.integers(1, 40), branch=st.integers(2, 5))
def test_from_member_sets_matches_nearest_superset(seed, n, branch):
    tree = random_laminar(seed, branch, 8, n)
    cells = list(tree.members)
    random.Random(seed).shuffle(cells)
    _assert_same_tree(CellTree._from_member_sets(tree.points, cells), tree)
    _assert_same_tree(ref_from_member_sets(tree.points, cells), tree)
    sub = tree.induced_substructure(random.Random(seed).sample(tree.points, n // 2 + 1))
    index = {p: i for i, p in enumerate(sub.points)}
    fam = {
        frozenset(index[tree.points[i]] for i in m if tree.points[i] in index)
        for m in tree.members
    } - {frozenset()}
    _assert_same_tree(sub, ref_from_member_sets(sub.points, fam))
    _assert_same_tree(cells_of(tree.tree_of()), tree)
    # the same family with its points renumbered, and one of its restrictions
    rng = random.Random(seed)
    perm = rng.sample(range(n), n)
    shuffled = [frozenset(perm[i] for i in m) for m in cells]
    got = CellTree._from_member_sets(tree.points, shuffled)
    _assert_same_tree(got, ref_from_member_sets(tree.points, shuffled))
    keep = set(rng.sample(range(n), n // 2 + 1))
    index = {i: k for k, i in enumerate(sorted(keep))}
    fam = {frozenset(index[i] for i in m if i in keep) for m in shuffled} - {frozenset()}
    sub = got.induced_substructure([tree.points[i] for i in keep])
    _assert_same_tree(sub, ref_from_member_sets(sub.points, fam))


@ORACLE
@given(case=families())
def test_check_invariants_agrees_with_pairwise_laminarity(case):
    points, cells, _ = case
    tree, err = _outcome(validate_family, points, cells, strict=False)
    if err is not None:
        return
    tree.check_invariants()
    assert ref_laminar_violation(tree) is None


def test_overlap_pair_is_the_most_recent_owner():
    # The pairwise scan reports ({0,1}, {1,2,3}) in input order.  The pass
    # takes the larger {1,2,3} first, so {0,1} finds two owners, the root and
    # {1,2,3}, and the more recent one is a.
    points = ("a", "b", "c", "d")
    family = [{0, 1, 2, 3}, {0, 1}, {1, 2, 3}, {0}, {1}, {2}, {3}]
    with pytest.raises(Overlap) as exc:
        validate_family(points, family)
    assert exc.value.a == {"b", "c", "d"} and exc.value.b == {"a", "b"}
    assert exc.value.witness == ("b", "a")


# -- cells_of against the set-based build ------------------------------------


def ref_cells_of(tree: RootedTree) -> CellTree:
    nodes = tree.preorder()
    idx: dict[str, int] = {}
    for node in nodes:
        if node.is_leaf():
            if node.label is None or node.label in idx:
                raise DuplicateLeafLabel(node.label)
            idx[node.label] = len(idx)
    cell: dict[int, frozenset[int]] = {}  # id(vertex) -> leaf indices below it
    for node in reversed(nodes):  # children before their parent
        if node.is_leaf():
            cell[id(node)] = frozenset({idx[node.label]})
        else:
            cell[id(node)] = frozenset().union(*(cell[id(ch)] for ch in node.children))
    return ref_from_member_sets(tuple(idx), cell.values())


def random_rooted(rng: random.Random, n: int) -> RootedTree:
    """A rooted tree on n leaves with shuffled labels, where any vertex (the
    root, a mid-tree vertex or a leaf) may sit below a unary chain."""
    labels = [f"q{i}" for i in rng.sample(range(10 * n), n)]
    root = RootedTree()
    stack = [(root, labels)]
    while stack:
        node, labs = stack.pop()
        for _ in range(rng.choice((0, 0, 0, 1, 2))):
            node.children = [RootedTree()]
            node = node.children[0]
        if len(labs) == 1:
            node.label = labs[0]
            continue
        k = rng.randint(2, min(4, len(labs)))
        cuts = [0, *sorted(rng.sample(range(1, len(labs)), k - 1)), len(labs)]
        node.children = [RootedTree() for _ in range(k)]
        stack.extend(zip(node.children, (labs[a:b] for a, b in zip(cuts, cuts[1:]))))
    return root


def spoil(rng: random.Random, root: RootedTree) -> str:
    """Break the tree in place: a None label, a repeated label or a subtree
    hung in a second place (a DAG, never a cycle).  Returns which."""
    nodes = root.preorder()
    leaves = [v for v in nodes if v.is_leaf()]
    kind = rng.choice(("none", "repeat", "share"))
    if kind == "none":
        rng.choice(leaves).label = None
    elif kind == "repeat" and len(leaves) > 1:
        a, b = rng.sample(leaves, 2)
        b.label = a.label
    elif kind == "share" and len(nodes) > 2:
        shared = rng.choice(nodes[1:])
        below = {id(v) for v in shared.preorder()}
        slots = [(v, i) for v in nodes if id(v) not in below for i in range(len(v.children))]
        v, i = rng.choice(slots)
        v.children[i] = shared
    return kind


def _cells_of_outcome(fn, root):
    try:
        return fn(root), None
    except DuplicateLeafLabel as e:
        return None, e


def test_cells_of_matches_set_based_build():
    rng = random.Random(20261019)
    raised = Counter()
    for trial in range(3000):
        root = random_rooted(rng, rng.choice((1, 1, 2, 3, rng.randint(4, 40))))
        kind = spoil(rng, root) if trial % 3 == 0 else "clean"
        got, err = _cells_of_outcome(cells_of, root)
        want, ref_err = _cells_of_outcome(ref_cells_of, root)
        if ref_err is not None:
            assert err is not None and err.label == ref_err.label, (trial, kind)
            raised[kind] += 1
            continue
        assert err is None, (trial, kind)
        _assert_same_tree(got, want)
        got.check_invariants()
    assert min(raised[k] for k in ("none", "repeat", "share")) > 100, raised


def test_cells_of_unary_chains_and_single_leaf():
    def chain(node, length):
        for _ in range(length):
            node = RootedTree(children=[node])
        return node

    leaf = RootedTree(label="x")
    for root in (leaf, chain(leaf, 3)):
        _assert_same_tree(cells_of(root), ref_cells_of(root))
        assert cells_of(root).points == ("x",)
    # chains at the root, mid-tree and just above a leaf
    inner = RootedTree(children=[chain(RootedTree(label="b"), 2), RootedTree(label="c")])
    root = chain(RootedTree(children=[RootedTree(label="a"), chain(inner, 4)]), 5)
    got = cells_of(root)
    _assert_same_tree(got, ref_cells_of(root))
    assert got.points == ("a", "b", "c") and got.n_cells == 5
    assert got.children == ((1, 2), (), (3, 4), (), ())


def test_cells_of_reports_the_first_bad_leaf_in_preorder():
    shared = RootedTree(children=[RootedTree(label="s"), RootedTree(label="t")])
    cases = [
        (RootedTree(children=[RootedTree(label="a"), RootedTree(), RootedTree(label="a")]), None),
        (RootedTree(children=[RootedTree(label="a"), RootedTree(label="a"), RootedTree()]), "a"),
        (RootedTree(children=[shared, RootedTree(children=[RootedTree(label="u"), shared])]), "s"),
    ]
    for root, label in cases:
        with pytest.raises(DuplicateLeafLabel) as exc:
            cells_of(root)
        assert exc.value.label == label
        with pytest.raises(DuplicateLeafLabel) as ref_exc:
            ref_cells_of(root)
        assert ref_exc.value.label == label


# -- the cluster trees of single linkage ----------------------------------------


def ref_balls(kernel: np.ndarray) -> set:
    """Every closed ball B(x, d(x, y)) of a table, as a set of point indices."""
    return {frozenset(np.flatnonzero(row <= r).tolist()) for row in kernel for r in set(row.tolist())}


def check_single_linkage(seed: int, n: int, branch: int) -> CellTree:
    tree = random_laminar(seed, branch, 8, n)
    table = ultrametric_from_weight(tree, synthesize_regular_weight(tree, Fraction(1, 3)))
    perm = random.Random(seed).sample(range(n), n)
    kernel = table.kernel[np.ix_(perm, perm)]
    labels = tuple(tree.points[i] for i in perm)
    got, _ = metrics._single_linkage(MetricTable.from_kernel(labels, kernel, table.den))
    # the closed balls of an ultrametric built from strictly decreasing weights are its cells
    _assert_same_tree(got, ref_from_member_sets(labels, ref_balls(kernel)))
    return got


@ORACLE
@given(seed=st.integers(0, 10**6), n=st.integers(1, 40), branch=st.integers(2, 5))
def test_single_linkage_runs_are_the_balls_of_a_relabeled_ultrametric(seed, n, branch):
    check_single_linkage(seed, n, branch)


def test_relabeled_inputs_reach_leaf_orders_that_are_not_the_point_order():
    got = check_single_linkage(7, 30, 3)
    assert (got.leaf_order[0] != np.arange(30)).any()
    family = validate_family(got.points, got.members)
    assert (family.leaf_order[0] != np.arange(30)).any()
    _assert_same_tree(family, ref_validate_family(got.points, got.members))
