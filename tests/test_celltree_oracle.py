"""Cell-tree building and validation against slow reference loops.

`CellTree._from_member_sets` finds parents and overlaps with one owner pass,
and `check_invariants` proves laminarity with one walk from the root.  The
reference functions below are the pairwise loops they replaced: the
nearest-superset search, the pairwise overlap scan of `validate_family` and
the pairwise laminarity check.  The property tests perturb the families of
`random_laminar` trees (shuffled order, duplicate sets, missing singletons
in strict and lenient mode, injected sets that may overlap) and compare
verdicts, exception types and accepted trees field by field.
"""

import random
from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cellspace import CellTree, cells_of, random_laminar, validate_family
from cellspace.errors import NotABase, Overlap


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
    return CellTree(
        points=points,
        parent=parent,
        children=children,
        members=tuple(order),
        depth=tuple(depth),
        leaf_of=tuple(leaf_of),
    )


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
