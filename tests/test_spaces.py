"""Canonical space constructors.

Covers: product trees and their cell counts, ray spaces and their identity
with products on complete trees, exact middle-thirds and fat Cantor interval
arithmetic, and determinism of the random laminar generator.
"""

import hashlib
from fractions import Fraction as F

import pytest

from cellspace import (
    ProductSpec,
    cantor,
    cells_of,
    complete_tree,
    fat_cantor,
    product_space,
    random_laminar,
    ray_space,
    validate_family,
)
from cellspace.celltree import RootedTree
from cellspace.errors import BadAlphabetSize, BadProportion, BrokenCellTree
from cellspace.spaces import default_fat_thetas


def test_product_2_2_counts():
    t = product_space(ProductSpec((2, 2)))
    assert t.n_points == 4 and t.n_cells == 7


def test_product_single_level():
    t = product_space(ProductSpec((2,)))
    assert t.n_points == 2 and t.n_cells == 3


def test_product_3_2_root_children():
    t = product_space(ProductSpec((3, 2)))
    assert len(t.children[t.ROOT]) == 3
    assert all(len(t.members[c]) == 2 for c in t.children[t.ROOT])


def test_product_bad_alphabet():
    with pytest.raises(BadAlphabetSize):
        ProductSpec((2, 1))
    with pytest.raises(BadAlphabetSize):
        ProductSpec(())


def test_product_cells_are_prefix_sets():
    t = product_space(ProductSpec((2, 3)))
    fams = {frozenset(t.cell_points(c)) for c in t.cells()}
    for prefix_len in range(3):
        for p in t.points:
            cell = frozenset(q for q in t.points if q[:prefix_len] == p[:prefix_len])
            assert cell in fams


def test_ray_space_example():
    tree = RootedTree(
        children=[
            RootedTree(label="a"),
            RootedTree(children=[RootedTree(label="b1"), RootedTree(label="b2")]),
        ]
    )
    t = ray_space(tree)
    assert t.n_points == 3
    fams = {frozenset(t.cell_points(c)) for c in t.cells()}
    assert fams == {
        frozenset({"a", "b1", "b2"}),
        frozenset({"a"}),
        frozenset({"b1", "b2"}),
        frozenset({"b1"}),
        frozenset({"b2"}),
    }


def test_ray_space_path_collapses():
    node = RootedTree(label="end")
    for _ in range(5):
        node = RootedTree(children=[node])
    t = ray_space(node)
    assert t.n_cells == 1 and t.n_points == 1


def test_ray_space_complete_binary_equals_product():
    t1 = ray_space(complete_tree(2, 3))
    t2 = product_space(ProductSpec((2, 2, 2)))
    assert t1.isomorphic_to(t2)


def test_ray_space_autolabels_are_distinct():
    t = ray_space(complete_tree(3, 2))
    assert len(set(t.points)) == 9


def test_cantor_depth1_and_2():
    _, emb1 = cantor(1)
    assert emb1.intervals == ((F(0), F(1, 3)), (F(2, 3), F(1)))
    _, emb2 = cantor(2)
    assert emb2.intervals == (
        (F(0), F(1, 9)),
        (F(2, 9), F(1, 3)),
        (F(2, 3), F(7, 9)),
        (F(8, 9), F(1)),
    )


def test_cantor_hull_lengths():
    tree, emb = cantor(4)
    for c in tree.cells():
        lo = min(emb.intervals[i][0] for i in tree.members[c])
        hi = max(emb.intervals[i][1] for i in tree.members[c])
        assert hi - lo == F(1, 3) ** tree.depth[c]


def test_fat_cantor_depth1_default():
    _, emb = fat_cantor(1)
    assert emb.intervals == ((F(0), F(3, 8)), (F(5, 8), F(1)))
    assert emb.intervals[1][0] - emb.intervals[0][1] == F(1, 4)


def test_fat_cantor_stage_ratios():
    tree, emb = fat_cantor(5)
    hulls = {}
    for c in sorted(tree.cells(), key=lambda c: -tree.depth[c]):
        lo = min(emb.intervals[i][0] for i in tree.members[c])
        hi = max(emb.intervals[i][1] for i in tree.members[c])
        hulls[c] = (lo, hi)
    for c in tree.internal_cells():
        n = tree.depth[c]
        plen = hulls[c][1] - hulls[c][0]
        th = F(1, 2 ** (n + 2))
        a, b = tree.children[c]
        for k in (a, b):
            assert (hulls[k][1] - hulls[k][0]) / plen == (1 - th) / 2
        assert (hulls[b][0] - hulls[a][1]) / plen == th


def test_fat_cantor_fatness():
    for depth in range(1, 9):
        _, emb = fat_cantor(depth)
        total = sum(b - a for a, b in emb.intervals)
        expect = F(1)
        for th in default_fat_thetas(depth):
            expect *= 1 - th
        assert total == expect
        # limit lower bound: the infinite product stays positive
        assert float(total) > 0.57


def test_interval_embedding_invariants():
    from cellspace import IntervalEmbedding

    with pytest.raises(ValueError):
        IntervalEmbedding(((F(0), F(1, 2)), (F(1, 3), F(1))), (F(1, 3),))
    with pytest.raises(ValueError):
        IntervalEmbedding(((F(1, 2), F(0)),), ())


def test_fat_cantor_bad_theta():
    with pytest.raises(BadProportion):
        fat_cantor(2, [F(1, 2), F(3, 2)])
    with pytest.raises(BadProportion):
        fat_cantor(2, [F(1, 2)])


def test_random_laminar_deterministic():
    a = random_laminar(7, n_points=20)
    b = random_laminar(7, n_points=20)
    assert a == b
    c = random_laminar(8, n_points=20)
    assert a != c


def test_random_laminar_self_consistent():
    for seed in range(25):
        t = random_laminar(seed, n_points=4 + seed)
        fam = [set(t.members[c]) for c in t.cells()]
        rebuilt = validate_family(t.points, fam)
        assert rebuilt == t
        t.check_invariants()


def test_random_laminar_bounds():
    with pytest.raises(ValueError):
        random_laminar(0, max_branch=2, max_depth=3, n_points=9)
    t = random_laminar(0, max_branch=2, max_depth=4, n_points=9)
    assert max(t.depth[c] for c in t.cells()) <= 4


# sha256 prefixes of (shape_signature, sorted member lists) of seeded trees,
# recorded from the generator that computed max_branch**levels exactly; the
# tight cases (2**5 = 32, 3**3 = 27, 5**2 = 25 points) clamp at every level
RANDOM_LAMINAR_PINS = {
    (7, 4, 8, 20): "cf071b7725370300",
    (3, 2, 5, 32): "5e5971c48172b748",
    (11, 3, 3, 27): "6d8d242612fd3a22",
    (5, 2, 24, 300): "df7bfb6757e11cbf",
    (9, 4, 3, 50): "20aa298eb710495b",
    (1, 3, 40, 200): "8f2f7cf2f641a12a",
    (2, 5, 2, 25): "8e014038852de509",
}


@pytest.mark.parametrize("args", sorted(RANDOM_LAMINAR_PINS))
def test_random_laminar_draws_are_pinned(args):
    t = random_laminar(*args)
    members = sorted(sorted(m) for m in t.members)
    digest = hashlib.sha256(repr((t.shape_signature(), members)).encode()).hexdigest()
    assert digest[:16] == RANDOM_LAMINAR_PINS[args]


def test_random_laminar_small_tree_is_pinned():
    t = random_laminar(0, 2, 4, 9)
    assert t.shape_signature() == (((), ()), (((), ((), ())), (((), ()), ((), ()))))
    assert sorted(sorted(m) for m in t.members if len(m) > 1) == [
        [0, 1], [0, 1, 2, 3], [0, 1, 2, 3, 4, 5, 6], [0, 1, 2, 3, 4, 5, 6, 7, 8],
        [2, 3], [4, 5], [4, 5, 6], [7, 8],
    ]


def test_random_laminar_huge_depth_is_cheap():
    # the cap on leaves per child never exceeds the points being split
    assert random_laminar(1, 3, 10**7, 20) == random_laminar(1, 3, 20, 20)
    with pytest.raises(ValueError, match=r"max_branch\*\*max_depth = 8 < 9 points"):
        random_laminar(0, max_branch=2, max_depth=3, n_points=9)


def test_round_trip_through_rays():
    t = random_laminar(42, n_points=12)
    assert cells_of(t.tree_of()) == t
    assert ray_space(t.tree_of()) == t


def test_product_space_raises_when_points_miss_the_coordinates(monkeypatch):
    # the tree's points must be the coordinate strings in order; a check
    # that raises, not an assert, so it also holds under python -O
    monkeypatch.setattr(
        ProductSpec, "labels", lambda self: ["x" + str(i) for i in range(self.n_points)]
    )
    with pytest.raises(BrokenCellTree):
        product_space(ProductSpec((2, 2)))
