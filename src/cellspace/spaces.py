"""Constructors for canonical cellular spaces.

Products of finite alphabets, tree ray spaces, middle-thirds Cantor and fat
Cantor truncations with exact rational interval embeddings, and seeded random
laminar trees.  A depth-L truncation represents the infinite space exactly
for every pair of points separated before level L; deeper structure is
collapsed into the leaves.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat

from .celltree import CellTree, RootedTree, cells_of
from .errors import BadAlphabetSize, BadProportion, BrokenCellTree

MAX_POINTS = 2**20
"""The most points a generator builds.  Every metric check reads an n x n
table, so spaces far smaller than this are already slow; the cap turns a
mistyped size (``cantor --depth 40``) into a ValueError before anything is
built, instead of a run that never ends."""


def _check_points(level_sizes) -> None:
    """Raise ValueError when the product of the level sizes exceeds
    MAX_POINTS; stops multiplying as soon as it does."""
    n = 1
    for k in level_sizes:
        n *= k
        if n > MAX_POINTS:
            raise ValueError(f"more than MAX_POINTS = {MAX_POINTS} points requested")


@dataclass(frozen=True)
class ProductSpec:
    """Alphabet sizes per level of a finite product; every size must be >= 2."""

    sizes: tuple[int, ...]

    def __post_init__(self):
        if not self.sizes:
            raise BadAlphabetSize("a product needs at least one level")
        for n in self.sizes:
            if not isinstance(n, int) or n < 2:
                raise BadAlphabetSize(f"level size {n!r} is not an integer >= 2")

    @property
    def depth(self) -> int:
        return len(self.sizes)

    @property
    def n_points(self) -> int:
        out = 1
        for n in self.sizes:
            out *= n
        return out

    def labels(self) -> list[str]:
        """Coordinate strings in lexicographic order.

        Digits are concatenated while every alphabet fits in 0..9; larger
        alphabets fall back to dot-separated indices.
        """
        return _coordinates(self.sizes, "" if max(self.sizes) <= 10 else ".")


def _coordinates(sizes, sep: str, prefix: str = "") -> list[str]:
    """`prefix` followed by the coordinates joined by `sep`, for every
    coordinate tuple in lexicographic order: one level at a time."""
    out = [prefix]
    for level, k in enumerate(sizes):
        digits = [(sep if level else "") + str(j) for j in range(k)]
        out = [head + d for head in out for d in digits]
    return out


def _complete(sizes, leaf_labels) -> CellTree:
    """`cells_of` the complete tree whose depth-l vertices have sizes[l]
    children, its leaves labelled in order; one walk from a stack gives
    the flat preorder form, so no recursion limit caps the depth."""
    up: list[int | None] = []
    labels: list[str | None] = []
    leaves, stack = iter(leaf_labels), [(None, 0)]
    while stack:
        p, level = stack.pop()
        up.append(p)
        if level == len(sizes):
            labels.append(next(leaves))
        else:
            labels.append(None)
            stack.extend(repeat((len(up) - 1, level + 1), sizes[level]))
    return cells_of(up, labels)


def product_space(spec: ProductSpec) -> CellTree:
    """Complete tree of the product cellular structure.

    Depth-l cells are exactly the sets of points sharing their first l
    coordinates; leaves are the coordinate strings, in preorder from the
    sizes (`_complete`), with no tree object per vertex.
    """
    _check_points(spec.sizes)
    sep = "" if max(spec.sizes) <= 10 else "."
    tree = _complete(spec.sizes, _coordinates(spec.sizes, sep))
    if tree.points != tuple(spec.labels()):
        raise BrokenCellTree("product tree points are not the coordinate strings")
    return tree


def ray_space(tree: RootedTree) -> CellTree:
    """Cellular structure on the rays of a finite rooted tree.

    Rays of a finite tree correspond to its leaves; the cell of a vertex v
    is the set of rays passing through v.  Vertices with a single child
    determine the same ray set as that child and collapse to one cell.
    Unlabeled leaves are named by their root-to-leaf child-index path.
    One walk from a stack gives `cells_of` the flat preorder form, so no
    recursion limit caps the depth.
    """
    up: list[int | None] = []
    labels: list[str | None] = []
    stack: list = [(tree, None, ())]
    while stack:
        node, p, path = stack.pop()
        kids = node.children
        stack.extend([(kids[i], len(up), (*path, i)) for i in reversed(range(len(kids)))])
        up.append(p)
        unnamed = not kids and node.label is None
        labels.append("r" + ".".join(map(str, path)) if unnamed else node.label)
    return cells_of(up, labels)


def complete_rays(arity: int, depth: int) -> CellTree:
    """`ray_space(complete_tree(arity, depth))`, built from the sizes
    (`_complete`) with no tree object per vertex; arity 1 collapses to the
    single point r0.0...0."""
    if arity < 1 or depth < 0:
        raise ValueError("need arity >= 1 and depth >= 0")
    _check_points(repeat(arity, depth))
    return _complete((arity,) * depth, _coordinates((arity,) * depth, ".", "r"))


def complete_tree(arity: int, depth: int) -> RootedTree:
    """Complete rooted tree where every vertex above the leaves has `arity`
    children; handy input for ray_space.  Built bottom-up, one level at a
    time, so no recursion limit caps the depth."""
    if arity < 1 or depth < 0:
        raise ValueError("need arity >= 1 and depth >= 0")
    _check_points(repeat(arity, depth))
    level = [RootedTree() for _ in range(arity**depth)]
    for _ in range(depth):
        level = [RootedTree(children=level[i : i + arity]) for i in range(0, len(level), arity)]
    return level[0]


@dataclass(frozen=True)
class IntervalEmbedding:
    """Exact per-leaf closed intervals on the line plus stage gap proportions.

    Leaf interval order agrees with leaf point order, intervals are pairwise
    disjoint, and a cell's hull is the convex span of its leaves' intervals.
    Facing gap endpoints belong to the limit set, so hull lengths and gap
    widths are the exact diameters and separations of the truncated cells.
    """

    intervals: tuple[tuple[Fraction, Fraction], ...]
    thetas: tuple[Fraction, ...]

    def __post_init__(self):
        for i, (left, right) in enumerate(self.intervals):
            if right < left:
                raise ValueError(f"interval with negative length: point {i} [{left}, {right}]")
            if i and left <= self.intervals[i - 1][1]:
                a, b = self.intervals[i - 1]
                raise ValueError(
                    "leaf intervals overlap or touch: "
                    f"point {i - 1} [{a}, {b}] and point {i} [{left}, {right}]"
                )


def _interval_tree(depth: int, thetas: list[Fraction]):
    """Binary interval construction: at stage n split each interval of
    length L into two of length (1 - theta_n) L / 2 separated by theta_n L."""
    intervals = [(Fraction(0), Fraction(1))]
    for th in thetas:
        nxt = []
        for a, b in intervals:
            length = b - a
            child = (1 - th) * length / 2
            nxt.append((a, a + child))
            nxt.append((b - child, b))
        intervals = nxt
    tree = product_space(ProductSpec(sizes=(2,) * depth))
    return tree, IntervalEmbedding(tuple(intervals), tuple(thetas))


def cantor(depth: int) -> tuple[CellTree, IntervalEmbedding]:
    """Middle-thirds Cantor construction truncated at the given depth."""
    if depth < 1:
        raise ValueError("depth must be >= 1")
    _check_points(repeat(2, depth))
    return _interval_tree(depth, [Fraction(1, 3)] * depth)


def default_fat_thetas(depth: int) -> list[Fraction]:
    return [Fraction(1, 2 ** (n + 2)) for n in range(depth)]


def fat_cantor(depth: int, thetas=None) -> tuple[CellTree, IntervalEmbedding]:
    """Fat Cantor truncation: gap proportions shrink so the limit set keeps
    positive length.  Default schedule theta_n = 2^-(n+2)."""
    if depth < 1:
        raise ValueError("depth must be >= 1")
    _check_points(repeat(2, depth))
    if thetas is None:
        thetas = default_fat_thetas(depth)
    thetas = [Fraction(t) for t in thetas]
    if len(thetas) != depth:
        raise BadProportion(f"need {depth} stage proportions, got {len(thetas)}")
    for t in thetas:
        if not (0 < t < 1):
            raise BadProportion(f"gap proportion {t} outside (0, 1)")
    return _interval_tree(depth, thetas)


def _capped_power(base: int, exp: int, limit: int) -> int:
    """min(base**exp, limit) for base >= 2, without the full power."""
    if exp >= limit.bit_length():  # base**exp >= 2**exp > limit
        return limit
    return min(base**exp, limit)


def random_laminar(
    seed: int, max_branch: int = 4, max_depth: int = 8, n_points: int = 16
) -> CellTree:
    """Seed-deterministic random laminar tree on points p0..p{n-1}.

    Every internal node gets between 2 and max_branch children, never deeper
    than max_depth.  The generator is random.Random(seed) (Mersenne Twister)
    consumed in document order: child count first, then child sizes left to
    right.  One walk from a stack gives `cells_of` the flat preorder form,
    so no recursion limit caps the depth.
    """
    if max_branch < 2 or max_depth < 1 or n_points < 1:
        raise ValueError("need max_branch >= 2, max_depth >= 1, n_points >= 1")
    _check_points([n_points])
    reach = _capped_power(max_branch, max_depth, n_points)
    if reach < n_points:  # then reach is the full power
        raise ValueError(f"max_branch**max_depth = {reach} < {n_points} points")
    rng = random.Random(seed)
    up: list[int | None] = []
    labels: list[str | None] = []
    stack = [(None, 0, n_points, max_depth)]
    while stack:  # preorder, children left to right: the document order
        p, lo, hi, levels_left = stack.pop()
        v = len(up)
        up.append(p)
        size = hi - lo
        if size == 1:
            labels.append(f"p{lo}")
            continue
        labels.append(None)
        # leaves per child, clamped to the size being split: any cap >= size
        # draws the same kmin, lo_sz and hi_sz
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
            kids.append((v, hi - rem, hi - rem + s, levels_left - 1))
            rem -= s
        stack.extend(reversed(kids))
    return cells_of(up, labels)
