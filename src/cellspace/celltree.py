"""Finite cellular structures as laminar families over a point set.

A cellular structure on a finite point set is a family of nonempty subsets
(cells) containing the full set and every singleton, in which any two cells
are disjoint or nested.  Such a family is exactly a rooted tree: the root is
the full set, the leaves are the singletons, and the children of a cell are
its maximal proper sub-cells.  ``CellTree`` is the canonical form of that
tree: node ids are ints assigned in depth-first preorder, children ordered by
smallest contained point index, and cells with equal point sets collapsed.
In the preorder walk each cell's points are one run [start, stop) of the
leaves (`CellTree.leaf_order`), which is how the tree stores them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
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


@dataclass
class RootedTree:
    """Abstract rooted tree; leaves may carry a point label."""

    label: str | None = None
    children: list["RootedTree"] = field(default_factory=list)

    def is_leaf(self) -> bool:
        return not self.children

    def preorder(self) -> list["RootedTree"]:
        """Vertices in depth-first preorder, children left to right."""
        out = []
        stack = [self]
        while stack:
            node = stack.pop()
            out.append(node)
            stack.extend(reversed(node.children))
        return out

    def leaves(self) -> list["RootedTree"]:
        return [node for node in self.preorder() if node.is_leaf()]


@dataclass(frozen=True)
class CellTree:
    """Canonical laminar cell family; immutable after construction.

    Cells are node ids (ints) in depth-first preorder.  Node 0 is the root
    and holds every point; ``leaf_of`` maps each point index to its leaf,
    one point per leaf; every internal node has at least two children.  A
    cell's points are its run of `leaf_order`; ``members[c]``, the frozenset
    of point indices in cell c, is built from the runs on first read.
    """

    points: tuple[str, ...]
    parent: tuple[int | None, ...]
    children: tuple[tuple[int, ...], ...]
    depth: tuple[int, ...]
    leaf_of: tuple[int, ...]  # point index -> leaf node id

    ROOT = 0

    # -- basic queries ---------------------------------------------------

    @property
    def n_points(self) -> int:
        return len(self.points)

    @property
    def n_cells(self) -> int:
        return len(self.parent)

    def cells(self) -> range:
        return range(self.n_cells)

    def is_leaf(self, c: int) -> bool:
        return not self.children[c]

    def leaves(self) -> list[int]:
        return [c for c in self.cells() if self.is_leaf(c)]

    def internal_cells(self) -> list[int]:
        return [c for c in self.cells() if self.children[c]]

    def point_index(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise KeyError(f"unknown point {label!r}") from None

    def cell_points(self, c: int) -> frozenset[str]:
        order, runs = self.leaf_order
        return frozenset(self.points[i] for i in order[runs[c]].tolist())

    @cached_property
    def _index(self) -> dict[str, int]:
        return {p: i for i, p in enumerate(self.points)}

    @cached_property
    def leaf_order(self) -> tuple[np.ndarray, list[slice]]:
        """The points in preorder of their leaves (leaf ids are preorder), and
        each cell's run [start, stop) of them: the one record of which points
        a cell holds.  Between two sibling cells lies a basic slice of a
        matrix permuted into leaf order."""
        return np.argsort(self.leaf_of), _walk(self.children, self.ROOT)[1]

    @cached_property
    def edges(self) -> tuple[np.ndarray, np.ndarray]:
        """The (parent, child) edges as two intp arrays, by parent, then in
        listed order (of preorder ids): each cell's children are one run."""
        parent = np.array(self.parent[1:], dtype=np.intp)
        child = np.argsort(parent, kind="stable")
        return parent[child], child + 1

    @cached_property
    def members(self) -> tuple[frozenset[int], ...]:
        """The frozenset of point indices of each cell, from the runs of `leaf_order`."""
        order, runs = self.leaf_order
        return tuple(map(frozenset, map(order.tolist().__getitem__, runs)))

    # -- construction ----------------------------------------------------

    @classmethod
    def _from_member_sets(cls, points, sets) -> "CellTree":
        """Build from a family that contains the full set and every singleton.

        One pass over the distinct sets in order of decreasing size, ties by
        smallest point.  ``owner[p]`` is the most recently processed (hence
        smallest) set that holds point p; it starts as the full set.  A set
        nests with every earlier set exactly when all its points have the
        same owner, which is then its parent; the set becomes the owner of
        its points.  Cost O(m log m + sum of cell sizes) for m sets.  Only
        family-form input and `induced_substructure` reach it.

        Raises Overlap at the first set b whose points have several owners,
        with a = the most recently processed of those owners.  That a always
        overlaps b without nesting; the witness points are min(a & b) and
        min(a ^ b).
        """
        points = tuple(points)
        fam = sorted(dict.fromkeys(sets), key=lambda s: (-len(s), min(s)))
        owner = [0] * len(points)
        kids: list[list[int]] = [[] for _ in fam]
        for i in range(1, len(fam)):
            s = fam[i]
            owners = {owner[p] for p in s}
            a = max(owners)
            if len(owners) > 1:
                t = fam[a]
                raise Overlap(
                    {points[p] for p in t},
                    {points[p] for p in s},
                    (points[min(t & s)], points[min(t ^ s)]),
                )
            kids[a].append(i)
            for p in s:
                owner[p] = i
        return cls._from_children(points, [min(s) for s in fam], kids, 0)[0]

    @classmethod
    def _from_children(cls, points, mins, kids, root: int) -> tuple["CellTree", list[int]]:
        """The canonical tree of a rooted forest of point sets, given by the
        least point ``mins[i]`` of each set i, and the set of each cell.

        ``kids[i]`` lists the sets directly below set i (sorted in place, by
        least point); they must partition it, and every singleton must be a
        set with no kids, so a set with no kids is the leaf of its least
        point.  Sets not reachable from `root` are left out.  Cells are
        numbered in depth-first preorder.
        """
        order: list[int] = []
        up: list[int | None] = [None] * len(kids)  # the parent of each set
        stack = [root]
        while stack:
            i = stack.pop()
            order.append(i)
            below = kids[i]
            below.sort(key=mins.__getitem__)
            for k in below:
                up[k] = i
            stack.extend(reversed(below))
        ids = [0] * len(kids)
        leaf_of = [0] * len(points)
        for c, i in enumerate(order):
            ids[i] = c
            if not kids[i]:
                leaf_of[mins[i]] = c
        parent = tuple(None if up[i] is None else ids[up[i]] for i in order)
        children = tuple(tuple(ids[k] for k in kids[i]) for i in order)
        depth_list = [0] * len(order)
        for c in range(1, len(order)):  # preorder: a parent before its children
            depth_list[c] = depth_list[parent[c]] + 1
        return cls(tuple(points), parent, children, tuple(depth_list), tuple(leaf_of)), order

    # -- structural navigation -------------------------------------------

    def ancestors(self, c: int) -> list[int]:
        """Strictly increasing chain of proper supersets of c, up to the root."""
        out = []
        p = self.parent[c]
        while p is not None:
            out.append(p)
            p = self.parent[p]
        return out

    def minimal_cell(self, x: str, y: str) -> int:
        """Lowest common ancestor of the leaves of x and y."""
        a = self.leaf_of[self.point_index(x)]
        b = self.leaf_of[self.point_index(y)]
        while self.depth[a] > self.depth[b]:
            a = self.parent[a]
        while self.depth[b] > self.depth[a]:
            b = self.parent[b]
        while a != b:
            a = self.parent[a]
            b = self.parent[b]
        return a

    def decompose_clopen(self, labels) -> list[int]:
        """Cells maximal among those contained in the given point set.

        The result is the unique minimal disjoint cell cover of the set;
        empty iff the set is empty.
        """
        want = {self.point_index(p) for p in labels}
        out: list[int] = []
        stack = [self.ROOT] if want else []
        while stack:
            c = stack.pop()
            m = self.members[c]
            if m <= want:
                out.append(c)
            elif not m.isdisjoint(want):
                stack.extend(reversed(self.children[c]))
        return out

    def complete_partition(self, cs) -> list[int]:
        """Extend pairwise-disjoint cells to a full partition of the points."""
        seen: set[int] = set()
        for c in cs:
            m = self.members[c]
            if m & seen:
                shared = min(m & seen)
                raise NotDisjoint(self.points[shared])
            seen |= m
        rest = [self.points[i] for i in range(self.n_points) if i not in seen]
        out = list(cs) + self.decompose_clopen(rest)
        out.sort(key=lambda c: min(self.members[c]))
        return out

    def induced_substructure(self, labels) -> "CellTree":
        """Restriction {C ∩ Y : C ∩ Y ≠ ∅}, canonicalized on the sub-point-set."""
        ys = {self.point_index(p) for p in labels}
        if not ys:
            raise EmptySubset("induced substructure needs a nonempty point set")
        sub_points = tuple(p for i, p in enumerate(self.points) if i in ys)
        reindex = {self.point_index(p): k for k, p in enumerate(sub_points)}
        fam = set()
        for c in self.cells():
            inter = frozenset(reindex[i] for i in self.members[c] & ys)
            if inter:
                fam.add(inter)
        return CellTree._from_member_sets(sub_points, fam)

    def tree_of(self) -> RootedTree:
        """Abstract rooted tree with leaf labels equal to point labels."""
        nodes = [RootedTree() for _ in self.cells()]
        for i, leaf in enumerate(self.leaf_of):
            nodes[leaf].label = self.points[i]
        for c in self.internal_cells():
            nodes[c].children = [nodes[k] for k in self.children[c]]
        return nodes[self.ROOT]

    # -- diagnostics -------------------------------------------------------

    def check_invariants(self) -> None:
        """Re-check the CellTree invariants; raises BrokenCellTree on the
        first failure.  O(cells): no point set is built.

        One stack walk from the root, taking children in listed order, must
        reach every cell exactly once, each child naming its parent and no
        internal cell having one child, which rules out orphan cells, cells
        under two parents and cycles.  ``leaf_of`` must map the points
        one-to-one onto the leaves of that tree.  A cell holds the points of
        the leaves below it, so the root holds every point and children
        partition their parent: the family is laminar.  From the leaves up, a
        cell's least point is its first child's, and the children must be in
        order of least point.  Last, the walk must visit the ids 0..m-1 in
        turn: `leaf_order` and the readers of runs take the ids in preorder.
        """
        m = self.n_cells
        if not m:
            raise BrokenCellTree("no cells")
        via: list = [None] * m  # the cell that lists each cell as a child
        via[self.ROOT] = self.ROOT  # reached: a cell listing the root closes a cycle
        walk, stack = [], [self.ROOT]
        while stack:
            c = stack.pop()
            walk.append(c)
            kids = self.children[c]
            if len(kids) == 1:
                raise BrokenCellTree(f"unary internal node {c}")
            for k in kids:
                if not 0 <= k < m:
                    raise BrokenCellTree(f"child {k} of {c} is not a cell")
                if via[k] is not None:
                    raise BrokenCellTree(f"cell {k} is reached twice from the root")
                via[k] = c
            stack += kids[::-1]  # popped in listed order
        if None in via:
            raise BrokenCellTree(f"cell {via.index(None)} is not reachable from the root")
        via[self.ROOT] = None
        if via != list(self.parent):
            k = next(k for k, (a, b) in enumerate(zip(via, self.parent)) if a != b)
            raise BrokenCellTree(f"child {k} of {via[k]} has another parent")
        if len(self.leaf_of) != self.n_points:
            raise BrokenCellTree(f"{len(self.leaf_of)} leaves listed for {self.n_points} points")
        least: list = [None] * m  # the least point of each cell
        for p, c in enumerate(self.leaf_of):
            if not 0 <= c < m or self.children[c]:
                raise BrokenCellTree(f"point {p} is on {c}, which is not a leaf")
            if least[c] is not None:
                raise BrokenCellTree(f"leaf {c} with several points")
            least[c] = p
        for c in reversed(walk):  # children before their parent
            if kids := self.children[c]:
                mins = [least[k] for k in kids]
                if mins != sorted(mins):
                    raise BrokenCellTree(f"children of {c} out of order")
                least[c] = mins[0]
            elif least[c] is None:
                raise BrokenCellTree(f"leaf {c} holds no point")
        if walk != list(range(m)):
            raise BrokenCellTree(f"cell {next(c for i, c in enumerate(walk) if c != i)} is out of preorder")

    def shape_signature(self):
        """Label-free canonical form; equal signatures = isomorphic trees.

        A leaf's signature is (); an internal cell's is the sorted tuple of
        its children's signatures.
        """
        order = [self.ROOT]
        for c in order:  # breadth first: every cell after its parent
            order.extend(self.children[c])
        sig: dict[int, tuple] = {}
        for c in reversed(order):
            sig[c] = tuple(sorted(sig[k] for k in self.children[c]))
        return sig[self.ROOT]

    def isomorphic_to(self, other: "CellTree") -> bool:
        """Equal shapes, by integer shape classes (Aho, Hopcroft & Ullman): a
        cell's class numbers the sorted tuple of its children's classes in one
        table shared by both trees, so no nested signature is compared."""
        classes: dict[tuple[int, ...], int] = {}
        roots = []
        for tree in (self, other):
            cls = [0] * tree.n_cells
            for c in reversed(tree.cells()):  # preorder ids: children first
                key = tuple(sorted(cls[k] for k in tree.children[c]))
                cls[c] = classes.setdefault(key, len(classes))
            roots.append(cls[tree.ROOT])
        return roots[0] == roots[1]


def validate_family(points, subsets, strict: bool = True) -> CellTree:
    """Validate a family of point-index sets as a cellular structure.

    Accepts iff the family contains the full set, no member is empty, any
    two members are disjoint or nested, and every singleton is present
    (strict mode) or can be auto-inserted (lenient mode).  Returns the
    canonical CellTree with duplicates collapsed.

    Nesting is decided by the owner pass of ``CellTree._from_member_sets``
    in O(m log m + sum of cell sizes) for m sets.  Its Overlap pair (a, b)
    has a processed before b in order of decreasing size, ties by smallest
    point, then input order; on a family with several overlaps it need not
    be the first overlapping pair in input order.  Overlap is reported
    before a missing singleton.
    """
    points = tuple(points)
    if not points:
        raise EmptyCell("point set is empty")
    if len(set(points)) != len(points):
        raise CellSpaceError(f"point labels are not distinct: {points}")
    n = len(points)
    full = frozenset(range(n))
    at: dict[frozenset[int], int] = {}  # each distinct set and its first position
    for k, s in enumerate(subsets):
        fs = frozenset(s)
        if not fs:
            raise EmptyCell(f"family contains the empty set (cell {k} of the family)")
        if not fs <= full:
            raise KeyError(f"subset {sorted(fs)} mentions unknown point indices")
        at.setdefault(fs, k)
    if full not in at:
        if not at:
            raise MissingRoot("family does not contain the full point set; it has no cells")
        largest = max(at, key=len)
        raise MissingRoot(
            f"family does not contain the full point set; its largest cell (cell {at[largest]} "
            f"of the family, {len(largest)} points) misses point {points[min(full - largest)]!r}"
        )
    missing = [i for i in range(n) if frozenset({i}) not in at]
    tree = CellTree._from_member_sets(points, [*at, *(frozenset({i}) for i in missing)])
    if strict and missing:
        raise NotABase(points[missing[0]])
    return tree


def cells_of(tree, labels=None) -> CellTree:
    """CellTree whose cells are the leaf-label sets below each vertex.

    The tree is a `RootedTree`, or its flat preorder form: ``tree[v]`` is
    the parent of vertex v (None at the root, vertex 0) and ``labels[v]``
    its leaf label (None if internal), the vertices listed in depth-first
    preorder, children left to right; a RootedTree is flattened first, by
    one walk.  One pass then numbers cells and points in that order, so
    the ids are already canonical.  Unary chains collapse (a vertex and its
    only child contain the same leaves, and in preorder the child comes
    next); every leaf must carry a distinct label, else DuplicateLeafLabel
    names the first bad leaf in preorder.  O(vertices): no sort, no owner
    pass, no point set (a cell's points are a run).
    """
    if labels is None:  # a RootedTree: flatten it
        up, labels, stack = [], [], [(tree, None)]
        while stack:
            node, p = stack.pop()
            stack.extend([(k, len(up)) for k in reversed(node.children)])
            up.append(p)
            labels.append(node.label)
        tree = up
    fanout = np.bincount(tree[1:], minlength=len(tree)).tolist()
    cell = [0] * len(tree)  # the cell of each vertex
    parent: list[int | None] = [None]
    kids: list[list[int]] = [[]]
    depth, points, leaf_of = [0], [], []
    for v, (p, n_kids) in enumerate(zip(tree, fanout)):
        if p is None:  # the root: cell 0
            c = 0
        elif fanout[p] == 1:  # the only child of p shares its cell
            c = cell[p]
        else:
            q, c = cell[p], len(parent)
            parent.append(q)
            kids[q].append(c)
            kids.append([])
            depth.append(depth[q] + 1)
        cell[v] = c
        if not n_kids:
            points.append(labels[v])
            leaf_of.append(c)
    if None in points or len(set(points)) < len(points):
        seen: set = set()
        for label in points:
            if label is None or label in seen:
                raise DuplicateLeafLabel(label)
            seen.add(label)
    return CellTree(tuple(points), tuple(parent), tuple(map(tuple, kids)),
                    tuple(depth), tuple(leaf_of))


def _walk(kids, root: int) -> tuple[np.ndarray, list]:
    """The leaves below `root` in preorder of the child lists `kids`, and
    the run of each cell below `root` in that order (None for the others)."""
    leaves, inner, runs, stack = [], [], [None] * len(kids), [root]
    while stack:
        c = stack.pop()
        if kids[c]:
            inner.append(c)
            runs[c] = len(leaves)
            stack += reversed(kids[c])
        else:
            runs[c] = slice(len(leaves), len(leaves) + 1)
            leaves.append(c)
    for c in reversed(inner):  # children before their parent
        runs[c] = slice(runs[c], runs[kids[c][-1]].stop)
    return np.array(leaves, dtype=np.intp), runs
