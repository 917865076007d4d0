"""Finite cellular structures as laminar families over a point set.

A cellular structure on a finite point set is a family of nonempty subsets
(cells) containing the full set and every singleton, in which any two cells
are disjoint or nested.  Such a family is exactly a rooted tree: the root is
the full set, the leaves are the singletons, and the children of a cell are
its maximal proper sub-cells.  ``CellTree`` is the canonical form of that
tree: node ids are ints assigned in depth-first preorder, children ordered by
smallest contained point index, and cells with equal point sets collapsed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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

    Cells are node ids (ints).  Node 0 is the root and holds every point;
    each leaf holds exactly one point; every internal node has at least two
    children.  ``members[c]`` is the frozenset of point indices in cell c.
    """

    points: tuple[str, ...]
    parent: tuple[int | None, ...]
    children: tuple[tuple[int, ...], ...]
    members: tuple[frozenset[int], ...]
    depth: tuple[int, ...]
    leaf_of: tuple[int, ...]  # point index -> leaf node id

    ROOT = 0

    # -- basic queries ---------------------------------------------------

    @property
    def n_points(self) -> int:
        return len(self.points)

    @property
    def n_cells(self) -> int:
        return len(self.members)

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
        return frozenset(self.points[i] for i in self.members[c])

    @property
    def _index(self) -> dict[str, int]:
        idx = self.__dict__.get("_index_cache")
        if idx is None:
            idx = {p: i for i, p in enumerate(self.points)}
            self.__dict__["_index_cache"] = idx
        return idx

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
        return cls._from_children(points, fam, kids, 0)[0]

    @classmethod
    def _from_children(cls, points, sets, kids, root: int) -> tuple["CellTree", list[int]]:
        """The canonical tree of a rooted forest of point sets, and the index
        into `sets` of each cell.

        ``kids[i]`` lists the sets directly below ``sets[i]`` (sorted in
        place, by smallest point); they must partition it, and every
        singleton must be a set with no kids.  Sets not reachable from
        `root` are left out (and may be None).  Cells are numbered in
        depth-first preorder.
        """
        points = tuple(points)
        mins = [min(s) if s else None for s in sets]
        order: list[int] = []
        up: list[int | None] = [None] * len(sets)  # the parent of each set
        stack = [root]
        while stack:
            i = stack.pop()
            order.append(i)
            below = kids[i]
            below.sort(key=mins.__getitem__)
            for k in below:
                up[k] = i
            stack.extend(reversed(below))
        ids = [0] * len(sets)
        for c, i in enumerate(order):
            ids[i] = c
        parent = tuple(None if up[i] is None else ids[up[i]] for i in order)
        children = tuple(tuple(ids[k] for k in kids[i]) for i in order)
        depth_list = [0] * len(order)
        for c in range(1, len(order)):  # preorder: a parent before its children
            depth_list[c] = depth_list[parent[c]] + 1
        members = tuple(sets[i] for i in order)
        leaf_of = [0] * len(points)
        for c, s in enumerate(members):
            if len(s) == 1 and not children[c]:
                leaf_of[next(iter(s))] = c
        tree = cls(
            points=points,
            parent=parent,
            children=children,
            members=members,
            depth=tuple(depth_list),
            leaf_of=tuple(leaf_of),
        )
        return tree, order

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
        nodes = [
            RootedTree(label=self.points[next(iter(self.members[c]))])
            if self.is_leaf(c)
            else RootedTree()
            for c in self.cells()
        ]
        for c in self.internal_cells():
            nodes[c].children = [nodes[k] for k in self.children[c]]
        return nodes[self.ROOT]

    # -- diagnostics -------------------------------------------------------

    def check_invariants(self) -> None:
        """Re-check the CellTree invariants; raises BrokenCellTree on the
        first failure.

        One iterative walk from the root, O(sum of cell sizes) in all.  Per
        cell it checks that the cell is nonempty, a leaf holds one point, an
        internal cell has at least two children, and its children name it as
        parent, are pairwise disjoint, cover it and are ordered by smallest
        point.  The walk must reach every cell exactly once, which rules out
        orphan cells, cells listed under two parents and cycles.  The cells
        then form one tree in which the root holds every point and children
        partition their parent, so the family is laminar: two cells are
        nested if one lies below the other, and otherwise they lie below
        distinct, hence disjoint, children of their lowest common ancestor.
        """
        m = self.n_cells
        if self.members[self.ROOT] != frozenset(range(self.n_points)):
            raise BrokenCellTree("root does not hold every point")
        reached = [False] * m
        reached[self.ROOT] = True
        stack = [self.ROOT]
        while stack:
            c = stack.pop()
            members = self.members[c]
            if not members:
                raise BrokenCellTree(f"empty cell {c}")
            kids = self.children[c]
            if not kids:
                if len(members) != 1:
                    raise BrokenCellTree(f"leaf {c} with several points")
                continue
            if len(kids) < 2:
                raise BrokenCellTree(f"unary internal node {c}")
            union: set[int] = set()
            for k in kids:
                if not 0 <= k < m:
                    raise BrokenCellTree(f"child {k} of {c} is not a cell")
                if reached[k]:
                    raise BrokenCellTree(f"cell {k} is reached twice from the root")
                reached[k] = True
                if self.parent[k] != c:
                    raise BrokenCellTree(f"child {k} of {c} has another parent")
                if self.members[k] & union:
                    raise BrokenCellTree(f"overlapping children of {c}")
                union |= self.members[k]
            if union != members:
                raise BrokenCellTree(f"children of {c} do not partition it")
            mins = [min(self.members[k]) for k in kids]
            if mins != sorted(mins):
                raise BrokenCellTree(f"children of {c} out of order")
            stack.extend(kids)
        if not all(reached):
            orphan = reached.index(False)
            raise BrokenCellTree(f"cell {orphan} is not reachable from the root")
        if m > max(1, 2 * self.n_points - 1):
            raise BrokenCellTree(f"{m} cells on {self.n_points} points")

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


def cells_of(tree: RootedTree) -> CellTree:
    """CellTree whose cells are the leaf-label sets below each vertex.

    Unary chains collapse (a vertex and its only child contain the same
    leaves); every leaf must carry a distinct label, else DuplicateLeafLabel
    names the first bad leaf in preorder.  One preorder walk numbers cells,
    and points in leaf order, so the ids are already canonical; one reverse
    pass unions members.  O(vertices + sum of cell sizes): no sort, no owner
    pass.
    """
    leaf_at: dict[str, int] = {}  # label -> leaf cell, in point order
    parent: list[int | None] = []
    kids: list[list[int]] = []
    depth: list[int] = []
    members: list = []
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
        members.append(None if node.children else frozenset((len(leaf_at),)))
        stack.extend((k, c, kids[c]) for k in reversed(node.children))
        if not node.children:
            if node.label is None or node.label in leaf_at:
                raise DuplicateLeafLabel(node.label)
            leaf_at[node.label] = c
    for c in reversed(range(len(kids))):  # preorder: children after their parent
        if kids[c]:
            members[c] = frozenset().union(*(members[k] for k in kids[c]))
    return CellTree(tuple(leaf_at), tuple(parent), tuple(map(tuple, kids)),
                    tuple(members), tuple(depth), tuple(leaf_at.values()))
