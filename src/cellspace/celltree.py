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

    def leaves(self) -> list["RootedTree"]:
        if self.is_leaf():
            return [self]
        out = []
        for ch in self.children:
            out.extend(ch.leaves())
        return out


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
        """Build from a laminar, deduplicated family that contains the full
        set and every singleton.  No validation beyond parent assignment."""
        points = tuple(points)
        fam = sorted(set(sets), key=lambda s: (-len(s), min(s)))
        # nearest strict superset = parent (supersets of a set form a chain)
        parent_of: dict[frozenset, frozenset | None] = {fam[0]: None}
        kids: dict[frozenset, list[frozenset]] = {s: [] for s in fam}
        for i, s in enumerate(fam[1:], start=1):
            best = None
            for t in fam[:i]:
                if s < t and (best is None or len(t) < len(best)):
                    best = t
            parent_of[s] = best
            kids[best].append(s)
        for s in kids:
            kids[s].sort(key=min)
        # depth-first preorder ids
        order: list[frozenset] = []
        stack = [fam[0]]
        while stack:
            s = stack.pop()
            order.append(s)
            stack.extend(reversed(kids[s]))
        ids = {s: i for i, s in enumerate(order)}
        parent = tuple(
            None if parent_of[s] is None else ids[parent_of[s]] for s in order
        )
        children = tuple(tuple(ids[k] for k in kids[s]) for s in order)
        members = tuple(order)
        depth_list = [0] * len(order)
        for i, s in enumerate(order):
            if parent[i] is not None:
                depth_list[i] = depth_list[parent[i]] + 1
        leaf_of = [0] * len(points)
        for i, s in enumerate(order):
            if len(s) == 1 and not children[i]:
                leaf_of[next(iter(s))] = i
        return cls(
            points=points,
            parent=parent,
            children=children,
            members=members,
            depth=tuple(depth_list),
            leaf_of=tuple(leaf_of),
        )

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

        def walk(c: int) -> None:
            m = self.members[c]
            if m <= want:
                out.append(c)
                return
            if m.isdisjoint(want):
                return
            for ch in self.children[c]:
                walk(ch)

        if want:
            walk(self.ROOT)
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

        def build(c: int) -> RootedTree:
            if self.is_leaf(c):
                return RootedTree(label=self.points[next(iter(self.members[c]))])
            return RootedTree(children=[build(ch) for ch in self.children[c]])

        return build(self.ROOT)

    # -- diagnostics -------------------------------------------------------

    def check_invariants(self) -> None:
        """Exhaustively re-check the CellTree invariants; raises
        BrokenCellTree on the first failure."""
        if self.members[self.ROOT] != frozenset(range(self.n_points)):
            raise BrokenCellTree("root does not hold every point")
        for c in self.cells():
            if not self.members[c]:
                raise BrokenCellTree(f"empty cell {c}")
            kids = self.children[c]
            if kids:
                if len(kids) < 2:
                    raise BrokenCellTree(f"unary internal node {c}")
                union: set[int] = set()
                for k in kids:
                    if self.parent[k] != c:
                        raise BrokenCellTree(f"child {k} of {c} has another parent")
                    if self.members[k] & union:
                        raise BrokenCellTree(f"overlapping children of {c}")
                    union |= self.members[k]
                if union != set(self.members[c]):
                    raise BrokenCellTree(f"children of {c} do not partition it")
                mins = [min(self.members[k]) for k in kids]
                if mins != sorted(mins):
                    raise BrokenCellTree(f"children of {c} out of order")
            elif len(self.members[c]) != 1:
                raise BrokenCellTree(f"leaf {c} with several points")
        for a in self.cells():
            for b in self.cells():
                ma, mb = self.members[a], self.members[b]
                if not (ma.isdisjoint(mb) or ma <= mb or mb <= ma):
                    raise BrokenCellTree(f"cells {a} and {b} are not laminar")
        if self.n_cells > max(1, 2 * self.n_points - 1):
            raise BrokenCellTree(f"{self.n_cells} cells on {self.n_points} points")

    def shape_signature(self):
        """Label-free canonical form; equal signatures = isomorphic trees."""

        def sig(c: int):
            if self.is_leaf(c):
                return ()
            return tuple(sorted(sig(k) for k in self.children[c]))

        return sig(self.ROOT)

    def isomorphic_to(self, other: "CellTree") -> bool:
        return self.shape_signature() == other.shape_signature()


def validate_family(points, subsets, strict: bool = True) -> CellTree:
    """Validate a family of point-index sets as a cellular structure.

    Accepts iff the family contains the full set, no member is empty, any
    two members are disjoint or nested, and every singleton is present
    (strict mode) or can be auto-inserted (lenient mode).  Returns the
    canonical CellTree with duplicates collapsed.
    """
    points = tuple(points)
    if not points:
        raise EmptyCell("point set is empty")
    if len(set(points)) != len(points):
        raise CellSpaceError(f"point labels are not distinct: {points}")
    n = len(points)
    full = frozenset(range(n))
    fam: list[frozenset[int]] = []
    seen: set[frozenset[int]] = set()
    for s in subsets:
        fs = frozenset(s)
        if not fs:
            raise EmptyCell("family contains the empty set")
        if not fs <= full:
            raise KeyError(f"subset {sorted(fs)} mentions unknown point indices")
        if fs not in seen:
            seen.add(fs)
            fam.append(fs)
    if full not in seen:
        raise MissingRoot("family does not contain the full point set")
    for i, a in enumerate(fam):
        for b in fam[i + 1 :]:
            inter = a & b
            if inter and not (a <= b or b <= a):
                p = min(inter)
                q = min((a | b) - inter)
                raise Overlap(
                    {points[i] for i in a},
                    {points[i] for i in b},
                    (points[p], points[q]),
                )
    for i in range(n):
        single = frozenset({i})
        if single not in seen:
            if strict:
                raise NotABase(points[i])
            seen.add(single)
            fam.append(single)
    return CellTree._from_member_sets(points, fam)


def cells_of(tree: RootedTree) -> CellTree:
    """CellTree whose cells are the leaf-label sets below each vertex.

    Unary chains collapse (a vertex and its only child contain the same
    leaves); every leaf must carry a distinct label.
    """
    leaves = tree.leaves()
    labels = []
    for lf in leaves:
        if lf.label is None:
            raise DuplicateLeafLabel(None)
        if lf.label in labels:
            raise DuplicateLeafLabel(lf.label)
        labels.append(lf.label)
    idx = {lab: i for i, lab in enumerate(labels)}
    fam: set[frozenset[int]] = set()

    def collect(node: RootedTree) -> frozenset[int]:
        if node.is_leaf():
            s = frozenset({idx[node.label]})
        else:
            s = frozenset().union(*(collect(ch) for ch in node.children))
        fam.add(s)
        return s

    collect(tree)
    return CellTree._from_member_sets(tuple(labels), fam)
