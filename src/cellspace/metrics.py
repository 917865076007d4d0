"""Ultrametrics from cell weights, metric validation, and ball geometry.

A weight function assigns each cell a nonnegative value, zero exactly on
singletons and strictly decreasing along inclusion; the induced distance
d(x, y) = weight of the minimal cell containing both points is an
ultrametric whose closed balls are exactly the cells.  This module builds
those metrics, re-checks the claims exhaustively, and provides exact
cell diameters and separations for table- and interval-derived geometry.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

import numpy as np

from .celltree import CellTree
from .errors import (
    DepthMismatch,
    NotDecreasing,
    OverlappingCells,
    PointSetMismatch,
)
from .spaces import IntervalEmbedding

_INT64_LIMIT = 2**62


@dataclass(frozen=True)
class MetricTable:
    """Symmetric distance matrix over labeled points.

    Entries are exact Fractions by default; imported float tables carry an
    explicit comparison tolerance.  Every exact comparison reads one cached
    kernel, `kernel`: the table as a read-only numpy array, built once per
    table.  Exact tables are rescaled over their common denominator, in
    int64 when it fits and as Python ints otherwise, so every verdict is
    exact; float tables are float64.  `ultrametric_from_weight` fills the
    kernel directly from the cell weights.
    """

    labels: tuple[str, ...]
    rows: tuple[tuple, ...]
    exact: bool = True
    tol: float = 0.0

    @property
    def n(self) -> int:
        return len(self.labels)

    def index(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise KeyError(f"unknown point {label!r}") from None

    @property
    def _index(self):
        idx = self.__dict__.get("_index_cache")
        if idx is None:
            idx = {p: i for i, p in enumerate(self.labels)}
            self.__dict__["_index_cache"] = idx
        return idx

    def d(self, i: int, j: int):
        return self.rows[i][j]

    def d_label(self, x: str, y: str):
        return self.rows[self.index(x)][self.index(y)]

    @property
    def kernel(self) -> np.ndarray:
        """The exact kernel: same order as `rows`, built on first use."""
        mat = self.__dict__.get("_kernel_cache")
        if mat is None:
            mat = self._keep_kernel(_exact_matrix(self))
        return mat

    def _keep_kernel(self, mat: np.ndarray) -> np.ndarray:
        mat.flags.writeable = False
        self.__dict__["_kernel_cache"] = mat
        return mat

    def value_codes(self) -> tuple[list, np.ndarray]:
        """Distinct entries in increasing order, as the original objects, and
        the n x n array of their indices.  Computed from the kernel on each
        call; nothing is kept on the table."""
        mat = self.kernel
        _, first, codes = np.unique(mat, return_index=True, return_inverse=True)
        values = [self.rows[f // self.n][f % self.n] for f in first.tolist()]
        return values, codes.reshape(mat.shape)

    def scale(self, c) -> "MetricTable":
        c = Fraction(c) if self.exact else float(c)
        return MetricTable(
            self.labels,
            tuple(tuple(c * v for v in row) for row in self.rows),
            exact=self.exact,
            tol=self.tol,
        )

    def check_metric(self) -> "MetricVerdict":
        """Zero diagonal, symmetry, positivity, and the triangle inequality."""
        n = self.n
        for i in range(n):
            if self.rows[i][i] != 0:
                return MetricVerdict(False, "nonzero diagonal", (self.labels[i],))
            for j in range(i + 1, n):
                v = self.rows[i][j]
                if v != self.rows[j][i]:
                    return MetricVerdict(
                        False, "asymmetric", (self.labels[i], self.labels[j])
                    )
                if v <= 0:
                    return MetricVerdict(
                        False, "nonpositive distance", (self.labels[i], self.labels[j])
                    )
        wit = _first_violation(self, np.add)
        if wit is not None:
            x, z, y = wit
            return MetricVerdict(
                False, "triangle inequality fails", (self.labels[x], self.labels[z], self.labels[y])
            )
        return MetricVerdict(True, "", ())


@dataclass(frozen=True)
class MetricVerdict:
    ok: bool
    reason: str
    witness: tuple


def _exact_matrix(table: MetricTable) -> np.ndarray:
    """Build the table's kernel from its rows.

    Exact tables are rescaled over their common denominator: int64 when
    every sum of two entries fits, otherwise an object array of Python
    ints.  Inexact tables are float64.
    """
    if not table.exact:
        return np.array(table.rows, dtype=float)
    den = lcm(*{v.denominator for row in table.rows for v in row})
    scaled = [[v.numerator * (den // v.denominator) for v in row] for row in table.rows]
    mx = max((abs(v) for row in scaled for v in row), default=0)
    return np.array(scaled, dtype=_int_dtype(mx))


def _int_dtype(mx: int):
    """int64 when sums of two values of magnitude `mx` fit, else object."""
    return np.int64 if 2 * mx < _INT64_LIMIT else object


def _first_violation(table: MetricTable, combine):
    """Lexicographically smallest (x, z, y) with
    d(x, z) > combine(d(x, y), d(y, z)) (+ tol on float tables), or None."""
    mat = table.kernel
    cols = mat.T  # cols[z, y] = d(y, z); tables need not be symmetric
    for x in range(table.n):
        bound = combine(mat[x][None, :], cols)
        if not table.exact:
            bound = bound + table.tol
        bad = mat[x][:, None] > bound
        if bad.any():
            z, y = divmod(int(np.argmax(bad)), table.n)
            return x, z, y
    return None


@dataclass(frozen=True)
class WeightFn:
    """Cell weights: zero exactly on leaves, strictly decreasing on edges."""

    tree: CellTree
    values: tuple[Fraction, ...]

    def __post_init__(self):
        t = self.tree
        if len(self.values) != t.n_cells:
            raise ValueError("one weight per cell required")
        for c in t.cells():
            v = self.values[c]
            if t.is_leaf(c):
                if v != 0:
                    raise ValueError(f"leaf cell {c} must have weight 0, got {v}")
            else:
                if v <= 0:
                    raise ValueError(f"internal cell {c} must have positive weight")
                for ch in t.children[c]:
                    if not t.is_leaf(ch) and not self.values[ch] < v:
                        raise NotDecreasing(
                            f"weight does not strictly decrease on edge {c} -> {ch}"
                        )

    def __getitem__(self, c: int) -> Fraction:
        return self.values[c]


def weight_from_sequence(tree: CellTree, rho_seq) -> WeightFn:
    """Depth-indexed weights on a uniform-depth (product-style) tree.

    The sequence must run 1 = rho_0 > rho_1 > ... > rho_L > 0 where L is the
    common leaf depth; internal cells at depth l get rho_l, leaves get 0.
    """
    seq = [Fraction(v) for v in rho_seq]
    if not seq or seq[0] != 1:
        raise NotDecreasing("sequence must start at rho_0 = 1")
    for a, b in zip(seq, seq[1:]):
        if not b < a:
            raise NotDecreasing(f"sequence not strictly decreasing at {a} -> {b}")
    if seq[-1] <= 0:
        raise NotDecreasing("sequence must stay positive")
    leaf_depths = {tree.depth[c] for c in tree.leaves()}
    if len(leaf_depths) != 1:
        raise DepthMismatch("tree does not have uniform leaf depth")
    depth = leaf_depths.pop()
    if len(seq) != depth + 1:
        raise DepthMismatch(f"need {depth + 1} sequence entries, got {len(seq)}")
    values = tuple(
        Fraction(0) if tree.is_leaf(c) else seq[tree.depth[c]] for c in tree.cells()
    )
    return WeightFn(tree, values)


def ultrametric_from_weight(tree: CellTree, w: WeightFn) -> MetricTable:
    """d(x, y) = weight of the minimal cell containing x and y; 0 on the
    diagonal.  Satisfies the strong triangle inequality by construction.

    The minimal cells are filled in block by block, one block per pair of
    sibling cells; the rows and the table's kernel are both read off that
    one cell matrix, so the kernel needs no rescaling of the rows.
    """
    if w.tree is not tree and w.tree != tree:
        raise ValueError("weight function belongs to a different tree")
    n = tree.n_points
    order, runs = _leaf_order(tree)
    cell = np.empty((n, n), dtype=np.intp)  # minimal common cell, in leaf order
    for c in tree.internal_cells():
        kids = [runs[k] for k in tree.children[c]]
        for a, ra in enumerate(kids):
            for rb in kids[a + 1 :]:
                cell[ra, rb] = c
                cell[rb, ra] = c
    cell[np.arange(n), np.arange(n)] = np.array(tree.leaf_of)[order]
    at = np.argsort(order)  # position of each point in leaf order
    cell = cell[np.ix_(at, at)]
    zero = Fraction(0)
    values = [zero if tree.is_leaf(c) else w[c] for c in tree.cells()]
    den = lcm(*{v.denominator for v in values})
    scaled = [v.numerator * (den // v.denominator) for v in values]
    kernel = np.array(scaled, dtype=_int_dtype(max(map(abs, scaled))))[cell]
    rows = tuple(map(tuple, np.array(values, dtype=object)[cell].tolist()))
    table = MetricTable(tree.points, rows)
    table._keep_kernel(kernel)
    return table


def _leaf_order(tree: CellTree) -> tuple[np.ndarray, list[slice]]:
    """Points in the order of a preorder walk of the tree, and each cell's
    run in that order.  Every cell is one contiguous run, so the block
    between two sibling cells is a basic slice of a matrix permuted into
    leaf order."""
    order: list[int] = []
    runs: list = [None] * tree.n_cells
    stack = [tree.ROOT]
    while stack:
        c = stack.pop()
        runs[c] = slice(len(order), len(order) + len(tree.members[c]))
        kids = tree.children[c]
        if kids:
            stack.extend(reversed(kids))
        else:
            order.extend(tree.members[c])
    return np.array(order, dtype=np.intp), runs


def _single_linkage_certificate(table: MetricTable) -> bool:
    """True when the table equals its single-linkage ultrametric.

    A symmetric table with a zero diagonal and no negative entry is an
    ultrametric exactly when it equals its subdominant (single-linkage)
    ultrametric (Gower & Ross, Appl. Stat. 1969).  Prim's algorithm gives a
    minimum spanning tree of the kernel in O(n^2); its edges are merged in
    increasing order, and the kernel block between the two clusters of
    each merge must equal the edge's value.  Every pair lies in exactly one
    such block.  Blocks compare with `==`, so a float table that is an
    ultrametric only within its tolerance is not certified.  False means
    "not certified": outside the domain, or some block is not constant.
    """
    n = table.n
    mat = table.kernel.reshape(n, n)
    if not (table.exact or table.tol >= 0):
        return False
    if not ((mat == mat.T).all() and (mat.diagonal() == 0).all() and (mat >= 0).all()):
        return False
    if n < 2:
        return True
    # Prim: best[k] is the lightest edge from rest[k] into the tree, from near[k]
    rest = np.arange(1, n)
    best = mat[0, 1:].copy()
    near = np.zeros(n - 1, dtype=np.intp)
    weights = np.empty(n - 1, dtype=mat.dtype)
    ends = np.empty((n - 1, 2), dtype=np.intp)
    for last in range(n - 2, -1, -1):
        k = int(best[: last + 1].argmin())
        v = rest[k]
        weights[last], ends[last] = best[k], (near[k], v)
        rest[k], best[k], near[k] = rest[last], best[last], near[last]
        row = mat[v, rest[:last]]
        closer = row < best[:last]
        best[:last][closer] = row[closer]
        near[:last][closer] = v
    # single linkage: cluster members, and the cluster of each point
    members = [[p] for p in range(n)]
    owner = list(range(n))
    for e in np.argsort(weights, kind="stable").tolist():
        a, b = owner[ends[e, 0]], owner[ends[e, 1]]
        if not (mat[np.ix_(members[a], members[b])] == weights[e]).all():
            return False
        if len(members[a]) < len(members[b]):
            a, b = b, a
        for p in members[b]:
            owner[p] = a
        members[a] += members[b]
    return True


@dataclass(frozen=True)
class UltrametricVerdict:
    ok: bool
    witness: tuple | None = None  # (x, z, y) labels with d(x,z) > max(...)
    slack: object = None

    def __bool__(self):
        return self.ok


def validate_ultrametric(m: MetricTable) -> UltrametricVerdict:
    """Decide d(x, z) <= max(d(x, y), d(y, z)) for every triple.

    A table passes at once when the single-linkage certificate
    (`_single_linkage_certificate`, O(n^2)) accepts it.  Its domain is a
    symmetric kernel with a zero diagonal and no negative entry (and a
    nonnegative tolerance on float tables).  The exhaustive triple scan
    runs only when the certificate fails or the table lies outside that
    domain: it returns the lexicographically smallest witness triple and
    its slack on failure.  Exact tables are scanned as integers over their
    common denominator (int64, or Python ints when that would overflow);
    float tables are scanned with their tolerance.
    """
    if _single_linkage_certificate(m):
        return UltrametricVerdict(True)
    wit = _first_violation(m, np.maximum)
    if wit is None:
        return UltrametricVerdict(True)
    x, z, y = wit
    return UltrametricVerdict(
        False,
        witness=(m.labels[x], m.labels[z], m.labels[y]),
        slack=m.rows[x][z] - max(m.rows[x][y], m.rows[y][z]),
    )


# -- geometry ---------------------------------------------------------------


@dataclass(frozen=True)
class Geometry:
    """Point metric plus exact cell diameter and separation functions.

    Table-derived geometry takes the max/min over point pairs.  Interval
    geometry uses hull lengths and hull gaps, which are the exact limit-set
    values of the truncated construction; its point metric samples each leaf
    at the endpoint facing its sibling, so sibling gaps are realized
    exactly by the sample.
    """

    tree: CellTree
    table: MetricTable
    source: str
    _diams: tuple
    _hulls: tuple | None = None

    def diam(self, c: int):
        return self._diams[c]

    def separation(self, c1: int, c2: int):
        if self.tree.members[c1] & self.tree.members[c2]:
            raise OverlappingCells(f"cells {c1} and {c2} intersect")
        if self._hulls is not None:
            (l1, r1), (l2, r2) = self._hulls[c1], self._hulls[c2]
            gap = l2 - r1 if l1 <= l2 else l1 - r2
            if gap < 0:
                raise OverlappingCells(
                    f"cells {c1} and {c2} are disjoint but their hulls overlap"
                )
            return gap
        a, b = sorted(self.tree.members[c1]), sorted(self.tree.members[c2])
        block = self.table.kernel[np.ix_(a, b)]
        i, j = divmod(int(block.argmin()), len(b))
        return self.table.rows[a[i]][b[j]]

    @classmethod
    def from_table(cls, tree: CellTree, table: MetricTable) -> "Geometry":
        """Cell diameters as the largest entry between sibling cells.

        The maxima are taken on the table's kernel permuted into leaf order,
        one block per pair of sibling cells.  Each diameter is the `rows`
        entry at the maximum, so values and types are those of the table.
        """
        if tuple(table.labels) != tuple(tree.points):
            raise PointSetMismatch("table labels differ from tree points")
        order, runs = _leaf_order(tree)
        mat = table.kernel[np.ix_(order, order)]
        diams = [Fraction(0) if table.exact else 0.0] * tree.n_cells
        keys = [mat.dtype.type(0)] * tree.n_cells  # kernel value of each diameter
        for c in sorted(tree.cells(), key=lambda c: -tree.depth[c]):
            kids = tree.children[c]
            if not kids:
                continue
            top = max(kids, key=keys.__getitem__)
            best, key = diams[top], keys[top]
            kid_runs = [runs[k] for k in kids]
            for a, ra in enumerate(kid_runs):
                for rb in kid_runs[a + 1 :]:
                    block = mat[ra, rb]
                    u, v = divmod(int(block.argmax()), block.shape[1])
                    if block[u, v] > key:
                        key = block[u, v]
                        best = table.rows[order[ra.start + u]][order[rb.start + v]]
            diams[c], keys[c] = best, key
        return cls(tree, table, "table", tuple(diams))

    @classmethod
    def from_intervals(cls, tree: CellTree, emb: IntervalEmbedding) -> "Geometry":
        if len(emb.intervals) != tree.n_points:
            raise PointSetMismatch("one interval per point required")
        hulls = [None] * tree.n_cells
        for c in sorted(tree.cells(), key=lambda c: -tree.depth[c]):
            if tree.is_leaf(c):
                hulls[c] = emb.intervals[next(iter(tree.members[c]))]
            else:
                kids = tree.children[c]
                hulls[c] = (
                    min(hulls[k][0] for k in kids),
                    max(hulls[k][1] for k in kids),
                )
        diams = tuple(r - l for l, r in hulls)
        reps = []
        for i in range(tree.n_points):
            leaf = tree.leaf_of[i]
            par = tree.parent[leaf]
            left, right = emb.intervals[i]
            if par is None:
                reps.append(left)
            else:
                sibs = tree.children[par]
                reps.append(right if leaf == sibs[0] else left)
        rows = tuple(
            tuple(abs(reps[i] - reps[j]) for j in range(tree.n_points))
            for i in range(tree.n_points)
        )
        table = MetricTable(tree.points, rows)
        return cls(tree, table, "intervals", diams, tuple(hulls))


def cell_diameter(g: Geometry, c: int):
    return g.diam(c)


def cell_separation(g: Geometry, c1: int, c2: int):
    return g.separation(c1, c2)


@dataclass(frozen=True)
class BallCellVerdict:
    ok: bool
    cell_failures: tuple  # (cell id, center label) where ball(x, diam C) != C
    ball_failures: tuple  # (center label, radius, ball point labels) not a cell

    def __bool__(self):
        return self.ok


def critical_radii(table: MetricTable) -> list:
    """Realized positive distances plus midpoints of consecutive values.

    Every closed ball of positive radius equals a ball at one of these
    radii, so scanning them decides ball properties for all radii.  The
    distances are the distinct value codes of the upper triangle."""
    values, codes = table.value_codes()
    upper = np.bincount(codes[np.triu(np.ones(codes.shape, dtype=bool), 1)], minlength=len(values))
    vals = [values[k] for k in np.flatnonzero(upper).tolist()]
    radii = vals[:1]
    for a, b in zip(vals, vals[1:]):
        radii += [(a + b) / 2, b]
    return radii


class BallScanner:
    """Closed balls of a fixed table, on its value codes (int32 when n allows).

    ``orders[x]`` lists the points by code from x, ties by index, and
    ``sorted_codes[x]`` their codes.  ``values`` are the distinct entries in
    increasing order, so the ball of radius r around x is the prefix of
    ``orders[x]`` whose codes are below ``bound(r)``.
    """

    def __init__(self, table: MetricTable):
        self.values, codes = table.value_codes()
        codes = codes.astype(np.int32 if table.n**2 < 2**31 else np.int64)
        self.orders = np.argsort(codes, axis=1, kind="stable").astype(codes.dtype)
        self.sorted_codes = np.take_along_axis(codes, self.orders, axis=1)
        self._cache: dict = {}

    def bound(self, r) -> int:
        """The code bound of radius r: the number of distinct values <= r."""
        return bisect_right(self.values, r)

    def count_within(self, x: int, r) -> int:
        return int(self.sorted_codes[x].searchsorted(self.bound(r)))

    def ball(self, x: int, r) -> frozenset:
        return self.ball_below(x, self.bound(r))

    def ball_below(self, x: int, bound: int) -> frozenset:
        """The points whose code from x is below `bound`, cached."""
        got = self._cache.get((x, bound))
        if got is None:
            size = self.sorted_codes[x].searchsorted(bound)
            got = self._cache[x, bound] = frozenset(self.orders[x, :size].tolist())
        return got


def balls_equal_cells(tree: CellTree, m: MetricTable) -> BallCellVerdict:
    """Check both directions of the ball-cell correspondence of a metric.

    (a) for every cell C and every x in C, the closed ball around x with
        radius diam C (`Geometry.from_table`) equals C;
    (b) for every center and every critical radius, the closed ball is a
        cell.  Cells are runs of `_leaf_order`, and a ball (a prefix of
        ``orders[x]``) is a cell when the span from the least to the
        greatest leaf position in it is a cell's run of the ball's size.

    Witnesses: the first failing cell, then its first failing point (a);
    the first failing center, then its first failing radius (b).
    """
    g = Geometry.from_table(tree, m)
    scanner = BallScanner(m)
    order, runs = _leaf_order(tree)
    cell_failures = []
    for c in tree.cells():
        pts = np.sort(order[runs[c]])
        ok = (scanner.sorted_codes[pts] < scanner.bound(g.diam(c))).sum(axis=1) == len(pts)
        if not ok.all():
            cell_failures.append((c, tree.points[pts[ok.argmin()]]))
            break
    ball_failures = []
    radii = critical_radii(m)
    bounds = np.array([scanner.bound(r) for r in radii], dtype=np.intp)
    pos = np.argsort(order)  # position of each point in leaf order
    is_run = np.zeros((m.n, m.n + 1), dtype=bool)  # [start, stop) of each cell
    is_run[[r.start for r in runs], [r.stop for r in runs]] = True
    for x in range(m.n):
        at = pos[scanner.orders[x]]
        size = scanner.sorted_codes[x].searchsorted(bounds)
        # a ball of size 0 reads the prefix of size n and fails the size test
        lo = np.minimum.accumulate(at)[size - 1]
        hi = np.maximum.accumulate(at)[size - 1] + 1
        ok = (hi - lo == size) & is_run[lo, hi]
        if not ok.all():
            r = radii[int(ok.argmin())]
            ball = sorted(tree.points[j] for j in scanner.ball(x, r))
            ball_failures.append((tree.points[x], r, tuple(ball)))
            break
    return BallCellVerdict(
        not cell_failures and not ball_failures,
        tuple(cell_failures),
        tuple(ball_failures),
    )


@dataclass(frozen=True)
class MonotonicityVerdict:
    ok: bool
    witness: tuple | None = None  # (parent id, child id, parent diam, child diam)

    def __bool__(self):
        return self.ok


def strict_diameter_monotonicity(tree: CellTree, g: Geometry) -> MonotonicityVerdict:
    """diam C' < diam C on every tree edge (child strictly smaller)."""
    for c in tree.cells():
        for ch in tree.children[c]:
            if not g.diam(ch) < g.diam(c):
                return MonotonicityVerdict(False, (c, ch, g.diam(c), g.diam(ch)))
    return MonotonicityVerdict(True)
