"""Ultrametrics from cell weights, metric validation, and ball geometry.

A weight function assigns each cell a nonnegative value, zero exactly on
singletons and strictly decreasing along inclusion; the induced distance
d(x, y) = weight of the minimal cell containing both points is an
ultrametric whose closed balls are exactly the cells.  This module builds
those metrics, decides the claims for other tables, and provides exact
cell diameters and separations for table- and interval-derived geometry.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm

import numpy as np

from .celltree import CellTree, _walk
from .errors import (
    DepthMismatch,
    NotDecreasing,
    OverlappingCells,
    PointSetMismatch,
)
from .spaces import IntervalEmbedding

_INT64_LIMIT = 2**62


@dataclass(frozen=True, init=False)
class MetricTable:
    """Distance matrix over labeled points, kept as one numpy kernel.

    An exact table is an integer kernel over one common denominator `den`
    (int64 when every sum of two entries fits, else Python ints); a float
    table (``exact=False``) is a float64 kernel with a tolerance.  Every
    comparison reads the kernel, and every ball question its cached
    `kernel_codes` (unsigned codes of `_code_dtype`, which readers upcast
    before arithmetic); Fractions (floats) are built only at the edge: `d`,
    witnesses and slacks, `value_codes` values and `rows`.
    ``MetricTable(labels, rows, ...)`` builds its kernel from the rows on
    first use; `from_kernel` builds no rows until they are read.  A table
    from `ultrametric_from_weight` keeps its construction (tree, heights) as
    its `_linkage` and writes its codes from it on first read.
    """

    labels: tuple[str, ...]
    rows: tuple[tuple, ...]  # a field, for ==, repr and replace; see `rows`
    exact: bool = True
    tol: float = 0.0

    def __init__(self, labels, rows, exact: bool = True, tol: float = 0.0):
        self.__dict__.update(labels=labels, rows=rows, exact=exact, tol=tol)

    @classmethod
    def from_kernel(cls, labels, kernel: np.ndarray, den: int | None, tol: float = 0.0):
        """The table kernel / den, read-only; a float table when den is None."""
        kernel.flags.writeable = False
        table = cls.__new__(cls)
        table.__dict__.update(labels=labels, exact=den is not None, tol=tol)
        table.__dict__["_kernel_den"] = (kernel, den)
        return table

    @cached_property
    def rows(self) -> tuple[tuple, ...]:
        """The n x n entries, built from the kernel on first read and kept."""
        return tuple(tuple(map(self._value, row)) for row in self.kernel.tolist())

    @property
    def n(self) -> int:
        return len(self.labels)

    def index(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise KeyError(f"unknown point {label!r}") from None

    @cached_property
    def _index(self) -> dict[str, int]:
        return {p: i for i, p in enumerate(self.labels)}

    def d(self, i: int, j: int):
        return self._value(self.kernel[i, j])

    def d_label(self, x: str, y: str):
        return self.d(self.index(x), self.index(y))

    @cached_property
    def _kernel_den(self) -> tuple[np.ndarray, int | None]:
        mat, den = _exact_matrix(self)
        mat.flags.writeable = False
        return mat, den

    @property
    def kernel(self) -> np.ndarray:
        """The read-only kernel, in the order of the labels."""
        return self._kernel_den[0]

    @cached_property
    def den(self) -> int | None:
        """The kernel's common denominator; None on float tables."""
        return self._kernel_den[1]

    def _value(self, k):
        """The entry whose kernel value is k, as a Fraction or a float."""
        return float(k) if self.den is None else Fraction(int(k), self.den)

    def value_codes(self) -> tuple[list, np.ndarray]:
        """`kernel_codes` with the keys as the table's values."""
        keys, codes = self.kernel_codes()
        return [self._value(k) for k in keys.tolist()], codes

    def kernel_codes(self) -> tuple[np.ndarray, np.ndarray]:
        """The distinct kernel entries in increasing order (the keys) and the
        n x n array of their indices (the codes), read-only, made once.  The
        codes are `_code_dtype`'s: upcast them before arithmetic, which wraps."""
        return self._kernel_codes

    @cached_property
    def _kernel_codes(self) -> tuple[np.ndarray, np.ndarray]:
        built = self.__dict__.get("_built")
        keys, codes = _tree_codes(*built) if built else np.unique(self.kernel, return_inverse=True)
        codes = codes.astype(_code_dtype(len(keys)), copy=False).reshape(self.n, self.n)
        keys.flags.writeable = codes.flags.writeable = False
        return keys, codes

    @cached_property
    def ball_scanner(self) -> "BallScanner":
        """The table's `BallScanner`, made once and shared by the ball layers."""
        return BallScanner(self)

    @cached_property
    def line_order(self) -> np.ndarray | None:
        """The points sorted along a line, if this exact table is a line
        metric; else None, and always None on float tables.

        The table is a line metric when kernel[i, j] == |P_i - P_j| for
        P = kernel[far], where far = argmax(kernel[0]) is an end of the line.
        The rows are compared one at a time, and the test stops at the first
        row that differs, so a table far from a line (a tree table) costs one
        row.  Computed once per table.
        """
        if not self.exact or self.n == 0:
            return None
        mat = self.kernel
        pos = mat[int(mat[0].argmax())]
        for i in range(self.n):
            if not (mat[i] == abs(pos - pos[i])).all():
                return None
        return np.argsort(pos, kind="stable")

    @cached_property
    def _linkage(self) -> tuple[CellTree, np.ndarray] | None:
        """A weight-built table's construction (tree, heights), else `_single_linkage`."""
        return self.__dict__.get("_built") or _single_linkage(self)

    def _heights_on(self, tree: CellTree) -> np.ndarray | None:
        """The cell heights of a table weight-built on `tree`, else None."""
        built = self.__dict__.get("_built")
        return built[1] if built is not None and built[0] == tree else None

    @cached_property
    def ultrametric_tree(self) -> tuple[CellTree, np.ndarray] | None:
        """The table's closed balls as a canonical CellTree, and the kernel
        height (diameter) of each cell: `_linkage`, computed once per table.

        None when the single-linkage certificate declines the table, and on
        a pseudo-ultrametric (some internal cell has height 0), whose balls
        are not the clusters.
        """
        found = self._linkage
        if found is None or (found[1][found[0].internal_cells()] == 0).any():
            return None
        return found

    def scale(self, c) -> "MetricTable":
        """The table times c: the kernel times c's numerator over den times
        c's denominator, both divided by their gcd, in a dtype picked again
        for the reduced kernel (so a scale and its inverse give back the
        table's dtype)."""
        if not self.exact:
            return MetricTable.from_kernel(self.labels, self.kernel * float(c), None, self.tol)
        c = Fraction(c)
        kg = int(np.gcd.reduce(self.kernel.ravel())) or 1  # 0 only on an all-zero kernel
        den = self.den * c.denominator
        g = gcd(kg * c.numerator, den)
        mult = kg * c.numerator // g  # kernel // kg * mult is kernel * c.numerator // g
        mx = int(abs(self.kernel).max(initial=0)) // kg * abs(mult)
        mat = (self.kernel // kg).astype(_int_dtype(mx)) * mult
        return MetricTable.from_kernel(self.labels, mat, den // g)

    def check_metric(self) -> "MetricVerdict":
        """Zero diagonal, symmetry, positivity (on the kernel in numpy, first
        failure in row-major order, diagonal first, "asymmetric" before
        "nonpositive distance"), then the triangle inequality.  An exact
        table with a `line_order` meets it by construction; any other table
        (every float table among them) runs `_first_violation`'s scan."""
        n, mat = self.n, self.kernel
        upper = ~np.tri(n, dtype=bool)
        asym = (mat != mat.T) & upper
        bad = asym | ((mat <= 0) & upper)
        bad[np.diag_indices(n)] = mat.diagonal() != 0
        if bad.any():
            i, j = divmod(int(bad.argmax()), n)
            if i == j:
                return MetricVerdict(False, "nonzero diagonal", (self.labels[i],))
            reason = "asymmetric" if asym[i, j] else "nonpositive distance"
            return MetricVerdict(False, reason, (self.labels[i], self.labels[j]))
        wit = None if self.line_order is not None else _first_violation(self, np.add)
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


def _exact_matrix(table: MetricTable) -> tuple[np.ndarray, int | None]:
    """Build the table's kernel and denominator from its rows (a weight-built table's from its codes).

    Exact tables are rescaled over their common denominator: int64 when
    every sum of two entries fits, otherwise an object array of Python
    ints.  Inexact tables are float64, with no denominator.
    """
    if "_built" in table.__dict__:
        keys, codes = table.kernel_codes()
        return keys[codes], table.den
    if not table.exact:
        return np.array(table.rows, dtype=float), None
    den = lcm(*{v.denominator for row in table.rows for v in row})
    scaled = [[v.numerator * (den // v.denominator) for v in row] for row in table.rows]
    mx = max((abs(v) for row in scaled for v in row), default=0)
    return np.array(scaled, dtype=_int_dtype(mx)), den


def _code_dtype(n_keys: int):
    """The narrowest unsigned dtype that indexes `n_keys` keys: uint8 up to 256, uint16 up to 65,536."""
    return np.min_scalar_type(max(n_keys - 1, 0))


def _int_dtype(mx: int):
    """int64 when sums of two values of magnitude `mx` fit, else object."""
    return np.int64 if 2 * mx < _INT64_LIMIT else object


def _over_den(values) -> tuple[list[int], int]:
    """Rationals as integers over their least common denominator, and that denominator."""
    den = lcm(*{v.denominator for v in values})
    return [v.numerator * (den // v.denominator) for v in values], den


def _column(ints: list[int]) -> np.ndarray:
    """The integers as one column in `_int_dtype` of their largest magnitude."""
    return np.array(ints, dtype=_int_dtype(max(map(abs, ints), default=0)))


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


class WeightFn:
    """Cell weights: zero exactly on leaves, strictly decreasing on edges.

    One integer column over the least common denominator (``column[c] /
    den`` weighs cell c) in `_int_dtype`; ``values`` and ``w[c]`` build
    Fractions on read.  With `pick`, cell c weighs ``values[pick[c]]`` (and
    values no cell picks leave `den` alone).  The column is checked at once;
    a failure is the first that a scan of the cells meets: a cell's own
    weight, then its edges to internal children.
    """

    def __init__(self, tree: CellTree, values, pick=None):
        if pick is not None:
            used, pick = np.unique(pick, return_inverse=True)
            values = [values[k] for k in used.tolist()]
        ints, self.den = _over_den(values)
        self.tree, self.column = tree, _column(ints) if pick is None else _column(ints)[pick]
        self.column.flags.writeable = False
        if len(self.column) != tree.n_cells:
            raise ValueError("one weight per cell required")
        w, (parent, child) = self.column, tree.edges
        leaf = np.bincount(parent, minlength=len(w)) == 0
        own = np.where(leaf, w != 0, w <= 0)
        rising = ~leaf[child] & ~(w[child] < w[parent])
        c = int(own.argmax()) if own.any() else len(w)
        if rising.any() and parent[rising.argmax()] < c:
            e = rising.argmax()
            raise NotDecreasing(f"weight does not strictly decrease on edge {parent[e]} -> {child[e]}")
        if c < len(w):
            raise ValueError(f"leaf cell {c} must have weight 0, got {self[c]}" if leaf[c]
                             else f"internal cell {c} must have positive weight")

    @cached_property
    def values(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(k, self.den) for k in self.column.tolist())

    def __getitem__(self, c: int) -> Fraction:
        return Fraction(int(self.column[c]), self.den)

    def __eq__(self, other) -> bool:
        return isinstance(other, WeightFn) and (self.tree, self.den) == (
            other.tree, other.den) and np.array_equal(self.column, other.column)


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
    leaf, depth = np.bincount(tree.edges[0], minlength=tree.n_cells) == 0, np.array(tree.depth)
    leaf_depth = depth[leaf]
    if leaf_depth.min() != leaf_depth.max():
        raise DepthMismatch("tree does not have uniform leaf depth")
    if len(seq) != leaf_depth[0] + 1:
        raise DepthMismatch(f"need {leaf_depth[0] + 1} sequence entries, got {len(seq)}")
    return WeightFn(tree, seq + [Fraction(0)], np.where(leaf, len(seq), depth))


def ultrametric_from_weight(tree: CellTree, w: WeightFn) -> MetricTable:
    """d(x, y) = weight of the minimal cell containing x and y; 0 on the
    diagonal.  `WeightFn` checks that w is 0 exactly on the leaves and
    strictly decreasing, so d is an ultrametric whose closed balls are the
    cells: the construction is the certificate.  The table records `tree`
    and w's column as the cell heights, over w's denominator, and fills
    nothing; its codes (`_tree_codes`) and kernel are made on first read.
    """
    if w.tree is not tree and w.tree != tree:
        raise ValueError("weight function belongs to a different tree")
    table = MetricTable.__new__(MetricTable)
    table.__dict__.update(labels=tree.points, exact=True, tol=0.0, den=w.den, _built=(tree, w.column))
    return table


def _tree_codes(tree: CellTree, heights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Keys and codes of d(x, y) = heights[minimal common cell]: the heights ranked once, and
    each cell's code written on its strips (`_strips`, n - 1 of them), in `_code_dtype`."""
    n = tree.n_points
    keys, code_of = np.unique(heights, return_inverse=True)
    code_of = code_of.astype(_code_dtype(len(keys)))
    order, runs = tree.leaf_order
    codes = np.zeros((n, n), dtype=code_of.dtype)  # in leaf order; leaves weigh 0, the least key
    for c, run, after in _strips(tree.children, runs):
        codes[run, after] = codes[after, run] = code_of[c]
    if (order != np.arange(n)).any():
        at = np.argsort(order)  # position of each point in leaf order
        codes = codes[np.ix_(at, at)]
    return keys, codes


def _strips(kids, runs: list):
    """For each cell c with a run and each child of c but the last, the
    strip (c, the child's run, the rest of c's run after it).

    In leaf order (`CellTree.leaf_order`) the n - 1 strips tile the
    entries above the diagonal, each entry in the strip of its minimal
    common cell: the kernel of d(x, y) = w(minimal common cell) is w(c) on
    c's strips.
    """
    for c, run in enumerate(runs):
        if run is not None:
            for k in kids[c][:-1]:
                yield c, runs[k], slice(runs[k].stop, run.stop)


def _strips_hold(mat: np.ndarray, kids, order, runs: list, value: np.ndarray) -> bool:
    """True when `mat` in the leaf order `order` holds value[c] on both sides of c's strips
    (read by min and max: no strip-sized mask)."""
    if (order != np.arange(len(order))).any():
        mat = mat[np.ix_(order, order)]
    return all(
        block.min() == value[c] == block.max()
        for c, run, after in _strips(kids, runs)
        for block in (mat[run, after], mat[after, run])
    )


def _single_linkage(table: MetricTable) -> tuple[CellTree, np.ndarray] | None:
    """The single-linkage cluster tree of a table that equals its
    single-linkage ultrametric, with each cell's height, else None.

    A symmetric table with a zero diagonal and no negative entry is an
    ultrametric exactly when it equals its subdominant (single-linkage)
    ultrametric (Gower & Ross, Appl. Stat. 1969), which is the height of
    the minimal common cell of the cluster tree.  Prim's algorithm gives a
    minimum spanning tree of the kernel in O(n^2), and `_cluster_tree`
    merges its edges and checks the kernel's strips against the heights.
    Strips compare with `==`, so a float table that is an ultrametric only
    within its tolerance is not certified.  None means "not certified":
    outside the domain (an empty table among them), or some strip is not
    constant.  A pseudo-ultrametric is certified, with internal cells of
    height 0.
    """
    n = table.n
    mat = table.kernel.reshape(n, n)
    if n == 0 or not (table.exact or table.tol >= 0):
        return None
    if not ((mat == mat.T).all() and (mat.diagonal() == 0).all() and (mat >= 0).all()):
        return None
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
    up = np.argsort(weights, kind="stable")
    return _cluster_tree(table.labels, weights[up], ends[up], mat)


def _cluster_tree(labels, weights: np.ndarray, ends: np.ndarray, mat=None) -> tuple | None:
    """The single-linkage clusters of the edges `ends` (point pairs, by
    nondecreasing `weights`) as a canonical CellTree, and the height of
    each cell (0 on leaves).

    Cluster p < n is the point p, and the k-th merge makes cluster n + k;
    a union-find maps each cluster to the merge that swallowed it.  A merge
    at the height of one of its clusters (never a point) joins that
    cluster's children instead, so every internal cell is strictly lower
    than its parent.  Given `mat`, None unless its strips hold the heights
    (`_strips_hold`, on the leaf order of the child lists), checked before
    the tree is built.  Each cluster's least point sorts the children.
    """
    n = len(labels)
    top = list(range(2 * n - 1))  # union-find: top[c] == c for a cluster not yet merged
    kids: list[list[int]] = [[] for _ in range(n)]
    height = [0] * n + weights.tolist()
    least = list(range(n))
    for k, (i, j) in enumerate(ends.tolist()):
        below: list[int] = []
        for c in (i, j):
            while top[c] != c:  # find, halving the path
                top[c] = top[top[c]]
                c = top[c]
            top[c] = n + k
            below += kids[c] if c >= n and height[c] == height[n + k] else [c]
        kids.append(below)
        least.append(min(least[c] for c in below))
    heights = np.array(height, dtype=weights.dtype)
    if mat is not None and not _strips_hold(mat, kids, *_walk(kids, len(kids) - 1), heights):
        return None
    tree, ids = CellTree._from_children(labels, least, kids, len(kids) - 1)
    return tree, heights[ids]


@dataclass(frozen=True)
class UltrametricVerdict:
    ok: bool
    witness: tuple | None = None  # (x, z, y) labels with d(x,z) > max(...)
    slack: object = None

    def __bool__(self):
        return self.ok


def validate_ultrametric(m: MetricTable) -> UltrametricVerdict:
    """Decide d(x, z) <= max(d(x, y), d(y, z)) for every triple.

    A table passes at once when it has a `_linkage` (once per table): a
    weight-built table by construction, any other when single linkage
    (Prim, O(n^2)) certifies a symmetric kernel with a zero diagonal and no
    negative entry (and a nonnegative tolerance on float tables).  The
    exhaustive triple scan runs only when the certificate fails or the
    table lies outside that domain: it returns the lexicographically
    smallest witness triple and its slack on failure.  Exact tables are
    scanned as integers over their common denominator (int64, or Python
    ints when that would overflow); float tables are scanned with their
    tolerance.
    """
    if m._linkage is not None:
        return UltrametricVerdict(True)
    wit = _first_violation(m, np.maximum)
    if wit is None:
        return UltrametricVerdict(True)
    x, z, y = wit
    return UltrametricVerdict(
        False,
        witness=(m.labels[x], m.labels[z], m.labels[y]),
        slack=m.d(x, z) - max(m.d(x, y), m.d(y, z)),
    )


# -- geometry ---------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Geometry:
    """Point metric plus exact cell diameter and separation functions.

    The diameters are one column over `_den`, integers (float64 on float
    tables, `_den` None), and `diam(c)` builds a Fraction (a float) on read.
    Table-derived geometry takes the max/min over point pairs.  Interval
    geometry keeps each cell's hull as an integer row (left, right) of
    `_hulls` over `_den`: hull lengths and gaps are the exact limit-set
    values of the truncated construction; its point metric samples each leaf
    at the endpoint facing its sibling, so sibling gaps are realized
    exactly by the sample.
    """

    tree: CellTree
    table: MetricTable
    source: str
    _diams: np.ndarray | tuple
    _hulls: np.ndarray | None = None
    _lca: bool = False
    _den: int | None = None

    def diam(self, c: int):
        k = self._diams[c]
        return float(k) if self._den is None else Fraction(int(k), self._den)

    def separation(self, c1: int, c2: int):
        """The least distance between two disjoint cells; on a table weight-built on `tree`
        (`_lca`), the height of their lowest common ancestor, with no kernel read."""
        order, runs = self.tree.leaf_order
        if runs[c1].start < runs[c2].stop and runs[c2].start < runs[c1].stop:
            raise OverlappingCells(f"cells {c1} and {c2} intersect")
        if self._hulls is not None:
            (l1, r1), (l2, r2) = self._hulls[c1].tolist(), self._hulls[c2].tolist()
            gap = l2 - r1 if l1 <= l2 else l1 - r2
            if gap < 0:
                raise OverlappingCells(
                    f"cells {c1} and {c2} are disjoint but their hulls overlap"
                )
            return Fraction(gap, self._den)
        if self._lca:  # the diameter of the lowest common ancestor
            while c1 != c2:  # preorder ids: the larger is not an ancestor of the other
                c1, c2 = (self.tree.parent[c1], c2) if c1 > c2 else (c1, self.tree.parent[c2])
            return self.diam(c1)
        a, b = np.sort(order[runs[c1]]), np.sort(order[runs[c2]])
        # fmin skips NaN entries, as the diameters do
        return self.table._value(np.fmin.reduce(self.table.kernel[np.ix_(a, b)], axis=None))

    @classmethod
    def from_table(cls, tree: CellTree, table: MetricTable) -> "Geometry":
        """Cell diameters as the table's column of `_diameter_keys`, over its `den`."""
        lca = table._heights_on(tree) is not None
        return cls(tree, table, "table", _diameter_keys(tree, table), _lca=lca, _den=table.den)

    @classmethod
    def from_intervals(cls, tree: CellTree, emb: IntervalEmbedding) -> "Geometry":
        """Hull diameters and gaps over the least common denominator of the
        interval ends, and the point metric `interval_table`."""
        table = interval_table(tree, emb)
        ends, den = _over_den([v for pair in emb.intervals for v in pair])
        lo, hi = [0] * tree.n_cells, [0] * tree.n_cells
        for i, leaf in enumerate(tree.leaf_of):
            lo[leaf], hi[leaf] = ends[2 * i], ends[2 * i + 1]
        for c in reversed(tree.internal_cells()):  # preorder: children after their parent
            kids = tree.children[c]
            lo[c], hi[c] = min(lo[k] for k in kids), max(hi[k] for k in kids)
        hulls = _column(lo + hi).reshape(2, -1).T
        return cls(tree, table, "intervals", hulls[:, 1] - hulls[:, 0], hulls, _den=den)


def _diameter_keys(tree: CellTree, table: MetricTable) -> np.ndarray:
    """The kernel value of each cell's diameter: the largest entry of the
    strips (`_strips`) of the cell and of the cells below it, on the runs of
    `tree.leaf_order` (the heights of a table weight-built on `tree`).
    Strip maxima are `np.fmax`, so NaN entries are skipped."""
    if tuple(table.labels) != tuple(tree.points):
        raise PointSetMismatch("table labels differ from tree points")
    if (heights := table._heights_on(tree)) is not None:
        return heights
    order, runs = tree.leaf_order
    mat = table.kernel[np.ix_(order, order)]
    keys = np.zeros(tree.n_cells, dtype=mat.dtype)
    for c, run, after in _strips(tree.children, runs):
        keys[c] = np.fmax.reduce(mat[run, after], axis=None, initial=keys[c])
    for c in range(tree.n_cells - 1, 0, -1):  # preorder: children after their parent
        keys[tree.parent[c]] = max(keys[tree.parent[c]], keys[c])
    return keys


def interval_table(tree: CellTree, emb: IntervalEmbedding) -> MetricTable:
    """The metric |p_i - p_j| on the leaf representatives: each leaf's
    interval sampled at the endpoint facing its sibling.

    The representatives are scaled once to integers P over their common
    denominator and reduced (so int64 exactly when rescaling the n^2
    differences gives int64): the kernel is abs(P[:, None] - P[None, :]).
    """
    if len(emb.intervals) != tree.n_points:
        raise PointSetMismatch("one interval per point required")
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
    ints, den = _over_den(reps)
    lo = min(ints)
    g = gcd(den, *(p - lo for p in ints))
    ints = [(p - lo) // g for p in ints]
    pos = np.array(ints, dtype=_int_dtype(max(ints)))
    return MetricTable.from_kernel(tree.points, abs(pos[:, None] - pos[None, :]), den // g)


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
    radii, so scanning them decides ball properties for all radii.  On a
    table with an `ultrametric_tree` the distances are the heights of its
    internal cells; on any other table, the distinct `kernel_codes` of the
    upper triangle.  The radii are doubled kernel values, 2a and a + b (a
    float a + b rounds as (a + b) / 2 does), halved at the end."""
    found = table.ultrametric_tree
    if found is not None:
        tree, heights = found
        vals = np.unique(heights[tree.internal_cells()])
    else:
        keys, codes = table.kernel_codes()
        upper = codes[np.triu(np.ones(codes.shape, dtype=bool), 1)]
        vals = keys[np.flatnonzero(np.bincount(upper, minlength=len(keys)))]
    doubled = np.empty(max(2 * len(vals) - 1, 0), dtype=vals.dtype)
    doubled[0::2] = 2 * vals
    doubled[1::2] = vals[:-1] + vals[1:]
    if table.den is None:
        return [r / 2 for r in doubled.tolist()]
    return [Fraction(r, 2 * table.den) for r in doubled.tolist()]


class BallScanner:
    """Closed balls of a fixed table, on its cached `kernel_codes`.

    ``orders[x]`` lists the points by code from x, ties by index, and
    ``sorted_codes[x]`` their codes upcast to int32 (int64 past 2^31 entries),
    so the ball of radius r around x is the prefix of ``orders[x]`` whose
    codes are below the code bound of r, the number of ``keys`` at most r.  ``halves[k]``
    is the code bound of half the k-th key.  ``count(x, b)``, the row search
    (`_search_rows`) on ``sorted_codes``, is the size of the ball of the
    points whose code from x is below b, and `balls` lists every ball.
    `MetricTable.ball_scanner` keeps one per table.
    """

    def __init__(self, table: MetricTable):
        self.keys, codes = table.kernel_codes()
        self.den = table.den
        codes = codes.astype(np.int32 if table.n**2 < 2**31 else np.int64)
        self.orders = np.argsort(codes, axis=1, kind="stable").astype(codes.dtype)
        self.sorted_codes = np.take_along_axis(codes, self.orders, axis=1)
        self.halves = np.searchsorted(2 * self.keys, self.keys, side="right")
        self.count = _search_rows(self.sorted_codes, len(self.keys))
        self._cache: dict = {}

    @cached_property
    def balls(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every (center, code) ball, as arrays (centers, codes, sizes): for
        each center x, by code, its ball at each distinct code k of its row,
        of the points whose code from x is at most k."""
        n, ranked = len(self.orders), self.sorted_codes
        starts = np.flatnonzero(np.diff(ranked, axis=1, prepend=-1))
        ends = np.flatnonzero(np.diff(ranked, axis=1, append=len(self.keys))) + 1
        centers = starts // n
        return centers, ranked.ravel()[starts], ends - centers * n

    def change_radii(self, bound: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The (center, radius index) pairs, by center and then radius, at
        which a center's ball can change along radii of nondecreasing code
        bounds `bound`: each center's first radius, and the first radius
        whose bound passes each code of its row."""
        centers, codes, _ = self.balls
        firsts = np.flatnonzero(np.diff(centers, prepend=-1))  # each center's first ball
        at = np.insert(bound.searchsorted(codes, side="right"), firsts, 0)
        centers = np.insert(centers, firsts, centers[firsts])
        keep = at < len(bound)
        return centers[keep], at[keep]

    def bounds(self, radii: list) -> np.ndarray:
        """Code bounds of the radii (row 0) and their halves (row 1), on the
        kernel: r is at least a key k when 2r >= 2k, and r / 2 when 2r >= 4k.
        2r is a doubled float, or floor(2r * den), exact on `critical_radii`
        and compared with the even 2k and 4k as 2r is."""
        if self.den is None:
            doubled = 2 * np.array(radii, dtype=np.float64)
        else:
            twice = 2 * self.den
            doubled = np.array([r.numerator * twice // r.denominator for r in radii], dtype=self.keys.dtype)
        return np.stack([np.searchsorted(k * self.keys, doubled, side="right") for k in (2, 4)])

    def ball_below(self, x: int, bound: int) -> frozenset:
        """The points whose code from x is below `bound`, cached."""
        got = self._cache.get((x, bound))
        if got is None:
            got = self._cache[x, bound] = frozenset(self.orders[x, : self.count(x, bound)].tolist())
        return got


def _search_rows(rows: np.ndarray, top: int):
    """The row search: count(i, bound) counts the entries of row i of `rows`
    below bound (in [0, top]), for int64 arrays i.  The rows, each sorted
    with entries in [-1, top), lie end to end, row i shifted by i * (top + 1)
    so that the whole is sorted, and one searchsorted answers every query."""
    n, step = rows.shape[1], top + 1
    flat = (rows + step * np.arange(len(rows), dtype=np.int64)[:, None]).ravel()
    return lambda i, bound: flat.searchsorted(i * step + bound) - i * n


def balls_equal_cells(tree: CellTree, m: MetricTable) -> BallCellVerdict:
    """Check both directions of the ball-cell correspondence of a metric.

    (a) for every cell C and every x in C, the closed ball around x with
        radius diam C (`_diameter_keys`) equals C;
    (b) for every center and every critical radius, the closed ball is a
        cell.  A center's ball changes only at its `change_radii`, so (b)
        reads each ball there, at its size from the row search `count`.
        Cells are runs of `CellTree.leaf_order`, and a ball (a prefix of
        ``orders[x]``) is a cell when the span from the least to the
        greatest leaf position in it is a cell's run of the ball's size.

    A table with an `ultrametric_tree` passes exactly when that tree is
    `tree`: its balls are its clusters, and both trees are canonical, so
    the comparison is one of families.  Any other table, and a tree
    mismatch, runs both scans on the code bounds of the table's
    `ball_scanner`.

    Witnesses: the first failing cell, then its first failing point (a);
    the first failing center, then its first failing radius (b).
    """
    found = m.ultrametric_tree
    if found is not None and found[0] == tree:
        return BallCellVerdict(True, (), ())
    diams = _diameter_keys(tree, m)
    scanner = m.ball_scanner
    order, runs = tree.leaf_order
    cell_failures = []
    for c, bound in enumerate(np.searchsorted(scanner.keys, diams, side="right").tolist()):
        pts = np.sort(order[runs[c]])
        ok = (scanner.sorted_codes[pts] < bound).sum(axis=1) == len(pts)
        if not ok.all():
            cell_failures.append((c, tree.points[pts[ok.argmin()]]))
            break
    ball_failures = []
    radii = critical_radii(m)
    bounds = scanner.bounds(radii)[0]
    x, at = scanner.change_radii(bounds)
    size = scanner.count(x, bounds[at])
    pos = np.argsort(order)[scanner.orders]  # leaf positions, in each center's order
    is_run = np.zeros((m.n, m.n + 1), dtype=bool)  # [start, stop) of each cell
    is_run[[r.start for r in runs], [r.stop for r in runs]] = True
    # a ball of size 0 reads the prefix of size n and fails the size test
    lo = np.minimum.accumulate(pos, axis=1)[x, size - 1]
    hi = np.maximum.accumulate(pos, axis=1)[x, size - 1] + 1
    ok = (hi - lo == size) & is_run[lo, hi]
    if not ok.all():
        k = int(ok.argmin())
        ball = sorted(tree.points[j] for j in scanner.ball_below(int(x[k]), int(bounds[at[k]])))
        ball_failures.append((tree.points[x[k]], radii[at[k]], tuple(ball)))
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
    """diam C' < diam C on every tree edge (child strictly smaller): one
    compare of the diameter column along `tree.edges`, whose first failing
    edge is the witness."""
    diams, (parent, child) = np.asarray(g._diams), tree.edges
    bad = ~(diams[child] < diams[parent])
    if not bad.any():
        return MonotonicityVerdict(True)
    c, ch = int(parent[bad.argmax()]), int(child[bad.argmax()])
    return MonotonicityVerdict(False, (c, ch, g.diam(c), g.diam(ch)))
