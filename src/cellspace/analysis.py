"""Doubling and regularity constants for cellular spaces.

Cellular doubling bounds the number of maximal proper sub-cells; metric
doubling covers balls by half-radius balls; measure doubling bounds the
parent/child mass ratio.  Regularity pins child diameters between alpha and
beta times the parent diameter (beta < 1) and sibling separations above
gamma times the parent diameter.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import product as iproduct
from math import gcd

import numpy as np

from .celltree import CellTree
from .errors import (
    IsolatedPoint,
    NotDecreasing,
    NotProbability,
    OverlappingCells,
    PointSetMismatch,
    ZeroDiameterInternalCell,
)
from .metrics import (
    Geometry,
    MetricTable,
    WeightFn,
    _int_dtype,
    _over_den,
    _search_rows,
    _strips,
    critical_radii,
)
from .spaces import ProductSpec

EXACT_COVER_CAP = 20  # balls with more candidate centers fall back to greedy


class MeasureAtoms:
    """Strictly positive point masses; cell mass is the sum over its points.

    The atoms are one integer column over their least common denominator
    (``column[i] / den`` is the mass of point i), in `_int_dtype` of their
    total, so every sum of atoms fits; ``values`` builds Fractions on read.
    """

    def __init__(self, labels, values, den: int | None = None):
        """One rational atom per label; with `den`, the integers over it."""
        if len(labels) != len(values):
            raise ValueError("one atom per point required")
        ints, self.den = (values, den) if den else _over_den(values)
        for v, k in zip(values, ints):
            if k <= 0:
                raise ValueError(f"atom {v} is not strictly positive")
        self.labels, self.column = labels, np.array(ints, dtype=_int_dtype(sum(ints)))

    @classmethod
    def uniform(cls, tree: CellTree) -> "MeasureAtoms":
        return cls(tree.points, [1] * tree.n_points, tree.n_points)

    @cached_property
    def values(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(k, self.den) for k in self.column.tolist())

    def total(self) -> Fraction:
        return Fraction(int(self.column.sum()), self.den)

    def normalized(self) -> "MeasureAtoms":
        ints = self.column.tolist()
        g = gcd(sum(ints), *ints)  # the atoms over their total, in lowest terms
        return MeasureAtoms(self.labels, [k // g for k in ints], sum(ints) // g)

    def mass(self, indices) -> Fraction:
        return Fraction(sum(self.column[list(indices)].tolist()), self.den)

    def __eq__(self, other) -> bool:
        return isinstance(other, MeasureAtoms) and (tuple(self.labels), self.den) == (
            tuple(other.labels), other.den) and np.array_equal(self.column, other.column)


def _check_alignment(tree: CellTree, mu: MeasureAtoms) -> None:
    if tuple(mu.labels) != tuple(tree.points):
        raise PointSetMismatch("measure labels differ from tree points")


def cell_doubling_constant(tree: CellTree) -> int:
    """Largest number of maximal proper sub-cells of any cell; 0 for a
    one-point space."""
    return max(map(len, tree.children), default=0)


def measure_cell_doubling(tree: CellTree, mu: MeasureAtoms) -> Fraction:
    """Smallest k2 with mu(C) <= k2 * mu(C') on every edge, i.e. the largest
    parent/child mass ratio (`_max_ratio` of the `_cell_masses`); 1 for a
    one-point space."""
    _check_alignment(tree, mu)
    mass = _cell_masses(tree, mu)
    parent, child = tree.edges
    return _max_ratio(mass[parent], mass[child])


def _cell_masses(tree: CellTree, mu: MeasureAtoms) -> np.ndarray:
    """The mass of each cell as an integer over the atoms' denominator, in
    the dtype of their column, summed from the leaves up the tree; read-only,
    and kept on `mu` for the last tree asked, so the cell and metric
    doubling of one analysis sum them once."""
    kept = mu.__dict__.get("_masses")
    if kept is not None and kept[0] is tree:
        return kept[1]
    mass, parent = [0] * tree.n_cells, tree.parent
    for leaf, k in zip(tree.leaf_of, mu.column.tolist()):
        mass[leaf] = k
    for c in range(tree.n_cells - 1, 0, -1):  # preorder: children after their parent
        mass[parent[c]] += mass[c]
    out = np.array(mass, dtype=mu.column.dtype)
    out.flags.writeable = False
    mu._masses = (tree, out)
    return out


def product_measure(spec: ProductSpec, level_weights) -> MeasureAtoms:
    """Product of per-level probability vectors; one atom per leaf."""
    if len(level_weights) != spec.depth:
        raise NotProbability(
            f"need {spec.depth} level weight vectors, got {len(level_weights)}"
        )
    vecs = []
    for lvl, (size, weights) in enumerate(zip(spec.sizes, level_weights)):
        w = [Fraction(v) for v in weights]
        if len(w) != size:
            raise NotProbability(f"level {lvl} needs {size} weights, got {len(w)}")
        if any(v <= 0 for v in w):
            raise NotProbability(f"level {lvl} has a nonpositive weight")
        if sum(w) != 1:
            raise NotProbability(f"level {lvl} weights sum to {sum(w)}, not 1")
        vecs.append(w)
    labels = spec.labels()
    atoms = []
    for coords in iproduct(*(range(n) for n in spec.sizes)):
        a = Fraction(1)
        for lvl, c in enumerate(coords):
            a *= vecs[lvl][c]
        atoms.append(a)
    return MeasureAtoms(tuple(labels), tuple(atoms))


def sequence_regularity(rho_seq) -> tuple[Fraction, Fraction]:
    """(min, max) of consecutive ratios of a strictly decreasing positive
    sequence; the max is automatically below 1."""
    seq = [Fraction(v) for v in rho_seq]
    if len(seq) < 2:
        raise ValueError("need at least two sequence entries")
    if seq[-1] <= 0 or seq[0] <= 0:
        raise NotDecreasing("sequence must be positive")
    ratios = []
    for a, b in zip(seq, seq[1:]):
        if not 0 < b < a:
            raise NotDecreasing(f"sequence not strictly decreasing at {a} -> {b}")
        ratios.append(b / a)
    return min(ratios), max(ratios)


@dataclass(frozen=True)
class RegularityReport:
    """Extremal diameter ratios and sibling separations with witnesses.

    alpha/beta are min/max of diam(child)/diam(parent) over edges whose
    child has positive diameter; gamma is the min of dist(C', C'')/diam(C)
    over sibling pairs.  Fields are None when no edge or pair qualifies
    (one-point spaces, or trees whose children are all single points under
    a metric that gives singletons zero diameter).
    """

    alpha: Fraction | None
    beta: Fraction | None
    gamma: Fraction | None
    alpha_witness: tuple | None
    beta_witness: tuple | None
    gamma_witness: tuple | None
    sibling_separation_ratio: Fraction | None  # min dist/max(child diams); no verdict

    def passes(self) -> bool:
        if self.beta is not None and not self.beta < 1:
            return False
        if self.gamma is not None and not self.gamma > 0:
            return False
        return True


def metric_regularity(tree: CellTree, g: Geometry) -> RegularityReport:
    """Exact regularity constants of a geometry over the cell tree, from its
    diameter column on the `tree.edges` and the `_sibling_separations`; on a
    table weight-built on the tree (`_lca`) a sibling separation is the
    parent's diameter, so no pair is listed.  Each witness is the first edge
    (c, ch) or pair (c, i, j) in scan order to attain it (`_first_extreme`).
    """
    if g.tree is not tree and g.tree != tree:
        raise PointSetMismatch("geometry belongs to a different tree")
    diam, (parent, child) = np.asarray(g._diams), tree.edges
    first = np.flatnonzero(np.diff(parent, prepend=-1))  # each internal cell's first edge
    inner = parent[first]
    if (flat := ~(diam[inner] > 0)).any():
        raise ZeroDiameterInternalCell(f"internal cell {inner[flat.argmax()]} has zero diameter")
    e = np.flatnonzero(diam[child] > 0)
    (a, alpha), (b, beta) = (_first_extreme(diam[child[e]], diam[parent[e]], least) for least in (True, False))
    edge = {k: None if k is None else (int(parent[e[k]]), int(child[e[k]])) for k in (a, b)}
    gamma = aux = gamma_w = None
    if g._lca and len(inner):
        gamma, gamma_w = Fraction(1), (int(inner[0]), *tree.children[inner[0]][:2])
        widest = np.maximum.reduceat(diam[child], first)
        aux = _first_extreme(diam[inner[widest > 0]], widest[widest > 0], True)[1]
    elif len(inner):
        c, i, j, sep = _sibling_separations(tree, g)
        k, gamma = _first_extreme(sep, diam[c], True)
        gamma_w = (int(c[k]), int(i[k]), int(j[k]))
        widest = np.maximum(diam[i], diam[j])
        aux = _first_extreme(sep[widest > 0], widest[widest > 0], True)[1]
    return RegularityReport(alpha, beta, gamma, edge[a], edge[b], gamma_w, aux)


def _sibling_separations(tree: CellTree, g: Geometry) -> tuple[np.ndarray, ...]:
    """Arrays (c, i, j, sep) over the pairs of siblings i before j of each
    cell c, in scan order: the gap of their hulls on interval geometry, else
    the least table entry from i to j (NaN skipped, as `Geometry.separation`
    does), in one pass over the strips (`_strips`), each reduced over its
    rows and then over the runs of the later siblings."""
    parent, child = tree.edges
    group_end = np.searchsorted(parent, parent, side="right")
    later = group_end - np.arange(len(child)) - 1  # the siblings after each child
    a = np.repeat(np.arange(len(child)), later)
    b = a + 1 + np.arange(len(a)) - np.repeat(np.cumsum(later) - later, later)
    c, i, j = parent[a], child[a], child[b]
    if g._hulls is not None:
        (l1, r1), (l2, r2) = g._hulls[i].T, g._hulls[j].T
        sep = np.where(l1 <= l2, l2 - r1, l1 - r2)
        if (bad := sep < 0).any():
            k = bad.argmax()
            raise OverlappingCells(f"cells {i[k]} and {j[k]} are disjoint but their hulls overlap")
        return c, i, j, sep
    order, runs = tree.leaf_order
    mat = g.table.kernel[np.ix_(order, order)]
    seps = []
    for cell, run, after in _strips(tree.children, runs):
        starts = [runs[k].start - after.start for k in tree.children[cell] if runs[k].start >= after.start]
        seps.append(np.fmin.reduceat(np.fmin.reduce(mat[run, after], axis=0), starts))
    return c, i, j, np.concatenate(seps)


def synthesize_regular_weight(tree: CellTree, beta) -> WeightFn:
    """Geometric weights beta^depth on internal cells, zero on leaves.

    The induced ultrametric has alpha = beta equal to the input ratio and
    gamma = 1.  Requires every internal node to have at least two children,
    which canonical CellTrees guarantee.
    """
    beta = Fraction(beta)
    if not 0 < beta < 1:
        raise ValueError(f"ratio must lie in (0, 1), got {beta}")
    kids = np.bincount(tree.edges[0], minlength=tree.n_cells)
    if (kids == 1).any():
        raise IsolatedPoint(f"internal cell {(kids == 1).argmax()} has a single child")
    leaf, depth = kids == 0, np.array(tree.depth)
    levels = [beta**d for d in range(depth[~leaf].max(initial=-1) + 1)]
    return WeightFn(tree, levels + [Fraction(0)], np.where(leaf, len(levels), depth))


# -- metric doubling ---------------------------------------------------------


@dataclass(frozen=True)
class DoublingResult:
    value: int
    exact: bool  # False when a greedy cover bound determined the value
    witness: tuple | None  # (center label, radius) attaining the value

    def __int__(self):
        return self.value


def _exact_min_cover(universe: frozenset, sets: list[frozenset]) -> int:
    """Minimum number of the given sets whose union contains the universe.

    Branch and bound on the first uncovered element; feasible because some
    set contains every element (each candidate ball contains its center).
    """
    order = sorted(universe)
    best = len(sets)

    def rec(uncovered: frozenset, used: int) -> None:
        nonlocal best
        if used >= best:
            return
        if not uncovered:
            best = used
            return
        pivot = next(e for e in order if e in uncovered)
        for s in sets:
            if pivot in s:
                rec(uncovered - s, used + 1)

    rec(universe, 0)
    return best


def _greedy_cover(universe: frozenset, sets: list[frozenset]) -> int:
    uncovered = set(universe)
    count = 0
    while uncovered:
        gain, chosen = max(
            ((len(s & uncovered), s) for s in sets),
            key=lambda p: (p[0], -min(p[1])),
        )
        if gain == 0:
            raise AssertionError("cover impossible; candidate balls miss points")
        uncovered -= chosen
        count += 1
    return count


def metric_doubling_constant(g: Geometry) -> DoublingResult:
    """Largest minimum number of half-radius balls needed to cover any ball.

    A radius between consecutive distances realized at a center gives the
    same ball with a larger half-radius, so its cover is never harder; each
    center is therefore scanned at the distinct positive codes of its row,
    in index order of the centers, which attains the maximum over all radii.
    The witness is the first (center, radius) in that order that attains
    the value.

    Every cover is exact, at any ball size, on a table with an
    `ultrametric_tree` (`_tree_doubling`) and on a line metric
    (`MetricTable.line_order`, `_line_doubling`); the two overlap only on
    two points, where they agree.  The line and the general scan read the
    (center, code) `balls` of the table's `ball_scanner`.  On other tables
    minimum covers are exact while the ball has at most EXACT_COVER_CAP
    candidate centers; larger balls use a greedy bound, and the result is
    flagged inexact only when a greedy bound exceeds every exact cover.
    """
    table = g.table
    if table.n <= 1:
        return DoublingResult(1, True, None)
    if table.ultrametric_tree is not None:  # before the line: no ultrametric builds a scanner
        return _tree_doubling(table, *table.ultrametric_tree)
    if table.line_order is not None:
        return _line_doubling(table, table.line_order)
    scanner = table.ball_scanner
    positive = int(np.searchsorted(scanner.keys, 0, side="right"))  # the first code of a positive key
    halves = scanner.halves.tolist()  # code bound of half each key
    best_exact, wit_exact = 1, None
    best_greedy, wit_greedy = 0, None
    solved = set()
    centers, codes, _ = scanner.balls
    scan = codes >= positive
    for x, k in zip(centers[scan].tolist(), codes[scan].tolist()):
        b, half = scanner.ball_below(x, k + 1), halves[k]
        if (b, half) in solved:
            continue
        solved.add((b, half))
        cand_sets = sorted(
            {scanner.ball_below(y, half) for y in sorted(b)},
            key=lambda s: (-len(s), min(s)),
        )
        if len(b) <= EXACT_COVER_CAP:
            cnt = _exact_min_cover(b, cand_sets)
            if cnt > best_exact:
                best_exact, wit_exact = cnt, (table.labels[x], table._value(scanner.keys[k]))
        else:
            cnt = _greedy_cover(b, cand_sets)
            if cnt > best_greedy:
                best_greedy, wit_greedy = cnt, (table.labels[x], table._value(scanner.keys[k]))
    if best_greedy > best_exact:
        return DoublingResult(best_greedy, False, wit_greedy)
    return DoublingResult(best_exact, True, wit_exact)


def _half_balls(tree: CellTree, heights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The pairs (C, D) of cells of an ultrametric's cluster tree in which D
    is a closed ball of radius h(C) / 2 inside the ball C: a maximal
    sub-cluster of C with 2 h(D) <= h(C).

    Such a D is below C, and h(C) < 2 h(parent of D).  Each cell climbs its
    ancestors from its parent, and stops at the first one that is at least
    twice its parent's height, so the walk visits, per cell, only the
    ancestors within a factor two of its parent.
    """
    twice = 2 * heights
    parent = np.array((0,) + tree.parent[1:], dtype=np.intp)
    d = np.arange(1, tree.n_cells)
    c = parent[d]
    lim = twice[c]
    found_c, found_d = [], []
    while d.size:
        live = heights[c] < lim
        d, c, lim = d[live], c[live], lim[live]
        hit = twice[d] <= heights[c]
        found_c.append(c[hit])
        found_d.append(d[hit])
        up = c != tree.ROOT
        d, c, lim = d[up], parent[c[up]], lim[up]
    return np.concatenate(found_c), np.concatenate(found_d)


def _tree_doubling(table: MetricTable, tree: CellTree, heights: np.ndarray) -> DoublingResult:
    """`metric_doubling_constant` of a table with an `ultrametric_tree`.

    The balls of positive radius are the internal cells, and the balls of
    radius h(C) / 2 centered in a cell C partition it into its maximal
    sub-clusters of height at most h(C) / 2 (`_half_balls`), so the minimum
    cover of C takes one ball for each of them: exact at any ball size.
    A center x meets the balls that contain it from the smallest up, so the
    first attaining ball in scan order is centered at the smallest point of
    an attaining cell, with the lowest attaining cell that contains it.
    """
    counts = np.bincount(_half_balls(tree, heights)[0], minlength=tree.n_cells)
    best = int(counts.max())
    if best <= 1:
        return DoublingResult(1, True, None)
    attaining = np.flatnonzero(counts == best).tolist()
    order, runs = tree.leaf_order  # a cell's least point leads its run
    x = int(min(order[runs[c].start] for c in attaining))
    chain = {tree.leaf_of[x], *tree.ancestors(tree.leaf_of[x])}  # the cells that hold x
    c = min((c for c in attaining if c in chain), key=heights.__getitem__)
    return DoublingResult(best, True, (table.labels[x], table._value(heights[c])))


def _line_doubling(table: MetricTable, line: np.ndarray) -> DoublingResult:
    """`metric_doubling_constant` of a line metric, with `line` its points
    in line order.

    A ball B(x, r) is a run of the line order, and the left-to-right rule
    covers it with the fewest half-radius balls centered in it (exact by an
    exchange argument; Kleinberg & Tardos, Algorithm Design, ch. 4):
    take the first uncovered point p, center the next ball at the last
    point of the run within r/2 of p, jump past that center's half-ball,
    and repeat.  Every (center, code) ball takes these steps at once, so
    the loop runs once per step of the largest cover.  Distances compare
    as codes against code bounds on the table's `ball_scanner` (``halves``
    for r/2), the same on int64 and Python-int kernels.
    """
    n = table.n
    scanner = table.ball_scanner
    # the balls of radius 0 take one step; they attain no cover past 1
    centers, ks, sizes = scanner.balls
    # row i holds the codes from the i-th point of the line to the j-th for
    # j >= i (nondecreasing) and -1 for j < i, so its count below a bound is
    # the first line position j >= i whose code is at least the bound
    lined = table.kernel_codes()[1][np.ix_(line, line)].astype(np.intp)  # unsigned codes hold no -1
    reach = _search_rows(np.where(np.tri(n, k=-1, dtype=bool), -1, lined), len(scanner.keys))
    hi = reach(np.argsort(line)[centers], ks + 1)  # each ball is the run [hi - size, hi)
    p, half = hi - sizes, scanner.halves[ks]
    counts = np.zeros(len(ks), dtype=np.int64)
    todo = np.arange(len(ks))
    while todo.size:
        counts[todo] += 1
        c = np.minimum(reach(p, half) - 1, hi - 1)  # the last point of the run within r/2 of p
        p = reach(c, half)  # the first point past c's half-ball
        more = p < hi
        todo, p, hi, half = todo[more], p[more], hi[more], half[more]
    best = int(counts.max(initial=1))
    if best == 1:
        return DoublingResult(1, True, None)
    at = int(counts.argmax())
    return DoublingResult(best, True, (table.labels[int(centers[at])], table._value(scanner.keys[ks[at]])))


def measure_metric_doubling(g: Geometry, mu: MeasureAtoms):
    """Largest ratio mu(B(x, r)) / mu(B(x, r/2)) over centers and critical
    radii; 1 for a one-point space.

    Masses are the integers of `_cell_masses`, and the ratios are compared
    by cross-multiplication (`_max_ratio`), which builds one Fraction.  On
    a table with an `ultrametric_tree` the largest ratio at a center x is
    that of a cell C above x to the ball of radius h(C) / 2 around x, one
    of C's `_half_balls`, so the pairs are those of the tree and the masses
    are its cell masses.  On any other table the masses are prefix sums of
    the point masses (`mu.column`) along the `ball_scanner`'s
    ``orders``, read at the `critical_radii` where a ball changes
    (`BallScanner.change_radii`): between two of them B(x, r) is constant
    and mu(B(x, r/2)) can only grow, so the largest ratio falls on one.
    """
    table = g.table
    _check_alignment(g.tree, mu)
    if table.n <= 1:
        return Fraction(1)
    found = table.ultrametric_tree
    if found is not None:
        tree, heights = found
        mass = _cell_masses(tree, mu)
        big, half = _half_balls(tree, heights)
        return _max_ratio(mass[big], mass[half])
    scanner = table.ball_scanner
    bounds = scanner.bounds(critical_radii(table))
    x, at = scanner.change_radii(bounds[0])
    prefix = np.cumsum(np.insert(mu.column[scanner.orders], 0, 0, axis=1), axis=1)
    num, den = prefix[x, scanner.count(x, bounds[:, at])]  # masses of B(x, r) and B(x, r/2)
    return _max_ratio(num, den)


def _max_ratio(num: np.ndarray, den: np.ndarray) -> Fraction:
    """The largest num[i] / den[i] of positive integer arrays, and at least 1."""
    return _first_extreme(np.append(num, 1), np.append(den, 1))[1]


def _first_extreme(num: np.ndarray, den: np.ndarray, least: bool = False) -> tuple:
    """(i, r): the first i at which r = num[i] / den[i] (den > 0) is greatest,
    or least; (None, None) on empty arrays.  Integer ratios compare by
    cross-multiplication in a knockout of halves (int64 when every product
    fits), r a Fraction; float ratios as a scan keeping the first of equals
    would (a NaN first stays, later NaNs are skipped), r a float."""
    if not len(num):
        return None, None
    if num.dtype == float:
        r = num / den
        i = 0 if np.isnan(r[0]) else int((np.nanargmin if least else np.nanargmax)(r))
        return i, float(r[i])
    sign = -1 if least else 1
    dtype = _int_dtype(int(abs(num).max()) * int(den.max()))
    num, den = (sign * num).astype(dtype), den.astype(dtype)
    p, q = num, den
    while len(p) > 1:
        k = len(p) // 2
        a, b = slice(0, k), slice(k, 2 * k)
        later = p[b] * q[a] > p[a] * q[b]
        p = np.concatenate((np.where(later, p[b], p[a]), p[2 * k :]))
        q = np.concatenate((np.where(later, q[b], q[a]), q[2 * k :]))
    p, q = int(p[0]), int(q[0])
    return int(np.argmax(num * q == p * den)), Fraction(sign * p, q)
