"""Ball scans against the slow reference scans.

`BallScanner`, `critical_radii`, `balls_equal_cells`,
`metric_doubling_constant` and `measure_metric_doubling` work on the
table's cached kernel codes, with radii as doubled kernel keys, and on
integer masses, or, on a table with an `ultrametric_tree`, on that cluster
tree.  Every table scan reads the scanner's one enumeration of
(center, code) balls, `BallScanner.balls`, and its row search
`BallScanner.count`; balls = cells and measure doubling read each center
only at its `BallScanner.change_radii`.  The reference functions below are
the scans they replaced, which sort, hash and bisect the `Fraction` rows,
sum `Fraction` masses and visit every center at every critical radius.
The property tests compare radii, the balls `BallScanner.ball_below`
reads and the sizes the row search counts at the code bounds of every
reference radius and of its half, and the enumerated balls, with the
reference's; verdicts with their witnesses, doubling values with their
`exact` flags and witnesses, and measure doubling ratios on random
laminar ultrametrics (int64 and Python-int kernels, exact or as float
tables, checked against their own tree or against another tree on the
same points, so that balls = cells fails too), on pseudo-ultrametrics
(a point repeated, so no cluster tree), on fat Cantor line metrics
(where balls = cells fails), on L1 distances between random rational
points of the plane (repeated points included, exact or as float
tables), on a ball whose leaf span is a cell but which misses part of it,
and under random point masses.  The plane tables are in general neither
lines nor ultrametrics, so they reach the general scans.  The tree paths
cover every ball exactly, so they are compared with the reference run
with an exact cover on every ball, and no ultrametric may reach a scan
or a set cover.

On line metrics `metric_doubling_constant` covers every ball exactly, by
the left-to-right rule; it is compared with the reference scan run with
an exact cover on every ball, on distances between random rational points
(repeated coordinates included, int64 and Python-int kernels).  No ball
layer reads `MetricTable.value_codes`, whose keys are Fractions, and the
kernel codes are computed once per table.
"""
import random
from bisect import bisect_right
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_quasisym_oracle import WIDE, as_floats, random_weights

from cellspace import (
    Geometry,
    MeasureAtoms,
    MetricTable,
    ProductSpec,
    analysis,
    balls_equal_cells,
    critical_radii,
    fat_cantor,
    measure_metric_doubling,
    metrics,
    metric_doubling_constant,
    product_space,
    random_laminar,
    synthesize_regular_weight,
    ultrametric_from_weight,
    validate_family,
    validate_ultrametric,
    weight_from_sequence,
)
from cellspace.analysis import (
    EXACT_COVER_CAP,
    DoublingResult,
    _check_alignment,
    _exact_min_cover,
    _greedy_cover,
)
from cellspace.celltree import CellTree
from cellspace.errors import PointSetMismatch
from cellspace.metrics import BallCellVerdict, BallScanner

# -- the reference scans ---------------------------------------------------------


def ref_critical_radii(table: MetricTable) -> list:
    """Realized positive distances plus midpoints of consecutive values.

    Every closed ball of positive radius equals a ball at one of these
    radii, so scanning them decides ball properties for all radii."""
    vals = sorted(
        {table.rows[i][j] for i in range(table.n) for j in range(i + 1, table.n)}
    )
    radii = []
    for k, v in enumerate(vals):
        radii.append(v)
        if k + 1 < len(vals):
            radii.append((v + vals[k + 1]) / 2)
    return radii


class RefBallScanner:
    """Closed balls of a fixed table, via per-center sorted rows.

    ``orders[x]`` lists point indices by distance from x, so the ball of
    radius r around x is the prefix of length ``count_within(x, r)``.
    """

    def __init__(self, table: MetricTable):
        self.sorted_rows = []
        self.orders = []
        for i in range(table.n):
            pairs = sorted(zip(table.rows[i], range(table.n)))
            self.sorted_rows.append([p[0] for p in pairs])
            self.orders.append([p[1] for p in pairs])
        self._cache: dict = {}

    def count_within(self, x: int, r) -> int:
        return bisect_right(self.sorted_rows[x], r)

    def ball(self, x: int, r) -> frozenset:
        key = (x, r)
        got = self._cache.get(key)
        if got is None:
            got = frozenset(self.orders[x][: self.count_within(x, r)])
            self._cache[key] = got
        return got


def ref_balls_equal_cells(tree: CellTree, m: MetricTable) -> BallCellVerdict:
    """Check both directions of the ball-cell correspondence.

    (a) for every cell C and every x in C, the closed ball around x with
        radius diam C equals C;
    (b) for every center and every critical radius, the closed ball is a
        cell.  Witnesses are reported in deterministic scan order.
    """
    if tuple(m.labels) != tuple(tree.points):
        raise PointSetMismatch("table labels differ from tree points")
    scanner = RefBallScanner(m)
    # max distance from x to each of its ancestors, leaf upward
    chain_maxdist = {}
    for i in range(tree.n_points):
        node = tree.leaf_of[i]
        chain = [node] + tree.ancestors(node)
        row = m.rows[i]
        for c in chain:
            chain_maxdist[(i, c)] = max(row[j] for j in tree.members[c])
    cell_failures = []
    for c in tree.cells():
        diam = max(chain_maxdist[(i, c)] for i in tree.members[c])
        size = len(tree.members[c])
        for i in sorted(tree.members[c]):
            if scanner.count_within(i, diam) != size:
                cell_failures.append((c, tree.points[i]))
                break
        if cell_failures:
            break
    ball_failures = []
    radii = ref_critical_radii(m)
    sizes_by_chain = {}
    for i in range(tree.n_points):
        node = tree.leaf_of[i]
        chain = [node] + tree.ancestors(node)
        sizes_by_chain[i] = {len(tree.members[c]): c for c in chain}
    for i in range(tree.n_points):
        for r in radii:
            cnt = scanner.count_within(i, r)
            cand = sizes_by_chain[i].get(cnt)
            if cand is None or chain_maxdist[(i, cand)] > r:
                ball = scanner.ball(i, r)
                ball_failures.append(
                    (tree.points[i], r, tuple(sorted(tree.points[j] for j in ball)))
                )
                break
        if ball_failures:
            break
    return BallCellVerdict(
        not cell_failures and not ball_failures,
        tuple(cell_failures),
        tuple(ball_failures),
    )


def ref_metric_doubling_constant(g: Geometry, radii=None, cap=EXACT_COVER_CAP) -> DoublingResult:
    """Largest minimum number of half-radius balls needed to cover any ball.

    Scans every center against the critical radii (realized distances plus
    midpoints).  A radius between consecutive values realized at a center
    gives the same ball with a larger half-radius, so its cover is never
    harder; the default scan therefore visits, per center, only the
    distances realized at that center, which attains the same maximum.
    Minimum covers are exact while the ball has at most `cap` candidate
    centers (every ball when `cap` is None); larger balls use a greedy
    bound, and the result is flagged inexact only when a greedy bound
    exceeds every exact cover.
    """
    table = g.table
    if table.n <= 1:
        return DoublingResult(1, True, None)
    balls = RefBallScanner(table)
    per_center = radii is None
    best_exact, wit_exact = 1, None
    best_greedy, wit_greedy = 0, None
    solved: dict = {}
    for x in range(table.n):
        if per_center:
            scan = sorted({v for v in table.rows[x] if v > 0})
        else:
            scan = radii
        for r in scan:
            b = balls.ball(x, r)
            half = r / 2
            key = (b, half)
            if key in solved:
                continue
            cand_sets = sorted(
                {balls.ball(y, half) for y in sorted(b)},
                key=lambda s: (-len(s), min(s)),
            )
            if cap is None or len(b) <= cap:
                cnt = _exact_min_cover(b, cand_sets)
                solved[key] = (cnt, True)
                if cnt > best_exact:
                    best_exact, wit_exact = cnt, (table.labels[x], r)
            else:
                cnt = _greedy_cover(b, cand_sets)
                solved[key] = (cnt, False)
                if cnt > best_greedy:
                    best_greedy, wit_greedy = cnt, (table.labels[x], r)
    if best_greedy > best_exact:
        return DoublingResult(best_greedy, False, wit_greedy)
    return DoublingResult(best_exact, True, wit_exact)


def ref_measure_metric_doubling(g: Geometry, mu: MeasureAtoms):
    """Largest ratio mu(B(x, r)) / mu(B(x, r/2)) over centers and critical
    radii; 1 for a one-point space."""
    table = g.table
    _check_alignment(g.tree, mu)
    if table.n <= 1:
        return F(1)
    radii = ref_critical_radii(table)
    balls = RefBallScanner(table)
    best = F(1)
    for x in range(table.n):
        prefix = [F(0)]
        for idx in balls.orders[x]:
            prefix.append(prefix[-1] + mu.values[idx])
        for r in radii:
            num = prefix[balls.count_within(x, r)]
            den = prefix[balls.count_within(x, r / 2)]
            ratio = num / den
            if ratio > best:
                best = ratio
    return best


# -- generated inputs ------------------------------------------------------------


KINDS = ("random", "regular", "wide")


@st.composite
def laminar_cases(draw, kind, foreign=True):
    """A random laminar tree, an ultrametric on its points and the tree the
    ultrametric is checked against: its own, or (on a third of the cases,
    when `foreign`) another random tree on the same points.  Random weights
    with denominator 10 give int64 kernels, with a wide denominator kernels
    of Python ints; regular weights give many ties."""
    seed = draw(st.integers(0, 2**32 - 1))
    n = draw(st.integers(1, 24))
    branch = draw(st.integers(2, 4))
    tree = random_laminar(seed, branch, 8, n)
    if kind == "regular":  # many ties: one value per depth
        w = synthesize_regular_weight(tree, draw(st.sampled_from([F(1, 2), F(1, 3)])))
    else:
        w = random_weights(tree, random.Random(seed), WIDE if kind == "wide" else 10)
    table = ultrametric_from_weight(tree, w)
    if draw(st.booleans()):
        table = as_floats(table)
    if foreign and draw(st.integers(0, 2)) == 0:
        tree = random_laminar(seed + 1, branch, 8, n)
    return tree, table


@st.composite
def pseudo_cases(draw, kind):
    """A laminar case with one point repeated: the table gains a last point
    at distance 0 from a drawn one, and the tree is a random one on the
    larger point set."""
    tree, table = draw(laminar_cases(kind, foreign=False))
    n = table.n
    i = draw(st.integers(0, n - 1))
    rows = [list(row) + [row[i]] for row in table.rows]
    rows.append(list(rows[i]))
    rows[i][n] = rows[n][i] = rows[n][n] = rows[i][i]
    tree = random_laminar(draw(st.integers(0, 2**32 - 1)), draw(st.integers(2, 4)), 8, n + 1)
    return tree, MetricTable(tree.points, tuple(map(tuple, rows)), table.exact, table.tol)


@st.composite
def masses(draw, n: int):
    """Positive point masses: small ones; ones over large coprime
    denominators, whose common multiple overflows int64; or heavy integer
    ones that each fit in int64 while their total does not.  The last two
    take the Python-int prefix sums."""
    kind = draw(st.sampled_from(["small", "coprime", "heavy"]))
    if kind == "heavy":
        return tuple(F(2**60 + draw(st.integers(0, 9))) for _ in range(n))
    dens = [1, 12] if kind == "small" else [2**61 - 1, 2**64 - 59, 3**41]
    return tuple(F(draw(st.integers(1, 9)), draw(st.sampled_from(dens))) for _ in range(n))


@st.composite
def l1_tables(draw, kind, dim, most):
    """The L1 distances between up to `most` random rational points of
    dimension `dim`, in random order, with a repeated point on about a
    fifth of the draws.  Small denominators give int64 kernels; mixed wide
    ones (with 1) give kernels of Python ints on all but a few draws."""
    n = draw(st.integers(1, most))
    dens = (1, WIDE, 3**41, 2**64 - 59) if kind == "wide" else (1, 2, 3, 7)
    pts: list = []
    for _ in range(n):
        if pts and draw(st.integers(0, 4)) == 0:
            pts.append(draw(st.sampled_from(pts)))
        else:
            pts.append(tuple(F(draw(st.integers(-20, 20)), draw(st.sampled_from(dens))) for _ in range(dim)))
    rows = tuple(tuple(sum(abs(a - b) for a, b in zip(p, q)) for q in pts) for p in pts)
    return MetricTable(tuple(f"p{i}" for i in range(n)), rows)


def line_tables(kind):
    """|p_i - p_j| on up to 30 random rational points of the line."""
    return l1_tables(kind, 1, 30)


@st.composite
def plane_cases(draw, kind):
    """L1 distances on up to 24 random rational points of the plane (int64
    or Python-int kernels, or the int64 table as floats), and a random tree
    on them: in general neither a line nor an ultrametric, so every ball
    layer takes its general scan."""
    table = draw(l1_tables("int64" if kind == "float" else kind, 2, 24))
    tree = random_laminar(draw(st.integers(0, 2**32 - 1)), draw(st.integers(2, 4)), 8, table.n)
    return tree, as_floats(table) if kind == "float" else table


PRIME_THETAS = [F(1, p) for p in (1000003, 1000033, 1000037, 1000039, 1000081)]


def fat_cantor_geometry(depth: int, thetas=None) -> Geometry:
    tree, emb = fat_cantor(depth, thetas)
    return Geometry.from_intervals(tree, emb)


@st.composite
def fat_cantor_cases(draw, kind):
    """A fat Cantor tree and its line table at a drawn depth: an int64
    kernel, a Python-int one from prime gap proportions (from depth 4 on),
    or the int64 table as floats."""
    depth = draw(st.integers(1, 5))
    g = fat_cantor_geometry(depth, PRIME_THETAS[:depth] if kind == "wide" else None)
    return g.tree, as_floats(g.table) if kind == "float" else g.table


def assert_same_balls(table: MetricTable):
    got, want = BallScanner(table), RefBallScanner(table)
    radii = ref_critical_radii(table) + [F(0) if table.exact else 0.0]
    codes = got.bounds(radii)
    bounds, halves = codes.tolist()
    for x in range(table.n):
        for r, bound, half in zip(radii, bounds, halves):
            assert got.ball_below(x, bound) == want.ball(x, r)
            assert got.ball_below(x, half) == want.ball(x, r / 2)
        # the row search, asked for every radius and half at once
        sizes = got.count(np.full(len(radii), x, dtype=np.int64), codes).tolist()
        assert sizes == [[want.count_within(x, r * h) for r in radii] for h in (1, F(1, 2))]
    listed = [(x, table._value(got.keys[k]), size) for x, k, size in zip(*(a.tolist() for a in got.balls))]
    assert listed == [
        (x, r, want.count_within(x, r)) for x in range(table.n) for r in sorted(set(table.rows[x]))
    ]


def assert_same_radii(table: MetricTable):
    got, want = critical_radii(table), ref_critical_radii(table)
    assert got == want
    assert [type(r) for r in got] == [type(r) for r in want]


def assert_same_verdict(tree: CellTree, table: MetricTable):
    got, want = balls_equal_cells(tree, table), ref_balls_equal_cells(tree, table)
    assert got == want
    for (_, r, _), (_, r0, _) in zip(got.ball_failures, want.ball_failures):
        assert type(r) is type(r0)


def assert_same_doubling(g: Geometry, cap=EXACT_COVER_CAP):
    got, want = metric_doubling_constant(g), ref_metric_doubling_constant(g, cap=cap)
    assert got == want
    if got.witness is not None:
        assert type(got.witness[1]) is type(want.witness[1])


def assert_same_measure_doubling(g: Geometry, mu: MeasureAtoms):
    got, want = measure_metric_doubling(g, mu), ref_measure_metric_doubling(g, mu)
    assert got == want and type(got) is type(want)


# -- properties --------------------------------------------------------------------


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_ball_scans_match_reference_on_ultrametrics(kind, data):
    tree, table = data.draw(laminar_cases(kind))
    assert table.ultrametric_tree is not None
    assert_same_balls(table)
    assert_same_radii(table)
    assert_same_verdict(tree, table)


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_doubling_matches_reference_on_ultrametrics(kind, data):
    # every cover on the cluster tree is exact, at any ball size
    tree, table = data.draw(laminar_cases(kind))
    assert table.ultrametric_tree is not None
    g = Geometry(tree, table, "table", ())
    assert_same_doubling(g, cap=None)
    assert metric_doubling_constant(g).exact
    mu = MeasureAtoms(table.labels, data.draw(masses(table.n)))
    assert_same_measure_doubling(g, mu)


def refuse(*args, **kwargs):
    raise AssertionError("an ultrametric reached a ball scan or a set cover")


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_ultrametrics_reach_no_ball_scan_or_set_cover(kind, data):
    tree, table = data.draw(laminar_cases(kind, foreign=False))
    if table.exact:  # the converse of ultrametric_from_weight
        assert table.ultrametric_tree[0] == tree
    else:  # rounding to floats may tie two weights
        tree = table.ultrametric_tree[0]
    g = Geometry(tree, table, "table", ())
    mu = MeasureAtoms(table.labels, data.draw(masses(table.n)))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(metrics, "BallScanner", refuse)
        mp.setattr(analysis, "_exact_min_cover", refuse)
        mp.setattr(analysis, "_greedy_cover", refuse)
        mp.setattr(MetricTable, "value_codes", refuse)
        assert validate_ultrametric(table).ok
        assert balls_equal_cells(tree, table).ok
        assert metric_doubling_constant(g).exact
        measure_metric_doubling(g, mu)
        critical_radii(table)


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_pseudo_ultrametrics_keep_the_scans(kind, data):
    # a zero distance off the diagonal: certified, but balls are not clusters
    tree, table = data.draw(pseudo_cases(kind))
    assert validate_ultrametric(table).ok
    assert table.ultrametric_tree is None
    scanned = []

    class CountingScanner(BallScanner):
        def __init__(self, table):
            scanned.append(table)
            super().__init__(table)

    g = Geometry(tree, table, "table", ())
    mu = MeasureAtoms(table.labels, data.draw(masses(table.n)))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(metrics, "BallScanner", CountingScanner)
        assert_same_radii(table)
        assert_same_verdict(tree, table)
        assert_same_doubling(g)
        assert_same_measure_doubling(g, mu)
    # balls = cells, measure doubling and metric doubling share the table's one
    assert len(scanned) == 1


@settings(max_examples=10, deadline=None)
@given(st.integers(1, 5), st.booleans())
def test_ball_scans_match_reference_on_fat_cantor(depth, floats):
    g = fat_cantor_geometry(depth)
    table = as_floats(g.table) if floats else g.table
    assert_same_balls(table)
    assert_same_radii(table)
    assert_same_verdict(g.tree, table)
    if depth >= 3 and not floats:
        assert not balls_equal_cells(g.tree, table).ok


@settings(max_examples=8, deadline=None)
@given(st.integers(1, 5), st.data())
def test_doubling_matches_reference_on_fat_cantor(depth, data):
    # prime gap proportions give a Python-int kernel from depth 4 on; a
    # float table has no line_order and takes the general scan
    g = fat_cantor_geometry(depth, PRIME_THETAS[:depth] if data.draw(st.booleans()) else None)
    if data.draw(st.booleans()):
        g = Geometry(g.tree, as_floats(g.table), "table", ())
    assert_same_radii(g.table)
    assert_same_doubling(g)
    mu = MeasureAtoms(g.table.labels, data.draw(masses(g.table.n)))
    assert_same_measure_doubling(g, mu)
    assert_same_measure_doubling(g, MeasureAtoms.uniform(g.tree))


CASES = {"fat": fat_cantor_cases, "pseudo": pseudo_cases, "plane": plane_cases}


@pytest.mark.parametrize(
    "cases, kind",
    [(c, k) for c in ("fat", "plane") for k in ("int64", "wide", "float")] + [("pseudo", k) for k in KINDS],
)
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_ball_layers_read_only_the_cached_kernel_codes(cases, kind, data):
    def refuse_values(*args):
        raise AssertionError("a ball layer read value_codes")

    tree, table = data.draw(CASES[cases](kind))
    g = Geometry(tree, table, "table", ())
    mu = MeasureAtoms(table.labels, data.draw(masses(table.n)))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(MetricTable, "value_codes", refuse_values)
        assert_same_balls(table)
        assert_same_radii(table)
        assert_same_verdict(tree, table)
        assert_same_doubling(g)
        assert_same_measure_doubling(g, mu)
    keys, codes = table.kernel_codes()
    again = table.kernel_codes()
    assert again[0] is keys and again[1] is codes
    assert not keys.flags.writeable and not codes.flags.writeable


def test_ball_with_a_hole_in_its_span_is_not_a_cell():
    # B(p0, 1) = {p0, p2} spans the root's run p0 p1 p2 but misses p1
    tree = validate_family(["p0", "p1", "p2"], [{0, 1, 2}, {0}, {1}, {2}])
    table = MetricTable(tree.points, ((F(0), F(2), F(1)), (F(2), F(0), F(2)), (F(1), F(2), F(0))))
    got = balls_equal_cells(tree, table)
    assert got == ref_balls_equal_cells(tree, table)
    assert got.ball_failures == (("p0", F(1), ("p0", "p2")),)


@pytest.mark.parametrize("sizes", [(22,), (23, 2), (2, 11), (3, 8)])
def test_doubling_matches_reference_on_products(sizes):
    # (22,) and (23, 2): balls past EXACT_COVER_CAP, which the greedy scan
    # flagged as upper bounds; the cluster tree counts them exactly
    tree = product_space(ProductSpec(sizes))
    w = weight_from_sequence(tree, [F(1, 2) ** i for i in range(len(sizes) + 1)])
    g = Geometry.from_table(tree, ultrametric_from_weight(tree, w))
    assert_same_doubling(g, cap=None)
    got = metric_doubling_constant(g)
    assert (got.value, got.exact) == (max(sizes), True)
    assert_same_measure_doubling(g, MeasureAtoms.uniform(tree))


@pytest.mark.parametrize("kind", ("int64", "wide"))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_line_doubling_matches_exact_covers_of_every_ball(kind, data):
    table = data.draw(line_tables(kind))
    assert table.line_order is not None
    g = Geometry(None, table, "table", ())
    got, want = metric_doubling_constant(g), ref_metric_doubling_constant(g, cap=None)
    assert got == want and got.exact
    if got.witness is not None:
        assert type(got.witness[1]) is type(want.witness[1]) is F


@pytest.mark.parametrize("depth", (7, 8))
def test_fat_cantor_doubling_is_exact_past_the_cover_cap(depth, monkeypatch):
    # was "4 (upper bound)" from the greedy covers of balls past EXACT_COVER_CAP
    def refuse(*args):
        raise AssertionError("a line metric reached a set cover")

    monkeypatch.setattr(analysis, "_exact_min_cover", refuse)
    monkeypatch.setattr(analysis, "_greedy_cover", refuse)
    got = metric_doubling_constant(fat_cantor_geometry(depth))
    assert (got.value, got.exact) == (3, True)
