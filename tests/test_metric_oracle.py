"""Exhaustive triple checks against slow reference loops.

`check_metric` and `validate_ultrametric` decide the triangle and strong
triangle inequalities with one numpy scan.  The reference functions below
are the plain triple loops over the table entries; the property tests
compare verdict, reason, witness and slack (value and type) on generated
tables of three kinds: small common denominators (int64 scan), wide ones
whose rescaled integers overflow int64 (Python-int scan), and float tables
with a tolerance.  Symmetric and asymmetric tables are both drawn.  The
cell diameters of `Geometry.from_table`, taken on the table kernel, are
compared the same way with the loop over pairs of sibling cells (on float
tables with planted NaN entries too, which both skip), and the
separations of sibling cells with the loop over their point pairs.

`validate_ultrametric` first tries the single-linkage certificate and
scans only when it declines, so the oracle alone cannot tell a working
certificate from one that always declines.  Two more properties pin it
down: on the small tables it accepts exactly the in-domain tables that the
triple loop accepts with zero tolerance, and it accepts random-laminar
ultrametrics up to n = 80 with tied weights, whose single perturbed pair
the scan must then report as the triple loop does.

`check_metric` decides the diagonal, symmetry and positivity on the kernel
in numpy; `ref_check_metric` keeps the row-major loop it replaced, so the
first witness is compared on tables with NaN entries and planted defects
too.  `Geometry.from_intervals` builds its kernel from the scaled leaf
representatives; `ref_interval_rows` keeps the n^2 table of `Fraction`
differences it replaced, and the property compares rows, value codes,
kernel and denominator, hull diameters and separations, and the
`check_metric` verdict on random rational embeddings, some with two
leaves sharing a representative and some with denominators wide enough
to force the Python-int kernel.

An exact table whose `line_order` is set skips the triangle scan, so the
line test is pinned down separately: on the drawn tables it accepts
exactly those with an end point e such that d(i, j) = |d(e, i) - d(e, j)|
(a search over every e), and the order it returns runs along the line;
it accepts every table of distances between rational points; and a line
table never reaches `_first_violation`.

Building, certifying and measuring tree-shaped kernels all walk the same
strips of the cell tree (`metrics._strips`), so they are checked on trees
with wide cells (random laminar trees with up to 40 children per cell,
products with a level of 30 to 40 symbols): `ultrametric_from_weight`
against the loop that writes each cell's weight on its point pairs, the
diameters against the sibling-pair loop, the cluster tree and its heights
against the tree and its scaled weights, and the certificate against the
triple loop on tables bent in one entry.  `_cluster_tree` is also checked
on a grid line (a star), a caterpillar line (a chain) and merges at height
0 (which keep their points).
"""

from dataclasses import replace
from fractions import Fraction as F
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cellspace import (
    Geometry,
    MetricTable,
    ProductSpec,
    fat_cantor,
    metrics,
    product_space,
    random_laminar,
    validate_family,
    validate_ultrametric,
    weight_from_sequence,
)
from cellspace.metrics import (
    MetricVerdict,
    UltrametricVerdict,
    WeightFn,
    _cluster_tree,
    _exact_matrix,
    _single_linkage,
    ultrametric_from_weight,
)

WIDE_DENOMINATORS = (2**63 + 1, 3**41, 2**64 - 59)
TOLERANCES = (0.0, 1e-9, 0.25)


def ref_check_metric(t: MetricTable) -> MetricVerdict:
    n = t.n
    for i in range(n):
        if t.rows[i][i] != 0:
            return MetricVerdict(False, "nonzero diagonal", (t.labels[i],))
        for j in range(i + 1, n):
            v = t.rows[i][j]
            if v != t.rows[j][i]:
                return MetricVerdict(False, "asymmetric", (t.labels[i], t.labels[j]))
            if v <= 0:
                return MetricVerdict(
                    False, "nonpositive distance", (t.labels[i], t.labels[j])
                )
    slack = t.tol if not t.exact else 0
    for x in range(n):
        for z in range(n):
            for y in range(n):
                if t.rows[x][z] > t.rows[x][y] + t.rows[y][z] + slack:
                    return MetricVerdict(
                        False,
                        "triangle inequality fails",
                        (t.labels[x], t.labels[z], t.labels[y]),
                    )
    return MetricVerdict(True, "", ())


def ref_triangle_holds(t: MetricTable) -> bool:
    return all(
        t.rows[x][z] <= t.rows[x][y] + t.rows[y][z]
        for x in range(t.n)
        for z in range(t.n)
        for y in range(t.n)
    )


def ref_is_line(t: MetricTable) -> bool:
    """Some point e is an end of a line: d(i, j) == |d(e, i) - d(e, j)|."""
    return any(
        all(t.rows[i][j] == abs(t.rows[e][i] - t.rows[e][j]) for i in range(t.n) for j in range(t.n))
        for e in range(t.n)
    )


def ref_interval_rows(tree, intervals) -> tuple:
    """|p_i - p_j| on the leaf representatives, as n^2 Fractions: the
    endpoint facing the first sibling, the right one on a first child."""
    reps = []
    for i in range(tree.n_points):
        leaf = tree.leaf_of[i]
        par = tree.parent[leaf]
        left, right = intervals[i]
        if par is None:
            reps.append(left)
        else:
            reps.append(right if leaf == tree.children[par][0] else left)
    n = tree.n_points
    return tuple(tuple(abs(reps[i] - reps[j]) for j in range(n)) for i in range(n))


def ref_hull(tree, intervals, c) -> tuple:
    pts = tree.members[c]
    return min(intervals[i][0] for i in pts), max(intervals[i][1] for i in pts)


def ref_validate_ultrametric(t: MetricTable) -> UltrametricVerdict:
    n = t.n
    slack = t.tol if not t.exact else 0
    for x in range(n):
        for z in range(n):
            dxz = t.rows[x][z]
            for y in range(n):
                bound = max(t.rows[x][y], t.rows[y][z])
                if dxz > bound + slack:
                    return UltrametricVerdict(
                        False,
                        witness=(t.labels[x], t.labels[z], t.labels[y]),
                        slack=dxz - bound,
                    )
    return UltrametricVerdict(True)


def ref_certificate_domain(t: MetricTable) -> bool:
    """Symmetric, zero diagonal, no negative entry, nonnegative tolerance."""
    return (t.exact or t.tol >= 0) and all(
        t.rows[i][j] == t.rows[j][i] and t.rows[i][j] >= 0 and (i != j or t.rows[i][i] == 0)
        for i in range(t.n)
        for j in range(t.n)
    )


def ref_from_table_diams(tree, t: MetricTable) -> list:
    diams = [F(0) if t.exact else 0.0] * tree.n_cells
    for c in sorted(tree.cells(), key=lambda c: -tree.depth[c]):
        kids = tree.children[c]
        if not kids:
            continue
        best = max(diams[k] for k in kids)
        for a in range(len(kids)):
            for b in range(a + 1, len(kids)):
                for i in tree.members[kids[a]]:
                    for j in tree.members[kids[b]]:
                        if t.rows[i][j] > best:
                            best = t.rows[i][j]
        diams[c] = best
    return diams


def ref_separation(tree, t: MetricTable, c1: int, c2: int):
    """The least entry between the cells, skipping NaN; NaN if all are."""
    best = None
    for i in tree.members[c1]:
        for j in tree.members[c2]:
            v = t.rows[i][j]
            if v == v and (best is None or v < best):
                best = v
    return float("nan") if best is None else best


@st.composite
def tables(draw, kind):
    """Small tables whose entries are k plus a kind-specific nudge.

    Integer parts in 0..4 (1..4 on half the tables, so that more of them
    reach the triangle scan) make ties and violations common; the nudges
    (1/D for a wide D, or 1e-10 on floats) create near-ties that only an
    exact scan (or the right tolerance) decides correctly.
    """
    n = draw(st.integers(1, 6))
    symmetric = draw(st.booleans())
    zero_diag = draw(st.integers(0, 9)) > 0
    low = draw(st.sampled_from((0, 1)))
    if kind == "wide":
        den = draw(st.sampled_from(WIDE_DENOMINATORS))
        nudge = st.sampled_from((F(0), F(1, den), F(-1, den)))
    elif kind == "float":
        nudge = st.sampled_from((0.0, 1e-10, -1e-10))
    else:
        nudge = st.sampled_from((F(0), F(1, 2), F(1, 3)))

    def entry():
        return draw(st.integers(low, 4)) + draw(nudge)

    zero = 0.0 if kind == "float" else F(0)
    rows = [[zero] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = zero if zero_diag else entry()
        for j in range(n):
            if i < j or (i > j and not symmetric):
                rows[i][j] = entry()
            elif i > j:
                rows[i][j] = rows[j][i]
    labels = tuple(f"p{i}" for i in range(n))
    if kind == "float":
        tol = draw(st.sampled_from(TOLERANCES))
        return MetricTable(labels, tuple(map(tuple, rows)), exact=False, tol=tol)
    return MetricTable(labels, tuple(map(tuple, rows)))


KINDS = ("int64", "wide", "float")
ORACLE = settings(max_examples=250, deadline=None, database=None)


@pytest.mark.parametrize("kind", KINDS)
@ORACLE
@given(data=st.data())
def test_check_metric_matches_triple_loop(kind, data):
    t = data.draw(tables(kind))
    assert t.check_metric() == ref_check_metric(t)


@pytest.mark.parametrize("kind", KINDS)
@ORACLE
@given(data=st.data())
def test_line_order_accepts_exactly_the_line_tables(kind, data):
    t = data.draw(tables(kind))
    order = t.line_order
    assert (order is not None) == (kind != "float" and ref_is_line(t))
    if order is not None:
        assert ref_triangle_holds(t)
        o = order.tolist()
        assert sorted(o) == list(range(t.n))
        end = t.rows[o[0]]  # distances grow along the order and add up
        assert all(t.rows[o[a]][o[b]] == end[o[b]] - end[o[a]] for a in range(t.n) for b in range(a, t.n))


@pytest.mark.parametrize("kind", ("int64", "wide"))
@ORACLE
@given(data=st.data())
def test_line_order_accepts_distances_on_the_line(kind, data):
    dens = WIDE_DENOMINATORS + (1,) if kind == "wide" else (1, 2, 3, 6)
    point = st.builds(F, st.integers(-9, 9), st.sampled_from(dens))
    distinct = data.draw(st.booleans())
    pts = data.draw(st.lists(point, min_size=1, max_size=12, unique=distinct))
    t = MetricTable(tuple(f"p{i}" for i in range(len(pts))), tuple(tuple(abs(p - q) for q in pts) for p in pts))
    order = t.line_order
    assert order is not None
    assert [pts[i] for i in order] in (sorted(pts), sorted(pts, reverse=True))
    got = t.check_metric()
    assert got == ref_check_metric(t)
    assert got.ok == (len(set(pts)) == len(pts))


def test_line_tables_skip_the_triangle_scan(monkeypatch):
    def refuse(*args):
        raise AssertionError("triangle scan")

    monkeypatch.setattr(metrics, "_first_violation", refuse)
    primes = [F(1, p) for p in (1000003, 1000033, 1000037, 1000039, 1000081)]
    for thetas in (None, primes):
        tree, emb = fat_cantor(5, thetas)
        assert Geometry.from_intervals(tree, emb).table.check_metric().ok
    tree = product_space(ProductSpec((3, 3)))
    table = ultrametric_from_weight(tree, weight_from_sequence(tree, (1, F(1, 2), F(1, 4))))
    assert table.line_order is None
    with pytest.raises(AssertionError, match="triangle scan"):
        table.check_metric()


@st.composite
def defective_tables(draw, kind):
    """Symmetric tables with positive entries (n up to 14), and a few
    planted defects: nonzero diagonals, asymmetric pairs, zero or negative
    entries, NaN on float tables, and pairs both asymmetric and
    nonpositive."""
    n = draw(st.integers(1, 14))
    one = 1.0 if kind == "float" else F(1) if kind == "int64" else 1 + F(1, WIDE_DENOMINATORS[0])
    rows = [[one * (1 + (i * 7 + j * 7 + i * j) % 5) for j in range(n)] for i in range(n)]
    for i in range(n):
        rows[i][i] = one * 0
    bad = [one * 0, -one, one * 9] + ([float("nan")] if kind == "float" else [])
    for _ in range(draw(st.integers(0, 3))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        rows[i][j] = draw(st.sampled_from(bad))
    labels = tuple(f"p{i}" for i in range(n))
    if kind == "float":
        return MetricTable(labels, tuple(map(tuple, rows)), exact=False, tol=0.0)
    return MetricTable(labels, tuple(map(tuple, rows)))


@pytest.mark.parametrize("kind", KINDS)
@ORACLE
@given(data=st.data())
def test_check_metric_reports_the_loops_first_witness(kind, data):
    t = data.draw(defective_tables(kind))
    assert t.check_metric() == ref_check_metric(t)


def test_check_metric_witness_order_within_a_row():
    z, o = F(0), F(1)
    # row 0: pair (0, 2) is both asymmetric and nonpositive, (0, 1) is fine
    t = MetricTable(("a", "b", "c"), ((z, o, z), (o, z, o), (-o, o, z)))
    assert t.check_metric() == MetricVerdict(False, "asymmetric", ("a", "c"))
    # row 1's diagonal comes after every pair of row 0
    t = MetricTable(("a", "b", "c"), ((z, o, z), (o, o, o), (z, o, z)))
    assert t.check_metric() == MetricVerdict(False, "nonpositive distance", ("a", "c"))
    # and before the pairs of row 1
    t = MetricTable(("a", "b", "c"), ((z, o, o), (o, o, z), (o, o, z)))
    assert t.check_metric() == MetricVerdict(False, "nonzero diagonal", ("b",))


@st.composite
def interval_embeddings(draw, kind):
    """A random laminar tree and one rational interval per point.

    Endpoints are small integers over per-endpoint denominators, so two
    leaves often share a representative (these embeddings bypass the
    checks of `IntervalEmbedding`).  On the wide kind the denominators are
    large coprime numbers, so the common denominator of the scaled
    representatives overflows int64."""
    n = draw(st.integers(1, 12))
    tree = random_laminar(draw(st.integers(0, 2**32 - 1)), draw(st.integers(2, 4)), 8, n)
    dens = WIDE_DENOMINATORS if kind == "wide" else (1, 2, 3, 6)

    def endpoint():
        return F(draw(st.integers(-3, 3)), draw(st.sampled_from(dens)))

    intervals = []
    for _ in range(n):
        left = endpoint()
        intervals.append((left, left + abs(endpoint())))
    return tree, tuple(intervals)


@pytest.mark.parametrize("kind", ("int64", "wide"))
@ORACLE
@given(data=st.data())
def test_from_intervals_matches_fraction_table(kind, data):
    tree, intervals = data.draw(interval_embeddings(kind))
    g = Geometry.from_intervals(tree, SimpleNamespace(intervals=intervals))
    ref = MetricTable(tree.points, ref_interval_rows(tree, intervals))
    got = g.table
    mat, den = _exact_matrix(ref)
    assert got.kernel.dtype == mat.dtype and (got.kernel == mat).all() and got.den == den
    values, codes = got.value_codes()
    want_values, want_codes = ref.value_codes()
    assert values == want_values and (codes == want_codes).all()
    assert values == sorted({v for row in ref.rows for v in row})
    assert got.check_metric() == ref_check_metric(ref)
    for c in tree.cells():
        lo, hi = ref_hull(tree, intervals, c)
        assert g.diam(c) == hi - lo
        for c2 in tree.cells():
            if not tree.members[c] & tree.members[c2]:
                (l1, r1), (l2, r2) = (lo, hi), ref_hull(tree, intervals, c2)
                gap = l2 - r1 if l1 <= l2 else l1 - r2
                if gap >= 0:
                    assert g.separation(c, c2) == gap
    assert "rows" not in got.__dict__  # nothing above built the rows
    assert got.rows == ref.rows
    assert all(type(v) is F for row in got.rows for v in row)


def test_from_intervals_on_a_wide_fat_cantor():
    # prime gap proportions: the kernel holds Python ints
    tree, emb = fat_cantor(4, [F(1, p) for p in (1000003, 1000033, 1000037, 1000039)])
    g = Geometry.from_intervals(tree, emb)
    ref = MetricTable(tree.points, ref_interval_rows(tree, emb.intervals))
    assert g.table.kernel.dtype == object
    assert (g.table.kernel == _exact_matrix(ref)[0]).all()
    assert g.table.rows == ref.rows and g.table.check_metric().ok


@pytest.mark.parametrize(
    "intervals, witness",
    [
        (((0, 1), (1, 2), (3, 4), (5, 6)), ("00", "01")),
        (((0, 1), (2, 3), (3, 4), (4, 6)), ("10", "11")),
        (((0, 1), (2, 3), (4, 5), (5, 6)), ("10", "11")),
        (((0, 1), (1, 1), (1, 2), (2, 3)), ("00", "01")),
    ],
)
def test_shared_representatives_are_reported_as_before(intervals, witness):
    # witnesses recorded with the n^2 Fraction table and the row-major loop
    tree = product_space(ProductSpec((2, 2)))
    emb = SimpleNamespace(intervals=tuple((F(a), F(b)) for a, b in intervals))
    v = Geometry.from_intervals(tree, emb).table.check_metric()
    assert v == MetricVerdict(False, "nonpositive distance", witness)


@pytest.mark.parametrize("kind", KINDS)
@ORACLE
@given(data=st.data())
def test_validate_ultrametric_matches_triple_loop(kind, data):
    t = data.draw(tables(kind))
    got, want = validate_ultrametric(t), ref_validate_ultrametric(t)
    assert (got.ok, got.witness, got.slack) == (want.ok, want.witness, want.slack)
    assert type(got.slack) is type(want.slack)


def test_exact_matrix_representation():
    small = MetricTable(("a", "b"), ((F(0), F(1, 3)), (F(1, 3), F(0))))
    mat, den = _exact_matrix(small)
    assert mat.dtype == np.int64 and mat.tolist() == [[0, 1], [1, 0]] and den == 3
    # common denominator 2 * (2**63 + 1): the scaled entries overflow int64
    wide = MetricTable(
        ("a", "b"), ((F(0), F(1, 2)), (F(1, 2) + F(1, 2**63 + 1), F(0)))
    )
    mat, den = _exact_matrix(wide)
    assert mat.dtype == object and mat[0, 1] == 2**63 + 1 and den == 2 * (2**63 + 1)
    floats = MetricTable(("a", "b"), ((0.0, 0.5), (0.5, 0.0)), exact=False)
    mat, den = _exact_matrix(floats)
    assert mat.dtype == np.float64 and den is None


def test_wide_tables_decide_near_ties_exactly():
    # 2 + 1/D exceeds 1 + 1 by less than a float can resolve
    eps = F(1, 2**63 + 1)
    rows = (
        (F(0), F(1), F(2) + eps),
        (F(1), F(0), F(1)),
        (F(2) + eps, F(1), F(0)),
    )
    t = MetricTable(("a", "b", "c"), rows)
    assert _exact_matrix(t)[0].dtype == object
    v = t.check_metric()
    assert not v.ok and v.witness == ("a", "c", "b")
    u = validate_ultrametric(t)
    assert u.witness == ("a", "c", "b") and u.slack == 1 + eps


@pytest.mark.parametrize("kind", KINDS)
@ORACLE
@given(data=st.data())
def test_from_table_diameters_match_pair_loop(kind, data):
    t = data.draw(tables(kind))
    seed = data.draw(st.integers(0, 2**32 - 1))
    tree = random_laminar(seed, data.draw(st.integers(2, 4)), 8, t.n)
    nans = data.draw(st.integers(0, 3)) if kind == "float" else 0
    if nans:  # the loop's > skips a NaN entry, and so must the diameters
        rows = [list(row) for row in t.rows]
        for _ in range(nans):
            rows[data.draw(st.integers(0, t.n - 1))][data.draw(st.integers(0, t.n - 1))] = float("nan")
        t = replace(t, rows=tuple(map(tuple, rows)))
    g = Geometry.from_table(tree, t)
    got = [g.diam(c) for c in tree.cells()]
    want = ref_from_table_diams(tree, t)
    assert got == want
    assert [type(v) for v in got] == [type(v) for v in want]
    for c in tree.cells():
        kids = tree.children[c]
        for a in range(len(kids)):
            for b in range(a + 1, len(kids)):
                sep = g.separation(kids[a], kids[b])
                ref = ref_separation(tree, t, kids[a], kids[b])
                assert sep == ref or (sep != sep and ref != ref)  # NaN only if all are
                assert type(sep) is type(ref)


@pytest.mark.parametrize("kind", KINDS)
@ORACLE
@given(data=st.data())
def test_certificate_accepts_exactly_the_ultrametrics_in_its_domain(kind, data):
    t = data.draw(tables(kind))
    certified = _single_linkage(t) is not None
    if certified:
        assert ref_validate_ultrametric(t).ok
    # with zero tolerance the reference accepts only exact ultrametrics
    exact_ok = ref_validate_ultrametric(replace(t, tol=0.0)).ok
    assert certified == (ref_certificate_domain(t) and exact_ok)


@pytest.mark.parametrize("tol", (-1e-9, float("nan")))
def test_certificate_declines_a_negative_or_nan_tolerance(tol):
    t = MetricTable(("a", "b"), ((0.0, 1.0), (1.0, 0.0)), exact=False, tol=tol)
    assert _single_linkage(t) is None
    got, want = validate_ultrametric(t), ref_validate_ultrametric(t)
    assert (got.ok, got.witness, got.slack) == (want.ok, want.witness, want.slack)


# strictly increasing maps with f(0) = 0 onto each kind's entries
LAMINAR_VALUES = {
    "int64": lambda k: F(k, 3),
    "wide": lambda k: k * (1 + F(1, WIDE_DENOMINATORS[0])),
    "float": lambda k: k * 0.1,
}


@st.composite
def laminar_ultrametrics(draw, kind):
    """Random laminar trees with integer weights that drop by 1 or 2 from a
    cell to each internal child, so unrelated cells often tie."""
    n = draw(st.integers(2, 80))
    tree = random_laminar(draw(st.integers(0, 2**32 - 1)), 4, 8, n)
    weight = [0] * tree.n_cells
    for c in sorted(tree.internal_cells(), key=tree.depth.__getitem__):
        par = tree.parent[c]
        weight[c] = 20 if par is None else weight[par] - draw(st.integers(1, 2))
    ints = ultrametric_from_weight(tree, WeightFn(tree, tuple(map(F, weight))))
    f = LAMINAR_VALUES[kind]
    rows = tuple(tuple(f(int(v)) for v in row) for row in ints.rows)
    if kind == "float":
        return MetricTable(ints.labels, rows, exact=False, tol=draw(st.sampled_from(TOLERANCES)))
    return MetricTable(ints.labels, rows)


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=12, deadline=None, database=None)
@given(data=st.data())
def test_certificate_accepts_laminar_ultrametrics(kind, data):
    t = data.draw(laminar_ultrametrics(kind))
    if kind == "wide":
        assert t.kernel.dtype == object
    assert _single_linkage(t) is not None
    assert validate_ultrametric(t).ok
    i = data.draw(st.integers(0, t.n - 2))
    j = data.draw(st.integers(i + 1, t.n - 1))
    f = LAMINAR_VALUES[kind]
    nudge = {"int64": F(1, 3), "wide": F(1, WIDE_DENOMINATORS[0]), "float": 1e-10}[kind]
    delta = data.draw(st.sampled_from((f(1), -f(1), nudge, -nudge)))
    rows = [list(row) for row in t.rows]
    rows[i][j] = rows[j][i] = rows[i][j] + delta
    bent = replace(t, rows=tuple(map(tuple, rows)))
    got, want = validate_ultrametric(bent), ref_validate_ultrametric(bent)
    assert (got.ok, got.witness, got.slack) == (want.ok, want.witness, want.slack)
    assert type(got.slack) is type(want.slack)


def test_from_table_diameters_skip_nan_entries():
    # across the root: 5 on most pairs, NaN on (00, 10) and 9 on (01, 11)
    tree = product_space(ProductSpec((2, 2)))
    rows = [[0.0 if i == j else 1.0 if i // 2 == j // 2 else 5.0 for j in range(4)] for i in range(4)]
    rows[0][2] = float("nan")
    rows[1][3] = 9.0
    t = MetricTable(tree.points, tuple(map(tuple, rows)), exact=False)
    g = Geometry.from_table(tree, t)
    assert [g.diam(c) for c in tree.cells()] == ref_from_table_diams(tree, t)
    assert g.diam(tree.ROOT) == 9.0


# -- strips of wide cell trees ----------------------------------------------------


def ref_ultrametric_rows(tree, w: WeightFn) -> tuple:
    """d(x, y) = w(minimal cell holding x and y): every cell writes its
    weight on its point pairs, cells below overwriting cells above."""
    rows = [[F(0)] * tree.n_points for _ in range(tree.n_points)]
    for c in sorted(tree.cells(), key=tree.depth.__getitem__):
        for i in tree.members[c]:
            for j in tree.members[c]:
                rows[i][j] = w[c]
    return tuple(map(tuple, rows))


@st.composite
def wide_weighted_trees(draw, kind, max_points=120):
    """Trees with wide cells, and weights that drop by 1 or 2 from a cell to
    each internal child (times 1/3, or times 1 + 1/D for a wide D): random
    laminar trees with up to 40 children per cell, or products with a level
    of 30 to 40 symbols beside at most one level of 2 or 3."""
    if draw(st.booleans()):
        n = draw(st.integers(2, max_points))
        tree = random_laminar(draw(st.integers(0, 2**32 - 1)), draw(st.integers(2, 40)), 8, n)
    else:
        sizes = [draw(st.integers(30, 40))] + draw(st.lists(st.integers(2, 3), max_size=1))
        tree = product_space(ProductSpec(tuple(draw(st.permutations(sizes)))))
    weight = [0] * tree.n_cells
    for c in sorted(tree.internal_cells(), key=tree.depth.__getitem__):
        par = tree.parent[c]
        weight[c] = 20 if par is None else weight[par] - draw(st.integers(1, 2))
    f = LAMINAR_VALUES[kind]
    return tree, WeightFn(tree, tuple(f(v) for v in weight))


@pytest.mark.parametrize("kind", ("int64", "wide"))
@settings(max_examples=40, deadline=None, database=None)
@given(data=st.data())
def test_strips_build_certify_and_measure_wide_trees(kind, data):
    tree, w = data.draw(wide_weighted_trees(kind))
    t = ultrametric_from_weight(tree, w)
    assert t.kernel.dtype == (object if kind == "wide" else np.int64)
    assert t.rows == ref_ultrametric_rows(tree, w)
    g = Geometry.from_table(tree, t)
    assert [g.diam(c) for c in tree.cells()] == ref_from_table_diams(tree, t) == list(w.values)
    found_tree, heights = t.ultrametric_tree
    assert found_tree == tree
    assert heights.dtype == t.kernel.dtype
    assert heights.tolist() == [int(v * t.den) for v in w.values]
    # a line metric on the same points: strips that are not constant
    pos = np.array(data.draw(st.lists(st.integers(-50, 50), min_size=tree.n_points, max_size=tree.n_points)))
    line = MetricTable.from_kernel(tree.points, abs(pos[:, None] - pos[None, :]), 1)
    g = Geometry.from_table(tree, line)
    assert [g.diam(c) for c in tree.cells()] == ref_from_table_diams(tree, line)


@pytest.mark.parametrize("kind", ("int64", "wide"))
@settings(max_examples=10, deadline=None, database=None)
@given(data=st.data())
def test_strip_certificate_on_wide_trees_bent_in_one_entry(kind, data):
    tree, w = data.draw(wide_weighted_trees(kind, max_points=80))
    t = MetricTable(tree.points, ultrametric_from_weight(tree, w).rows)
    i = data.draw(st.integers(0, t.n - 2))
    j = data.draw(st.integers(i + 1, t.n - 1))
    f = LAMINAR_VALUES[kind]
    nudge = {"int64": F(1, 3), "wide": F(1, WIDE_DENOMINATORS[0])}[kind]
    delta = data.draw(st.sampled_from((f(1), -f(1), nudge, -nudge)))
    rows = [list(row) for row in t.rows]
    rows[i][j] = rows[j][i] = rows[i][j] + delta
    bent = replace(t, rows=tuple(map(tuple, rows)))
    want = ref_validate_ultrametric(bent)
    assert (_single_linkage(bent) is not None) == want.ok
    got = validate_ultrametric(bent)
    assert (got.ok, got.witness, got.slack) == (want.ok, want.witness, want.slack)


def _line(xs) -> MetricTable:
    pos = np.array(xs)
    return MetricTable.from_kernel(tuple(f"p{i}" for i in range(len(xs))), abs(pos[:, None] - pos[None, :]), 1)


def _merges(pairs) -> tuple:
    """Weights and point pairs of single-linkage edges, as `_cluster_tree` takes them."""
    return np.array([h for h, _ in pairs], dtype=np.int64), np.array([e for _, e in pairs], dtype=np.intp).reshape(-1, 2)


def test_cluster_tree_of_a_grid_line_is_a_star():
    n = 50
    labels = tuple(f"p{i}" for i in range(n))
    tree, heights = _cluster_tree(labels, *_merges([(1, (k, k + 1)) for k in range(n - 1)]))
    assert tree == validate_family(labels, [set(range(n))] + [{i} for i in range(n)])
    assert heights.tolist() == [1] + [0] * n
    assert _single_linkage(_line(range(n))) is None  # d(p0, p2) = 2 on the root's strip


def test_cluster_tree_of_a_caterpillar_line_is_a_chain():
    n = 30
    xs = [2**k - 1 for k in range(n)]  # gaps 1, 2, 4, ...: each point joins all before it
    labels = tuple(f"p{i}" for i in range(n))
    tree, heights = _cluster_tree(labels, *_merges([(xs[k + 1] - xs[k], (k, k + 1)) for k in range(n - 1)]))
    assert tree == validate_family(labels, [set(range(k + 1)) for k in range(1, n)] + [{i} for i in range(n)])
    assert sorted(heights[tree.internal_cells()].tolist()) == [2**k for k in range(n - 1)]
    assert _single_linkage(_line(xs)) is None  # d(p0, p2) = 3 on the strip of height 2
    # the caterpillar's own ultrametric passes, with the same tree
    w = WeightFn(tree, tuple(F(int(h)) for h in heights))
    assert _single_linkage(ultrametric_from_weight(tree, w))[0] == tree


def test_cluster_tree_keeps_points_merged_at_height_0():
    # a pseudo-ultrametric: three points at distance 0, a fourth at 1
    labels = ("a", "b", "c", "d")
    tree, heights = _cluster_tree(labels, *_merges([(0, (0, 1)), (0, (1, 2)), (1, (2, 3))]))
    assert tree == validate_family(labels, [{0, 1, 2, 3}, {0, 1, 2}, {0}, {1}, {2}, {3}])
    assert heights.tolist() == [1, 0, 0, 0, 0, 0]
