"""Per-cell facts as integer columns, against the per-cell loops they replaced.

`WeightFn`, `MeasureAtoms` and the diameters of a `Geometry` each hold one
integer column over a common denominator (float64 on float tables), and
build a Fraction (a float) only when a value is read.  `metric_regularity`,
`strict_diameter_monotonicity` and `WeightFn`'s check compare the columns
along the (parent, child) edges at once.  The references below are the
loops they replaced, unchanged but for their names: they read the public
`g.diam` and `g.separation`, which `tests/test_metric_oracle.py` checks
against pair loops over `Fraction` rows.  Reports must agree field by field,
witnesses and value types included, and rejections in type and message.

The inputs are random laminar trees with synthesized and with drop weights
(equal ratios from different cells), also renumbered as families; products,
one of them with the same ratio at every depth, so that only the scan order
picks the witnesses; float tables with NaN entries; `csv:` tables; interval
geometries, a wide prime-theta fat Cantor among them (object columns); a
weight column past int64; and zero-diameter and one-point spaces.
"""

import math
import random
from fractions import Fraction as F
from math import lcm
from types import SimpleNamespace

import numpy as np
import pytest

import test_sampled_blocks
from cellspace import (
    Geometry,
    MetricTable,
    ProductSpec,
    WeightFn,
    fat_cantor,
    formats,
    metrics,
    product_space,
    quasisym,
    random_laminar,
    synthesize_regular_weight,
    ultrametric_from_weight,
    validate_family,
    weight_from_sequence,
)
from cellspace.analysis import (
    MeasureAtoms,
    RegularityReport,
    _cell_masses,
    measure_cell_doubling,
    metric_regularity,
)
from cellspace.errors import NotDecreasing, OverlappingCells, ZeroDiameterInternalCell
from cellspace.metrics import MonotonicityVerdict, strict_diameter_monotonicity
from cellspace.quasisym import _N_BINS

# -- the loops the columns replaced ---------------------------------------------------


def ref_metric_regularity(tree, g: Geometry) -> RegularityReport:
    for c in tree.internal_cells():
        if not g.diam(c) > 0:
            raise ZeroDiameterInternalCell(f"internal cell {c} has zero diameter")
    alpha = beta = gamma = aux = None
    alpha_w = beta_w = gamma_w = None
    for c in tree.cells():
        kids = tree.children[c]
        if not kids:
            continue
        dc = g.diam(c)
        for ch in kids:
            dch = g.diam(ch)
            if dch > 0:
                ratio = dch / dc
                if alpha is None or ratio < alpha:
                    alpha, alpha_w = ratio, (c, ch)
                if beta is None or ratio > beta:
                    beta, beta_w = ratio, (c, ch)
        for i in range(len(kids)):
            for j in range(i + 1, len(kids)):
                sep = g.separation(kids[i], kids[j])
                ratio = sep / dc
                if gamma is None or ratio < gamma:
                    gamma, gamma_w = ratio, (c, kids[i], kids[j])
                md = max(g.diam(kids[i]), g.diam(kids[j]))
                if md > 0:
                    r2 = sep / md
                    if aux is None or r2 < aux:
                        aux = r2
    return RegularityReport(alpha, beta, gamma, alpha_w, beta_w, gamma_w, aux)


def ref_weightfn_check(tree, values) -> None:
    t = tree
    if len(values) != t.n_cells:
        raise ValueError("one weight per cell required")
    for c in t.cells():
        v = values[c]
        if t.is_leaf(c):
            if v != 0:
                raise ValueError(f"leaf cell {c} must have weight 0, got {v}")
        else:
            if v <= 0:
                raise ValueError(f"internal cell {c} must have positive weight")
            for ch in t.children[c]:
                if not t.is_leaf(ch) and not values[ch] < v:
                    raise NotDecreasing(
                        f"weight does not strictly decrease on edge {c} -> {ch}"
                    )


def ref_from_table_diams(tree, table) -> tuple:
    return tuple(map(table._value, metrics._diameter_keys(tree, table)))


def ref_strict_diameter_monotonicity(tree, g) -> MonotonicityVerdict:
    for c in tree.cells():
        for ch in tree.children[c]:
            if not g.diam(ch) < g.diam(c):
                return MonotonicityVerdict(False, (c, ch, g.diam(c), g.diam(ch)))
    return MonotonicityVerdict(True)


def ref_heights(tree, w: WeightFn) -> tuple:
    """`ultrametric_from_weight`'s heights, denominator and dtype from Fractions."""
    values = [w[c] if tree.children[c] else F(0) for c in tree.cells()]
    den = lcm(*{v.denominator for v in values})
    scaled = [v.numerator * (den // v.denominator) for v in values]
    return scaled, den, metrics._int_dtype(max(map(abs, scaled)))


def ref_cell_masses(tree, mu) -> tuple:
    common = lcm(*{v.denominator for v in mu.values})
    scaled = [v.numerator * (common // v.denominator) for v in mu.values]
    mass = [0] * tree.n_cells
    for p, leaf in enumerate(tree.leaf_of):
        mass[leaf] = scaled[p]
    for c in range(tree.n_cells - 1, 0, -1):
        mass[tree.parent[c]] += mass[c]
    return mass, metrics._int_dtype(sum(scaled))


# -- comparing ------------------------------------------------------------------------


def outcome(fn, *args):
    try:
        return fn(*args), None
    except Exception as e:  # both sides must fail alike
        return None, (type(e), str(e))


def typed(report: RegularityReport) -> tuple:
    """The report's fields with their types, a NaN field as "nan" (NaN != NaN)."""
    fields = (report.alpha, report.beta, report.gamma, report.sibling_separation_ratio)
    witnesses = (report.alpha_witness, report.beta_witness, report.gamma_witness)
    return tuple("nan" if v != v else v for v in fields), witnesses, tuple(map(type, fields))


def assert_same_geometry_facts(tree, g: Geometry) -> None:
    got, err = outcome(metric_regularity, tree, g)
    want, ref_err = outcome(ref_metric_regularity, tree, g)
    assert err == ref_err
    if err is None:
        assert typed(got) == typed(want)
    assert strict_diameter_monotonicity(tree, g) == ref_strict_diameter_monotonicity(tree, g)


def assert_same_table_geometry(tree, table) -> Geometry:
    g = Geometry.from_table(tree, table)
    diams = [g.diam(c) for c in tree.cells()]
    want = ref_from_table_diams(tree, table)
    assert diams == list(want) or all(a == b or a != a and b != b for a, b in zip(diams, want))
    assert [type(v) for v in diams] == [type(v) for v in want]
    assert_same_geometry_facts(tree, g)
    return g


def relabeled(tree, perm):
    """The same family on the points permuted by `perm` (point i becomes perm[i])."""
    return validate_family(tree.points, [{perm[i] for i in s} for s in tree.members])


def drop_weights(rng, tree, scale=F(1, 3)) -> WeightFn:
    """Weights that drop by 1 or 2 from a cell to each internal child, times `scale`."""
    weight = [0] * tree.n_cells
    for c in tree.internal_cells():  # preorder: a parent before its children
        par = tree.parent[c]
        weight[c] = 20 if par is None else weight[par] - rng.randint(1, 2)
    return WeightFn(tree, tuple(F(v) * scale for v in weight))


def ratio_weights(rng, tree) -> WeightFn:
    """Each internal cell weighs its parent's weight times 3/11 to 9/11."""
    w = [F(0)] * tree.n_cells
    for c in tree.internal_cells():
        p = tree.parent[c]
        w[c] = F(1) if p is None else w[p] * F(rng.randrange(3, 10), 11)
    return WeightFn(tree, tuple(w))


def laminar_trees(seed: int):
    rng = random.Random(seed)
    tree = random_laminar(seed, rng.randint(2, 6), 8, rng.choice((2, 3, rng.randint(4, 90))))
    yield tree
    yield relabeled(tree, rng.sample(range(tree.n_points), tree.n_points))


# -- weights ---------------------------------------------------------------------------


def assert_same_weights(tree, w: WeightFn) -> None:
    values = w.values
    assert all(type(v) is F for v in values) and [w[c] for c in tree.cells()] == list(values)
    assert WeightFn(tree, values) == w
    assert ref_weightfn_check(tree, values) is None
    scaled, den, dtype = ref_heights(tree, w)
    t = ultrametric_from_weight(tree, w)
    heights = t._linkage[1]
    assert (t.den, heights.dtype, heights.tolist()) == (den, dtype, scaled)
    assert not heights.flags.writeable


@pytest.mark.parametrize("seed", range(12))
def test_weights_of_laminar_trees_match_their_fractions(seed):
    rng = random.Random(seed)
    for tree in laminar_trees(seed):
        for w in (
            synthesize_regular_weight(tree, rng.choice((F(1, 2), F(2, 5), F(1, 3**40)))),
            drop_weights(rng, tree, rng.choice((F(1, 3), 1 + F(1, 3**45)))),
            ratio_weights(rng, tree),
        ):
            assert_same_weights(tree, w)


@pytest.mark.parametrize("sizes", [(2,) * 6, (3, 4, 4), (5,)])
def test_weights_from_sequences_match_their_fractions(sizes):
    tree = product_space(ProductSpec(sizes))
    depth = max(tree.depth)
    for seq in ([F(1, 2) ** i for i in range(depth + 1)], [1] + [F(1, 7 + i) for i in range(depth)]):
        w = weight_from_sequence(tree, seq)
        assert w.values == tuple(F(0) if tree.is_leaf(c) else seq[tree.depth[c]] for c in tree.cells())
        assert_same_weights(tree, w)
    # rho_L weighs no cell, so it does not enter the denominator
    w = weight_from_sequence(tree, [F(1, 2) ** i for i in range(depth)] + [F(1, 3**50)])
    assert w.den == (2 ** (depth - 1) if depth else 1) and w.column.dtype == np.int64


def test_a_weight_column_past_int64():
    # a caterpillar of depth 45 with beta = 1/3: the root weighs 3^44 over 3^44
    n = 46
    tree = validate_family([f"p{i}" for i in range(n)], [set(range(k)) for k in range(2, n + 1)] + [{i} for i in range(n)])
    assert max(tree.depth) == 45
    w = synthesize_regular_weight(tree, F(1, 3))
    assert w.column.dtype == object and w.den == 3**44
    assert_same_weights(tree, w)
    g = Geometry.from_table(tree, ultrametric_from_weight(tree, w))
    assert g._lca and g._diams.dtype == object
    assert_same_geometry_facts(tree, g)
    assert metric_regularity(tree, g).alpha == F(1, 3)


@pytest.mark.parametrize("seed", range(60))
def test_weightfn_rejects_as_the_cell_scan_did(seed):
    rng = random.Random(seed)
    tree = next(laminar_trees(seed))
    values = list(drop_weights(rng, tree).values)
    for _ in range(rng.randint(1, 3)):  # break one to three cells, mostly internal ones
        c = rng.choice(tree.internal_cells()) if rng.random() < 0.7 else rng.randrange(tree.n_cells)
        values[c] = rng.choice((F(0), F(-1, 3), F(7), values[tree.parent[c]] if c else F(1), values[c] + F(1, 3)))
    if rng.random() < 0.1:
        values = values[:-1] if rng.random() < 0.5 else values + [F(0)]
    got = outcome(WeightFn, tree, tuple(values))[1]
    want = outcome(ref_weightfn_check, tree, tuple(values))[1]
    assert got == want


# -- geometry --------------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(12))
def test_regularity_of_weight_built_tables(seed):
    rng = random.Random(seed)
    for tree in laminar_trees(seed):
        for w in (synthesize_regular_weight(tree, F(2, 5)), drop_weights(rng, tree), ratio_weights(rng, tree)):
            t = ultrametric_from_weight(tree, w)
            g = assert_same_table_geometry(tree, t)
            assert g._lca
            # the same kernel from rows takes the strip pass, and agrees
            plain = MetricTable.from_kernel(t.labels, t.kernel.copy(), t.den)
            assert not assert_same_table_geometry(tree, plain)._lca
            assert metric_regularity(tree, g) == metric_regularity(tree, Geometry.from_table(tree, plain))


@pytest.mark.parametrize(
    ("sizes", "ratio"), [((2,) * 9, F(1, 2)), ((3, 4, 4), F(2, 3)), ((64,), F(1, 2)), ((4, 3, 2, 2), F(1, 5))]
)
def test_regularity_of_products(sizes, ratio):
    tree = product_space(ProductSpec(sizes))
    depth = len(sizes)
    t = ultrametric_from_weight(tree, weight_from_sequence(tree, [ratio**i for i in range(depth + 1)]))
    assert_same_table_geometry(tree, t)
    got = metric_regularity(tree, Geometry.from_table(tree, t))
    assert got.gamma == 1 and got.gamma_witness == (0, *tree.children[0][:2])
    if depth > 1:  # every ratio is `ratio`: the scan order alone picks the witnesses
        assert (got.alpha, got.beta, got.alpha_witness, got.beta_witness) == (ratio, ratio, (0, 1), (0, 1))


def float_table(rng, n: int, nans: int) -> MetricTable:
    pts = [(rng.random(), rng.random(), rng.random()) for _ in range(n)]
    rows = [[math.dist(p, q) for q in pts] for p in pts]
    for _ in range(nans):
        i, j = rng.randrange(n), rng.randrange(n)
        rows[i][j] = float("nan")
    return MetricTable(tuple(f"p{i}" for i in range(n)), tuple(map(tuple, rows)), exact=False)


@pytest.mark.parametrize("seed", range(30))
def test_regularity_of_float_tables_with_nan_entries(seed):
    rng = random.Random(seed)
    n = rng.choice((2, 3, rng.randint(4, 40)))
    table = float_table(rng, n, rng.choice((0, 1, 3, n * n // 2)))
    tree = random_laminar(seed, rng.randint(2, 4), 8, n)
    assert_same_table_geometry(tree, table)


def test_a_nan_separation_first_stays_as_the_scan_kept_it():
    # the root's two leaves are apart only by NaN: gamma is NaN at the first pair
    tree = product_space(ProductSpec((2,)))
    table = MetricTable(tree.points, ((0.0, float("nan")), (float("nan"), 0.0)), exact=False)
    g = Geometry(tree, table, "table", np.array([1.0, 0.0, 0.0]))
    got, want = metric_regularity(tree, g), ref_metric_regularity(tree, g)
    assert got.gamma != got.gamma and want.gamma != want.gamma
    assert got.gamma_witness == want.gamma_witness == (0, 1, 2)


@pytest.mark.parametrize("seed", range(8))
def test_regularity_of_csv_tables(seed):
    rng = random.Random(seed)
    n = rng.randint(3, 30)
    tree = random_laminar(seed, 3, 8, n)
    exact = ultrametric_from_weight(tree, ratio_weights(rng, tree))
    bent = [list(row) for row in exact.rows]
    i, j = rng.sample(range(n), 2)
    bent[i][j] = bent[j][i] = bent[i][j] * F(rng.randint(2, 5), 3)
    for table in (exact, MetricTable(exact.labels, tuple(map(tuple, bent)))):
        back = formats.table_from_csv(formats.table_to_csv(table))
        assert "_built" not in back.__dict__
        assert_same_table_geometry(tree, back)
        floats = formats.table_from_csv(formats.table_to_csv(MetricTable(
            table.labels, tuple(tuple(map(float, row)) for row in table.rows), exact=False)), exact=False)
        assert_same_table_geometry(tree, floats)


PRIMES = [F(1, p) for p in (65537, 65539, 65543, 65551, 65557, 65563)]


@pytest.mark.parametrize(("depth", "thetas"), [(d, None) for d in range(1, 9)] + [(5, PRIMES[:5]), (6, PRIMES)])
def test_regularity_of_interval_geometries(depth, thetas):
    tree, emb = fat_cantor(depth, thetas)
    g = Geometry.from_intervals(tree, emb)
    assert (g._hulls.dtype == object) == (thetas is not None)
    for c in tree.cells():
        pts = tree.members[c]
        hull = max(emb.intervals[i][1] for i in pts) - min(emb.intervals[i][0] for i in pts)
        assert g.diam(c) == hull and type(g.diam(c)) is F
    assert_same_geometry_facts(tree, g)
    assert_same_table_geometry(tree, g.table)


@pytest.mark.parametrize("seed", range(20))
def test_regularity_of_intervals_in_any_order(seed):
    # disjoint intervals dealt to the points in a random order (no
    # IntervalEmbedding check): a child's hull may lie left of an earlier
    # sibling's, or the hulls of siblings may overlap
    rng = random.Random(seed)
    n = rng.randint(2, 24)
    tree = random_laminar(seed, rng.randint(2, 4), 8, n)
    ends = sorted(rng.sample(range(1, 50 * n), 2 * n))
    intervals = [(F(ends[2 * k], 7), F(ends[2 * k + 1], 7)) for k in range(n)]
    rng.shuffle(intervals)
    g = Geometry.from_intervals(tree, SimpleNamespace(intervals=tuple(intervals)))
    assert_same_geometry_facts(tree, g)


def test_overlapping_sibling_hulls_fail_at_the_first_pair():
    tree, emb = fat_cantor(3)
    g = Geometry.from_intervals(tree, emb)
    hulls = g._hulls.copy()
    a, b = tree.children[tree.children[tree.ROOT][1]]  # scanned after the root's pair and its first child's
    hulls[b, 0] = hulls[a, 1] - 1
    broken = Geometry(tree, g.table, "intervals", g._diams, hulls, _den=g._den)
    got, want = outcome(metric_regularity, tree, broken), outcome(ref_metric_regularity, tree, broken)
    assert got[1] == want[1] == (OverlappingCells, f"cells {a} and {b} are disjoint but their hulls overlap")


def test_zero_diameter_and_one_point_spaces():
    # two distinct points at distance 0 under a cell: the cell has zero diameter
    tree = product_space(ProductSpec((2, 2)))
    rows = [[F(0) if i == j or {i, j} == {2, 3} else F(1) for j in range(4)] for i in range(4)]
    table = MetricTable(tree.points, tuple(map(tuple, rows)))
    got = outcome(metric_regularity, tree, Geometry.from_table(tree, table))
    assert got == outcome(ref_metric_regularity, tree, Geometry.from_table(tree, table))
    assert got[1] == (ZeroDiameterInternalCell, "internal cell 4 has zero diameter")
    assert_same_table_geometry(tree, table)
    one = validate_family(["p"], [{0}])
    for g in (
        Geometry.from_table(one, ultrametric_from_weight(one, WeightFn(one, (F(0),)))),
        Geometry.from_table(one, MetricTable(one.points, ((0.0,),), exact=False)),
    ):
        assert metric_regularity(one, g) == RegularityReport(None, None, None, None, None, None, None)
        assert_same_geometry_facts(one, g)


def test_positional_geometry_still_constructs():
    tree = product_space(ProductSpec((2, 2)))
    t = ultrametric_from_weight(tree, synthesize_regular_weight(tree, F(1, 2)))
    g = Geometry(tree, t, "table", ())
    assert g.table is t and g._den is None


# -- measures --------------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(10))
def test_measure_columns_match_their_fractions(seed):
    rng = random.Random(seed)
    tree = random_laminar(seed, 4, 8, rng.randint(1, 60))
    big = rng.random() < 0.3
    atoms = tuple(F(rng.randint(1, 9), rng.choice((1, 2, 3, 10, 7**25 if big else 5))) for _ in tree.points)
    mu = MeasureAtoms(tree.points, atoms)
    assert mu.values == atoms and mu.total() == sum(atoms)
    assert mu.normalized() == MeasureAtoms(tree.points, tuple(a / sum(atoms) for a in atoms))
    assert mu.mass({0, tree.n_points - 1}) == sum(atoms[i] for i in {0, tree.n_points - 1})
    uni = MeasureAtoms.uniform(tree)
    assert uni == MeasureAtoms(tree.points, tuple(F(1, tree.n_points) for _ in tree.points))
    for m in (mu, uni):
        mass, dtype = ref_cell_masses(tree, m)
        got = _cell_masses(tree, m)
        assert (got.tolist(), got.dtype) == (mass, dtype)
        edges = zip(tree.parent[1:], range(1, tree.n_cells))
        assert measure_cell_doubling(tree, m) == max([F(1)] + [F(mass[p], mass[c]) for p, c in edges])


def test_measure_columns_take_the_dtype_of_their_total():
    # each atom fits int64 with room for a sum of two, and their total does not
    for k, dtype in ((2, np.int64), (4, object)):
        mu = MeasureAtoms(tuple("abcd"[:k]), (F(2**59),) * k)
        assert mu.column.dtype == dtype and mu.total() == k * 2**59


def test_measure_rejects_a_nonpositive_atom_by_its_value():
    with pytest.raises(ValueError, match=r"^atom -1/2 is not strictly positive$"):
        MeasureAtoms(("a", "b"), (F(1), F(-1, 2)))
    with pytest.raises(ValueError, match=r"^one atom per point required$"):
        MeasureAtoms(("a", "b"), (F(1),))


# -- the sampler's value classes ---------------------------------------------------------


def zero_class_value_bins(floats: list, codes: np.ndarray) -> np.ndarray:
    """`bincount_value_bins`, with the value 0 in a class of its own, _N_BINS,
    when the values are binned."""
    seen = np.bincount(codes.ravel(), minlength=len(floats)) - np.bincount(np.diagonal(codes), minlength=len(floats))
    used = np.flatnonzero(seen).tolist()
    vals = sorted({floats[c] for c in used})
    if len(vals) <= 64:
        return test_sampled_blocks.bincount_value_bins(floats, codes)
    positive = [v for v in vals if v > 0]
    lo, hi = math.log(positive[0]), math.log(positive[-1])
    span = hi - lo or 1.0
    bins = np.full(len(floats), -1, np.intp)
    for c in used:
        k = int((math.log(floats[c]) - lo) / span * _N_BINS) if floats[c] else _N_BINS
        bins[c] = k if not floats[c] else min(max(k, 0), _N_BINS - 1)
    return bins


def points_with_a_zero_distance(n: int = 70) -> MetricTable:
    rng = np.random.default_rng(3)
    pts = rng.random((n, 3))
    pts[1] = pts[0]  # point 1 on point 0
    kernel = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2))
    return MetricTable.from_kernel(tuple(f"p{i}" for i in range(n)), kernel, None)


@pytest.mark.parametrize("seed", [0, 1, 5])
def test_a_zero_distance_gets_its_own_class(seed, monkeypatch):
    t = points_with_a_zero_distance()
    keys, codes = t.kernel_codes()
    bins = quasisym._value_bins(keys.tolist(), codes)
    assert keys[0] == 0 and bins[0] == _N_BINS and (bins[1:] < _N_BINS).all()  # d(p0, p1) = 0 off the diagonal
    assert (bins == zero_class_value_bins(keys.tolist(), codes)).all()
    got = quasisym._sampled_triples(t, t, seed)[0]
    monkeypatch.setattr(test_sampled_blocks, "bincount_value_bins", zero_class_value_bins)
    assert np.array_equal(got, test_sampled_blocks.row_sampled_triples(t, t, seed))


def test_sampler_floats_come_from_the_keys():
    for keys, den in (
        (np.array([0, 1, 2**53 - 1, 3 * 2**40], dtype=np.int64), 7),
        (np.array([0, 2**53 + 1, 2**62 - 1], dtype=np.int64), 3),
        (np.array([0, 3**60, 3**60 + 1, 5**40], dtype=object), 7**33),
        (np.array([0, 1, 10**400], dtype=object), 3),
    ):
        want = [float(F(k, den)) if k < 10**300 else math.inf for k in keys.tolist()]
        assert quasisym._floats(keys, den).tolist() == want
    wide = fat_cantor(6, PRIMES)
    d = Geometry.from_intervals(*wide).table
    assert d.kernel.dtype == object
    dt = ultrametric_from_weight(wide[0], synthesize_regular_weight(wide[0], F(1, 2)))
    for a, b in ((d, dt), (dt, d)):
        assert np.array_equal(quasisym._sampled_triples(a, b, 2)[0], test_sampled_blocks.row_sampled_triples(a, b, 2))
