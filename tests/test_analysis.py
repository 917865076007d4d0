"""Doubling constants, regularity reports, and weight synthesis.

Covers: cellular and measure doubling against closed-form identities,
measure cell doubling against the loop over `Fraction` masses, product
measures, exact metric doubling against a brute-force cover oracle,
regularity constants on the canonical spaces, and the synthesized regular
weight.
"""

from fractions import Fraction as F
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cellspace import (
    Geometry,
    MeasureAtoms,
    ProductSpec,
    cantor,
    cell_doubling_constant,
    critical_radii,
    fat_cantor,
    measure_cell_doubling,
    measure_metric_doubling,
    metric_doubling_constant,
    metric_regularity,
    product_measure,
    product_space,
    random_laminar,
    sequence_regularity,
    synthesize_regular_weight,
    ultrametric_from_weight,
    validate_family,
    weight_from_sequence,
)
from cellspace.errors import (
    NotDecreasing,
    NotProbability,
    ZeroDiameterInternalCell,
)


def _drho_geometry(tree, base):
    depth = max(tree.depth[c] for c in tree.leaves())
    w = weight_from_sequence(tree, [F(base) ** i for i in range(depth + 1)])
    return Geometry.from_table(tree, ultrametric_from_weight(tree, w))


# -- cellular doubling ---------------------------------------------------------


def test_cell_doubling_examples():
    assert cell_doubling_constant(product_space(ProductSpec((2, 3, 2)))) == 3
    assert cell_doubling_constant(validate_family(["p"], [{0}])) == 0
    assert cell_doubling_constant(product_space(ProductSpec((2, 2, 2, 2)))) == 2


def test_cell_doubling_equals_max_size():
    for sizes in ((2, 5), (4, 3, 2), (6,)):
        assert cell_doubling_constant(product_space(ProductSpec(sizes))) == max(sizes)


def test_measure_cell_doubling_examples():
    t = product_space(ProductSpec((2, 2)))
    assert measure_cell_doubling(t, MeasureAtoms.uniform(t)) == 2
    mu = product_measure(ProductSpec((2, 2)), [[F(3, 4), F(1, 4)]] * 2)
    assert measure_cell_doubling(t, mu) == 4
    single = validate_family(["p"], [{0}])
    assert measure_cell_doubling(single, MeasureAtoms(("p",), (F(1),))) == 1


def test_measure_cell_doubling_at_least_child_count():
    import random

    rng = random.Random(1)
    for seed in range(10):
        t = random_laminar(seed, n_points=15)
        atoms = tuple(F(rng.randrange(1, 9), 8) for _ in range(t.n_points))
        mu = MeasureAtoms(t.points, atoms)
        k2 = measure_cell_doubling(t, mu)
        # the maximizing cell is a disjoint union of its children
        best, best_cell = F(1), None
        for c in t.internal_cells():
            pm = mu.mass(t.members[c])
            for ch in t.children[c]:
                r = pm / mu.mass(t.members[ch])
                if r > best:
                    best, best_cell = r, c
        if best_cell is not None:
            assert k2 >= len(t.children[best_cell])


def ref_measure_cell_doubling(tree, mu: MeasureAtoms) -> F:
    """The largest parent/child ratio of `Fraction` masses summed per cell."""
    best = F(1)
    for c in tree.internal_cells():
        pm = mu.mass(tree.members[c])
        for ch in tree.children[c]:
            best = max(best, pm / mu.mass(tree.members[ch]))
    return best


@settings(max_examples=80, deadline=None, database=None)
@given(data=st.data())
def test_measure_cell_doubling_matches_fraction_loop(data):
    # 2**63 + 1 among the denominators makes the integer masses Python ints
    n = data.draw(st.integers(1, 40))
    t = random_laminar(data.draw(st.integers(0, 2**32 - 1)), data.draw(st.integers(2, 6)), 8, n)
    atom = st.builds(F, st.integers(1, 9), st.sampled_from((1, 2, 3, 7, 2**63 + 1)))
    mu = MeasureAtoms(t.points, tuple(data.draw(st.lists(atom, min_size=n, max_size=n))))
    got, want = measure_cell_doubling(t, mu), ref_measure_cell_doubling(t, mu)
    assert got == want and type(got) is F


def test_product_measure_examples():
    spec = ProductSpec((2, 2, 2))
    uni = product_measure(spec, [[F(1, 2), F(1, 2)]] * 3)
    assert set(uni.values) == {F(1, 8)}
    spec2 = ProductSpec((2, 2))
    mu = product_measure(spec2, [[F(3, 5), F(2, 5)], [F(1, 2), F(1, 2)]])
    assert sorted(mu.values) == [F(1, 5), F(1, 5), F(3, 10), F(3, 10)]
    t = product_space(spec2)
    mu4 = product_measure(spec2, [[F(3, 4), F(1, 4)]] * 2)
    assert measure_cell_doubling(t, mu4) == 4  # 1 / min level weight


def test_product_measure_errors():
    spec = ProductSpec((2, 2))
    with pytest.raises(NotProbability):
        product_measure(spec, [[F(1, 2), F(1, 3)]] * 2)
    with pytest.raises(NotProbability):
        product_measure(spec, [[F(1), F(0)]] * 2)
    with pytest.raises(NotProbability):
        product_measure(spec, [[F(1, 2), F(1, 2)]])


def test_product_measure_doubling_identity():
    import random

    rng = random.Random(7)
    for _ in range(25):
        sizes = tuple(rng.randrange(2, 5) for _ in range(rng.randrange(1, 4)))
        spec = ProductSpec(sizes)
        vecs = []
        for n in sizes:
            raw = [rng.randrange(1, 9) for _ in range(n)]
            s = sum(raw)
            vecs.append([F(v, s) for v in raw])
        mu = product_measure(spec, vecs)
        t = product_space(spec)
        k2 = measure_cell_doubling(t, mu)
        assert k2 == 1 / min(min(v) for v in vecs)


# -- metric doubling -----------------------------------------------------------


def _brute_min_cover(table, center, r):
    """Smallest number of half-radius balls covering B(center, r), by
    exhaustive search over all subsets of candidate centers."""
    n = table.n
    ball = frozenset(j for j in range(n) if table.d(center, j) <= r)
    half = r / 2
    cand = [frozenset(j for j in range(n) if table.d(y, j) <= half) for y in ball]
    for k in range(1, len(ball) + 1):
        for combo in combinations(cand, k):
            if ball <= frozenset().union(*combo):
                return k
    raise AssertionError("unreachable")


def test_metric_doubling_single_point():
    t = validate_family(["p"], [{0}])
    from cellspace import MetricTable

    g = Geometry.from_table(t, MetricTable(("p",), ((F(0),),)))
    res = metric_doubling_constant(g)
    assert res.value == 1 and res.exact


def test_metric_doubling_depth2_binary():
    t = product_space(ProductSpec((2, 2)))
    g = _drho_geometry(t, F(1, 2))
    res = metric_doubling_constant(g)
    assert res.exact
    brute = max(
        _brute_min_cover(g.table, x, r)
        for x in range(g.table.n)
        for r in critical_radii(g.table)
    )
    assert res.value == brute == 2


def test_metric_doubling_middle_thirds_exact():
    tree, emb = cantor(2)
    g = Geometry.from_intervals(tree, emb)
    res = metric_doubling_constant(g)
    assert res.exact
    brute = max(
        _brute_min_cover(g.table, x, r)
        for x in range(g.table.n)
        for r in critical_radii(g.table)
    )
    assert res.value == brute
    assert res.value in {2, 3, 4}


def test_metric_doubling_large_balls_still_correct():
    # 27-point balls exceed the exact-search cap but small exact covers
    # already attain the maximum, so the value stays certified
    t = product_space(ProductSpec((3, 3, 3)))
    g = _drho_geometry(t, F(1, 2))
    res = metric_doubling_constant(g)
    assert res.value == 3 and res.exact


def test_metric_doubling_greedy_flag_when_bound_dominates():
    # a 23-point star, d(0, i) = 1 and d(i, j) = 2, is neither an ultrametric
    # nor a line: the 23-point ball B(0, 1) takes 23 singletons by a greedy
    # bound, the exact covers of the 2-point balls take 2, so the result is
    # flagged as an upper bound
    from cellspace import MetricTable

    n = 23
    rows = tuple(
        tuple(F(0) if i == j else F(1) if 0 in (i, j) else F(2) for j in range(n))
        for i in range(n)
    )
    table = MetricTable(tuple(f"p{i}" for i in range(n)), rows)
    assert table.check_metric().ok
    assert table.ultrametric_tree is None and table.line_order is None
    res = metric_doubling_constant(Geometry(None, table, "table", ()))
    assert (res.value, res.exact, res.witness) == (23, False, ("p0", F(1)))


def test_measure_metric_doubling_examples():
    t = product_space(ProductSpec((2, 2)))
    g = _drho_geometry(t, F(1, 2))
    assert measure_metric_doubling(g, MeasureAtoms.uniform(t)) == 2
    single = validate_family(["p"], [{0}])
    from cellspace import MetricTable

    gs = Geometry.from_table(single, MetricTable(("p",), ((F(0),),)))
    assert measure_metric_doubling(gs, MeasureAtoms(("p",), (F(1),))) == 1


def test_measure_metric_doubling_depth_stable_middle_thirds():
    # observed sweep: 3 - 2^(2-d), increasing but bounded by 3 at every depth
    for depth in (3, 4, 5, 6):
        tree, emb = cantor(depth)
        g = Geometry.from_intervals(tree, emb)
        v = measure_metric_doubling(g, MeasureAtoms.uniform(tree))
        assert v == 3 - F(2) ** (2 - depth)
        assert v < 3


# -- regularity -----------------------------------------------------------------


def test_sequence_regularity_examples():
    assert sequence_regularity([F(1, 2) ** i for i in range(5)]) == (F(1, 2), F(1, 2))
    assert sequence_regularity([1, F(1, 2), F(1, 3)]) == (F(1, 2), F(2, 3))
    assert sequence_regularity([1, F(9, 10), F(1, 10)]) == (F(1, 9), F(9, 10))
    with pytest.raises(NotDecreasing):
        sequence_regularity([1, F(1, 2), F(3, 5)])


def test_metric_regularity_middle_thirds():
    for depth in range(1, 5):
        tree, emb = cantor(depth)
        rep = metric_regularity(tree, Geometry.from_intervals(tree, emb))
        assert (rep.alpha, rep.beta, rep.gamma) == (F(1, 3), F(1, 3), F(1, 3))
        assert rep.passes()


def test_metric_regularity_drho():
    t = product_space(ProductSpec((2, 2, 2)))
    rep = metric_regularity(t, _drho_geometry(t, F(1, 2)))
    assert (rep.alpha, rep.beta, rep.gamma) == (F(1, 2), F(1, 2), F(1))
    assert rep.passes()


def test_metric_regularity_matches_sequence_bounds():
    # the truncation only realizes the ratios between internal levels, so the
    # sequence extremes must occur before the last entry to be visible
    t = product_space(ProductSpec((2, 2, 2, 2)))
    seq = [F(1), F(1, 2), F(1, 5), F(1, 12), F(1, 24)]
    a, b = sequence_regularity(seq)
    assert (a, b) == (F(2, 5), F(1, 2))
    w = weight_from_sequence(t, seq)
    g = Geometry.from_table(t, ultrametric_from_weight(t, w))
    rep = metric_regularity(t, g)
    assert (rep.alpha, rep.beta, rep.gamma) == (a, b, F(1))


def test_metric_regularity_fat_cantor():
    tree, emb = fat_cantor(4)
    rep = metric_regularity(tree, Geometry.from_intervals(tree, emb))
    assert rep.alpha == F(3, 8)
    assert rep.beta == (1 - F(1, 32)) / 2
    assert rep.gamma == F(1, 32)
    assert rep.passes()


def test_metric_regularity_zero_diameter_error():
    from cellspace import MetricTable

    t = product_space(ProductSpec((2, 2)))
    rows = tuple(
        tuple(F(0) if p[:1] == q[:1] else F(1) for q in t.points) for p in t.points
    )
    table = MetricTable(t.points, rows)
    with pytest.raises(ZeroDiameterInternalCell):
        metric_regularity(t, Geometry.from_table(t, table))


def test_metric_regularity_one_point_vacuous():
    from cellspace import MetricTable

    t = validate_family(["p"], [{0}])
    g = Geometry.from_table(t, MetricTable(("p",), ((F(0),),)))
    rep = metric_regularity(t, g)
    assert rep.alpha is None and rep.beta is None and rep.gamma is None
    assert rep.passes()


def test_metric_regularity_float_geometry():
    from cellspace import MetricTable

    t = product_space(ProductSpec((2, 2)))
    exact = ultrametric_from_weight(
        t, weight_from_sequence(t, [F(1), F(1, 2), F(1, 4)])
    )
    rows = tuple(tuple(float(v) for v in row) for row in exact.rows)
    g = Geometry.from_table(t, MetricTable(t.points, rows, exact=False, tol=1e-12))
    rep = metric_regularity(t, g)
    assert rep.alpha == rep.beta == 0.5
    assert rep.gamma == 1.0


def test_sibling_separation_ratio_reported():
    tree, emb = cantor(2)
    rep = metric_regularity(tree, Geometry.from_intervals(tree, emb))
    assert rep.sibling_separation_ratio == 1  # gap 1/3 over child hull 1/3


# -- synthesized weights ----------------------------------------------------------


def test_synthesize_regular_weight_binary():
    t = product_space(ProductSpec((2, 2, 2)))
    w = synthesize_regular_weight(t, F(1, 2))
    by_depth = {t.depth[c]: w[c] for c in t.internal_cells()}
    assert by_depth == {0: 1, 1: F(1, 2), 2: F(1, 4)}
    rep = metric_regularity(t, Geometry.from_table(t, ultrametric_from_weight(t, w)))
    assert (rep.alpha, rep.beta, rep.gamma) == (F(1, 2), F(1, 2), F(1))


def test_synthesize_beta_third_matches_sequence():
    tree, _ = cantor(3)
    w1 = synthesize_regular_weight(tree, F(1, 3))
    w2 = weight_from_sequence(tree, [F(1, 3) ** i for i in range(4)])
    assert ultrametric_from_weight(tree, w1) == ultrametric_from_weight(tree, w2)


def test_synthesize_one_point():
    t = validate_family(["p"], [{0}])
    w = synthesize_regular_weight(t, F(1, 2))
    assert w[t.ROOT] == 0


def test_synthesize_bad_beta():
    t = product_space(ProductSpec((2, 2)))
    with pytest.raises(ValueError):
        synthesize_regular_weight(t, F(3, 2))


def test_synthesize_rejects_unary_import():
    # hand-assembled non-canonical tree with a single-child internal node
    from cellspace import CellTree
    from cellspace.errors import IsolatedPoint

    bogus = CellTree(
        points=("a",),
        parent=(None, 0),
        children=((1,), ()),
        depth=(0, 1),
        leaf_of=(1,),
    )
    with pytest.raises(IsolatedPoint):
        synthesize_regular_weight(bogus, F(1, 2))
