"""Weight functions, synthesized ultrametrics, and ball geometry.

Covers: sequence weights and their error cases, the induced ultrametric
against a brute-force triple scan, diameter/separation values on table and
interval geometry, the ball-cell correspondence in both directions, and
strict diameter monotonicity.
"""

import dataclasses
from fractions import Fraction as F

import numpy as np
import pytest

from cellspace import (
    Geometry,
    MetricTable,
    ProductSpec,
    WeightFn,
    balls_equal_cells,
    cantor,
    cell_diameter,
    cell_separation,
    fat_cantor,
    product_space,
    random_laminar,
    strict_diameter_monotonicity,
    ultrametric_from_weight,
    validate_family,
    validate_ultrametric,
    weight_from_sequence,
)
from cellspace.errors import DepthMismatch, NotDecreasing, OverlappingCells


def _binary(depth):
    return product_space(ProductSpec((2,) * depth))


def _drho(tree, base):
    depth = max(tree.depth[c] for c in tree.leaves())
    w = weight_from_sequence(tree, [F(base) ** i for i in range(depth + 1)])
    return w, ultrametric_from_weight(tree, w)


# -- weight_from_sequence -------------------------------------------------------


def test_weight_from_sequence_values():
    t = _binary(3)
    w = weight_from_sequence(t, [F(3) ** -i for i in range(4)])
    for c in t.cells():
        if t.is_leaf(c):
            assert w[c] == 0
        else:
            assert w[c] == F(3) ** -t.depth[c]


def test_weight_from_sequence_depth2():
    t = _binary(2)
    w = weight_from_sequence(t, [1, F(1, 2), F(1, 4)])
    by_depth = {t.depth[c]: w[c] for c in t.internal_cells()}
    assert by_depth == {0: 1, 1: F(1, 2)}


def test_weight_from_sequence_not_decreasing():
    t = _binary(2)
    with pytest.raises(NotDecreasing):
        weight_from_sequence(t, [1, F(1, 2), F(3, 5)])
    with pytest.raises(NotDecreasing):
        weight_from_sequence(t, [F(1, 2), F(1, 4), F(1, 8)])


def test_weight_from_sequence_depth_mismatch():
    t = _binary(2)
    with pytest.raises(DepthMismatch):
        weight_from_sequence(t, [1, F(1, 2)])
    ragged = validate_family(
        ["a", "b", "c"], [{0, 1, 2}, {0, 1}, {0}, {1}, {2}]
    )
    with pytest.raises(DepthMismatch):
        weight_from_sequence(ragged, [1, F(1, 2)])


def test_weightfn_rejects_nonmonotone_map():
    t = _binary(2)
    values = []
    for c in t.cells():
        values.append(F(0) if t.is_leaf(c) else F(1))
    with pytest.raises(NotDecreasing):
        WeightFn(t, tuple(values))


# -- ultrametric_from_weight ------------------------------------------------------


def test_ultrametric_level_values():
    t = _binary(3)
    _, m = _drho(t, F(1, 3))
    assert m.d_label("000", "001") == F(1, 9)  # agree in exactly two coordinates
    assert m.d_label("000", "010") == F(1, 3)
    assert m.d_label("000", "100") == 1
    for p in t.points:
        assert m.d_label(p, p) == 0


def test_ultrametric_exhaustive_triples_brute():
    t = _binary(3)
    _, m = _drho(t, F(1, 3))
    n = m.n
    for x in range(n):
        for y in range(n):
            for z in range(n):
                assert m.d(x, z) <= max(m.d(x, y), m.d(y, z))


def test_ultrametric_random_weights_pass():
    import random

    rng = random.Random(4)
    for seed in range(6):
        t = random_laminar(seed, n_points=12)
        values = [F(0)] * t.n_cells
        for c in sorted(t.cells(), key=lambda c: t.depth[c]):
            if t.is_leaf(c):
                continue
            if t.parent[c] is None:
                values[c] = F(1)
            else:
                values[c] = values[t.parent[c]] * F(rng.randrange(5, 12), 16)
        w = WeightFn(t, tuple(values))
        assert validate_ultrametric(ultrametric_from_weight(t, w)).ok


def test_validate_ultrametric_collinear_witness():
    m = MetricTable(
        ("0", "1", "2"),
        (
            (F(0), F(1), F(2)),
            (F(1), F(0), F(1)),
            (F(2), F(1), F(0)),
        ),
    )
    v = validate_ultrametric(m)
    assert not v.ok
    assert v.witness == ("0", "2", "1")
    assert v.slack == 1


def test_validate_ultrametric_middle_thirds_fails():
    tree, emb = cantor(2)
    g = Geometry.from_intervals(tree, emb)
    v = validate_ultrametric(g.table)
    assert not v.ok and v.witness is not None


def test_validate_ultrametric_big_denominators_fallback():
    # a 2**70 denominator, yet the rescaled integers stay small: int64 scan
    huge = F(1, 2**70)
    m = MetricTable(
        ("a", "b", "c"),
        (
            (F(0), huge, 2 * huge),
            (huge, F(0), huge),
            (2 * huge, huge, F(0)),
        ),
    )
    v = validate_ultrametric(m)
    assert not v.ok and v.witness == ("a", "c", "b")


# -- diameters and separations ----------------------------------------------------


def test_interval_geometry_values():
    tree, emb = cantor(2)
    g = Geometry.from_intervals(tree, emb)
    assert cell_diameter(g, tree.ROOT) == 1
    a, b = tree.children[tree.ROOT]
    assert cell_separation(g, a, b) == F(1, 3)
    with pytest.raises(OverlappingCells):
        cell_separation(g, tree.ROOT, a)


def test_separation_rejects_disjoint_cells_with_overlapping_hulls():
    tree, emb = cantor(2)
    g = Geometry.from_intervals(tree, emb)
    a, b = tree.children[tree.ROOT]
    hulls = g._hulls.copy()  # rows (left, right) over g._den = 9: a is [0, 3]
    hulls[b, 0] = hulls[a, 1] - 1  # b now starts inside a's hull
    broken = dataclasses.replace(g, _hulls=hulls)
    with pytest.raises(OverlappingCells, match="hulls overlap"):
        broken.separation(a, b)
    with pytest.raises(OverlappingCells, match="hulls overlap"):
        broken.separation(b, a)


def test_drho_diameter_equals_weight():
    t = product_space(ProductSpec((3, 2)))
    w, m = _drho(t, F(1, 2))
    g = Geometry.from_table(t, m)
    for c in t.cells():
        assert g.diam(c) == w[c]


def test_drho_sibling_max_identity():
    t = product_space(ProductSpec((2, 3, 2)))
    w, m = _drho(t, F(2, 5))
    g = Geometry.from_table(t, m)
    for c in t.internal_cells():
        kids = t.children[c]
        for i in range(len(kids)):
            for j in range(i + 1, len(kids)):
                top = max(
                    g.diam(kids[i]), g.diam(kids[j]), g.separation(kids[i], kids[j])
                )
                assert top == g.diam(c)


def test_cross_pair_bound():
    # every x in C', y in C'' sits within max(diam', diam'', dist)
    t = _binary(3)
    _, m = _drho(t, F(1, 2))
    g = Geometry.from_table(t, m)
    cells = list(t.cells())
    for a in cells:
        for b in cells:
            if t.members[a] & t.members[b]:
                continue
            bound = max(g.diam(a), g.diam(b), g.separation(a, b))
            for i in t.members[a]:
                for j in t.members[b]:
                    assert m.d(i, j) <= bound


# -- balls and cells ---------------------------------------------------------------


def test_balls_equal_cells_drho():
    for sizes in ((2, 2, 2), (3, 2), (2, 3, 2)):
        t = product_space(ProductSpec(sizes))
        _, m = _drho(t, F(1, 2))
        assert balls_equal_cells(t, m).ok


def test_balls_equal_cells_single_point():
    t = validate_family(["p"], [{0}])
    m = MetricTable(("p",), ((F(0),),))
    assert balls_equal_cells(t, m).ok


def test_balls_equal_cells_fat_cantor_fails():
    tree, emb = fat_cantor(3)
    g = Geometry.from_intervals(tree, emb)
    v = balls_equal_cells(tree, g.table)
    assert not v.ok
    assert v.ball_failures  # a ball spanning a small gap is not a cell
    x, r, ball = v.ball_failures[0]
    fams = {frozenset(tree.cell_points(c)) for c in tree.cells()}
    assert frozenset(ball) not in fams


def test_strict_diameter_monotonicity():
    t = _binary(3)
    _, m = _drho(t, F(1, 2))
    assert strict_diameter_monotonicity(t, Geometry.from_table(t, m)).ok
    tree, emb = cantor(3)
    assert strict_diameter_monotonicity(tree, Geometry.from_intervals(tree, emb)).ok


def test_float_table_tolerance():
    # a violation inside the declared tolerance is accepted, outside is not
    rows = ((0.0, 1.0, 2.0 + 5e-10), (1.0, 0.0, 1.0), (2.0 + 5e-10, 1.0, 0.0))
    loose = MetricTable(("a", "b", "c"), rows, exact=False, tol=1e-9)
    assert loose.check_metric().ok
    tight = MetricTable(("a", "b", "c"), rows, exact=False, tol=1e-12)
    assert not tight.check_metric().ok
    v = validate_ultrametric(loose)
    assert not v.ok  # 2.0 > max(1.0, 1.0) + tol is a real ultrametric failure


def test_metric_table_check():
    good = MetricTable(("a", "b"), ((F(0), F(1)), (F(1), F(0))))
    assert good.check_metric().ok
    bad = MetricTable(("a", "b"), ((F(0), F(1)), (F(2), F(0))))
    assert not bad.check_metric().ok
    tri = MetricTable(
        ("a", "b", "c"),
        (
            (F(0), F(1), F(5)),
            (F(1), F(0), F(1)),
            (F(5), F(1), F(0)),
        ),
    )
    v = tri.check_metric()
    assert not v.ok and v.reason == "triangle inequality fails"


# -- kernel tables and their rows -------------------------------------------------


def _record_built_rows(monkeypatch) -> list:
    """Each table whose `rows` get built from its kernel, from now on."""
    prop = MetricTable.__dict__["rows"]
    build, built = prop.func, []

    def spy(table):
        built.append(table)
        return build(table)

    monkeypatch.setattr(prop, "func", spy)
    return built


def test_library_paths_build_no_rows(monkeypatch):
    from cellspace import MeasureAtoms, distortion_profile
    from cellspace.analysis import (
        measure_metric_doubling,
        metric_doubling_constant,
        metric_regularity,
    )

    built = _record_built_rows(monkeypatch)
    tree = _binary(4)
    _, m = _drho(tree, F(1, 3))
    g = Geometry.from_intervals(*fat_cantor(4))
    assert validate_ultrametric(m).ok and balls_equal_cells(tree, m).ok
    assert g.table.check_metric().ok and not balls_equal_cells(tree, g.table).ok
    for geo in (g, Geometry.from_table(tree, m)):
        metric_regularity(tree, geo)
        metric_doubling_constant(geo)
        measure_metric_doubling(geo, MeasureAtoms.uniform(tree))
    distortion_profile(g.table, m)
    distortion_profile(g.table, m.scale(F(2, 3)), cap=4)
    assert built == []
    assert "rows" not in m.__dict__ and "rows" not in g.table.__dict__
    assert m.d(0, 1) == m.rows[0][1] and built == [m]
    assert "rows" in m.__dict__


@pytest.mark.parametrize(
    "c", [F(7, 3), 5, F(-1, 2), 0, F(2**40, 3), F(1, 2**40), F(3**45, 2**70)]
)
def test_scale_keeps_values_types_and_exactness(c):
    tree, emb = fat_cantor(3, [F(1, 3), F(1, 5), F(2**20 + 7, 2**40)])
    t = Geometry.from_intervals(tree, emb).table
    s = t.scale(c)
    assert s.exact and s.labels == t.labels
    assert s.rows == tuple(tuple(F(c) * v for v in row) for row in t.rows)
    assert all(type(v) is F for row in s.rows for v in row)
    # the dtype is picked again for the product
    big = max(abs(v) for v in s.kernel.ravel().tolist())
    assert (s.kernel.dtype == object) == (2 * big >= 2**62)
    same = MetricTable(s.labels, s.rows)
    assert s.check_metric() == same.check_metric()
    assert validate_ultrametric(s) == validate_ultrametric(same)


def test_scale_moves_a_kernel_between_int64_and_python_ints():
    t = MetricTable(("a", "b"), ((F(0), F(2**40)), (F(2**40), F(0))))
    assert t.kernel.dtype == np.int64
    up = t.scale(2**30)
    assert up.kernel.dtype == object and up.d(0, 1) == 2**70 and type(up.d(0, 1)) is F
    back = up.scale(F(1, 2**30))
    assert back.rows == t.rows and back.kernel.dtype == np.int64 and back.den == t.den
    assert t.scale(F(2**30, 3)).kernel.dtype == object
    assert up.scale(F(2**-20)).kernel.dtype == np.int64  # 2**70 / 2**20 fits again


def test_scale_keeps_float_tables_float():
    rows = ((0.0, 0.1, 2.5), (0.1, 0.0, 1e300), (2.5, 1e300, 0.0))
    t = MetricTable(("a", "b", "c"), rows, exact=False, tol=1e-9)
    s = t.scale(F(1, 3))
    assert not s.exact and s.tol == 1e-9 and s.kernel.dtype == np.float64
    assert s.rows == tuple(tuple(float(F(1, 3)) * v for v in row) for row in rows)
    assert all(type(v) is float for row in s.rows for v in row)
    assert s.value_codes()[0] == sorted({float(F(1, 3)) * v for row in rows for v in row})


def test_cli_runs_build_no_rows(monkeypatch, tmp_path, capsys):
    from cellspace.cli import main
    from cellspace.formats import space_to_json

    built = _record_built_rows(monkeypatch)
    tree = _binary(3)
    w, _ = _drho(tree, F(1, 2))
    weighted, fat = tmp_path / "w.json", tmp_path / "fat.json"
    weighted.write_text(space_to_json(tree, weights=w))
    assert main(["generate", "fat-cantor", "--depth", "3", "--out", str(fat)]) == 0
    out = ["--out", str(tmp_path / "out")]
    for argv, code in (
        (["validate", str(weighted)], 0),
        (["validate", str(fat)], 0),
        (["analyze", str(weighted)], 0),
        (["analyze", str(fat)], 0),
        (["distortion", str(fat), "euclid", "reg:1/2", "--depths", "2,3", *out], 1),
        (["distortion", str(fat), "geo:1/2", "euclid", "--depths", "3,4", *out], 1),
    ):
        assert main(argv) == code, argv
    capsys.readouterr()
    assert built == []
