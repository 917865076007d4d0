"""Distortion profiles, envelopes, and cross-depth verdicts.

Covers: exact profile invariants (scale invariance, swap symmetry, the
power-law between geometric weight metrics), envelope evaluation, verdict
pass/fail behavior including the fat Cantor gap witness, determinism of
the sampled mode, profiles of tables below two points, the error on a zero
distance between distinct points, and the Fractions the output path builds.
"""

import math
from fractions import Fraction as F

import numpy as np
import pytest

from cellspace import (
    Geometry,
    MetricTable,
    ProductSpec,
    distortion_profile,
    envelope_eval,
    fat_cantor,
    product_space,
    qs_verdict,
    synthesize_regular_weight,
    ultrametric_from_weight,
    weight_from_sequence,
)
from cellspace import formats, quasisym
from cellspace.errors import GridTooCoarse, PointSetMismatch
from cellspace.quasisym import DistortionProfile


def _drho_table(depth, base, sizes=None):
    t = product_space(ProductSpec(sizes or (2,) * depth))
    w = weight_from_sequence(t, [F(base) ** i for i in range(depth + 1)])
    return t, ultrametric_from_weight(t, w)


def _pair_23(depth):
    t, d = _drho_table(depth, F(1, 2))
    _, dt = _drho_table(depth, F(1, 3))
    return t, d, dt


def test_identity_profile():
    _, d, _ = _pair_23(3)
    p = distortion_profile(d, d)
    assert all(r == s for r, s in p.distinct())
    assert (F(1), F(1)) in p.pairs


def test_scale_invariance_exact_multiset():
    _, d, dt = _pair_23(3)
    p1 = distortion_profile(d, dt)
    p2 = distortion_profile(d, dt.scale(F(7, 3)))
    assert {k: v[0] for k, v in p1.pairs.items()} == {
        k: v[0] for k, v in p2.pairs.items()
    }
    p3 = distortion_profile(d.scale(5), dt)
    assert {k: v[0] for k, v in p1.pairs.items()} == {
        k: v[0] for k, v in p3.pairs.items()
    }


def test_swap_symmetry():
    _, d, dt = _pair_23(3)
    p = distortion_profile(d, dt)
    q = distortion_profile(dt, d)
    assert {k: v[0] for k, v in p.swap().pairs.items()} == {
        k: v[0] for k, v in q.pairs.items()
    }


def test_point_set_mismatch():
    _, d, _ = _pair_23(2)
    _, d3, _ = _pair_23(3)
    with pytest.raises(PointSetMismatch):
        distortion_profile(d, d3)


def test_power_law_between_geometric_weights():
    _, d, dt = _pair_23(3)
    p = distortion_profile(d, dt)
    ex = math.log(3) / math.log(2)
    for r, s in p.distinct():
        assert abs(float(s) - float(r) ** ex) <= 1e-12


def test_level_pair_tagging():
    # r and s always come from the same level pair (m, k)
    t, d, dt = _pair_23(4)
    p = distortion_profile(d, dt)
    levels = set()
    for x in t.points:
        for y in t.points:
            if y != x:
                levels.add(t.depth[t.minimal_cell(x, y)])
    expected = {
        (F(1, 2) ** m / F(1, 2) ** k, F(1, 3) ** m / F(1, 3) ** k)
        for m in levels
        for k in levels
    }
    assert set(p.pairs) == expected


def test_envelope_examples():
    _, d, dt = _pair_23(3)
    p = distortion_profile(d, dt)
    env = dict(envelope_eval(p, [F(1, 4), F(1, 2), F(1), F(2)]))
    assert env[F(1, 4)] == F(1, 9)
    assert env[F(1, 2)] == F(1, 3)
    assert env[F(1)] == F(1)
    assert env[F(2)] == F(3)


def test_envelope_empty_grid_and_absent_marker():
    _, d, dt = _pair_23(2)
    p = distortion_profile(d, dt)
    assert envelope_eval(p, []) == []
    (t0, h0), = envelope_eval(p, [F(1, 1000)])
    assert h0 is None


def test_envelope_monotone():
    _, d, dt = _pair_23(3)
    p = distortion_profile(d, dt)
    grid = [F(k, 8) for k in range(1, 24)]
    vals = [h for _, h in envelope_eval(p, grid) if h is not None]
    assert vals == sorted(vals)


def _geo_profiles(depths, base_a, base_b):
    out = {}
    for depth in depths:
        _, d = _drho_table(depth, base_a)
        _, dt = _drho_table(depth, base_b)
        out[depth] = distortion_profile(d, dt)
    return out


def test_qs_verdict_pass_2_vs_3():
    grid = [F(2) ** j for j in range(-8, 3)]
    v = qs_verdict(_geo_profiles((3, 5), F(1, 2), F(1, 3)), grid)
    assert v.passed
    assert v.depths == (3, 5)


def test_qs_verdict_identity_pass():
    profiles = {}
    for depth in (3, 5):
        _, d = _drho_table(depth, F(1, 2))
        profiles[depth] = distortion_profile(d, d)
    v = qs_verdict(profiles, [F(2) ** j for j in range(-8, 3)])
    assert v.passed


def test_qs_verdict_fail_fat_cantor():
    grid = [F(2) ** j for j in range(-10, 3)]
    profiles = {}
    for depth in (4, 6):
        tree, emb = fat_cantor(depth)
        g = Geometry.from_intervals(tree, emb)
        du = ultrametric_from_weight(tree, synthesize_regular_weight(tree, F(1, 2)))
        profiles[depth] = distortion_profile(g.table, du)
    v = qs_verdict(profiles, grid)
    assert not v.passed
    assert v.offending_t is not None
    assert v.witness is not None
    # a gap-crossing pair: tiny in the line metric, level-sized in the weights
    deep = profiles[6]
    assert any(r <= F(1, 2**6) and s >= F(1, 2) for r, s in deep.distinct())


def _steps(*pairs):
    wit = ("a", "b", "c")
    return DistortionProfile(wit, {rs: [1, wit] for rs in pairs}, False, len(pairs))


@pytest.mark.parametrize("excess, passed", [(F(0), True), (F(1, 10**30), False)])
def test_qs_verdict_compares_exact_envelopes_exactly(excess, passed):
    # the envelopes differ at t = 1/2 by the exact value of the float tol,
    # plus an excess too small to survive rounding the difference to float
    diff = F(1e-9) + excess
    shallow = _steps((F(1, 8), F(1, 8)), (F(1, 4), F(1, 4)), (F(1, 2), F(1, 2)))
    deep = _steps((F(1, 8), F(1, 8)), (F(1, 4), F(1, 4)), (F(1, 2), F(1, 2) + diff))
    v = qs_verdict({2: shallow, 3: deep}, [F(1, 8), F(1, 4), F(1, 2), F(1)], tol=1e-9)
    assert v.passed is passed
    if not passed:
        assert v.offending_t == F(1, 2) and v.witness == ("a", "b", "c")
    assert qs_verdict({2: shallow, 3: deep}, [F(1, 8), F(1, 4), F(1, 2)], tol=math.inf).passed


def test_qs_verdict_needs_two_depths():
    _, d, dt = _pair_23(2)
    with pytest.raises(ValueError):
        qs_verdict({2: distortion_profile(d, dt)}, [F(1, 4), F(1, 2), F(3, 4)])


def test_qs_verdict_grid_too_coarse():
    profiles = _geo_profiles((2, 3), F(1, 2), F(1, 3))
    with pytest.raises(GridTooCoarse):
        qs_verdict(profiles, [F(1, 2), F(1), F(2)])


def test_sampled_mode_deterministic_and_tagged():
    tree, emb = fat_cantor(8)
    g = Geometry.from_intervals(tree, emb)
    du = ultrametric_from_weight(tree, synthesize_regular_weight(tree, F(1, 2)))
    p1 = distortion_profile(g.table, du, cap=200, seed=5)
    p2 = distortion_profile(g.table, du, cap=200, seed=5)
    assert p1.sampled and p2.sampled
    assert p1.pairs == p2.pairs
    assert (F(1), F(1)) in p1.pairs
    # the gap-crossing extremes survive sampling
    assert any(r < F(1, 2**8) and s >= F(1, 2) for r, s in p1.distinct())


def test_sampled_mode_cap_boundary():
    # 512 points stays exact, one more would sample; use a small cap to probe
    _, d, dt = _pair_23(3)
    exact = distortion_profile(d, dt, cap=8)
    sampled = distortion_profile(d, dt, cap=7)
    assert not exact.sampled and sampled.sampled
    assert set(sampled.pairs) <= set(exact.pairs)


@pytest.mark.parametrize("n", [0, 1])
def test_sampled_profile_below_two_points_is_the_empty_exact_profile(n):
    # any cap below n samples, and there is no triple to sample
    t = MetricTable(tuple("a"[:n]), ((F(0),),)[:n])
    exact = distortion_profile(t, t)
    for p in (distortion_profile(t, t, cap=n - 1), distortion_profile(t, t, cap=-1, seed=3)):
        assert p.sampled and not exact.sampled
        assert len(p.pairs) == 0 and dict(p.pairs) == dict(exact.pairs) == {}
        assert p.n_triples == exact.n_triples == 0
        assert formats.profile_to_csv(p) == "r,s,count\n"
        assert envelope_eval(p, [F(1, 2), F(1)]) == [(F(1, 2), None), (F(1), None)]


def _pseudo(kind: str) -> MetricTable:
    """Three points, a and b at distance 0."""
    unit = {"int64": F(1), "wide": F(2**70), "float": 1.0}[kind]
    rows = ((0 * unit, 0 * unit, unit), (0 * unit, 0 * unit, unit), (unit, unit, 0 * unit))
    return MetricTable(("a", "b", "c"), rows, exact=kind != "float")


@pytest.mark.parametrize("kind", ["int64", "wide", "float"])
@pytest.mark.parametrize("cap", [512, 1])
def test_zero_distance_between_distinct_points_raises(kind, cap):
    pseudo = _pseudo(kind)
    assert pseudo.kernel.dtype == {"int64": np.int64, "wide": object, "float": np.float64}[kind]
    line = MetricTable.from_kernel(pseudo.labels, np.array([[0, 1, 3], [1, 0, 2], [3, 2, 0]]), 1)
    if kind == "float":
        line = MetricTable(line.labels, tuple(tuple(map(float, r)) for r in line.rows), exact=False)
    for d, dt in ((pseudo, line), (line, pseudo)):
        with pytest.raises(ZeroDivisionError):
            distortion_profile(d, dt, cap=cap)


def test_profile_and_output_path_build_fractions_per_grid_point_not_per_pair(monkeypatch):
    # the profile stays integer columns up to the CSV: the writer formats
    # each distinct value from its integer pair, and the envelope builds
    # values only for the grid points it is read at
    tables = {}
    for depth in (4, 5):
        tree, emb = fat_cantor(depth)
        line = Geometry.from_intervals(tree, emb).table
        tables[depth] = line, ultrametric_from_weight(tree, synthesize_regular_weight(tree, F(1, 2)))
    built = []
    new = F.__new__

    def counted(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(F, "__new__", staticmethod(counted))
    grid = [F(2) ** k for k in range(-10, 3)]
    profiles = {depth: distortion_profile(*pair) for depth, pair in tables.items()}
    for p in profiles.values():
        formats.profile_to_csv(p)
        envelope_eval(p, grid)
    qs_verdict(profiles, grid)
    # five envelope reads per grid point, each a bisection over the steps
    assert len(profiles[5].pairs) > 7000
    assert len(built) < 5 * len(grid) * (math.log2(len(profiles[5].pairs)) + 2)
