"""Distortion profiles against the slow reference profiles.

`distortion_profile` emits one triple per pair of value-code groups (exact
path) or samples strata with numpy views of the table kernels (sampled
path), and both paths count their triples in one reduction over arrays.
The reference functions below are the profiles they replaced: the plain
`Fraction` triple loop and the list-based stratified sampler, with the
float view of a table built entry by entry.  The property tests compare
pairs (values, counts, witnesses and insertion order), the triple count
and the sampled flag on random laminar ultrametric pairs (with int64
kernels and with kernels of Python ints), on fat Cantor line metrics
against regular weights (dense pairs; with prime gap proportions near
10^6 the line kernel holds Python ints), and on the sampled path forced
by a low `cap`, where the value classes are distinct values for some
tables and geometric bins for others.

A profile's pairs are sorted once, on float keys with exact re-sorting of
float ties, and its envelope is built once from that order.  The oracles
for those are the plain `sorted(pairs)` and the envelope walk over it that
`envelope_eval` and `qs_verdict` used to repeat on every call; they are
checked on drawn profiles with near-tie rationals, ratios past the float
range, float ratios and many `s` per `r`, and end to end on the
`distortion` command's outputs.
"""

import math
import random
from bisect import bisect_right
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cellspace import (
    Geometry,
    MetricTable,
    WeightFn,
    distortion_profile,
    fat_cantor,
    formats,
    quasisym,
    random_laminar,
    synthesize_regular_weight,
    ultrametric_from_weight,
)
from cellspace.cli import main
from cellspace.metrics import _exact_matrix
from cellspace.quasisym import (
    _N_BINS,
    _SEEDED_EXTRAS,
    _STRATUM_CENTERS,
    DistortionProfile,
    envelope_eval,
    qs_verdict,
)

WIDE = 2**63 + 1
WIDE_THETAS = [F(1, p) for p in (1000003, 1000033, 1000037, 1000039, 1000081)]


def ref_exact_profile(d: MetricTable, dt: MetricTable) -> DistortionProfile:
    n = d.n
    pairs: dict = {}
    rdiv: dict = {}
    sdiv: dict = {}
    count = 0
    for x in range(n):
        rowd = d.rows[x]
        rowt = dt.rows[x]
        for y in range(n):
            if y == x:
                continue
            dxy = rowd[y]
            txy = rowt[y]
            for z in range(n):
                if z == x:
                    continue
                count += 1
                kr = (dxy, rowd[z])
                r = rdiv.get(kr)
                if r is None:
                    r = dxy / rowd[z]
                    rdiv[kr] = r
                ks = (txy, rowt[z])
                s = sdiv.get(ks)
                if s is None:
                    s = txy / rowt[z]
                    sdiv[ks] = s
                got = pairs.get((r, s))
                if got is None:
                    pairs[(r, s)] = [1, (d.labels[x], d.labels[y], d.labels[z])]
                else:
                    got[0] += 1
    return DistortionProfile(tuple(d.labels), pairs, False, count)


def _float_rows(table: MetricTable):
    return [[float(v) for v in row] for row in table.rows]


def ref_value_bins(table: MetricTable):
    float_rows = _float_rows(table)
    vals = sorted(
        {float_rows[i][j] for i in range(table.n) for j in range(table.n) if i != j}
    )
    if len(vals) <= 64:
        lookup = {v: k for k, v in enumerate(vals)}
        return lookup.__getitem__
    lo = math.log(vals[0])
    hi = math.log(vals[-1])
    span = hi - lo or 1.0

    def bin_of(v):
        k = int((math.log(v) - lo) / span * _N_BINS)
        return min(max(k, 0), _N_BINS - 1)

    return bin_of


def ref_sampled_profile(d: MetricTable, dt: MetricTable, seed: int) -> DistortionProfile:
    n = d.n
    rng = random.Random(seed)
    pairs: dict = {}
    count = 0
    float_rows = {0: _float_rows(d), 1: _float_rows(dt)}

    def add(x, y, z):
        nonlocal count
        r = d.rows[x][y] / d.rows[x][z]
        s = dt.rows[x][y] / dt.rows[x][z]
        got = pairs.get((r, s))
        count += 1
        if got is None:
            pairs[(r, s)] = [1, (d.labels[x], d.labels[y], d.labels[z])]
        else:
            got[0] += 1

    add(0, 1, 1)
    order = list(range(n))
    rng.shuffle(order)
    for which, binning in ((0, d), (1, dt)):
        bin_of = ref_value_bins(binning)
        quota: dict = {}
        for x in order:
            groups: dict = {}
            row_b = float_rows[which][x]
            row_o = float_rows[1 - which][x]
            for y in range(n):
                if y != x:
                    groups.setdefault(bin_of(row_b[y]), []).append(y)
            cands = {}
            for b, ys in groups.items():
                chosen = {
                    min(ys, key=lambda y: (row_b[y], y)),
                    max(ys, key=lambda y: (row_b[y], -y)),
                    min(ys, key=lambda y: (row_o[y], y)),
                    max(ys, key=lambda y: (row_o[y], -y)),
                }
                for _ in range(_SEEDED_EXTRAS):
                    chosen.add(ys[rng.randrange(len(ys))])
                cands[b] = sorted(chosen)
            bins = sorted(groups)
            for b1 in bins:
                for b2 in bins:
                    key = (which, b1, b2)
                    if quota.get(key, 0) >= _STRATUM_CENTERS:
                        continue
                    quota[key] = quota.get(key, 0) + 1
                    for y in cands[b1]:
                        for z in cands[b2]:
                            add(x, y, z)
    return DistortionProfile(tuple(d.labels), pairs, True, count)


def assert_same_profile(got: DistortionProfile, want: DistortionProfile):
    assert list(got.pairs.items()) == list(want.pairs.items())  # order too
    for (r, s), (r0, s0) in zip(got.pairs, want.pairs):
        assert (type(r), type(s)) == (type(r0), type(s0))
    assert got.n_triples == want.n_triples
    assert got.sampled is want.sampled
    assert got.labels == want.labels


# -- generated metric pairs ----------------------------------------------------


def random_weights(tree, rng: random.Random, den: int = 10) -> WeightFn:
    """Root weight 1, each internal child a random fraction of its parent."""
    values = [F(0)] * tree.n_cells
    for c in sorted(tree.cells(), key=tree.depth.__getitem__):
        if tree.is_leaf(c):
            continue
        par = tree.parent[c]
        top = F(1) if par is None else values[par]
        values[c] = top * F(rng.randint(1, den - 1), den)
    return WeightFn(tree, tuple(values))


@st.composite
def laminar_pairs(draw):
    seed = draw(st.integers(0, 2**32 - 1))
    n = draw(st.integers(1, 24))
    tree = random_laminar(seed, draw(st.integers(2, 4)), 8, n)
    rng = random.Random(seed)
    kind = draw(st.sampled_from(["random", "regular", "mixed", "wide"]))
    if kind == "regular":
        wa = synthesize_regular_weight(tree, F(1, 2))
        wb = synthesize_regular_weight(tree, F(1, 3))
    elif kind == "wide":  # kernels of Python ints
        wa = random_weights(tree, rng, WIDE)
        wb = synthesize_regular_weight(tree, F(1, 3))
    else:
        wa = random_weights(tree, rng)
        wb = random_weights(tree, rng) if kind == "random" else (
            synthesize_regular_weight(tree, F(1, 3))
        )
    return ultrametric_from_weight(tree, wa), ultrametric_from_weight(tree, wb)


def fat_cantor_pair(depth: int, beta: F, thetas=None):
    tree, emb = fat_cantor(depth, thetas)
    line = Geometry.from_intervals(tree, emb).table
    reg = ultrametric_from_weight(tree, synthesize_regular_weight(tree, beta))
    return line, reg


def as_floats(t: MetricTable) -> MetricTable:
    return MetricTable(t.labels, tuple(tuple(map(float, r)) for r in t.rows), exact=False)


# -- properties ------------------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(laminar_pairs(), st.booleans())
def test_exact_profile_matches_triple_loop_on_ultrametrics(pair, floats):
    d, dt = pair
    if floats:
        d, dt = as_floats(d), as_floats(dt)
    assert_same_profile(distortion_profile(d, dt), ref_exact_profile(d, dt))


@settings(max_examples=16, deadline=None)
@given(
    st.integers(2, 5), st.sampled_from([F(1, 2), F(1, 3), F(2, 5)]), st.booleans(), st.booleans()
)
def test_exact_profile_matches_triple_loop_on_fat_cantor(depth, beta, swap, wide):
    # prime gap proportions near 10^6 give the line table a Python-int
    # kernel from depth 4 on
    d, dt = fat_cantor_pair(depth, beta, WIDE_THETAS[:depth] if wide else None)
    if wide and depth >= 4:
        assert d.kernel.dtype == object
    if swap:
        d, dt = dt, d
    assert_same_profile(distortion_profile(d, dt), ref_exact_profile(d, dt))


@settings(max_examples=60, deadline=None)
@given(laminar_pairs(), st.integers(0, 2**32 - 1))
def test_sampled_profile_matches_reference_on_ultrametrics(pair, seed):
    d, dt = pair
    if d.n < 2:
        return
    got = distortion_profile(d, dt, cap=1, seed=seed)
    assert_same_profile(got, ref_sampled_profile(d, dt, seed))


@pytest.mark.parametrize("depth", [4, 5, 6])
@settings(max_examples=4, deadline=None)
@given(st.booleans(), st.integers(0, 2**32 - 1))
def test_sampled_profile_matches_reference_on_fat_cantor(depth, swap, seed):
    # the line metric has 41 distinct distances at depth 4 (one class per
    # value) and more than 64 at depths 5 and 6 (geometric bins); the
    # regular weights have few
    d, dt = fat_cantor_pair(depth, F(1, 2))
    distinct = len({v for row in d.rows for v in row}) - 1
    assert (distinct <= 64) == (depth == 4)
    if swap:
        d, dt = dt, d
    got = distortion_profile(d, dt, cap=8, seed=seed)
    assert_same_profile(got, ref_sampled_profile(d, dt, seed))


def test_sampled_profile_matches_reference_on_float_tables():
    d, dt = fat_cantor_pair(5, F(1, 3))
    d, dt = as_floats(d), as_floats(dt)
    for seed in (0, 1, 2):
        got = distortion_profile(d, dt, cap=8, seed=seed)
        assert_same_profile(got, ref_sampled_profile(d, dt, seed))


@settings(max_examples=100, deadline=None)
@given(laminar_pairs(), st.booleans())
def test_seeded_kernel_equals_kernel_of_rows(pair, wide):
    d, _ = pair
    if wide:  # common denominator past int64: the kernel holds Python ints
        tree = random_laminar(d.n, 3, 8, d.n)
        d = ultrametric_from_weight(tree, random_weights(tree, random.Random(d.n), WIDE))
    got, want = d.kernel, _exact_matrix(d)[0]
    assert got.dtype == want.dtype
    assert got.shape == want.shape and (got == want).all()
    assert not got.flags.writeable


def test_wide_weights_give_an_object_kernel():
    tree = random_laminar(3, 3, 8, 12)
    d = ultrametric_from_weight(tree, random_weights(tree, random.Random(1), WIDE))
    assert d.kernel.dtype == object
    assert np.array_equal(d.kernel, _exact_matrix(d)[0])


# -- the sorted order and the envelope ------------------------------------------


class RefEnvelope:
    """H(t) = max{s : r <= t} by a walk over `sorted(pairs)`."""

    def __init__(self, profile: DistortionProfile):
        self.r_steps = []
        self.h_vals = []
        self.h_wits = []
        best = None
        best_w = None
        for r, s in sorted(profile.pairs):
            if best is None or s > best:
                best = s
                best_w = profile.pairs[(r, s)][1]
            if self.r_steps and self.r_steps[-1] == r:
                self.h_vals[-1] = best
                self.h_wits[-1] = best_w
            else:
                self.r_steps.append(r)
                self.h_vals.append(best)
                self.h_wits.append(best_w)

    def at(self, t):
        k = bisect_right(self.r_steps, t)
        return None if k == 0 else self.h_vals[k - 1]

    def witness_at(self, t):
        k = bisect_right(self.r_steps, t)
        return None if k == 0 else self.h_wits[k - 1]


def assert_order_and_envelope_match(p: DistortionProfile):
    want = sorted(p.pairs)
    got = p.distinct()
    assert got == want
    for (r, s), (r0, s0) in zip(got, want):
        assert (type(r), type(s)) == (type(r0), type(s0))
    assert [entry for _, entry in p.ordered] == [p.pairs[pair] for pair in want]
    env, ref = p.envelope, RefEnvelope(p)
    assert env.r_steps == ref.r_steps
    assert env.h_vals == ref.h_vals
    assert env.h_wits == ref.h_wits


_THIRD = F(1, 3)
_EPS = F(1, 10**40)

# near-tie rationals share one float with their neighbours
near_ties = st.builds(
    lambda base, k: base + k * _EPS,
    st.sampled_from([_THIRD, F(2, 7), F(1), F(10, 3)]),
    st.integers(-2, 2),
)
huge = st.builds(lambda k, m: F(10**400 + k, m), st.integers(0, 3), st.integers(1, 3))
tiny = st.builds(lambda k, m: F(m, 10**400 + k), st.integers(0, 3), st.integers(1, 3))
plain = st.fractions(min_value=F(1, 10**6), max_value=F(10**6), max_denominator=10**6)
floats = st.one_of(
    st.floats(min_value=0.0, allow_nan=False, allow_infinity=True),
    st.sampled_from([5e-324, 1e-323, 1e308, 1.7976931348623157e308, 1 / 3, 0.5]),
)
ratios = st.one_of(near_ties, huge, tiny, plain, floats)


@st.composite
def drawn_profiles(draw):
    """Profiles on few r values with many s values each, ratios drawn from
    near-tie rationals, ratios above and below the float range, and floats."""
    r_pool = draw(st.lists(ratios, min_size=1, max_size=6))
    n = draw(st.integers(0, 60))
    pairs: dict = {}
    for i in range(n):
        pair = (draw(st.sampled_from(r_pool)), draw(ratios))
        pairs.setdefault(pair, [i + 1, ("x", f"y{i}", "z")])
    return DistortionProfile(("x",), pairs, False, n)


@settings(max_examples=150, deadline=None)
@given(drawn_profiles())
def test_cached_order_and_envelope_match_sort_on_drawn_profiles(p):
    assert_order_and_envelope_match(p)


def test_order_sorts_near_ties_past_the_float_key():
    r1, r2 = _THIRD, _THIRD + _EPS
    assert r1 != r2 and float(r1) == float(r2)
    big1, big2 = F(10**400), F(10**400 + 1)
    small1, small2 = F(1, 10**400 + 1), F(1, 10**400)
    pairs = {}
    for i, pair in enumerate([
        (r2, F(1)), (r1, r2), (r1, r1), (big2, F(1)), (big1, F(2)),
        (small2, F(1)), (small1, F(3)), (F(1, 2), F(1, 10**400)),
    ]):
        pairs[pair] = [1, ("x", f"y{i}", "z")]
    p = DistortionProfile(("x",), pairs, False, len(pairs))
    assert p.distinct() == [
        (small1, F(3)), (small2, F(1)), (r1, r1), (r1, r2), (r2, F(1)),
        (F(1, 2), F(1, 10**400)), (big1, F(2)), (big2, F(1)),
    ]
    assert_order_and_envelope_match(p)


@settings(max_examples=40, deadline=None)
@given(laminar_pairs(), st.booleans())
def test_cached_order_and_envelope_match_sort_on_profiles(pair, floats):
    d, dt = pair
    if floats:
        d, dt = as_floats(d), as_floats(dt)
    for p in (distortion_profile(d, dt), distortion_profile(d, dt, cap=1)):
        assert_order_and_envelope_match(p)
        assert_order_and_envelope_match(p.swap())


@pytest.mark.parametrize("floats", [False, True])
def test_cached_order_and_envelope_match_sort_on_fat_cantor(floats):
    d, dt = fat_cantor_pair(4, F(1, 2))
    if floats:
        d, dt = as_floats(d), as_floats(dt)
    assert_order_and_envelope_match(distortion_profile(d, dt))


def test_swap_never_inherits_the_cached_order():
    d, dt = fat_cantor_pair(3, F(1, 3))
    p = distortion_profile(d, dt)
    assert p.ordered is p.ordered and p.envelope is p.envelope
    q = p.swap()
    assert "ordered" not in vars(q) and "envelope" not in vars(q)
    assert q.ordered is not p.ordered and q.envelope is not p.envelope
    assert_order_and_envelope_match(q)
    assert q.swap().distinct() == p.distinct()


def test_each_profile_is_sorted_once(monkeypatch):
    calls = []
    order = quasisym._exact_order

    def counted(pairs):
        calls.append(len(pairs))
        return order(pairs)

    monkeypatch.setattr(quasisym, "_exact_order", counted)
    profiles = {depth: distortion_profile(*fat_cantor_pair(depth, F(1, 2))) for depth in (3, 4)}
    grid = [F(2) ** k for k in range(-8, 2)]
    for p in profiles.values():
        formats.profile_to_csv(p)
        envelope_eval(p, grid)
    qs_verdict(profiles, grid)
    assert calls == [len(p.pairs) for p in profiles.values()]


def _distortion_outputs(tmp_path, tag: str) -> bytes:
    f = tmp_path / "fat.json"
    outdir = tmp_path / tag
    main(["generate", "fat-cantor", "--depth", "2", "--out", str(f)])
    code = main([
        "distortion", str(f), "euclid", "reg:1/2", "--depths", "3,5", "--out", str(outdir),
    ])
    blob = f"{code}\n".encode()
    for name in sorted(p.name for p in outdir.iterdir()):
        blob += name.encode() + b"\n" + (outdir / name).read_bytes()
    return blob


def test_distortion_cli_outputs_match_the_oracle_sort_and_envelope(tmp_path, capsys, monkeypatch):
    got = _distortion_outputs(tmp_path, "cached") + capsys.readouterr().out.encode()
    assert b"profile_depth5.csv" in got and b"envelope_depth3.csv" in got
    oracle_order = property(lambda p: [(pair, p.pairs[pair]) for pair in sorted(p.pairs)])
    monkeypatch.setattr(DistortionProfile, "ordered", oracle_order)
    monkeypatch.setattr(DistortionProfile, "envelope", property(RefEnvelope))
    want = _distortion_outputs(tmp_path, "oracle") + capsys.readouterr().out.encode()
    assert got == want
