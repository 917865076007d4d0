"""Distortion profiles against the slow reference profiles.

`distortion_profile` counts triples per pair of value-code groups (exact
path) and samples strata with numpy views of the table kernels (sampled
path).  The reference functions below are the profiles they replaced: the
plain `Fraction` triple loop and the list-based stratified sampler, with
the float view of a table built entry by entry.  The property tests
compare pairs (values, counts, witnesses and insertion order), the triple
count and the sampled flag on random laminar ultrametric pairs (with
int64 kernels and with kernels of Python ints), on fat
Cantor line metrics against regular weights (dense pairs), and on the
sampled path forced by a low `cap`, where the value classes are distinct
values for some tables and geometric bins for others.
"""

import math
import random
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
    random_laminar,
    synthesize_regular_weight,
    ultrametric_from_weight,
)
from cellspace.metrics import _exact_matrix
from cellspace.quasisym import (
    _N_BINS,
    _SEEDED_EXTRAS,
    _STRATUM_CENTERS,
    DistortionProfile,
)

WIDE = 2**63 + 1


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


@settings(max_examples=12, deadline=None)
@given(st.integers(2, 5), st.sampled_from([F(1, 2), F(1, 3), F(2, 5)]), st.booleans())
def test_exact_profile_matches_triple_loop_on_fat_cantor(depth, beta, swap):
    d, dt = fat_cantor_pair(depth, beta)
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
    got, want = d.kernel, _exact_matrix(d)
    assert got.dtype == want.dtype
    assert got.shape == want.shape and (got == want).all()
    assert not got.flags.writeable


def test_wide_weights_give_an_object_kernel():
    tree = random_laminar(3, 3, 8, 12)
    d = ultrametric_from_weight(tree, random_weights(tree, random.Random(1), WIDE))
    assert d.kernel.dtype == object
    assert np.array_equal(d.kernel, _exact_matrix(d))
