"""The block sampler against the per-row sampler it replaced.

`quasisym._sampled_triples` classes the rows of a block of points at once
and makes the block's seeded draws in one list; only a row that still has
a stratum to take is read on its own.  The reference below is the per-row
loop it replaced, unchanged but for its names, with the `_value_bins` of
that loop, which counted every code of the table.  The sampled triples
must be equal arrays: the draws are the same `randrange(size)` calls in
the same order, so every witness, count and output byte follows.

The inputs cover value classes that are distinct values (product and
laminar ultrametrics) and geometric bins (fat Cantor line metrics, a float
table read from CSV), a table with a zero distance off the diagonal, two
and three points, several seeds, and blocks cut
down to 1, 2 and 3 rows, so that strata fill and pass 1 stops across the
edges of blocks.
"""

import math
import random
from fractions import Fraction as F

import numpy as np
import pytest

from cellspace import (
    Geometry,
    MetricTable,
    ProductSpec,
    fat_cantor,
    formats,
    product_space,
    quasisym,
    random_laminar,
    synthesize_regular_weight,
    ultrametric_from_weight,
    weight_from_sequence,
)
from cellspace.quasisym import _N_BINS, _SEEDED_EXTRAS, _STRATUM_CENTERS


def bincount_value_bins(floats: list, codes: np.ndarray) -> np.ndarray:
    blocks = np.array_split(codes, codes.size // 2**16 + 1)  # of rows: bincount casts to intp
    seen = sum(np.bincount(b.ravel(), minlength=len(floats)) for b in blocks)
    seen -= np.bincount(np.diagonal(codes), minlength=len(floats))
    used = np.flatnonzero(seen).tolist()
    vals = sorted({floats[c] for c in used})
    bins = [-1] * len(floats)
    if len(vals) <= 64:
        lookup = {v: k for k, v in enumerate(vals)}
        for c in used:
            bins[c] = lookup[floats[c]]
    else:
        lo = math.log(vals[0])
        hi = math.log(vals[-1])
        span = hi - lo or 1.0
        for c in used:
            k = int((math.log(floats[c]) - lo) / span * _N_BINS)
            bins[c] = min(max(k, 0), _N_BINS - 1)
    return np.array(bins, dtype=np.intp)


def row_sampled_triples(d, dt, seed: int) -> np.ndarray:
    n = d.n
    rng = random.Random(seed)
    d_values, dc = d.value_codes()
    t_values, tc = dt.value_codes()
    triples = [(0, 1, 1)]  # (1, 1) is realized whenever there are two points
    order = list(range(n))
    rng.shuffle(order)
    # float views: one float() per distinct value
    d_floats = np.array([float(v) for v in d_values])
    t_floats = np.array([float(v) for v in t_values])
    passes = ((dc, d_floats, tc, t_floats), (tc, t_floats, dc, d_floats))
    for which, (bin_codes, b_floats, other_codes, o_floats) in enumerate(passes):
        bins = bincount_value_bins(b_floats.tolist(), bin_codes)
        quota = np.zeros((int(bins.max()) + 1,) * 2, dtype=np.intp)
        classes = np.unique(bins[bins >= 0])
        every_stratum = (classes[:, None], classes)
        last = np.iinfo(np.intp).max
        for x in order:
            row_bins = bins[bin_codes[x]]
            row_bins[x] = last  # sorts last, then dropped
            perm = np.argsort(row_bins, kind="stable")[:-1]  # by class, then y
            sorted_bins = row_bins[perm]
            starts = np.flatnonzero(np.concatenate(([True], sorted_bins[1:] != sorted_bins[:-1])))
            sizes = (np.append(starts[1:], n - 1) - starts).tolist()
            # one seeded draw per class, classes in order of their lowest y
            seeded = [None] * len(starts)
            for g in np.argsort(perm[starts]).tolist():
                seeded[g] = [rng.randrange(sizes[g]) for _ in range(_SEEDED_EXTRAS)]
            ids = sorted_bins[starts]
            stratum = (ids[:, None], ids)
            todo = quota[stratum] < _STRATUM_CENTERS
            if not todo.any():
                continue
            quota[stratum] += todo
            b_row, o_row = b_floats[bin_codes[x]], o_floats[other_codes[x]]
            cands = []
            for start, size, draws in zip(starts.tolist(), sizes, seeded):
                ys = perm[start : start + size]  # increasing, so ties go to the lowest y
                b, o = b_row[ys], o_row[ys]
                # extremes in either metric, so rare extreme ratios are seen
                chosen = {b.argmin(), b.argmax(), o.argmin(), o.argmax(), *draws}
                cands.append(sorted(int(ys[k]) for k in chosen))
            for g1, g2 in zip(*np.nonzero(todo)):
                triples += [(x, y, z) for y in cands[g1] for z in cands[g2]]
            if which == len(passes) - 1 and (quota[every_stratum] >= _STRATUM_CENTERS).all():
                break  # every stratum is full: the draws left change nothing
    return np.array(triples, np.int32).T


# -- inputs ---------------------------------------------------------------------------


def geo_pair(sizes: tuple):
    tree = product_space(ProductSpec(sizes))
    depth = len(sizes)
    return tuple(
        ultrametric_from_weight(tree, weight_from_sequence(tree, [b**i for i in range(depth + 1)]))
        for b in (F(1, 2), F(1, 3))
    )


def fat_cantor_pair(depth: int):
    tree, emb = fat_cantor(depth)
    return Geometry.from_intervals(tree, emb).table, ultrametric_from_weight(
        tree, synthesize_regular_weight(tree, F(1, 2))
    )


def laminar_pair(seed: int, n: int):
    tree = random_laminar(seed, 4, 8, n)
    return tuple(ultrametric_from_weight(tree, synthesize_regular_weight(tree, b)) for b in (F(1, 2), F(2, 5)))


def float_csv_pair(n: int, seed: int):
    """Points of the plane at float distances, read as a float table from CSV,
    against a product ultrametric on the same labels."""
    rng = random.Random(seed)
    pts = [(rng.random(), rng.random()) for _ in range(n)]
    d_geo = geo_pair((n,))[0]
    labels = d_geo.labels
    rows = [",".join(["", *labels])] + [
        ",".join([a, *(repr(math.dist(p, q)) for q in pts)]) for a, p in zip(labels, pts)
    ]
    return formats.table_from_csv("\n".join(rows) + "\n", exact=False), d_geo


def zero_pair():
    """A pseudometric: two distinct points at distance 0, so the diagonal's
    code is also a class off the diagonal."""
    d, dt = geo_pair((2,) * 5)
    rows = [list(r) for r in d.rows]
    rows[0][1] = rows[1][0] = F(0)
    return MetricTable(d.labels, tuple(map(tuple, rows))), dt


CASES = {
    "product-geo": lambda: geo_pair((2,) * 7),
    "product-geo-3x4": lambda: geo_pair((3, 4, 4)),
    "fat-cantor-bins": lambda: fat_cantor_pair(6),
    "laminar": lambda: laminar_pair(7, 90),
    "float-csv": lambda: float_csv_pair(60, 3),
    "zero-distance": zero_pair,
    "two-points": lambda: geo_pair((2,)),
    "three-points": lambda: geo_pair((3,)),
}


def n_classes(table) -> int:
    values, codes = table.value_codes()
    bins = bincount_value_bins([float(v) for v in values], codes)
    return len(np.unique(bins[bins >= 0]))


def test_cases_cover_both_kinds_of_class():
    # over 64 distinct distances: geometric bins, some of them empty
    for d in (CASES["fat-cantor-bins"]()[0], CASES["float-csv"]()[0]):
        assert len(d.value_codes()[0]) > 65 and n_classes(d) < _N_BINS
    assert not CASES["float-csv"]()[0].exact
    assert n_classes(CASES["product-geo"]()[0]) == 7


@pytest.mark.parametrize("rows", [None, 1, 2, 3])
@pytest.mark.parametrize("seed", [0, 1, 5])
@pytest.mark.parametrize("case", list(CASES))
def test_block_sampler_matches_row_sampler(case, seed, rows, monkeypatch):
    d, dt = CASES[case]()
    if rows is not None:
        monkeypatch.setattr(quasisym, "_BLOCK", rows * d.n)
    want = row_sampled_triples(d, dt, seed)
    got, counts = quasisym._sampled_triples(d, dt, seed)
    assert counts is None and got.dtype == want.dtype and np.array_equal(got, want)
    # and the swapped pair, whose passes run in the other order
    assert np.array_equal(quasisym._sampled_triples(dt, d, seed)[0], row_sampled_triples(dt, d, seed))


def test_block_sampler_matches_row_sampler_at_bench_size():
    d, dt = geo_pair((2,) * 10)
    assert np.array_equal(quasisym._sampled_triples(d, dt, 0)[0], row_sampled_triples(d, dt, 0))


def test_pass_one_stops_inside_a_later_block(monkeypatch):
    # the swapped fat Cantor pair at seed 1 fills pass 1 after 15 of its 64
    # rows: past the first block at every block size above, 8 rows included
    d, dt = CASES["fat-cantor-bins"]()
    sizes = []

    class Counting(random.Random):
        def randrange(self, size):
            sizes.append(size)
            return super().randrange(size)

    monkeypatch.setattr(quasisym.random, "Random", Counting)
    monkeypatch.setattr(quasisym, "_BLOCK", d.n)  # one row per block: no draw past the stop
    quasisym._sampled_triples(dt, d, 1)
    # a row's classes hold its n - 1 other points, so the sizes drawn count the rows
    rows = sum(sizes) // ((d.n - 1) * _SEEDED_EXTRAS)
    assert rows - d.n == 15


# -- value classes ----------------------------------------------------------------------


def symmetric_codes(rng: np.random.Generator, n: int, n_codes: int, dtype) -> np.ndarray:
    """A symmetric n x n code matrix holding every code in 0..n_codes - 1 off
    its diagonal, and 0 on it."""
    codes = rng.integers(0, n_codes, (n, n))
    codes = np.triu(codes, 1)
    codes = codes + codes.T
    iu = np.triu_indices(n, 1)
    spread = rng.permutation(len(iu[0]))[:n_codes]
    codes[iu[0][spread], iu[1][spread]] = codes[iu[1][spread], iu[0][spread]] = np.arange(n_codes)
    np.fill_diagonal(codes, 0)
    return codes.astype(dtype)


@pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.intp])
@pytest.mark.parametrize("n_codes", [5, 40, 200])
@pytest.mark.parametrize("diag_off", [True, False], ids=["diag-code-off-diagonal", "diag-code-only-on-diagonal"])
def test_value_bins_match_full_bincount(diag_off, n_codes, dtype):
    rng = np.random.default_rng(n_codes)
    n = 90
    floats = sorted(rng.uniform(0.5, 1e6, n_codes).tolist())
    codes = symmetric_codes(rng, n, n_codes, dtype)
    if not diag_off:
        codes[(codes == 0) & ~np.eye(n, dtype=bool)] = 1
        floats[0] = 0.0  # a distance 0, found only on the diagonal
    got = quasisym._value_bins(floats, codes)
    assert np.array_equal(got, bincount_value_bins(floats, codes))
    assert (got[0] == -1) == (not diag_off)


def test_value_bins_with_several_codes_on_the_diagonal():
    # a table whose diagonal is not all one code: two of its diagonal codes
    # are also off the diagonal, one is not
    rng = np.random.default_rng(9)
    codes = symmetric_codes(rng, 30, 12, np.uint8)
    codes[codes == 11] = 10
    np.fill_diagonal(codes, [0, 1, 11] * 10)
    floats = [float(k + 1) for k in range(12)]
    got = quasisym._value_bins(floats, codes)
    assert np.array_equal(got, bincount_value_bins(floats, codes))
    assert got[11] == -1 and got[0] >= 0 and got[1] >= 0
