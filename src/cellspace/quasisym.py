"""Quasisymmetric distortion profiles between two metrics on one point set.

Over ordered triples (x, y, z) with x != z and y != x, the profile collects
the ratio pairs r = d(x, y)/d(x, z) and s = dt(x, y)/dt(x, z).  The upper
envelope H(t) = max{s : r <= t} is an empirical modulus for the identity
map: the two metrics are quasisymmetrically equivalent on the truncations
exactly when H stays stable as the truncation deepens and decays to zero at
small t.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from collections.abc import Mapping
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from numbers import Rational

import numpy as np

from .errors import GridTooCoarse, PointSetMismatch
from .metrics import MetricTable

FULL_ENUMERATION_CAP = 512
_N_BINS = 24
_STRATUM_CENTERS = 2
_SEEDED_EXTRAS = 1
_BLOCK = 2**17  # entries per block of sampled rows (one byte each, and as many in each class mask)


@dataclass(eq=False)
class _Values:
    """Distinct ratios, each built once, when first read: the reduced integer
    pairs num / den (den > 0) of an exact table, or, with `den` None, the
    values in the list `num` (a float table's quotients, or a dict profile's
    keys)."""

    num: list | np.ndarray
    den: np.ndarray | None = None
    built: dict = field(default_factory=dict)  # the Fractions read so far, by index

    def __getitem__(self, i):
        if self.den is None:
            return self.num[i]
        if i not in self.built:
            self.built[i] = Fraction(int(self.num[i]), int(self.den[i]))
        return self.built[i]

    def texts(self, text) -> list[str]:
        """`text(v)` of each listed value v; from integer pairs, n/d (n when
        d = 1), the text of the Fraction, without building it."""
        if self.den is None:
            return list(map(text, self.num))
        pairs = zip(self.num.tolist(), self.den.tolist())
        return [f"{a}/{b}" if b != 1 else str(a) for a, b in pairs]

    def ranks(self) -> np.ndarray:
        """Each value's exact rank, equal values sharing one: the values are
        sorted on correctly rounded float keys (numpy num / den below 2^53,
        Python int / int beyond), which never misorder two values, and each
        run of equal keys is re-sorted exactly on values built for it."""
        if self.den is None:
            keys = np.array(list(map(_float_key, self.num)), float)
        else:
            keys = _floats(self.num, self.den)
        order = np.argsort(keys, kind="stable")
        _, starts, sizes = np.unique(keys[order], return_index=True, return_counts=True)
        new = np.zeros(len(keys), bool)  # the value differs from the one before
        new[starts] = True
        for i, k in zip(starts[sizes > 1].tolist(), sizes[sizes > 1].tolist()):
            run = sorted((self[j], j) for j in order[i : i + k].tolist())
            order[i : i + k] = [j for _, j in run]
            new[i + 1 : i + k] = [u != v for (u, _), (v, _) in zip(run, run[1:])]
        ranks = np.empty(len(keys), np.intp)
        ranks[order] = np.cumsum(new) - 1
        return ranks


def _floats(num: np.ndarray, den) -> np.ndarray:
    """Correctly rounded floats of num / den for an integer array num and den
    > 0 (an array or an int): numpy below 2^53, else Python int / int; num
    itself when den is None (a float table's keys)."""
    if den is None:
        return num
    if max(abs(num).max(initial=0), np.max(den, initial=0)) < 2**53:
        return num.astype(float) / np.asarray(den).astype(float)
    return np.array(list(map(_float_key, num.tolist(), np.broadcast_to(den, num.shape).tolist())), float)


def _float_key(a, b: int = 1) -> float:
    """The correctly rounded float of a / b for ints a and b (int true
    division rounds correctly), or of a float or Fraction a; +-inf beyond
    the float range.  v < w implies _float_key(v) <= _float_key(w)."""
    try:
        return a / b if isinstance(a, int) else float(a)
    except OverflowError:
        return math.inf if a > 0 else -math.inf


@dataclass(eq=False)
class _Pairs(Mapping):
    """A profile's ratio pairs as columns, in the order of their witnesses:
    codes `r` and `s` into the distinct values `r_vals` and `s_vals`,
    `counts`, and the witnesses (x, y, z) as rows `wits` of indices into
    `names`.  Read as the Mapping (r, s) -> [count, witness], it builds its
    keys on the first iteration or lookup; `len` reads the arrays."""

    r_vals: _Values
    s_vals: _Values
    r: np.ndarray
    s: np.ndarray
    counts: np.ndarray
    wits: np.ndarray
    names: tuple

    def witness(self, i) -> tuple:
        return tuple(self.names[k] for k in self.wits[i].tolist())

    def item(self, i) -> tuple:
        pair = self.r_vals[self.r[i]], self.s_vals[self.s[i]]
        return pair, [int(self.counts[i]), self.witness(i)]

    def __len__(self):
        return len(self.counts)

    def __iter__(self):
        return iter(self._dict)

    def __getitem__(self, pair):
        return self._dict[pair]

    @cached_property
    def _dict(self) -> dict:
        return dict(map(self.item, range(len(self))))


@dataclass
class DistortionProfile:
    """Ratio pairs with multiplicities and one representative triple each.

    The pairs stay integer columns (`_Pairs`) up to the output; `pairs`
    reads them as a Mapping (r, s) -> [count, (x, y, z) labels] whose
    Fraction (or float) keys are built only when read, and a profile built
    from a dict enters the same columns, one value per pair.  A profile is
    immutable once built.  Its exact order and upper envelope are computed
    on first use and cached, so the CSV writer, `envelope_eval` and
    `qs_verdict` share one sort and one envelope per profile.  A changed
    profile is a new profile (`swap`).
    """

    labels: tuple[str, ...]
    pairs: Mapping  # (r, s) -> [count, (x, y, z) labels]
    sampled: bool
    n_triples: int

    def __post_init__(self):
        if not isinstance(self.pairs, _Pairs):  # a dict: one value and witness row per pair
            codes, entries = np.arange(len(self.pairs)), self.pairs.values()
            r_vals, s_vals = (_Values([pair[k] for pair in self.pairs]) for k in (0, 1))
            counts = np.array([c for c, _ in entries], np.int64)
            names = tuple(p for _, w in entries for p in w)
            wits = codes[:, None] * 3 + np.arange(3)  # witness i is names[3i : 3i + 3]
            self.pairs = _Pairs(r_vals, s_vals, codes, codes, counts, wits, names)

    @cached_property
    def ranked(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The positions of the pairs in increasing exact (r, s) order, and
        each pair's exact r-rank and s-rank; computed once, read-only."""
        return _exact_order(self.pairs)

    @cached_property
    def ordered(self) -> tuple:
        """The items ((r, s), [count, witness]) of `pairs` in increasing exact
        (r, s) order, built from `ranked`."""
        return tuple(map(self.pairs.item, self.ranked[0].tolist()))

    @cached_property
    def envelope(self) -> "_Envelope":
        """H(t) = max{s : r <= t} with its witnesses, built once from `ranked`."""
        return _Envelope(self.pairs, *self.ranked)

    def text_rows(self, text) -> zip:
        """The rows (r, s, count) in increasing exact (r, s) order, each
        distinct value as text once (`_Values.texts`)."""
        p, order = self.pairs, self.ranked[0]
        r, s = p.r_vals.texts(text), p.s_vals.texts(text)
        return zip(
            map(r.__getitem__, p.r[order].tolist()),
            map(s.__getitem__, p.s[order].tolist()),
            p.counts[order].tolist(),
        )

    def distinct(self):
        """The distinct (r, s) pairs in increasing exact order (from `ordered`)."""
        return [pair for pair, _ in self.ordered]

    def witness(self, r, s):
        return self.pairs[(r, s)][1]

    def swap(self) -> "DistortionProfile":
        p = self.pairs
        swapped = _Pairs(p.s_vals, p.r_vals, p.s, p.r, p.counts, p.wits, p.names)
        return DistortionProfile(self.labels, swapped, self.sampled, self.n_triples)


def _exact_order(pairs: _Pairs) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The pairs' positions in increasing exact (r, s) order, and each
    pair's exact r-rank and s-rank: one `lexsort` on the ranks of the
    distinct values."""
    r, s = pairs.r_vals.ranks()[pairs.r], pairs.s_vals.ranks()[pairs.s]
    return np.lexsort((s, r)), r, s


def distortion_profile(
    d: MetricTable, dt: MetricTable, cap: int = FULL_ENUMERATION_CAP, seed: int = 0
) -> DistortionProfile:
    """Exact profile up to `cap` points; stratified sampling beyond.

    Both paths emit triples (x, y, z) with counts, and one reduction over
    those arrays counts them: on each table's kernel codes
    (`MetricTable.kernel_codes`), each distinct pair of codes (d(x, y),
    d(x, z)) is reduced once (`_ratio_codes`), equal ratios share a code,
    and the triples are counted under their pairs of ratio codes.  A pair's
    witness is its first triple, and pairs appear in witness order.  The
    exact path groups, for each x, the other points by their pair of codes
    and emits one triple per pair of groups, counted n_y * n_z times, so it
    costs sum over x of k_x^2, where k_x is the number of groups, rather
    than n^3; its witnesses are the lexicographically smallest triples.

    Sampling stratifies triples by value classes of both metrics (distinct
    values when few, geometric bins otherwise) and keeps extreme and seeded
    candidates per class, so rare extreme ratio pairs are still observed.
    The pair (1, 1) from y = z is always present.
    """
    if tuple(d.labels) != tuple(dt.labels):
        raise PointSetMismatch("profiles need identical point sets")
    sampled = d.n > cap
    # below two points there is no triple to sample
    xyz, counts = _sampled_triples(d, dt, seed) if sampled and d.n > 1 else _exact_triples(d, dt)
    return _count_triples(d, dt, xyz, counts, sampled)


def _ratio_codes(table: MetricTable, a: np.ndarray, b: np.ndarray) -> tuple[_Values, np.ndarray]:
    """The distinct ratios k[a] / k[b] of the table's kernel keys k over the
    code arrays a and b, and the index of each entry's ratio among them.

    Each distinct pair of codes is reduced once: on exact tables (where the
    common denominator cancels) to the integer pair (num, den) with den > 0,
    on float tables to its float quotient.  A zero k[b] raises.
    """
    keys, _ = table.kernel_codes()
    pairs, inverse = np.unique(a.astype(np.intp) * len(keys) + b, return_inverse=True)
    a, b = np.divmod(pairs, len(keys))
    if (keys[b] == 0).any():
        raise ZeroDivisionError("distance ratio with a zero distance d(x, z), x != z")
    if table.exact:
        g = np.gcd(keys[a], keys[b]) * np.sign(keys[b])
        num, den = keys[a] // g, keys[b] // g
        _, num_code = np.unique(num, return_inverse=True)
        dens, den_code = np.unique(den, return_inverse=True)
        key = num_code * len(dens) + den_code
    else:
        key = keys[a] / keys[b]
    _, first, code = np.unique(key, return_index=True, return_inverse=True, equal_nan=False)
    ratios = _Values(num[first], den[first]) if table.exact else _Values(key[first].tolist())
    return ratios, code[inverse]


def _count_triples(
    d: MetricTable, dt: MetricTable, xyz: np.ndarray, counts: np.ndarray | None, sampled: bool
) -> DistortionProfile:
    """The profile of the triples, the columns (x, y, z) of `xyz`, each
    counted `counts` times (once when None): a pair's count is the sum over
    its triples, and its witness the first of them."""
    x, y, z = xyz
    n = d.n  # the codes are n x n, even on an empty table
    dc, tc = d.kernel_codes()[1].reshape(n, n), dt.kernel_codes()[1].reshape(n, n)
    r_vals, r = _ratio_codes(d, dc[x, y], dc[x, z])
    s_vals, s = _ratio_codes(dt, tc[x, y], tc[x, z])
    keys, first, inverse = np.unique(
        r * len(s_vals.num) + s, return_index=True, return_inverse=True
    )
    # float64 sums are exact: a profile counts at most n^3 < 2^53 triples
    totals = np.bincount(inverse, counts).astype(np.int64)
    order = np.argsort(first)
    r, s = np.divmod(keys[order], len(s_vals.num))
    lab = tuple(d.labels)
    pairs = _Pairs(r_vals, s_vals, r, s, totals[order], xyz[:, first[order]].T, lab)
    n_triples = len(x) if counts is None else int(counts.sum())
    return DistortionProfile(lab, pairs, sampled, n_triples)


def _exact_triples(d: MetricTable, dt: MetricTable) -> tuple[np.ndarray, np.ndarray]:
    _, dc = d.kernel_codes()
    t_keys, tc = dt.kernel_codes()
    blocks, counts = [np.empty((3, 0), np.int32)], [np.empty(0, np.intp)]
    for x in range(d.n):
        key = dc[x].astype(np.intp) * len(t_keys) + tc[x]
        key[x] = -1  # y = x is no triple; its group sorts first
        _, first, size = np.unique(key, return_index=True, return_counts=True)
        order = np.argsort(first[1:]) + 1
        # groups run in order of their lowest point, so each pair is first
        # met at its lexicographically smallest (y, z)
        ys, k = first[order], len(order)
        blocks.append(np.array([np.full(k * k, x), np.repeat(ys, k), np.tile(ys, k)], np.int32))
        counts.append(np.outer(size[order], size[order]).ravel())
    return np.concatenate(blocks, 1), np.concatenate(counts)


def _value_bins(floats: list, codes: np.ndarray) -> np.ndarray:
    """Class id of each value code: identity on the distinct off-diagonal
    floats when there are few, geometric binning otherwise, where a zero
    value has a class of its own, _N_BINS, after the bins.  Values found
    only on the diagonal get class -1; as every code is an entry of the
    table, only the diagonal's codes are counted (one at a time: a metric's
    diagonal is one code), in blocks of rows."""
    diag, on_diag = np.unique(np.diagonal(codes), return_counts=True)
    blocks = np.array_split(codes, codes.size // 2**16 + 1)
    only = [k for k, m in zip(diag.tolist(), on_diag.tolist()) if sum(np.count_nonzero(b == k) for b in blocks) == m]
    used = np.setdiff1d(np.arange(len(floats)), only).tolist()
    vals = sorted({floats[c] for c in used})
    bins = [-1] * len(floats)
    if len(vals) <= 64:
        lookup = {v: k for k, v in enumerate(vals)}
        for c in used:
            bins[c] = lookup[floats[c]]
    else:
        lo = math.log(vals[1] if vals[0] == 0 else vals[0])
        hi = math.log(vals[-1])
        span = hi - lo or 1.0
        for c in used:
            if floats[c] == 0:
                bins[c] = _N_BINS
                continue
            k = int((math.log(floats[c]) - lo) / span * _N_BINS)
            bins[c] = min(max(k, 0), _N_BINS - 1)
    return np.array(bins, dtype=np.int8)  # at most 64 classes


def _sampled_triples(d: MetricTable, dt: MetricTable, seed: int) -> tuple[np.ndarray, None]:
    """Triples sampled by stratum (a pair of classes, `_value_bins`) in two
    passes over the points in a seeded order, classing the y of a row x by
    d(x, y), then by dt(x, y).  The draws fix the output bytes: they are
    _SEEDED_EXTRAS `randrange(class size)` per class, rows in the seeded
    order, a row's classes by lowest y.  Pass 0 draws in every row; pass 1
    stops after the row that fills its last stratum.  Rows go in blocks of
    at most _BLOCK entries (pass 1 from 8 rows, doubling), and only a row
    with a stratum left to take is read alone."""
    n = d.n
    rng = random.Random(seed)
    d_keys, dc = d.kernel_codes()
    t_keys, tc = dt.kernel_codes()
    triples = [(0, 1, 1)]  # (1, 1) is realized whenever there are two points
    order = list(range(n))
    rng.shuffle(order)
    # float views of the values: correctly rounded, as float() of each value's Fraction
    d_floats, t_floats = _floats(d_keys, d.den), _floats(t_keys, dt.den)
    passes = ((dc, d_floats, tc, t_floats), (tc, t_floats, dc, d_floats))
    most = max(_BLOCK // n, 1)  # rows in a block
    for which, (bin_codes, b_floats, other_codes, o_floats) in enumerate(passes):
        bins = _value_bins(b_floats.tolist(), bin_codes)
        quota = np.zeros((int(bins.max()) + 1,) * 2, dtype=np.intp)
        classes = np.unique(bins[bins >= 0])
        every_stratum = np.ix_(classes, classes)
        start, rows, full = 0, most if which == 0 else min(8, most), False
        while start < n and not full:
            xs = order[start : start + rows]
            start, rows = start + rows, min(2 * rows, most)
            block = bins[bin_codes[xs]]  # not np.take, which casts the whole block to intp
            block[range(len(xs)), xs] = -1  # y = x is in no class
            sizes, lowest = np.empty((2, len(xs), len(classes)), np.intp)
            for j, c in enumerate(classes.tolist()):
                m = block == c
                sizes[:, j], lowest[:, j] = m.sum(axis=1, dtype=np.min_scalar_type(n)), m.argmax(axis=1)
            lowest[sizes == 0] = n  # absent classes sort last
            by_y = np.argsort(lowest, axis=1, kind="stable")  # each row's classes in draw order
            drawn = np.take_along_axis(sizes, by_y, 1)
            draws = [rng.randrange(k) for k in drawn[drawn > 0].tolist() for _ in range(_SEEDED_EXTRAS)]
            has = sizes > 0
            ends = (np.cumsum(has.sum(axis=1)) * _SEEDED_EXTRAS).tolist()  # of each row's draws
            i = 0
            while not full:
                # the next row with a pair of classes whose stratum is still open
                hit = ((has[i:] @ (quota[every_stratum] < _STRATUM_CENTERS)) & has[i:]).any(axis=1)
                if not hit.any():
                    break
                i += int(hit.argmax())
                x, cols = xs[i], np.flatnonzero(has[i])
                ids = classes[cols]
                stratum = (ids[:, None], ids)
                todo = quota[stratum] < _STRATUM_CENTERS
                quota[stratum] += todo
                mine = iter(draws[ends[i] - len(cols) * _SEEDED_EXTRAS : ends[i]])
                seeded = dict(zip(by_y[i].tolist(), zip(*[mine] * _SEEDED_EXTRAS)))
                b_row, o_row = b_floats[bin_codes[x]], o_floats[other_codes[x]]
                cands = []
                for j, c in zip(cols.tolist(), ids.tolist()):
                    ys = np.flatnonzero(block[i] == c)  # increasing, so ties go to the lowest y
                    b, o = b_row[ys], o_row[ys]
                    # extremes in either metric, so rare extreme ratios are seen
                    chosen = {b.argmin(), b.argmax(), o.argmin(), o.argmax(), *seeded[j]}
                    cands.append(sorted(int(ys[k]) for k in chosen))
                for g1, g2 in zip(*np.nonzero(todo)):
                    triples += [(x, y, z) for y in cands[g1] for z in cands[g2]]
                # pass 1 ends once every stratum is full: the draws left change nothing
                full = which == len(passes) - 1 and (quota[every_stratum] >= _STRATUM_CENTERS).all()
                i += 1
    return np.array(triples, np.int32).T, None


class _Envelope:
    """Step function H(t) = max{s : r <= t}: one step per run of equal r in
    a profile's exact order, at the run's r, holding the running maximum of
    s at the run's end, witnessed by the first pair that reaches it.  The
    steps are codes and pair positions; values are built when read."""

    def __init__(self, pairs: _Pairs, order: np.ndarray, r: np.ndarray, s: np.ndarray):
        r, best = r[order], np.maximum.accumulate(s[order])
        starts = np.flatnonzero(np.diff(r, prepend=-1))  # each run's first position
        top = np.searchsorted(best, best[np.searchsorted(r, r[starts], side="right") - 1])
        self.pairs, self.tops = pairs, order[top]
        self.r_codes = pairs.r[order[starts]].tolist()
        self.s_codes = pairs.s[self.tops].tolist()

    r_steps = property(lambda self: [self.pairs.r_vals[c] for c in self.r_codes])
    h_vals = property(lambda self: [self.pairs.s_vals[c] for c in self.s_codes])
    h_wits = property(lambda self: [self.pairs.witness(i) for i in self.tops])

    def at(self, t):
        k = bisect_right(self.r_codes, t, key=self.pairs.r_vals.__getitem__)
        return None if k == 0 else self.pairs.s_vals[self.s_codes[k - 1]]

    def witness_at(self, t):
        k = bisect_right(self.r_codes, t, key=self.pairs.r_vals.__getitem__)
        return None if k == 0 else self.pairs.witness(self.tops[k - 1])


def envelope_eval(profile: DistortionProfile, grid) -> list:
    """(t, H(t)) on the grid; H is None below the smallest realized ratio.

    H is read from the profile's cached envelope, computed exactly once per
    profile and shared with `qs_verdict`."""
    env = profile.envelope
    return [(t, env.at(t)) for t in grid]


@dataclass
class QsVerdict:
    passed: bool
    reason: str
    depths: tuple
    eta: tuple  # final-depth (t, H) envelope on the grid
    offending_t: object = None
    witness: tuple | None = None  # representative triple behind the failure

    def __bool__(self):
        return self.passed


def check_grid(grid) -> list:
    """The grid sorted without repeats, if `qs_verdict` can read it: every
    value positive and at least three below 1."""
    grid = sorted(set(grid))
    if any(t <= 0 for t in grid):
        raise ValueError("grid values must be positive")
    if sum(1 for t in grid if t < 1) < 3:
        raise GridTooCoarse("grid needs at least three points below 1")
    return grid


def qs_verdict(profiles_by_depth: dict, grid, tol: float = 1e-9) -> QsVerdict:
    """Cross-depth stability plus decay of the envelope at small scales.

    PASS requires, for the two largest depths: |H_a(t) - H_b(t)| <= tol at
    every grid point where both envelopes are defined (compared exactly,
    against the float tol's exact value, when both envelope values are
    exact; in floats otherwise), and strictly
    decreasing H at the three smallest defined grid points below 1 of the
    deepest envelope.  FAIL reports the offending grid point and a
    representative triple.  Quasisymmetry of the infinite spaces is
    undecidable from one truncation; this verdict is the desk-scale
    falsifiable surrogate.

    The grid should be spaced no finer than the ratio scale of the metrics
    (dyadic grids suit weight ratios in [1/3, 1/2]); a grid much finer than
    the realized ratio steps can read one envelope step as a plateau.

    The envelopes are the profiles' cached ones (exact, computed once per
    profile), so a profile already written out or evaluated is not sorted
    again.
    """
    if len(profiles_by_depth) < 2:
        raise ValueError("need profiles at two or more depths")
    grid = check_grid(grid)
    depth_a, depth_b = sorted(profiles_by_depth)[-2:]
    env_a = profiles_by_depth[depth_a].envelope
    env_b = profiles_by_depth[depth_b].envelope
    eta = tuple((t, env_b.at(t)) for t in grid)
    exact_tol = Fraction(tol) if math.isfinite(tol) else None
    for t in grid:
        ha, hb = env_a.at(t), env_b.at(t)
        if ha is None or hb is None:
            continue
        if exact_tol is not None and isinstance(ha, Rational) and isinstance(hb, Rational):
            differs = abs(ha - hb) > exact_tol
        else:
            differs = abs(float(ha - hb)) > tol
        if differs:
            return QsVerdict(
                False,
                f"envelope differs by {float(abs(ha - hb)):.3g} across depths "
                f"{depth_a} and {depth_b}",
                (depth_a, depth_b),
                eta,
                offending_t=t,
                witness=env_b.witness_at(t),
            )
    small = [(t, h) for t, h in eta if t < 1 and h is not None]
    if len(small) < 3:
        return QsVerdict(
            False,
            "envelope undefined at small scales; deepen the grid or depths",
            (depth_a, depth_b),
            eta,
            offending_t=small[0][0] if small else None,
        )
    (t1, h1), (t2, h2), (t3, h3) = small[:3]
    if not (h1 < h2 < h3):
        flat_t = t2 if not h1 < h2 else t3
        return QsVerdict(
            False,
            f"envelope stays near {float(h1):.3g} at small scales instead of "
            "decaying to 0",
            (depth_a, depth_b),
            eta,
            offending_t=flat_t,
            witness=env_b.witness_at(t1),
        )
    return QsVerdict(True, "stable and decaying", (depth_a, depth_b), eta)
