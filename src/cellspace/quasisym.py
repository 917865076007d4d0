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
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import groupby
from numbers import Rational
from operator import itemgetter

import numpy as np

from .errors import GridTooCoarse, PointSetMismatch
from .metrics import MetricTable

FULL_ENUMERATION_CAP = 512
_N_BINS = 24
_STRATUM_CENTERS = 2
_SEEDED_EXTRAS = 1


@dataclass
class DistortionProfile:
    """Ratio pairs with multiplicities and one representative triple each.

    A profile is immutable once built.  Its pairs in increasing (r, s) order
    and its upper envelope are computed exactly on first use and cached, so
    the CSV writer, `envelope_eval` and `qs_verdict` share one sort and one
    envelope walk per profile.  A changed profile is a new profile (`swap`).
    """

    labels: tuple[str, ...]
    pairs: dict  # (r, s) -> [count, (x, y, z) labels]
    sampled: bool
    n_triples: int

    @cached_property
    def ordered(self) -> tuple:
        """The items ((r, s), [count, witness]) of `pairs` in increasing exact
        (r, s) order; computed once, read-only."""
        return _exact_order(self.pairs)

    @cached_property
    def envelope(self) -> "_Envelope":
        """H(t) = max{s : r <= t} with its witnesses, built once from `ordered`."""
        return _Envelope(self.ordered)

    def distinct(self):
        """The distinct (r, s) pairs in increasing exact order (from `ordered`)."""
        return [pair for pair, _ in self.ordered]

    def witness(self, r, s):
        return self.pairs[(r, s)][1]

    def swap(self) -> "DistortionProfile":
        swapped = {
            (s, r): [c, (w[0], w[1], w[2])] for (r, s), (c, w) in self.pairs.items()
        }
        return DistortionProfile(self.labels, swapped, self.sampled, self.n_triples)


def _float_key(v) -> float:
    """The correctly rounded float of a ratio.  `int / int` true division
    rounds correctly, so v < w implies _float_key(v) <= _float_key(w); a
    ratio beyond the float range maps to +-inf."""
    if isinstance(v, float):
        return v
    try:
        return v.numerator / v.denominator
    except OverflowError:
        return math.inf if v > 0 else -math.inf


def _exact_order(pairs: dict) -> tuple:
    """Items of `pairs` in increasing exact (r, s) order.

    The items are sorted on the float keys (float(r), float(s)), which never
    put two pairs with different float(r) in the wrong order; each run of
    equal float(r), where r or s may tie in floats but differ exactly, is then
    sorted exactly.
    """
    items = list(pairs.items())
    keys = [(_float_key(r), _float_key(s)) for r, s in pairs]
    order = sorted(range(len(items)), key=keys.__getitem__)
    out = []
    for _, run in groupby(order, key=lambda i: keys[i][0]):
        run = [items[i] for i in run]
        out += sorted(run, key=itemgetter(0)) if len(run) > 1 else run
    return tuple(out)


def distortion_profile(
    d: MetricTable, dt: MetricTable, cap: int = FULL_ENUMERATION_CAP, seed: int = 0
) -> DistortionProfile:
    """Exact profile up to `cap` points; stratified sampling beyond.

    Both paths emit triples (x, y, z) with counts, and one reduction over
    those arrays counts them: on each table's value codes
    (`MetricTable.value_codes`), each distinct pair of codes (d(x, y),
    d(x, z)) is divided once, equal ratios share a code, and the triples
    are counted under their pairs of ratio codes.  A pair's witness is its
    first triple, and pairs appear in the order of their witnesses.  The
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
    xyz, counts = _sampled_triples(d, dt, seed) if sampled else _exact_triples(d, dt)
    return _count_triples(d, dt, xyz, counts, sampled)


def _ratio_codes(table: MetricTable, a: np.ndarray, b: np.ndarray) -> tuple[list, np.ndarray]:
    """The distinct ratios v[a] / v[b] of the table's values v over the
    value-code arrays a and b, and the index of each entry's ratio in them.

    Each distinct pair of codes is divided once, in the table's values, so
    a zero v[b] raises.  Equal ratios are equal floats on float tables, and
    equal reduced pairs of kernel keys on exact ones.
    """
    values, _ = table.value_codes()
    keys, _ = table.kernel_codes()
    pairs, inverse = np.unique(a * len(values) + b, return_inverse=True)
    a, b = np.divmod(pairs, len(values))
    ratios = [values[i] / values[j] for i, j in zip(a.tolist(), b.tolist())]
    if table.exact:
        g = np.gcd(keys[a], keys[b]) * np.sign(keys[b])
        _, num = np.unique(keys[a] // g, return_inverse=True)
        dens, den = np.unique(keys[b] // g, return_inverse=True)
        key = num * len(dens) + den
    else:
        key = np.array(ratios)
    _, first, code = np.unique(key, return_index=True, return_inverse=True, equal_nan=False)
    return [ratios[i] for i in first.tolist()], code[inverse]


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
        r * len(s_vals) + s, return_index=True, return_inverse=True
    )
    # float64 sums are exact: a profile counts at most n^3 < 2^53 triples
    totals = np.bincount(inverse, counts).astype(np.int64)
    order = np.argsort(first)
    r, s = np.divmod(keys[order], len(s_vals))
    lab = tuple(d.labels)
    pairs = {
        (r_vals[a], s_vals[b]): [count, (lab[i], lab[j], lab[k])]
        for a, b, count, i, j, k in zip(
            r.tolist(), s.tolist(), totals[order].tolist(), *xyz[:, first[order]].tolist()
        )
    }
    n_triples = len(x) if counts is None else int(counts.sum())
    return DistortionProfile(lab, pairs, sampled, n_triples)


def _exact_triples(d: MetricTable, dt: MetricTable) -> tuple[np.ndarray, np.ndarray]:
    _, dc = d.kernel_codes()
    t_keys, tc = dt.kernel_codes()
    blocks, counts = [np.empty((3, 0), np.int32)], [np.empty(0, np.intp)]
    for x in range(d.n):
        key = dc[x] * len(t_keys) + tc[x]
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
    floats when there are few, geometric binning otherwise.  Values found
    only on the diagonal get class -1."""
    seen = np.bincount(codes.ravel(), minlength=len(floats))
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


def _sampled_triples(d: MetricTable, dt: MetricTable, seed: int) -> tuple[np.ndarray, None]:
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
        bins = _value_bins(b_floats.tolist(), bin_codes)
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
    return np.array(triples, np.int32).T, None


class _Envelope:
    """Step function H(t) = max{s : r <= t} with witnesses at each step, built
    in one walk over a profile's items in increasing (r, s) order."""

    def __init__(self, ordered: tuple):
        self.r_steps = []
        self.h_vals = []
        self.h_wits = []
        best = None
        best_w = None
        for (r, s), (_, w) in ordered:
            if best is None or s > best:
                best = s
                best_w = w
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
