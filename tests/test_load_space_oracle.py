"""`load_space` on tree-form documents against the set-keyed reference.

`load_space` pairs each vertex of the parsed tree with its cell, so weights
and leaf payloads are keyed by cell id.  `ref_load_space` is the walk it
replaced: it rebuilds the point-index set below every vertex and keys the
annotations by set.  Both must give equal `LoadedSpace` fields, or raise the
same exception with the same message, on documents with unary chains that
carry agreeing, conflicting or missing weights, and leaves under unary chains
that carry measures and intervals, some of them malformed.
"""

import random
from collections import Counter
from fractions import Fraction

import pytest

from cellspace import MeasureAtoms, WeightFn, cells_of
from cellspace.errors import FormatError
from cellspace.formats import LoadedSpace, _parse_node, load_space, parse_frac
from cellspace.spaces import IntervalEmbedding


def ref_load_space(obj: dict) -> LoadedSpace:
    rooted = _parse_node(obj["root"])
    tree = cells_of(rooted)
    idx = {p: i for i, p in enumerate(tree.points)}
    weight_by_set: dict = {}
    leaf_payload: dict = {}
    below: dict = {}  # id(node) -> point indices below it
    order, stack = [], [rooted]
    while stack:  # node, then children right to left: reversed, a postorder
        node = stack.pop()
        order.append(node)
        stack.extend(node.children)
    for node in reversed(order):
        payload = node.payload
        if node.is_leaf():
            s = frozenset({idx[node.label]})
            leaf_payload[s] = payload
        else:
            s = frozenset().union(*(below.pop(id(k)) for k in node.children))
        below[id(node)] = s
        if "weight" in payload:
            w = parse_frac(payload["weight"])
            if weight_by_set.get(s, w) != w:
                raise FormatError(f"conflicting weights for collapsed cell {sorted(s)}")
            weight_by_set[s] = w
    weights = None
    if weight_by_set:
        values = []
        for c in tree.cells():
            if tree.is_leaf(c):
                values.append(Fraction(0))
            else:
                w = weight_by_set.get(tree.members[c])
                if w is None:
                    raise FormatError(f"internal cell {sorted(tree.members[c])} lacks a weight")
                values.append(w)
        weights = WeightFn(tree, tuple(values))
    measures, intervals = {}, {}
    for s, payload in leaf_payload.items():
        i = next(iter(s))
        if "measure" in payload:
            measures[i] = parse_frac(payload["measure"])
        if "interval" in payload:
            quad = payload["interval"]
            if not (isinstance(quad, list) and len(quad) == 4 and all(type(q) is int for q in quad)):
                raise FormatError(f"interval must be [num, den, num, den] integers, got {quad!r}")
            if quad[1] == 0 or quad[3] == 0:
                raise FormatError(f"interval has a zero denominator: {quad!r}")
            intervals[i] = (Fraction(quad[0], quad[1]), Fraction(quad[2], quad[3]))
    measure = None
    if measures:
        if len(measures) != tree.n_points:
            raise FormatError("either all leaves carry a measure or none")
        measure = MeasureAtoms(tree.points, tuple(measures[i] for i in range(tree.n_points)))
    embedding = None
    if intervals:
        if len(intervals) != tree.n_points:
            raise FormatError("either all leaves carry an interval or none")
        thetas = tuple(parse_frac(t) for t in obj.get("thetas", []))
        embedding = IntervalEmbedding(tuple(intervals[i] for i in range(tree.n_points)), thetas)
    return LoadedSpace(tree, weights, measure, embedding, obj.get("generator"))


def _outcome(fn, obj):
    try:
        return fn(obj), None
    except Exception as e:  # both sides must fail alike, whatever the type
        return None, (type(e), str(e))


def _interval(rng: random.Random, k: int):
    roll = rng.random()
    if roll < 0.01:
        return [2 * k, 0, 2 * k + 1, 1]
    if roll < 0.02:
        return "x"
    return [2 * k, 1, 2 * k + 1, 1]


def random_document(rng: random.Random, n: int) -> dict:
    """A tree-form document on n leaves.  Weights halve with collapsed depth;
    unary chains above any vertex repeat the weight, omit it, or (rarely)
    conflict; a vertex may lack its weight; leaves carry measures and
    intervals, a few of them malformed or missing."""
    weighted = rng.choice(("none", "all", "all", "gaps"))
    measured, placed = rng.random() < 0.5, rng.random() < 0.5
    top: dict = {}
    stack = [(top, [f"q{i}" for i in rng.sample(range(10 * n), n)], 0)]
    k = 0  # leaves placed so far, in preorder
    while stack:
        obj, labs, d = stack.pop()
        w = f"1/{2 ** d}" if len(labs) > 1 else "7/5"
        for _ in range(rng.choice((0, 0, 1, 2))):
            if weighted != "none" and rng.random() < 0.5:
                obj["weight"] = w if rng.random() < 0.9 else "5/7"
            obj["children"] = [{}]
            obj = obj["children"][0]
        if len(labs) == 1:
            obj["point"] = labs[0]
            if measured and rng.random() < 0.98:
                obj["measure"] = rng.choice(("1/3", "2", "5/8")) if rng.random() < 0.995 else "1/0"
            if placed and rng.random() < 0.99:
                obj["interval"] = _interval(rng, k)
            if weighted != "none" and rng.random() < 0.03:
                obj["weight"] = "0"
            k += 1
            continue
        if weighted == "all" or (weighted == "gaps" and rng.random() < 0.9):
            obj["weight"] = w
        parts = rng.randint(2, min(4, len(labs)))
        cuts = [0, *sorted(rng.sample(range(1, len(labs)), parts - 1)), len(labs)]
        obj["children"] = [{} for _ in range(parts)]
        for child, a, b in reversed(list(zip(obj["children"], cuts, cuts[1:]))):
            stack.append((child, labs[a:b], d + 1))
    return {"format": "cellspace-v1", "root": top, "thetas": ["1/3"]}


def test_load_space_matches_set_keyed_reference():
    rng = random.Random(17)
    seen = Counter()
    for trial in range(2000):
        doc = random_document(rng, rng.choice((1, 2, rng.randint(3, 30))))
        got, err = _outcome(load_space, doc)
        want, ref_err = _outcome(ref_load_space, doc)
        assert err == ref_err, trial
        if err is None:
            assert got == want, trial
            seen["weights"] += got.weights is not None
            seen["measure"] += got.measure is not None
            seen["embedding"] += got.embedding is not None
        else:  # the first word names the check: conflicting, internal, ...
            seen[err[1].split(" ")[0]] += 1
    kinds = ("weights", "measure", "embedding", "conflicting", "internal", "either", "bad", "interval")
    assert all(seen[kind] >= 10 for kind in kinds), seen


def _leaf(label, **payload):
    return {"point": label, **payload}


def _both(doc):
    got, err = _outcome(load_space, doc)
    assert (got, err) == _outcome(ref_load_space, doc)
    return got, err


def test_weights_along_unary_chains():
    pair = {"children": [_leaf("a"), _leaf("b")], "weight": "1/2"}
    agreeing = {"root": {"children": [{"children": [pair], "weight": "1/2"}, _leaf("c")], "weight": "1"}}
    got, err = _both(agreeing)
    assert err is None and got.weights.values == (1, Fraction(1, 2), 0, 0, 0)
    conflicting = {"root": {"children": [{"children": [pair], "weight": "1/3"}, _leaf("c")], "weight": "1"}}
    assert _both(conflicting)[1] == (FormatError, "conflicting weights for collapsed cell [0, 1]")
    # a weighted unary vertex above a leaf names the leaf's cell: kept apart
    # from the leaf's weight 0, but checked against a weight on the leaf
    above_leaf = {"children": [_leaf("a"), {"children": [_leaf("b")], "weight": "3"}], "weight": "1"}
    got, err = _both({"root": above_leaf})
    assert err is None and got.weights.values == (1, 0, 0)
    clash = {"children": [_leaf("a"), {"children": [_leaf("b", weight="2")], "weight": "3"}], "weight": "1"}
    assert _both({"root": clash})[1] == (FormatError, "conflicting weights for collapsed cell [1]")


def test_missing_internal_weight():
    inner = {"children": [{"children": [_leaf("b"), _leaf("c")]}]}
    doc = {"root": {"children": [_leaf("a"), inner], "weight": "1"}}
    assert _both(doc)[1] == (FormatError, "internal cell [1, 2] lacks a weight")
    inner["weight"] = "1/2"  # the unary vertex above supplies it
    got, err = _both(doc)
    assert err is None and got.weights.values == (1, 0, Fraction(1, 2), 0, 0)


def test_leaf_payloads_under_unary_chains():
    def deep(label, k, levels):
        node = _leaf(label, measure=f"1/{k + 2}", interval=[2 * k, 1, 2 * k + 1, 1])
        for _ in range(levels):
            node = {"children": [node]}
        return node

    doc = {"root": {"children": [deep("z", 0, 2), {"children": [deep("y", 1, 0), deep("x", 2, 3)]}]}, "thetas": []}
    got, err = _both(doc)
    assert err is None and got.tree.points == ("z", "y", "x")
    assert got.measure.values == (Fraction(1, 2), Fraction(1, 3), Fraction(1, 4))
    assert got.embedding.intervals[2] == (4, 5)
    del doc["root"]["children"][1]["children"][1]["children"][0]["children"][0]["children"][0]["measure"]
    assert _both(doc)[1] == (FormatError, "either all leaves carry a measure or none")


@pytest.mark.parametrize("levels", [0, 1, 5])
def test_single_leaf_documents(levels):
    node = _leaf("only", measure="1", weight="0")
    for _ in range(levels):
        node = {"children": [node], "weight": "0"}
    got, err = _both({"root": node})
    assert err is None and got.tree.n_cells == 1 and got.weights.values == (0,)
