"""Serialization: cellspace-v1 JSON, CSV metric tables, profile CSVs.

The cellspace-v1 tree format nests node objects {"children": [...]} with
leaves {"point": "label"}.  Internal nodes may carry "weight": "p/q"; leaves
may carry "measure": "p/q" and "interval": [left_num, left_den, right_num,
right_den].  Files wrap the root node as {"format": "cellspace-v1",
"generator": {...}?, "root": {...}}; a bare node object is also accepted.
A family form {"format": ..., "points": [...], "cells": [[indices], ...]}
feeds the validator directly.  All emitters are byte-deterministic.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from typing import NoReturn

import numpy as np

from .analysis import MeasureAtoms
from .celltree import CellTree, RootedTree, cells_of, validate_family
from .errors import FormatError
from .metrics import MetricTable, WeightFn
from .spaces import IntervalEmbedding

FORMAT_NAME = "cellspace-v1"


def frac_str(v: Fraction) -> str:
    return str(v if type(v) is Fraction else Fraction(v))


def parse_frac(s) -> Fraction:
    try:
        return Fraction(str(s))
    except (ValueError, ZeroDivisionError) as e:
        raise FormatError(f"bad rational {s!r}: {e}") from None


@dataclass
class LoadedSpace:
    tree: CellTree
    weights: WeightFn | None
    measure: MeasureAtoms | None
    embedding: IntervalEmbedding | None
    generator: dict | None


def space_to_obj(
    tree: CellTree,
    weights: WeightFn | None = None,
    measure: MeasureAtoms | None = None,
    embedding: IntervalEmbedding | None = None,
    generator: dict | None = None,
) -> dict:
    """The document of a tree as nested dicts, built bottom-up: the leaves
    from `leaf_of`, then the internal cells, whose ids run in preorder, so
    each child's dict is built before its parent's."""
    nodes: list = [None] * tree.n_cells
    if weights is not None:  # each distinct weight as text once
        keys, at = np.unique(weights.column, return_inverse=True)
        texts = [frac_str(Fraction(k, weights.den)) for k in keys.tolist()]
        weight_text = [texts[k] for k in at.tolist()]
    for i, leaf in enumerate(tree.leaf_of):
        out: dict = {"point": tree.points[i]}
        if embedding is not None:
            left, right = embedding.intervals[i]
            out["interval"] = [left.numerator, left.denominator, right.numerator, right.denominator]
        if measure is not None:
            out["measure"] = frac_str(measure.values[i])
        nodes[leaf] = out
    for c in reversed(tree.internal_cells()):
        out = {"children": [nodes[k] for k in tree.children[c]]}
        if weights is not None:
            out["weight"] = weight_text[c]
        nodes[c] = out

    obj: dict = {"format": FORMAT_NAME, "root": nodes[tree.ROOT]}
    if generator is not None:
        obj["generator"] = generator
    if embedding is not None:
        obj["thetas"] = [frac_str(t) for t in embedding.thetas]
    return obj


def dumps(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def space_to_json(tree, **kwargs) -> str:
    """The tree-form document of a space.  A FormatError, naming the family
    form, when the tree is nested deeper than `json.dumps` can write."""
    try:
        return dumps(space_to_obj(tree, **kwargs))
    except RecursionError:
        raise FormatError(_TOO_DEEP) from None


def _parse_node(obj, path="root") -> RootedTree:
    """The rooted tree of a node object, parsed from a stack in document
    order: the first bad node is reported, and no recursion limit applies."""
    root = RootedTree()
    stack = [(obj, path, root)]
    while stack:
        obj, path, node = stack.pop()
        if not isinstance(obj, dict):
            raise FormatError(f"{path}: node must be an object")
        node.payload = obj  # type: ignore[attr-defined]
        if "point" in obj:
            node.label = obj["point"]
            if not isinstance(node.label, str):
                raise FormatError(f"{path}: point label must be a string")
            continue
        kids = obj.get("children")
        if not isinstance(kids, list) or not kids:
            raise FormatError(f"{path}: internal node needs a nonempty children list")
        node.children = [RootedTree() for _ in kids]
        for i in reversed(range(len(kids))):
            stack.append((kids[i], f"{path}.children[{i}]", node.children[i]))
    return root


def _document(text_or_obj) -> dict:
    if isinstance(text_or_obj, str):
        try:
            obj = json.loads(text_or_obj)
        except json.JSONDecodeError as e:
            raise FormatError(f"not valid JSON: {e}") from None
        except RecursionError:  # nested deeper than json.loads can read
            raise FormatError(_TOO_DEEP) from None
    else:
        obj = text_or_obj
    if not isinstance(obj, dict):
        raise FormatError("document must be a JSON object")
    if obj.get("format", FORMAT_NAME) != FORMAT_NAME:
        raise FormatError(f"unknown format {obj.get('format')!r}")
    return obj


def _root_obj(obj: dict):
    return obj.get("root", obj if ("children" in obj or "point" in obj) else None)


def _first_bad_node(root_obj) -> NoReturn:
    """Raise the FormatError of the first bad node in document order, which
    `_parse_node`'s walk, in that order too, names by its path."""
    _parse_node(root_obj)
    raise FormatError("bad node")  # not reached: the walk meets the bad node


_TOO_DEEP = (
    "tree nested too deeply for the nested form; "
    'write it in the flat family form {"points": [...], "cells": [[...], ...]}'
)


def load_tree(text_or_obj) -> RootedTree:
    """Parse the rooted tree of a tree-form document or a bare node."""
    root_obj = _root_obj(_document(text_or_obj))
    if root_obj is None:
        raise FormatError("document has no root node")
    return _parse_node(root_obj)


def load_space(text_or_obj, strict: bool = True) -> LoadedSpace:
    """Parse a cellspace-v1 document (tree form or family form).

    Nothing here recurses, so only `json.loads` limits the nesting of a
    tree-form text: a deeper document is a FormatError.  A tree form costs
    O(vertices): one walk over the node objects in document order collapses
    unary chains as it goes and hands `cells_of` the flat preorder form of
    the cells, keeping each cell's chain of node objects for its weight and
    leaf payload.  The first bad node is named by `_parse_node`'s path,
    then `cells_of` names a duplicate leaf label, then the weights are
    checked in postorder, children left to right, the deepest vertex of a
    chain first.  A leaf's weight is the one stated on the leaf itself (0
    if none); a unary vertex above a leaf shares its cell, so its weight
    must only agree with the leaf's.
    """
    obj = _document(text_or_obj)
    generator = obj.get("generator")
    if "points" in obj and "cells" in obj:
        try:
            points = [str(p) for p in obj["points"]]
            listed = list(obj["cells"])
        except TypeError as e:
            raise FormatError(f"bad family listing: {e}") from None
        cells = []
        for cell in listed:
            if not (isinstance(cell, list) and all(type(i) is int for i in cell)):
                raise FormatError(f"cell {cell!r} is not a list of point indices")
            cells.append(frozenset(cell))
            if cell and (min(cell) < 0 or max(cell) >= len(points)):
                raise FormatError(
                    f"cell {sorted(cells[-1])} has a point index outside 0..{len(points) - 1}"
                )
        tree = validate_family(points, cells, strict=strict)
        return LoadedSpace(tree, None, None, None, generator)
    root_obj = _root_obj(obj)
    if root_obj is None:
        raise FormatError("document has neither a root node nor a family listing")
    up: list[int | None] = []
    labels: list[str | None] = []
    nodes: list[dict] = []  # the last node object of each cell's chain
    above: dict[int, list[dict]] = {}  # the unary vertices over it, top down
    stack = [(root_obj, None)]
    while stack:
        node, p = stack.pop()
        c = len(nodes)
        while True:
            if not isinstance(node, dict):
                _first_bad_node(root_obj)
            if "point" in node:
                label, kids = node["point"], ()
                if not isinstance(label, str):
                    _first_bad_node(root_obj)
                break
            kids = node.get("children")
            if not isinstance(kids, list) or not kids:
                _first_bad_node(root_obj)
            if len(kids) > 1:
                label = None
                break
            above.setdefault(c, []).append(node)
            node = kids[0]
        up.append(p)
        labels.append(label)
        nodes.append(node)
        stack.extend([(k, c) for k in reversed(kids)])
    tree = cells_of(up, labels)

    def indices(c: int) -> list[int]:  # the point indices of cell c, for messages
        leaves, runs = tree.leaf_order
        return sorted(leaves[runs[c]].tolist())

    weights = None
    if any("weight" in node for node in chain(nodes, *above.values())):
        post, stack = [], [tree.ROOT]
        while stack:  # cell, then children right to left: reversed, a postorder
            c = stack.pop()
            post.append(c)
            stack.extend(tree.children[c])
        texts, stated = {"0": 0}, [Fraction(0)]  # each distinct weight text, parsed once
        weight_at: dict[int, int] = {}  # indices into `stated`
        leaf_weight: dict[int, int] = {}  # stated on the leaf itself
        for c in reversed(post):
            for node in (nodes[c], *reversed(above.get(c, ()))):
                if "weight" in node:
                    k = texts.setdefault(text := str(node["weight"]), len(stated))
                    if k == len(stated):
                        stated.append(parse_frac(text))
                    if stated[weight_at.setdefault(c, k)] != stated[k]:
                        raise FormatError(f"conflicting weights for collapsed cell {indices(c)}")
                    if node is nodes[c] and not tree.children[c]:
                        leaf_weight[c] = k
        for c in tree.internal_cells():
            if c not in weight_at:
                raise FormatError(f"internal cell {indices(c)} lacks a weight")
        pick = [weight_at[c] if tree.children[c] else leaf_weight.get(c, 0) for c in tree.cells()]
        weights = WeightFn(tree, stated, pick)

    measures = []
    intervals = []
    for payload in map(nodes.__getitem__, tree.leaf_of):  # leaves by point
        if "measure" in payload:
            measures.append(parse_frac(payload["measure"]))
        if "interval" in payload:
            quad = payload["interval"]
            if not (
                isinstance(quad, list)
                and len(quad) == 4
                and all(type(q) is int for q in quad)
            ):
                raise FormatError(
                    f"interval must be [num, den, num, den] integers, got {quad!r}"
                )
            if quad[1] == 0 or quad[3] == 0:
                raise FormatError(f"interval has a zero denominator: {quad!r}")
            intervals.append((Fraction(quad[0], quad[1]), Fraction(quad[2], quad[3])))
    measure = None
    if measures:
        if len(measures) != tree.n_points:
            raise FormatError("either all leaves carry a measure or none")
        measure = MeasureAtoms(tree.points, tuple(measures))
    embedding = None
    if intervals:
        if len(intervals) != tree.n_points:
            raise FormatError("either all leaves carry an interval or none")
        thetas = tuple(parse_frac(t) for t in obj.get("thetas", []))
        embedding = IntervalEmbedding(tuple(intervals), thetas)
    return LoadedSpace(tree, weights, measure, embedding, generator)


# -- CSV ---------------------------------------------------------------------


def table_to_csv(table: MetricTable) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow([""] + list(table.labels))
    for i, label in enumerate(table.labels):
        row = [label]
        for v in table.rows[i]:
            row.append(frac_str(v) if table.exact else repr(v))
        w.writerow(row)
    return buf.getvalue()


def table_from_csv(text: str, exact: bool = True, tol: float = 0.0) -> MetricTable:
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or len(rows[0]) < 2:
        raise FormatError("metric CSV needs a header row of labels")
    labels = tuple(rows[0][1:])
    if len(rows) != len(labels) + 1:
        raise FormatError(f"expected {len(labels)} data rows, got {len(rows) - 1}")
    out = []
    for i, row in enumerate(rows[1:]):
        if len(row) != len(labels) + 1:
            raise FormatError(f"row {i} has {len(row) - 1} entries")
        if row[0] != labels[i]:
            raise FormatError(f"row label {row[0]!r} != column label {labels[i]!r}")
        if exact:
            out.append(tuple(parse_frac(v) for v in row[1:]))
        else:
            out.append(tuple(float(v) for v in row[1:]))
    return MetricTable(labels, tuple(out), exact=exact, tol=tol)


def profile_to_csv(profile) -> str:
    """One row (r, s, count) per distinct pair, in increasing exact (r, s)
    order: the profile's cached order, computed once per profile, with each
    distinct value formatted once.  No field of these rows needs quoting."""
    rows = profile.text_rows(frac_str)
    return "r,s,count\n" + "".join([f"{r},{s},{count}\n" for r, s, count in rows])


def envelope_to_csv(points) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["t", "H"])
    for t, h in points:
        w.writerow([frac_str(t), "" if h is None else frac_str(h)])
    return buf.getvalue()


def verdict_to_obj(verdict) -> dict:
    return {
        "pass": verdict.passed,
        "reason": verdict.reason,
        "depths": list(verdict.depths),
        "eta": [
            [frac_str(t), None if h is None else frac_str(h)] for t, h in verdict.eta
        ],
        "offending_t": None
        if verdict.offending_t is None
        else frac_str(verdict.offending_t),
        "witness": None if verdict.witness is None else list(verdict.witness),
    }
