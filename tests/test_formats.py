"""Serialization round trips and malformed-input handling."""

from fractions import Fraction as F

import pytest

from cellspace import (
    Geometry,
    MeasureAtoms,
    ProductSpec,
    WeightFn,
    cantor,
    distortion_profile,
    fat_cantor,
    product_space,
    synthesize_regular_weight,
    ultrametric_from_weight,
    weight_from_sequence,
)
from cellspace.errors import FormatError
from cellspace.formats import (
    dumps,
    envelope_to_csv,
    load_space,
    load_tree,
    profile_to_csv,
    space_to_json,
    space_to_obj,
    table_from_csv,
    table_to_csv,
)


def test_tree_round_trip():
    t = product_space(ProductSpec((2, 3)))
    loaded = load_space(space_to_json(t))
    assert loaded.tree == t
    assert loaded.weights is None and loaded.measure is None


def test_weights_round_trip():
    t = product_space(ProductSpec((2, 2)))
    w = weight_from_sequence(t, [F(1), F(1, 2), F(1, 4)])
    loaded = load_space(space_to_json(t, weights=w))
    assert loaded.weights is not None
    assert loaded.weights.values == w.values


def test_measure_and_interval_round_trip():
    tree, emb = fat_cantor(2)
    mu = MeasureAtoms.uniform(tree)
    text = space_to_json(tree, measure=mu, embedding=emb, generator={"kind": "fat-cantor", "depth": 2, "thetas": None})
    loaded = load_space(text)
    assert loaded.measure.values == mu.values
    assert loaded.embedding.intervals == emb.intervals
    assert loaded.embedding.thetas == emb.thetas
    assert loaded.generator["kind"] == "fat-cantor"


def test_bare_node_accepted():
    obj = {
        "children": [
            {"point": "a"},
            {"children": [{"point": "b"}, {"point": "c"}]},
        ]
    }
    loaded = load_space(obj)
    assert loaded.tree.n_points == 3


def test_family_form():
    obj = {
        "format": "cellspace-v1",
        "points": ["x", "y", "z"],
        "cells": [[0, 1, 2], [0, 1], [0], [1], [2]],
    }
    loaded = load_space(obj)
    assert loaded.tree.n_cells == 5


def test_malformed_inputs():
    with pytest.raises(FormatError):
        load_space("{not json")
    with pytest.raises(FormatError):
        load_space({"format": "cellspace-v2", "root": {"point": "a"}})
    with pytest.raises(FormatError):
        load_space({"root": {"children": []}})
    with pytest.raises(FormatError):
        load_space({"root": {"point": 7}})
    with pytest.raises(FormatError):
        load_space(
            {
                "root": {
                    "children": [
                        {"point": "a", "measure": "1/2"},
                        {"point": "b"},
                    ]
                }
            }
        )


def test_deterministic_dump():
    t = product_space(ProductSpec((2, 2)))
    assert space_to_json(t) == space_to_json(t)
    assert dumps({"b": 1, "a": 2}) == '{"a":2,"b":1}\n'


def test_table_csv_round_trip():
    t = product_space(ProductSpec((2, 2)))
    m = ultrametric_from_weight(t, weight_from_sequence(t, [F(1), F(1, 3), F(1, 9)]))
    text = table_to_csv(m)
    back = table_from_csv(text)
    assert back == m


def test_table_csv_float_mode():
    text = ",a,b\na,0,0.5\nb,0.5,0\n"
    m = table_from_csv(text, exact=False, tol=1e-9)
    assert not m.exact
    assert m.d(0, 1) == 0.5
    exact = table_from_csv(text)
    assert exact.d(0, 1) == F(1, 2)


def test_table_csv_errors():
    with pytest.raises(FormatError):
        table_from_csv("a,b\n")
    with pytest.raises(FormatError):
        table_from_csv(",a,b\na,0,1\n")
    with pytest.raises(FormatError):
        table_from_csv(",a,b\nz,0,1\nb,1,0\n")


def test_profile_and_envelope_csv():
    t = product_space(ProductSpec((2, 2)))
    d = ultrametric_from_weight(t, weight_from_sequence(t, [F(1), F(1, 2), F(1, 4)]))
    dt = ultrametric_from_weight(t, weight_from_sequence(t, [F(1), F(1, 3), F(1, 9)]))
    p = distortion_profile(d, dt)
    text = profile_to_csv(p)
    assert text.splitlines()[0] == "r,s,count"
    assert any(line.startswith("1/2,1/3,") for line in text.splitlines())
    env = envelope_to_csv([(F(1, 8), None), (F(1, 2), F(1, 3))])
    assert env == "t,H\n1/8,\n1/2,1/3\n"


def test_interval_geometry_from_loaded_file():
    tree, emb = cantor(3)
    loaded = load_space(space_to_json(tree, embedding=emb))
    g1 = Geometry.from_intervals(tree, emb)
    g2 = Geometry.from_intervals(loaded.tree, loaded.embedding)
    assert g1.table == g2.table


def test_synthesized_weight_round_trip():
    tree, _ = cantor(2)
    w = synthesize_regular_weight(tree, F(1, 2))
    loaded = load_space(space_to_json(tree, weights=w))
    assert ultrametric_from_weight(loaded.tree, loaded.weights) == ultrametric_from_weight(tree, w)


def _caterpillar_family(levels: int) -> dict:
    """Family form of a caterpillar: cell k holds points k..levels."""
    cells = [list(range(k, levels + 1)) for k in range(levels)]
    cells += [[i] for i in range(levels + 1)]
    return {"points": [f"p{i}" for i in range(levels + 1)], "cells": cells}


def test_deep_trees_are_parsed_and_built_without_recursion():
    # 1,500 levels: far past the interpreter's recursion limit
    tree = load_space(_caterpillar_family(1500)).tree
    assert max(tree.depth) == 1500
    w = WeightFn(tree, tuple(F(0) if tree.is_leaf(c) else F(1, 1 + tree.depth[c]) for c in tree.cells()))
    obj = space_to_obj(tree, weights=w)  # nested dicts, no JSON text in between
    loaded = load_space(obj)
    assert loaded.tree == tree and loaded.weights == w
    assert load_tree(obj).leaves()[-1].label == "p1500"


def test_too_deep_for_json_names_the_family_form():
    tree = load_space(_caterpillar_family(1500)).tree
    with pytest.raises(FormatError, match="family form"):
        space_to_json(tree)
    shallow = load_space(_caterpillar_family(300)).tree
    assert load_space(space_to_json(shallow)).tree == shallow


def test_first_bad_node_in_document_order_is_reported():
    bad = {"children": [{"point": "a"}, {"children": [{"point": 1}, {"children": []}]}, 7]}
    with pytest.raises(FormatError, match=r"^root\.children\[1\]\.children\[0\]: point label"):
        load_space(bad)
    clash = {
        "children": [
            {"children": [{"children": [{"point": "a"}, {"point": "b"}], "weight": "1/2"}], "weight": "1/3"},
            {"children": [{"children": [{"point": "c"}, {"point": "d"}], "weight": "1/4"}], "weight": "1/5"},
        ],
        "weight": "1",
    }
    with pytest.raises(FormatError, match=r"collapsed cell \[0, 1\]"):
        load_space(clash)
