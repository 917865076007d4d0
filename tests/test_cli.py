"""CLI integration: subcommands, exit codes, and byte determinism."""

import contextlib
import io
import json
import time
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cellspace.cli import main, parse_grid
from cellspace.formats import load_space


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_grid():
    assert parse_grid("1/4,1/2,1") == [F(1, 4), F(1, 2), F(1)]
    assert parse_grid("pow2:-2:1") == [F(1, 4), F(1, 2), F(1), F(2)]


def test_generate_product(tmp_path, capsys):
    out = tmp_path / "p.json"
    code, stdout, _ = _run(
        capsys, "generate", "product", "--sizes", "2,2,2", "--out", str(out)
    )
    assert code == 0
    assert "points=8 cells=15" in stdout
    obj = json.loads(out.read_text())
    assert obj["format"] == "cellspace-v1"
    assert obj["generator"] == {"kind": "product", "sizes": [2, 2, 2]}


def test_generate_fat_cantor_intervals(tmp_path, capsys):
    out = tmp_path / "f.json"
    code, stdout, _ = _run(
        capsys, "generate", "fat-cantor", "--depth", "4", "--out", str(out)
    )
    assert code == 0
    assert "points=16" in stdout
    obj = json.loads(out.read_text())

    def leaves(node):
        if "point" in node:
            yield node
        else:
            for k in node["children"]:
                yield from leaves(k)

    lvs = list(leaves(obj["root"]))
    assert len(lvs) == 16
    # first leaf hull = prod_{n<4} (1 - 2^-(n+2))/2 = 9765/262144
    assert lvs[0]["interval"] == [0, 1, 9765, 262144]


def test_generate_random_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        code, _, _ = _run(
            capsys,
            "generate", "random", "--seed", "7", "--points", "20", "--out", str(path),
        )
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_generate_random_with_huge_max_depth_is_quick(tmp_path, capsys):
    start = time.perf_counter()
    code, stdout, _ = _run(
        capsys,
        "generate", "random", "--points", "20", "--max-depth", "100000000",
        "--out", str(tmp_path / "r.json"),
    )
    assert code == 0
    assert "points=20" in stdout
    assert time.perf_counter() - start < 1.0


def test_generate_ray_complete(tmp_path, capsys):
    out = tmp_path / "r.json"
    code, stdout, _ = _run(
        capsys, "generate", "ray", "--complete", "2,3", "--out", str(out)
    )
    assert code == 0
    assert "points=8 cells=15" in stdout


def test_generate_deep_complete_ray_tree(capsys):
    # a 1500-level path: deeper than the recursion limit
    code, stdout, err = _run(capsys, "generate", "ray", "--complete", "1,1500")
    assert code == 0
    assert err == "points=1 cells=1\n"
    assert json.loads(stdout)["root"]["point"] == "r" + ".".join(["0"] * 1500)


def test_generate_too_many_points_is_rejected_at_once(tmp_path, capsys):
    code, stdout, err = _run(capsys, "generate", "cantor", "--depth", "40")
    assert code == 2 and stdout == ""
    assert err.startswith("error:") and "MAX_POINTS" in err
    f = tmp_path / "c.json"
    _run(capsys, "generate", "cantor", "--depth", "2", "--out", str(f))
    code, stdout, err = _run(
        capsys, "distortion", str(f), "euclid", "reg:1/2", "--depths", "2,40",
        "--out", str(tmp_path / "out"),
    )
    assert code == 2 and stdout == ""
    assert err.startswith("error:") and "MAX_POINTS" in err
    assert not (tmp_path / "out").exists()  # rejected before any output


def test_generate_ray_from_tree_file(tmp_path, capsys):
    src = tmp_path / "tree.json"
    src.write_text(
        json.dumps(
            {
                "children": [
                    {"point": "a"},
                    {"children": [{"point": "b"}, {"point": "c"}]},
                ]
            }
        )
    )
    out = tmp_path / "rays.json"
    code, stdout, _ = _run(
        capsys, "generate", "ray", "--tree", str(src), "--out", str(out)
    )
    assert code == 0
    assert "points=3 cells=5" in stdout


def test_analyze_random_tree_defaults_to_synthesized_weights(tmp_path, capsys):
    f = tmp_path / "r.json"
    _run(capsys, "generate", "random", "--seed", "3", "--points", "9", "--out", str(f))
    code, stdout, _ = _run(capsys, "analyze", str(f), "--format", "json")
    assert code == 0
    obj = json.loads(stdout)
    assert obj["gamma"] == "1"  # synthesized weights give ultrametric geometry
    assert obj["regularity_pass"] is True


def test_generate_bad_params(capsys):
    code, _, err = _run(capsys, "generate", "product", "--sizes", "2,1")
    assert code == 2
    code, _, _ = _run(capsys, "generate", "product")
    assert code == 2


def test_validate_ok(tmp_path, capsys):
    f = tmp_path / "p.json"
    _run(capsys, "generate", "product", "--sizes", "2,2", "--out", str(f))
    code, stdout, _ = _run(capsys, "validate", str(f))
    assert code == 0
    assert stdout.startswith("OK")


def test_validate_overlap_family(tmp_path, capsys):
    f = tmp_path / "bad.json"
    f.write_text(
        json.dumps(
            {
                "format": "cellspace-v1",
                "points": ["1", "2", "3"],
                "cells": [[0, 1, 2], [0, 1], [1, 2], [0], [1], [2]],
            }
        )
    )
    code, stdout, _ = _run(capsys, "validate", str(f))
    assert code == 1
    assert "overlap" in stdout.lower()


def test_validate_strict_base_flag(tmp_path, capsys):
    f = tmp_path / "nb.json"
    f.write_text(
        json.dumps(
            {
                "format": "cellspace-v1",
                "points": ["1", "2"],
                "cells": [[0, 1], [0]],
            }
        )
    )
    code, stdout, _ = _run(capsys, "validate", str(f))
    assert code == 1 and "singleton" in stdout
    code, stdout, _ = _run(capsys, "validate", str(f), "--no-strict-base")
    assert code == 0


def test_validate_truncated_json(tmp_path, capsys):
    f = tmp_path / "t.json"
    f.write_text('{"format": "cellspace-v1", "root": ')
    code, _, err = _run(capsys, "validate", str(f))
    assert code == 2


def test_validate_garbage_family_is_malformed(tmp_path, capsys):
    f = tmp_path / "g.json"
    f.write_text(
        json.dumps(
            {"format": "cellspace-v1", "points": ["a"], "cells": [["oops"]]}
        )
    )
    code, _, err = _run(capsys, "validate", str(f))
    assert code == 2


def _validate_with_first_interval(tmp_path, capsys, quad):
    f = tmp_path / "c.json"
    _run(capsys, "generate", "cantor", "--depth", "2", "--out", str(f))
    obj = json.loads(f.read_text())
    node = obj["root"]
    while "point" not in node:
        node = node["children"][0]
    node["interval"] = quad
    f.write_text(json.dumps(obj))
    return _run(capsys, "validate", str(f))


def test_validate_interval_zero_denominator_is_malformed(tmp_path, capsys):
    code, stdout, err = _validate_with_first_interval(tmp_path, capsys, [0, 0, 1, 1])
    assert code == 2 and stdout == ""
    assert err.startswith("malformed input:") and "zero denominator" in err


def test_validate_interval_non_integer_part_is_malformed(tmp_path, capsys):
    code, stdout, err = _validate_with_first_interval(tmp_path, capsys, ["x", 1, 1, 1])
    assert code == 2 and stdout == ""
    assert err.startswith("malformed input:") and "integers" in err


def test_validate_family_index_out_of_range_is_malformed(tmp_path, capsys):
    for bad in (5, -1):
        f = tmp_path / "oor.json"
        f.write_text(json.dumps({"points": ["a", "b"], "cells": [[0, 1], [0], [1], [bad]]}))
        code, stdout, err = _run(capsys, "validate", str(f))
        assert code == 2 and stdout == ""
        assert err.startswith("malformed input:") and "outside 0..1" in err


@pytest.mark.parametrize("cell", [[0.9, 1], [True, 0], [1.5], "01"])
def test_validate_family_cell_not_a_list_of_ints_is_malformed(tmp_path, capsys, cell):
    f = tmp_path / "cells.json"
    # read with int(i), each of these cells was a valid index list
    f.write_text(json.dumps({"points": ["a", "b"], "cells": [cell, [0, 1], [0], [1]]}))
    code, stdout, err = _run(capsys, "validate", str(f))
    assert code == 2 and stdout == ""
    assert err.startswith("malformed input:") and repr(cell) in err


def _caterpillar_family(levels: int) -> dict:
    """Family form of a caterpillar: cell k holds points k..levels."""
    points = [f"p{i}" for i in range(levels + 1)]
    cells = [list(range(k, levels + 1)) for k in range(levels)]
    cells += [[i] for i in range(levels + 1)]
    return {"format": "cellspace-v1", "points": points, "cells": cells}


def test_validate_deep_caterpillar_family_form(tmp_path, capsys):
    f = tmp_path / "cat.json"
    f.write_text(json.dumps(_caterpillar_family(2000)))
    code, stdout, _ = _run(capsys, "validate", str(f))
    assert code == 0
    assert stdout == "OK: points=2001 cells=4001 checks=structure\n"


def test_validate_deep_nested_tree_is_malformed(tmp_path, capsys):
    node = '{"point":"p2000"}'
    for i in reversed(range(2000)):
        node = '{"children":[{"point":"p%d"},%s]}' % (i, node)
    f = tmp_path / "deep.json"
    f.write_text('{"format":"cellspace-v1","root":' + node + "}")
    for argv in (["validate", str(f)], ["generate", "ray", "--tree", str(f)]):
        code, stdout, err = _run(capsys, *argv)
        assert code == 2 and stdout == ""
        assert err.startswith("malformed input:") and "family form" in err
        assert "Traceback" not in err


def test_generate_ray_tree_file_is_parsed_like_a_space(tmp_path, capsys):
    f = tmp_path / "tree.json"
    for doc in ({"children": []}, {"children": [{"point": 1}]}, [1]):
        f.write_text(json.dumps(doc))
        code, stdout, err = _run(capsys, "generate", "ray", "--tree", str(f))
        assert code == 2 and stdout == ""
        assert err.startswith("malformed input:")


def test_validate_missing_file(capsys):
    code, _, err = _run(capsys, "validate", "/nonexistent/x.json")
    assert code == 2


def test_analyze_middle_thirds(tmp_path, capsys):
    f = tmp_path / "c.json"
    _run(capsys, "generate", "cantor", "--depth", "3", "--out", str(f))
    code, stdout, _ = _run(capsys, "analyze", str(f), "--format", "json")
    assert code == 0
    obj = json.loads(stdout)
    assert obj["alpha"] == "1/3" and obj["beta"] == "1/3" and obj["gamma"] == "1/3"
    assert obj["k1"] == 2


def test_analyze_uniform_binary_k2(tmp_path, capsys):
    f = tmp_path / "p.json"
    _run(capsys, "generate", "product", "--sizes", "2,2", "--out", str(f))
    code, stdout, _ = _run(
        capsys, "analyze", str(f), "--metric", "geo:1/2", "--format", "json"
    )
    assert code == 0
    obj = json.loads(stdout)
    assert obj["k2"] == "2"
    assert obj["metric_doubling"]["value"] == 2
    assert obj["gamma"] == "1"


def test_analyze_with_csv_metric(tmp_path, capsys):
    from cellspace import ProductSpec, product_space, ultrametric_from_weight, weight_from_sequence
    from cellspace.formats import table_to_csv

    f = tmp_path / "p.json"
    _run(capsys, "generate", "product", "--sizes", "2,2", "--out", str(f))
    t = product_space(ProductSpec((2, 2)))
    m = ultrametric_from_weight(t, weight_from_sequence(t, [F(1), F(1, 2), F(1, 4)]))
    csv_path = tmp_path / "m.csv"
    csv_path.write_text(table_to_csv(m))
    code, stdout, _ = _run(
        capsys, "analyze", str(f), "--metric", f"csv:{csv_path}", "--format", "json"
    )
    assert code == 0
    assert json.loads(stdout)["alpha"] == "1/2"


def _analyze_with_csv_rows(tmp_path, capsys, rows):
    f = tmp_path / "p.json"
    _run(capsys, "generate", "product", "--sizes", "2,2", "--out", str(f))
    csv_path = tmp_path / "m.csv"
    csv_path.write_text(",00,01,10,11\n" + "".join(r + "\n" for r in rows))
    return _run(capsys, "analyze", str(f), "--metric", f"csv:{csv_path}")


def test_analyze_csv_asymmetric_table_is_malformed(tmp_path, capsys):
    code, stdout, err = _analyze_with_csv_rows(
        tmp_path, capsys, ["00,0,5,1,1", "01,1,0,1,1", "10,1,1,0,1/2", "11,1,1,1/2,0"]
    )
    assert code == 2 and stdout == ""
    assert err.startswith("malformed input:")
    assert "not a metric: asymmetric, witness ('00', '01')" in err


def test_analyze_csv_nonzero_diagonal_is_malformed(tmp_path, capsys):
    code, stdout, err = _analyze_with_csv_rows(
        tmp_path, capsys, ["00,1,1/2,1,1", "01,1/2,0,1,1", "10,1,1,0,1/2", "11,1,1,1/2,0"]
    )
    assert code == 2 and stdout == ""
    assert err.startswith("malformed input:")
    assert "not a metric: nonzero diagonal, witness ('00',)" in err


def test_analyze_table_format(tmp_path, capsys):
    f = tmp_path / "c.json"
    _run(capsys, "generate", "cantor", "--depth", "2", "--out", str(f))
    code, stdout, _ = _run(capsys, "analyze", str(f))
    assert code == 0
    lines = dict(line.split("\t", 1) for line in stdout.strip().splitlines())
    assert lines["alpha"] == "1/3"
    assert lines["regularity_pass"] == "True"


def test_distortion_pass(tmp_path, capsys):
    f = tmp_path / "p.json"
    _run(capsys, "generate", "product", "--sizes", "2,2,2", "--out", str(f))
    outdir = tmp_path / "dist"
    code, stdout, _ = _run(
        capsys,
        "distortion", str(f), "geo:1/2", "geo:1/3",
        "--depths", "3,5", "--grid", "pow2:-8:2", "--out", str(outdir),
    )
    assert code == 0
    assert stdout.startswith("PASS")
    assert (outdir / "profile_depth3.csv").exists()
    assert (outdir / "envelope_depth5.csv").exists()
    verdict = json.loads((outdir / "verdict.json").read_text())
    assert verdict["pass"] is True


def test_distortion_fail_fat_cantor(tmp_path, capsys):
    f = tmp_path / "f.json"
    _run(capsys, "generate", "fat-cantor", "--depth", "4", "--out", str(f))
    outdir = tmp_path / "dist"
    code, stdout, _ = _run(
        capsys,
        "distortion", str(f), "euclid", "reg:1/2",
        "--depths", "4,6", "--grid", "pow2:-10:2", "--out", str(outdir),
    )
    assert code == 1
    assert stdout.startswith("FAIL")
    verdict = json.loads((outdir / "verdict.json").read_text())
    assert verdict["pass"] is False
    assert verdict["witness"] is not None


def test_distortion_self_pass(tmp_path, capsys):
    f = tmp_path / "p.json"
    _run(capsys, "generate", "product", "--sizes", "2,2", "--out", str(f))
    outdir = tmp_path / "dist"
    code, stdout, _ = _run(
        capsys,
        "distortion", str(f), "geo:1/2", "geo:1/2",
        "--depths", "2,4", "--grid", "pow2:-6:1", "--out", str(outdir),
    )
    assert code == 0


def test_distortion_needs_generator(tmp_path, capsys):
    f = tmp_path / "bare.json"
    f.write_text(
        json.dumps({"children": [{"point": "a"}, {"point": "b"}]})
    )
    code, _, err = _run(
        capsys, "distortion", str(f), "geo:1/2", "geo:1/3", "--depths", "2,3"
    )
    assert code == 2


def test_distortion_rejects_single_depth(tmp_path, capsys):
    f = tmp_path / "p.json"
    _run(capsys, "generate", "product", "--sizes", "2,2", "--out", str(f))
    code, _, err = _run(
        capsys, "distortion", str(f), "geo:1/2", "geo:1/3", "--depths", "4"
    )
    assert code == 2


def test_distortion_rejects_repeated_depths_before_any_work(tmp_path, capsys):
    # one distinct depth: no profile is written and no --out directory made
    f = tmp_path / "p.json"
    _run(capsys, "generate", "product", "--sizes", "2,2", "--out", str(f))
    outdir = tmp_path / "dist"
    code, out, err = _run(
        capsys,
        "distortion", str(f), "geo:1/2", "geo:1/3", "--depths", "3,3", "--out", str(outdir),
    )
    assert code == 2
    assert out == "" and err == "error: need at least two --depths\n"
    assert not outdir.exists()


def test_cli_byte_determinism(tmp_path, capsys):
    results = []
    for tag in ("one", "two"):
        f = tmp_path / f"{tag}.json"
        outdir = tmp_path / f"dist-{tag}"
        _run(capsys, "generate", "fat-cantor", "--depth", "4", "--out", str(f))
        code, stdout, _ = _run(
            capsys,
            "distortion", str(f), "euclid", "reg:1/2",
            "--depths", "3,4", "--grid", "pow2:-8:1", "--out", str(outdir),
        )
        blob = f.read_bytes() + stdout.encode()
        for name in sorted(p.name for p in outdir.iterdir()):
            blob += (outdir / name).read_bytes()
        results.append(blob)
    assert results[0] == results[1]


def test_zero_denominator_rationals_are_malformed(tmp_path, capsys):
    f = tmp_path / "p.json"
    _run(capsys, "generate", "product", "--sizes", "2,2", "--out", str(f))
    outdir = str(tmp_path / "dist")
    cases = [
        ("distortion", str(f), "geo:1/2", "geo:1/3", "--depths", "3,4", "--grid", "1/0"),
        ("distortion", str(f), "geo:1/0", "geo:1/3", "--depths", "3,4"),
        ("distortion", str(f), "geo:1/2", "reg:1/0", "--depths", "3,4"),
        ("distortion", str(f), "seq:1,1/0", "geo:1/3", "--depths", "3,4"),
        ("analyze", str(f), "--metric", "seq:1,1/0"),
        ("generate", "fat-cantor", "--depth", "2", "--theta", "1/0,1/3"),
    ]
    for argv in cases:
        if argv[0] == "distortion":
            argv += ("--out", outdir)
        code, out, err = _run(capsys, *argv)
        assert code == 2, argv
        assert err.startswith("malformed input: bad rational"), (argv, err)
        assert "Traceback" not in err


def test_distortion_rejects_a_bad_grid_before_any_work(tmp_path, capsys):
    f = tmp_path / "p.json"
    _run(capsys, "generate", "product", "--sizes", "2,2", "--out", str(f))
    outdir = tmp_path / "dist"
    for grid, message in (
        ("1,2", "grid needs at least three points below 1"),
        ("0,1/2,1/4,1/8", "grid values must be positive"),
    ):
        code, out, err = _run(
            capsys,
            "distortion", str(f), "geo:1/2", "geo:1/3", "--depths", "3,4",
            "--grid", grid, "--out", str(outdir),
        )
        assert code == 2
        assert out == "" and err == f"error: {message}\n"
        assert not outdir.exists()


def test_distortion_rejects_negative_tol(tmp_path, capsys):
    f = tmp_path / "p.json"
    _run(capsys, "generate", "product", "--sizes", "2,2", "--out", str(f))
    for tol in ("-1", "nan"):
        code, out, err = _run(
            capsys,
            "distortion", str(f), "geo:1/2", "geo:1/3", "--depths", "3,4",
            "--tol", tol, "--out", str(tmp_path / "dist"),
        )
        assert code == 2
        assert out == "" and "--tol must be nonnegative" in err


def _validate_with_second_interval(tmp_path, capsys, quad):
    f = tmp_path / "c.json"
    _run(capsys, "generate", "cantor", "--depth", "2", "--out", str(f))
    obj = json.loads(f.read_text())
    obj["root"]["children"][0]["children"][1]["interval"] = quad
    f.write_text(json.dumps(obj))
    return _run(capsys, "validate", str(f))


def test_validate_touching_sibling_intervals(tmp_path, capsys):
    # 00 = [0, 1/9] and 01 = [1/9, 1/3] would share the representative 1/9;
    # the document is refused while loading, before any distance is taken
    # (output recorded with the n^2 Fraction table)
    code, stdout, err = _validate_with_second_interval(tmp_path, capsys, [1, 9, 1, 3])
    want = "FAIL: leaf intervals overlap or touch: point 0 [0, 1/9] and point 1 [1/9, 1/3]\n"
    assert (code, stdout, err) == (1, want, "")


def test_generate_too_deep_for_the_nested_form(tmp_path, capsys, monkeypatch):
    from cellspace import formats, spaces

    tree = formats.load_space(_caterpillar_family(1500)).tree
    monkeypatch.setattr(spaces, "random_laminar", lambda *args: tree)
    out = tmp_path / "deep.json"
    code, stdout, err = _run(capsys, "generate", "random", "--out", str(out))
    assert code == 2 and stdout == "" and not out.exists()
    assert err.startswith("malformed input:") and "family form" in err


def test_out_of_memory_exits_2_with_a_message(tmp_path, capsys, monkeypatch):
    from cellspace import metrics

    def exhausted(*args):
        raise MemoryError("Unable to allocate 128. GiB for an array")

    f = tmp_path / "p.json"
    _run(capsys, "generate", "product", "--sizes", "2,2", "--out", str(f))
    monkeypatch.setattr(metrics, "ultrametric_from_weight", exhausted)
    code, stdout, err = _run(capsys, "analyze", str(f), "--metric", "geo:1/2")
    assert (code, stdout) == (2, "")
    assert err == "error: out of memory: Unable to allocate 128. GiB for an array\n"


def test_distortion_malformed_generator_is_malformed(tmp_path, capsys):
    f = tmp_path / "p.json"
    _run(capsys, "generate", "product", "--sizes", "2,2", "--out", str(f))
    obj = json.loads(f.read_text())
    for generator in (
        {"kind": "product"},
        {"kind": "product", "sizes": []},
        {"kind": "product", "sizes": "2,2"},
        {"kind": "fat-cantor", "thetas": 3},
        {"kind": "ray", "complete": "2,3"},
        "product",
    ):
        obj["generator"] = generator
        f.write_text(json.dumps(obj))
        code, out, err = _run(
            capsys, "distortion", str(f), "geo:1/2", "geo:1/3", "--depths", "2,3",
            "--out", str(tmp_path / "dist"),
        )
        assert (code, out) == (2, ""), generator
        assert err.startswith("malformed input: generator"), err


# -- fuzzing the exit-code contract ------------------------------------------


def _seed_documents() -> list:
    """Small valid documents of every form the loader reads."""
    from cellspace import analysis, formats, metrics, spaces

    product = spaces.product_space(spaces.ProductSpec((2, 2)))
    weights = metrics.weight_from_sequence(product, [1, F(1, 2), F(1, 4)])
    cantor, fat = spaces.cantor(2), spaces.fat_cantor(2)
    docs = [
        formats.space_to_obj(
            cantor[0], embedding=cantor[1], generator={"kind": "cantor", "depth": 2}
        ),
        formats.space_to_obj(
            fat[0], embedding=fat[1], generator={"kind": "fat-cantor", "depth": 2, "thetas": None}
        ),
        formats.space_to_obj(
            product,
            weights=weights,
            measure=analysis.MeasureAtoms.uniform(product),
            generator={"kind": "product", "sizes": [2, 2]},
        ),
        {"format": "cellspace-v1", "points": ["a", "b", "c"], "cells": [[0, 1, 2], [0, 1], [0], [1], [2]]},
    ]
    return [json.dumps(d) for d in docs]


SEED_DOCUMENTS = _seed_documents()
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 5) | st.sampled_from(["", "a", "1/2", "1/0", "x"]),
    lambda kids: st.lists(kids, max_size=4) | st.dictionaries(
        st.sampled_from(["children", "point", "weight", "interval", "measure", "root", "points", "cells"]),
        kids, max_size=3,
    ),
    max_leaves=8,
)


def _paths(obj, path=()):
    yield path
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield from _paths(value, path + (key,))


@st.composite
def fuzz_documents(draw) -> str:
    """A seed document as it is or with up to three values replaced or keys
    dropped, a random JSON value, or a seed text cut short."""
    kind = draw(st.sampled_from(["seed", "mutated", "mutated", "value", "cut"]))
    text = draw(st.sampled_from(SEED_DOCUMENTS))
    if kind == "seed":
        return text
    if kind == "value":
        return json.dumps(draw(JSON_VALUES))
    if kind == "cut":
        return text[: draw(st.integers(0, len(text) - 1))]
    obj = json.loads(text)
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_paths(obj))[1:]))
        parent = obj
        for key in path[:-1]:
            parent = parent[key]
        if isinstance(parent, dict) and draw(st.booleans()):
            del parent[path[-1]]
        else:
            parent[path[-1]] = draw(JSON_VALUES)
    return json.dumps(obj)


def _mostly(good: list, bad: list):
    """One of `good` three times in four, else one of `bad`."""
    return st.sampled_from(good * (3 * len(bad)) + bad * len(good))


def fuzz_argv(doc: str, csv: str, out: str):
    specs = _mostly(
        ["auto", "euclid", "weights", "reg:1/2", "geo:1/3", "seq:1,1/2,1/4", f"csv:{csv}"],
        ["reg:2", "seq:1", "csv:missing.csv", "reg:x", "nope"],
    )
    validate = st.tuples(st.just("validate"), st.just(doc), st.sampled_from([(), ("--no-strict-base",)]))
    analyze = st.tuples(
        st.just("analyze"), st.just(doc), st.just("--metric"), specs, st.just("--format"),
        st.sampled_from(["json", "table"]),
    )
    distortion = st.tuples(
        st.just("distortion"), st.just(doc), specs, specs,
        st.just("--depths"), _mostly(["2,3", "1,2", "3,2"], ["3", "0,2", "2,x"]),
        st.just("--grid"), _mostly(["pow2:-4:1", "1/8,1/4,1/2,1"], ["pow2:1:0", "x"]),
        st.just("--tol"), _mostly(["1e-9", "0"], ["-1", "nan"]),
        st.just("--out"), st.just(out),
    )
    generate = st.tuples(
        st.just("generate"),
        st.sampled_from(["product", "cantor", "fat-cantor", "random", "ray", "torus"]),
        st.sampled_from([(), ("--sizes", "2,3"), ("--sizes", "1"), ("--sizes", "x")]),
        st.sampled_from([(), ("--depth", "3"), ("--depth", "0"), ("--theta", "1/3,1/2"), ("--theta", "2")]),
        st.sampled_from([(), ("--points", "9"), ("--points", "0"), ("--max-depth", "1")]),
        st.sampled_from([(), ("--complete", "2,3"), ("--complete", "3"), ("--tree", doc)]),
        st.just("--out"), st.just(out + ".json"),
    )

    def flat(parts):
        return [p for part in parts for p in ((part,) if isinstance(part, str) else part)]

    return st.one_of(validate, analyze, distortion, generate).map(flat)


# the checks `validate` runs on a loaded space's metric
METRIC_CHECKS = (
    "ultrametric inequality",
    "ball-cell correspondence",
    "nonzero diagonal",
    "asymmetric",
    "nonpositive distance",
    "triangle inequality fails",
)


@settings(max_examples=200, deadline=None, database=None)
@given(data=st.data())
def test_fuzzed_documents_and_arguments_keep_the_exit_code_contract(tmp_path_factory, data):
    # 0 pass, 1 a violation with its witness printed, 2 bad input or usage;
    # never a traceback
    wd = tmp_path_factory.mktemp("fuzz")
    doc, csv = wd / "doc.json", wd / "table.csv"
    doc.write_text(data.draw(fuzz_documents()))
    csv.write_text(data.draw(st.sampled_from(["", ",a,b\na,0,1\nb,1,0\n", ",00,01\n00,0,1\n01,2,0\n"])))
    argv = data.draw(fuzz_argv(str(doc), str(csv), str(wd / "out")))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as e:  # argparse refuses the arguments
            code = e.code
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2), (argv, code, out, err)
    assert "Traceback" not in out + err
    if code == 1:  # one line naming the violation; a failed check names its witness
        assert out.startswith("FAIL: ") and out.count("\n") == 1 and err == "", (argv, out, err)
        if argv[0] == "distortion":
            assert "witness=" in out or "undefined at small scales" in out, out
        elif out.startswith(tuple(f"FAIL: {check}" for check in METRIC_CHECKS)):
            assert ", witness " in out, out


def test_no_command_builds_member_sets(tmp_path, capsys, monkeypatch):
    # a cell's points are its run of the leaf order: with `CellTree.members`
    # refusing, every command gives the same exit code, stdout and files
    from cellspace import CellTree, formats, metrics, spaces

    tree = spaces.product_space(spaces.ProductSpec((2, 2, 2)))
    w = metrics.weight_from_sequence(tree, [F(1, 2**k) for k in range(4)])
    (tmp_path / "weighted.json").write_text(formats.space_to_json(tree, weights=w))
    shuffled = [[(5 * i + 3) % 8 for i in m] for m in tree.members]  # not in leaf order
    family = {"format": "cellspace-v1", "points": list(tree.points), "cells": shuffled[::-1]}
    (tmp_path / "family.json").write_text(json.dumps(family))
    commands = [
        ["generate", "product", "--sizes", "3,3", "--out", "{out}/p.json"],
        ["generate", "random", "--seed", "3", "--points", "40", "--out", "{out}/r.json"],
        ["generate", "cantor", "--depth", "4", "--out", "{out}/c.json"],
        ["generate", "product", "--sizes", "2", "--out", "{out}/b.json"],
        ["validate", "{out}/r.json"],
        ["validate", "{in}/family.json"],
        ["validate", "{in}/weighted.json"],
        ["validate", "{out}/c.json"],
        ["analyze", "{out}/p.json", "--metric", "geo:1/2", "--format", "json"],
        ["analyze", "{out}/r.json"],
        ["analyze", "{out}/c.json", "--format", "json"],
        ["distortion", "{out}/b.json", "geo:1/2", "geo:1/3", "--depths", "3,5", "--out", "{out}/dist"],
    ]

    def run_all(tag: str) -> list:
        out = tmp_path / tag
        out.mkdir()
        results = [_run(capsys, *(a.format(out=out, **{"in": tmp_path}) for a in argv)) for argv in commands]
        files = {p.relative_to(out).as_posix(): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}
        return [(code, stdout.replace(str(out), "OUT")) for code, stdout, _ in results], files

    plain = run_all("plain")
    assert [code for code, _ in plain[0]] == [0] * len(commands)

    def refuse(self):
        raise AssertionError("a command built member sets")

    monkeypatch.setattr(CellTree, "members", property(refuse))
    assert run_all("runs") == plain


def test_analyze_witness_cells_list_their_labels_sorted(tmp_path, capsys):
    # labels p0..p11: point order is not the sorted order once p10 shares a cell with p2
    f = tmp_path / "r.json"
    _run(capsys, "generate", "random", "--seed", "5", "--points", "12", "--out", str(f))
    tree = load_space(f.read_text(encoding="utf-8")).tree
    code, stdout, _ = _run(capsys, "analyze", str(f), "--format", "json")
    assert code == 0
    witnesses = json.loads(stdout)["witnesses"]
    want = {"{" + ",".join(sorted(tree.cell_points(c))) + "}" for c in tree.cells()}
    cells = [cell for pair in witnesses.values() if pair for cell in pair]
    assert cells and set(cells) <= want
    assert any("p10" in cell and cell.index("p10") < cell.index("p2") for cell in cells)
