"""Seeded job lists for the three benchmark workloads.

A workload is a fixed list of `cellspace` CLI invocations plus the input
documents the harness writes through the library before the first job
(weighted and family-form files, which `generate` cannot emit).  Every job
carries the exit code it must return and a check of its output that holds
for any seed.  The seed only chooses inputs: random laminar trees, the
prime gap proportions of the wide fat Cantor, and `distortion --seed`.

Every workload ends with the same few tiny jobs (the "tail").  They touch
every layer the trace reports, so each per-layer time is a measured value
on every workload; they take a few milliseconds.
"""

from __future__ import annotations

import json
import math
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

from cellspace import analysis, formats, metrics, spaces

WORKLOADS = ("tree-metrics", "line-metrics", "structure")

# Random trees in `structure` are binary, so their cell count, and with it the
# quadratic cost of the structural checks, does not vary with the seed.
BINARY_DEPTH = 24

# Sizes per workload: the full run and the reduced smoke run.
SIZES = {
    "tree-metrics": {
        "full": dict(wprod=9, wtree=500, prod3=5, exact_depths="5,6", sampled_depths="5,10"),
        "smoke": dict(wprod=5, wtree=60, prod3=3, exact_depths="3,4", sampled_depths="3,10"),
    },
    "line-metrics": {
        "full": dict(fat_int=8, fat_wide=6, fat=6, cantor=6, dist_depths="3,5"),
        "smoke": dict(fat_int=5, fat_wide=4, fat=4, cantor=4, dist_depths="2,3"),
    },
    "structure": {
        "full": dict(random=2800, family=1800, ray="4,5", product="6,6,6,6"),
        "smoke": dict(random=300, family=200, ray="3,3", product="3,3,3"),
    },
}


@dataclass
class Job:
    """One CLI invocation; paths in argv are relative to the work directory."""

    name: str
    argv: list[str]
    rc: int
    check: Callable[[str, Path], str | None] = lambda out, wd: None
    outputs: tuple[str, ...] = ()  # files or directories written by the job


# -- output checks -------------------------------------------------------------


def _expect_counts(n: int, cells: int | None = None):
    def check(out: str, wd: Path) -> str | None:
        m = re.search(r"points=(\d+) cells=(\d+)", out)
        if m is None:
            return f"no point/cell counts in {out!r}"
        if int(m.group(1)) != n or (cells is not None and int(m.group(2)) != cells):
            return f"expected points={n} cells={cells}, got {m.group(0)}"
        return None

    return check


def _expect_valid(n: int, checks: str, cells: int | None = None):
    counts = _expect_counts(n, cells)

    def check(out: str, wd: Path) -> str | None:
        if not out.startswith("OK: "):
            return f"validate did not pass: {out!r}"
        if not out.rstrip().endswith(f"checks={checks}"):
            return f"expected checks={checks}: {out!r}"
        return counts(out, wd)

    return check


def _expect_analysis(**want):
    """Compare fields of `analyze --format json`; `metric_doubling` is compared
    as (value, exact)."""

    def check(out: str, wd: Path) -> str | None:
        try:
            obj = json.loads(out)
        except json.JSONDecodeError as e:
            return f"analyze output is not JSON: {e}"
        for key, value in want.items():
            got = obj.get(key)
            if key == "metric_doubling":
                got = (got["value"], got["exact"])
            if got != value:
                return f"{key}: expected {value!r}, got {got!r}"
        return None

    return check


def _distortion(name: str, space: str, a: str, b: str, depths: str, seed: int, passed: bool) -> Job:
    outdir = f"{name}.out"
    expected = [f"profile_depth{d}.csv" for d in depths.split(",")]
    expected += [f"envelope_depth{d}.csv" for d in depths.split(",")]

    def check(out: str, wd: Path) -> str | None:
        prefix = "PASS: " if passed else "FAIL: "
        if not out.startswith(prefix):
            return f"expected {prefix.strip()}: {out!r}"
        for fname in expected:
            if not (wd / outdir / fname).is_file():
                return f"missing output {fname}"
        verdict = json.loads((wd / outdir / "verdict.json").read_text(encoding="utf-8"))
        if verdict["pass"] is not passed:
            return f"verdict.json says pass={verdict['pass']}"
        return None

    argv = ["distortion", space, a, b, "--depths", depths, "--seed", str(seed), "--out", outdir]
    return Job(name, argv, 0 if passed else 1, check, (outdir,))


def _generate(name: str, args: list[str], n: int, cells: int | None = None) -> Job:
    out = f"{name}.json"
    return Job(name, ["generate", *args, "--out", out], 0, _expect_counts(n, cells), (out,))


def _validate(name: str, path: str, n: int, checks: str, cells: int | None = None) -> Job:
    return Job(name, ["validate", path], 0, _expect_valid(n, checks, cells))


def _analyze(name: str, path: str, metric: str | None = None, **want) -> Job:
    argv = ["analyze", path, "--format", "json"]
    if metric is not None:
        argv += ["--metric", metric]
    return Job(name, argv, 0, _expect_analysis(**want))


# -- inputs written by the harness ---------------------------------------------


def _write(wd: Path, name: str, text: str) -> str:
    (wd / name).write_text(text, encoding="utf-8")
    return name


def _weighted_product(wd: Path, name: str, depth: int) -> tuple[str, int, int]:
    tree = spaces.product_space(spaces.ProductSpec((2,) * depth))
    w = metrics.weight_from_sequence(tree, [Fraction(1, 2) ** i for i in range(depth + 1)])
    return _write(wd, name, formats.space_to_json(tree, weights=w)), tree.n_points, tree.n_cells


def _weighted_tree(wd: Path, name: str, seed: int, n: int, beta: Fraction):
    tree = spaces.random_laminar(seed, 4, 8, n)
    w = analysis.synthesize_regular_weight(tree, beta)
    return _write(wd, name, formats.space_to_json(tree, weights=w)), tree.n_points, tree.n_cells


def _family(wd: Path, name: str, seed: int, n: int):
    """Family form (points plus cells as index lists) of a random binary
    tree, which has 2n - 1 cells whatever the seed."""
    tree = spaces.random_laminar(seed, 2, BINARY_DEPTH, n)
    cells = [sorted(m) for m in tree.members]
    random.Random(seed).shuffle(cells)
    doc = {"format": formats.FORMAT_NAME, "points": list(tree.points), "cells": cells}
    return _write(wd, name, json.dumps(doc)), tree.n_points, tree.n_cells


def _primes_above(rng: random.Random, count: int, low: int = 10**6) -> list[int]:
    def is_prime(p: int) -> bool:
        return p % 2 == 1 and all(p % q for q in range(3, int(p**0.5) + 1, 2))

    out: list[int] = []
    while len(out) < count:
        p = rng.randrange(low, 2 * low)
        while not is_prime(p):
            p += 1
        if p not in out:
            out.append(p)
    return out


def _tail(wd: Path, seed: int) -> list[Job]:
    """Tiny jobs that reach every traced layer; identical outputs on every
    workload except the seeded family document."""
    wfile, wn, wc = _weighted_product(wd, "tail-weighted.json", 3)
    ffile, fn, fc = _family(wd, "tail-family.json", seed, 12)
    return [
        _generate("tail-product", ["product", "--sizes", "2,2,2"], 8, 15),
        _validate("tail-validate-weighted", wfile, wn, "structure,weights,ultrametric,balls=cells", wc),
        _validate("tail-validate-family", ffile, fn, "structure", fc),
        _generate("tail-cantor", ["cantor", "--depth", "3"], 8, 15),
        _validate("tail-validate-cantor", "tail-cantor.json", 8, "structure,intervals,metric", 15),
        _analyze("tail-analyze-cantor", "tail-cantor.json", alpha="1/3", beta="1/3", gamma="1/3"),
        _analyze(
            "tail-analyze-product", "tail-product.json", "geo:1/2",
            k1=2, alpha="1/2", beta="1/2", gamma="1", metric_doubling=(2, True),
        ),
        _distortion("tail-distortion", "tail-product.json", "geo:1/2", "geo:1/3", "3,4", seed, True),
    ]


# -- the workloads -------------------------------------------------------------


def _tree_metrics(wd: Path, seed: int, s: dict) -> list[Job]:
    """Tree-induced ultrametrics: few distinct distances, exact covers."""
    rng = random.Random(seed)
    pfile, pn, pc = _weighted_product(wd, "weighted-product.json", s["wprod"])
    tfile, tn, tc = _weighted_tree(wd, "weighted-tree.json", rng.randrange(2**32), s["wtree"], Fraction(1, 3))
    k = s["prod3"]
    return [
        _validate("validate-weighted-product", pfile, pn, "structure,weights,ultrametric,balls=cells", pc),
        _validate("validate-weighted-tree", tfile, tn, "structure,weights,ultrametric,balls=cells", tc),
        _generate("product3", ["product", "--sizes", ",".join(["3"] * k)], 3**k),
        _analyze(
            "analyze-product3", "product3.json", "geo:1/2",
            k1=3, k2="3", alpha="1/2", beta="1/2", gamma="1",
            metric_doubling=(3, True), measure_metric_doubling="3",
        ),
        _analyze("analyze-weighted-tree", tfile, alpha="1/3", beta="1/3", gamma="1"),
        _generate("binary", ["product", "--sizes", "2,2"], 4, 7),
        _distortion("distortion-exact", "binary.json", "geo:1/2", "geo:1/3", s["exact_depths"], seed, True),
        _distortion("distortion-sampled", "binary.json", "geo:1/2", "geo:1/3", s["sampled_depths"], seed, True),
    ]


def _line_metrics(wd: Path, seed: int, s: dict) -> list[Job]:
    """Interval-embedded metrics: ~n^2 distinct distances, greedy covers."""
    rng = random.Random(seed)
    wide = s["fat_wide"]
    thetas = ",".join(f"1/{p}" for p in _primes_above(rng, wide))
    fat, cantor = s["fat"], s["cantor"]
    metric = "structure,intervals,metric"
    return [
        _generate("fat-int64", ["fat-cantor", "--depth", str(s["fat_int"])], 2 ** s["fat_int"]),
        _validate("validate-fat-int64", "fat-int64.json", 2 ** s["fat_int"], metric),
        _generate("fat-wide", ["fat-cantor", "--depth", str(wide), "--theta", thetas], 2**wide),
        _validate("validate-fat-wide", "fat-wide.json", 2**wide, metric),
        _generate("fat", ["fat-cantor", "--depth", str(fat)], 2**fat),
        _analyze("analyze-fat", "fat.json", alpha="3/8", gamma=f"1/{2 ** (fat + 1)}"),
        _generate("cantor", ["cantor", "--depth", str(cantor)], 2**cantor),
        _analyze("analyze-cantor", "cantor.json", alpha="1/3", beta="1/3", gamma="1/3"),
        _generate("fat-sweep", ["fat-cantor", "--depth", "2"], 4, 7),
        _distortion("distortion-reg2", "fat-sweep.json", "euclid", "reg:1/2", s["dist_depths"], seed, False),
        _distortion("distortion-reg3", "fat-sweep.json", "euclid", "reg:1/3", s["dist_depths"], seed, False),
    ]


def _structure(wd: Path, seed: int, s: dict) -> list[Job]:
    """Big trees and no metric work: celltree, formats and spaces."""
    rng = random.Random(seed)
    n = s["random"]
    ffile, fn, fc = _family(wd, "family.json", rng.randrange(2**32), s["family"])
    arity, depth = (int(v) for v in s["ray"].split(","))
    n_prod = math.prod(int(v) for v in s["product"].split(","))
    return [
        _generate(
            "random",
            ["random", "--seed", str(rng.randrange(2**32)), "--points", str(n),
             "--max-branch", "2", "--max-depth", str(BINARY_DEPTH)],
            n, 2 * n - 1,
        ),
        _validate("validate-random", "random.json", n, "structure", 2 * n - 1),
        _validate("validate-family", ffile, fn, "structure", fc),
        _generate("ray", ["ray", "--complete", s["ray"]], arity**depth),
        _validate("validate-ray", "ray.json", arity**depth, "structure"),
        _generate("product", ["product", "--sizes", s["product"]], n_prod),
        _validate("validate-product", "product.json", n_prod, "structure"),
    ]


_BUILDERS = {
    "tree-metrics": _tree_metrics,
    "line-metrics": _line_metrics,
    "structure": _structure,
}


def build(name: str, wd: Path, seed: int, smoke: bool = False) -> list[Job]:
    """Write the workload's input documents into `wd` and return its jobs."""
    sizes = SIZES[name]["smoke" if smoke else "full"]
    return _BUILDERS[name](wd, seed, sizes) + _tail(wd, seed)
