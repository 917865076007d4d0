"""Command-line front end: generate | validate | analyze | distortion.

Every run is fully determined by its arguments (randomness sits behind a
single 64-bit seed), so identical invocations produce byte-identical files.
Exit codes: 0 all checks pass, 1 a property violation was found, 2 bad
input or usage, or out of memory.
"""

from __future__ import annotations

import argparse
import functools
import sys
from fractions import Fraction
from pathlib import Path

from . import analysis, formats, metrics, quasisym, spaces
from .errors import CellSpaceError, FormatError, PointSetMismatch

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2


def _fracs(text: str) -> list[Fraction]:
    return [formats.parse_frac(part) for part in text.split(",") if part]


def _ints(text: str) -> list[int]:
    return [int(part) for part in text.split(",") if part]


def parse_grid(spec: str) -> list[Fraction]:
    """Either "pow2:LO:HI" (powers of two) or a comma list of rationals."""
    if spec.startswith("pow2:"):
        _, lo, hi = spec.split(":")
        return [Fraction(2) ** j for j in range(int(lo), int(hi) + 1)]
    return _fracs(spec)


def _emit(args, text: str, counts: str | None = None) -> None:
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
        if counts:
            print(counts)
    else:
        sys.stdout.write(text)
        if counts:
            print(counts, file=sys.stderr)


# -- generate ----------------------------------------------------------------


def cmd_generate(args) -> int:
    kind = args.kind
    embedding = None
    if kind == "product":
        if not args.sizes:
            raise CellSpaceError("product needs --sizes")
        spec = spaces.ProductSpec(tuple(_ints(args.sizes)))
        tree = spaces.product_space(spec)
        generator = {"kind": "product", "sizes": list(spec.sizes)}
    elif kind == "cantor":
        tree, embedding = spaces.cantor(args.depth)
        generator = {"kind": "cantor", "depth": args.depth}
    elif kind == "fat-cantor":
        thetas = _fracs(args.theta) if args.theta else None
        tree, embedding = spaces.fat_cantor(args.depth, thetas)
        generator = {
            "kind": "fat-cantor",
            "depth": args.depth,
            "thetas": None if thetas is None else [str(t) for t in thetas],
        }
    elif kind == "random":
        tree = spaces.random_laminar(
            args.seed, args.max_branch, args.max_depth, args.points
        )
        generator = {
            "kind": "random",
            "seed": args.seed,
            "max_branch": args.max_branch,
            "max_depth": args.max_depth,
            "n_points": args.points,
        }
    elif kind == "ray":
        if args.complete:
            arity, depth = _ints(args.complete)
            tree = spaces.complete_rays(arity, depth)
            generator = {"kind": "ray", "complete": [arity, depth]}
        elif args.tree:
            text = Path(args.tree).read_text(encoding="utf-8")
            tree = spaces.ray_space(formats.load_tree(text))
            generator = {"kind": "ray"}
        else:
            raise CellSpaceError("ray needs --complete N,L or --tree FILE")
    else:  # pragma: no cover - argparse restricts choices
        raise CellSpaceError(f"unknown kind {kind!r}")
    text = formats.space_to_json(tree, embedding=embedding, generator=generator)
    _emit(args, text, f"points={tree.n_points} cells={tree.n_cells}")
    return EXIT_OK


# -- validate ----------------------------------------------------------------


def cmd_validate(args) -> int:
    try:
        text = Path(args.file).read_text(encoding="utf-8")
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    try:
        loaded = formats.load_space(text, strict=args.strict_base)
    except FormatError as e:
        print(f"malformed input: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (CellSpaceError, ValueError) as e:
        print(f"FAIL: {e}")
        return EXIT_VIOLATION
    tree = loaded.tree
    tree.check_invariants()
    checks = ["structure"]
    if loaded.weights is not None:
        table = metrics.ultrametric_from_weight(tree, loaded.weights)
        verdict = metrics.validate_ultrametric(table)
        if not verdict.ok:
            print(f"FAIL: ultrametric inequality, witness {verdict.witness}")
            return EXIT_VIOLATION
        bc = metrics.balls_equal_cells(tree, table)
        if not bc.ok:
            wit = bc.cell_failures or bc.ball_failures
            print(f"FAIL: ball-cell correspondence, witness {wit[0]}")
            return EXIT_VIOLATION
        checks += ["weights", "ultrametric", "balls=cells"]
    if loaded.embedding is not None:
        g = metrics.Geometry.from_intervals(tree, loaded.embedding)
        mv = g.table.check_metric()
        if not mv.ok:
            print(f"FAIL: {mv.reason}, witness {mv.witness}")
            return EXIT_VIOLATION
        checks += ["intervals", "metric"]
    print(f"OK: points={tree.n_points} cells={tree.n_cells} checks={','.join(checks)}")
    return EXIT_OK


# -- analyze -----------------------------------------------------------------


def _metric_spec_table(spec: str, tree, embedding=None, weights=None):
    """The distance table of a metric spec on the points of `tree`."""
    if spec == "auto":
        if embedding is not None:
            spec = "euclid"
        elif weights is not None:
            spec = "weights"
        else:
            spec = "reg:1/2"
    if spec == "euclid":
        if embedding is None:
            raise CellSpaceError("metric 'euclid' needs per-leaf intervals")
        return metrics.interval_table(tree, embedding)
    if spec == "weights":
        if weights is None:
            raise CellSpaceError("metric 'weights' needs weights in the file")
        w = weights
    elif spec.startswith("reg:"):
        w = analysis.synthesize_regular_weight(tree, formats.parse_frac(spec[4:]))
    elif spec.startswith("geo:"):
        base = formats.parse_frac(spec[4:])
        depth = max(tree.depth[c] for c in tree.leaves())
        w = metrics.weight_from_sequence(tree, [base**i for i in range(depth + 1)])
    elif spec.startswith("seq:"):
        w = metrics.weight_from_sequence(tree, _fracs(spec[4:]))
    elif spec.startswith("csv:"):
        table = formats.table_from_csv(Path(spec[4:]).read_text(encoding="utf-8"))
        if not (verdict := table.check_metric()).ok:
            raise FormatError(f"not a metric: {verdict.reason}, witness {verdict.witness}")
        if tuple(table.labels) != tuple(tree.points):
            raise PointSetMismatch("table labels differ from tree points")
        return table
    else:
        raise CellSpaceError(f"unknown metric spec {spec!r}")
    return metrics.ultrametric_from_weight(tree, w)


def _metric_spec_geometry(spec: str, tree, embedding=None, weights=None):
    """The geometry of a metric spec: interval hulls for `euclid` (also
    when `auto` picks it), table diameters otherwise."""
    if spec in ("euclid", "auto") and embedding is not None:
        return metrics.Geometry.from_intervals(tree, embedding)
    return metrics.Geometry.from_table(tree, _metric_spec_table(spec, tree, embedding, weights))


def cmd_analyze(args) -> int:
    loaded = formats.load_space(Path(args.file).read_text(encoding="utf-8"))
    tree = loaded.tree
    mu = loaded.measure or analysis.MeasureAtoms.uniform(tree)
    g = _metric_spec_geometry(args.metric, tree, loaded.embedding, loaded.weights)
    report = analysis.metric_regularity(tree, g)
    k1 = analysis.cell_doubling_constant(tree)
    k2 = analysis.measure_cell_doubling(tree, mu)
    md = analysis.metric_doubling_constant(g)
    mmd = analysis.measure_metric_doubling(g, mu)

    def fr(v):
        return None if v is None else formats.frac_str(v)

    order, runs = tree.leaf_order

    @functools.cache
    def cell_str(c: int) -> str:  # each distinct witness cell once: its labels, sorted
        return "{" + ",".join(sorted(map(tree.points.__getitem__, order[runs[c]].tolist()))) + "}"

    def edge(w):
        return None if w is None else [cell_str(c) for c in w]

    obj = {
        "k1": k1,
        "k2": formats.frac_str(k2),
        "alpha": fr(report.alpha),
        "beta": fr(report.beta),
        "gamma": fr(report.gamma),
        "sibling_separation_ratio": fr(report.sibling_separation_ratio),
        "regularity_pass": report.passes(),
        "metric_doubling": {
            "value": md.value,
            "exact": md.exact,
            "witness": None
            if md.witness is None
            else [md.witness[0], formats.frac_str(md.witness[1])],
        },
        "measure_metric_doubling": formats.frac_str(mmd),
        "witnesses": {
            "alpha": edge(report.alpha_witness),
            "beta": edge(report.beta_witness),
            "gamma": edge(report.gamma_witness),
        },
    }
    if args.format == "json":
        _emit(args, formats.dumps(obj))
    else:
        lines = []
        for key in (
            "k1",
            "k2",
            "alpha",
            "beta",
            "gamma",
            "sibling_separation_ratio",
            "regularity_pass",
        ):
            lines.append(f"{key}\t{obj[key]}")
        lines.append(f"metric_doubling\t{md.value}{'' if md.exact else ' (upper bound)'}")
        lines.append(f"measure_metric_doubling\t{obj['measure_metric_doubling']}")
        for name in ("alpha", "beta", "gamma"):
            lines.append(f"witness_{name}\t{obj['witnesses'][name]}")
        _emit(args, "\n".join(lines) + "\n")
    return EXIT_OK


# -- distortion --------------------------------------------------------------


def _int_list(generator: dict, key: str) -> list[int]:
    """generator[key] as a nonempty list of integers, else a FormatError."""
    value = generator.get(key)
    if not (isinstance(value, list) and value and all(type(v) is int for v in value)):
        raise FormatError(f"generator {key!r} must be a nonempty list of integers, got {value!r}")
    return value


def _regenerate(generator, depth: int):
    if not isinstance(generator, dict):
        raise FormatError(f"generator metadata must be an object, got {generator!r}")
    kind = generator.get("kind")
    if kind == "product":
        sizes = _int_list(generator, "sizes")
        if len(set(sizes)) != 1:
            raise CellSpaceError("depth sweep needs uniform product sizes")
        return spaces.product_space(spaces.ProductSpec((sizes[0],) * depth)), None
    if kind == "cantor":
        return spaces.cantor(depth)
    if kind == "fat-cantor":
        thetas = generator.get("thetas")
        if thetas is not None:
            if not isinstance(thetas, list):
                raise FormatError(f"generator 'thetas' must be a list, got {thetas!r}")
            thetas = [formats.parse_frac(t) for t in thetas]
            if len(thetas) != depth:
                raise CellSpaceError(
                    "explicit theta schedule does not cover the requested depth"
                )
        return spaces.fat_cantor(depth, thetas)
    if kind == "ray" and generator.get("complete"):
        arity = _int_list(generator, "complete")[0]
        return spaces.complete_rays(arity, depth), None
    raise CellSpaceError(f"generator {kind!r} does not support depth sweeps")


def cmd_distortion(args) -> int:
    loaded = formats.load_space(Path(args.file).read_text(encoding="utf-8"))
    if loaded.generator is None:
        raise CellSpaceError("file lacks generator metadata; cannot sweep depths")
    depths = _ints(args.depths)
    if len(set(depths)) < 2:
        raise CellSpaceError("need at least two --depths")
    if not args.tol >= 0:
        raise CellSpaceError(f"--tol must be nonnegative, got {args.tol}")
    grid = parse_grid(args.grid)
    quasisym.check_grid(grid)
    # every depth is regenerated (and size-checked) before any output is written
    spaces_by_depth = {depth: _regenerate(loaded.generator, depth) for depth in sorted(depths)}
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    profiles = {}
    for depth, (tree, embedding) in spaces_by_depth.items():
        table_a = _metric_spec_table(args.metric_a, tree, embedding)
        table_b = _metric_spec_table(args.metric_b, tree, embedding)
        prof = quasisym.distortion_profile(table_a, table_b, seed=args.seed)
        profiles[depth] = prof
        (outdir / f"profile_depth{depth}.csv").write_text(
            formats.profile_to_csv(prof), encoding="utf-8"
        )
        (outdir / f"envelope_depth{depth}.csv").write_text(
            formats.envelope_to_csv(quasisym.envelope_eval(prof, grid)),
            encoding="utf-8",
        )
    verdict = quasisym.qs_verdict(profiles, grid, tol=args.tol)
    (outdir / "verdict.json").write_text(
        formats.dumps(formats.verdict_to_obj(verdict)), encoding="utf-8"
    )
    if verdict.passed:
        print(f"PASS: {verdict.reason}")
        return EXIT_OK
    print(
        f"FAIL: {verdict.reason}"
        + (f" at t={verdict.offending_t}" if verdict.offending_t is not None else "")
        + (f" witness={verdict.witness}" if verdict.witness else "")
    )
    return EXIT_VIOLATION


# -- parser ------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: `main` looks each
    command up by name when it runs, so none is bound in here."""
    p = argparse.ArgumentParser(
        prog="cellspace",
        description="Finite cellular spaces: generators, validators, doubling "
        "and regularity analysis, quasisymmetric distortion verdicts.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="write a space as cellspace-v1 JSON")
    g.add_argument(
        "kind", choices=["product", "cantor", "fat-cantor", "random", "ray"]
    )
    g.add_argument("--sizes", help="comma list of level sizes (product)")
    g.add_argument("--depth", type=int, default=3, help="truncation depth")
    g.add_argument("--theta", help="comma list of gap proportions (fat-cantor)")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--points", type=int, default=16, help="point count (random)")
    g.add_argument("--max-branch", type=int, default=4)
    g.add_argument("--max-depth", type=int, default=8)
    g.add_argument("--tree", help="JSON rooted tree file (ray)")
    g.add_argument("--complete", help="N,L complete tree shorthand (ray)")
    g.add_argument("--out", help="output path (default stdout)")

    v = sub.add_parser("validate", help="check a space file")
    v.add_argument("file")
    v.add_argument(
        "--strict-base",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="reject families missing singleton cells (lenient mode inserts them)",
    )

    a = sub.add_parser("analyze", help="doubling and regularity constants")
    a.add_argument("file")
    a.add_argument(
        "--metric",
        default="auto",
        help="auto | euclid | weights | reg:B | geo:B | seq:a,b,... | csv:PATH",
    )
    a.add_argument("--format", choices=["json", "table"], default="table")
    a.add_argument("--out", help="output path (default stdout)")

    d = sub.add_parser("distortion", help="cross-depth quasisymmetry verdict")
    d.add_argument("file", help="space file with generator metadata")
    d.add_argument("metric_a", help="metric spec for d")
    d.add_argument("metric_b", help="metric spec for d-tilde")
    d.add_argument("--depths", required=True, help="comma list, two or more")
    d.add_argument("--grid", default="pow2:-12:2")
    d.add_argument("--tol", type=float, default=1e-9)
    d.add_argument("--seed", type=int, default=0)
    d.add_argument("--out", default="distortion-out", help="output directory")
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    command = globals()["cmd_" + args.command]  # read per call: a rebound cmd_* is the one run
    try:
        return command(args)
    except FormatError as e:
        print(f"malformed input: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (OSError, ValueError) as e:  # includes CellSpaceError, JSONDecodeError
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as e:  # numpy's failed allocations among them
        print(f"error: out of memory: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
