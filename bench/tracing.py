"""Span recorder for the traced benchmark run.

`Tracer.install()` replaces each public function of the traced modules, at
every module binding inside the `cellspace` package, with a wrapper that
records a span (name, start, end, parent span, job id).  A few methods that
do heavy work are wrapped on their classes.  `uninstall()` puts the
original objects back, so untraced passes in the same process run the
unmodified program.  Spans stay in memory; the caller writes them out when
the run ends.

The wrappers also keep the arguments and results they see for the current
job.  After the job returns, `job_counters` turns them into size counters
(points, cells, distinct distances, triples, ...) outside the timed region.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import Counter
from math import lcm

PACKAGE = "cellspace"
MODULES = ("cli", "formats", "celltree", "spaces", "metrics", "analysis", "quasisym")

# Per-value helpers, called once per table entry or CSV row; their time
# stays in the caller's self time.
UNWRAPPED = {"formats.frac_str", "formats.parse_frac"}

# (module, class, method, span name)
METHODS = (
    ("metrics", "Geometry", "from_table", "metrics.Geometry.from_table"),
    ("metrics", "Geometry", "from_intervals", "metrics.Geometry.from_intervals"),
    ("metrics", "MetricTable", "check_metric", "metrics.check_metric"),
    ("celltree", "CellTree", "check_invariants", "celltree.check_invariants"),
)

COMMANDS = ("generate", "validate", "analyze", "distortion")

COUNTERS = (
    "celltree.trees",
    "celltree.points",
    "celltree.cells",
    "metrics.tables",
    "metrics.table_entries",
    "metrics.distinct_distances",
    "metrics.checked_tables",
    "metrics.wide_tables",
    "quasisym.profiles",
    "quasisym.triples",
    "quasisym.distinct_pairs",
    "quasisym.sampled_profiles",
    "analysis.doubling_calls",
    "analysis.exact_doubling",
)

_INT64_LIMIT = 2**62  # the limit cellspace.metrics uses for its int64 path


def _span_name(module: str, attr: str) -> str:
    if module == "cli" and attr.startswith("cmd_"):
        return f"cli.{attr[4:]}"
    return f"{module}.{attr}"


class Tracer:
    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index or None, job id)
        self.names: set[str] = set()  # span names of the wrapped functions
        self.job = -1
        self._stack: list[int] = []
        self._observed: list = []  # (span name, args, result) of the current job
        self._patches: list = []  # (owner, attribute, original object)

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, name: str, fn):
        self.names.add(name)
        spans, stack, observed = self.spans, self._stack, self._observed
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (name, start, end, parent, tracer.job)
            observed.append((name, args, result))
            return result

        return traced

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrappers: dict[int, tuple] = {}  # id(original) -> (original, wrapper)
        for short in MODULES:
            mod = importlib.import_module(f"{PACKAGE}.{short}")
            for attr, val in vars(mod).items():
                name = _span_name(short, attr)
                if (
                    inspect.isfunction(val)
                    and val.__module__ == mod.__name__
                    and not attr.startswith("_")
                    and name not in UNWRAPPED
                ):
                    wrappers[id(val)] = (val, self._wrap(name, val))
        # rebind at every module binding: `from .x import f` made copies
        for modname, mod in list(sys.modules.items()):
            if modname != PACKAGE and not modname.startswith(PACKAGE + "."):
                continue
            for attr, val in list(vars(mod).items()):
                hit = wrappers.get(id(val))
                if hit is not None and hit[0] is val:
                    self._patches.append((mod, attr, val))
                    setattr(mod, attr, hit[1])
        for short, cls_name, meth, name in METHODS:
            cls = getattr(importlib.import_module(f"{PACKAGE}.{short}"), cls_name)
            raw = cls.__dict__[meth]
            if isinstance(raw, classmethod):
                new = classmethod(self._wrap(name, raw.__func__))
            else:
                new = self._wrap(name, raw)
            self._patches.append((cls, meth, raw))
            setattr(cls, meth, new)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- jobs ----------------------------------------------------------------

    def begin_job(self, job: int) -> None:
        self.job = job
        self._observed.clear()

    def end_job(self) -> dict:
        """Size counters of the job just finished; drops the kept objects."""
        counters = job_counters(self._observed)
        self._observed.clear()
        self.job = -1
        return counters


# -- counters ----------------------------------------------------------------


def _table_facts(table) -> tuple[int, bool]:
    """(distinct positive distances, whether the table is too wide for int64)."""
    values = {v for row in table.rows for v in row}
    values.discard(0)
    if not table.exact:
        return len(values), False
    den = 1
    for v in values:
        den = lcm(den, v.denominator)
    wide = den >= _INT64_LIMIT or 2 * max(values, default=0) * den >= _INT64_LIMIT
    return len(values), wide


def job_counters(observed) -> dict:
    c: Counter = Counter()
    built: dict[int, object] = {}  # distance tables built by the job
    checked: dict[int, object] = {}  # tables given to a metric check
    for name, args, result in observed:
        if name in ("celltree.cells_of", "celltree.validate_family"):
            c["celltree.trees"] += 1
            c["celltree.points"] += result.n_points
            c["celltree.cells"] += result.n_cells
        elif name in ("metrics.ultrametric_from_weight", "formats.table_from_csv"):
            built[id(result)] = result
        elif name in ("metrics.Geometry.from_table", "metrics.Geometry.from_intervals"):
            built[id(result.table)] = result.table
        elif name in ("metrics.check_metric", "metrics.validate_ultrametric"):
            checked[id(args[0])] = args[0]
        elif name == "quasisym.distortion_profile":
            c["quasisym.profiles"] += 1
            c["quasisym.triples"] += result.n_triples
            c["quasisym.distinct_pairs"] += len(result.pairs)
            c["quasisym.sampled_profiles"] += int(result.sampled)
        elif name == "analysis.metric_doubling_constant":
            c["analysis.doubling_calls"] += 1
            c["analysis.exact_doubling"] += int(result.exact)
    for table in built.values():
        distinct, _ = _table_facts(table)
        c["metrics.tables"] += 1
        c["metrics.table_entries"] += table.n * table.n
        c["metrics.distinct_distances"] += distinct
    for table in checked.values():
        c["metrics.checked_tables"] += 1
        c["metrics.wide_tables"] += int(_table_facts(table)[1])
    return dict(c)


# -- per-layer metrics -------------------------------------------------------


def layer_metrics(spans, counters, names) -> dict:
    """Self and total times by span name and module, plus summed counters.

    A span's self time is its duration minus its children's durations;
    spans run on one thread, so children never overlap each other.
    """
    child = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent is not None:
            child[parent] += end - start
    self_s: Counter = Counter({name: 0.0 for name in names})
    total_s: Counter = Counter()
    for i, (name, start, end, _, _) in enumerate(spans):
        self_s[name] += (end - start) - child[i]
        total_s[name] += end - start
    out = {f"{name}.self_s": v for name, v in self_s.items()}
    for module in MODULES:
        out[f"{module}.self_s"] = sum(
            v for name, v in self_s.items() if name.startswith(module + ".")
        )
    for cmd in COMMANDS:
        out[f"cli.{cmd}.s"] = total_s[f"cli.{cmd}"]
    summed: Counter = Counter()
    for job in counters:
        summed.update(job)
    out.update((key, summed[key]) for key in COUNTERS)
    calls = summed["analysis.doubling_calls"]
    out["analysis.exact_ratio"] = summed["analysis.exact_doubling"] / calls if calls else 0.0
    out["trace.spans"] = len(spans)
    return out
