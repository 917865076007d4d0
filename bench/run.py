#!/usr/bin/env python3
"""cellspace benchmark: seeded CLI workloads run in-process, with output checks.

Run from the repository root:

    python3 bench/run.py --workload tree-metrics --seed 0 --seconds 30 --trace 0
    python3 bench/run.py --workload structure --seed 3 --seconds 30 --trace 1
    python3 bench/run.py --smoke              # every workload once, reduced sizes
    python3 bench/run.py --record-digests     # rewrite bench/digests.json

A run writes the workload's input documents, then runs its job list through
`cellspace.cli.main(argv)` in one process, one job at a time (a closed loop
with one client), pass after pass until `--seconds` have been spent.  Every
job's exit code and output are checked; with the default seed the bytes of
its stdout and output files must also match `bench/digests.json`.

`--trace 0` reports the end-to-end metrics: `wall_s` (median over passes of
the time spent in `cli.main`), `setup_s` (median over this process and
four fresh probe processes of the time from importing cellspace to the first
job), `peak_rss_mb` and `pass_frac` (jobs that passed their checks over jobs
attempted, that is 1 - fail_frac).  `--trace 1` alternates untraced and traced passes and reports
per-layer self times and size counters from the traced ones, plus the
tracing overhead; its spans are written to `.bench_results/`.

The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`; the metric names and units are those
declared in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from pathlib import Path

import tracing

# The program runs single-threaded; keep numpy's native pools to one thread.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
DIGESTS = BENCH / "digests.json"
DEFAULT_SEED = 0
SETUP_PROBES = 4


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", help="tree-metrics | line-metrics | structure")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=30.0, help="measuring time")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="one reduced pass per workload")
    p.add_argument("--record-digests", action="store_true")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if not (args.smoke or args.record_digests or args.workload):
        p.error("--workload is required")
    return args


def import_program():
    """Import cellspace from this checkout's src/, or exit 2 if it is absent."""
    if not (SRC / "cellspace" / "__init__.py").is_file():
        print(f"error: no cellspace sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import cellspace
    from cellspace import cli

    if Path(cellspace.__file__).resolve().parent != (SRC / "cellspace").resolve():
        print(f"error: imported cellspace from {cellspace.__file__}", file=sys.stderr)
        sys.exit(2)
    return cli


@contextmanager
def workdir(tag: str):
    """A fresh scratch directory inside the checkout, made the current one."""
    wd = ROOT / ".bench_work" / f"{tag}-{os.getpid()}"
    shutil.rmtree(wd, ignore_errors=True)
    wd.mkdir(parents=True)
    cwd = os.getcwd()
    os.chdir(wd)
    try:
        yield wd
    finally:
        os.chdir(cwd)
        shutil.rmtree(wd, ignore_errors=True)


def digest(stdout: str, wd: Path, outputs) -> str:
    h = hashlib.sha256(stdout.encode("utf-8"))
    for out in outputs:
        path = wd / out
        files = sorted(path.rglob("*")) if path.is_dir() else [path]
        for f in files:
            if f.is_file():
                h.update(b"\0" + f.relative_to(wd).as_posix().encode("utf-8") + b"\0")
                h.update(f.read_bytes())
    return h.hexdigest()


def remove_outputs(wd: Path, job) -> None:
    for out in job.outputs:
        path = wd / out
        if path.is_dir():
            shutil.rmtree(path)
        elif path.exists():
            path.unlink()


class Pass:
    def __init__(self):
        self.times: list[float] = []  # seconds in cli.main, per job
        self.failures: list[str] = []
        self.digests: dict[str, str] = {}
        self.counters: list[dict] = []  # traced passes: size counters per job
        self.spans: list = []  # traced passes: (name, start, end, parent, job)
        self.names: set[str] = set()

    @property
    def wall(self) -> float:
        return sum(self.times)


def run_pass(cli, jobs, wd: Path, want_digests=None, trace: bool = False) -> Pass:
    """Run every job once; timing covers only the call to cli.main."""
    result = Pass()
    tracer = None
    if trace:
        tracer = tracing.Tracer()
        tracer.install()
    try:
        for i, job in enumerate(jobs):
            run_job(cli, i, job, wd, want_digests, tracer, result)
    finally:
        if tracer is not None:
            tracer.uninstall()
            result.spans, result.names = tracer.spans, tracer.names
    return result


def run_job(cli, i, job, wd: Path, want_digests, tracer, result: Pass) -> None:
    remove_outputs(wd, job)
    gc.collect()
    out, err = io.StringIO(), io.StringIO()
    if tracer is not None:
        tracer.begin_job(i)
    with redirect_stdout(out), redirect_stderr(err):
        start = time.perf_counter()
        try:
            rc = cli.main(job.argv)
        except SystemExit as e:  # argparse exits on bad usage
            rc = e.code
        except Exception:  # a traceback is a failed job, not a failed run
            rc = "exception"
            err.write(traceback.format_exc())
        elapsed = time.perf_counter() - start
    if tracer is not None:
        result.counters.append(tracer.end_job())
    result.times.append(elapsed)
    stdout = out.getvalue()
    if rc != job.rc:
        problem = f"exit {rc}, expected {job.rc}: {(stdout + err.getvalue())[-400:]!r}"
    else:
        problem = job.check(stdout, wd)
    result.digests[job.name] = digest(stdout, wd, job.outputs)
    if problem is None and want_digests is not None:
        if want_digests.get(job.name) != result.digests[job.name]:
            problem = "output bytes differ from the recorded digest"
    if problem is not None:
        result.failures.append(f"{job.name}: {problem}")


def info() -> dict:
    import numpy

    src_lines = sum(
        len(p.read_text(encoding="utf-8").splitlines()) for p in SRC.rglob("*.py")
    )
    return {
        "src_lines": src_lines,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
    }


def load_declared() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {
        0: [(m["name"], m["unit"]) for m in spec["end_to_end"]],
        1: [(m["name"], m["unit"]) for m in spec["per_layer"]],
    }


def recorded_digests(mode: str, workload: str, seed: int):
    if seed != DEFAULT_SEED:
        return None
    table = json.loads(DIGESTS.read_text(encoding="utf-8")) if DIGESTS.is_file() else {}
    return table.get(mode, {}).get(workload, {})


def setup_probes(workload: str, seed: int) -> list[float]:
    """Set-up times of fresh processes that import cellspace and write the
    workload's inputs, run one after another."""
    out = []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {proc.stderr[-400:]}")
        out.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return out


def emit(correct: bool, attempted: int, failed: int, values: dict, declared) -> None:
    metrics = {}
    for name, unit in declared:
        if name not in values:
            raise KeyError(f"metric {name} declared in BENCHMARK.json was not measured")
        metrics[name] = {"value": values[name], "unit": unit}
        print(f"metric {name} = {values[name]!r} {unit}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


def write_trace(workload: str, seed: int, jobs, traced, facts) -> Path:
    out = ROOT / ".bench_results" / f"trace-{workload}-seed{seed}.json"
    out.parent.mkdir(exist_ok=True)
    doc = {
        "workload": workload,
        "seed": seed,
        "info": facts,
        "jobs": [{"id": i, "name": j.name, "argv": j.argv} for i, j in enumerate(jobs)],
        "span_fields": ["name", "start", "end", "parent", "job"],
        "passes": [
            {"times": p.times, "counters": p.counters, "spans": p.spans} for p in traced
        ],
    }
    out.write_text(json.dumps(doc), encoding="utf-8")
    return out


def measure(args) -> int:
    t0 = time.perf_counter()
    cli = import_program()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    with workdir(args.workload) as wd:
        jobs = workloads.build(args.workload, wd, args.seed)
        setup = time.perf_counter() - t0
        if args.setup_probe:
            print(json.dumps({"setup_s": setup}))
            return 0
        want = recorded_digests("full", args.workload, args.seed)
        untraced: list[Pass] = []
        traced: list[Pass] = []
        deadline = time.perf_counter() + args.seconds
        while True:
            started = time.perf_counter()
            untraced.append(run_pass(cli, jobs, wd, want))
            if args.trace:
                traced.append(run_pass(cli, jobs, wd, want, trace=True))
            now = time.perf_counter()
            if now + (now - started) > deadline:
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    passes = untraced + traced
    failures = [f for p in passes for f in p.failures]
    attempted = sum(len(p.times) for p in passes)
    for f in failures[:20]:
        print(f"FAILED {f}")
    facts = info()
    wall = [p.wall for p in untraced]
    print("info " + json.dumps(facts))
    print(
        f"passes untraced={len(untraced)} traced={len(traced)} jobs={len(jobs)} "
        f"wall_s min={min(wall):.4f} median={statistics.median(wall):.4f} "
        f"max={max(wall):.4f} fail_frac={len(failures) / attempted!r}"
    )
    for i, job in enumerate(jobs):
        times = [p.times[i] for p in untraced]
        print(f"job {job.name} median={statistics.median(times):.5f} s "
              f"min={min(times):.5f} max={max(times):.5f}")
    if args.trace:
        per_pass = [tracing.layer_metrics(p.spans, p.counters, p.names) for p in traced]
        values = {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
        values["trace.wall_s"] = statistics.median(p.wall for p in traced)
        values["trace.overhead_s"] = values["trace.wall_s"] - statistics.median(wall)
        path = write_trace(args.workload, args.seed, jobs, traced, facts)
        print(f"spans written to {path.relative_to(ROOT)}")
    else:
        probes = setup_probes(args.workload, args.seed)
        values = {
            "wall_s": statistics.median(wall),
            "setup_s": statistics.median([setup] + probes),
            "peak_rss_mb": peak_rss_mb,
            "pass_frac": 1 - len(failures) / attempted,
        }
    emit(not failures, attempted, len(failures), values, load_declared()[args.trace])
    return 0


def smoke(args) -> int:
    """One pass of each workload at reduced size, with the same checks."""
    cli = import_program()
    import workloads

    names = [args.workload] if args.workload else list(workloads.WORKLOADS)
    attempted, failures, values = 0, [], {}
    for name in names:
        with workdir(f"smoke-{name}") as wd:
            jobs = workloads.build(name, wd, args.seed, smoke=True)
            want = recorded_digests("smoke", name, args.seed)
            p = run_pass(cli, jobs, wd, want, trace=bool(args.trace))
        attempted += len(p.times)
        failures += p.failures
        print(f"smoke {name}: jobs={len(p.times)} failed={len(p.failures)} wall_s={p.wall:.4f}")
        if args.trace:
            layer = tracing.layer_metrics(p.spans, p.counters, p.names)
            values.update({f"{name}:{k}": v for k, v in layer.items()})
        else:
            values[f"{name}:wall_s"] = p.wall
    for f in failures:
        print(f"FAILED {f}")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": values}))
    return 0


def record_digests(args) -> int:
    """Run every workload once at the default seed, full and smoke size, and
    store the digests of its outputs."""
    cli = import_program()
    import workloads

    table = {}
    for mode in ("full", "smoke"):
        table[mode] = {}
        for name in workloads.WORKLOADS:
            with workdir(f"record-{name}") as wd:
                jobs = workloads.build(name, wd, DEFAULT_SEED, smoke=mode == "smoke")
                p = run_pass(cli, jobs, wd)
            if p.failures:
                print("\n".join(p.failures), file=sys.stderr)
                return 1
            table[mode][name] = p.digests
            print(f"recorded {mode} {name}: {len(p.digests)} jobs")
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.record_digests:
        return record_digests(args)
    if args.smoke:
        return smoke(args)
    return measure(args)


if __name__ == "__main__":
    sys.exit(main())
