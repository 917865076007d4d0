"""Tests of the benchmark harness itself; they use the reduced smoke sizes.

    python3 -m pytest -q bench
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracing  # noqa: E402

cli = run.import_program()
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _run(*argv, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", *argv],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def test_benchmark_json_follows_the_contract():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert SPEC["command"] == ["python3", "bench/run.py"]
    assert SPEC["paths"] == ["bench"]
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 <= m["bound"] <= 0.25
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    runs = 4 + 22 * len(SPEC["workloads"])
    assert runs * (SPEC["run_seconds"] + 10) <= 3420


def test_smoke_passes_every_check():
    proc = _run("--smoke")
    assert proc.returncode == 0, proc.stderr
    result = _last_json(proc.stdout)
    assert result["correct"] and result["failed"] == 0
    with run.workdir("test-count") as wd:
        jobs = [workloads.build(w, wd, 0, smoke=True) for w in workloads.WORKLOADS]
    assert result["attempted"] == sum(len(j) for j in jobs)


def test_smoke_trace_measures_every_layer_on_every_workload():
    proc = _run("--smoke", "--trace", "1", "--seed", "3")
    assert proc.returncode == 0, proc.stderr
    result = _last_json(proc.stdout)
    assert result["correct"]
    values = result["metrics"]
    for w in workloads.WORKLOADS:
        for m in SPEC["per_layer"]:
            if m["name"].startswith("trace."):
                continue  # needs an untraced pass beside the traced one
            value = values[f"{w}:{m['name']}"]
            if m["unit"] == "s":
                assert value > 0, (w, m["name"])


def test_recorded_digests_are_checked():
    with run.workdir("test-digests") as wd:
        jobs = workloads.build("line-metrics", wd, run.DEFAULT_SEED, smoke=True)
        want = run.recorded_digests("smoke", "line-metrics", run.DEFAULT_SEED)
        assert set(want) == {job.name for job in jobs}
        good = run.run_pass(cli, jobs[:2], wd, want)
        bad = run.run_pass(cli, jobs[:2], wd, {k: "0" * 64 for k in want})
    assert good.failures == []
    assert len(bad.failures) == 2 and "digest" in bad.failures[0]
    assert run.recorded_digests("smoke", "line-metrics", run.DEFAULT_SEED + 1) is None


def test_wrong_exit_code_and_failed_check_count_as_failures():
    # argparse's exit 2 on bad usage is the command's exit code, as in a shell
    with run.workdir("test-fail") as wd:
        ok = workloads.Job("ok", ["generate", "product", "--sizes", "2,2"], 0)
        wrong_rc = workloads.Job("rc", ["validate", "missing.json"], 0)
        wrong_out = workloads.Job(
            "out", ["generate", "product", "--sizes", "2,2"], 0, lambda out, wd: "bad"
        )
        usage = workloads.Job("usage", ["generate", "nonsense"], 2)
        p = run.run_pass(cli, [ok, wrong_rc, wrong_out, usage], wd)
    assert [f.split(":")[0] for f in p.failures] == ["rc", "out"]


def test_tracer_restores_the_program():
    from cellspace import celltree, formats, metrics

    before = (formats.cells_of, metrics.Geometry.__dict__["from_table"], celltree.CellTree.check_invariants)
    t = tracing.Tracer()
    t.install()
    try:
        assert formats.cells_of is not before[0]
        assert formats.cells_of is celltree.cells_of
    finally:
        t.uninstall()
    after = (formats.cells_of, metrics.Geometry.__dict__["from_table"], celltree.CellTree.check_invariants)
    assert after == before


def test_self_time_subtracts_children():
    spans = [
        ("cli.main", 0.0, 10.0, None, 0),
        ("cli.validate", 1.0, 9.0, 0, 0),
        ("formats.load_space", 2.0, 5.0, 1, 0),
        ("celltree.cells_of", 3.0, 4.0, 2, 0),
        ("celltree.check_invariants", 6.0, 8.5, 1, 0),
    ]
    m = tracing.layer_metrics(spans, [{"celltree.cells": 7}], {"quasisym.qs_verdict"})
    assert m["cli.main.self_s"] == pytest.approx(2.0)
    assert m["cli.validate.self_s"] == pytest.approx(2.5)
    assert m["cli.validate.s"] == pytest.approx(8.0)
    assert m["formats.load_space.self_s"] == pytest.approx(2.0)
    assert m["celltree.self_s"] == pytest.approx(3.5)
    assert m["cli.self_s"] == pytest.approx(4.5)
    assert m["quasisym.qs_verdict.self_s"] == 0.0
    assert m["celltree.cells"] == 7 and m["quasisym.triples"] == 0


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "structure", "--seed", "0", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
