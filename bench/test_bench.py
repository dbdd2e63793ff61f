"""Self-check of the benchmark harness at a tiny size (30 events, 2 epochs).

    python3 -m pytest bench/test_bench.py -q

Run from the repository root.  It checks that every metric named in
BENCHMARK.json comes out with its unit, that every traced child span lies
inside its parent, that a seed reproduces its artifacts byte for byte,
and that the harness refuses to run without the program's source.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import layers
import run_bench

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run_bench.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def run_tiny(workload, trace, *extra, seed=3):
    proc = bench("--workload", workload, "--seed", str(seed), "--seconds", "1",
                 "--trace", str(trace), "--tiny", *extra)
    lines = proc.stdout.strip().splitlines()
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    return json.loads(lines[-2]), json.loads(lines[-1])


def assert_metrics(result, spec_metrics):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in spec_metrics}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == expected
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), name


def test_spec_matches_harness():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(run_bench.WORKLOADS)
    assert [m["name"] for m in SPEC["per_layer"]] == list(layers.MOVES)
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("workload", list(run_bench.WORKLOADS))
def test_untraced_run_reports_every_end_to_end_metric(workload):
    env, result = run_tiny(workload, 0)
    assert_metrics(result, SPEC["end_to_end"])
    assert env["environment"]["nproc"] >= 1 and env["environment"]["src_lines"] > 0


def test_traced_run_reports_every_layer_metric_and_nests_spans():
    env, result = run_tiny("fit", 1, "--keep")
    work = env["detail"]["work"]
    try:
        assert_metrics(result, SPEC["per_layer"])
        assert result["metrics"]["tensor.tape_ops_per_step"]["value"] == layers.DEFAULT_TAPE_OPS
        span_files = [f for f in os.listdir(os.path.join(work, "traced")) if f.endswith(".spans.json")]
        assert len(span_files) == 6
        for name in span_files:
            with open(os.path.join(work, "traced", name)) as fh:
                spans = json.load(fh)["spans"]
            assert spans and layers.nesting_errors(spans) == []
            assert all(parent < index for index, (_, _, _, parent, _) in enumerate(spans))
    finally:
        shutil.rmtree(work, ignore_errors=True)


def test_same_seed_gives_identical_artifacts():
    first, _ = run_tiny("score", 0, seed=11)
    second, _ = run_tiny("score", 0, seed=11)
    assert first["detail"]["digests"] == second["detail"]["digests"]
    assert len(first["detail"]["digests"]) == 19


def test_nesting_errors_flags_a_child_outside_its_parent():
    spans = [["cli.train", 0.0, 1.0, -1, None], ["training.train", 0.5, 1.5, 0, None]]
    assert layers.nesting_errors(spans) == ["training.train#1 lies outside its parent cli.train#0"]


def test_refuses_to_run_without_the_source():
    bare = os.path.join(ROOT, ".bench_work", "no-source")
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(os.path.join(ROOT, "bench"), os.path.join(bare, "bench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        proc = bench("--workload", "ingest", "--seed", "1", "--seconds", "1", "--trace", "0",
                     cwd=bare)
        assert proc.returncode != 0 and proc.stdout == ""
    finally:
        shutil.rmtree(bare, ignore_errors=True)
