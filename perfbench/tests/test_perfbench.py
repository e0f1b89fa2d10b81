"""Tests of the benchmark itself.  Run with ``python3 -m pytest perfbench/tests``."""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def test_self_time_of_a_hand_built_span_tree():
    spans = [
        ("root", -1, 0.0, 10.0),
        ("a", 0, 1.0, 4.0),  # children 2 and 3 overlap inside it
        ("a.x", 1, 1.5, 2.5),
        ("a.y", 1, 2.0, 3.0),
        ("b", 0, 5.0, 9.0),
        ("b.z", 4, 4.0, 6.0),  # sticks out of its parent: only 5..6 counts
        ("c", 0, 9.5, 10.0),
    ]
    got = tracing.self_times(spans)
    want = [10.0 - 3.0 - 4.0 - 0.5, 3.0 - 1.5, 1.0, 1.0, 4.0 - 1.0, 2.0, 0.5]
    assert got == pytest.approx(want)


def test_group_of_span_names():
    assert tracing.group_of("motive.MotClass.__rmul__") == "motive.mul"
    assert tracing.group_of("treeop.RootedTree.from_nested") == "treeop.tree"
    assert tracing.group_of("cli.build.strata") == "cli.build"
    assert tracing.group_of("motive.MotClass.to_json") == "motive.other"


def _first_rounds(workload, seed, k):
    gen = workloads.rounds(workload, seed)
    return [next(gen) for _ in range(k)]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_rounds_are_deterministic_per_seed_and_covered_by_refs(workload):
    with open(os.path.join(BENCH, "refs.json"), encoding="utf-8") as fh:
        refs = json.load(fh)
    assert _first_rounds(workload, 5, 3) == _first_rounds(workload, 5, 3)
    assert _first_rounds(workload, 5, 3) != _first_rounds(workload, 6, 3)
    for seed in range(4):
        for batch in _first_rounds(workload, seed, 20):
            assert len(batch) == len(workloads.TEMPLATES[workload])
            for req in batch:
                assert workloads.request_key(req) in refs
    assert {workloads.request_key(r) for r in workloads.all_requests(workload)} <= set(refs)


def test_environment_is_hermetic(monkeypatch):
    monkeypatch.setenv("F1KIT_CACHE_DIR", "/nonexistent")
    monkeypatch.setenv("PYTHONPATH", "/nonexistent")
    co = run.Checkout(ROOT, 12)
    assert "F1KIT_CACHE_DIR" not in co.env
    assert co.env["PYTHONPATH"] == os.path.join(ROOT, "src")
    assert co.env["PYTHONHASHSEED"] == "13"
    assert run.Checkout(ROOT, 12).hashseed == co.hashseed


def test_traced_counts_repeat_exactly(monkeypatch):
    monkeypatch.setitem(run.TRACE_ROUNDS, "combinatorics", 1)
    first, _ = run.run_workload(ROOT, "combinatorics", 3, None, 1)
    second, _ = run.run_workload(ROOT, "combinatorics", 3, None, 1)
    assert first["correct"] and second["correct"]
    assert set(first["metrics"]) == {name for name, _ in run.PER_LAYER}
    counts = [name for name, unit in run.PER_LAYER if unit in ("count", "bits", "bytes")]
    for name in counts:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name
    assert first["metrics"]["treeop.trees_built"]["value"] > 0
    assert first["metrics"]["blueprint.index_set.calls"]["value"] > 0


def _corrupted_checkout(tmp_path):
    shutil.copytree(os.path.join(ROOT, "src"), tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    path = tmp_path / "src" / "f1kit" / "genseries.py"
    text = path.read_text()
    good = "_MBAR0_CACHE[k + 2] = _MBAR0_CACHE[k + 1] + lef * total"
    assert good in text
    path.write_text(text.replace(good, good + " + 1"))
    return str(tmp_path)


@pytest.mark.parametrize("workload", ["classes", "cli"])
def test_corrupted_result_raises_fail_frac(tmp_path, monkeypatch, workload):
    monkeypatch.setattr(run, "MIN_ROUNDS", 1)
    root = _corrupted_checkout(tmp_path)
    result, lines = run.run_workload(root, workload, 1, 4, 0)
    assert result["failed"] > 0
    assert not result["correct"]
    assert "fail_frac=0.0000" not in lines[0]


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "classes", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, timeout=180,
    )
    assert proc.returncode != 0
    assert b"correct" not in proc.stdout
