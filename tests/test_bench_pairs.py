"""Bookkeeping of tools/bench_pairs.py, with a stub in place of the benchmark runs."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

METRICS = [{"name": "test_s", "better": "lower"},
           {"name": "tests_per_s", "better": "higher"}]
# test_s and tests_per_s of each (side, pair): the change wins pairs 0 and 2
# on test_s and ties pair 1; it wins pairs 0 and 1 on tests_per_s
VALUES = {("parent", 0): (2.0, 10.0), ("change", 0): (1.0, 11.0),
          ("parent", 1): (3.0, 10.0), ("change", 1): (3.0, 12.0),
          ("parent", 2): (4.0, 13.0), ("change", 2): (2.0, 12.0)}


def stub_runner(calls, incorrect=()):
    def runner(tree, workload, seed, seconds):
        side, pair = "parent" if tree == "parent" else "change", seed - 40
        calls.append((side, seed, workload, seconds))
        test_s, rate = VALUES[side, pair]
        return {"returncode": 0,
                "result": {"correct": (side, pair) not in incorrect,
                           "metrics": {"test_s": {"value": test_s, "unit": "s"},
                                       "tests_per_s": {"value": rate, "unit": "1/s"}}},
                "machine": "2 CPUs", "unscaled": "test_s 1"}
    return runner


def test_pairs_alternate_and_are_counted():
    calls = []
    entry = bench_pairs.compare({"parent": "parent", "change": "change"}, "level_null",
                                3, 2.5, 40, METRICS, stub_runner(calls))
    # one seed per pair, the parent first in even pairs
    assert calls == [("parent", 40, "level_null", 2.5), ("change", 40, "level_null", 2.5),
                     ("change", 41, "level_null", 2.5), ("parent", 41, "level_null", 2.5),
                     ("parent", 42, "level_null", 2.5), ("change", 42, "level_null", 2.5)]
    assert [(run["pair"], run["side"], run["seed"]) for run in entry["runs"]] == [
        (0, "parent", 40), (0, "change", 40), (1, "change", 41), (1, "parent", 41),
        (2, "parent", 42), (2, "change", 42)]
    test_s, rate = entry["summary"]["test_s"], entry["summary"]["tests_per_s"]
    assert test_s["parent"] == {"median": 3.0, "q1": 2.5, "q3": 3.5}
    assert test_s["change"] == {"median": 2.0, "q1": 1.5, "q3": 2.5}
    assert (test_s["change_won"], test_s["parent_won"], test_s["pairs"]) == (2, 0, 3)
    assert (rate["change_won"], rate["parent_won"]) == (2, 1)
    assert entry["machine"] == ["2 CPUs"]
    assert entry["all_correct"]


def test_a_failed_or_incorrect_run_is_flagged():
    entry = bench_pairs.compare({"parent": "parent", "change": "change"}, "w", 3, 1.0,
                                40, METRICS, stub_runner([], incorrect={("change", 1)}))
    assert not entry["all_correct"]

    def crashing(tree, workload, seed, seconds):
        return {"returncode": 1, "result": None}

    entry = bench_pairs.compare({"parent": "parent", "change": "change"}, "w", 1, 1.0,
                                40, METRICS, crashing)
    assert not entry["all_correct"]
    assert entry["summary"]["test_s"] == {"better": "lower", "pairs": 0,
                                          "change_won": 0, "parent_won": 0}


@pytest.mark.parametrize("incorrect, status", [((), 0), ({("parent", 0)}, 1)])
def test_workloads_share_one_output_file(tmp_path, monkeypatch, incorrect, status):
    monkeypatch.setattr(bench_pairs, "git", lambda *args: "f" * 40)
    monkeypatch.setattr(bench_pairs, "export", lambda commit: "parent")
    calls = []
    monkeypatch.setattr(bench_pairs, "run_once", stub_runner(calls, incorrect))
    output = tmp_path / "BENCH.json"
    for workload in ("one", "two"):
        assert bench_pairs.main(["--parent", "HEAD", "--workload", workload, "--pairs",
                                 "1", "--first-seed", "40", "--output", str(output)]) == status
    document = json.loads(output.read_text(encoding="utf-8"))
    assert sorted(document["workloads"]) == ["one", "two"]
    entry = document["workloads"]["two"]
    assert entry["parent"] == {"rev": "HEAD", "commit": "f" * 40}
    assert entry["change"] == {"rev": "working tree", "commit": None}
    assert [run["side"] for run in entry["runs"]] == ["parent", "change"]
    assert set(entry["summary"]) == {"test_s", "tests_per_s", "peak_rss_mb", "setup_s"}
