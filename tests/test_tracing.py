"""The benchmark in perfbench/ still finds every function it wraps or calls."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import nysmmd
from nysmmd import (
    ExactMethod,
    NystromMethod,
    TestConfig,
    permutation,
    sample_correlated_gaussians,
    write_csv,
)

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def lookup(module_name, attribute):
    owner = importlib.import_module(module_name)
    for part in attribute.split("."):
        owner = getattr(owner, part)
    return owner


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    return importlib.import_module("tracing")


def test_tracer_wraps_and_restores_every_target(tracing):
    originals = [lookup(module, attribute) for module, attribute, _ in tracing.TARGETS]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        wrapped = [lookup(module, attribute) for module, attribute, _ in tracing.TARGETS]
        rng = np.random.default_rng(0)
        x = rng.standard_normal((40, 2))
        y = rng.standard_normal((40, 2))
        config = TestConfig(n_permutations=19)
        permutation.run_test(x, y, config, NystromMethod(4, "akrls"))
        permutation.run_test(x, y, config, ExactMethod())
    finally:
        tracer.restore()
    for original, wrapper in zip(originals, wrapped):
        assert wrapper is not original
        assert wrapper.__wrapped__ is original
    restored = [lookup(module, attribute) for module, attribute, _ in tracing.TARGETS]
    assert all(a is b for a, b in zip(restored, originals))
    # the permutation-module globals are the names run_test calls at run time
    names = {span.name for span in tracer.spans}
    assert {"kernels.median_heuristic", "leverage.approx_krls",
            "leverage.sample_landmarks", "features.build_nystrom",
            "statistics.permuted_statistics", "statistics.accumulate",
            "statistics.permutation_weights", "permutation.decide",
            tracing.ROOT_SPAN} <= names


def test_worker_traces_and_checks_a_cli_test(tmp_path):
    # The cli_akrls workload's path: a traced `nysmmd test` process, the
    # orchestrator's splice of its JSON into the dump, and the recomputation.
    for name, rho, seed in (("x.csv", 0.2, 0), ("y.csv", 0.8, 1)):
        write_csv(sample_correlated_gaussians(300, 3, rho, seed), tmp_path / name)
    src = Path(nysmmd.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1", "PYTHONPATH": str(src)}
    worker = [sys.executable, str(PERFBENCH / "worker.py")]
    dump = tmp_path / "dump.json"
    test = subprocess.run(
        [*worker, "cli", str(dump), "--", "test", "--x", str(tmp_path / "x.csv"),
         "--y", str(tmp_path / "y.csv"), "--method", "nystrom-akrls"],
        env=env, capture_output=True, text=True, timeout=300)
    assert test.returncode == 3, test.stderr
    record = json.loads(dump.read_text(encoding="utf-8"))
    record["outcome"] = json.loads(test.stdout)
    dump.write_text(json.dumps(record), encoding="utf-8")
    check = subprocess.run([*worker, "check-cli", str(tmp_path), str(dump)],
                           env=env, capture_output=True, text=True, check=True,
                           timeout=300)
    checked = json.loads(check.stdout.splitlines()[-1])
    assert checked["incorrect"] == []
    assert len(checked["ranks"]) == 1
