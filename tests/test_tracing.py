"""The benchmark tracer in perfbench/ still finds every function it wraps."""

import importlib
import sys
from pathlib import Path

import numpy as np
import pytest

from nysmmd import ExactMethod, NystromMethod, TestConfig, permutation

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
