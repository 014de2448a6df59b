"""Spans around the public functions of nysmmd, recorded from outside the package.

`Tracer.install` replaces each function in TARGETS, under every name its
callers look it up by, with a wrapper that records a span: name, start,
end, the test it belongs to and the time its child spans cover.  Spans are
kept in memory; `restore` puts the original functions back.  Each
`permutation.run_test` call that no other run_test encloses opens a test,
and every span nested under it in the same thread belongs to that test.

Only the standard library is imported at module level: the orchestrator
summarises the traces of `nysmmd test` processes with `layer_metrics`.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import statistics
import threading
import time
import tracemalloc

from common import MB

ROOT_SPAN = "permutation.run_test"
# (module, attribute, span name).  A function imported by name into several
# modules is wrapped in each, because its callers look it up there.
TARGETS = (
    ("nysmmd.permutation", "run_test", ROOT_SPAN),
    ("nysmmd.cli", "run_test", ROOT_SPAN),
    ("nysmmd.bench", "run_test", ROOT_SPAN),
    ("nysmmd.bench", "estimate_rate", "bench.estimate_rate"),
    ("nysmmd.permutation", "median_heuristic", "kernels.median_heuristic"),
    ("nysmmd.permutation", "approx_krls", "leverage.approx_krls"),
    ("nysmmd.permutation", "sample_landmarks", "leverage.sample_landmarks"),
    ("nysmmd.permutation", "build_nystrom", "features.build_nystrom"),
    ("nysmmd.permutation", "permuted_statistics", "statistics.permuted_statistics"),
    ("nysmmd.permutation", "permutation_weights", "statistics.permutation_weights"),
    ("nysmmd.permutation", "decide", "permutation.decide"),
    ("nysmmd.statistics", "permutation_weights", "statistics.permutation_weights"),
    ("nysmmd.statistics", "accumulate_weighted_features", "statistics.accumulate"),
    ("nysmmd.features", "NystromMap.features", "features.features"),
    ("nysmmd.linalg", "psd_eigh", "linalg.psd_eigh"),
    ("nysmmd.leverage", "psd_eigh", "linalg.psd_eigh"),
    ("nysmmd.data", "load_csv", "data.load_csv"),
    ("nysmmd.bench", "load_csv", "data.load_csv"),
    ("nysmmd.data", "write_csv", "data.write_csv"),
)
# Spans whose tracemalloc peak above their entry level is recorded.  Neither
# encloses the other, so resetting the peak at entry loses nothing.
MEMORY_SPANS = ("leverage.approx_krls", "statistics.permutation_weights")

TOTAL, SELF, CALLS = 0, 1, 2
# (metric, span, field): per-test medians of span totals, self times and
# call counts.
SPAN_METRICS = (
    ("data.load_csv_s", "data.load_csv", TOTAL),
    ("kernels.median_heuristic_s", "kernels.median_heuristic", TOTAL),
    ("leverage.approx_krls_s", "leverage.approx_krls", TOTAL),
    ("leverage.sample_landmarks_s", "leverage.sample_landmarks", TOTAL),
    ("linalg.psd_eigh_s", "linalg.psd_eigh", TOTAL),
    ("linalg.psd_eigh_calls", "linalg.psd_eigh", CALLS),
    ("features.build_nystrom_s", "features.build_nystrom", TOTAL),
    ("features.features_s", "features.features", TOTAL),
    ("features.features_calls", "features.features", CALLS),
    ("statistics.permutation_weights_s", "statistics.permutation_weights", TOTAL),
    ("statistics.accumulate_self_s", "statistics.accumulate", SELF),
    ("permutation.run_test_s", ROOT_SPAN, TOTAL),
    ("permutation.run_test_self_s", ROOT_SPAN, SELF),
    ("permutation.decide_s", "permutation.decide", TOTAL),
)


def _capture_run_test(store, arguments, result):
    store["n"] = len(arguments["x"]) + len(arguments["y"])
    store["permutations"] = arguments["config"].n_permutations
    store["statistic"] = result.statistic
    store["reject"] = result.reject
    store["bandwidth"] = result.bandwidth


def _capture_landmarks(store, arguments, result):
    store["landmarks"] = result.points


def _capture_map(store, arguments, result):
    store["dimension"] = result.dimension
    store["rank_tolerance"] = result.rank_tolerance


CAPTURES = {
    ROOT_SPAN: _capture_run_test,
    "leverage.sample_landmarks": _capture_landmarks,
    "features.build_nystrom": _capture_map,
}


class Span:
    __slots__ = ("name", "test", "start", "end", "child_s")

    def __init__(self, name, test):
        self.name = name
        self.test = test
        self.child_s = 0.0


class Tracer:
    """Span recorder for the functions in TARGETS.

    Args:
        memory: Record the tracemalloc peak of each MEMORY_SPANS call; the
            caller starts tracemalloc.
    """

    def __init__(self, memory: bool = False):
        self.memory = memory
        self.spans: list[Span] = []
        self.captures: dict[int | None, dict] = {}
        self.peaks: dict[str, list[int]] = {}
        self._local = threading.local()
        self._tests = itertools.count()
        self._patched = []

    def install(self) -> None:
        for module_name, attribute, name in TARGETS:
            owner = importlib.import_module(module_name)
            owner_path, _, attribute = attribute.rpartition(".")
            if owner_path:
                owner = getattr(owner, owner_path)
            original = getattr(owner, attribute)
            self._patched.append((owner, attribute, original))
            setattr(owner, attribute, self._wrap(original, name))

    def restore(self) -> None:
        while self._patched:
            owner, attribute, original = self._patched.pop()
            setattr(owner, attribute, original)

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, original, name):
        capture = CAPTURES.get(name)
        signature = inspect.signature(original) if capture else None
        measure_memory = self.memory and name in MEMORY_SPANS
        peaks = self.peaks.setdefault(name, []) if measure_memory else None

        @functools.wraps(original)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else None
            if name == ROOT_SPAN and (parent is None or parent.test is None):
                test = next(self._tests)
            else:
                test = parent.test if parent is not None else None
            span = Span(name, test)
            stack.append(span)
            if measure_memory:
                base = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
            span.start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if parent is not None:
                    parent.child_s += span.end - span.start
                self.spans.append(span)
            if measure_memory:
                peaks.append(tracemalloc.get_traced_memory()[1] - base)
            if capture is not None:
                arguments = signature.bind(*args, **kwargs).arguments
                capture(self.captures.setdefault(test, {}), arguments, result)
            return result

        return traced

    def layers(self) -> dict[int | None, dict[str, list]]:
        """{test: {span name: [total_s, self_s, calls]}}; key None is outside any test."""
        out: dict[int | None, dict[str, list]] = {}
        for span in self.spans:
            entry = out.setdefault(span.test, {}).setdefault(span.name, [0.0, 0.0, 0])
            duration = span.end - span.start
            entry[TOTAL] += duration
            entry[SELF] += duration - span.child_s
            entry[CALLS] += 1
        return out

    def peak_mb(self, name: str) -> float:
        """Largest recorded tracemalloc peak of a MEMORY_SPANS span, or 0."""
        return max(self.peaks.get(name, ()), default=0) / MB


def map_metrics(captures: list[dict]) -> dict[str, float]:
    """Per-test medians of the feature map's dimension and the accumulation's work."""
    return {
        "features.dimension": statistics.median(c["dimension"] for c in captures),
        "statistics.accumulate_gflop": statistics.median(
            2 * (c["permutations"] + 1) * c["n"] * c["dimension"] / 1e9
            for c in captures),
    }


def layer_metrics(tests: list[dict[str, list]]) -> dict[str, float]:
    """Per-test medians of SPAN_METRICS over per-test layer tables."""
    metrics = {}
    for metric, span, field in SPAN_METRICS:
        values = [layers[span][field] if span in layers else 0.0 for layers in tests]
        metrics[metric] = statistics.median(values)
    return metrics
