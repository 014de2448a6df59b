"""Host-speed calibration: a fixed kernel timed in between the tests of a run.

The benchmark runs on shared virtual machines whose speed drifts by 20-40%
over minutes while the program stays the same; a fixed numpy and Python
loop drifts with it.  Every run therefore times this kernel, which runs no
nysmmd code, in short bursts before the first test and after each test
(or level-study round), and scales its times by NOMINAL_S / (the run's
kernel time): a test that takes 1 s while the kernel takes NOMINAL_S reads
1 s.  The host moves between faster and slower states every second or so;
a burst lasts about 0.15 s and samples one state, while a test spans
several.  The run's kernel time is therefore the mean over its bursts of
each burst's median call: the median drops a burst's stray slow call, the
mean follows the states the run went through, as the tests do.

The kernel mixes what the tests spend their time on: compiling Python
source (imports), array arithmetic with fresh temporaries, a kernel
matrix, a small matrix product and eigendecomposition, a row gather, and a
pure-Python loop.

numpy is imported on first use, so that importing this module costs
nothing in the processes that time `import nysmmd`.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field

# Typical time of one kernel call on the reference machine (see README.md).
# Only ratios of scaled times are meaningful; this constant keeps scaled
# values close to seconds there.
NOMINAL_S = 0.018
# Kernel calls per burst.
BURST = 8

_SOURCE = "\n".join(
    f"def f{i}(a, b=({i}, 'x')):\n"
    f"    return [a * k + b[0] for k in range({i}) if k % 3]\n"
    for i in range(60))


class Calibration:
    """Times bursts of the fixed kernel and keeps each burst's median call time."""

    def __init__(self):
        import numpy as np

        self._np = np
        rng = np.random.default_rng(20250219)
        self._points = rng.standard_normal((2000, 3))
        self._landmarks = rng.standard_normal((64, 3))
        self._order = rng.permutation(2000)
        self.bursts: list[float] = []
        self.burst()  # warm-up, discarded
        self.bursts.clear()

    def _kernel(self) -> float:
        np = self._np
        compile(_SOURCE, "<calibration>", "exec")
        diff = self._points[:, None, :] - self._landmarks[None, :, :]
        gram = np.exp(-0.5 * np.sum(diff * diff, axis=2))
        np.linalg.eigh(gram.T @ gram)
        total = float(gram[self._order].sum())
        for k in range(5000):
            total += k % 7
        return total

    def burst(self) -> None:
        calls = []
        for _ in range(BURST):
            begin = time.perf_counter()
            self._kernel()
            calls.append(time.perf_counter() - begin)
        self.bursts.append(statistics.median(calls))

    def kernel_s(self) -> float:
        """Mean over the bursts of their median call time."""
        return statistics.fmean(self.bursts)


@dataclass
class Phase:
    """Wall times of the tests of a timed phase, and the phase's busy time."""

    times: list[float] = field(default_factory=list)
    busy_s: float = 0.0

    @property
    def test_s(self) -> float:
        return statistics.median(self.times)

    @property
    def tests_per_s(self) -> float:
        return len(self.times) / self.busy_s


def timed_phase(step, seconds: float, calibration: Calibration) -> Phase:
    """Call step() until `seconds` have passed, with calibration bursts around each call.

    step() returns the wall times of the tests it completed.  The busy time
    is the wall time of the phase less the time spent in bursts.
    """
    phase = Phase()
    calibration.burst()
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        begin = time.perf_counter()
        phase.times += step()
        phase.busy_s += time.perf_counter() - begin
        calibration.burst()
    return phase
