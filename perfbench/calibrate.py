"""Machine-speed calibration: a fixed reference task timed beside the ops.

The benchmark shares a host whose speed drifts by tens of percent within
minutes, for pure CPU work that is never preempted, so raw wall times of
the same code spread past any useful bound. A run of a fixed reference
task therefore precedes the first timed op and follows every timed op,
and each op's time is scaled by ``REFERENCE_S`` over the median of the
reference samples around it: the result is the op's time on a machine where
the reference task takes ``REFERENCE_S`` seconds. The reference task is
the benchmark's own code, so a change to the program does not move it.
It mixes the kinds of work splitcvl spends its time in: a loop shaped
like a tabular agent's (small method calls, a frozen dataclass key, a
seeded ``random.Random``, dict updates), an interpreted integer loop,
dict updates and a keyed sort of tuples, and small numpy calls
(elementwise, histogram, matrix-vector product, sort). Of the candidates
tried, this mix tracked the drift of the workloads' ops most closely.
"""

from __future__ import annotations

import random
import statistics
import time
from dataclasses import dataclass

import numpy as np

# seconds the reference task took, as a median, on the 2-core
# "Intel(R) Xeon(R) Processor" host the bounds were tuned on
REFERENCE_S = 0.040

# after a timed interval of t seconds the reference task runs for at
# least REFERENCE_SHARE * t seconds, so a long op's speed is sampled as
# closely as a short one's
REFERENCE_SHARE = 0.1

# reference samples each side of an interval's own two (before, after) in
# the median that scales it
SCALE_REACH = 2


@dataclass(frozen=True)
class _State:
    snr: int
    cut: int


class _Walk:
    """A tabular-agent-shaped loop: small method calls, a frozen dataclass
    key, a seeded ``random.Random`` and dict updates."""

    def __init__(self):
        self.rng = random.Random(3)
        self.values: dict[tuple[_State, int], float] = {}

    def effect(self, state: _State, action: int) -> float:
        return (state.snr * 0.3 + action * 0.7) / (1.0 + state.cut)

    def step(self, state: _State, action: int) -> tuple[_State, float]:
        return _State(self.rng.randrange(4), action), -self.effect(state, action)

    def run(self, steps: int) -> int:
        state, values = _State(0, 0), self.values
        for _ in range(steps):
            if self.rng.random() < 0.1:
                action = self.rng.randrange(5)
            else:
                action = max(range(5), key=lambda a: values.get((state, a), 0.0))
            nxt, reward = self.step(state, action)
            old = values.get((state, action), 0.0)
            values[(state, action)] = old + 0.1 * (reward - old)
            state = nxt
        return len(values)


def _reference_task() -> float:
    acc = _Walk().run(2500)
    for i in range(100_000):
        acc += i * i % 7
    rows, sums = [], {}
    for i in range(10_000):
        key = str(i % 97)
        sums[key] = sums.get(key, 0.0) + i * 0.5
        rows.append((i, i * 0.5 % 13.0))
    rows.sort(key=lambda row: -row[1])
    acc += len(sums) + rows[0][0]
    vec = np.linspace(0.0, 1.0, 128 * 128)
    mat = np.arange(200 * 64, dtype=np.float64).reshape(200, 64) / 4096.0
    total = 0.0
    for _ in range(40):
        vec = np.sqrt(vec + 1.0)
        hist = np.histogram(vec, bins=64, range=(0.0, 2.0))[0]
        total += float(np.argsort(mat @ mat[0]).sum()) + float(hist[0])
    return acc + total


def reference_seconds(at_least_s: float = 0.0) -> float:
    """Mean wall seconds per run of the reference task, run now once and
    then again until ``at_least_s`` seconds have passed."""
    start = time.perf_counter()
    runs = 0
    while not runs or time.perf_counter() - start < at_least_s:
        _reference_task()
        runs += 1
    return (time.perf_counter() - start) / runs


def scales(references_s: list[float]) -> list[float]:
    """Scale factors for the n timed intervals that the n + 1 reference
    samples ``references_s`` bracket: interval i lies between samples i and i+1,
    and its factor is ``REFERENCE_S`` over the median of those two and
    ``SCALE_REACH`` more on each side."""
    return [
        REFERENCE_S / statistics.median(
            references_s[max(0, i - SCALE_REACH):i + 2 + SCALE_REACH])
        for i in range(len(references_s) - 1)
    ]
