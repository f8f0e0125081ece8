"""Reference-speed scaling."""

import time

import pytest

from calibrate import REFERENCE_S, SCALE_REACH, reference_seconds, scales


def test_steady_reference_gives_one_factor():
    assert scales([2 * REFERENCE_S] * 6) == pytest.approx([0.5] * 5)


def test_factor_uses_the_median_of_the_samples_around_the_interval():
    refs = [REFERENCE_S] * 10
    refs[4] = 100 * REFERENCE_S  # one slow sample is outvoted by its neighbours
    assert scales(refs) == pytest.approx([1.0] * 9)
    # a sustained slow-down that covers the window is followed
    slow = [REFERENCE_S] * 5 + [2 * REFERENCE_S] * (3 + 2 * SCALE_REACH)
    assert scales(slow)[-1] == pytest.approx(0.5)


def test_reference_runs_for_the_time_asked_and_returns_the_mean_run():
    start = time.perf_counter()
    per_run = reference_seconds(at_least_s=0.2)
    elapsed = time.perf_counter() - start
    assert elapsed >= 0.2
    assert 0 < per_run < elapsed
