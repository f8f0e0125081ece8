"""Partition-point selection cast as a sequential decision problem.

The environment state is the observable network context: one discretized
channel bin per device (a grid over bandwidth x SNR-in-dB) and a step
counter. The action jointly assigns one
partition candidate to every device, flattened to a single discrete id.
The reward is the additive inverse of the decision's effect value, so it
lies in [-1, 0] whenever the cost weights sum to 1; an infeasible link
(zero rate) yields the worst reward of -1 instead of an error so that
learning can continue.

Episodes default to a single step: the partition choice has no state
dynamics, so the problem is a contextual bandit over sampled channel
states. A longer horizon can be configured, in which case channels are
redrawn every step and the step counter becomes part of the state.

Reset and step build no channel or decision records. A drawn channel's
bin comes from its two uniform draws alone: a range split into ``n``
equal bins puts the draw ``u`` in bin ``floor(u * n)``, computed
exactly, and a zero-width range is always bin 0. Up to rounding, that is
the sub-range the drawn bandwidth and dB fall in, and no bin depends on
a host's pow or logarithm. A step maps its uniforms to link rates with
scalars built when the env is made and calls each device's
``CutCosts.effect``. The float expressions are those of sampling a
channel (``low + width * u``, SNR drawn in dB), ``shannon_rate`` and
``decision_effect``, so the reward is bit for bit the negated
``decision_effect`` of the drawn channels. A channel whose linear SNR
underflows to zero keeps its drawn dB's bin, and a step over it gets the
zero-rate reward.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from itertools import product
from typing import NamedTuple

import numpy as np

from ..errors import ZeroRateError
from ..netmodel import (
    ChannelDistribution,
    ChannelState,
    shannon_rate,
    snr_db_to_linear,
)
# decision_effect is not called here, but perfbench/spans.py traces the
# module's name for it
from ..trico import PartitionDecision, Scenario, decision_effect  # noqa: F401

MAX_JOINT_ACTIONS = 125  # 5 candidates ** 3 devices
# Ceiling on every count that sizes an allocation: env states, replay
# slots, sampled batch rows, Q tables, and the hidden units of all layers
# together (so a net's weights stay within a few million).
MAX_SIZE = 4096


class Transition(NamedTuple):
    """One env step. An episode's last transition has ``next_state`` 0:
    the agent resets instead of reading it."""

    state: int
    action: int
    reward: float
    next_state: int
    done: bool


class Batch(NamedTuple):
    """Sampled transitions, one array per field."""

    states: np.ndarray
    actions: np.ndarray
    rewards: np.ndarray
    next_states: np.ndarray
    not_done: np.ndarray  # 1.0 where the episode continues, else 0.0


class ReplayBuffer:
    """Bounded FIFO of transitions with uniform sampling (with replacement).

    Transitions are stored field by field, so a sampled batch comes out as
    arrays without a pass over its transitions.
    """

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("replay capacity must be >= 1")
        self.capacity = capacity
        self._states = np.zeros(capacity, dtype=np.int64)
        self._actions = np.zeros(capacity, dtype=np.int64)
        self._rewards = np.zeros(capacity)
        self._next_states = np.zeros(capacity, dtype=np.int64)
        self._not_done = np.zeros(capacity)
        self._size = 0
        self._next = 0
        self._any_continuing = False

    def push(self, transition: Transition) -> None:
        i = self._next
        self._states[i] = transition.state
        self._actions[i] = transition.action
        self._rewards[i] = transition.reward
        self._next_states[i] = transition.next_state
        if transition.done:
            self._not_done[i] = 0.0
        else:
            self._not_done[i] = 1.0
            self._any_continuing = True
        self._size = max(self._size, i + 1)
        self._next = (i + 1) % self.capacity

    def __len__(self) -> int:
        return self._size

    @property
    def any_continuing(self) -> bool:
        """Whether any transition pushed so far continues its episode;
        never at horizon 1, where no sampled row bootstraps."""
        return self._any_continuing

    def sample_batch(self, rng: np.random.Generator, batch_size: int) -> Batch:
        if not self._size:
            raise ValueError("cannot sample from an empty buffer")
        idx = rng.integers(0, self._size, size=batch_size)
        return Batch(self._states[idx], self._actions[idx], self._rewards[idx],
                     self._next_states[idx], self._not_done[idx])


class _ChannelGrid:
    """Bin layout for one device's channel.

    Fixed channels get a single bin; distributions are split into
    bandwidth_bins x snr_bins equal sub-ranges (SNR split in dB), each
    kept as its own distribution. The env draws channels with the scalars
    kept here, two uniforms per channel.
    """

    def __init__(
        self,
        channel: ChannelState | ChannelDistribution,
        bandwidth_bins: int,
        snr_bins: int,
    ):
        self.channel = channel
        self.fixed = isinstance(channel, ChannelState)
        self.n_bins = _bin_count(channel, bandwidth_bins, snr_bins)
        if self.fixed:
            self.bandwidth_bins = 1
            self.snr_bins = 1
            self.bins = (channel,)
            self.rate = shannon_rate(channel)
            return
        self.bandwidth_bins = bandwidth_bins
        self.snr_bins = snr_bins
        if not all(map(math.isfinite, channel.bw_scale + channel.db_scale)):
            raise ValueError(f"{channel} spans a range wider than the largest float")
        self.bins = tuple(
            ChannelDistribution(
                _sub_range(*channel.bandwidth_range, bandwidth_bins, ibw),
                _sub_range(*channel.snr_range_db, snr_bins, isnr),
            )
            for ibw in range(bandwidth_bins)
            for isnr in range(snr_bins)
        )
        # (bw_lo, bw_width, db_lo, db_width) of each bin's sub-ranges
        self.scales = tuple(b.bw_scale + b.db_scale for b in self.bins)
        # How a channel drawn from the whole distribution is binned: each
        # dimension's uniform u falls in bin floor(u * bins), the number of
        # its edges at or below u. A dimension with a zero-width range has
        # no edges, so it is always bin 0.
        lo, hi = channel.bandwidth_range
        self.bw_edges = _edges(bandwidth_bins) if hi > lo else ()
        lo_db, hi_db = channel.snr_range_db
        self.snr_edges = _edges(snr_bins) if hi_db > lo_db else ()


def _edges(bins: int) -> tuple[float, ...]:
    """For k = 1 .. bins - 1, the smallest float at or above k / bins.

    A float u is at or above the k-th edge exactly when u >= k / bins, so
    ``bisect_right(edges, u)`` is floor(u * bins) in exact arithmetic for
    every u in [0, 1).
    """
    edges = []
    for k in range(1, bins):
        edge = k / bins  # correctly rounded, so at most one step below
        num, den = edge.as_integer_ratio()
        if num * bins < k * den:
            edge = math.nextafter(edge, 1.0)
        edges.append(edge)
    return tuple(edges)


def _bin_count(channel, bandwidth_bins: int, snr_bins: int) -> int:
    return 1 if isinstance(channel, ChannelState) else bandwidth_bins * snr_bins


def _sub_range(lo: float, hi: float, bins: int, index: int) -> tuple[float, float]:
    width = (hi - lo) / bins
    return lo + index * width, lo + (index + 1) * width


class PartitionEnv:
    """Joint partition-selection environment over one scenario."""

    def __init__(
        self,
        scenario: Scenario,
        bandwidth_bins: int = 1,
        snr_bins: int = 2,
        horizon: int = 1,
    ):
        if bandwidth_bins < 1 or snr_bins < 1:
            raise ValueError("bin counts must be >= 1")
        if horizon < 1:
            raise ValueError("horizon must be >= 1")
        n_actions = scenario.num_candidates ** scenario.num_devices
        if n_actions > MAX_JOINT_ACTIONS:
            raise ValueError(
                f"joint action space {n_actions} exceeds the cap of "
                f"{MAX_JOINT_ACTIONS}; reduce devices or candidates"
            )
        # counted before any bin is built, so a huge bin count fails at once
        n_states = horizon * math.prod(
            _bin_count(ch, bandwidth_bins, snr_bins) for ch in scenario.channels
        )
        if n_states > MAX_SIZE:
            raise ValueError(
                f"state space of {n_states} states exceeds the cap of {MAX_SIZE}; "
                "reduce snr_bins, bandwidth_bins or horizon"
            )
        self.scenario = scenario
        self.horizon = horizon
        self.grids = [
            _ChannelGrid(ch, bandwidth_bins, snr_bins) for ch in scenario.channels
        ]
        # a state id is step * n_combos + channel combo, the combo a
        # mixed-radix number of the devices' bins, first device first
        self.n_combos = math.prod(g.n_bins for g in self.grids)
        # a fixed channel is one bin and draws nothing, so binning skips it;
        # per drawn channel: its bin count, its bandwidth edges and their
        # stride in the bin index, and its SNR edges
        self._binnings = tuple((g.n_bins, g.bw_edges, g.snr_bins, g.snr_edges)
                               for g in self.grids if not g.fixed)
        self._draws_per_set = 2 * len(self._binnings)
        self._cuts = tuple(product(range(scenario.num_candidates),
                                   repeat=scenario.num_devices))
        # per channel combo, each device's link: its bin's (bw_lo, bw_width,
        # db_lo, db_width) on a drawn channel, else the fixed channel's rate
        self._combo_links = tuple(
            tuple(g.rate if g.fixed else g.scales[b]
                  for g, b in zip(self.grids, self._channel_bins(combo)))
            for combo in range(self.n_combos)
        )

    # -- spaces ----------------------------------------------------------

    @property
    def n_actions(self) -> int:
        return len(self._cuts)

    @property
    def n_states(self) -> int:
        return self.n_combos * self.horizon

    @property
    def feature_dim(self) -> int:
        return sum(g.n_bins for g in self.grids) + (
            self.horizon if self.horizon > 1 else 0
        )

    # -- encodings -------------------------------------------------------

    def decode_state(self, state_id: int) -> tuple[tuple[int, ...], int]:
        """(one channel bin per device, step) of a state id."""
        step, combo = divmod(state_id, self.n_combos)
        return tuple(self._channel_bins(combo)), step

    def decode_action(self, action: int) -> PartitionDecision:
        return PartitionDecision(self._cuts_of(action))

    def _cuts_of(self, action: int) -> tuple[int, ...]:
        if not 0 <= action < len(self._cuts):
            raise ValueError(f"action {action} out of range")
        return self._cuts[action]

    def state_features(self, state_id: int) -> np.ndarray:
        """Concatenated one-hot bins (plus a step one-hot for horizons > 1)."""
        bins, step = self.decode_state(state_id)
        parts = []
        for digit, grid in zip(bins, self.grids):
            one_hot = np.zeros(grid.n_bins)
            one_hot[digit] = 1.0
            parts.append(one_hot)
        if self.horizon > 1:
            step_hot = np.zeros(self.horizon)
            step_hot[step] = 1.0
            parts.append(step_hot)
        return np.concatenate(parts)

    # -- dynamics ---------------------------------------------------------

    def _channel_bins(self, channel_combo: int) -> list[int]:
        bins = []
        for grid in reversed(self.grids):
            channel_combo, b = divmod(channel_combo, grid.n_bins)
            bins.append(b)
        bins.reverse()
        return bins

    def _combo_of(self, u: list[float], i: int) -> int:
        """Channel combo of the channels drawn from ``u[i:]``, two uniforms
        per distribution channel, first device first.

        ``u`` comes from one ``rng.random(n).tolist()``, which yields the
        same doubles, in the same order, as ``n`` calls of ``rng.random()``.
        """
        combo = 0
        for n_bins, bw_edges, stride, snr_edges in self._binnings:
            combo = (combo * n_bins + bisect_right(bw_edges, u[i]) * stride
                     + bisect_right(snr_edges, u[i + 1]))
            i += 2
        return combo

    def reset(self, rng: np.random.Generator) -> int:
        return self._combo_of(rng.random(self._draws_per_set).tolist(), 0)

    def step(self, state_id: int, action: int, rng: np.random.Generator) -> Transition:
        step, combo = divmod(state_id, self.n_combos)
        cuts = self._cuts_of(action)
        # this step's channels, then the next state's; a terminal step draws
        # both too, so the random stream does not depend on the horizon
        u = rng.random(2 * self._draws_per_set).tolist()
        effects = []
        i = 0
        try:
            for costs, cut, link in zip(self.scenario.cut_costs, cuts,
                                        self._combo_links[combo]):
                if isinstance(link, tuple):
                    bw_lo, bw_width, db_lo, db_width = link
                    snr_linear = snr_db_to_linear(db_lo + db_width * u[i + 1])
                    rate = (bw_lo + bw_width * u[i]) * math.log2(1.0 + snr_linear)
                    i += 2
                else:
                    rate = link
                effects.append(costs.effect(rate, cut))
            reward = -(math.fsum(effects) / len(effects))
        except ZeroRateError:
            reward = -1.0
        if step + 1 >= self.horizon:
            return Transition(state_id, action, reward, 0, True)
        next_state = (step + 1) * self.n_combos + self._combo_of(u, self._draws_per_set)
        return Transition(state_id, action, reward, next_state, False)
