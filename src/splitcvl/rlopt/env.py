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

A step builds no channel or decision records: it maps its uniform draws
straight to link rates and calls each device's ``CutCosts.effect``. The
float expressions are those of ``ChannelDistribution.at``,
``shannon_rate`` and ``decision_effect``, so the reward is bit for bit
the negated ``decision_effect`` of the drawn channels.
"""

from __future__ import annotations

import math
from itertools import product
from typing import Iterator, NamedTuple

import numpy as np

from ..errors import ZeroRateError
from ..netmodel import (
    ChannelDistribution,
    ChannelState,
    resolve_channel,
    shannon_rate,
    snr_db_to_linear,
)
from ..trico import PartitionDecision, Scenario, decision_effect

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

    def push(self, transition: Transition) -> None:
        i = self._next
        self._states[i] = transition.state
        self._actions[i] = transition.action
        self._rewards[i] = transition.reward
        self._next_states[i] = transition.next_state
        self._not_done[i] = 0.0 if transition.done else 1.0
        self._size = max(self._size, i + 1)
        self._next = (i + 1) % self.capacity

    def __len__(self) -> int:
        return self._size

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
    kept as its own distribution. Channels are made from uniform draws
    handed in by the environment, two per channel drawn.
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
        # (low, width) of each range that is split into bins, else None
        self._bw_split = self._snr_split = None
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
        lo, hi = channel.bandwidth_range
        if hi > lo:
            self._bw_split = (lo, hi - lo)
        lo_db, hi_db = channel.snr_range_db
        if hi_db > lo_db:
            self._snr_split = (lo_db, hi_db - lo_db)
        self.bins = tuple(
            ChannelDistribution(
                _sub_range(*channel.bandwidth_range, bandwidth_bins, ibw),
                _sub_range(*channel.snr_range_db, snr_bins, isnr),
            )
            for ibw in range(bandwidth_bins)
            for isnr in range(snr_bins)
        )
        self.scales = tuple(b.bw_scale + b.db_scale for b in self.bins)

    def bin_of(self, bandwidth_hz: float, snr_linear: float) -> int:
        ibw = isnr = 0
        if self._bw_split is not None:
            lo, width = self._bw_split
            ibw = min(int((bandwidth_hz - lo) / width * self.bandwidth_bins),
                      self.bandwidth_bins - 1)
        if self._snr_split is not None:
            lo_db, width_db = self._snr_split
            db = 10.0 * float(np.log10(snr_linear))
            isnr = min(int((db - lo_db) / width_db * self.snr_bins),
                       self.snr_bins - 1)
            isnr = max(isnr, 0)
        return ibw * self.snr_bins + isnr

    def draw_bin(self, draws: Iterator[float]) -> int:
        """Bin of a channel drawn from the full distribution."""
        if self.fixed:
            return 0
        return self.bin_of(*self.channel.at(next(draws), next(draws)))

    def rate_within(self, bin_index: int, draws: Iterator[float]) -> float:
        """Shannon rate of a channel drawn from the given bin's sub-ranges."""
        if self.fixed:
            return self.rate
        bw_lo, bw_width, db_lo, db_width = self.scales[bin_index]
        bw = bw_lo + bw_width * next(draws)
        return bw * math.log2(1.0 + snr_db_to_linear(db_lo + db_width * next(draws)))

    def midpoint(self, bin_index: int) -> ChannelState:
        return resolve_channel(self.bins[bin_index])


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
        self._draws_per_set = sum(2 for g in self.grids if not g.fixed)
        self._cuts = tuple(product(range(scenario.num_candidates),
                                   repeat=scenario.num_devices))

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

    def _uniforms(self, rng: np.random.Generator, sets: int) -> Iterator[float]:
        """The uniform draws for ``sets`` sets of channels, in one call.

        ``rng.random(n)`` yields the same doubles, in the same order, as
        ``n`` calls of ``rng.random()``.
        """
        return iter(rng.random(sets * self._draws_per_set).tolist())

    def _draw_channel_combo(self, draws: Iterator[float]) -> int:
        combo = 0
        for grid in self.grids:
            combo = combo * grid.n_bins + grid.draw_bin(draws)
        return combo

    def reset(self, rng: np.random.Generator) -> int:
        return self._draw_channel_combo(self._uniforms(rng, 1))

    def step(self, state_id: int, action: int, rng: np.random.Generator) -> Transition:
        step, combo = divmod(state_id, self.n_combos)
        cuts = self._cuts_of(action)
        # this step's channels, then the next state's; a terminal step draws
        # both too, so the random stream does not depend on the horizon
        draws = self._uniforms(rng, 2)
        # all rates first, so a zero-rate link cannot skip the next state's draws
        rates = [grid.rate_within(b, draws)
                 for grid, b in zip(self.grids, self._channel_bins(combo))]
        try:
            effects = [costs.effect(rate, cut) for costs, rate, cut
                       in zip(self.scenario.cut_costs, rates, cuts)]
            reward = -(math.fsum(effects) / len(effects))
        except ZeroRateError:
            reward = -1.0
        if step + 1 >= self.horizon:
            return Transition(state_id, action, reward, 0, True)
        next_state = (step + 1) * self.n_combos + self._draw_channel_combo(draws)
        return Transition(state_id, action, reward, next_state, False)

    # -- deterministic evaluation -----------------------------------------

    def evaluate_action(self, state_id: int, action: int) -> float:
        """Effect of an action under the state's bin-midpoint channels."""
        bins, _ = self.decode_state(state_id)
        channels = tuple(grid.midpoint(b) for grid, b in zip(self.grids, bins))
        try:
            return decision_effect(self.scenario, self.decode_action(action), channels)
        except ZeroRateError:
            return 1.0
