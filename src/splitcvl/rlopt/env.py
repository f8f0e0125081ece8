"""Partition-point selection cast as a contextual bandit.

The environment state is the observable network context: one discretized
channel bin per device (a grid over bandwidth x SNR-in-dB). The action
jointly assigns one partition candidate to every device, flattened to a
single discrete id. The reward is the additive inverse of the decision's
effect value, so it lies in [-1, 0] whenever the cost weights sum to 1;
an infeasible link (zero rate) yields the worst reward of -1 instead of
an error so that learning can continue.

Every episode is one step. The channels are redrawn at every step
whatever the action, so the action never changes the next state and the
optimal policy is myopic: a longer episode would only add a step counter
to the state and bootstraps that carry no information. An agent calls
``reset(rng)`` for each step's state, then ``step(state, action, rng)``.

Reset and step build no channel or decision records. A drawn channel's
bin comes from its two uniform draws alone: a range split into ``n``
equal bins puts the draw ``u`` in bin ``floor(u * n)``, computed
exactly, and a zero-width range is always bin 0. Up to rounding, that is
the sub-range the drawn bandwidth and dB fall in, and no bin depends on
a host's pow or logarithm. A step maps its uniforms to link rates with
scalars bound per state when the env is made, together with each
device's ``CutCosts.effect``. The float expressions are those of
sampling a channel (``low + width * u``, SNR drawn in dB),
``snr_db_to_linear``, ``shannon_rate`` and ``decision_effect``, so the
reward is bit for bit the negated ``decision_effect`` of the drawn
channels. A channel whose linear SNR underflows to zero keeps its drawn
dB's bin, and a step over it gets the zero-rate reward.

A step draws twice the uniforms it uses. The second set seeded the
next state when episodes could last longer; it is still drawn so that
every agent's random stream, and every recorded trace, stays the same.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from itertools import product
from typing import NamedTuple

import numpy as np

from ..errors import ZeroRateError
from ..netmodel import ChannelDistribution, ChannelState, shannon_rate
from ..trico import PartitionDecision, Scenario

MAX_JOINT_ACTIONS = 125  # 5 candidates ** 3 devices
# Ceiling on every count that sizes an allocation: env states, replay
# slots, sampled batch rows, Q tables, and the hidden units of all layers
# together (so a net's weights stay within a few million).
MAX_SIZE = 4096


class Transition(NamedTuple):
    """One env step: the state acted in, the action and its reward."""

    state: int
    action: int
    reward: float


class Batch(NamedTuple):
    """Sampled transitions, one array per field."""

    states: np.ndarray
    actions: np.ndarray
    rewards: np.ndarray


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
        self._size = 0
        self._next = 0

    def push(self, transition: Transition) -> None:
        i = self._next
        self._states[i], self._actions[i], self._rewards[i] = transition
        self._size = max(self._size, i + 1)
        self._next = (i + 1) % self.capacity

    def __len__(self) -> int:
        return self._size

    def sample_batch(self, rng: np.random.Generator, batch_size: int) -> Batch:
        if not self._size:
            raise ValueError("cannot sample from an empty buffer")
        idx = rng.integers(0, self._size, size=batch_size)
        return Batch(self._states[idx], self._actions[idx], self._rewards[idx])


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
    ):
        if bandwidth_bins < 1 or snr_bins < 1:
            raise ValueError("bin counts must be >= 1")
        n_actions = scenario.num_candidates ** scenario.num_devices
        if n_actions > MAX_JOINT_ACTIONS:
            raise ValueError(
                f"joint action space {n_actions} exceeds the cap of "
                f"{MAX_JOINT_ACTIONS}; reduce devices or candidates"
            )
        # counted before any bin is built, so a huge bin count fails at once
        n_states = math.prod(
            _bin_count(ch, bandwidth_bins, snr_bins) for ch in scenario.channels
        )
        if n_states > MAX_SIZE:
            raise ValueError(
                f"state space of {n_states} states exceeds the cap of {MAX_SIZE}; "
                "reduce snr_bins or bandwidth_bins"
            )
        self.scenario = scenario
        self.grids = [
            _ChannelGrid(ch, bandwidth_bins, snr_bins) for ch in scenario.channels
        ]
        # a state id is a mixed-radix number of the devices' channel bins,
        # first device first
        self.n_states = n_states
        self.feature_dim = sum(g.n_bins for g in self.grids)
        # a fixed channel is one bin and draws nothing, so binning skips it;
        # per drawn channel: its bin count, its bandwidth edges and their
        # stride in the bin index, and its SNR edges
        self._binnings = tuple((g.n_bins, g.bw_edges, g.snr_bins, g.snr_edges)
                               for g in self.grids if not g.fixed)
        self._draws_per_set = 2 * len(self._binnings)
        self._cuts = tuple(product(range(scenario.num_candidates),
                                   repeat=scenario.num_devices))
        self.n_actions = len(self._cuts)
        # per state, each device's bound CutCosts.effect and link: the fixed
        # channel's rate, or None, the index of its bandwidth uniform and its
        # bin's (bw_lo, bw_width, db_lo, db_width)
        bin_links = []
        i = 0
        for grid in self.grids:
            if grid.fixed:
                bin_links.append([(grid.rate, 0, 0.0, 0.0, 0.0, 0.0)])
            else:
                bin_links.append([(None, i, *scale) for scale in grid.scales])
                i += 2
        self._state_links = tuple(
            tuple((costs.effect, *links[b]) for costs, links, b
                  in zip(scenario.cut_costs, bin_links, self.decode_state(state)))
            for state in range(n_states)
        )

    # -- encodings -------------------------------------------------------

    def decode_state(self, state_id: int) -> tuple[int, ...]:
        """One channel bin per device of a state id."""
        bins = []
        for grid in reversed(self.grids):
            state_id, b = divmod(state_id, grid.n_bins)
            bins.append(b)
        return tuple(reversed(bins))

    def decode_action(self, action: int) -> PartitionDecision:
        return PartitionDecision(self._cuts_of(action))

    def _cuts_of(self, action: int) -> tuple[int, ...]:
        if not 0 <= action < self.n_actions:
            raise ValueError(f"action {action} out of range")
        return self._cuts[action]

    def state_features(self, state_id: int) -> np.ndarray:
        """Concatenated one-hot bins, one per device."""
        parts = []
        for digit, grid in zip(self.decode_state(state_id), self.grids):
            one_hot = np.zeros(grid.n_bins)
            one_hot[digit] = 1.0
            parts.append(one_hot)
        return np.concatenate(parts)

    # -- dynamics ---------------------------------------------------------

    def reset(self, rng: np.random.Generator) -> int:
        """The state of freshly drawn channels, two uniforms per drawn
        channel, first device first.

        ``rng.random(n).tolist()`` yields the same doubles, in the same
        order, as ``n`` calls of ``rng.random()``.
        """
        u = rng.random(self._draws_per_set).tolist()
        state = i = 0
        for n_bins, bw_edges, stride, snr_edges in self._binnings:
            state = (state * n_bins + bisect_right(bw_edges, u[i]) * stride
                     + bisect_right(snr_edges, u[i + 1]))
            i += 2
        return state

    def step(self, state_id: int, action: int, rng: np.random.Generator) -> Transition:
        cuts = self._cuts_of(action)
        # this step's channels, then a set that is drawn and not used (see
        # the module docstring)
        u = rng.random(2 * self._draws_per_set).tolist()
        effects = []
        try:
            for (effect, rate, i, bw_lo, bw_width, db_lo, db_width), cut in zip(
                self._state_links[state_id], cuts
            ):
                if rate is None:
                    snr_linear = 10.0 ** ((db_lo + db_width * u[i + 1]) / 10.0)
                    rate = (bw_lo + bw_width * u[i]) * math.log2(1.0 + snr_linear)
                effects.append(effect(rate, cut))
            reward = -(math.fsum(effects) / len(effects))
        except ZeroRateError:
            reward = -1.0
        return Transition(state_id, action, reward)
