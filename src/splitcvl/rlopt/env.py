"""Partition-point selection cast as a contextual bandit.

The environment state is the observable network context: one discretized
channel bin per device (a grid over bandwidth x SNR-in-dB). The action
jointly assigns one partition candidate to every device, flattened to a
single discrete id. The reward is the additive inverse of the decision's
effect value, so it lies in [-1, 0] whenever the cost weights sum to 1;
an infeasible link (a zero rate, or one too low to carry the payload, as
``EffectKernel.feasible`` tells) yields the worst reward of -1 instead
of an error so that learning can continue.

A state's network input is its row of ``features``: each device's
channel bin one-hot, first device first.

Every episode is one step. The channels are redrawn at every step
whatever the action, so the action never changes the next state and the
optimal policy is myopic: a longer episode would only add a step counter
to the state and bootstraps that carry no information.

Since no channel depends on an action, the env draws the steps a block
at a time, ahead of the agent: ``blocks(rng, steps)`` yields each
block's states, agent uniforms ``u`` and outcomes as three lists, and
``reward(outcome, action)`` scores the action the agent picks. A block
of ``n`` steps is one ``rng.random((n, 3 * k + 1))`` call, k being two
uniforms per drawn channel. Each row holds, in order, the k uniforms of
the step's state, the agent's uniform ``u``, the k uniforms of the
step's channels, and k more that are drawn and not used. That is the
order of a per-step loop that draws a state, the agent's uniform, then
the step's channels and a set for the next state
(``tests/helpers.StepEnv`` keeps that loop as the reference). The unused
set seeded the next state when episodes could last several steps; it
stays so that an agent that draws nothing but ``u`` (actor-critic, PPO)
keeps its random stream and every recorded trace. An agent that needs
more draws takes them from a generator of its own, so no output depends
on the block size.

A drawn channel's bin comes from its two state uniforms alone: a range
split into ``n`` equal bins puts the draw ``u`` in bin ``floor(u * n)``,
computed exactly, and a zero-width range is always bin 0. Up to
rounding, that is the sub-range the drawn bandwidth and dB fall in, and
no bin depends on a host's pow or logarithm. The rates follow the float
expressions of sampling a channel in its bin (``low + width * u``, SNR
drawn in dB), ``snr_db_to_linear`` and ``shannon_rate``, the last two on
Python floats, and the scenario's ``EffectKernel`` turns them into every
cut's effect. So a reward is bit for bit the negated ``decision_effect``
of the drawn channels. A channel whose linear SNR underflows to zero
keeps its drawn dB's bin, and a step over it gets the zero-rate reward.
"""

from __future__ import annotations

import math
from functools import cached_property
from itertools import product
from typing import Iterator

import numpy as np

from ..netmodel import ChannelDistribution, ChannelState, shannon_rate
from ..trico import Scenario

MAX_JOINT_ACTIONS = 125  # 5 candidates ** 3 devices
# Ceiling on every count that sizes an allocation: env states, replay
# slots, sampled batch rows, Q tables, and the hidden units of all layers
# together (so a net's weights stay within a few million).
MAX_SIZE = 4096
# steps drawn per generator call; no output depends on it
BLOCK_STEPS = 256


class _ChannelGrid:
    """Bin layout for one device's channel.

    Fixed channels get a single bin; distributions are split into
    bandwidth_bins x snr_bins equal sub-ranges (SNR split in dB), the
    bandwidth bin major. The env bins and draws a block's channels with
    the arrays kept here, two uniforms per channel each.
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
            self.rate = shannon_rate(channel)
            return
        self.bandwidth_bins = bandwidth_bins
        self.snr_bins = snr_bins
        lo, hi = channel.bandwidth_range
        lo_db, hi_db = channel.snr_range_db
        if not (math.isfinite(hi - lo) and math.isfinite(hi_db - lo_db)):
            raise ValueError(f"{channel} spans a range wider than the largest float")
        bw = _range_edges(lo, hi, bandwidth_bins)
        db = _range_edges(lo_db, hi_db, snr_bins)
        if not (np.isfinite(bw).all() and np.isfinite(db).all()):
            raise ValueError(f"{channel} has a bin edge beyond the largest float")
        # rows bw_lo, bw_width, db_lo, db_width; one column per bin
        self.scales = np.array([
            np.repeat(bw[:-1], snr_bins), np.repeat(np.diff(bw), snr_bins),
            np.tile(db[:-1], bandwidth_bins), np.tile(np.diff(db), bandwidth_bins),
        ])
        # How a channel drawn from the whole distribution is binned: each
        # dimension's uniform u falls in bin floor(u * bins), the number of
        # its edges at or below u. A dimension with a zero-width range has
        # no edges, so it is always bin 0.
        self.bw_edges = np.array(_edges(bandwidth_bins) if hi > lo else ())
        self.snr_edges = np.array(_edges(snr_bins) if hi_db > lo_db else ())


def _range_edges(lo: float, hi: float, bins: int) -> np.ndarray:
    """The bins + 1 edges ``lo + k * width`` of a range's equal sub-ranges;
    one beyond the largest float is inf, as on Python floats."""
    with np.errstate(over="ignore"):
        return lo + np.arange(bins + 1) * ((hi - lo) / bins)


def _edges(bins: int) -> tuple[float, ...]:
    """For k = 1 .. bins - 1, the smallest float at or above k / bins.

    A float u is at or above the k-th edge exactly when u >= k / bins, so
    ``searchsorted(edges, u, side="right")`` is floor(u * bins) in exact
    arithmetic for every u in [0, 1).
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
        self._cuts = tuple(product(range(scenario.num_candidates),
                                   repeat=scenario.num_devices))
        self.n_actions = len(self._cuts)
        # a fixed channel draws nothing; a row holds 3 * k + 1 uniforms, k
        # being two per drawn channel (see the module docstring)
        self._draws_per_set = 2 * sum(not g.fixed for g in self.grids)
        # per action, each device's cut in a row's flattened (device, cut) effects
        n_cuts = scenario.num_candidates
        self._effect_index = tuple(tuple(d * n_cuts + c for d, c in enumerate(cuts))
                                   for cuts in self._cuts)

    # -- encodings -------------------------------------------------------

    def decode_action(self, action: int) -> tuple[int, ...]:
        """One cut per device of an action id."""
        if not 0 <= action < self.n_actions:
            raise ValueError(f"action {action} out of range")
        return self._cuts[action]

    @cached_property
    def features(self) -> np.ndarray:
        """(n_states, total bins) array whose row s is state s's network
        input: each device's channel bin one-hot, first device first.
        Built on first use, so the tabular agents never allocate it."""
        n_bins = [grid.n_bins for grid in self.grids]
        columns = np.column_stack(np.unravel_index(np.arange(self.n_states), n_bins))
        columns += np.cumsum([0, *n_bins[:-1]])
        features = np.zeros((self.n_states, sum(n_bins)))
        np.put_along_axis(features, columns, 1.0, axis=1)
        return features

    # -- dynamics ---------------------------------------------------------

    def blocks(self, rng: np.random.Generator, steps: int) -> Iterator[tuple]:
        """``(states, us, outcomes)`` of each block of ``steps`` steps,
        ``BLOCK_STEPS`` at a time: per step, the state id, the agent's
        uniform, and what ``reward`` scores an action with."""
        for start in range(0, steps, BLOCK_STEPS):
            yield self._block(rng, min(BLOCK_STEPS, steps - start))

    def reward(self, outcome: list[float] | None, action: int) -> float:
        """Minus the mean effect of the action's cuts in a row, or -1.0
        where a link of the row is infeasible (its outcome is None)."""
        if outcome is None:
            return -1.0
        cuts = self._effect_index[action]
        return -(math.fsum(map(outcome.__getitem__, cuts)) / len(cuts))

    def _block(self, rng: np.random.Generator, n: int) -> tuple[list, list, list]:
        k = self._draws_per_set
        u = rng.random((n, 3 * k + 1))
        log2 = math.log2
        states = np.zeros(n, dtype=np.int64)
        rates = np.empty((n, len(self.grids)))
        i = 0  # column of the channel's bandwidth uniform, among the state's
        for d, grid in enumerate(self.grids):
            if grid.fixed:
                rates[:, d] = grid.rate
                continue
            b = (np.searchsorted(grid.bw_edges, u[:, i], side="right") * grid.snr_bins
                 + np.searchsorted(grid.snr_edges, u[:, i + 1], side="right"))
            states *= grid.n_bins
            states += b
            bw_lo, bw_width, db_lo, db_width = grid.scales[:, b]
            bw = bw_lo + bw_width * u[:, k + 1 + i]
            db = (db_lo + db_width * u[:, k + 2 + i]) / 10.0
            rates[:, d] = bw * [log2(1.0 + 10.0 ** x) for x in db.tolist()]
            i += 2
        kernel = self.scenario.effect_kernel
        dead = np.flatnonzero(~kernel.feasible(rates).all(axis=1))
        rates[dead] = 1.0  # any positive rate; these rows score -1.0
        outcomes = kernel(rates).reshape(n, -1).tolist()
        for row in dead.tolist():
            outcomes[row] = None
        return states.tolist(), u[:, k].tolist(), outcomes
