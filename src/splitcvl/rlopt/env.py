"""Partition-point selection cast as a contextual bandit, one cut per device.

The environment state is the observable network context: one discretized
channel bin per device (a grid over bandwidth x SNR-in-dB). An action
assigns one partition candidate to every device. The effect is the mean
of independent per-device terms, and each term reads only its own
device's channel, so the agents pick each device's cut in a branch of its
own (action branching) and learn it from that device's reward: minus its
term, which lies in [-1, 0] whenever the cost weights sum to 1. A step
with an infeasible link (a zero rate, or one too low to carry the
payload, as ``EffectKernel.feasible`` tells) gives every device the
worst reward of -1 and has effect 1.0, instead of an error, so that
learning can continue.

A step's state is one row per device: its channel bin, numbered among
all ``n_bins`` bins of all devices, first device first (device d's bin 0
is ``first_rows[d]``). A row indexes the tabular agents' tables and is
the one-hot input of DQN's and PPO's nets. No joint state is formed, so
what the agents allocate grows with the sum of the bin counts.

Every episode is one step. The channels are redrawn at every step
whatever the action, so the action never changes the next state and the
optimal policy is myopic: a longer episode would only add a step counter
to the state and bootstraps that carry no information.

Since no channel depends on an action, the env draws the steps a block
at a time, ahead of the agent: ``blocks(rng, steps)`` yields each
block's rows and outcomes as two lists. A step's outcome is its
(devices, cuts) nested list of effects, or None where a link is
infeasible. A block of ``n`` steps is one ``rng.random((n, 2 * k))``
call, k being two uniforms per drawn channel. Each step's draw holds
the k uniforms of its bins, then the k of its channels: the order of a
per-step loop that draws the bins, then the channels
(``tests/helpers.StepEnv`` keeps that loop as the reference). The
agents draw from a generator of their own, so no output depends on the
block size.

A drawn channel's bin comes from its two bin uniforms alone: a range
split into ``n`` equal bins puts the draw ``u`` in bin ``floor(u * n)``,
computed exactly, and a zero-width range is always bin 0. Up to
rounding, that is the sub-range the drawn bandwidth and dB fall in, and
no bin depends on a host's pow or logarithm. The rates follow the float
expressions of sampling a channel in its bin (``low + width * u``, SNR
drawn in dB), ``snr_db_to_linear`` and ``shannon_rate``, the last two on
Python floats, and the scenario's ``EffectKernel`` turns them into every
cut's effect. So an outcome is bit for bit the ``effect_table`` of the
drawn channels. A channel whose linear SNR underflows to zero keeps its
drawn dB's bin, and a step over it is infeasible.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterator

import numpy as np

from ..netmodel import ChannelDistribution, ChannelState, shannon_rate
from ..trico import Scenario

# Ceiling on every count that sizes an allocation: the env's channel bins
# (the tables' rows and the networks' input width), replay slots,
# sampled batch rows, Q tables, and the hidden units of all layers
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
    """Per-device partition-selection environment over one scenario."""

    def __init__(
        self,
        scenario: Scenario,
        bandwidth_bins: int = 1,
        snr_bins: int = 2,
    ):
        if bandwidth_bins < 1 or snr_bins < 1:
            raise ValueError("bin counts must be >= 1")
        # counted before any grid is built, so a huge bin count fails at once
        widths = [_bin_count(ch, bandwidth_bins, snr_bins) for ch in scenario.channels]
        self.n_bins = sum(widths)
        if self.n_bins > MAX_SIZE:
            raise ValueError(
                f"{self.n_bins} channel bins exceed the cap of {MAX_SIZE}; "
                "reduce snr_bins or bandwidth_bins"
            )
        self.scenario = scenario
        self.grids = [
            _ChannelGrid(ch, bandwidth_bins, snr_bins) for ch in scenario.channels
        ]
        self.n_cuts = scenario.num_candidates
        self.first_rows = tuple(itertools.accumulate(widths[:-1], initial=0))
        # a fixed channel draws nothing; a step's draw holds 2 * k
        # uniforms, k being two per drawn channel (see the module docstring)
        self._draws_per_set = 2 * sum(not g.fixed for g in self.grids)

    def blocks(self, rng: np.random.Generator, steps: int) -> Iterator[tuple]:
        """``(rows, outcomes)`` of each block of ``steps`` steps,
        ``BLOCK_STEPS`` at a time: per step, a tuple of each device's row
        and the (devices, cuts) effects, or None where a link is
        infeasible."""
        for start in range(0, steps, BLOCK_STEPS):
            yield self._block(rng, min(BLOCK_STEPS, steps - start))

    def _block(self, rng: np.random.Generator, n: int) -> tuple[list, list]:
        k = self._draws_per_set
        u = rng.random((n, 2 * k))
        log2 = math.log2
        rows = []  # per device, its row at each step
        rates = np.empty((n, len(self.grids)))
        i = 0  # column of the channel's bandwidth uniform, among the bins'
        for d, (grid, first) in enumerate(zip(self.grids, self.first_rows)):
            if grid.fixed:
                rows.append([first] * n)
                rates[:, d] = grid.rate
                continue
            b = (np.searchsorted(grid.bw_edges, u[:, i], side="right") * grid.snr_bins
                 + np.searchsorted(grid.snr_edges, u[:, i + 1], side="right"))
            rows.append((b + first).tolist())
            bw_lo, bw_width, db_lo, db_width = grid.scales[:, b]
            bw = bw_lo + bw_width * u[:, k + i]
            db = (db_lo + db_width * u[:, k + i + 1]) / 10.0
            rates[:, d] = bw * [log2(1.0 + 10.0 ** x) for x in db.tolist()]
            i += 2
        kernel = self.scenario.effect_kernel
        dead = np.flatnonzero(~kernel.feasible(rates).all(axis=1))
        rates[dead] = 1.0  # any positive rate; these steps' outcomes are None
        outcomes = kernel(rates).tolist()
        for step in dead.tolist():
            outcomes[step] = None
        return list(zip(*rows)), outcomes
