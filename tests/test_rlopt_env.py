import dataclasses
import math

import numpy as np
import pytest

from splitcvl.netmodel import (
    ChannelDistribution,
    ChannelState,
    device_from_kind,
    shannon_rate,
)
from splitcvl.rlopt import env as env_module
from splitcvl.rlopt.env import PartitionEnv
from splitcvl.errors import ZeroRateError
from splitcvl.trico import (
    EffectKernel,
    Scenario,
    TriCoWeights,
    decision_effect,
    default_conf_table,
    effect_table,
    default_scenario,
)

from helpers import (
    bin_channel,
    channel_at,
    device_bins,
    env_rows,
    evaluate_action,
    exact_bin,
    link_infeasible,
    payload_bits,
    random_scenario,
    record_path_channels,
    record_path_rows,
    step_rows,
    synthetic_profile,
)


def fixed_channel_scenario():
    """Single device, fixed channel: fully deterministic env."""
    profile = synthetic_profile([4000, 2000, 1000], flops=[10, 10, 10])
    return Scenario(
        (device_from_kind("u", "uav"),),
        (ChannelState(1e6, 3.0),),
        profile,
        default_conf_table(3),
        TriCoWeights(),
    )


class TestSpaces:
    def test_default_scenario_spaces(self):
        env = PartitionEnv(default_scenario(), snr_bins=2)
        assert env.n_cuts == 5
        assert env.n_bins == 2 + 2  # 2 snr bins per device
        assert env.first_rows == (0, 2)

    def test_no_cap_on_devices_or_cuts(self):
        # one branch per device: 2 cuts on 12 devices are 4096 joint
        # actions, and 8 drawn devices of 2 bins each and 4 fixed ones
        # are 20 rows
        profile = synthetic_profile([400, 200], flops=[1, 1])
        devices = tuple(device_from_kind(f"u{i}", "uav") for i in range(12))
        channels = (ChannelDistribution((1e6, 2e6), (0.0, 10.0)),) * 8 + (
            ChannelState(1e6, 3.0),) * 4
        scenario = Scenario(
            devices, channels, profile, default_conf_table(2), TriCoWeights()
        )
        env = PartitionEnv(scenario, snr_bins=2)
        assert (env.n_bins, env.n_cuts) == (20, 2)
        rows, outcome = one_row(env, np.random.default_rng(0))
        assert all(2 * d <= row < 2 * d + 2 for d, row in enumerate(rows[:8]))
        assert rows[8:] == (16, 17, 18, 19)
        assert len(outcome) == 12 and all(len(row) == 2 for row in outcome)

    @pytest.mark.parametrize(
        "bins", [dict(snr_bins=1_000_000_000), dict(bandwidth_bins=65, snr_bins=63)]
    )
    def test_bin_cap_checked_before_bins_are_built(self, bins, monkeypatch):
        def no_grid(*args):
            raise AssertionError("channel bins built before the bin-count check")

        monkeypatch.setattr(env_module, "_ChannelGrid", no_grid)
        with pytest.raises(ValueError, match="channel bins exceed the cap of 4096"):
            PartitionEnv(default_scenario(), **bins)

    def test_bins_at_cap_accepted(self):
        # the cap is on the sum of the devices' bin counts, not their
        # product: 2 devices of 32 x 64 bins are 4096 rows
        env = PartitionEnv(default_scenario(), bandwidth_bins=32, snr_bins=64)
        assert (env.n_bins, env.first_rows) == (4096, (0, 2048))
        with pytest.raises(ValueError, match="4098 channel bins exceed the cap of 4096"):
            PartitionEnv(default_scenario(), bandwidth_bins=1, snr_bins=2049)

    def test_fixed_channels_count_one_bin(self):
        # a fixed channel is one bin, whatever the bin counts
        env = PartitionEnv(fixed_channel_scenario(), snr_bins=5000)
        assert (env.n_bins, env.first_rows) == (1, (0,))

    def test_fixed_channel_devices_past_the_cap_rejected(self, monkeypatch):
        # each device is at least one row, so 4097 devices exceed the cap
        # even on fixed channels
        def no_grid(*args):
            raise AssertionError("channel bins built before the bin-count check")

        one = fixed_channel_scenario()
        scenario = dataclasses.replace(one, devices=one.devices * 4097,
                                       channels=one.channels * 4097)
        monkeypatch.setattr(env_module, "_ChannelGrid", no_grid)
        with pytest.raises(ValueError, match="4097 channel bins exceed the cap of 4096"):
            PartitionEnv(scenario)

    def test_rows_number_each_devices_bin_among_all(self):
        # a device's rows follow the bins of the devices before it: the
        # tabular agents' table rows and the nets' one-hot columns
        env = PartitionEnv(three_device_scenario(4.0), bandwidth_bins=2, snr_bins=3)
        assert env.n_bins == 1 + 6 + 6
        assert env.first_rows == (0, 1, 7)
        seen = [set(), set(), set()]
        for rows, _ in env_rows(env, np.random.default_rng(2), 2000):
            for d, row in enumerate(rows):
                seen[d].add(row)
        assert seen == [{0}, set(range(1, 7)), set(range(7, 13))]


def one_row(env, rng):
    """(rows, outcome) of one step drawn from ``rng``."""
    return next(env_rows(env, rng, 1))


class TestStep:
    def test_outcome_equals_effect_when_deterministic(self):
        scenario = fixed_channel_scenario()
        env = PartitionEnv(scenario)
        rows, outcome = one_row(env, np.random.default_rng(0))
        assert rows == (0,)
        for cut in range(env.n_cuts):
            assert outcome[0][cut] == decision_effect(scenario, (cut,))

    def test_same_seed_same_transition(self):
        env = PartitionEnv(default_scenario(), snr_bins=2)
        a = list(env_rows(env, np.random.default_rng(99), 300))
        b = list(env_rows(env, np.random.default_rng(99), 300))
        assert a == b and len(a) == 300

    def test_all_cut_sweep_is_order_isomorphic_to_effect_table(self):
        scenario = fixed_channel_scenario()
        env = PartitionEnv(scenario)
        _, outcome = one_row(env, np.random.default_rng(3))
        effects = [decision_effect(scenario, (c,)) for c in range(env.n_cuts)]
        assert np.argsort(outcome[0]).tolist() == np.argsort(effects).tolist()

    def test_effects_bounded(self):
        env = PartitionEnv(default_scenario(), snr_bins=2)
        rng = np.random.default_rng(4)
        for _, outcome in env_rows(env, rng, 300):
            assert all(0.0 <= e <= 1.0 for row in outcome for e in row)

    def test_zero_rate_gives_worst_reward_not_error(self):
        profile = synthetic_profile([4000, 2000], flops=[10, 10])
        scenario = Scenario(
            (device_from_kind("u", "uav"),),
            (ChannelState(1e6, 0.0),),  # zero SNR, zero rate
            profile,
            default_conf_table(2),
            TriCoWeights(),
        )
        env = PartitionEnv(scenario)
        for _, outcome in env_rows(env, np.random.default_rng(5), 10):
            assert outcome is None

    @pytest.mark.parametrize("fixed_snr", [4.0, 0.0])
    def test_step_draws_state_and_channel_uniforms(self, fixed_snr):
        # a step draws 2 uniforms per drawn channel for its bins and 2 per
        # drawn channel for its channels; every recorded trace depends on
        # that stream. A fixed channel draws nothing, and a zero-rate step
        # draws the same
        env = PartitionEnv(three_device_scenario(fixed_snr), snr_bins=3)
        rng, twin = np.random.default_rng(8), np.random.default_rng(8)
        for steps in (1, env_module.BLOCK_STEPS, env_module.BLOCK_STEPS + 3):
            for _, outcome in env_rows(env, rng, steps):
                assert (outcome is None) == (fixed_snr == 0.0)
            twin.random(steps * (2 * 2 + 2 * 2))
            assert rng.bit_generator.state == twin.bit_generator.state

    def test_evaluate_action_matches_mean_channel_effect(self):
        scenario = default_scenario()
        env = PartitionEnv(scenario, snr_bins=1)
        eff = evaluate_action(env, (0, 0), (4, 4))
        expected = decision_effect(scenario, (4, 4))
        assert eff == pytest.approx(expected)

    def test_rows_cover_sampled_channels(self):
        env = PartitionEnv(default_scenario(), snr_bins=4, bandwidth_bins=3)
        pairs = set()
        for rows, _ in env_rows(env, np.random.default_rng(7), 2000):
            bins = device_bins(env, rows)
            assert len(bins) == 2
            assert all(0 <= b < 12 for b in bins)
            pairs.add(tuple(bins))
        assert len(pairs) == 12 * 12


def three_device_scenario(fixed_snr):
    """A UAV on a fixed channel, then a vehicle and a UAV on two ranges."""
    stock = default_scenario()
    return dataclasses.replace(
        stock,
        devices=stock.devices + (device_from_kind("uav2", "uav", tx_power_w=0.5),),
        channels=(
            ChannelState(3e6, fixed_snr),
            ChannelDistribution((1e6, 40e6), (-5.0, 25.0)),
            ChannelDistribution((5e6, 20e6), (5.0, 15.0)),
        ),
    )


def low_rate_env(channel):
    """The stock scenario with the first device's channel replaced. The
    UAV's largest payload over a link of about 1e-301 bit/s takes
    longer than the largest float, so that link counts as zero rate."""
    stock = default_scenario()
    channels = (channel, stock.channels[1])
    return PartitionEnv(dataclasses.replace(stock, channels=channels), snr_bins=2)


def mixed_random_env(rng):
    """A ``random_scenario`` of 2 or 3 devices: the first keeps its fixed
    channel, the second gets a zero-width range, and a third a random
    range, over 1 or 2 bandwidth bins and 1 to 3 SNR bins."""
    scenario = random_scenario(rng)
    while scenario.num_devices < 2:
        scenario = random_scenario(rng)
    bw, db = float(rng.uniform(1e6, 50e6)), float(rng.uniform(-10.0, 30.0))
    lo, lo_db = float(rng.uniform(1e6, 20e6)), float(rng.uniform(-20.0, 10.0))
    channels = (
        scenario.channels[0],
        ChannelDistribution((bw, bw), (db, db)),
        ChannelDistribution((lo, 2.5 * lo), (lo_db, lo_db + 25.0)),
    )[:scenario.num_devices]
    return PartitionEnv(dataclasses.replace(scenario, channels=channels),
                        bandwidth_bins=int(rng.integers(1, 3)),
                        snr_bins=int(rng.integers(1, 4)))


def hex_rows(outcome):
    """An outcome's effects as hex strings, or None."""
    return None if outcome is None else [[e.hex() for e in row] for row in outcome]


class Draws:
    """Stands in for a generator: ``random(shape)`` returns the next of
    fixed uniforms, in that shape."""

    def __init__(self, values):
        self.values = list(values)

    def random(self, shape):
        n = math.prod(shape)
        head, self.values = self.values[:n], self.values[n:]
        assert len(head) == n
        return np.array(head).reshape(shape)


def two_channel_env(snr_a, snr_b, **bins):
    """The stock scenario with its two channels' SNR ranges (dB) replaced."""
    channels = tuple(ChannelDistribution((5e6, 20e6), snr) for snr in (snr_a, snr_b))
    return PartitionEnv(dataclasses.replace(default_scenario(), channels=channels), **bins)


def drawn_rows(env, seed, steps):
    """The block rows of ``steps`` steps from a generator seeded ``seed``,
    beside the uniforms each row was drawn from."""
    k = 2 * sum(not grid.fixed for grid in env.grids)
    rows = list(env_rows(env, np.random.default_rng(seed), steps))
    uniforms = np.random.default_rng(seed).random((steps, 2 * k)).tolist()
    return k, zip(rows, uniforms)


class TestRecordFreeStep:
    """A block maps its uniforms to bins and rates without building
    channel records. Replaying a row's uniforms through the records gives
    the same effects, and binning them by the exact rule
    (``helpers.grid_bin``) gives the same rows. ``helpers.StepEnv``, the
    per-step reset and step that the block replaced, gives the same
    rows and effects. The record path scores through the env's own
    ``EffectKernel``; ``TestBlockDraw`` checks the effects against
    independent scalar code."""

    ENVS = {
        "stock": lambda: PartitionEnv(default_scenario()),
        "2x3": lambda: PartitionEnv(default_scenario(), bandwidth_bins=2, snr_bins=3),
        "mixed_3_devices": lambda: PartitionEnv(three_device_scenario(4.0), snr_bins=3),
        "degenerate_range": lambda: PartitionEnv(
            dataclasses.replace(
                default_scenario(),
                channels=(ChannelDistribution((5e6, 5e6), (8.0, 8.0)),) * 2,
            ),
            bandwidth_bins=2,
            snr_bins=2,
        ),
        "zero_snr_fixed": lambda: PartitionEnv(three_device_scenario(0.0)),
        # below about -3236 dB the linear SNR underflows to 0.0: the draw
        # keeps its uniform's bin, and a step over it is infeasible
        "underflow_snr": lambda: two_channel_env(
            (-4000.0, 15.0), (-4000.0, 15.0), bandwidth_bins=2, snr_bins=3
        ),
        "underflow_snr_always": lambda: two_channel_env(
            (-3300.0, -3250.0), (5.0, 15.0), snr_bins=2
        ),
        "too_low_rate_fixed": lambda: low_rate_env(ChannelState(1e-301, 1.0)),
        # rates from about 1.4e-302 to 4e-300 bit/s: some rows are infeasible
        "too_low_rate_range": lambda: low_rate_env(
            ChannelDistribution((1e-301, 4e-301), (-10.0, 30.0))
        ),
    }
    ALWAYS_ZERO_RATE = {"zero_snr_fixed", "underflow_snr_always", "too_low_rate_fixed"}

    @pytest.mark.parametrize("name", sorted(ENVS))
    def test_reset_matches_record_path_bit_for_bit(self, name):
        env = self.ENVS[name]()
        k, steps = drawn_rows(env, 20, 600)
        for (rows, _), uniforms in steps:
            assert rows == record_path_rows(env, iter(uniforms[:k]))

    def test_reset_bins_an_edge_draw_by_its_uniform(self):
        # at u = 0.5 over 2.0-3.8 dB in 4 bins, the drawn SNR sits on the edge
        # of bins 1 and 2, where numpy's float64 log10 and math.log10 of the
        # linear SNR disagree; the uniform alone puts it in bin 2
        env = two_channel_env((2.0, 3.8), (2.0, 3.8), snr_bins=4)
        rows, _ = one_row(env, Draws([0.5] * 8))
        assert rows == record_path_rows(env, iter([0.5] * 4)) == (2, 4 + 2)

    def test_reset_bins_draws_near_every_edge_exactly(self):
        # every uniform the generator can return is m / 2**53; for each bin
        # count up to 64, the ones within 8 steps of each edge k / bins, and
        # the 8 floats on each side of it, fall in bin floor(u * bins),
        # computed in exact arithmetic
        one = default_scenario()
        for bins in range(1, 65):
            scenario = dataclasses.replace(
                one, devices=one.devices[:1],
                channels=(ChannelDistribution((5e6, 20e6), (-30.0, 40.0)),),
            )
            env = PartitionEnv(scenario, bandwidth_bins=bins, snr_bins=bins)
            us = []
            for k in range(bins + 1):
                edge = k * 2**53 // bins
                us += [m / 2**53 for m in range(max(edge - 8, 0), min(edge + 9, 2**53))]
                below = above = k / bins
                for _ in range(8):
                    below, above = math.nextafter(below, 0.0), math.nextafter(above, 1.0)
                    us += [u for u in (below, above) if 0.0 <= u < 1.0]
            pairs = list(zip(us, reversed(us)))
            # a step: the bin's two uniforms, then the channel's
            draws = Draws([x for pair in pairs for x in (*pair, *pair)])
            rows = [row for (row,), _ in env_rows(env, draws, len(pairs))]
            expected = [exact_bin(u_bw, bins) * bins + exact_bin(u_snr, bins)
                        for u_bw, u_snr in pairs]
            assert rows == expected, bins

    @pytest.mark.parametrize("name", sorted(ENVS))
    def test_outcome_is_effect_table_bit_for_bit(self, name):
        # a row's effects are the drawn channels' ``effect_table``, and the
        # mean of one cut per device is their ``decision_effect``
        env = self.ENVS[name]()
        draws = np.random.default_rng(22)
        k, steps = drawn_rows(env, 21, 600)
        for (rows, outcome), uniforms in steps:
            channels = record_path_channels(env, rows, iter(uniforms[k:]))
            try:
                expected = effect_table(env.scenario, channels)
            except ZeroRateError:
                expected = None
            assert hex_rows(outcome) == hex_rows(expected)
            if name in self.ALWAYS_ZERO_RATE:
                assert outcome is None
            if outcome is not None:
                cuts = tuple(draws.integers(env.n_cuts, size=len(outcome)).tolist())
                mean = math.fsum(row[c] for row, c in zip(outcome, cuts)) / len(cuts)
                assert mean.hex() == decision_effect(env.scenario, cuts, channels).hex()

    @pytest.mark.parametrize("name", sorted(ENVS))
    def test_rates_equal_shannon_rate_of_channel_records(self, name, monkeypatch):
        # the stock effect barely moves with the rate, so check the rates
        # that a block hands to the effect kernel directly; a row with an
        # infeasible link hands over 1.0 for each device and scores -1.0
        seen = []
        kernel = EffectKernel.__call__

        def recording_kernel(self, rates):
            seen.append(rates.copy())
            return kernel(self, rates)

        monkeypatch.setattr(EffectKernel, "__call__", recording_kernel)
        env = self.ENVS[name]()
        k, steps = drawn_rows(env, 23, 300)
        steps = list(steps)
        assert len(seen) == 2  # one kernel call per block
        for ((rows, outcome), uniforms), rates in zip(steps, np.concatenate(seen)):
            draws = iter(uniforms[k:])
            expected = [
                shannon_rate(grid.channel if grid.fixed else ChannelState(
                    *channel_at(bin_channel(grid, b), next(draws), next(draws))))
                for grid, b in zip(env.grids, device_bins(env, rows))
            ]
            bits = payload_bits(env.scenario.profile)
            dead = any(link_infeasible(bits, dev.tx_power_w, rate)
                       for dev, rate in zip(env.scenario.devices, expected))
            assert (outcome is None) == dead
            if dead:
                assert rates.tolist() == [1.0] * len(expected)
            else:
                assert [r.hex() for r in rates.tolist()] == [r.hex() for r in expected]

    def test_non_finite_range_width_rejected_at_construction(self):
        wide = ChannelDistribution((1e6, 2e6), (-1e308, 1e308))
        scenario = dataclasses.replace(default_scenario(), channels=(wide, wide))
        with pytest.raises(ValueError, match="wider than the largest float"):
            PartitionEnv(scenario)


class TestBlockDraw:
    """Steps drawn a block at a time equal the per-step reference: the
    same rows and effects of every device and cut, bit for bit."""

    REFERENCE_ENVS = {
        "stock": TestRecordFreeStep.ENVS["stock"],
        "underflow_snr_always": TestRecordFreeStep.ENVS["underflow_snr_always"],
        "too_low_rate_range": TestRecordFreeStep.ENVS["too_low_rate_range"],
        **{f"mixed_random_{seed}": (lambda seed=seed: mixed_random_env(
            np.random.default_rng(seed))) for seed in range(6)},
    }

    @pytest.mark.parametrize("name", sorted(REFERENCE_ENVS))
    def test_rows_equal_step_reference_bit_for_bit(self, name):
        env = self.REFERENCE_ENVS[name]()
        steps = 300  # two blocks
        expected = step_rows(env, np.random.default_rng(41), steps)
        drawn = list(env_rows(env, np.random.default_rng(41), steps))
        assert len(drawn) == steps
        for (rows, outcome), (ref_rows, ref_outcome) in zip(drawn, expected):
            assert rows == ref_rows
            assert hex_rows(outcome) == hex_rows(ref_outcome)
            if name == "underflow_snr_always":
                assert ref_outcome is None
        if name == "too_low_rate_range":  # both kinds of step occur
            assert {outcome is None for _, outcome in drawn} == {True, False}


class TestEnvState:
    def test_rows_of_each_devices_bin(self):
        env = PartitionEnv(default_scenario(), snr_bins=2)
        # first device in SNR bin 1, second in bin 0: rows 1 and 2 + 0
        rows, _ = one_row(env, Draws([0.0, 0.75, 0.0, 0.25] + [0.5] * 4))
        assert rows == (1, 2)
        assert device_bins(env, rows) == [1, 0]
