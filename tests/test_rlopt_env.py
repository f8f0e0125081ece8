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
from splitcvl.trico import (
    EffectKernel,
    Scenario,
    TriCoWeights,
    decision_effect,
    default_conf_table,
    default_scenario,
)

from helpers import (
    bin_channel,
    channel_at,
    decode_state,
    env_rows,
    evaluate_action,
    exact_bin,
    link_infeasible,
    payload_bits,
    random_scenario,
    record_path_reward,
    record_path_state,
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
        assert env.n_actions == 25
        assert env.n_states == 4  # 2 snr bins per device
        assert env.features.shape == (4, 2 + 2)

    def test_action_space_cap(self):
        profile = synthetic_profile([400, 200], flops=[1, 1])
        devices = tuple(device_from_kind(f"u{i}", "uav") for i in range(7))
        channels = tuple(ChannelState(1e6, 3.0) for _ in range(7))
        scenario = Scenario(
            devices, channels, profile, default_conf_table(2), TriCoWeights()
        )
        with pytest.raises(ValueError):
            PartitionEnv(scenario)

    @pytest.mark.parametrize(
        "bins", [dict(snr_bins=1_000_000_000), dict(bandwidth_bins=65, snr_bins=63)]
    )
    def test_state_space_cap_checked_before_bins_are_built(self, bins, monkeypatch):
        def no_grid(*args):
            raise AssertionError("channel bins built before the state-space check")

        monkeypatch.setattr(env_module, "_ChannelGrid", no_grid)
        with pytest.raises(ValueError, match="exceeds the cap of 4096"):
            PartitionEnv(default_scenario(), **bins)

    def test_state_space_at_cap_accepted(self):
        env = PartitionEnv(default_scenario(), bandwidth_bins=8, snr_bins=8)
        assert env.n_states == 4096

    def test_fixed_channels_count_one_bin(self):
        # a fixed channel is one bin, whatever the bin counts
        env = PartitionEnv(fixed_channel_scenario(), snr_bins=5000)
        assert env.n_states == 1

    def test_action_encoding_round_trip(self):
        # an action id is the mixed-radix number of the cuts, first device first
        env = PartitionEnv(default_scenario())
        for a in range(env.n_actions):
            assert env.decode_action(a) == divmod(a, 5)
        with pytest.raises(ValueError):
            env.decode_action(env.n_actions)

    def test_state_encoding_round_trip(self):
        # a state id is the mixed-radix number of the devices' bins, first
        # device first; DQN and PPO features and the tabular agents' rows
        # depend on this layout
        env = PartitionEnv(default_scenario(), bandwidth_bins=2, snr_bins=3)
        n_bins = 6
        assert env.n_states == n_bins * n_bins
        for b0 in range(n_bins):
            for b1 in range(n_bins):
                assert decode_state(env, b0 * n_bins + b1) == (b0, b1)

    def test_state_features_are_one_hots(self):
        # row s of ``features`` is the one-hot of each device's bin in
        # state s, first device first; a fixed channel is one column
        for env in (PartitionEnv(default_scenario(), snr_bins=2),
                    PartitionEnv(three_device_scenario(4.0), bandwidth_bins=2, snr_bins=3)):
            widths = [grid.n_bins for grid in env.grids]
            expected = np.zeros((env.n_states, sum(widths)))
            for s in range(env.n_states):
                offset = 0
                for b, width in zip(decode_state(env, s), widths):
                    expected[s, offset + b] = 1.0
                    offset += width
            assert env.features.dtype == np.float64
            assert env.features.tobytes() == expected.tobytes()


def one_row(env, rng):
    """(state, u, outcome) of one step drawn from ``rng``."""
    return next(env_rows(env, rng, 1))


def row_rewards(env, outcome):
    return [env.reward(outcome, a) for a in range(env.n_actions)]


class TestStep:
    def test_reward_equals_negative_effect_when_deterministic(self):
        scenario = fixed_channel_scenario()
        env = PartitionEnv(scenario)
        state, _, outcome = one_row(env, np.random.default_rng(0))
        assert state == 0
        for action in range(env.n_actions):
            expected = decision_effect(scenario, (action,))
            assert env.reward(outcome, action) == -expected

    def test_same_seed_same_transition(self):
        env = PartitionEnv(default_scenario(), snr_bins=2)
        a = list(env_rows(env, np.random.default_rng(99), 300))
        b = list(env_rows(env, np.random.default_rng(99), 300))
        assert a == b and len(a) == 300

    def test_all_action_sweep_is_order_isomorphic_to_effect_table(self):
        scenario = fixed_channel_scenario()
        env = PartitionEnv(scenario)
        _, _, outcome = one_row(env, np.random.default_rng(3))
        rewards = row_rewards(env, outcome)
        effects = [
            decision_effect(scenario, (a,))
            for a in range(env.n_actions)
        ]
        assert np.argsort(rewards).tolist() == np.argsort([-e for e in effects]).tolist()

    def test_rewards_bounded(self):
        env = PartitionEnv(default_scenario(), snr_bins=2)
        rng = np.random.default_rng(4)
        for _, _, outcome in env_rows(env, rng, 300):
            assert all(-1.0 <= r <= 0.0 for r in row_rewards(env, outcome))

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
        for _, _, outcome in env_rows(env, np.random.default_rng(5), 10):
            assert row_rewards(env, outcome) == [-1.0, -1.0]

    @pytest.mark.parametrize("fixed_snr", [4.0, 0.0])
    def test_step_draws_two_channel_sets(self, fixed_snr):
        # a row holds 2 uniforms per drawn channel for the state, one for
        # the agent, 2 per drawn channel for the step's channels and as many
        # again that it does not use; every recorded trace depends on that
        # stream. A fixed channel draws nothing, and a zero-rate row draws
        # the same
        env = PartitionEnv(three_device_scenario(fixed_snr), snr_bins=3)
        rng, twin = np.random.default_rng(8), np.random.default_rng(8)
        for steps in (1, env_module.BLOCK_STEPS, env_module.BLOCK_STEPS + 3):
            for _, _, outcome in env_rows(env, rng, steps):
                assert (outcome is None) == (fixed_snr == 0.0)
            twin.random(steps * (2 * 2 + 1 + 2 * 2 * 2))
            assert rng.bit_generator.state == twin.bit_generator.state

    def test_evaluate_action_matches_mean_channel_effect(self):
        scenario = default_scenario()
        env = PartitionEnv(scenario, snr_bins=1)
        eff = evaluate_action(env, 0, 24)
        expected = decision_effect(scenario, (4, 4))
        assert eff == pytest.approx(expected)

    def test_state_bins_cover_sampled_channels(self):
        env = PartitionEnv(default_scenario(), snr_bins=4, bandwidth_bins=3)
        states = [state for state, _, _ in env_rows(env, np.random.default_rng(7), 2000)]
        for state in states:
            bins = decode_state(env, state)
            assert len(bins) == 2
            assert all(0 <= b < 12 for b in bins)
        assert set(states) == set(range(env.n_states))


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
    uniforms = np.random.default_rng(seed).random((steps, 3 * k + 1)).tolist()
    return k, zip(rows, uniforms)


class TestRecordFreeStep:
    """A block maps its uniforms to bins and rates without building
    channel records. Replaying a row's uniforms through the records gives
    the same rewards, and binning them by the exact rule
    (``helpers.grid_bin``) gives the same state. ``helpers.StepEnv``, the
    per-step reset and step that the block replaced, gives the same
    states, agent uniforms and rewards. The record path scores through
    the env's own ``EffectKernel``; ``TestBlockDraw`` checks the rewards
    against independent scalar code."""

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
        # keeps its uniform's bin, and a step over it gets the zero-rate reward
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
        k, rows = drawn_rows(env, 20, 600)
        for (state, u, _), uniforms in rows:
            assert state == record_path_state(env, iter(uniforms[:k]))
            assert u == uniforms[k]

    def test_reset_bins_an_edge_draw_by_its_uniform(self):
        # at u = 0.5 over 2.0-3.8 dB in 4 bins, the drawn SNR sits on the edge
        # of bins 1 and 2, where numpy's float64 log10 and math.log10 of the
        # linear SNR disagree; the uniform alone puts it in bin 2
        env = two_channel_env((2.0, 3.8), (2.0, 3.8), snr_bins=4)
        state, _, _ = one_row(env, Draws([0.5] * 13))
        assert state == record_path_state(env, iter([0.5] * 4)) == 2 * 4 + 2

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
            # a row: the state's two uniforms, then the agent's and the
            # channel's, and two unused
            draws = Draws([x for pair in pairs for x in (*pair, 0.5, *pair, 0.5, 0.5)])
            states = [state for state, _, _ in env_rows(env, draws, len(pairs))]
            expected = [exact_bin(u_bw, bins) * bins + exact_bin(u_snr, bins)
                        for u_bw, u_snr in pairs]
            assert states == expected, bins

    @pytest.mark.parametrize("name", sorted(ENVS))
    def test_reward_is_negative_decision_effect_bit_for_bit(self, name):
        env = self.ENVS[name]()
        actions = np.random.default_rng(22)
        k, rows = drawn_rows(env, 21, 600)
        for (state, _, outcome), uniforms in rows:
            action = int(actions.integers(env.n_actions))
            reward = env.reward(outcome, action)
            # the row's channel uniforms, two per drawn channel
            channel_draws = iter(uniforms[k + 1:2 * k + 1])
            expected = record_path_reward(env, state, action, channel_draws)
            assert reward.hex() == expected.hex()
            if name in self.ALWAYS_ZERO_RATE:
                assert reward == -1.0

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
        k, rows = drawn_rows(env, 23, 300)
        rows = list(rows)
        assert len(seen) == 2  # one kernel call per block
        for ((state, _, outcome), uniforms), rates in zip(rows, np.concatenate(seen)):
            draws = iter(uniforms[k + 1:2 * k + 1])
            expected = [
                shannon_rate(grid.channel if grid.fixed else ChannelState(
                    *channel_at(bin_channel(grid, b), next(draws), next(draws))))
                for grid, b in zip(env.grids, decode_state(env, state))
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
    """Rows drawn a block at a time equal the per-step reference: the same
    states, agent uniforms and rewards of every action, bit for bit."""

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
        rows = list(env_rows(env, np.random.default_rng(41), steps))
        assert len(rows) == steps
        for (state, u, outcome), (ref_state, ref_u, ref_rewards) in zip(rows, expected):
            assert (state, u.hex()) == (ref_state, ref_u.hex())
            assert [r.hex() for r in row_rewards(env, outcome)] == [
                r.hex() for r in ref_rewards]
            if name == "underflow_snr_always":
                assert set(ref_rewards) == {-1.0}
        if name == "too_low_rate_range":  # both kinds of row occur
            assert {outcome is None for _, _, outcome in rows} == {True, False}


class TestEnvState:
    def test_decode_fields(self):
        env = PartitionEnv(default_scenario(), snr_bins=2)
        # first device in bin 1, second in bin 0
        assert decode_state(env, 1 * 2 + 0) == (1, 0)
