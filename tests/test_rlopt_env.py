import copy
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
from splitcvl.rlopt.env import PartitionEnv, ReplayBuffer, Transition
from splitcvl.trico import (
    CutCosts,
    PartitionDecision,
    Scenario,
    TriCoWeights,
    decision_effect,
    default_conf_table,
    default_scenario,
)

from helpers import (
    channel_at,
    evaluate_action,
    exact_bin,
    record_path_reward,
    record_path_state,
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
        assert env.feature_dim == 2 + 2

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
            assert env.decode_action(a).cuts == divmod(a, 5)
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
                assert env.decode_state(b0 * n_bins + b1) == (b0, b1)

    def test_state_features_are_one_hots(self):
        env = PartitionEnv(default_scenario(), snr_bins=2)
        for s in range(env.n_states):
            f = env.state_features(s)
            assert f.shape == (env.feature_dim,)
            assert set(np.unique(f)) <= {0.0, 1.0}
            assert f.sum() == 2  # one hot per device channel


class TestStep:
    def test_reward_equals_negative_effect_when_deterministic(self):
        scenario = fixed_channel_scenario()
        env = PartitionEnv(scenario)
        rng = np.random.default_rng(0)
        state = env.reset(rng)
        for action in range(env.n_actions):
            tr = env.step(state, action, rng)
            expected = decision_effect(scenario, PartitionDecision((action,)))
            assert tr == (state, action, -expected)

    def test_same_seed_same_transition(self):
        env = PartitionEnv(default_scenario(), snr_bins=2)
        s = env.reset(np.random.default_rng(1))
        a = env.step(s, 13, np.random.default_rng(99))
        b = env.step(s, 13, np.random.default_rng(99))
        assert a == b

    def test_all_action_sweep_is_order_isomorphic_to_effect_table(self):
        scenario = fixed_channel_scenario()
        env = PartitionEnv(scenario)
        rng = np.random.default_rng(3)
        state = env.reset(rng)
        rewards = [env.step(state, a, rng).reward for a in range(env.n_actions)]
        effects = [
            decision_effect(scenario, PartitionDecision((a,)))
            for a in range(env.n_actions)
        ]
        assert np.argsort(rewards).tolist() == np.argsort([-e for e in effects]).tolist()

    def test_rewards_bounded(self):
        env = PartitionEnv(default_scenario(), snr_bins=2)
        rng = np.random.default_rng(4)
        for _ in range(300):
            s = env.reset(rng)
            tr = env.step(s, int(rng.integers(env.n_actions)), rng)
            assert -1.0 <= tr.reward <= 0.0

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
        rng = np.random.default_rng(5)
        tr = env.step(env.reset(rng), 0, rng)
        assert tr.reward == -1.0

    @pytest.mark.parametrize("fixed_snr", [4.0, 0.0])
    def test_step_draws_two_channel_sets(self, fixed_snr):
        # a step draws 2 uniforms per drawn channel for its own channels and
        # as many again that it does not use; every recorded trace depends
        # on that stream. A fixed channel draws nothing, and a zero-rate
        # step, which stops at the fixed channel, draws the same
        env = PartitionEnv(three_device_scenario(fixed_snr), snr_bins=3)
        rng, twin = np.random.default_rng(8), np.random.default_rng(8)
        for action in range(env.n_actions):
            tr = env.step(5, action, rng)
            assert (tr.reward == -1.0) == (fixed_snr == 0.0)
            twin.random(2 * 2 * 2)
            assert rng.bit_generator.state == twin.bit_generator.state

    def test_evaluate_action_matches_mean_channel_effect(self):
        scenario = default_scenario()
        env = PartitionEnv(scenario, snr_bins=1)
        eff = evaluate_action(env, 0, 24)
        expected = decision_effect(scenario, PartitionDecision((4, 4)))
        assert eff == pytest.approx(expected)

    def test_state_bins_cover_sampled_channels(self):
        env = PartitionEnv(default_scenario(), snr_bins=4, bandwidth_bins=3)
        rng = np.random.default_rng(7)
        for _ in range(200):
            bins = env.decode_state(env.reset(rng))
            assert len(bins) == 2
            assert all(0 <= b < 12 for b in bins)


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


class Draws:
    """Stands in for a generator: ``random(n)`` returns the next ``n`` of
    fixed uniforms."""

    def __init__(self, values):
        self.values = list(values)

    def random(self, n):
        head, self.values = self.values[:n], self.values[n:]
        assert len(head) == n
        return np.array(head)


def two_channel_env(snr_a, snr_b, **bins):
    """The stock scenario with its two channels' SNR ranges (dB) replaced."""
    channels = tuple(ChannelDistribution((5e6, 20e6), snr) for snr in (snr_a, snr_b))
    return PartitionEnv(dataclasses.replace(default_scenario(), channels=channels), **bins)


class TestRecordFreeStep:
    """``reset`` and ``step`` map their uniforms to bins and rates without
    building channel records. Replaying the same uniforms through the
    records gives the same reward, and binning them by the exact rule
    (``helpers.grid_bin``) gives the same state."""

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
    }
    ALWAYS_ZERO_RATE = {"zero_snr_fixed", "underflow_snr_always"}

    @pytest.mark.parametrize("name", sorted(ENVS))
    def test_reset_matches_record_path_bit_for_bit(self, name):
        env = self.ENVS[name]()
        rng = np.random.default_rng(20)
        n_draws = 2 * sum(not grid.fixed for grid in env.grids)
        for _ in range(600):
            twin = copy.deepcopy(rng)
            state = env.reset(rng)
            draws = iter(twin.random(n_draws).tolist())
            assert state == record_path_state(env, draws)
            assert rng.random() == twin.random()  # reset drew n_draws uniforms

    def test_reset_bins_an_edge_draw_by_its_uniform(self):
        # at u = 0.5 over 2.0-3.8 dB in 4 bins, the drawn SNR sits on the edge
        # of bins 1 and 2, where numpy's float64 log10 and math.log10 of the
        # linear SNR disagree; the uniform alone puts it in bin 2
        env = two_channel_env((2.0, 3.8), (2.0, 3.8), snr_bins=4)
        draws = Draws([0.5] * 4)
        assert env.reset(draws) == record_path_state(env, iter([0.5] * 4)) == 2 * 4 + 2

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
            for u_bw, u_snr in zip(us, reversed(us)):
                expected = exact_bin(u_bw, bins) * bins + exact_bin(u_snr, bins)
                assert env.reset(Draws([u_bw, u_snr])) == expected, (bins, u_bw, u_snr)

    @pytest.mark.parametrize("name", sorted(ENVS))
    def test_reward_is_negative_decision_effect_bit_for_bit(self, name):
        env = self.ENVS[name]()
        rng, actions = np.random.default_rng(21), np.random.default_rng(22)
        for _ in range(600):
            state = env.reset(rng)
            action = int(actions.integers(env.n_actions))
            twin = copy.deepcopy(rng)
            tr = env.step(state, action, rng)
            # two uniforms per drawn channel come first
            draws = iter(twin.random(2 * len(env.grids)).tolist())
            reward = record_path_reward(env, state, action, draws)
            assert tr.reward.hex() == reward.hex()
            if name in self.ALWAYS_ZERO_RATE:
                assert tr.reward == -1.0

    @pytest.mark.parametrize("name", sorted(ENVS))
    def test_rates_equal_shannon_rate_of_channel_records(self, name, monkeypatch):
        # the stock effect barely moves with the rate, so check the rates
        # that step hands to CutCosts.effect directly, in every state; the
        # env binds the method when it is made
        seen = []
        effect = CutCosts.effect

        def recording_effect(costs, rate, cut):
            seen.append(rate)
            return effect(costs, rate, cut)

        monkeypatch.setattr(CutCosts, "effect", recording_effect)
        env = self.ENVS[name]()
        rng = np.random.default_rng(23)
        for state in range(env.n_states):
            bins = env.decode_state(state)
            for _ in range(10):
                twin = copy.deepcopy(rng)
                seen.clear()
                env.step(state, 0, rng)
                draws = iter(twin.random(2 * len(env.grids)).tolist())
                expected = [
                    shannon_rate(grid.channel if grid.fixed else ChannelState(
                        *channel_at(grid.bins[b], next(draws), next(draws))))
                    for grid, b in zip(env.grids, bins)
                ]
                # a zero rate ends the step's evaluations
                assert seen and (len(seen) == len(expected) or seen[-1] == 0.0)
                assert [r.hex() for r in seen] == [r.hex() for r in expected[:len(seen)]]

    def test_non_finite_range_width_rejected_at_construction(self):
        wide = ChannelDistribution((1e6, 2e6), (-1e308, 1e308))
        scenario = dataclasses.replace(default_scenario(), channels=(wide, wide))
        with pytest.raises(ValueError, match="wider than the largest float"):
            PartitionEnv(scenario)


class TestReplayBuffer:
    def test_fifo_eviction(self):
        buf = ReplayBuffer(2)
        for i in range(5):
            buf.push(Transition(i, 0, 0.0))
        assert len(buf) == 2
        states = set(buf.sample_batch(np.random.default_rng(0), 50).states.tolist())
        assert states <= {3, 4}

    def test_capacity_one_always_latest(self):
        buf = ReplayBuffer(1)
        rng = np.random.default_rng(1)
        for i in range(10):
            buf.push(Transition(i, 0, 0.0))
            assert buf.sample_batch(rng, 1).states.tolist() == [i]

    def test_sampling_deterministic_under_seed(self):
        buf = ReplayBuffer(100)
        for i in range(100):
            buf.push(Transition(i, i % 7, -i / 100))
        a = buf.sample_batch(np.random.default_rng(3), 10)
        b = buf.sample_batch(np.random.default_rng(3), 10)
        for field_a, field_b in zip(a, b):
            assert np.array_equal(field_a, field_b)
        assert (a.actions == a.states % 7).all() and (a.rewards == -a.states / 100).all()

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError):
            ReplayBuffer(3).sample_batch(np.random.default_rng(0), 1)


class TestEnvState:
    def test_decode_fields(self):
        env = PartitionEnv(default_scenario(), snr_bins=2)
        # first device in bin 1, second in bin 0
        assert env.decode_state(1 * 2 + 0) == (1, 0)
