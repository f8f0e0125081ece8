import copy
import dataclasses

import numpy as np
import pytest

from splitcvl.errors import ZeroRateError
from splitcvl.netmodel import (
    ChannelDistribution,
    ChannelState,
    device_from_kind,
    shannon_rate,
)
from splitcvl.rlopt import env as env_module
from splitcvl.rlopt.env import PartitionEnv, ReplayBuffer, Transition
from splitcvl.trico import (
    PartitionDecision,
    Scenario,
    TriCoWeights,
    decision_effect,
    default_conf_table,
    default_scenario,
)

from helpers import synthetic_profile


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
        "bins", [dict(snr_bins=1_000_000_000), dict(bandwidth_bins=65, snr_bins=63, horizon=1)]
    )
    def test_state_space_cap_checked_before_bins_are_built(self, bins, monkeypatch):
        def no_grid(*args):
            raise AssertionError("channel bins built before the state-space check")

        monkeypatch.setattr(env_module, "_ChannelGrid", no_grid)
        with pytest.raises(ValueError, match="exceeds the cap of 4096"):
            PartitionEnv(default_scenario(), **bins)

    def test_state_space_at_cap_accepted(self):
        env = PartitionEnv(default_scenario(), bandwidth_bins=4, snr_bins=8, horizon=4)
        assert env.n_states == 4096

    def test_fixed_channels_count_one_bin(self):
        # a fixed channel is one bin, whatever the bin counts
        env = PartitionEnv(fixed_channel_scenario(), snr_bins=5000, horizon=2)
        assert env.n_states == 2

    def test_action_encoding_round_trip(self):
        # an action id is the mixed-radix number of the cuts, first device first
        env = PartitionEnv(default_scenario())
        for a in range(env.n_actions):
            assert env.decode_action(a).cuts == divmod(a, 5)
        with pytest.raises(ValueError):
            env.decode_action(env.n_actions)

    def test_state_encoding_round_trip(self):
        # state id = step * n_combos + combo, the combo a mixed-radix number
        # of the devices' bins, first device first; DQN and PPO features and
        # the tabular agents' rows depend on this layout
        env = PartitionEnv(default_scenario(), bandwidth_bins=2, snr_bins=3, horizon=2)
        n_bins = 6
        n_combos = n_bins * n_bins
        assert env.n_states == 2 * n_combos
        for step in range(2):
            for b0 in range(n_bins):
                for b1 in range(n_bins):
                    state_id = step * n_combos + b0 * n_bins + b1
                    assert env.decode_state(state_id) == ((b0, b1), step)

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
            assert tr.reward == -expected
            assert tr.done

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

    def test_horizon_controls_done_flag(self):
        env = PartitionEnv(default_scenario(), horizon=3)
        rng = np.random.default_rng(6)
        state = env.reset(rng)
        assert env.decode_state(state)[1] == 0
        tr = env.step(state, 0, rng)
        assert not tr.done
        assert env.decode_state(tr.next_state)[1] == 1
        tr2 = env.step(tr.next_state, 0, rng)
        tr3 = env.step(tr2.next_state, 0, rng)
        assert tr3.done
        assert env.decode_state(tr3.next_state)[1] == 0

    def test_terminal_step_draws_next_channels_but_leaves_next_state_0(self):
        # the next state's uniforms are drawn on every step, so the random
        # stream is the same whatever the horizon; only their bins are skipped
        env = PartitionEnv(default_scenario(), snr_bins=2)
        rng, twin = np.random.default_rng(8), np.random.default_rng(8)
        tr = env.step(3, 0, rng)
        assert tr.done and tr.next_state == 0
        twin.random(8)  # 2 devices x 2 uniforms, this step's and the next's
        assert rng.random() == twin.random()

    def test_evaluate_action_matches_mean_channel_effect(self):
        scenario = default_scenario()
        env = PartitionEnv(scenario, snr_bins=1)
        eff = env.evaluate_action(0, 24)
        expected = decision_effect(scenario, PartitionDecision((4, 4)))
        assert eff == pytest.approx(expected)

    def test_state_bins_cover_sampled_channels(self):
        env = PartitionEnv(default_scenario(), snr_bins=4, bandwidth_bins=3)
        rng = np.random.default_rng(7)
        for _ in range(200):
            s = env.reset(rng)
            bins, _ = env.decode_state(s)
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


def record_path_transition(env, state, action, draws):
    """(reward, next state) by way of channel records and ``decision_effect``."""
    bins, step = env.decode_state(state)
    channels = tuple(
        grid.channel if grid.fixed else ChannelState(*grid.bins[b].at(next(draws), next(draws)))
        for grid, b in zip(env.grids, bins)
    )
    try:
        reward = -decision_effect(env.scenario, env.decode_action(action), channels)
    except ZeroRateError:
        reward = -1.0
    if step + 1 >= env.horizon:
        return reward, 0
    combo = 0
    for grid in env.grids:
        combo = combo * grid.n_bins + grid.draw_bin(draws)
    return reward, (step + 1) * env.n_combos + combo


class TestRecordFreeStep:
    """``step`` maps its uniforms to rates without building channel records;
    replaying the same uniforms through the records gives the same reward."""

    ENVS = {
        "stock": lambda: PartitionEnv(default_scenario()),
        "horizon2_2x3": lambda: PartitionEnv(
            default_scenario(), bandwidth_bins=2, snr_bins=3, horizon=2
        ),
        "mixed_3_devices": lambda: PartitionEnv(three_device_scenario(4.0), snr_bins=3),
        "degenerate_range": lambda: PartitionEnv(
            dataclasses.replace(
                default_scenario(),
                channels=(ChannelDistribution((5e6, 5e6), (8.0, 8.0)),) * 2,
            ),
            bandwidth_bins=2,
            snr_bins=2,
        ),
        "zero_snr_fixed": lambda: PartitionEnv(three_device_scenario(0.0), horizon=2),
    }

    @pytest.mark.parametrize("name", sorted(ENVS))
    def test_reward_is_negative_decision_effect_bit_for_bit(self, name):
        env = self.ENVS[name]()
        rng, actions = np.random.default_rng(21), np.random.default_rng(22)
        state = env.reset(rng)
        for _ in range(600):
            action = int(actions.integers(env.n_actions))
            twin = copy.deepcopy(rng)
            tr = env.step(state, action, rng)
            # two uniforms per device, this step's channels and the next's
            draws = iter(twin.random(4 * len(env.grids)).tolist())
            reward, next_state = record_path_transition(env, state, action, draws)
            assert tr.reward.hex() == reward.hex()
            assert tr.next_state == next_state
            if name == "zero_snr_fixed":
                assert tr.reward == -1.0
            state = env.reset(rng) if tr.done else tr.next_state

    @pytest.mark.parametrize("name", sorted(ENVS))
    def test_rates_equal_shannon_rate_of_channel_records(self, name):
        # the stock effect barely moves with the rate, so check rates directly
        env = self.ENVS[name]()
        u = np.random.default_rng(23).random(200).tolist()
        for grid in env.grids:
            for b, dist in enumerate(grid.bins):
                for u_bw, u_snr in zip(u[::2], u[1::2]):
                    record = dist if grid.fixed else ChannelState(*dist.at(u_bw, u_snr))
                    rate = grid.rate_within(b, iter((u_bw, u_snr)))
                    assert rate.hex() == shannon_rate(record).hex()

    def test_non_finite_range_width_rejected_at_construction(self):
        wide = ChannelDistribution((1e6, 2e6), (-1e308, 1e308))
        scenario = dataclasses.replace(default_scenario(), channels=(wide, wide))
        with pytest.raises(ValueError, match="wider than the largest float"):
            PartitionEnv(scenario)


class TestReplayBuffer:
    def test_fifo_eviction(self):
        buf = ReplayBuffer(2)
        for i in range(5):
            buf.push(Transition(i, 0, 0.0, 0, True))
        assert len(buf) == 2
        states = set(buf.sample_batch(np.random.default_rng(0), 50).states.tolist())
        assert states <= {3, 4}

    def test_capacity_one_always_latest(self):
        buf = ReplayBuffer(1)
        rng = np.random.default_rng(1)
        for i in range(10):
            buf.push(Transition(i, 0, 0.0, 0, True))
            assert buf.sample_batch(rng, 1).states.tolist() == [i]

    def test_sampling_deterministic_under_seed(self):
        buf = ReplayBuffer(100)
        for i in range(100):
            buf.push(Transition(i, 0, 0.0, 0, True))
        a = buf.sample_batch(np.random.default_rng(3), 10)
        b = buf.sample_batch(np.random.default_rng(3), 10)
        for field_a, field_b in zip(a, b):
            assert np.array_equal(field_a, field_b)

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError):
            ReplayBuffer(3).sample_batch(np.random.default_rng(0), 1)


class TestEnvState:
    def test_decode_fields(self):
        env = PartitionEnv(default_scenario(), snr_bins=2, horizon=2)
        # step 1, first device in bin 1, second in bin 0
        assert env.decode_state(1 * 4 + 1 * 2 + 0) == ((1, 0), 1)
