import dataclasses
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from splitcvl.rlopt import agents as agents_module
from splitcvl.rlopt import env as env_module
from splitcvl.rlopt.agents import (
    Hyperparams,
    _epsilons,
    _generators,
    _make_trace,
    ppo_policy_gradient,
    train_actor_critic,
    train_agent,
    train_dqn,
    train_multi_q,
    train_ppo,
    train_q_learning,
)
from splitcvl.rlopt.env import PartitionEnv
from splitcvl.netmodel import ChannelDistribution, ChannelState, device_from_kind
from splitcvl.rlopt.nets import TinyNet
from splitcvl.trico import (
    ConfEntry,
    default_scenario,
    optimal_decision,
)

from helpers import (
    BanditEnv,
    dqn_reference,
    env_rows,
    epsilon_at,
    flat_params,
    policy_effect,
    ppo_reference,
    softmax,
    synthetic_profile,
    tabular_reference,
)


TWO_ARM = [[0.9, 0.2]]  # one device, two cuts


class TestTrace:
    def test_moving_average_window_arithmetic(self):
        trace = _make_trace([1.0, 2.0, 3.0, 4.0], window=2)
        assert trace.moving_avg.tolist() == [1.0, 1.5, 2.5, 3.5]

    def test_head_uses_exactly_steps_so_far(self):
        trace = _make_trace([2.0, 4.0, 6.0], window=10)
        assert trace.moving_avg.tolist() == [2.0, 3.0, 4.0]

    def test_empty_trace(self):
        trace = _make_trace([], window=5)
        assert len(trace) == 0
        with pytest.raises(ValueError):
            trace.final_moving_avg

    def test_csv_shape(self):
        trace = _make_trace([0.5, 0.25], window=2)
        lines = trace.to_csv().strip().split("\n")
        assert lines[0] == "step,effect,moving_avg"
        assert len(lines) == 3
        assert lines[1].startswith("0,0.5,")


class TestEpsilonSchedule:
    @pytest.mark.parametrize("fraction", [0.0, 0.3, 0.5, 1.0, 1.7])
    @pytest.mark.parametrize("steps", [0, 1, 7, 3000])
    def test_equals_per_step_formula(self, fraction, steps):
        hyper = Hyperparams(epsilon_start=0.9, epsilon_final=0.03,
                            epsilon_decay_fraction=fraction)
        expected = [epsilon_at(t, steps, hyper) for t in range(steps)]
        assert [e.hex() for e in _epsilons(steps, hyper)] == [e.hex() for e in expected]


class TestQLearning:
    def test_bandit_picks_best_arm(self):
        policy, _ = train_q_learning(BanditEnv(TWO_ARM), 200, seed=1)
        assert policy.action((0,)) == (1,)

    def test_gamma_zero_lr_one_single_visits(self):
        # Every episode is one step, so the update is gamma-zero Q-learning:
        # with lr=1 the table holds the last seen reward.
        effects = [0.3, 0.7, 0.5]
        env = BanditEnv([effects])
        hyper = Hyperparams(lr=1.0, epsilon_start=1.0, epsilon_final=1.0)
        policy, trace = train_q_learning(env, 300, hyper=hyper, seed=2)
        assert policy.action((0,)) == (0,)
        assert policy.table[0].tolist() == [-e for e in effects]
        assert set(np.round(trace.effects, 6)) <= {0.3, 0.7, 0.5}

    def test_q_converges_to_reward_vector(self):
        # fixed point of the update: Q equals the rewards up to the
        # contraction left by the finite visit count
        effects = [0.6, 0.1, 0.9]
        env = BanditEnv([effects])
        hyper = Hyperparams(epsilon_start=1.0, epsilon_final=1.0, lr=0.2)
        policy, _ = train_q_learning(env, 2000, hyper=hyper, seed=3)
        assert policy.action((0,)) == (1,)
        assert np.allclose(policy.table[0], [-e for e in effects], atol=1e-10)

    def test_trace_length_matches_steps(self):
        _, trace = train_q_learning(BanditEnv(TWO_ARM), 123, seed=0)
        assert len(trace) == 123

    def test_bit_identical_traces_for_same_seed(self):
        a = train_q_learning(BanditEnv(TWO_ARM), 250, seed=7)[1]
        b = train_q_learning(BanditEnv(TWO_ARM), 250, seed=7)[1]
        assert np.array_equal(a.effects, b.effects)
        assert np.array_equal(a.moving_avg, b.moving_avg)


class TestMultiQ:
    def test_degenerate_ensemble_matches_single_q_policy(self):
        # Identical zero-initialized tables in a deterministic env settle on
        # the same greedy arm as plain Q-learning.
        env = BanditEnv([[0.9, 0.2, 0.5]])
        single, _ = train_q_learning(env, 400, seed=5)
        multi, _ = train_multi_q(env, 400, Hyperparams(multi_q_tables=4), seed=5)
        assert multi.action((0,)) == single.action((0,)) == (1,)

    def test_bandit_argmax(self):
        policy, _ = train_multi_q(BanditEnv(TWO_ARM), 300, Hyperparams(multi_q_tables=3), seed=6)
        assert policy.action((0,)) == (1,)

    def test_needs_two_tables(self):
        with pytest.raises(ValueError):
            Hyperparams(multi_q_tables=1)

    def test_deterministic(self):
        hyper = Hyperparams(multi_q_tables=4)
        a = train_multi_q(BanditEnv(TWO_ARM), 200, hyper, seed=9)[1]
        b = train_multi_q(BanditEnv(TWO_ARM), 200, hyper, seed=9)[1]
        assert np.array_equal(a.effects, b.effects)


class TestActorCritic:
    def test_initial_policy_entropy_is_log_n(self):
        # An untrained actor has zero logits, hence a uniform softmax.
        env = BanditEnv([[0.5] * 7])
        policy, _ = train_actor_critic(env, 0, seed=0)
        probs = softmax(policy.table[0][None, :])[0]
        entropy = -(probs * np.log(probs)).sum()
        assert entropy == pytest.approx(math.log(env.n_cuts))

    def test_bandit_concentrates_on_best_action(self):
        env = BanditEnv([[0.8, 0.1, 0.6, 0.9]])
        policy, _ = train_actor_critic(env, 3000, seed=11)
        assert policy.action((0,)) == (1,)
        probs = softmax(policy.table[0][None, :])[0]
        assert probs[1] > 0.9

    def test_deterministic(self):
        a = train_actor_critic(BanditEnv(TWO_ARM), 300, seed=13)[1]
        b = train_actor_critic(BanditEnv(TWO_ARM), 300, seed=13)[1]
        assert np.array_equal(a.effects, b.effects)


class TestDQN:
    def test_degenerate_replay_tracks_latest_transition(self):
        env = BanditEnv(TWO_ARM)
        hyper = Hyperparams(replay_capacity=1, batch_size=1, hidden=(8,))
        policy, _ = train_dqn(env, 400, hyper=hyper, seed=14)
        assert policy.action((0,)) == (1,)

    def test_bandit(self):
        policy, _ = train_dqn(BanditEnv([[0.7, 0.2, 0.5]]), 500, seed=16)
        assert policy.action((0,)) == (1,)

    def test_one_forward_per_step(self, monkeypatch):
        # every episode is one step, so DQN regresses on rewards alone and
        # has no target net. Its one net runs once per step, exploring or
        # not: on every row when the env has at most (1 + batch_size) x
        # devices of them, else on (1 + min(batch_size, t + 1)) x devices
        # rows, the step's and its batch's (120 pushes stay below the
        # default capacity). Nothing runs it after training.
        calls = []
        forward = TinyNet.forward

        def counting_forward(self, x):
            calls.append((id(self), np.shape(x)[0] if np.ndim(x) == 2 else None))
            return forward(self, x)

        monkeypatch.setattr(TinyNet, "forward", counting_forward)
        steps = 120
        stock = PartitionEnv(default_scenario(), snr_bins=2)
        grid = PartitionEnv(default_scenario(), bandwidth_bins=2, snr_bins=3)
        wide = PartitionEnv(default_scenario(), bandwidth_bins=6, snr_bins=6)
        assert (stock.n_bins, grid.n_bins, wide.n_bins) == (4, 12, 72)
        # (env, batch_size, rows per step); 2 devices
        cases = [
            (stock, 32, [4] * steps),
            (grid, 32, [12] * steps),
            (grid, 5, [12] * steps),  # 12 rows against a step's 12
            (grid, 4, [2 * (1 + min(4, t + 1)) for t in range(steps)]),
            (wide, 35, [72] * steps),  # 72 rows against a step's 72
            (wide, 34, [2 * (1 + min(34, t + 1)) for t in range(steps)]),
            (wide, 32, [2 * (1 + min(32, t + 1)) for t in range(steps)]),
        ]
        for env, batch_size, per_step in cases:
            for eps in (None, 0.0, 1.0):
                calls.clear()
                fixed_eps = {} if eps is None else {"epsilon_start": eps, "epsilon_final": eps}
                train_dqn(env, steps, Hyperparams(batch_size=batch_size, **fixed_eps), seed=23)
                assert len({net for net, _ in calls}) == 1
                assert [rows for _, rows in calls] == per_step

    def test_deterministic(self):
        a = train_dqn(BanditEnv(TWO_ARM), 150, seed=17)[1]
        b = train_dqn(BanditEnv(TWO_ARM), 150, seed=17)[1]
        assert np.array_equal(a.effects, b.effects)


class TestPPOMechanics:
    def test_huge_clip_equals_vanilla_policy_gradient(self):
        # 12 samples of two devices of four cuts each: a softmax per device
        rng = np.random.default_rng(19)
        logits = rng.standard_normal((12, 2, 4))
        actions = rng.integers(0, 4, size=(12, 2))
        adv = rng.standard_normal((12, 2))
        probs = softmax(logits)
        rows, devices = np.arange(12)[:, None], np.arange(2)
        logp_old = np.log(probs[rows, devices, actions])

        grad = ppo_policy_gradient(logits, actions, adv, logp_old, clip=1e9, entropy_coef=0.0)

        # Vanilla policy gradient of -E[A_d log pi_d(a_d|s)] wrt logits,
        # the mean over the 24 (sample, device) pairs, computed directly
        # from the same batch (every ratio is 1 for the current policy).
        one_hot = np.zeros_like(probs)
        one_hot[rows, devices, actions] = 1.0
        vanilla = -(adv[..., None] * (one_hot - probs)) / 24
        assert np.allclose(grad, vanilla)

    def test_clip_blocks_gradient_outside_interval(self):
        rng = np.random.default_rng(20)
        logits = rng.standard_normal((6, 1, 3))  # one device
        actions = rng.integers(0, 3, size=(6, 1))
        adv = np.ones((6, 1))
        # Pretend the old policy assigned much higher probability, so the
        # current ratio is far below 1 for positive advantages: unclipped.
        probs = softmax(logits)
        taken = np.log(probs[np.arange(6)[:, None], 0, actions])
        g_active = ppo_policy_gradient(logits, actions, adv, taken + 5.0,
                                       clip=0.2, entropy_coef=0.0)
        assert np.any(g_active != 0.0)
        # Ratio far above 1+clip with positive advantage: fully clipped.
        g_clipped = ppo_policy_gradient(logits, actions, adv, taken - 5.0,
                                        clip=0.2, entropy_coef=0.0)
        assert np.allclose(g_clipped, 0.0)

    def test_bandit(self):
        policy, _ = train_ppo(BanditEnv([[0.9, 0.15, 0.6]]), 600, seed=21)
        assert policy.action((0,)) == (1,)

    def test_deterministic(self):
        a = train_ppo(BanditEnv(TWO_ARM), 200, seed=22)[1]
        b = train_ppo(BanditEnv(TWO_ARM), 200, seed=22)[1]
        assert np.array_equal(a.effects, b.effects)

    def test_horizon_one_skips_value_bootstrap(self, monkeypatch):
        # value-net forwards per rollout batch: one for the advantages and
        # one per epoch; one-step episodes have no next-state value
        value_calls = []
        forward = TinyNet.forward

        def counting_forward(self, x):
            if self.sizes[-1] == 1:  # the critic: one value per row
                value_calls.append(1)
            return forward(self, x)

        monkeypatch.setattr(TinyNet, "forward", counting_forward)
        hyper = Hyperparams(ppo_batch=64, ppo_epochs=4)
        train_ppo(PartitionEnv(default_scenario(), snr_bins=2), 128, hyper=hyper, seed=24)
        assert len(value_calls) == 2 * (1 + 4)


class TestOnScenarioEnv:
    def test_q_learning_approaches_oracle_on_default_scenario(self):
        scenario = default_scenario()
        env = PartitionEnv(scenario, snr_bins=2)
        _, oracle_eff = optimal_decision(scenario)
        policy, trace = train_q_learning(env, 3000, seed=0)
        assert trace.final_moving_avg <= 1.05 * oracle_eff
        assert policy_effect(env, policy) == pytest.approx(oracle_eff, rel=1e-6)

    def test_actor_critic_approaches_oracle(self):
        scenario = default_scenario()
        env = PartitionEnv(scenario, snr_bins=2)
        _, oracle_eff = optimal_decision(scenario)
        _, trace = train_actor_critic(env, 3000, seed=0)
        assert trace.final_moving_avg <= 1.05 * oracle_eff

    def test_rewards_bounded_for_all_agents(self):
        env = PartitionEnv(default_scenario(), snr_bins=2)
        for train in (train_q_learning, train_actor_critic):
            _, trace = train(env, 100, seed=1)
            assert np.all(trace.effects >= -1e-12)
            assert np.all(trace.effects <= 1.0 + 1e-12)

    def test_greedy_effect_never_beats_oracle(self):
        scenario = default_scenario()
        env = PartitionEnv(scenario, snr_bins=2)
        _, oracle_eff = optimal_decision(scenario)
        for name in ("q_learning", "multi_q", "actor_critic", "dqn", "ppo"):
            policy, _ = train_agent(name, env, 150, seed=2)
            assert policy_effect(env, policy) >= oracle_eff - 1e-9


def zero_effect_env():
    """The stock devices and channels over three cuts. Cut 0 has the
    smallest payload, the fewest prefix FLOPs and the largest KL, so each
    of its normalized terms is 0.0: the decision (0, 0) has effect 0.0 in
    every state, and each device's reward there is -0.0."""
    scenario = dataclasses.replace(
        default_scenario(),
        profile=synthetic_profile([1000, 2000, 4000], flops=[10, 10, 10]),
        conf_table=(ConfEntry(5.0, 5.0), ConfEntry(1.0, 1.0), ConfEntry(2.0, 2.0)),
    )
    return PartitionEnv(scenario, bandwidth_bins=2, snr_bins=2)


class TestOneStepUpdates:
    """The tabular updates no longer add a terminal bootstrap of 0.0 to
    the reward. For a reward of -0.0 that changes the update's sign of
    zero, but not the table: the tables start at +0.0, and adding -0.0 to
    a float never changes it unless it is -0.0 itself."""

    def test_zero_effect_reward_is_negative_zero(self):
        env = zero_effect_env()
        seen = set()
        for rows, outcome in env_rows(env, np.random.default_rng(0), 200):
            for effects in outcome:
                reward = -effects[0]
                assert reward == 0.0 and math.copysign(1.0, reward) == -1.0
                assert effects[1] > 0.0
            seen.update(rows)
        assert seen == set(range(env.n_bins))

    @pytest.mark.parametrize("name", ["q_learning", "multi_q", "actor_critic"])
    @pytest.mark.parametrize("hyper", [
        Hyperparams(),
        Hyperparams(lr=1.0, lr_actor=1.0, epsilon_start=1.0, epsilon_final=1.0),
        Hyperparams(lr=0.5, multi_q_tables=2, epsilon_decay_fraction=0.1),
    ], ids=["default", "lr_one_exploring", "fast_decay"])
    def test_table_equals_bootstrapped_update_bitwise(self, name, hyper):
        env = zero_effect_env()
        policy, trace = train_agent(name, env, 1500, hyper=hyper, seed=31)
        expected, _ = tabular_reference(name, env, 1500, hyper, 31, bootstrap=True)
        assert policy.table.tobytes() == expected.tobytes()
        assert (trace.effects == 0.0).sum() > 10  # rewards of -0.0 were learned from


AGENT_NAMES = ("q_learning", "multi_q", "actor_critic", "dqn", "ppo")


def four_device_env():
    """The stock scenario with a UAV and a vehicle added on fixed
    channels: 5 cuts on 4 devices, 625 joint actions, and 2 + 2 + 1 + 1
    rows."""
    stock = default_scenario()
    scenario = dataclasses.replace(
        stock,
        devices=stock.devices + (device_from_kind("uav2", "uav"),
                                 device_from_kind("veh2", "vehicle")),
        channels=stock.channels + (ChannelState(2e6, 10.0), ChannelState(8e6, 15.0)),
    )
    return PartitionEnv(scenario, snr_bins=2)


class TestFactoredBandit:
    """4 devices of 5 cuts each with fixed effects: 625 joint actions.
    Each device learns its own argmin from its own reward."""

    EFFECTS = [[0.5, 0.3, 0.9, 0.1, 0.7],
               [0.2, 0.8, 0.4, 0.6, 0.95],
               [0.9, 0.7, 0.5, 0.3, 0.1],
               [0.6, 0.1, 0.8, 0.4, 0.3]]

    @pytest.mark.parametrize("name", AGENT_NAMES)
    def test_greedy_action_is_every_devices_argmin(self, name):
        env = BanditEnv(self.EFFECTS)
        policy, trace = train_agent(name, env, 3000, seed=4)
        argmins = tuple(row.index(min(row)) for row in self.EFFECTS)
        assert argmins == (3, 0, 4, 1)
        assert policy.action(env.first_rows) == argmins
        assert trace.final_moving_avg <= 1.1 * sum(map(min, self.EFFECTS)) / 4


class TestGenerators:
    """The agents' generator pair is ``default_rng(seed)`` and what its
    ``spawn(1)[0]`` gives, built without ``Generator.spawn``, which
    NumPy 1.24 lacks."""

    @pytest.mark.skipif(not hasattr(np.random.Generator, "spawn"),
                        reason="Generator.spawn needs NumPy 1.25")
    @pytest.mark.parametrize("seed", [0, 3, 2**70])
    def test_pair_equals_default_rng_and_its_spawn(self, seed):
        rng, explore = _generators(seed)
        ref = np.random.default_rng(seed)
        ref_explore = ref.spawn(1)[0]
        assert rng.bit_generator.state == ref.bit_generator.state
        assert explore.bit_generator.state == ref_explore.bit_generator.state

    @pytest.mark.parametrize("shape", [(1, 0), (7, 3), (256, 2), (33, 41)])
    def test_one_random_call_equals_the_calls_it_replaces(self, shape):
        # the agents draw a block's uniforms in one call, where a per-step
        # loop makes one call per step; both leave the same generator state
        at_once, stepwise = np.random.default_rng(5), np.random.default_rng(5)
        drawn = at_once.random(shape).tolist()
        assert drawn == [stepwise.random(shape[1]).tolist() for _ in range(shape[0])]
        assert at_once.bit_generator.state == stepwise.bit_generator.state

    def test_agents_run_without_generator_spawn(self, monkeypatch):
        class NoSpawn(np.random.Generator):
            def spawn(self, n_children):
                raise AttributeError("Generator.spawn needs NumPy 1.25")

        default_rng = np.random.default_rng
        monkeypatch.setattr(np.random, "default_rng",
                            lambda seed: NoSpawn(default_rng(seed).bit_generator))
        env = PartitionEnv(default_scenario(), snr_bins=2)
        for name in AGENT_NAMES:
            train_agent(name, env, 300, seed=3)


class TestPerStepReference:
    """The agents draw a block's uniforms in one call and DQN runs its
    Q-network once per step; the per-step loops in ``helpers`` draw one
    step and one device at a time. The 40-slot, 5-row replay wraps inside
    a block, so batches read slots that later steps of the same block
    overwrite; the 3-slot, 5-row replay draws batches of at most 3 rows.
    The 4-device env has 625 joint actions and 6 rows."""

    CASES = {
        "stock": (lambda: PartitionEnv(default_scenario(), snr_bins=2), Hyperparams()),
        "bins_2x3": (lambda: PartitionEnv(default_scenario(), bandwidth_bins=2, snr_bins=3),
                     Hyperparams(multi_q_tables=3)),
        "replay_40x5": (lambda: PartitionEnv(default_scenario(), snr_bins=2),
                        Hyperparams(replay_capacity=40, batch_size=5)),
        "replay_3x5": (lambda: PartitionEnv(default_scenario(), snr_bins=2),
                       Hyperparams(replay_capacity=3, batch_size=5)),
        "devices_4": (lambda: four_device_env(), Hyperparams()),
    }
    # the 2 x 3 grid has 12 rows: DQN forwards every row with a 5-entry
    # batch (a step's 2 x 6 rows) and the step's 10 rows with a 4-entry
    # batch; the 6 x 6 grid's 72 rows are more than a default step's 66.
    # A 1-slot replay evicts at every step, so each batch is the step's
    # own transition drawn once
    NET_CASES = {
        **CASES,
        "replay_1x5": (CASES["stock"][0], Hyperparams(replay_capacity=1, batch_size=5)),
        "table_2x3_batch5": (CASES["bins_2x3"][0], Hyperparams(batch_size=5)),
        "rows_2x3_batch4": (CASES["bins_2x3"][0], Hyperparams(batch_size=4)),
        "rows_6x6": (lambda: PartitionEnv(default_scenario(), bandwidth_bins=6, snr_bins=6),
                     Hyperparams()),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("name", ["q_learning", "multi_q", "actor_critic"])
    def test_tabular_equals_per_step_reference_bitwise(self, name, case):
        make_env, hyper = self.CASES[case]
        env = make_env()
        policy, trace = train_agent(name, env, 3000, hyper=hyper, seed=8)
        table, effects = tabular_reference(name, env, 3000, hyper, 8)
        assert trace.effects.tobytes() == np.array(effects).tobytes()
        assert policy.table.tobytes() == table.tobytes()

    # the outputs of one forward and of the reference's per-row forwards
    # can round apart where a BLAS product's result depends on its row
    # count, and a forward on every row sums a cell's TD errors before
    # backprop, in another order than the matmul
    @pytest.mark.parametrize("case", sorted(NET_CASES))
    @pytest.mark.parametrize("name", ["dqn", "ppo"])
    def test_net_agent_equals_per_step_reference(self, name, case, monkeypatch):
        nets = []

        class RecordedNet(TinyNet):
            def __init__(self, *args):
                super().__init__(*args)
                nets.append(self)

        monkeypatch.setattr(agents_module, "TinyNet", RecordedNet)
        make_env, hyper = self.NET_CASES[case]
        env = make_env()
        _, trace = train_agent(name, env, 3000, hyper=hyper, seed=8)
        reference = dqn_reference if name == "dqn" else ppo_reference
        ref_net, effects = reference(env, 3000, hyper, 8)
        assert trace.effects.tobytes() == np.array(effects).tobytes()
        # relative to the largest parameter: a near-zero one can differ
        # by a larger share of itself
        params, ref_params = flat_params(nets[0]), flat_params(ref_net)
        assert np.abs(params - ref_params).max() <= 1e-12 * np.abs(ref_params).max()


class TestBlockDraw:
    """The env draws its rows a block at a time. No trace depends on the
    block size, and a run draws one block per ``BLOCK_STEPS`` steps and
    nothing else from its env generator, and one ``random`` call per
    block from the agent's generator."""

    @staticmethod
    def counting_generators(monkeypatch):
        """Lists that every generator the agents build appends its
        ``random`` and its ``integers`` calls to."""
        randoms, integers = [], []

        class CountingGenerator(np.random.Generator):
            def random(self, *args, **kwargs):
                randoms.append(args)
                return super().random(*args, **kwargs)

            def integers(self, *args, **kwargs):
                integers.append(args)
                return super().integers(*args, **kwargs)

        monkeypatch.setattr(
            np.random, "default_rng",
            lambda seed: CountingGenerator(np.random.PCG64(seed)))
        return randoms, integers

    def test_traces_do_not_depend_on_block_size(self, monkeypatch):
        randoms, _ = self.counting_generators(monkeypatch)
        env = PartitionEnv(default_scenario(), snr_bins=2)
        steps = 600
        traces = {}
        for block in (1, 7, env_module.BLOCK_STEPS):
            monkeypatch.setattr(env_module, "BLOCK_STEPS", block)
            traces[block] = []
            for name in AGENT_NAMES:
                randoms.clear()
                traces[block].append(train_agent(name, env, steps, seed=5)[1].to_csv())
                # the block size is read when the run draws
                assert len(randoms) == 2 * math.ceil(steps / env_module.BLOCK_STEPS), name
        first, *others = traces.values()
        assert all(other == first for other in others)

    def test_run_draws_one_block_per_block_steps(self, monkeypatch):
        randoms, integers = self.counting_generators(monkeypatch)
        env = PartitionEnv(default_scenario(), snr_bins=2)
        steps = 2500
        for block in (7, env_module.BLOCK_STEPS):
            monkeypatch.setattr(env_module, "BLOCK_STEPS", block)
            blocks = math.ceil(steps / block)
            for name in AGENT_NAMES:
                randoms.clear()
                integers.clear()
                train_agent(name, env, steps, seed=3)
                assert len(randoms) == 2 * blocks, name
                assert integers == [], name


class TestHyperparams:
    FLOAT_FIELDS = ("lr", "lr_actor", "lr_net", "epsilon_start", "epsilon_final",
                    "epsilon_decay_fraction", "ppo_clip", "entropy_coef")

    def test_float_fields_listed(self):
        floats = [f.name for f in dataclasses.fields(Hyperparams) if f.type == "float"]
        assert tuple(floats) == self.FLOAT_FIELDS

    COUNTS = dict(replay_capacity=50, batch_size=8, ppo_epochs=2, ppo_batch=16,
                  multi_q_tables=3, moving_avg_window=20)

    @pytest.mark.parametrize("value", [2.5, True, "2", None], ids=["float", "bool", "str", "None"])
    @pytest.mark.parametrize("name", sorted(COUNTS))
    def test_count_field_rejects_non_integers(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be an integer >= 1, got {value!r}$"):
            Hyperparams(**{name: value})

    @pytest.mark.parametrize("hidden", [(8.0,), (True,), (8, 0)])
    def test_hidden_sizes_must_be_integers(self, hidden):
        with pytest.raises(ValueError, match="^hidden sizes must be integers >= 1"):
            Hyperparams(hidden=hidden)

    @pytest.mark.parametrize("name", AGENT_NAMES)
    def test_numpy_integers_train_like_python_ints(self, name):
        hypers = (Hyperparams(hidden=(8,), **self.COUNTS),
                  Hyperparams(hidden=(np.int64(8),),
                              **{k: np.int64(v) for k, v in self.COUNTS.items()}))
        traces = [train_agent(name, PartitionEnv(default_scenario(), snr_bins=2), 300,
                              hyper=hyper, seed=3)[1].to_csv() for hyper in hypers]
        assert traces[0] == traces[1]

    @pytest.mark.parametrize("value, message", [
        (math.nan, "must be finite, got nan"),
        (math.inf, "must be finite, got inf"),
        (-math.inf, "must be finite, got -inf"),
        (True, "must be a number, got True"),
    ], ids=["nan", "inf", "-inf", "bool"])
    @pytest.mark.parametrize("name", FLOAT_FIELDS)
    def test_float_field_rejects_non_finite_and_bool(self, name, value, message):
        with pytest.raises(ValueError, match=f"^{name} {message}$"):
            Hyperparams(**{name: value})


class TestDispatch:
    def test_unknown_agent(self):
        with pytest.raises(ValueError):
            train_agent("sarsa", BanditEnv(TWO_ARM), 10)

    def test_all_names_run(self):
        env = BanditEnv(TWO_ARM)
        for name in ("q_learning", "multi_q", "actor_critic", "dqn", "ppo"):
            policy, trace = train_agent(name, env, 60, seed=3)
            assert len(trace) == 60
            assert policy.action((0,)) in ((0,), (1,))

    @pytest.mark.parametrize("name", ["q_learning", "multi_q", "actor_critic", "dqn", "ppo"])
    def test_steps_count_env_steps_for_every_agent(self, name):
        env = PartitionEnv(default_scenario(), bandwidth_bins=2, snr_bins=3)
        _, trace = train_agent(name, env, 100, seed=4)
        assert len(trace) == 100

    def test_net_agents_build_no_table_of_every_row(self):
        # one device of 64 x 64 bins: eye(4096) alone would take 128 MiB.
        # Ten steps peaked at 4.8 MiB traced for DQN (a net of 4097 x 32
        # weights, its gradients and its step, and the 33 rows of a step's
        # forward) and 7.0 MiB for PPO (two such nets)
        stock = default_scenario()
        scenario = dataclasses.replace(stock, devices=stock.devices[:1],
                                       channels=stock.channels[:1])
        env = PartitionEnv(scenario, bandwidth_bins=64, snr_bins=64)
        assert env.n_bins == 4096
        for name in ("dqn", "ppo"):
            tracemalloc.start()
            try:
                train_agent(name, env, 10, seed=5)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 16 * 2**20, (name, peak)


def three_channel_env():
    """The stock scenario with a third device, each of the three on a
    channel range of its own, over 3 SNR bins: 9 rows."""
    stock = default_scenario()
    scenario = dataclasses.replace(
        stock,
        devices=stock.devices + (device_from_kind("uav2", "uav", tx_power_w=0.5),),
        channels=(ChannelDistribution((1e6, 40e6), (-5.0, 25.0)),
                  ChannelDistribution((5e6, 20e6), (5.0, 15.0)),
                  ChannelDistribution((2e6, 8e6), (0.0, 30.0))),
    )
    return PartitionEnv(scenario, snr_bins=3)


class TestDeviceIndependence:
    """Each device's term of the effect reads its own channel alone, so
    each device's cut reads its own row alone: a greedy cut never moves
    when another device's channel bin does."""

    @pytest.mark.parametrize("steps", [0, 300])
    @pytest.mark.parametrize("name", AGENT_NAMES)
    def test_a_devices_cut_reads_only_its_own_row(self, name, steps):
        env = three_channel_env()
        assert env.first_rows == (0, 3, 6)
        every_rows = list(itertools.product(range(3), range(3, 6), range(6, 9)))
        for seed in range(10):
            policy, _ = train_agent(name, env, steps, seed=seed)
            cuts = {rows: policy.action(rows) for rows in every_rows}
            for d in range(3):
                own = {}
                for rows, step_cuts in cuts.items():
                    own.setdefault(rows[d], set()).add(step_cuts[d])
                assert all(len(seen) == 1 for seen in own.values()), (seed, d, own)


class TestPolicyRows:
    """``action`` takes exactly one row per device, each among its own
    device's rows."""

    @pytest.mark.parametrize("rows, message", [
        ((0,), r"need one row per device \(2\), got 1"),
        ((0, 2, 3), r"need one row per device \(2\), got 3"),
        ((), r"need one row per device \(2\), got 0"),
        ((-1, 2), r"device 0: row -1 is not one of its rows 0\.\.1"),
        ((2, 2), r"device 0: row 2 is not one of its rows 0\.\.1"),
        ((0, 0), r"device 1: row 0 is not one of its rows 2\.\.3"),
        ((0, 4), r"device 1: row 4 is not one of its rows 2\.\.3"),
        ((0.0, 2), r"device 0: row 0\.0 is not one of its rows 0\.\.1"),
        ((True, 2), r"device 0: row True is not one of its rows 0\.\.1"),
    ])
    @pytest.mark.parametrize("name", AGENT_NAMES)
    def test_bad_rows_rejected(self, name, rows, message):
        env = PartitionEnv(default_scenario(), snr_bins=2)
        assert (env.first_rows, env.n_bins) == ((0, 2), 4)
        policy, _ = train_agent(name, env, 20, seed=1)
        with pytest.raises(ValueError, match=message):
            policy.action(rows)

    @pytest.mark.parametrize("name", AGENT_NAMES)
    def test_every_own_row_answers(self, name):
        env = three_channel_env()
        policy, _ = train_agent(name, env, 20, seed=1)
        for rows in itertools.product(range(3), range(3, 6), range(6, 9)):
            cuts = policy.action(rows)
            assert policy.action(np.array(rows)) == cuts
            assert len(cuts) == 3 and all(0 <= c < env.n_cuts for c in cuts)
