import dataclasses
import math

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
from splitcvl.netmodel import ChannelState, device_from_kind
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
    softmax,
    synthetic_profile,
    tabular_reference,
)
from test_output_digests import needs_platform


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
        assert policy.action(0) == (1,)

    def test_gamma_zero_lr_one_single_visits(self):
        # Every episode is one step, so the update is gamma-zero Q-learning:
        # with lr=1 the table holds the last seen reward.
        effects = [0.3, 0.7, 0.5]
        env = BanditEnv([effects])
        hyper = Hyperparams(lr=1.0, epsilon_start=1.0, epsilon_final=1.0)
        policy, trace = train_q_learning(env, 300, hyper=hyper, seed=2)
        assert policy.action(0) == (0,)
        assert policy.table[0].tolist() == [-e for e in effects]
        assert set(np.round(trace.effects, 6)) <= {0.3, 0.7, 0.5}

    def test_q_converges_to_reward_vector(self):
        # fixed point of the update: Q equals the rewards up to the
        # contraction left by the finite visit count
        effects = [0.6, 0.1, 0.9]
        env = BanditEnv([effects])
        hyper = Hyperparams(epsilon_start=1.0, epsilon_final=1.0, lr=0.2)
        policy, _ = train_q_learning(env, 2000, hyper=hyper, seed=3)
        assert policy.action(0) == (1,)
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
        assert multi.action(0) == single.action(0) == (1,)

    def test_bandit_argmax(self):
        policy, _ = train_multi_q(BanditEnv(TWO_ARM), 300, Hyperparams(multi_q_tables=3), seed=6)
        assert policy.action(0) == (1,)

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
        assert policy.action(0) == (1,)
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
        assert policy.action(0) == (1,)

    def test_bandit(self):
        policy, _ = train_dqn(BanditEnv([[0.7, 0.2, 0.5]]), 500, seed=16)
        assert policy.action(0) == (1,)

    def test_one_forward_per_step(self, monkeypatch):
        # every episode is one step, so DQN regresses on rewards alone and
        # has no target net. Its one net runs once per step, exploring or
        # not: on every state when the env has at most 1 + batch_size of
        # them, else on 1 + min(batch_size, t + 1) rows, the step's state
        # and its batch (120 pushes stay below the default capacity). It
        # runs once more after training, on every state.
        calls = []
        forward = TinyNet.forward

        def counting_forward(self, x):
            calls.append((id(self), np.shape(x)[0] if np.ndim(x) == 2 else None))
            return forward(self, x)

        monkeypatch.setattr(TinyNet, "forward", counting_forward)
        steps = 120
        stock = PartitionEnv(default_scenario(), snr_bins=2)
        grid = PartitionEnv(default_scenario(), bandwidth_bins=2, snr_bins=3)
        assert (stock.n_states, grid.n_states) == (4, 36)
        # (env, batch_size, rows per step)
        cases = [
            (stock, 32, [stock.n_states] * steps),
            (grid, 32, [1 + min(32, t + 1) for t in range(steps)]),
            (grid, 35, [grid.n_states] * steps),
            (grid, 34, [1 + min(34, t + 1) for t in range(steps)]),
        ]
        for env, batch_size, per_step in cases:
            for eps in (None, 0.0, 1.0):
                calls.clear()
                fixed_eps = {} if eps is None else {"epsilon_start": eps, "epsilon_final": eps}
                train_dqn(env, steps, Hyperparams(batch_size=batch_size, **fixed_eps), seed=23)
                assert len({net for net, _ in calls}) == 1
                assert [rows for _, rows in calls] == per_step + [env.n_states]

    def test_deterministic(self):
        a = train_dqn(BanditEnv(TWO_ARM), 150, seed=17)[1]
        b = train_dqn(BanditEnv(TWO_ARM), 150, seed=17)[1]
        assert np.array_equal(a.effects, b.effects)


class TestPPOMechanics:
    def test_huge_clip_equals_vanilla_policy_gradient(self):
        # two devices of four cuts each: one softmax per device
        rng = np.random.default_rng(19)
        net = TinyNet((3, 8, 2 * 4), rng)
        x = rng.standard_normal((12, 3))
        actions = rng.integers(0, 4, size=(12, 2))
        adv = rng.standard_normal((12, 2))
        probs = softmax(net.forward(x).reshape(12, 2, 4))
        rows, devices = np.arange(12)[:, None], np.arange(2)
        logp_old = np.log(probs[rows, devices, actions])

        grad = ppo_policy_gradient(net, x, actions, adv, logp_old,
                                   clip=1e9, entropy_coef=0.0)

        # Vanilla policy gradient of -E[sum_d A_d log pi_d(a_d|s)] wrt
        # logits, computed directly from the same batch (every ratio is 1
        # for the current policy).
        one_hot = np.zeros_like(probs)
        one_hot[rows, devices, actions] = 1.0
        vanilla = -(adv[..., None] * (one_hot - probs)) / 12
        assert np.allclose(grad, vanilla.reshape(12, 8))

    def test_clip_blocks_gradient_outside_interval(self):
        rng = np.random.default_rng(20)
        net = TinyNet((2, 4, 3), rng)
        x = rng.standard_normal((6, 2))
        actions = rng.integers(0, 3, size=(6, 1))
        adv = np.ones((6, 1))
        # Pretend the old policy assigned much higher probability, so the
        # current ratio is far below 1 for positive advantages: unclipped.
        probs = softmax(net.forward(x))
        taken = np.log(probs[np.arange(6)[:, None], actions])
        g_active = ppo_policy_gradient(net, x, actions, adv, taken + 5.0,
                                       clip=0.2, entropy_coef=0.0)
        assert np.any(g_active != 0.0)
        # Ratio far above 1+clip with positive advantage: fully clipped.
        g_clipped = ppo_policy_gradient(net, x, actions, adv, taken - 5.0,
                                        clip=0.2, entropy_coef=0.0)
        assert np.allclose(g_clipped, 0.0)

    def test_bandit(self):
        policy, _ = train_ppo(BanditEnv([[0.9, 0.15, 0.6]]), 600, seed=21)
        assert policy.action(0) == (1,)

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
            if self.sizes[-1] == 2:  # the critic: one value per stock device
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
        states = set()
        for state, outcome in env_rows(env, np.random.default_rng(0), 200):
            for row in outcome:
                reward = -row[0]
                assert reward == 0.0 and math.copysign(1.0, reward) == -1.0
                assert row[1] > 0.0
            states.add(state)
        assert states == set(range(env.n_states))

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
    channels: 5 cuts on 4 devices, 625 joint actions, and 4 states."""
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
        assert policy.action(0) == argmins
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
    The 4-device env has 625 joint actions and 4 states."""

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
    # the 2 x 3 grid has 36 states: DQN forwards its state table with a
    # 35-row batch and the step's 35 rows with a 34-row batch; a 1-slot
    # replay evicts at every step, so each batch is the step's own
    # transition drawn once
    DQN_CASES = {
        **CASES,
        "replay_1x5": (CASES["stock"][0], Hyperparams(replay_capacity=1, batch_size=5)),
        "table_2x3_batch35": (CASES["bins_2x3"][0], Hyperparams(batch_size=35)),
        "rows_2x3_batch34": (CASES["bins_2x3"][0], Hyperparams(batch_size=34)),
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

    # the Q-values of the one-step forward and of the reference's separate
    # greedy and batch forwards can round apart where a BLAS product's
    # result depends on its row count, and a state-table forward sums a
    # state's TD errors before backprop, in another order than the matmul
    @needs_platform
    @pytest.mark.parametrize("case", sorted(DQN_CASES))
    def test_dqn_equals_per_step_reference(self, case, monkeypatch):
        nets = []

        class RecordedNet(TinyNet):
            def __init__(self, *args):
                super().__init__(*args)
                nets.append(self)

        monkeypatch.setattr(agents_module, "TinyNet", RecordedNet)
        make_env, hyper = self.DQN_CASES[case]
        env = make_env()
        _, trace = train_dqn(env, 3000, hyper=hyper, seed=8)
        ref_net, effects = dqn_reference(env, 3000, hyper, 8)
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


class TestDispatch:
    def test_unknown_agent(self):
        with pytest.raises(ValueError):
            train_agent("sarsa", BanditEnv(TWO_ARM), 10)

    def test_all_names_run(self):
        env = BanditEnv(TWO_ARM)
        for name in ("q_learning", "multi_q", "actor_critic", "dqn", "ppo"):
            policy, trace = train_agent(name, env, 60, seed=3)
            assert len(trace) == 60
            assert policy.action(0) in ((0,), (1,))

    @pytest.mark.parametrize("name", ["q_learning", "multi_q", "actor_critic", "dqn", "ppo"])
    def test_steps_count_env_steps_for_every_agent(self, name):
        env = PartitionEnv(default_scenario(), bandwidth_bins=2, snr_bins=3)
        _, trace = train_agent(name, env, 100, seed=4)
        assert len(trace) == 100

    def test_only_network_agents_build_the_feature_table(self):
        # a 1-device, 4096-bin env's one-hot table would take 128 MiB
        env = PartitionEnv(default_scenario(), bandwidth_bins=8, snr_bins=8)
        for name in ("q_learning", "multi_q", "actor_critic"):
            train_agent(name, env, 10, seed=5)
        assert "features" not in vars(env)
        train_agent("ppo", env, 10, seed=5)
        assert env.features.shape == (4096, 128)
