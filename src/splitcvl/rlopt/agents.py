"""Five learning agents over the partition environment.

All agents work against the same small env protocol: ``n_states``,
``n_actions``, ``feature_dim``, ``state_features``, ``blocks(rng,
steps)`` yielding each block's ``(states, us, outcomes)``, one entry per
step, and ``reward(outcome, action)``. States and actions are plain
integers, and ``u`` is a uniform drawn for the agent in the step's place
in the env's random stream. Every episode is one step, so no update
bootstraps from a next state: each value estimate tracks the reward of
its state and action.

  * Q-Learning        tabular, epsilon-greedy with linear decay
  * Multi-Q-Learning  ensemble of K tables; each update lands on one
                      uniformly chosen table, so the ensemble averages K
                      tables updated on disjoint visits; behavior follows
                      the ensemble mean
  * Actor-Critic      tabular softmax policy, a critic of each state's
                      reward, advantage policy gradient
  * DQN               TinyNet Q-function, uniform replay, squared error
                      against the sampled rewards, plain SGD
  * PPO               clipped-surrogate policy gradient with a TinyNet
                      critic baseline and configurable entropy bonus

A training run is strictly sequential and driven by one seeded
generator, which the env draws its rows from a block at a time.
Actor-critic and PPO act on each row's ``u`` alone. Q-learning, multi-Q
and DQN take their epsilon coin from ``u`` and their integer draws
(explore action, table index, replay batch) from a second generator
spawned from the seed, so their draws never shift the env's rows. Those
integers depend only on each step's ``u``, epsilon and count, so each
block's are drawn in one ``integers`` call, ahead of its first step:
one call with an array of bounds gives the values and leaves the
generator state that the same bounds drawn step by step would. So
(agent, hyperparameters, seed) reproduces the convergence trace bit for
bit, whatever the env's block size. Traces record each step's effect
(minus its reward) and a trailing moving average.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Iterator

import numpy as np

from ..errors import NonFiniteError
from .env import MAX_SIZE, ReplayBuffer
from .nets import TinyNet, log_softmax


_COUNT_FIELDS = (
    "replay_capacity", "batch_size", "ppo_epochs", "ppo_batch",
    "multi_q_tables", "moving_avg_window",
)
# capped at MAX_SIZE when Hyperparams is built, before any training allocates
_SIZE_FIELDS = ("replay_capacity", "batch_size", "ppo_batch", "multi_q_tables")


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(frozen=True)
class Hyperparams:
    """Training knobs. Defaults are artifact choices, all overridable."""

    lr: float = 0.1                     # tabular value learning rate
    lr_actor: float = 1.0               # tabular softmax-logit rate
    lr_net: float = 0.1                 # SGD rate for TinyNet agents
    epsilon_start: float = 1.0
    epsilon_final: float = 0.01
    epsilon_decay_fraction: float = 0.5  # share of steps spent decaying
    replay_capacity: int = 1000
    batch_size: int = 32
    ppo_clip: float = 0.2
    ppo_epochs: int = 4
    ppo_batch: int = 64
    entropy_coef: float = 0.2           # annealed to zero over a PPO run
    multi_q_tables: int = 4
    hidden: tuple[int, ...] = (32,)
    moving_avg_window: int = 100

    def __post_init__(self) -> None:
        for name in _COUNT_FIELDS:
            value = getattr(self, name)
            if not _is_int(value) or value < 1:
                raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
        if self.multi_q_tables < 2:
            raise ValueError("multi_q_tables must be >= 2")
        if not all(_is_int(h) and h >= 1 for h in self.hidden):
            raise ValueError(f"hidden sizes must be integers >= 1, got {self.hidden!r}")
        for name in _SIZE_FIELDS:
            if getattr(self, name) > MAX_SIZE:
                raise ValueError(f"{name} must be <= {MAX_SIZE}, got {getattr(self, name)!r}")
        if sum(self.hidden) > MAX_SIZE:
            raise ValueError(f"hidden sizes must sum to <= {MAX_SIZE}, got {self.hidden!r}")
        if not 0.0 <= self.epsilon_final <= self.epsilon_start <= 1.0:
            raise ValueError("need 0 <= epsilon_final <= epsilon_start <= 1")


@dataclass(frozen=True)
class ConvergenceTrace:
    """Per-step effect values and their trailing moving average."""

    effects: np.ndarray
    moving_avg: np.ndarray

    def __len__(self) -> int:
        return len(self.effects)

    @property
    def final_moving_avg(self) -> float:
        if len(self.moving_avg) == 0:
            raise ValueError("empty trace has no moving average")
        return float(self.moving_avg[-1])

    def to_csv(self) -> str:
        rows = zip(self.effects.tolist(), self.moving_avg.tolist())
        return "step,effect,moving_avg\n" + "".join(
            f"{i},{e!r},{m!r}\n" for i, (e, m) in enumerate(rows)
        )


def _make_trace(effects: list[float], window: int) -> ConvergenceTrace:
    eff = np.asarray(effects, dtype=np.float64)
    if eff.size == 0:
        return ConvergenceTrace(eff, eff.copy())
    cs = np.cumsum(eff)
    ma = np.empty_like(eff)
    head = min(window, eff.size)
    ma[:head] = cs[:head] / np.arange(1, head + 1)
    if eff.size > window:
        ma[window:] = (cs[window:] - cs[:-window]) / window
    return ConvergenceTrace(eff, ma)


@dataclass(frozen=True)
class TrainedPolicy:
    """Greedy policy extracted at the end of training.

    ``table`` carries the learned state-action table for tabular agents
    (Q-values, ensemble-mean Q-values, or actor logits) and is None for
    the network-based agents.
    """

    _action_fn: Callable[[int], int] = field(repr=False)
    table: np.ndarray | None = None

    def action(self, state: int) -> int:
        return self._action_fn(state)


def _epsilons(total_steps: int, hyper: Hyperparams) -> Iterator[float]:
    """Epsilon at each of ``total_steps`` steps: a linear decay from
    ``epsilon_start`` over the first ``epsilon_decay_fraction`` of the
    steps, then ``epsilon_final``."""
    start, final = hyper.epsilon_start, hyper.epsilon_final
    decay_steps = hyper.epsilon_decay_fraction * total_steps
    if decay_steps <= 0:
        return itertools.repeat(final, total_steps)
    span = start - final
    return (start - span * min(1.0, t / decay_steps) for t in range(total_steps))


def _generators(seed: int) -> tuple[np.random.Generator, np.random.Generator]:
    """``default_rng(seed)`` and its ``spawn(1)[0]``; ``Generator.spawn`` needs NumPy 1.25."""
    seq = np.random.SeedSequence(seed)
    return np.random.default_rng(seq), np.random.default_rng(seq.spawn(1)[0])


def _explore_bounds(us: list[float], epsilons: Iterator[float], n_actions: int) -> list[int]:
    """Each step's explore-action bound, taking one epsilon per step:
    ``n_actions`` where the coin ``u`` falls below epsilon, else 1, a
    bound for which ``integers`` draws nothing and gives 0."""
    return [n_actions if u < eps else 1
            for u, eps in zip(us, itertools.islice(epsilons, len(us)))]


_PROB_SUM_ATOL = math.sqrt(np.finfo(np.float64).eps)


def _action_cdf(probs: np.ndarray) -> np.ndarray:
    """The normalized cumulative sums ``rng.choice(n, p=probs)`` draws on.

    Of that call's input checks only the sum check is kept. The
    probabilities come from a softmax, so it fails only when the policy
    has diverged to non-finite values.
    """
    cdf = probs.cumsum()
    if not abs(cdf[-1] - 1.0) <= _PROB_SUM_ATOL:
        raise NonFiniteError(
            "policy diverged to non-finite values; lower the learning rates"
        )
    cdf /= cdf[-1]
    return cdf


def _draw_action(cdf: np.ndarray, u: float) -> int:
    """The action ``rng.choice(len(cdf), p=probs)`` picks when its one
    draw is ``u``."""
    return int(cdf.searchsorted(u, side="right"))


def train_q_learning(
    env, steps: int, hyper: Hyperparams | None = None, seed: int = 0
) -> tuple[TrainedPolicy, ConvergenceTrace]:
    """Tabular Q-learning; one trace row per environment step."""
    hyper = hyper or Hyperparams()
    rng, explore = _generators(seed)
    q = np.zeros((env.n_states, env.n_actions))
    epsilons = _epsilons(steps, hyper)
    effects: list[float] = []
    for states, us, outcomes in env.blocks(rng, steps):
        bounds = _explore_bounds(us, epsilons, env.n_actions)
        picks = explore.integers(0, bounds).tolist()
        for state, outcome, bound, pick in zip(states, outcomes, bounds, picks):
            # a bound of 1 marks a greedy step
            action = pick if bound > 1 else int(q[state].argmax())
            reward = env.reward(outcome, action)
            q[state, action] += hyper.lr * (reward - q[state, action])
            effects.append(-reward)
    policy = TrainedPolicy(lambda s, q=q: int(np.argmax(q[s])), table=q)
    return policy, _make_trace(effects, hyper.moving_avg_window)


def train_multi_q(
    env, steps: int, hyper: Hyperparams | None = None, seed: int = 0
) -> tuple[TrainedPolicy, ConvergenceTrace]:
    """Ensemble Q-learning: act on the mean of K tables.

    Each update lands on one uniformly chosen table, which therefore sees
    only 1/K of the visits; the per-table rate is scaled by K (capped at
    1) so the ensemble mean learns at ``lr`` regardless of the ensemble
    size.
    """
    hyper = hyper or Hyperparams()
    k = hyper.multi_q_tables
    rng, explore = _generators(seed)
    tables = np.zeros((k, env.n_states, env.n_actions))
    table_lr = min(1.0, hyper.lr * k)
    epsilons = _epsilons(steps, hyper)
    effects: list[float] = []
    for states, us, outcomes in env.blocks(rng, steps):
        bounds = _explore_bounds(us, epsilons, env.n_actions)
        # per step, the explore action, then the table index
        draws = explore.integers(0, [(bound, k) for bound in bounds]).tolist()
        for state, outcome, bound, (pick, j) in zip(states, outcomes, bounds, draws):
            # only the rows read are reduced; with two or more actions a
            # row's sums equal the whole ensemble's bit for bit, and
            # dividing the sum by k is what np.mean does
            action = pick if bound > 1 else int((tables[:, state].sum(axis=0) / k).argmax())
            reward = env.reward(outcome, action)
            tables[j, state, action] += table_lr * (reward - tables[j, state, action])
            effects.append(-reward)
    mean_q = tables.mean(axis=0)
    policy = TrainedPolicy(lambda s, q=mean_q: int(np.argmax(q[s])), table=mean_q)
    return policy, _make_trace(effects, hyper.moving_avg_window)


def train_actor_critic(
    env, steps: int, hyper: Hyperparams | None = None, seed: int = 0
) -> tuple[TrainedPolicy, ConvergenceTrace]:
    """Tabular softmax actor with a critic of each state's reward.

    The logits start at zero, so the initial policy is uniform (entropy
    log of the action count).
    """
    hyper = hyper or Hyperparams()
    rng = np.random.default_rng(seed)
    logits = np.zeros((env.n_states, env.n_actions))
    rows = list(logits)  # each state's logits, a view bound once
    values = [0.0] * env.n_states  # Python floats round as float64 arrays do
    lr, lr_actor, reward_of = hyper.lr, hyper.lr_actor, env.reward
    effects: list[float] = []
    for states, us, outcomes in env.blocks(rng, steps):
        for state, u, outcome in zip(states, us, outcomes):
            row = rows[state]
            probs = row - row.max()
            np.exp(probs, out=probs)
            probs /= probs.sum()
            action = _draw_action(_action_cdf(probs), u)
            reward = reward_of(outcome, action)
            advantage = reward - values[state]
            values[state] += lr * advantage
            # one_hot(action) - probs, in place; -p + 1.0 rounds as 1.0 - p
            np.negative(probs, out=probs)
            probs[action] += 1.0
            probs *= lr_actor * advantage
            row += probs
            effects.append(-reward)
    policy = TrainedPolicy(lambda s, logits=logits: int(np.argmax(logits[s])), table=logits)
    return policy, _make_trace(effects, hyper.moving_avg_window)


def _feature_table(env) -> np.ndarray:
    """Dense (n_states, feature_dim) matrix; the env caps ``n_states``."""
    return np.stack([env.state_features(s) for s in range(env.n_states)])


_Q_DIVERGED = "Q-network diverged to non-finite values; lower lr_net"


def train_dqn(
    env, steps: int, hyper: Hyperparams | None = None, seed: int = 0
) -> tuple[TrainedPolicy, ConvergenceTrace]:
    """Deep Q-network on bin one-hot features.

    Step t draws its explore action, then ``min(batch_size, size)``
    replay slots below ``size``, the buffer's length ``min(t + 1,
    replay_capacity)`` after its own push; a block's integers are one
    ``integers`` call. Each step runs the Q-network once. When the env
    has no more states than a step has rows (its state and a full
    batch), that forward is on the feature table, one row per state,
    and each state's TD errors are summed per action before backprop:
    rows of one state share their activations and backprop is linear in
    the output gradient, so the gradient is the batch's in exact
    arithmetic. Otherwise the forward is on the step's state (its slot
    holds it before the forward) and its batch's states. The greedy
    action reads the step's row, the TD errors the batch's. A greedy
    step checks the Q-value it acts on: ``argmax`` picks a NaN or +inf
    first, so a diverged net raises NonFiniteError there, and at the
    latest after training, when the Q-values of every state are checked.
    """
    hyper = hyper or Hyperparams()
    rng, explore = _generators(seed)
    table = _feature_table(env)
    n_actions = env.n_actions
    capacity, batch_size = hyper.replay_capacity, hyper.batch_size
    on_table = env.n_states <= batch_size + 1
    # row r's Q-value of action a sits at r * n_actions + a of the
    # flattened (rows, n_actions) Q-values. In the table case row s is
    # state s, so a slot's cell is that whole index; otherwise row 0 is
    # the step's state and row r >= 1 the batch's r-th, so a slot's cell
    # is its action and the batch adds its rows' starts
    row_starts = np.arange(1, batch_size + 1) * n_actions
    net = TinyNet((env.feature_dim, *hyper.hidden, env.n_actions), rng)
    forward, backward, sgd_step = net.forward, net.backward, net.sgd_step
    reward_of, lr = env.reward, hyper.lr_net
    buffer = ReplayBuffer(capacity)
    slot_states, cells, rewards = buffer.states, buffer.cells, buffer.rewards
    epsilons = _epsilons(steps, hyper)
    effects: list[float] = []
    for states, us, outcomes in env.blocks(rng, steps):
        pushes = np.arange(len(effects), len(effects) + len(us))
        sizes = np.minimum(pushes + 1, capacity)  # the length after each push
        counts = np.minimum(sizes, batch_size) + 1
        heads = np.cumsum(counts) - counts  # each step's explore draw
        highs = np.repeat(sizes, counts)
        bounds = _explore_bounds(us, epsilons, n_actions)
        highs[heads] = bounds
        slots = explore.integers(0, highs)
        picks = slots[heads].tolist()
        owns = buffer.slot(pushes)  # each step's own slot, written in place
        slots[heads] = owns
        for state, outcome, bound, pick, own, head, count in zip(
            states, outcomes, bounds, picks, owns.tolist(), heads.tolist(), counts.tolist()
        ):
            batch = slots[head + 1:head + count]
            if on_table:
                q, row = forward(table), state
            else:
                slot_states[own] = state
                q, row = forward(table.take(slot_states[slots[head:head + count]], axis=0)), 0
            if bound > 1:
                action = pick
            else:
                action = int(q[row].argmax())
                if not math.isfinite(q[row, action]):
                    raise NonFiniteError(_Q_DIVERGED)
            reward = reward_of(outcome, action)
            cells[own] = state * n_actions + action if on_table else action
            rewards[own] = reward
            # read after the writes: the batch may hold the step's own slot
            picked = cells[batch] if on_table else row_starts[:count - 1] + cells[batch]
            td = q.take(picked)  # a copy, scaled in place to 2 * (q - r) / rows
            td -= rewards[batch]
            # the halved divisor is exact, so this rounds once, as
            # doubling (exact) and then dividing by the rows does
            td /= (count - 1) / 2
            # on the table, a state-action pair drawn twice sums its TD errors
            backward(np.bincount(picked, td, q.size).reshape(-1, n_actions))
            sgd_step(lr)
            effects.append(-reward)
    if not np.isfinite(net.forward(table)).all():
        raise NonFiniteError(_Q_DIVERGED)

    def act(s: int, net=net, table=table) -> int:
        return int(np.argmax(net.forward(table[s])[0]))

    policy = TrainedPolicy(act)
    return policy, _make_trace(effects, hyper.moving_avg_window)


def ppo_policy_gradient(
    policy_net: TinyNet,
    features: np.ndarray,
    actions: np.ndarray,
    advantages: np.ndarray,
    logp_old: np.ndarray,
    clip: float,
    entropy_coef: float,
) -> np.ndarray:
    """dLoss/dlogits for the clipped surrogate with an entropy bonus.

    Follows a fresh forward pass on ``policy_net``. Samples whose ratio
    has left the clip interval on the unfavourable side contribute no
    policy gradient, which is exactly the clipped-surrogate rule. With an
    infinite clip this reduces to the vanilla policy gradient of the
    batch.
    """
    logp = log_softmax(policy_net.forward(features))
    probs = np.exp(logp)
    n, _ = probs.shape
    rows = np.arange(n)
    # exponent clamp keeps a collapsed old policy from overflowing the ratio
    ratio = np.exp(np.clip(logp[rows, actions] - logp_old, -30.0, 30.0))
    active = np.where(
        advantages >= 0.0, ratio <= 1.0 + clip, ratio >= 1.0 - clip
    ).astype(np.float64)
    one_hot = np.zeros_like(probs)
    one_hot[rows, actions] = 1.0
    coeff = active * ratio * advantages
    grad = -(coeff[:, None] * (one_hot - probs)) / n
    if entropy_coef != 0.0:
        entropy = -(probs * logp).sum(axis=1)
        grad += entropy_coef * probs * (logp + entropy[:, None]) / n
    return grad


def train_ppo(
    env, steps: int, hyper: Hyperparams | None = None, seed: int = 0
) -> tuple[TrainedPolicy, ConvergenceTrace]:
    """Clipped-surrogate policy optimization with a critic baseline.

    Advantages are normalized per batch and the entropy bonus is annealed
    linearly to zero across the run: strong early exploration keeps the
    policy from collapsing onto a suboptimal mode before the critic has
    calibrated, and a zero late bonus lets it concentrate fully.
    """
    hyper = hyper or Hyperparams()
    rng = np.random.default_rng(seed)
    table = _feature_table(env)
    policy_net = TinyNet((env.feature_dim, *hyper.hidden, env.n_actions), rng)
    value_net = TinyNet((env.feature_dim, *hyper.hidden, 1), rng)
    effects: list[float] = []
    rows = itertools.chain.from_iterable(zip(*block) for block in env.blocks(rng, steps))
    done_steps = 0
    while done_steps < steps:
        batch_n = min(hyper.ppo_batch, steps - done_steps)
        states, actions, rewards = [], [], []
        logp_old = np.empty(batch_n)
        # the policy is fixed during a rollout: one forward pass per state
        rollout_policy: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        for i, (state, u, outcome) in zip(range(batch_n), rows):
            if state not in rollout_policy:
                logp_row = log_softmax(policy_net.forward(table[state]))[0]
                if not np.isfinite(logp_row).all():
                    raise NonFiniteError(
                        "policy diverged to non-finite logits; lower lr_net"
                    )
                rollout_policy[state] = (logp_row, _action_cdf(np.exp(logp_row)))
            logp_row, cdf = rollout_policy[state]
            action = _draw_action(cdf, u)
            reward = env.reward(outcome, action)
            states.append(state)
            actions.append(action)
            rewards.append(reward)
            logp_old[i] = logp_row[action]
            effects.append(-reward)
        done_steps += batch_n
        entropy_coef = hyper.entropy_coef * (1.0 - done_steps / steps)

        states, actions, rewards = np.array(states), np.array(actions), np.array(rewards)
        x = table[states]
        advantages = rewards - value_net.forward(x)[:, 0]
        spread = advantages.std()
        if spread > 1e-12:
            advantages = (advantages - advantages.mean()) / spread

        for _ in range(hyper.ppo_epochs):
            grad = ppo_policy_gradient(
                policy_net, x, actions, advantages, logp_old,
                hyper.ppo_clip, entropy_coef,
            )
            policy_net.backward(grad)
            policy_net.sgd_step(hyper.lr_net)

            v = value_net.forward(x)
            value_net.backward(2.0 * (v - rewards[:, None]) / batch_n)
            value_net.sgd_step(hyper.lr_net)

    def act(s: int, net=policy_net, table=table) -> int:
        return int(np.argmax(net.forward(table[s])[0]))

    policy = TrainedPolicy(act)
    return policy, _make_trace(effects, hyper.moving_avg_window)


AGENTS: dict[str, Callable] = {
    "q_learning": train_q_learning,
    "multi_q": train_multi_q,
    "actor_critic": train_actor_critic,
    "dqn": train_dqn,
    "ppo": train_ppo,
}


def train_agent(
    name: str, env, steps: int, hyper: Hyperparams | None = None, seed: int = 0
) -> tuple[TrainedPolicy, ConvergenceTrace]:
    """Dispatch by agent name; ``steps`` counts environment steps.

    Floating-point overflow and invalid results are not warned about: a
    diverging run ends in the agent's own NonFiniteError instead.
    """
    if name not in AGENTS:
        raise ValueError(
            f"unknown agent {name!r}; choose one of {sorted(AGENTS)}"
        )
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        return AGENTS[name](env, steps, hyper=hyper, seed=seed)
