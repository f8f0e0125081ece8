"""Five learning agents over the partition environment.

All agents work against the same small env protocol: ``n_states``,
``n_actions``, ``horizon``, ``feature_dim``, ``reset(rng)``,
``step(state, action, rng)`` and ``state_features``. States and actions
are plain integers.

  * Q-Learning        tabular, epsilon-greedy with linear decay
  * Multi-Q-Learning  ensemble of K tables; each update lands on one
                      uniformly chosen table and bootstraps from the mean
                      of the others; behavior follows the ensemble mean
  * Actor-Critic      tabular softmax policy, TD(0) critic, advantage
                      policy gradient
  * DQN               TinyNet Q-function, uniform replay, periodically
                      synced target network, squared TD error, plain SGD
  * PPO               clipped-surrogate policy gradient with a TinyNet
                      critic baseline and configurable entropy bonus

A training run is strictly sequential and driven by a single seeded
generator, so (agent, hyperparameters, seed) reproduces the convergence
trace bit for bit. Traces record the effect value experienced at every
environment step (the additive inverse of the reward) together with a
trailing moving average.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Iterator

import numpy as np

from ..errors import NonFiniteError
from .env import MAX_SIZE, ReplayBuffer, Transition
from .nets import TinyNet, log_softmax, softmax


_COUNT_FIELDS = (
    "replay_capacity", "batch_size", "target_sync", "ppo_epochs", "ppo_batch",
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
    gamma: float = 0.9
    epsilon_start: float = 1.0
    epsilon_final: float = 0.01
    epsilon_decay_fraction: float = 0.5  # share of steps spent decaying
    replay_capacity: int = 1000
    batch_size: int = 32
    target_sync: int = 100
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


def _eps_greedy(q_row: np.ndarray, eps: float, rng: np.random.Generator) -> int:
    if rng.random() < eps:
        return int(rng.integers(len(q_row)))
    return int(q_row.argmax())


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


def _draw_action(cdf: np.ndarray, rng: np.random.Generator) -> int:
    """Same draw and same result as ``rng.choice(len(cdf), p=probs)``."""
    return int(cdf.searchsorted(rng.random(), side="right"))


def _advance(env, tr: Transition, steps_in_episode: int, rng) -> tuple[int, int]:
    """(next state, steps taken in its episode); resets once an episode ends."""
    steps_in_episode += 1
    if tr.done or steps_in_episode >= env.horizon:
        return env.reset(rng), 0
    return tr.next_state, steps_in_episode


def train_q_learning(
    env, steps: int, hyper: Hyperparams | None = None, seed: int = 0
) -> tuple[TrainedPolicy, ConvergenceTrace]:
    """Tabular Q-learning; one trace row per environment step."""
    hyper = hyper or Hyperparams()
    rng = np.random.default_rng(seed)
    q = np.zeros((env.n_states, env.n_actions))
    effects: list[float] = []
    state = env.reset(rng)
    steps_in_episode = 0
    for eps in _epsilons(steps, hyper):
        action = _eps_greedy(q[state], eps, rng)
        tr = env.step(state, action, rng)
        bootstrap = 0.0 if tr.done else hyper.gamma * float(q[tr.next_state].max())
        q[state, action] += hyper.lr * (tr.reward + bootstrap - q[state, action])
        effects.append(-tr.reward)
        state, steps_in_episode = _advance(env, tr, steps_in_episode, rng)
    policy = TrainedPolicy(lambda s, q=q: int(np.argmax(q[s])), table=q)
    return policy, _make_trace(effects, hyper.moving_avg_window)


def train_multi_q(
    env, steps: int, hyper: Hyperparams | None = None, seed: int = 0
) -> tuple[TrainedPolicy, ConvergenceTrace]:
    """Ensemble Q-learning: bootstrap each table from the mean of the rest.

    Each update lands on one uniformly chosen table, which therefore sees
    only 1/K of the visits; the per-table rate is scaled by K (capped at
    1) so the ensemble mean learns at ``lr`` regardless of the ensemble
    size.
    """
    hyper = hyper or Hyperparams()
    k = hyper.multi_q_tables
    rng = np.random.default_rng(seed)
    tables = np.zeros((k, env.n_states, env.n_actions))
    table_lr = min(1.0, hyper.lr * k)
    effects: list[float] = []
    state = env.reset(rng)
    steps_in_episode = 0
    for eps in _epsilons(steps, hyper):
        # only the rows read are reduced; with two or more actions a
        # row's sums equal the whole ensemble's bit for bit, and dividing
        # the sum by k is what np.mean does
        mean_row = tables[:, state].sum(axis=0) / k
        action = _eps_greedy(mean_row, eps, rng)
        tr = env.step(state, action, rng)
        j = int(rng.integers(k))
        bootstrap = 0.0
        if not tr.done:
            next_rows = tables[:, tr.next_state]
            others = (next_rows.sum(axis=0) - next_rows[j]) / (k - 1)
            bootstrap = hyper.gamma * float(others.max())
        tables[j, state, action] += table_lr * (
            tr.reward + bootstrap - tables[j, state, action]
        )
        effects.append(-tr.reward)
        state, steps_in_episode = _advance(env, tr, steps_in_episode, rng)
    mean_q = tables.mean(axis=0)
    policy = TrainedPolicy(lambda s, q=mean_q: int(np.argmax(q[s])), table=mean_q)
    return policy, _make_trace(effects, hyper.moving_avg_window)


def train_actor_critic(
    env, steps: int, hyper: Hyperparams | None = None, seed: int = 0
) -> tuple[TrainedPolicy, ConvergenceTrace]:
    """Tabular softmax actor with a TD(0) critic.

    The logits start at zero, so the initial policy is uniform (entropy
    log of the action count).
    """
    hyper = hyper or Hyperparams()
    rng = np.random.default_rng(seed)
    logits = np.zeros((env.n_states, env.n_actions))
    values = np.zeros(env.n_states)
    effects: list[float] = []
    state = env.reset(rng)
    steps_in_episode = 0
    for _ in range(steps):
        probs = softmax(logits[state])
        action = _draw_action(_action_cdf(probs), rng)
        tr = env.step(state, action, rng)
        td_target = tr.reward + (
            0.0 if tr.done else hyper.gamma * values[tr.next_state]
        )
        advantage = td_target - values[state]
        values[state] += hyper.lr * advantage
        one_hot = np.zeros(env.n_actions)
        one_hot[action] = 1.0
        logits[state] += hyper.lr_actor * advantage * (one_hot - probs)
        effects.append(-tr.reward)
        state, steps_in_episode = _advance(env, tr, steps_in_episode, rng)
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

    Each step draws its epsilon coin first and runs the Q-network only
    when it acts greedily: an exploring step's action does not depend on
    the Q-values. The draws and actions are those of ``_eps_greedy``. A
    greedy step checks the Q-value it acts on: ``argmax`` picks a NaN or
    +inf first, so a diverged net raises NonFiniteError there, and at the
    latest after training, when the Q-values of every state are checked.
    """
    hyper = hyper or Hyperparams()
    rng = np.random.default_rng(seed)
    table = _feature_table(env)
    n_actions = env.n_actions
    # batch row r's Q-value of action a sits at r * n_actions + a of the
    # flattened (rows, n_actions) Q-values and gradient
    row_starts = np.arange(hyper.batch_size) * n_actions
    grad = np.zeros((hyper.batch_size, n_actions))
    flat_grad = grad.reshape(-1)
    net = TinyNet((env.feature_dim, *hyper.hidden, env.n_actions), rng)
    target = net.copy()
    buffer = ReplayBuffer(hyper.replay_capacity)
    effects: list[float] = []
    state = env.reset(rng)
    steps_in_episode = 0
    for t, eps in enumerate(_epsilons(steps, hyper)):
        if rng.random() < eps:
            action = int(rng.integers(n_actions))
        else:
            q_row = net.forward(table[state])[0]
            action = int(q_row.argmax())
            if not math.isfinite(q_row[action]):
                raise NonFiniteError(_Q_DIVERGED)
        tr = env.step(state, action, rng)
        buffer.push(tr)
        batch_size = min(hyper.batch_size, len(buffer))
        batch = buffer.sample_batch(rng, batch_size)
        # a terminal row's bootstrap, gamma * 0.0 * q, is +-0.0 and leaves
        # its reward unchanged: with no continuing row the target is unused
        y = batch.rewards
        if buffer.any_continuing and batch.not_done.any():
            q_next = target.forward(table[batch.next_states]).max(axis=1)
            y = batch.rewards + hyper.gamma * batch.not_done * q_next
        q = net.forward(table[batch.states])
        picked = row_starts[:batch_size] + batch.actions
        td = q.take(picked)  # a copy, scaled in place to 2 * (q - y) / batch_size
        td -= y
        td *= 2.0
        td /= batch_size
        flat_grad[picked] = td
        net.backward(grad[:batch_size])
        flat_grad[picked] = 0.0  # the buffer is all zeros between steps
        net.sgd_step(hyper.lr_net)
        if (t + 1) % hyper.target_sync == 0:
            target.copy_params_from(net)
        effects.append(-tr.reward)
        state, steps_in_episode = _advance(env, tr, steps_in_episode, rng)
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
    state = env.reset(rng)
    steps_in_episode = 0
    done_steps = 0
    while done_steps < steps:
        batch_n = min(hyper.ppo_batch, steps - done_steps)
        batch: list[Transition] = []
        logp_old = np.empty(batch_n)
        # the policy is fixed during a rollout: one forward pass per state
        rollout_policy: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        for i in range(batch_n):
            if state not in rollout_policy:
                logp_row = log_softmax(policy_net.forward(table[state]))[0]
                if not np.isfinite(logp_row).all():
                    raise NonFiniteError(
                        "policy diverged to non-finite logits; lower lr_net"
                    )
                rollout_policy[state] = (logp_row, _action_cdf(np.exp(logp_row)))
            logp_row, cdf = rollout_policy[state]
            action = _draw_action(cdf, rng)
            tr = env.step(state, action, rng)
            batch.append(tr)
            logp_old[i] = logp_row[action]
            effects.append(-tr.reward)
            state, steps_in_episode = _advance(env, tr, steps_in_episode, rng)
        done_steps += batch_n
        entropy_coef = hyper.entropy_coef * (1.0 - done_steps / steps)

        states, actions, rewards, next_states, dones = (
            np.array(field) for field in zip(*batch)
        )
        x = table[states]
        not_done = 1.0 - dones
        # as in DQN, an all-terminal batch needs no bootstrap
        targets = rewards
        if not_done.any():
            v_next = value_net.forward(table[next_states])[:, 0]
            targets = rewards + hyper.gamma * not_done * v_next
        advantages = targets - value_net.forward(x)[:, 0]
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
            value_net.backward(2.0 * (v - targets[:, None]) / len(batch))
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
