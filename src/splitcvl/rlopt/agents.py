"""Five learning agents over the partition environment, one branch per device.

All agents work against the same small env protocol: ``n_cuts``,
``n_bins`` (the rows: one per channel bin of each device, numbered among
all devices' bins; see ``env``), ``first_rows`` (each device's row of
its bin 0, one per device) and ``blocks(rng, steps)`` yielding each
block's ``(rows, outcomes)``, one entry per step: each device's row, and
the step's (devices, cuts) nested list of effects, or None where a link
is infeasible, which counts as an effect of 1.0 at every cut. An action
is a tuple of cuts, one per device. The effect is the mean of
independent per-device terms, so each device picks its cut in a branch
of its own (action branching, Tavakoli et al., AAAI 2018) from its own
row and learns it from its own reward, minus its term, as in a
combinatorial semi-bandit; the devices are independent learners (Tan,
ICML 1993) that share what they learn of each row. Every episode is one
step, so no update bootstraps from a next state: each value estimate
tracks the reward of its row and cut.

  * Q-Learning        a table row per (device, bin), epsilon-greedy per
                      device with linear decay
  * Multi-Q-Learning  ensemble of K such tables; each update lands on one
                      uniformly chosen table, so the ensemble averages K
                      tables updated on disjoint visits; behavior follows
                      the ensemble mean
  * Actor-Critic      a softmax per (device, bin) row, a critic of the
                      row's reward, advantage policy gradient
  * DQN               one TinyNet shared by the devices, a row's one-hot
                      in and its cuts' Q-values out, uniform replay,
                      squared error against the sampled rewards, plain SGD
  * PPO               clipped-surrogate policy gradient with a softmax per
                      row from one shared TinyNet, a TinyNet critic of the
                      row's reward and configurable entropy bonus

A training run is strictly sequential. The env draws its rows a block at
a time from ``default_rng(seed)``. The agent draws all of its own
randomness (initial weights, epsilon coins, explore cuts, table indices,
softmax draws, replay batches) from a second generator spawned from the
seed, as uniforms: per block, one ``random`` call of its steps' uniforms
in step order, so (agent, hyperparameters, seed) reproduces the trace bit
for bit whatever the env's block size. A uniform u picks the value
floor(u * n) of n, and a softmax draw is the first cut whose running sum
of weights passes u times their total. Traces record each step's effect
(the mean of its devices' terms) and a trailing moving average.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence

import numpy as np

from ..errors import NonFiniteError
from ..netmodel import fits_float
from .env import MAX_SIZE
from .nets import TinyNet, log_softmax


_COUNT_FIELDS = (
    "replay_capacity", "batch_size", "ppo_epochs", "ppo_batch",
    "multi_q_tables", "moving_avg_window",
)
# capped at MAX_SIZE when Hyperparams is built, before any training allocates
_SIZE_FIELDS = ("replay_capacity", "batch_size", "ppo_batch", "multi_q_tables")
_FLOAT_FIELDS = (
    "lr", "lr_actor", "lr_net", "epsilon_start", "epsilon_final",
    "epsilon_decay_fraction", "ppo_clip", "entropy_coef",
)


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
        for name in _FLOAT_FIELDS:
            value = getattr(self, name)
            if not math.isfinite(fits_float(value, name)):
                raise ValueError(f"{name} must be finite, got {value!r}")
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
    """Greedy policy extracted at the end of training: ``action(rows)``
    is one cut per device, device d's read from its row ``rows[d]`` alone
    (rows as ``env.blocks`` numbers them). It takes exactly one row per
    device, each among its own device's rows, and raises ValueError else.

    ``table`` carries the learned (n_bins, n_cuts) table of the tabular
    agents (Q-values, ensemble-mean Q-values, or actor logits), one row
    per (device, bin), and is None for the network-based agents.
    """

    _values: Callable[[Sequence[int]], np.ndarray] = field(repr=False)  # (devices, cuts)
    _device_rows: tuple[range, ...] = field(repr=False)  # each device's rows
    table: np.ndarray | None = None

    def action(self, rows: Sequence[int]) -> tuple[int, ...]:
        if len(rows) != len(self._device_rows):
            raise ValueError(
                f"need one row per device ({len(self._device_rows)}), got {len(rows)}"
            )
        for d, (row, own) in enumerate(zip(rows, self._device_rows)):
            if not (_is_int(row) or isinstance(row, np.integer)) or row not in own:
                raise ValueError(
                    f"device {d}: row {row!r} is not one of its rows "
                    f"{own.start}..{own.stop - 1}"
                )
        return tuple(self._values(rows).argmax(axis=1).tolist())


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


def _explore_cuts(draws: np.ndarray, epsilons: Iterator[float], n_cuts: int) -> list:
    """Each step's explore cut per device, or -1 where the device acts
    greedily, taking one epsilon per step. Row t of ``draws`` holds the
    step's devices' coins, then their explore uniforms: device d explores
    when its coin falls below epsilon."""
    n, n_dev = len(draws), len(draws[0]) // 2
    eps = np.fromiter(itertools.islice(epsilons, n), float, n)
    picks = (draws[:, n_dev:] * n_cuts).astype(np.int64)
    return np.where(draws[:, :n_dev] < eps[:, None], picks, -1).tolist()


def _dead(env) -> list[list[float]]:
    """The outcome that stands for an infeasible step: 1.0 at every cut."""
    return [[1.0] * env.n_cuts] * len(env.first_rows)


def _device_rows(env) -> tuple[range, ...]:
    """Each device's rows: from its first row to the next device's."""
    return tuple(map(range, env.first_rows, (*env.first_rows[1:], env.n_bins)))


def _table_policy(table: np.ndarray, env) -> TrainedPolicy:
    return TrainedPolicy(lambda rows: table[list(rows)], _device_rows(env), table)


def _one_hot(rows, n_bins: int) -> np.ndarray:
    """The nets' input: a one-hot of ``n_bins`` per row."""
    x = np.zeros((len(rows), n_bins))
    x[np.arange(len(rows)), rows] = 1.0
    return x


def _net_policy(net: TinyNet, env) -> TrainedPolicy:
    return TrainedPolicy(lambda rows: net.forward(_one_hot(rows, env.n_bins)),
                         _device_rows(env))


def train_q_learning(
    env, steps: int, hyper: Hyperparams | None = None, seed: int = 0
) -> tuple[TrainedPolicy, ConvergenceTrace]:
    """Tabular Q-learning; one trace row per environment step."""
    hyper = hyper or Hyperparams()
    rng, draw = _generators(seed)
    n_dev, n_cuts, lr, dead = len(env.first_rows), env.n_cuts, hyper.lr, _dead(env)
    q = [[0.0] * n_cuts for _ in range(env.n_bins)]
    epsilons = _epsilons(steps, hyper)
    effects: list[float] = []
    for rows, outcomes in env.blocks(rng, steps):
        picks = _explore_cuts(draw.random((len(rows), 2 * n_dev)), epsilons, n_cuts)
        for step_rows, outcome, step_picks in zip(rows, outcomes, picks):
            terms = []
            for b, row_effects, cut in zip(step_rows, outcome or dead, step_picks):
                row = q[b]
                if cut < 0:
                    cut = row.index(max(row))
                term = row_effects[cut]
                row[cut] += lr * (-term - row[cut])
                terms.append(term)
            effects.append(math.fsum(terms) / n_dev)
    return _table_policy(np.array(q), env), _make_trace(effects, hyper.moving_avg_window)


def train_multi_q(
    env, steps: int, hyper: Hyperparams | None = None, seed: int = 0
) -> tuple[TrainedPolicy, ConvergenceTrace]:
    """Ensemble Q-learning: act on the mean of K tables.

    Each update lands on one uniformly chosen table, which therefore sees
    only 1/K of the visits; the per-table rate is scaled by K (capped at
    1) so the ensemble mean learns at ``lr`` regardless of the ensemble
    size. A greedy device takes the argmax of its row's sum over the
    tables, K times the mean.
    """
    hyper = hyper or Hyperparams()
    k = hyper.multi_q_tables
    rng, draw = _generators(seed)
    n_dev, n_cuts, dead = len(env.first_rows), env.n_cuts, _dead(env)
    # per (device, bin) row, the K tables' rows
    tables = [[[0.0] * n_cuts for _ in range(k)] for _ in range(env.n_bins)]
    table_lr = min(1.0, hyper.lr * k)
    epsilons = _epsilons(steps, hyper)
    effects: list[float] = []
    for rows, outcomes in env.blocks(rng, steps):
        # per step, the devices' coins, explore uniforms and table uniforms
        draws = draw.random((len(rows), 3 * n_dev))
        picks = _explore_cuts(draws[:, :2 * n_dev], epsilons, n_cuts)
        indices = (draws[:, 2 * n_dev:] * k).astype(np.int64).tolist()
        for step_rows, outcome, step_picks, step_indices in zip(rows, outcomes, picks, indices):
            terms = []
            for b, row_effects, cut, j in zip(step_rows, outcome or dead, step_picks,
                                              step_indices):
                rows = tables[b]
                if cut < 0:
                    sums = [sum(values) for values in zip(*rows)]
                    cut = sums.index(max(sums))
                row = rows[j]
                term = row_effects[cut]
                row[cut] += table_lr * (-term - row[cut])
                terms.append(term)
            effects.append(math.fsum(terms) / n_dev)
    return (_table_policy(np.array(tables).mean(axis=1), env),
            _make_trace(effects, hyper.moving_avg_window))


def train_actor_critic(
    env, steps: int, hyper: Hyperparams | None = None, seed: int = 0
) -> tuple[TrainedPolicy, ConvergenceTrace]:
    """Tabular softmax actor with a critic of each row's reward.

    The logits start at zero, so each device's initial policy is uniform
    (entropy log of the cut count). A device draws its cut with one
    uniform, by inverse transform on the cumulative sums of its row's
    ``exp(logit - max)``, whose largest term is 1.0: a sum that is not at
    least 1.0 is NaN, and the policy has diverged.
    """
    hyper = hyper or Hyperparams()
    rng, draw = _generators(seed)
    n_dev, n_cuts, dead = len(env.first_rows), env.n_cuts, _dead(env)
    logits = [[0.0] * n_cuts for _ in range(env.n_bins)]
    values = [0.0] * env.n_bins
    lr, lr_actor, exp, last = hyper.lr, hyper.lr_actor, math.exp, n_cuts - 1
    effects: list[float] = []
    for rows, outcomes in env.blocks(rng, steps):
        draws = draw.random((len(rows), n_dev)).tolist()
        for step_rows, outcome, us in zip(rows, outcomes, draws):
            terms = []
            for b, row_effects, u in zip(step_rows, outcome or dead, us):
                row = logits[b]
                top = max(row)
                weights = [exp(x - top) for x in row]
                cdf = list(itertools.accumulate(weights))
                if not cdf[-1] >= 1.0:
                    raise NonFiniteError(
                        "policy diverged to non-finite values; lower the learning rates")
                cut = bisect_right(cdf, u * cdf[-1], 0, last)
                term = row_effects[cut]
                advantage = -term - values[b]
                values[b] += lr * advantage
                # logits += lr_actor * advantage * (one_hot(cut) - probs)
                step = lr_actor * advantage
                scale = step / cdf[-1]
                row[:] = [x - scale * w for x, w in zip(row, weights)]
                row[cut] += step
                terms.append(term)
            effects.append(math.fsum(terms) / n_dev)
    return _table_policy(np.array(logits), env), _make_trace(effects, hyper.moving_avg_window)


_Q_DIVERGED = "Q-network diverged to non-finite values; lower lr_net"


def train_dqn(
    env, steps: int, hyper: Hyperparams | None = None, seed: int = 0
) -> tuple[TrainedPolicy, ConvergenceTrace]:
    """Deep Q-network on one-hot rows, one net shared by the devices.

    The net maps a (device, bin) row's one-hot to that row's Q-value of
    each cut, so device d's cut reads d's row alone. The replay ring
    holds, per slot, each device's cell ``row * n_cuts + cut`` and its
    effect (minus its reward). Transition t (from 0) goes to slot
    ``t % replay_capacity``, so a block's batches are drawn before its
    writes. Step t draws its devices' coins and explore uniforms, then
    ``batch_size`` slot uniforms, of which its batch takes the first
    ``min(batch_size, size)``, ``size`` being the buffer's length
    ``min(t + 1, replay_capacity)`` after its own push. Each step runs
    the Q-network once: on every row when there are no more of them than
    a step's ``(1 + batch_size) * devices``, so that a cell's Q-value
    sits at the cell's index and a cell drawn twice sums its TD errors
    before backprop (which is linear in the output gradient, so the
    gradient is the batch's in exact arithmetic); otherwise on the step's
    rows and its batch's, its own slot holding its rows before the
    forward. The mean squared error over the batch's TD errors scales the
    learning rate by 2 / their count, whatever the device count. A
    diverged net raises NonFiniteError: the last Q-values of each block
    are checked, and the weights after training.
    """
    hyper = hyper or Hyperparams()
    rng, draw = _generators(seed)
    n_dev, n_cuts, n_bins, dead = len(env.first_rows), env.n_cuts, env.n_bins, _dead(env)
    capacity, batch_size = hyper.replay_capacity, hyper.batch_size
    # every row's one-hot, the identity: no more rows than a rows forward's
    table = _one_hot(range(n_bins), n_bins) if n_bins <= (1 + batch_size) * n_dev else None
    # on rows, batch entry j's Q-values are row n_dev + j of the forward
    row_starts = np.arange(n_dev, n_dev * (1 + batch_size)) * n_cuts
    devices = np.tile(np.arange(n_dev), batch_size)  # each batch entry's device
    net = TinyNet((n_bins, *hyper.hidden, n_cuts), draw)
    forward, backward, sgd_step, lr = net.forward, net.backward, net.sgd_step, hyper.lr_net
    cells = np.zeros((capacity, n_dev), dtype=np.int64)
    slot_terms = np.zeros((capacity, n_dev))
    flat_cells, flat_terms = cells.reshape(-1), slot_terms.reshape(-1)
    epsilons = _epsilons(steps, hyper)
    effects: list[float] = []
    for rows, outcomes in env.blocks(rng, steps):
        pushes = np.arange(len(effects), len(effects) + len(rows))
        sizes = np.minimum(pushes + 1, capacity)  # the length after each push
        owns = pushes % capacity  # each step's own slot, written in place
        draws = draw.random((len(rows), 2 * n_dev + batch_size))
        picks = _explore_cuts(draws[:, :2 * n_dev], epsilons, n_cuts)
        slots = (draws[:, 2 * n_dev:] * sizes[:, None]).astype(np.int64)
        # each batch slot's entries in the flat cells, one per device
        entries = (slots * n_dev).repeat(n_dev, axis=1) + devices
        for step_rows, outcome, step_picks, own, count, step_entries in zip(
            rows, outcomes, picks, owns.tolist(), np.minimum(sizes, batch_size).tolist(),
            entries,
        ):
            batch = step_entries[:count * n_dev]
            if table is None:
                # the batch may hold the step's own slot: its rows, at cut 0
                cells[own] = [row * n_cuts for row in step_rows]
                q = forward(_one_hot(np.concatenate((step_rows, flat_cells[batch] // n_cuts)),
                                     n_bins))
                mine = q[:n_dev]
            else:
                q = forward(table)
                mine = q.take(step_rows, axis=0)
            cuts = step_picks
            if min(cuts) < 0:  # a device acts greedily
                greedy = mine.argmax(axis=1).tolist()
                cuts = greedy if max(cuts) < 0 else [
                    g if c < 0 else c for c, g in zip(cuts, greedy)]
            terms = [e[c] for e, c in zip(outcome or dead, cuts)]
            cells[own] = [row * n_cuts + c for row, c in zip(step_rows, cuts)]
            slot_terms[own] = terms
            # read after the writes: the batch may hold the step's own slot
            picked = (flat_cells[batch] if table is not None
                      else row_starts[:len(batch)] + flat_cells[batch] % n_cuts)
            td = q.take(picked)
            td += flat_terms[batch]  # q - r, r being minus the effect
            # on every row, a cell drawn twice sums its TD errors
            backward(np.bincount(picked, td, q.size).reshape(-1, n_cuts))
            sgd_step(lr * 2.0 / len(batch))
            effects.append(math.fsum(terms) / n_dev)
        if not np.isfinite(q).all():
            raise NonFiniteError(_Q_DIVERGED)
    if not all(np.isfinite(w).all() for w in (*net.weights, *net.biases)):
        raise NonFiniteError(_Q_DIVERGED)
    return _net_policy(net, env), _make_trace(effects, hyper.moving_avg_window)


def ppo_policy_gradient(
    logits: np.ndarray,
    actions: np.ndarray,
    advantages: np.ndarray,
    logp_old: np.ndarray,
    clip: float,
    entropy_coef: float,
) -> np.ndarray:
    """dLoss/dlogits for the clipped surrogate with an entropy bonus.

    ``logits`` holds a softmax per device of each sample, (batch,
    devices, cuts), and ``actions``, ``advantages`` and ``logp_old`` are
    (batch, devices), so each device's cut has a ratio, clip and entropy
    of its own; the loss is their mean. Samples whose ratio has left the
    clip interval on the unfavourable side contribute no policy gradient,
    which is exactly the clipped-surrogate rule. With an infinite clip
    this reduces to the vanilla policy gradient of the batch.
    """
    n, n_dev = actions.shape
    logp = log_softmax(logits)
    probs = np.exp(logp)
    picked = np.arange(n)[:, None], np.arange(n_dev), actions
    # exponent clamp keeps a collapsed old policy from overflowing the ratio
    ratio = np.exp(np.clip(logp[picked] - logp_old, -30.0, 30.0))
    active = np.where(advantages >= 0.0, ratio <= 1.0 + clip, ratio >= 1.0 - clip)
    one_hot = np.zeros_like(probs)
    one_hot[picked] = 1.0
    grad = -((active * ratio * advantages)[..., None] * (one_hot - probs)) / actions.size
    if entropy_coef != 0.0:
        entropy = -(probs * logp).sum(axis=2, keepdims=True)
        grad += entropy_coef * probs * (logp + entropy) / actions.size
    return grad


def _row_sums(inverse: np.ndarray, values: np.ndarray, n_rows: int) -> np.ndarray:
    """(n_rows, width) sums of the (..., width) ``values`` of the samples
    that ``inverse`` maps to each row."""
    width = values.shape[-1]
    index = (inverse[..., None] * width + np.arange(width)).reshape(-1)
    return np.bincount(index, values.reshape(-1), n_rows * width).reshape(n_rows, width)


def train_ppo(
    env, steps: int, hyper: Hyperparams | None = None, seed: int = 0
) -> tuple[TrainedPolicy, ConvergenceTrace]:
    """Clipped-surrogate policy optimization with a critic baseline.

    The policy net and the critic are shared by the devices: on a
    (device, bin) row's one-hot, they give the row's cut logits and its
    expected reward. Both run on a batch's distinct rows, and the samples'
    gradients are summed per row before backprop, which is linear in
    them. Advantages are normalized per batch and the entropy bonus is
    annealed linearly to zero across the run: strong early exploration
    keeps the policy from collapsing onto a suboptimal mode before the
    critic has calibrated, and a zero late bonus lets it concentrate.
    """
    hyper = hyper or Hyperparams()
    rng, draw = _generators(seed)
    n_dev, n_cuts, n_bins, dead = len(env.first_rows), env.n_cuts, env.n_bins, _dead(env)
    policy_net = TinyNet((n_bins, *hyper.hidden, n_cuts), draw)
    value_net = TinyNet((n_bins, *hyper.hidden, 1), draw)
    effects: list[float] = []
    drawn = itertools.chain.from_iterable(
        zip(rows, outcomes, draw.random((len(rows), n_dev)).tolist())
        for rows, outcomes in env.blocks(rng, steps))
    devices = np.arange(n_dev)
    done_steps = 0
    while done_steps < steps:
        batch_n = min(hyper.ppo_batch, steps - done_steps)
        rows, outcomes, us = zip(*itertools.islice(drawn, batch_n))
        seen, inverse = np.unique(rows, return_inverse=True)
        inverse = inverse.reshape(batch_n, n_dev)
        x = _one_hot(seen, n_bins)
        # the policy is fixed during a rollout
        logp = log_softmax(policy_net.forward(x))
        if not np.isfinite(logp).all():
            raise NonFiniteError("policy diverged to non-finite logits; lower lr_net")
        logp = logp[inverse]
        cdf = np.exp(logp).cumsum(axis=2)
        # each device's cut: the first whose running sum passes u times the total
        actions = (cdf[..., :-1] <= np.array(us)[..., None] * cdf[..., -1:]).sum(axis=2)
        logp_old = logp[np.arange(batch_n)[:, None], devices, actions]
        terms = [[e[c] for e, c in zip(outcome or dead, cuts)]
                 for outcome, cuts in zip(outcomes, actions.tolist())]
        effects += [math.fsum(step_terms) / n_dev for step_terms in terms]
        done_steps += batch_n
        entropy_coef = hyper.entropy_coef * (1.0 - done_steps / steps)

        rewards = -np.array(terms)
        advantages = rewards - value_net.forward(x)[inverse, 0]
        spread = advantages.std()
        if spread > 1e-12:
            advantages = (advantages - advantages.mean()) / spread

        for _ in range(hyper.ppo_epochs):
            grad = ppo_policy_gradient(
                policy_net.forward(x)[inverse], actions, advantages, logp_old,
                hyper.ppo_clip, entropy_coef,
            )
            policy_net.backward(_row_sums(inverse, grad, len(seen)))
            policy_net.sgd_step(hyper.lr_net)

            v = value_net.forward(x)[inverse]
            # the critic's loss: a mean over the (sample, device) pairs
            v -= rewards[..., None]
            value_net.backward(_row_sums(inverse, 2.0 * v / rewards.size, len(seen)))
            value_net.sgd_step(hyper.lr_net)

    return _net_policy(policy_net, env), _make_trace(effects, hyper.moving_avg_window)


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
