"""Shared scenario builders and independent oracles used across test modules."""

import functools
import importlib.util
import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from pathlib import Path

import numpy as np

from splitcvl.errors import (
    DimensionMismatchError,
    NonFiniteError,
    ZeroRateError,
    ZeroVectorError,
)
from splitcvl.netmodel import (
    ChannelDistribution,
    ChannelState,
    device_from_kind,
    resolve_channel,
    shannon_rate,
    snr_db_to_linear,
)
from splitcvl.nnprofile import (
    PROFILE_HEADER,
    LayerProfile,
    ModelProfile,
    intermediate_bytes,
)
from splitcvl.privmetrics import C1, C2, WINDOW, histogram_of, kl_divergence, ssim
from splitcvl.retrieval import (
    METRIC_NAMES,
    Embedding,
    FusionStrategy,
    GalleryRecord,
    SyntheticQueryPool,
    top1_percent_k,
)
from splitcvl.rlopt import env as env_module
from splitcvl.rlopt.nets import TinyNet
from splitcvl.trico import (
    COST_TABLE_HEADER,
    ConfEntry,
    Scenario,
    TriCoWeights,
    decision_effect,
)


def perfbench_spans():
    """``perfbench/spans.py``, the benchmark's tracer, imported by path."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def synthetic_profile(byte_sizes, flops=None):
    """Tiny profile with one layer per candidate, all candidates marked."""
    flops = flops or [10 * (i + 1) for i in range(len(byte_sizes))]
    layers = tuple(
        LayerProfile(f"l{i}", int(f), int(b) // 4, 4)
        for i, (f, b) in enumerate(zip(flops, byte_sizes))
    )
    return ModelProfile(layers, tuple(range(len(layers))))


def format_profile_csv(profile):
    """The flat CSV table that ``load_profile`` reads (bit-exact round trip)."""
    candidate_set = set(profile.partition_candidates)
    lines = [PROFILE_HEADER]
    for i, layer in enumerate(profile.layers):
        lines.append(
            f"{layer.name},{layer.flops},{layer.out_elements},"
            f"{layer.bytes_per_element},{1 if i in candidate_set else 0}"
        )
    return "\n".join(lines) + "\n"


def save_profile(profile, path):
    with open(path, "w", newline="") as fh:
        fh.write(format_profile_csv(profile))


def tx_latency(payload_bytes, rate_bps):
    """Seconds to push ``payload_bytes`` through a link at ``rate_bps``."""
    if payload_bytes < 0:
        raise ValueError("payload_bytes must be >= 0")
    if rate_bps <= 0:
        raise ZeroRateError("link rate is zero, transmission infeasible")
    return payload_bytes * 8.0 / rate_bps


def tx_energy(tx_power_w, latency_s):
    """Joules spent transmitting for ``latency_s`` at ``tx_power_w``."""
    if tx_power_w < 0 or latency_s < 0:
        raise ValueError("tx_energy inputs must be >= 0")
    return tx_power_w * latency_s


def channel_at(dist, u_bw, u_snr):
    """(bandwidth_hz, snr_linear) of ``dist`` at uniform draws in [0, 1).

    A range maps a draw ``u`` to ``low + (high - low) * u``, the float
    ``Generator.uniform`` makes of its single draw, so
    ``channel_at(dist, rng.random(), rng.random())`` equals two
    ``rng.uniform`` calls, down to the OverflowError for a range of
    non-finite width.
    """
    bw_lo, bw_width = _scale(dist.bandwidth_range)
    db_lo, db_width = _scale(dist.snr_range_db)
    if not (math.isfinite(bw_width) and math.isfinite(db_width)):
        raise OverflowError("high - low range exceeds valid bounds")
    return bw_lo + bw_width * u_bw, snr_db_to_linear(db_lo + db_width * u_snr)


def _scale(bounds):
    """(low, width) of a range on Python floats, as ``Generator.uniform``
    scales a draw."""
    lo, hi = map(float, bounds)
    return lo, hi - lo


def first_rows(env):
    """Each device's row of its bin 0: the rows are numbered over all
    devices' bins, first device first."""
    firsts, row = [], 0
    for grid in env.grids:
        firsts.append(row)
        row += grid.n_bins
    return firsts


def device_bins(env, rows):
    """Each device's own bin, from its row among all devices' bins."""
    return [row - first for row, first in zip(rows, first_rows(env))]


def exact_bin(u, bins):
    """floor(u * bins) in exact arithmetic, clamped to the last bin."""
    return min(math.floor(Fraction(u) * bins), bins - 1)


def grid_bin(grid, u_bw, u_snr):
    """Bin of a channel drawn from an env channel grid's whole distribution
    with uniforms ``u_bw`` and ``u_snr``: each dimension's ``exact_bin``
    among its equal-width sub-ranges, the bandwidth bin major. A dimension
    with a zero-width range is bin 0."""
    lo, hi = grid.channel.bandwidth_range
    lo_db, hi_db = grid.channel.snr_range_db
    ibw = exact_bin(u_bw, grid.bandwidth_bins) if hi > lo else 0
    isnr = exact_bin(u_snr, grid.snr_bins) if hi_db > lo_db else 0
    return ibw * grid.snr_bins + isnr


def bin_channel(grid, b):
    """Bin ``b`` of an env channel grid as its own distribution: the
    ``b``-th of the grid's equal sub-ranges, the bandwidth bin major, on
    Python floats."""
    if grid.fixed:
        return grid.channel

    def sub_range(lo, hi, bins, index):
        width = (hi - lo) / bins
        return lo + index * width, lo + (index + 1) * width

    ibw, isnr = divmod(b, grid.snr_bins)
    return ChannelDistribution(
        sub_range(*grid.channel.bandwidth_range, grid.bandwidth_bins, ibw),
        sub_range(*grid.channel.snr_range_db, grid.snr_bins, isnr),
    )


def record_path_rows(env, draws):
    """Each device's row for a fresh draw, two of the uniforms ``draws``
    per drawn channel, each binned by ``grid_bin``: the rows of a block
    step whose bin columns hold the same uniforms."""
    return tuple(first + (0 if grid.fixed else grid_bin(grid, next(draws), next(draws)))
                 for grid, first in zip(env.grids, first_rows(env)))


def record_path_channels(env, rows, draws):
    """The channels of a block step whose channel columns hold the
    uniforms ``draws``, as channel records."""
    return tuple(
        grid.channel if grid.fixed
        else ChannelState(*channel_at(bin_channel(grid, b), next(draws), next(draws)))
        for grid, b in zip(env.grids, device_bins(env, rows))
    )


def evaluate_action(env, bins, cuts):
    """Effect of one cut per device, each device in its own channel bin
    ``bins[d]``, under the bins' midpoint channels; 1.0, the worst, where
    a link has zero rate."""
    channels = tuple(resolve_channel(bin_channel(grid, b))
                     for grid, b in zip(env.grids, bins))
    try:
        return decision_effect(env.scenario, cuts, channels)
    except ZeroRateError:
        return 1.0


def policy_effect(env, policy):
    """Deterministic effect of the greedy policy's cuts, averaged over
    every combination of the devices' bins; each device's cut is asked
    of its own row."""
    firsts = first_rows(env)
    values = [
        evaluate_action(env, bins, policy.action([f + b for f, b in zip(firsts, bins)]))
        for bins in product(*(range(grid.n_bins) for grid in env.grids))
    ]
    return math.fsum(values) / len(values)


def oracle_enumerate(scenario, channels):
    """Independent optimum: recompute raw costs and normalization inline,
    without going through the package's breakdown tables."""
    per_device_effect = []
    for dev, ch in zip(scenario.devices, channels):
        lats, ens, comps, confs = [], [], [], []
        n = scenario.profile.num_candidates
        for c in range(n):
            layer = scenario.profile.candidate_layer(c)
            lat = layer.out_elements * layer.bytes_per_element * 8 / shannon_rate(ch)
            lats.append(lat)
            ens.append(lat * dev.tx_power_w)
            cut_layer_idx = scenario.profile.partition_candidates[c]
            dev_fl = sum(l.flops for l in scenario.profile.layers[: cut_layer_idx + 1])
            comps.append(dev_fl / dev.peak_flops * dev.compute_power_w)
            e = scenario.conf_table[c]
            kl_max = max(
                max(x.kl_open, x.kl_closed) for x in scenario.conf_table
            )
            if kl_max == 0:
                confs.append(1.0)
            else:
                a = scenario.weights.alpha_open
                confs.append(
                    min(
                        1.0,
                        max(0.0, 1.0 - (a * e.kl_open + (1 - a) * e.kl_closed) / kl_max),
                    )
                )

        def mm(xs):
            lo, hi = min(xs), max(xs)
            return [0.0] * len(xs) if hi == lo else [(x - lo) / (hi - lo) for x in xs]

        nl, ne, nc = mm(lats), mm(ens), mm(comps)
        lam = scenario.weights.lambda_latency
        effs = [
            scenario.weights.w_comm * (lam * nl[c] + (1 - lam) * ne[c])
            + scenario.weights.w_comp * nc[c]
            + scenario.weights.w_conf * confs[c]
            for c in range(n)
        ]
        per_device_effect.append(effs)
    return enumerate_optimum(per_device_effect)


def enumerate_optimum(per_device_effect):
    """(cuts, effect) minimizing the mean effect over every joint decision.

    Ties break toward the lexicographically largest cut vector.
    """
    best, best_cuts = math.inf, None
    n_cuts = len(per_device_effect[0])
    for cuts in product(range(n_cuts), repeat=len(per_device_effect)):
        eff = math.fsum(per_device_effect[d][c] for d, c in enumerate(cuts)) / len(cuts)
        if eff < best or (eff == best and cuts > best_cuts):
            best, best_cuts = eff, cuts
    return best_cuts, best


def random_scenario(rng, max_devices=3):
    """Random synthetic instance with fixed channels."""
    n_dev = int(rng.integers(1, max_devices + 1))
    n_cuts = int(rng.integers(2, 6))
    byte_sizes = sorted(rng.integers(1, 10**6, size=n_cuts) * 4, reverse=True)
    flops = np.cumsum(rng.integers(1, 10**9, size=n_cuts)).tolist()
    profile = synthetic_profile([int(b) for b in byte_sizes], flops)
    devices, channels = [], []
    for i in range(n_dev):
        kind = "uav" if rng.random() < 0.5 else "vehicle"
        devices.append(
            device_from_kind(
                f"d{i}",
                kind,
                peak_flops=float(rng.uniform(0.1e12, 2e12)),
                compute_power_w=float(rng.uniform(5, 60)),
                tx_power_w=float(rng.uniform(0.5, 5)),
            )
        )
        channels.append(
            ChannelState(float(rng.uniform(1e6, 50e6)), float(rng.uniform(0.5, 100)))
        )
    table = tuple(
        ConfEntry(float(rng.uniform(0, 5)), float(rng.uniform(0, 5)))
        for _ in range(n_cuts)
    )
    w = rng.uniform(0.05, 1.0, size=3)
    w = w / w.sum()
    weights = TriCoWeights(
        float(w[0]),
        float(w[1]),
        1.0 - float(w[0]) - float(w[1]),
        alpha_open=float(rng.uniform(0, 1)),
        lambda_latency=float(rng.uniform(0, 1)),
    )
    return Scenario(tuple(devices), tuple(channels), profile, table, weights)


def random_fleet(rng, case):
    """A ``random_scenario`` of 1 to 8 devices, each on a fixed channel
    (now and then of zero SNR) or a distribution (now and then of zero
    width). ``case % 4`` of 1 makes every prefix FLOPs count equal, 2
    every payload, 3 every KL zero; 0 changes nothing."""
    scenario = random_scenario(rng, max_devices=8)
    channels = []
    for ch in scenario.channels:
        u = rng.random()
        if u < 0.05:
            ch = ChannelState(ch.bandwidth_hz, 0.0)
        elif u > 0.5:
            lo, lo_db = float(rng.uniform(1e6, 20e6)), float(rng.uniform(-20.0, 20.0))
            hi = lo if u > 0.9 else lo * float(rng.uniform(1.0, 5.0))
            hi_db = lo_db if u > 0.9 else lo_db + float(rng.uniform(0.0, 25.0))
            ch = ChannelDistribution((lo, hi), (lo_db, hi_db))
        channels.append(ch)
    profile, table = scenario.profile, scenario.conf_table
    byte_sizes = [layer.out_bytes for layer in profile.layers]
    flops = [layer.flops for layer in profile.layers]
    if case % 4 == 1:
        profile = synthetic_profile(byte_sizes, [flops[0]] + [0] * (len(flops) - 1))
    elif case % 4 == 2:
        profile = synthetic_profile([byte_sizes[0]] * len(byte_sizes), flops)
    elif case % 4 == 3:
        table = (ConfEntry(0.0, 0.0),) * len(table)
    return Scenario(scenario.devices, tuple(channels), profile, table, scenario.weights)


class BanditEnv:
    """Stub env of one bin per device, with a fixed effect per device and
    cut: device d is always in row d."""

    def __init__(self, effects):
        self.effects = [[float(e) for e in row] for row in effects]
        self.n_cuts = len(self.effects[0])
        self.n_bins = len(self.effects)
        self.first_rows = tuple(range(self.n_bins))

    def blocks(self, rng, steps):
        for start in range(0, steps, env_module.BLOCK_STEPS):
            n = min(env_module.BLOCK_STEPS, steps - start)
            yield [self.first_rows] * n, [self.effects] * n


def env_rows(env, rng, steps):
    """``(rows, outcome)`` of each step of ``env.blocks``."""
    for block in env.blocks(rng, steps):
        yield from zip(*block)


def softmax(logits):
    """Row-wise stable softmax."""
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def agent_generators(seed):
    """The env's generator, ``default_rng(seed)``, and the agent's, its
    ``SeedSequence``'s first spawned child."""
    seq = np.random.SeedSequence(seed)
    return np.random.default_rng(seq), np.random.default_rng(seq.spawn(1)[0])


def epsilon_at(step, total_steps, hyper):
    """Epsilon at ``step`` of a run: a linear decay from ``epsilon_start``
    over ``epsilon_decay_fraction`` of the steps, then ``epsilon_final``."""
    decay_steps = hyper.epsilon_decay_fraction * total_steps
    if decay_steps <= 0:
        return hyper.epsilon_final
    frac = min(1.0, step / decay_steps)
    return hyper.epsilon_start - (hyper.epsilon_start - hyper.epsilon_final) * frac


def step_effects(env, outcome):
    """A row's (devices, cuts) effects, 1.0 everywhere where it is infeasible."""
    if outcome is None:
        return [[1.0] * env.n_cuts for _ in env.first_rows]
    return outcome


def tabular_reference(name, env, steps, hyper, seed, bootstrap=False):
    """(table, effects) of Q-learning, multi-Q or actor-critic, one step,
    one device and one draw at a time, on (n_bins, n_cuts) arrays. Per
    step the agent's generator gives each device a coin and an explore
    uniform (and a table uniform for multi-Q), or one softmax uniform for
    actor-critic, in that order; a uniform u picks floor(u * n) of n. A
    softmax draw is the first cut whose running sum of ``exp(logit -
    max)`` passes u times the whole sum. With ``bootstrap``, every target
    adds the terminal bootstrap ``0.0`` to the reward, as the updates did
    while episodes could last longer; that turns a reward of -0.0 into
    +0.0."""
    rng, agent = agent_generators(seed)
    n_dev, n_cuts, k = len(env.first_rows), env.n_cuts, hyper.multi_q_tables
    q = np.zeros((env.n_bins, n_cuts))
    values = np.zeros(env.n_bins)
    tables = np.zeros((k, env.n_bins, n_cuts))
    effects = []
    for t, (rows, outcome) in enumerate(env_rows(env, rng, steps)):
        eps = epsilon_at(t, steps, hyper)
        u = agent.random({"q_learning": 2, "multi_q": 3, "actor_critic": 1}[name] * n_dev)
        terms = []
        for d, (b, row_effects) in enumerate(zip(rows, step_effects(env, outcome))):
            explore = u[d] < eps
            if name == "actor_critic":
                logits = q[b].tolist()
                weights = np.array([math.exp(x - max(logits)) for x in logits])
                cdf = np.cumsum(weights)
                cut = int(np.searchsorted(cdf[:-1], u[d] * cdf[-1], side="right"))
            elif name == "q_learning":
                cut = int(u[n_dev + d] * n_cuts) if explore else int(q[b].argmax())
            else:
                cut = (int(u[n_dev + d] * n_cuts) if explore
                       else int(tables[:, b].sum(axis=0).argmax()))
            reward = -row_effects[cut]
            target = reward + 0.0 if bootstrap else reward
            if name == "q_learning":
                q[b, cut] += hyper.lr * (target - q[b, cut])
            elif name == "multi_q":
                j = int(u[2 * n_dev + d] * k)
                tables[j, b, cut] += min(1.0, hyper.lr * k) * (target - tables[j, b, cut])
            else:
                advantage = target - values[b]
                values[b] += hyper.lr * advantage
                step = hyper.lr_actor * advantage
                q[b] -= (step / cdf[-1]) * weights
                q[b, cut] += step
            terms.append(row_effects[cut])
        effects.append(math.fsum(terms) / n_dev)
    return (tables.mean(axis=0) if name == "multi_q" else q), effects


def one_hots(rows, n_bins):
    """A (len(rows), n_bins) array with a one at each row's column."""
    x = np.zeros((len(rows), n_bins))
    for i, row in enumerate(rows):
        x[i, row] = 1.0
    return x


def log_probs(logits):
    """A softmax's log-probabilities: the logits less their maximum, less
    the log of the sum of their exponentials."""
    z = logits - logits.max()
    return z - np.log(np.exp(z).sum())


def dqn_reference(env, steps, hyper, seed):
    """(net, effects) of DQN one step and one device at a time. The net
    is drawn from the agent's generator; its input is a device's row as a
    one-hot over all ``n_bins`` rows and its output c the row's Q-value of
    cut c. Per step the agent's generator gives each device a coin and an
    explore uniform, then ``batch_size`` slot uniforms; a step with a
    greedy device runs the Q-network on each greedy device's row alone.
    The transition goes to slot ``t % replay_capacity`` of three arrays
    (each device's row, cut and effect), then the first ``min(batch_size,
    size)`` slot uniforms pick the batch's slots below ``size``, the
    buffer's length, and a forward on the batch's rows, slot by slot and
    device by device, gives each TD error; the mean squared error's
    2 / (rows x devices) scales the step. A greedy Q-value that is not
    finite raises NonFiniteError."""
    rng, agent = agent_generators(seed)
    n_dev, n_cuts = len(env.first_rows), env.n_cuts
    net = TinyNet((env.n_bins, *hyper.hidden, n_cuts), agent)
    capacity = hyper.replay_capacity
    slot_rows = np.zeros((capacity, n_dev), dtype=np.int64)
    slot_cuts = np.zeros((capacity, n_dev), dtype=np.int64)
    slot_effects = np.zeros((capacity, n_dev))
    effects = []
    for t, (rows, outcome) in enumerate(env_rows(env, rng, steps)):
        u = agent.random(2 * n_dev + hyper.batch_size)
        eps = epsilon_at(t, steps, hyper)
        cuts = []
        for d, row in enumerate(rows):
            if u[d] < eps:
                cuts.append(int(u[n_dev + d] * n_cuts))
                continue
            q_row = net.forward(one_hots([row], env.n_bins))[0]
            if not np.isfinite(q_row).all():
                raise NonFiniteError("Q-network diverged to non-finite values")
            cuts.append(int(q_row.argmax()))
        terms = [effect[c] for effect, c in zip(step_effects(env, outcome), cuts)]
        slot = t % capacity
        slot_rows[slot], slot_cuts[slot], slot_effects[slot] = rows, cuts, terms
        size = min(t + 1, capacity)
        count = min(hyper.batch_size, size)
        idx = (u[2 * n_dev:2 * n_dev + count] * size).astype(np.int64)
        q = net.forward(one_hots(slot_rows[idx].ravel(), env.n_bins))
        entries = np.arange(count * n_dev)
        grad = np.zeros_like(q)
        # q - r with r = -effect
        grad[entries, slot_cuts[idx].ravel()] = (q[entries, slot_cuts[idx].ravel()]
                                                 + slot_effects[idx].ravel())
        net.backward(grad)
        net.sgd_step(hyper.lr_net * 2.0 / (count * n_dev))
        effects.append(math.fsum(terms) / n_dev)
    return net, effects


def ppo_reference(env, steps, hyper, seed):
    """(policy net, effects) of PPO, each device's cut drawn from a
    forward on its own row. The policy net, then the critic, are drawn
    from the agent's generator; each reads a device's row as a one-hot
    and gives that row's cut logits, or its expected reward. Per step the
    agent's generator gives each device one softmax uniform. A batch of
    ``ppo_batch`` steps (fewer at the end) is rolled out on the batch's
    starting policy, then both nets take ``ppo_epochs`` steps on the
    batch's rows, step by step and device by device: the clipped
    surrogate with an entropy bonus annealed to zero over the run, and
    the mean squared error of the critic, each a mean over the rows;
    advantages are normalized over the batch."""
    rng, agent = agent_generators(seed)
    n_dev, n_cuts, n_bins = len(env.first_rows), env.n_cuts, env.n_bins
    policy = TinyNet((n_bins, *hyper.hidden, n_cuts), agent)
    critic = TinyNet((n_bins, *hyper.hidden, 1), agent)
    drawn = [(rows, step_effects(env, outcome), agent.random(n_dev))
             for rows, outcome in env_rows(env, rng, steps)]
    effects = []
    for start in range(0, steps, hyper.ppo_batch):
        batch = drawn[start:start + hyper.ppo_batch]
        rows, actions, logp_old, terms = [], [], [], []
        for step_rows, step_effects_, us in batch:
            step_terms = []
            for row, effect, u in zip(step_rows, step_effects_, us):
                logp = log_probs(policy.forward(one_hots([row], n_bins))[0])
                if not np.isfinite(logp).all():
                    raise NonFiniteError("policy diverged to non-finite logits")
                cdf = np.cumsum(np.exp(logp))
                cut = int(np.searchsorted(cdf[:-1], u * cdf[-1], side="right"))
                rows.append(row)
                actions.append(cut)
                logp_old.append(logp[cut])
                step_terms.append(effect[cut])
            terms += step_terms
            effects.append(math.fsum(step_terms) / n_dev)
        done = min(start + hyper.ppo_batch, steps)
        entropy_coef = hyper.entropy_coef * (1.0 - done / steps)
        x = one_hots(rows, n_bins)
        rewards = -np.array(terms)
        advantages = rewards - critic.forward(x)[:, 0]
        if advantages.std() > 1e-12:
            advantages = (advantages - advantages.mean()) / advantages.std()
        m = len(rows)
        for _ in range(hyper.ppo_epochs):
            logits = policy.forward(x)
            grad = np.zeros_like(logits)
            for i in range(m):
                logp = log_probs(logits[i])
                probs = np.exp(logp)
                ratio = math.exp(min(max(logp[actions[i]] - logp_old[i], -30.0), 30.0))
                clipped = (ratio > 1.0 + hyper.ppo_clip if advantages[i] >= 0.0
                           else ratio < 1.0 - hyper.ppo_clip)
                if not clipped:
                    grad[i] = ratio * advantages[i] * probs
                    grad[i, actions[i]] -= ratio * advantages[i]
                entropy = -(probs * logp).sum()
                grad[i] += entropy_coef * probs * (logp + entropy)
            policy.backward(grad / m)
            policy.sgd_step(hyper.lr_net)
            v = critic.forward(x)
            critic.backward(2.0 * (v - rewards[:, None]) / m)
            critic.sgd_step(hyper.lr_net)
    return policy, effects


def kernel_conf_costs(table, alpha_open=0.5):
    """``EffectKernel.conf`` of a one-device scenario over ``table``: the
    confidentiality cost of every cut, in table order."""
    scenario = Scenario(
        (device_from_kind("u", "uav"),), (ChannelState(1e6, 3.0),),
        synthetic_profile([4000] * len(table)), table, TriCoWeights(alpha_open=alpha_open))
    return scenario.effect_kernel.conf[0].tolist()


def scalar_cut_terms(dev, profile, table, weights):
    """(payload bits, comp energy, n_comp, conf cost) of one device at
    every cut, as lists on Python floats, recomputed from the layers."""
    bits, comps, confs = [], [], []
    kl_max = max(max(e.kl_open, e.kl_closed) for e in table)
    a = weights.alpha_open
    for c in range(profile.num_candidates):
        layer_index = profile.partition_candidates[c]
        layer = profile.layers[layer_index]
        bits.append(layer.out_elements * layer.bytes_per_element * 8.0)
        flops = sum(x.flops for x in profile.layers[:layer_index + 1])
        comps.append(flops / dev.peak_flops * dev.compute_power_w)
        e = table[c]
        confs.append(1.0 if kl_max == 0.0 else min(
            1.0, max(0.0, 1.0 - (a * e.kl_open + (1.0 - a) * e.kl_closed) / kl_max)))
    lo, hi = min(comps), max(comps)
    n_comps = [0.0 if hi == lo else (x - lo) / (hi - lo) for x in comps]
    return bits, comps, n_comps, confs


def scalar_comm_terms(dev, profile, weights, rate_bps, cut):
    """(latency_s, energy_j, n_comm) of one cut of one device over a link
    of ``rate_bps``, on Python floats: the float code the array kernel
    replaced, operation by operation."""
    bits = payload_bits(profile)
    return _comm_terms(bits, dev.tx_power_w, weights.lambda_latency, rate_bps, cut)


def payload_bits(profile):
    """Every cut's payload in bits, on Python floats."""
    return [intermediate_bytes(profile, c) * 8.0 for c in range(profile.num_candidates)]


def link_infeasible(bits, tx_power, rate_bps):
    """Whether a link's rate is zero or leaves the transmit latency or
    energy of some payload in ``bits`` past the largest float."""
    if rate_bps <= 0:
        return True
    for b in bits:
        lat = b / rate_bps
        if not (math.isfinite(lat) and math.isfinite(tx_power * lat)):
            return True
    return False


def _comm_terms(bits, tx_power, lam, rate_bps, cut):
    if rate_bps <= 0:
        raise ZeroRateError("link rate is zero, transmission infeasible")
    lat = bits[cut] / rate_bps
    lat_lo = min(bits) / rate_bps
    lat_hi = max(bits) / rate_bps
    en = tx_power * lat
    en_lo = tx_power * lat_lo
    en_hi = tx_power * lat_hi
    n_lat = 0.0 if lat_hi == lat_lo else (lat - lat_lo) / (lat_hi - lat_lo)
    n_en = 0.0 if en_hi == en_lo else (en - en_lo) / (en_hi - en_lo)
    return lat, en, lam * n_lat + (1.0 - lam) * n_en


def scalar_effect(dev, profile, table, weights):
    """``effect(rate_bps, cut)`` of one device, on Python floats: the
    weighted sum of the cut's n_comm, as ``scalar_comm_terms`` computes
    it, and the device's ``scalar_cut_terms``, which are computed once."""
    bits, _, n_comps, confs = scalar_cut_terms(dev, profile, table, weights)

    def effect(rate_bps, cut):
        n_comm = _comm_terms(bits, dev.tx_power_w, weights.lambda_latency, rate_bps, cut)[2]
        return (weights.w_comm * n_comm + weights.w_comp * n_comps[cut]
                + weights.w_conf * confs[cut])

    return effect


def reference_cost_table(scenario):
    """``format_cost_table`` of a scenario on Python floats, one row at a
    time from ``scalar_cut_terms``, ``scalar_comm_terms`` and
    ``scalar_effect``; ZeroRateError if a mean-channel link has zero rate
    or one too low to carry the payload."""
    rates = [shannon_rate(resolve_channel(ch)) for ch in scenario.channels]
    profile, table, weights = scenario.profile, scenario.conf_table, scenario.weights
    bits = payload_bits(profile)
    if any(link_infeasible(bits, dev.tx_power_w, rate)
           for dev, rate in zip(scenario.devices, rates)):
        raise ZeroRateError("link rate is zero or too low, transmission infeasible")
    lines = [COST_TABLE_HEADER]
    for dev, rate in zip(scenario.devices, rates):
        _, comps, n_comps, confs = scalar_cut_terms(dev, profile, table, weights)
        effect = scalar_effect(dev, profile, table, weights)
        for c in range(profile.num_candidates):
            lat, en, n_comm = scalar_comm_terms(dev, profile, weights, rate, c)
            values = (lat, en, comps[c], confs[c], n_comm, n_comps[c], confs[c],
                      effect(rate, c))
            lines.append(",".join([dev.id, profile.cut_name(c), *map(repr, values)]))
    return "\n".join(lines) + "\n"


class StepEnv:
    """The per-step dynamics that ``PartitionEnv`` draws a block at a time,
    one step at a time, as a reference.

    ``reset`` draws the step's bin uniforms, two per drawn channel, bins
    them with ``bisect_right`` and gives each device's row among all
    devices' bins. ``step`` draws the step's channel uniforms, maps them
    to rates with scalars bound per row (each bin's ``bin_channel``
    scales), and gives every device's effect at every cut from
    ``scalar_effect``: None where a link's rate is zero or leaves some
    cut's latency or energy past the largest float.
    """

    def __init__(self, env):
        self.env = env
        scenario = env.scenario
        bits = payload_bits(scenario.profile)
        # per device: its first row and its binning, None for a fixed
        # channel; per row: the device's effect, its infeasibility rule
        # and its link: the fixed channel's rate, or None, the index of
        # its bandwidth uniform and its bin's (bw_lo, bw_width, db_lo,
        # db_width)
        self._binnings = []
        self._row_links = []
        i = 0
        for grid, dev in zip(env.grids, scenario.devices):
            effect = (scalar_effect(dev, scenario.profile, scenario.conf_table, scenario.weights),
                      functools.partial(link_infeasible, bits, dev.tx_power_w))
            first = len(self._row_links)
            if grid.fixed:
                self._binnings.append((first, None))
                self._row_links.append((*effect, grid.rate, 0, 0.0, 0.0, 0.0, 0.0))
                continue
            self._binnings.append((first, (i, tuple(grid.bw_edges.tolist()), grid.snr_bins,
                                           tuple(grid.snr_edges.tolist()))))
            for b in range(grid.n_bins):
                d = bin_channel(grid, b)
                self._row_links.append((*effect, None, i, *_scale(d.bandwidth_range),
                                        *_scale(d.snr_range_db)))
            i += 2
        self._draws_per_set = i

    def reset(self, rng):
        u = rng.random(self._draws_per_set).tolist()
        rows = []
        for first, binning in self._binnings:
            if binning is None:
                rows.append(first)
                continue
            i, bw_edges, stride, snr_edges = binning
            rows.append(first + bisect_right(bw_edges, u[i]) * stride
                        + bisect_right(snr_edges, u[i + 1]))
        return tuple(rows)

    def step(self, rows, rng):
        """Every device's effect at every cut with its rows, or None."""
        return self.score(rows, rng.random(self._draws_per_set).tolist())

    def score(self, rows, u):
        """Every device's effect at every cut in its row ``rows[d]`` over
        a step's channel uniforms ``u``, or None where a link is
        infeasible."""
        outcome = []
        for row in rows:
            effect, infeasible, rate, i, bw_lo, bw_width, db_lo, db_width = self._row_links[row]
            if rate is None:
                snr_linear = 10.0 ** ((db_lo + db_width * u[i + 1]) / 10.0)
                rate = (bw_lo + bw_width * u[i]) * math.log2(1.0 + snr_linear)
            if infeasible(rate):
                return None
            outcome.append([effect(rate, c) for c in range(self.env.n_cuts)])
        return outcome


def step_rows(env, rng, steps):
    """``(rows, outcome)`` of each step, one reset and one step at a
    time, as ``env.blocks`` draws them."""
    ref = StepEnv(env)
    steps_drawn = []
    for _ in range(steps):
        rows = ref.reset(rng)
        steps_drawn.append((rows, ref.step(rows, rng)))
    return steps_drawn


# -- TinyNet gradient checks ----------------------------------------------


def flat_params(net):
    """Every weight matrix, then every bias vector, as one flat copy."""
    return np.concatenate([w.ravel() for w in net.weights] + list(net.biases))


def flat_grads(net):
    """The gradients of the last ``backward`` in ``flat_params`` order."""
    return np.concatenate([g.ravel() for g in net.g_weights] + list(net.g_biases))


def mse_loss_and_grad(out, target):
    """Mean squared error over all batch entries and outputs."""
    target = np.atleast_2d(np.asarray(target, dtype=np.float64))
    diff = out - target
    loss = float(np.mean(diff**2))
    return loss, 2.0 * diff / diff.size


def grad_check(net, inputs, targets, h=1e-5):
    """Max relative error between backprop and central finite differences.

    The squared loss is evaluated at theta +/- h for every parameter,
    perturbed in place through the net's weight and bias views. The
    per-parameter error is |analytic - numeric| / max(1, |analytic|,
    |numeric|), so near-zero gradients are compared absolutely and large
    ones relatively.
    """
    loss, grad_out = mse_loss_and_grad(net.forward(inputs), targets)
    if not np.isfinite(loss):
        raise NonFiniteError("loss is not finite")
    net.backward(grad_out)
    analytic = flat_grads(net)
    if not np.all(np.isfinite(analytic)):
        raise NonFiniteError("gradient is not finite")

    numeric = []
    for param in net.weights + net.biases:
        flat = param.reshape(-1)  # a view: writes reach the net
        for i in range(flat.size):
            saved = flat[i]
            flat[i] = saved + h
            loss_plus, _ = mse_loss_and_grad(net.forward(inputs), targets)
            flat[i] = saved - h
            loss_minus, _ = mse_loss_and_grad(net.forward(inputs), targets)
            flat[i] = saved
            numeric.append((loss_plus - loss_minus) / (2.0 * h))
    numeric = np.array(numeric)
    if not np.all(np.isfinite(numeric)):
        raise NonFiniteError("finite-difference gradient is not finite")

    denom = np.maximum(1.0, np.maximum(np.abs(analytic), np.abs(numeric)))
    return float(np.max(np.abs(analytic - numeric) / denom))


def smoothed_histogram(counts, epsilon=1e-6):
    """(channels, bins) probabilities for ``kl_divergence``: each row of
    ``counts`` plus ``epsilon``, normalized to sum 1."""
    smoothed = np.atleast_2d(np.asarray(counts, dtype=np.float64)) + epsilon
    return smoothed / smoothed.sum(axis=1, keepdims=True)


def reference_ssim(a, b):
    """SSIM of two same-shape ``Image``s by block means: each channel cut
    into WINDOW x WINDOW blocks, each statistic a row mean, clamped to [0, 1]."""
    nh, nw = a.height // WINDOW, a.width // WINDOW
    values = []
    for ch in range(a.channels):
        pa = a.pixels[: nh * WINDOW, : nw * WINDOW, ch].astype(np.float64)
        pb = b.pixels[: nh * WINDOW, : nw * WINDOW, ch].astype(np.float64)
        blocks_a = pa.reshape(nh, WINDOW, nw, WINDOW).transpose(0, 2, 1, 3)
        blocks_a = blocks_a.reshape(nh * nw, -1)
        blocks_b = pb.reshape(nh, WINDOW, nw, WINDOW).transpose(0, 2, 1, 3)
        blocks_b = blocks_b.reshape(nh * nw, -1)
        mu_a = blocks_a.mean(axis=1)
        mu_b = blocks_b.mean(axis=1)
        var_a = (blocks_a**2).mean(axis=1) - mu_a**2
        var_b = (blocks_b**2).mean(axis=1) - mu_b**2
        cov = (blocks_a * blocks_b).mean(axis=1) - mu_a * mu_b
        terms = ((2 * mu_a * mu_b + C1) * (2 * cov + C2)) / (
            (mu_a**2 + mu_b**2 + C1) * (var_a + var_b + C2)
        )
        values.append(float(np.mean(terms)))
    return min(1.0, max(0.0, math.fsum(values) / len(values)))


def reference_conf_table(corpus):
    """``build_conf_table`` triple by triple: each triple's original is
    histogrammed and scored on its own, however the originals are shared."""
    entries = []
    for _, triples in corpus:
        kl_open, kl_closed, ssim_open, ssim_closed = [], [], [], []
        for orig, open_box, closed_box in triples:
            h_orig = histogram_of(orig)
            kl_open.append(kl_divergence(h_orig, histogram_of(open_box)))
            kl_closed.append(kl_divergence(h_orig, histogram_of(closed_box)))
            s_open, s_closed = ssim(orig, (open_box, closed_box))
            ssim_open.append(s_open)
            ssim_closed.append(s_closed)
        n = len(triples)
        entries.append(
            ConfEntry(
                kl_open=math.fsum(kl_open) / n,
                kl_closed=math.fsum(kl_closed) / n,
                ssim_open=math.fsum(ssim_open) / n,
                ssim_closed=math.fsum(ssim_closed) / n,
            )
        )
    return tuple(entries)


def write_color_corpus(root: Path) -> None:
    """Two cuts of 37x45 P6 triples, sides not multiples of the SSIM
    window, and one 11x9 P5 triple, written without the package's image
    writer."""
    rng = np.random.default_rng(11)
    yy, xx = np.mgrid[0:45, 0:37]
    for cut, t in (("0_shallow", 0.1), ("1_deep", 0.6)):
        cut_dir = root / cut
        cut_dir.mkdir(parents=True)
        for i in range(2):
            ramp = np.stack([(xx * (c + 2) + yy * 5 + 40 * i) % 256 for c in range(3)], -1)
            orig = (ramp // 32 * 32).astype(np.uint8)
            for role, frac in (("orig", 0.0), ("open", t), ("closed", t / 2)):
                noise = rng.integers(0, 256, size=orig.shape, dtype=np.uint8)
                pixels = np.where(rng.random(orig.shape) < frac, noise, orig)
                (cut_dir / f"{role}_{i}.ppm").write_bytes(b"P6\n37 45\n255\n" + pixels.tobytes())
    for role, frac in (("orig", 0.0), ("open", 0.5), ("closed", 0.3)):
        values = np.where(rng.random((9, 11)) < frac, rng.integers(0, 256, (9, 11)),
                          np.arange(99).reshape(9, 11) * 2)
        raster = values.astype(np.uint8).tobytes()
        (root / "1_deep" / f"{role}_gray.pgm").write_bytes(b"P5 11 9 255\n" + raster)


# -- retrieval oracle: rank by sorting, score by definition ---------------


def normalized(values):
    """The unit ``Embedding`` along ``values``."""
    vec = np.asarray(values, dtype=np.float64)
    norm = float(np.linalg.norm(vec))
    if norm < 1e-12:
        raise ZeroVectorError("cannot normalize a (near-)zero vector")
    return Embedding(vec / norm)


@dataclass(frozen=True)
class QuerySet:
    """All query images of one location, as embeddings."""

    true_location_id: str
    embeddings: tuple[Embedding, ...]

    def __post_init__(self) -> None:
        if not self.embeddings:
            raise ValueError("query set must contain at least one embedding")
        dims = {e.dim for e in self.embeddings}
        if len(dims) != 1:
            raise ValueError("query embeddings must share one dimension")


@dataclass(frozen=True)
class RankedResult:
    """Scores sorted descending; ties broken by ascending location id."""

    entries: tuple[tuple[str, float], ...]
    record_indices: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.entries)

    def ids(self) -> list[str]:
        return [rid for rid, _ in self.entries]


def cosine_similarity(a: Embedding, b: Embedding) -> float:
    if a.dim != b.dim:
        raise DimensionMismatchError(f"embedding dims differ: {a.dim} vs {b.dim}")
    return float(a.vector @ b.vector)


def make_query_set(pool: SyntheticQueryPool, uav_count: int, ground_count: int) -> QuerySet:
    if uav_count < 0 or ground_count < 0 or uav_count + ground_count == 0:
        raise ValueError("need at least one query image")
    if uav_count > len(pool.uav) or ground_count > len(pool.ground):
        raise ValueError("not enough images in the pool")
    return QuerySet(
        true_location_id=pool.location_id,
        embeddings=pool.uav[:uav_count] + pool.ground[:ground_count],
    )


def fuse_queries(qs: QuerySet) -> Embedding:
    """Mean of the member vectors, renormalized to unit length."""
    mean = np.mean([e.vector for e in qs.embeddings], axis=0)
    norm = float(np.linalg.norm(mean))
    if norm < 1e-12:
        raise ZeroVectorError("query embeddings cancel out; views are contradictory")
    return Embedding(mean / norm)


def _sort_scores(scores: np.ndarray, gallery: list[GalleryRecord]) -> RankedResult:
    order = sorted(
        range(len(gallery)), key=lambda i: (-scores[i], gallery[i].location_id, i)
    )
    return RankedResult(
        entries=tuple((gallery[i].location_id, float(scores[i])) for i in order),
        record_indices=tuple(order),
    )


def _best_scores(queries: list[Embedding], gallery: list[GalleryRecord]) -> np.ndarray:
    """Each gallery row's best score over the queries. Every score is an
    exactly rounded sum, so it does not depend on the row's position in
    the gallery (a BLAS product's does) and identical rows tie exactly."""
    if not gallery:
        raise ValueError("gallery must not be empty")
    dim = gallery[0].embedding.dim
    if queries[0].dim != dim:
        raise DimensionMismatchError(f"query dim {queries[0].dim} vs gallery dim {dim}")
    matrix = np.stack([r.embedding.vector for r in gallery])
    scores = [[math.fsum(row) for row in (matrix * q.vector).tolist()] for q in queries]
    return np.max(scores, axis=0)


def rank_gallery(query: Embedding, gallery: list[GalleryRecord]) -> RankedResult:
    return _sort_scores(_best_scores([query], gallery), gallery)


def rank_query_set(
    qs: QuerySet,
    gallery: list[GalleryRecord],
    strategy: FusionStrategy = FusionStrategy.MEAN,
) -> RankedResult:
    """Rank a multi-image query under the chosen fusion strategy."""
    if strategy is FusionStrategy.MEAN:
        return rank_gallery(fuse_queries(qs), gallery)
    return _sort_scores(_best_scores(list(qs.embeddings), gallery), gallery)


def recall_at_k(ranked: RankedResult, true_id: str, k: int) -> int:
    """1 if any of the top-k entries carries the true id, else 0."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return int(any(rid == true_id for rid, _ in ranked.entries[:k]))


def average_precision(ranked: RankedResult, true_ids: set[str]) -> float:
    """Mean of precision values at the ranks of the true matches."""
    if not true_ids:
        raise ValueError("true_ids must not be empty")
    missing = true_ids - {rid for rid, _ in ranked.entries}
    if missing:
        raise ValueError(f"true ids missing from ranking: {sorted(missing)}")
    hits = 0
    precisions = []
    for rank, (rid, _) in enumerate(ranked.entries, start=1):
        if rid in true_ids:
            hits += 1
            precisions.append(hits / rank)
    return math.fsum(precisions) / len(precisions)


def reference_cell(gallery, pools, uav_count, ground_count, strategy):
    """One cell of evaluate_cells by definition: sort every ranking, then
    score it."""
    ks = (1, min(5, len(gallery)), min(10, len(gallery)), top1_percent_k(len(gallery)))
    values = {name: [] for name in METRIC_NAMES}
    for pool in pools:
        ranked = rank_query_set(make_query_set(pool, uav_count, ground_count), gallery, strategy)
        for name, k in zip(METRIC_NAMES, ks):
            values[name].append(recall_at_k(ranked, pool.location_id, k))
        values["ap"].append(average_precision(ranked, {pool.location_id}))
    return {name: 100.0 * math.fsum(v) / len(v) for name, v in values.items()}


def corpus_records(corpus):
    """A ``Corpus`` as the oracle's records: (gallery records, query pools)."""
    gallery = [
        GalleryRecord(loc, "satellite", 0.0, 0.0, Embedding(corpus.gallery[i]))
        for i, loc in enumerate(corpus.ids)
    ]
    pools = [
        SyntheticQueryPool(
            loc, tuple(map(Embedding, corpus.uav[i])), tuple(map(Embedding, corpus.ground[i]))
        )
        for i, loc in enumerate(corpus.ids)
    ]
    return gallery, pools
