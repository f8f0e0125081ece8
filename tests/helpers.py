"""Shared scenario builders and independent oracles used across test modules."""

import importlib.util
import math
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
    ChannelState,
    device_from_kind,
    resolve_channel,
    shannon_rate,
    snr_db_to_linear,
)
from splitcvl.nnprofile import PROFILE_HEADER, LayerProfile, ModelProfile
from splitcvl.privmetrics import C1, C2, WINDOW
from splitcvl.retrieval import (
    METRIC_NAMES,
    Embedding,
    FusionStrategy,
    GalleryRecord,
    SyntheticQueryPool,
    top1_percent_k,
)
from splitcvl.trico import (
    ConfEntry,
    ConfidentialityTable,
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
    bw_lo, bw_width = dist.bw_scale
    db_lo, db_width = dist.db_scale
    if not (math.isfinite(bw_width) and math.isfinite(db_width)):
        raise OverflowError("high - low range exceeds valid bounds")
    return bw_lo + bw_width * u_bw, snr_db_to_linear(db_lo + db_width * u_snr)


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


def record_path_combo(env, draws):
    """Channel combo of a fresh draw for every device, two of the uniforms
    ``draws`` per drawn channel, each binned by ``grid_bin``: what
    ``env.reset`` returns on the same uniforms."""
    combo = 0
    for grid in env.grids:
        b = 0 if grid.fixed else grid_bin(grid, next(draws), next(draws))
        combo = combo * grid.n_bins + b
    return combo


def record_path_transition(env, state, action, draws):
    """(reward, next state) by way of channel records and ``decision_effect``:
    what ``env.step`` returns on the same uniforms."""
    bins, step = env.decode_state(state)
    channels = tuple(
        grid.channel if grid.fixed
        else ChannelState(*channel_at(grid.bins[b], next(draws), next(draws)))
        for grid, b in zip(env.grids, bins)
    )
    try:
        reward = -decision_effect(env.scenario, env.decode_action(action), channels)
    except ZeroRateError:
        reward = -1.0
    if step + 1 >= env.horizon:
        return reward, 0
    return reward, (step + 1) * env.n_combos + record_path_combo(env, draws)


def evaluate_action(env, state, action):
    """Effect of an action of a ``PartitionEnv`` under the state's
    bin-midpoint channels; 1.0, the worst, where a link has zero rate."""
    bins, _ = env.decode_state(state)
    channels = tuple(resolve_channel(grid.bins[b]) for grid, b in zip(env.grids, bins))
    try:
        return decision_effect(env.scenario, env.decode_action(action), channels)
    except ZeroRateError:
        return 1.0


def policy_effect(env, policy):
    """Deterministic effect of the greedy policy, averaged over states."""
    values = [
        evaluate_action(env, s, policy.action(s)) for s in range(env.n_states)
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
            e = scenario.conf_table.entries[c]
            kl_max = max(
                max(x.kl_open, x.kl_closed) for x in scenario.conf_table.entries
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
    table = ConfidentialityTable(
        tuple(
            ConfEntry(float(rng.uniform(0, 5)), float(rng.uniform(0, 5)))
            for _ in range(n_cuts)
        )
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


class BanditEnv:
    """Single-state stub env with a fixed reward per action."""

    def __init__(self, rewards):
        self.rewards = [float(r) for r in rewards]
        self.n_states = 1
        self.n_actions = len(rewards)
        self.horizon = 1
        self.feature_dim = 1

    def reset(self, rng):
        return 0

    def state_features(self, state):
        return np.ones(1)

    def step(self, state, action, rng):
        from splitcvl.rlopt.env import Transition

        return Transition(state, action, self.rewards[action], 0, True)


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
