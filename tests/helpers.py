"""Shared scenario builders and independent oracles used across test modules."""

import math
from itertools import product

import numpy as np

from splitcvl.netmodel import ChannelState, device_from_kind, shannon_rate
from splitcvl.nnprofile import LayerProfile, ModelProfile
from splitcvl.trico import ConfEntry, ConfidentialityTable, Scenario, TriCoWeights


def synthetic_profile(byte_sizes, flops=None):
    """Tiny profile with one layer per candidate, all candidates marked."""
    flops = flops or [10 * (i + 1) for i in range(len(byte_sizes))]
    layers = tuple(
        LayerProfile(f"l{i}", int(f), int(b) // 4, 4)
        for i, (f, b) in enumerate(zip(flops, byte_sizes))
    )
    return ModelProfile(layers, tuple(range(len(layers))), input_bytes=0)


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

    def evaluate_action(self, state, action):
        return -self.rewards[action]
