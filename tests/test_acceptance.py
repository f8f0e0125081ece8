"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Criterion tolerances are fixed here, not configurable.
"""

import hashlib
import itertools
import time

import numpy as np

from splitcvl.cli import main as cli_main, retrieval_grid
from splitcvl.config import RetrievalConfig, ViewNoise
from splitcvl.nnprofile import build_resnet50_usam_profile, device_flops, intermediate_bytes
from splitcvl.privmetrics import build_conf_table, make_demo_corpus, ssim, write_demo_corpus
from splitcvl.rlopt.agents import (
    train_actor_critic,
    train_dqn,
    train_multi_q,
    train_ppo,
    train_q_learning,
)
from splitcvl.rlopt.env import PartitionEnv
from splitcvl.rlopt.nets import TinyNet
from splitcvl.trico import default_scenario, optimal_decision

from helpers import (
    grad_check,
    oracle_enumerate,
    policy_effect,
    random_scenario,
    smoothed_histogram,
)
from test_nnprofile import oracle_candidate_elements, oracle_conv_flops
from test_privmetrics import random_image, spearman
from test_retrieval import oracle_ap, oracle_recall, ranking_from_relevance


def report(criterion: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"{status} {criterion}{suffix}")
    assert ok, f"{criterion}{suffix}"


AGENT_SPECS = [
    ("q_learning", train_q_learning, 0.05),
    ("actor_critic", train_actor_critic, 0.05),
    ("multi_q", train_multi_q, 0.10),
    ("dqn", train_dqn, 0.10),
    ("ppo", train_ppo, 0.10),
]


def test_criterion_1_oracle_convergence():
    """All five agents track the exact optimum on the default scenario."""
    scenario = default_scenario()
    env = PartitionEnv(scenario, snr_bins=2)
    _, oracle_eff = optimal_decision(scenario)
    started = time.perf_counter()
    failures = []
    for name, train, tol in AGENT_SPECS:
        bad_seeds = 0
        for seed in range(20):
            _, trace = train(env, 3000, seed=seed)
            if trace.final_moving_avg > (1.0 + tol) * oracle_eff:
                bad_seeds += 1
        if bad_seeds > 2:
            failures.append(f"{name}: {20 - bad_seeds}/20 seeds within {tol:.0%}")
    elapsed = time.perf_counter() - started
    if elapsed >= 60.0:
        failures.append(f"runtime {elapsed:.1f}s >= 60s")
    report(
        "criterion-1 oracle-convergence",
        not failures,
        "; ".join(failures) or f"all agents >=18/20 seeds, runtime {elapsed:.1f}s",
    )


def test_criterion_2_oracle_lower_bound():
    """No trained greedy policy beats the exact optimum; the optimum is
    cross-checked by an independently coded enumerator."""
    rng = np.random.default_rng(2024)
    violations = []
    for case in range(50):
        scenario = random_scenario(rng, max_devices=3)
        channels = scenario.resolved_channels()
        cuts, oracle_eff = optimal_decision(scenario, channels)
        indep_cuts, indep_eff = oracle_enumerate(scenario, channels)
        if cuts != indep_cuts or abs(oracle_eff - indep_eff) > 1e-12:
            violations.append(f"case {case}: enumerators disagree")
            continue
        env = PartitionEnv(scenario)
        for name, train, _ in AGENT_SPECS:
            policy, _ = train(env, 150, seed=case)
            greedy_eff = policy_effect(env, policy)
            if greedy_eff < oracle_eff - 1e-9:
                violations.append(f"case {case}/{name}: {greedy_eff} < {oracle_eff}")
    report(
        "criterion-2 oracle-lower-bound",
        not violations,
        "; ".join(violations[:3]) or "50 scenarios x 5 agents clean",
    )


def test_criterion_3_gradient_correctness():
    rng = np.random.default_rng(31)
    worst = 0.0
    for _ in range(100):
        sizes = (
            int(rng.integers(2, 6)),
            int(rng.integers(2, 8)),
            int(rng.integers(2, 8)),
            int(rng.integers(1, 4)),
        )
        net = TinyNet(sizes, rng)
        x = rng.standard_normal((int(rng.integers(1, 5)), sizes[0]))
        y = rng.standard_normal((x.shape[0], sizes[-1]))
        worst = max(worst, grad_check(net, x, y))
    report(
        "criterion-3 gradient-correctness",
        worst <= 1e-4,
        f"max relative error {worst:.2e}",
    )


def test_criterion_4_profile_correctness():
    profile = build_resnet50_usam_profile(224, 224)
    expected_bytes = [3211264, 3211264, 1605632, 802816, 401408]
    got_bytes = [intermediate_bytes(profile, c) for c in range(5)]
    oracle_elems = [e * 4 for e in oracle_candidate_elements(224, 224)]
    flop_oracle = oracle_conv_flops(224, 224)
    total_flops = sum(layer.flops for layer in profile.layers)
    flops_ok = abs(total_flops - flop_oracle) <= 0.05 * flop_oracle
    ok = got_bytes == expected_bytes == oracle_elems and flops_ok
    report(
        "criterion-4 profile-correctness",
        ok,
        f"bytes {got_bytes}, total FLOPs {total_flops:.3e} vs "
        f"oracle {flop_oracle:.3e}",
    )


def test_criterion_5_trade_off_direction():
    scenario = default_scenario()
    profile = scenario.profile
    conf = scenario.effect_kernel.conf[0].tolist()
    ok = True
    for c in range(profile.num_candidates - 1):
        deeper, shallower = c + 1, c
        ok &= device_flops(profile, deeper) > device_flops(profile, shallower)
        ok &= intermediate_bytes(profile, deeper) <= intermediate_bytes(
            profile, shallower
        )
        ok &= conf[deeper] <= conf[shallower]
    report(
        "criterion-5 trade-off-direction",
        ok,
        "flops strictly up, bytes and conf cost non-increasing over all "
        "adjacent cut pairs",
    )


def test_criterion_6_metric_oracles():
    from helpers import average_precision, recall_at_k

    mismatches = 0
    checked = 0
    for n in range(1, 9):
        for flags in itertools.product([0, 1], repeat=n):
            ranked = ranking_from_relevance(flags)
            recalls = []
            for k in range(1, n + 1):
                value = recall_at_k(ranked, "true", k)
                recalls.append(value)
                checked += 1
                if value != oracle_recall(flags, k):
                    mismatches += 1
            if any(a > b for a, b in zip(recalls, recalls[1:])):
                mismatches += 1
            if any(flags):
                checked += 1
                ap = average_precision(ranked, {"true"})
                if abs(ap - oracle_ap(flags)) > 1e-12:
                    mismatches += 1
                k = sum(flags)
                if (ap == 1.0) != all(flags[:k]):
                    mismatches += 1
    report(
        "criterion-6 metric-oracles",
        mismatches == 0,
        f"{checked} oracle comparisons over all rankings of <= 8 items",
    )


def test_criterion_7_retrieval_trend():
    ret = RetrievalConfig(
        locations=200, dim=64, seeds=10,
        noise=ViewNoise(satellite=0.0, uav=0.5, ground=0.5), images_per_view=4,
    )
    rows = retrieval_grid(ret, base_seed=0)
    cells = {(r["uav_images"], r["ground_images"]): r for r in rows}
    diagonal = [cells[(n, n)] for n in (1, 2, 3, 4)]
    tol = 0.5  # percentage points per step
    recall_ok = all(
        b["recall_at_1"] >= a["recall_at_1"] - tol
        for a, b in zip(diagonal, diagonal[1:])
    )
    ap_ok = all(b["ap"] >= a["ap"] - tol for a, b in zip(diagonal, diagonal[1:]))
    series = [f"{c['recall_at_1']:.1f}/{c['ap']:.1f}" for c in diagonal]
    report(
        "criterion-7 retrieval-trend",
        recall_ok and ap_ok,
        "R@1/AP per fused-count " + " -> ".join(series),
    )


def test_criterion_8_privacy_metrics():
    rng = np.random.default_rng(81)
    failures = []

    for _ in range(10):
        img = random_image(rng)
        if ssim(img, [img]) != [1.0]:
            failures.append("ssim(a,a) != 1")
    for _ in range(50):
        a, b = random_image(rng), random_image(rng)
        if abs(ssim(a, [b])[0] - ssim(b, [a])[0]) > 1e-12:
            failures.append("ssim asymmetry")

    from splitcvl.privmetrics import kl_divergence

    for _ in range(1000):
        p = smoothed_histogram(rng.integers(0, 40, size=(1, 32)))
        q = smoothed_histogram(rng.integers(0, 40, size=(1, 32)))
        if kl_divergence(p, q) < 0:
            failures.append("negative KL")
    p = smoothed_histogram(rng.integers(1, 40, size=(1, 32)))
    if kl_divergence(p, p) != 0.0:
        failures.append("KL(p,p) != 0")

    table = build_conf_table(make_demo_corpus(seed=0))
    shallow, stage3 = table[0], table[3]
    if not (0.84 <= shallow.ssim_open <= 0.99 and 0.84 <= shallow.ssim_closed <= 0.99):
        failures.append(f"shallow ssim {shallow.ssim_open:.3f}/{shallow.ssim_closed:.3f}")
    if not (0.02 <= stage3.ssim_open <= 0.18 and 0.02 <= stage3.ssim_closed <= 0.18):
        failures.append(f"stage3 ssim {stage3.ssim_open:.3f}/{stage3.ssim_closed:.3f}")
    ssims = [e.ssim_open for e in table] + [e.ssim_closed for e in table]
    kls = [e.kl_open for e in table] + [e.kl_closed for e in table]
    rank_corr = spearman(ssims, kls)
    if rank_corr >= 0:
        failures.append(f"rank correlation {rank_corr:.2f} not negative")

    report(
        "criterion-8 privacy-metrics",
        not failures,
        "; ".join(failures) or f"fixture ranges hold, rank corr {rank_corr:.2f}",
    )


def test_criterion_9_cli_determinism(tmp_path):
    config = tmp_path / "scenario.yaml"
    config.write_text(
        "devices:\n"
        "  - {id: uav1, kind: uav}\n"
        "  - {id: veh1, kind: vehicle}\n"
        "channels:\n"
        "  uav1: {distribution: {bandwidth_hz: [5.0e6, 20.0e6], snr_db: [5.0, 15.0]}}\n"
        "  veh1: {distribution: {bandwidth_hz: [5.0e6, 20.0e6], snr_db: [5.0, 15.0]}}\n"
        "model: {builtin: resnet50_usam, input_h: 224, input_w: 224}\n"
        "optimizer: {agent: actor_critic, steps: 300, seed: 7}\n"
        "retrieval: {locations: 25, dim: 16, seeds: 2}\n"
    )
    corpus = tmp_path / "corpus"
    write_demo_corpus(corpus, seed=3, triples_per_cut=2)
    commands = {
        "profile": ["profile", "--config", str(config)],
        "cost": ["cost", "--config", str(config)],
        "oracle": ["oracle", "--config", str(config)],
        "optimize": ["optimize", "--config", str(config), "--seed", "11"],
        "retrieval-sim": ["retrieval-sim", "--config", str(config)],
        "privacy": ["privacy", str(corpus)],
    }
    unstable = []
    for name, argv in commands.items():
        digests = set()
        for run in range(3):
            out = tmp_path / f"{name}_{run}.csv"
            code = cli_main(argv + ["--out", str(out)])
            if code != 0:
                unstable.append(f"{name} exited {code}")
                break
            digests.add(hashlib.sha256(out.read_bytes()).hexdigest())
        if len(digests) > 1:
            unstable.append(f"{name} hashes differ")
    report(
        "criterion-9 cli-determinism",
        not unstable,
        "; ".join(unstable) or "6 commands x 3 runs hash-identical",
    )
