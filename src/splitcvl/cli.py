"""Command-line front end.

Subcommands: profile | cost | optimize | oracle | retrieval-sim | privacy.
All numeric output uses shortest round-trip decimal formatting and every
command is deterministic given the config bytes and seed, so re-runs
produce byte-identical files.

Exit codes: 0 on success, 2 for configuration or input errors, 3 for
runtime infeasibility (a link whose rate is zero or too low to carry the
payload). Diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import math
import sys

from .config import RetrievalConfig, ScenarioConfig, load_config
from .errors import ConfigError, SplitCVLError, ZeroRateError
from .nnprofile import device_flops, intermediate_bytes
from .retrieval import (
    FusionStrategy,
    METRIC_NAMES,
    evaluate_cells,
    format_metrics_table,
    synth_corpus,
)
from .rlopt.agents import train_agent
from .rlopt.env import PartitionEnv
from .trico import (
    decision_effect,
    format_conf_table,
    format_cost_table,
    optimal_decision,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3


def _write_output(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", newline="") as fh:
            fh.write(text)


def _require_scenario(config: ScenarioConfig):
    if config.scenario is None:
        raise ConfigError("this command needs devices/channels/model sections")
    return config.scenario


def _decision_text(scenario, cuts: tuple[int, ...]) -> str:
    return ",".join(
        f"{dev.id}:{scenario.profile.cut_name(cut)}"
        for dev, cut in zip(scenario.devices, cuts)
    )


def cmd_profile(config: ScenarioConfig, args) -> int:
    if config.profile is None:
        raise ConfigError("profile command needs a 'model' section")
    profile = config.profile
    lines = ["cut_name,device_flops,intermediate_bytes"]
    for c in range(profile.num_candidates):
        lines.append(
            f"{profile.cut_name(c)},{device_flops(profile, c)},"
            f"{intermediate_bytes(profile, c)}"
        )
    _write_output("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def cmd_cost(config: ScenarioConfig, args) -> int:
    scenario = _require_scenario(config)
    _write_output(format_cost_table(scenario), args.out)
    return EXIT_OK


def cmd_oracle(config: ScenarioConfig, args) -> int:
    scenario = _require_scenario(config)
    cuts, effect = optimal_decision(scenario)
    text = (
        f"decision={_decision_text(scenario, cuts)}\n"
        f"effect={effect!r}\n"
    )
    _write_output(text, args.out)
    return EXIT_OK


def cmd_optimize(config: ScenarioConfig, args) -> int:
    scenario = _require_scenario(config)
    opt = config.optimizer
    seed = args.seed if args.seed is not None else opt.seed
    # the env's cap on channel bins bounds RL only; cost and oracle have none
    try:
        env = PartitionEnv(
            scenario, bandwidth_bins=opt.bandwidth_bins, snr_bins=opt.snr_bins
        )
    except ValueError as exc:
        raise ConfigError(f"optimizer: {exc}") from None
    policy, trace = train_agent(opt.agent, env, opt.steps, hyper=opt.hyper, seed=seed)
    _write_output(trace.to_csv(), args.out)

    # each device's bin 0, the bin the summary has always scored
    cuts = policy.action(env.first_rows)
    try:
        effect = decision_effect(scenario, cuts)
        _, oracle_effect = optimal_decision(scenario)
        gap = (effect - oracle_effect) / oracle_effect if oracle_effect > 0 else effect
    except ZeroRateError:
        # every decision is infeasible there; score it 1.0, the worst
        # effect, and leave the gap undefined: there is no optimum to approach
        print("warning: a link has zero rate at the mean channel; effect and "
              "oracle_effect read 1.0, the score of an infeasible decision, "
              "and gap is nan", file=sys.stderr)
        effect = oracle_effect = 1.0
        gap = math.nan
    summary = [
        f"agent={opt.agent}",
        f"steps={opt.steps}",
        f"seed={seed}",
        f"trained={'yes' if opt.steps > 0 else 'no'}",
        f"decision={_decision_text(scenario, cuts)}",
        f"effect={effect!r}",
        f"oracle_effect={oracle_effect!r}",
        f"gap={gap!r}",
    ]
    if len(trace) > 0:
        summary.append(f"final_moving_avg={trace.final_moving_avg!r}")
    sys.stdout.write("\n".join(summary) + "\n")
    return EXIT_OK


def _retrieval_seed_worker(ret: RetrievalConfig, seed: int) -> list[dict]:
    """One seed's cell metrics in (uav, ground) order; top-level so process
    pools can pickle it."""
    corpus = synth_corpus(
        ret.locations, ret.dim, ret.view_noise, seed=seed,
        images_per_view=ret.images_per_view,
    )
    counts = range(1, ret.images_per_view + 1)
    return evaluate_cells(
        corpus, list(itertools.product(counts, counts)), FusionStrategy(ret.fusion)
    )


def retrieval_grid(ret: RetrievalConfig, base_seed: int, jobs: int = 1) -> list[dict]:
    """Cell metrics averaged over ``ret.seeds`` gallery seeds counted from
    ``base_seed``; rows ordered by (uav, ground)."""
    seeds = range(base_seed, base_seed + ret.seeds)
    if jobs > 1:
        # imported here: the pool's module costs every other command import time
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            per_seed = list(pool.map(_retrieval_seed_worker, [ret] * len(seeds), seeds))
    else:
        per_seed = [_retrieval_seed_worker(ret, seed) for seed in seeds]
    counts = range(1, ret.images_per_view + 1)
    rows = []
    for (u, g), cells in zip(itertools.product(counts, counts), zip(*per_seed)):
        row = {"uav_images": u, "ground_images": g}
        for name in METRIC_NAMES:
            row[name] = sum(cell[name] for cell in cells) / len(cells)
        rows.append(row)
    return rows


def cmd_retrieval_sim(config: ScenarioConfig, args) -> int:
    ret = config.retrieval
    base_seed = args.seed if args.seed is not None else ret.seed
    rows = retrieval_grid(ret, base_seed, args.jobs)
    _write_output(format_metrics_table(rows), args.out)
    return EXIT_OK


def cmd_privacy(args) -> int:
    from .privmetrics import build_conf_table, load_corpus_dir

    corpus = load_corpus_dir(args.corpus_dir)
    table = build_conf_table(corpus)
    names = [name for name, _ in corpus]
    _write_output(format_conf_table(table, names), args.out)
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Reports a flag error in one ``error:`` line, as config errors are."""

    def error(self, message):
        self.exit(EXIT_CONFIG, f"error: {message}\n")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process; parse_args keeps no state
    between calls, so in-process callers of ``main`` share it."""
    parser = _Parser(
        prog="splitcvl",
        description=(
            "Cost-model simulator and optimizer for split-inference "
            "cross-view localization"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add_common(p, needs_config=True):
        if needs_config:
            p.add_argument("--config", required=True, help="scenario YAML path")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config's seed")
        p.add_argument("--out", default=None,
                       help="output file (default: stdout)")
        p.add_argument("--jobs", type=int, default=1,
                       help="parallel workers across retrieval-sim seeds (never "
                            "within a run); the other commands ignore it")

    add_common(sub.add_parser("profile", help="per-cut device FLOPs and bytes"))
    add_common(sub.add_parser("cost", help="per-device, per-cut cost table"))
    add_common(sub.add_parser("optimize", help="train an agent, write its trace"))
    add_common(sub.add_parser("oracle", help="exact optimal decision"))
    add_common(sub.add_parser("retrieval-sim", help="synthetic matching grid"))
    privacy = sub.add_parser("privacy", help="confidentiality table from a corpus")
    privacy.add_argument("corpus_dir", help="reconstruction corpus directory")
    add_common(privacy, needs_config=False)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.jobs < 1:
        parser.error(f"argument --jobs: must be >= 1, got {args.jobs}")
    if args.seed is not None and args.seed < 0:
        parser.error(f"argument --seed: must be >= 0, got {args.seed}")
    try:
        if args.command == "privacy":
            return cmd_privacy(args)
        config = load_config(args.config)
        if args.command == "profile":
            return cmd_profile(config, args)
        if args.command == "cost":
            return cmd_cost(config, args)
        if args.command == "optimize":
            return cmd_optimize(config, args)
        if args.command == "oracle":
            return cmd_oracle(config, args)
        if args.command == "retrieval-sim":
            return cmd_retrieval_sim(config, args)
        raise AssertionError(f"unhandled command {args.command}")
    except ZeroRateError as exc:
        print(f"error: infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (ConfigError, SplitCVLError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
