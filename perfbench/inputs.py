"""Seeded input generators for the four benchmark workloads.

``generate(workload, seed, out_dir)`` writes every config and corpus file
a workload needs into ``out_dir`` and returns its manifest: the list of
ops (each one or more ``splitcvl`` command lines run in order), the
commands to run once before timing, and how much work one op does. The
same seed gives byte-identical files and an identical manifest; nothing
here imports splitcvl, so the program only ever sees the generated files.

Every workload keeps its per-op cost independent of the seed (fixed step
counts, fleet sizes, gallery sizes and image sizes), so runs at different
seeds measure the same amount of work.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import numpy as np

WORKLOADS = ("train", "oracle-fleet", "retrieval-grid", "privacy-corpus")

# What one unit of throughput is on each workload; the benchmark reports
# it as throughput_per_s and prints it under this name.
THROUGHPUT_NAMES = {
    "train": "env_steps_per_s",
    "oracle-fleet": "oracle_solves_per_s",
    "retrieval-grid": "queries_per_s",
    "privacy-corpus": "pairs_per_s",
}

AGENTS = ("q_learning", "multi_q", "actor_critic", "dqn", "ppo")
TRAIN_STEPS = 3000

FLEET_COUNT = 4
FLEET_DEVICES = 8
CANDIDATES = 5

RETRIEVAL_LOCATIONS = 200
RETRIEVAL_DIM = 64
RETRIEVAL_IMAGES = 4
RETRIEVAL_SEEDS_PER_PASS = 2
FUSIONS = ("mean", "max_score")

CORPUS_TRIPLES_PER_CUT = 16
CORPUS_SIZE = 128
# (cut directory, share of pixels replaced by noise in the open-box and
# closed-box reconstructions); deeper cuts reconstruct worse
CORPUS_CUTS = (
    ("0_conv1", 0.01, 0.02),
    ("1_usam1", 0.08, 0.10),
    ("2_stage2", 0.30, 0.25),
    ("3_stage3", 0.80, 0.60),
    ("4_stage4", 1.00, 0.95),
)

# The stock two-device scenario (configs/scenario.yaml), kept here so a
# change to the repository's example config does not change the workload.
STOCK_SCENARIO = """\
devices:
  - {{id: uav1, kind: uav}}
  - {{id: veh1, kind: vehicle}}
channels:
  uav1:
    distribution: {{bandwidth_hz: [5.0e6, 20.0e6], snr_db: [5.0, 15.0]}}
  veh1:
    distribution: {{bandwidth_hz: [5.0e6, 20.0e6], snr_db: [5.0, 15.0]}}
model:
  builtin: resnet50_usam
  input_h: 224
  input_w: 224
confidentiality:
  table:
    - {{kl_open: 0.5, kl_closed: 0.5}}
    - {{kl_open: 1.0, kl_closed: 1.0}}
    - {{kl_open: 2.0, kl_closed: 2.0}}
    - {{kl_open: 4.0, kl_closed: 4.0}}
    - {{kl_open: 8.0, kl_closed: 8.0}}
weights:
  w_comm: 0.3333333333333333
  w_comp: 0.3333333333333333
  w_conf: 0.3333333333333334
  alpha_open: 0.5
  lambda_latency: 0.5
optimizer:
  agent: {agent}
  steps: {steps}
  seed: 7
  snr_bins: 2
"""


def _rng(seed: int, tag: str) -> random.Random:
    # str seeds hash through sha512, so this is stable across runs and platforms
    return random.Random(f"{seed}:{tag}")


def _num(x: float) -> str:
    """Fixed-point decimal; YAML 1.1 reads some exponent forms as strings."""
    return f"{x:.6f}"


def _op(key: str, commands: list[list[str]], work: int, **meta) -> dict:
    return {"key": key, "commands": commands, "work": work, "meta": meta}


def _gen_train(seed: int, out: Path) -> dict:
    rng = _rng(seed, "train")
    ops, configs = [], {}
    for agent in AGENTS:
        path = out / f"train_{agent}.yaml"
        path.write_text(STOCK_SCENARIO.format(agent=agent, steps=TRAIN_STEPS))
        configs[agent] = str(path)
        agent_seed = rng.randrange(1, 2**31)
        ops.append(_op(
            f"optimize-{agent}",
            [["optimize", "--config", str(path), "--seed", str(agent_seed), "--jobs", "1"]],
            TRAIN_STEPS, agent=agent, steps=TRAIN_STEPS,
        ))
    # the cost table of the stock scenario, for the oracle_effect check
    prep = {"cost_table": ["cost", "--config", configs[AGENTS[0]], "--jobs", "1"]}
    return {"ops": ops, "prep": prep}


def fleet_yaml(rng: random.Random) -> str:
    """One 8-device fleet: mixed kinds and channel types, random tx power,
    a random monotone KL table and random weights."""
    lines = ["devices:"]
    ids = []
    for i in range(FLEET_DEVICES):
        kind = rng.choice(("uav", "vehicle"))
        dev_id = f"{kind}{i}"
        ids.append(dev_id)
        lines.append(
            f"  - {{id: {dev_id}, kind: {kind}, "
            f"tx_power_w: {_num(rng.uniform(0.5, 3.0))}}}"
        )
    lines.append("channels:")
    for dev_id in ids:
        if rng.random() < 0.5:
            bw, snr = rng.uniform(2e6, 20e6), rng.uniform(0.0, 20.0)
            lines.append(
                f"  {dev_id}: {{fixed: {{bandwidth_hz: {_num(bw)}, snr_db: {_num(snr)}}}}}"
            )
        else:
            bw_lo = rng.uniform(2e6, 10e6)
            bw_hi = bw_lo + rng.uniform(1e6, 15e6)
            db_lo = rng.uniform(0.0, 10.0)
            db_hi = db_lo + rng.uniform(1.0, 10.0)
            lines.append(
                f"  {dev_id}: {{distribution: {{bandwidth_hz: [{_num(bw_lo)}, {_num(bw_hi)}], "
                f"snr_db: [{_num(db_lo)}, {_num(db_hi)}]}}}}"
            )
    lines += [
        "model: {builtin: resnet50_usam, input_h: 224, input_w: 224}",
        "confidentiality:",
        "  table:",
    ]
    kl_open = kl_closed = 0.0
    for _ in range(CANDIDATES):
        kl_open += rng.uniform(0.05, 2.0)
        kl_closed += rng.uniform(0.05, 2.0)
        lines.append(f"    - {{kl_open: {_num(kl_open)}, kl_closed: {_num(kl_closed)}}}")
    raw = [rng.uniform(0.1, 1.0) for _ in range(3)]
    w_comm = round(raw[0] / sum(raw), 6)
    w_comp = round(raw[1] / sum(raw), 6)
    lines += [
        "weights:",
        f"  w_comm: {_num(w_comm)}",
        f"  w_comp: {_num(w_comp)}",
        f"  w_conf: {_num(1.0 - w_comm - w_comp)}",
        f"  alpha_open: {_num(rng.uniform(0.0, 1.0))}",
        f"  lambda_latency: {_num(rng.uniform(0.0, 1.0))}",
    ]
    return "\n".join(lines) + "\n"


def _gen_oracle_fleet(seed: int, out: Path) -> dict:
    rng = _rng(seed, "oracle-fleet")
    ops = []
    for j in range(FLEET_COUNT):
        path = out / f"fleet{j}.yaml"
        path.write_text(fleet_yaml(rng))
        ops.append(_op(
            f"fleet{j}",
            [["cost", "--config", str(path), "--jobs", "1"],
             ["oracle", "--config", str(path), "--jobs", "1"]],
            1, devices=FLEET_DEVICES, candidates=CANDIDATES,
        ))
    return {"ops": ops, "prep": {}}


def _gen_retrieval_grid(seed: int, out: Path) -> dict:
    rng = _rng(seed, "retrieval-grid")
    paths = {}
    for fusion in FUSIONS:
        path = out / f"retrieval_{fusion}.yaml"
        path.write_text(
            "retrieval:\n"
            f"  locations: {RETRIEVAL_LOCATIONS}\n"
            f"  dim: {RETRIEVAL_DIM}\n"
            "  seeds: 1\n"
            f"  images_per_view: {RETRIEVAL_IMAGES}\n"
            "  noise: {satellite: 0.0, uav: 0.5, ground: 0.5}\n"
            f"  fusion: {fusion}\n"
        )
        paths[fusion] = str(path)
    queries = RETRIEVAL_LOCATIONS * RETRIEVAL_IMAGES * RETRIEVAL_IMAGES
    ops = []
    for _ in range(RETRIEVAL_SEEDS_PER_PASS):
        gallery_seed = rng.randrange(0, 2**31)
        for fusion in FUSIONS:  # alternate fusions op by op
            ops.append(_op(
                f"{fusion}-{gallery_seed}",
                [["retrieval-sim", "--config", paths[fusion],
                  "--seed", str(gallery_seed), "--jobs", "1"]],
                queries, fusion=fusion, seeds=[gallery_seed],
                locations=RETRIEVAL_LOCATIONS, dim=RETRIEVAL_DIM,
                images_per_view=RETRIEVAL_IMAGES,
                noise={"satellite": 0.0, "uav": 0.5, "ground": 0.5},
            ))
    return {"ops": ops, "prep": {}}


def write_pgm(path: Path, pixels: np.ndarray) -> None:
    height, width = pixels.shape
    path.write_bytes(f"P5 {width} {height} 255\n".encode() + pixels.tobytes())


def _original(rng: np.random.Generator) -> np.ndarray:
    """Quantized diagonal ramp with a few flat disks, so histograms stay peaked."""
    size = CORPUS_SIZE
    yy, xx = np.mgrid[0:size, 0:size]
    base = 40.0 + 170.0 * (xx + yy) / (2 * size - 2)
    for _ in range(4):
        cx, cy = rng.integers(8, size - 8, size=2)
        radius = int(rng.integers(6, size // 3))
        base[(xx - cx) ** 2 + (yy - cy) ** 2 <= radius**2] = float(rng.integers(10, 245))
    return np.clip(np.round(base / 32.0) * 32.0, 0, 255).astype(np.uint8)


def _corrupt(img: np.ndarray, share: float, rng: np.random.Generator) -> np.ndarray:
    noise = rng.integers(0, 256, size=img.shape, dtype=np.uint8)
    return np.where(rng.random(img.shape) < share, noise, img).astype(np.uint8)


def _gen_privacy_corpus(seed: int, out: Path) -> dict:
    rng = np.random.default_rng([seed, 0x5EC])
    root = out / "corpus"
    originals = [_original(rng) for _ in range(CORPUS_TRIPLES_PER_CUT)]
    for cut, share_open, share_closed in CORPUS_CUTS:
        cut_dir = root / cut
        cut_dir.mkdir(parents=True)
        for i, orig in enumerate(originals):
            write_pgm(cut_dir / f"orig_{i:03d}.pgm", orig)
            write_pgm(cut_dir / f"open_{i:03d}.pgm", _corrupt(orig, share_open, rng))
            write_pgm(cut_dir / f"closed_{i:03d}.pgm", _corrupt(orig, share_closed, rng))
    pairs = 2 * CORPUS_TRIPLES_PER_CUT * len(CORPUS_CUTS)
    ops = [_op(
        "privacy",
        [["privacy", str(root), "--jobs", "1"]],
        pairs, corpus=str(root), cuts=[c for c, _, _ in CORPUS_CUTS],
    )]
    return {"ops": ops, "prep": {}}


_GENERATORS = {
    "train": _gen_train,
    "oracle-fleet": _gen_oracle_fleet,
    "retrieval-grid": _gen_retrieval_grid,
    "privacy-corpus": _gen_privacy_corpus,
}


def generate(workload: str, seed: int, out_dir) -> dict:
    """Write the workload's inputs under ``out_dir`` and return its manifest.

    ``out_dir`` must not exist yet; paths in the manifest are given as
    ``out_dir`` was, so a relative ``out_dir`` yields relative paths.
    """
    if workload not in _GENERATORS:
        raise ValueError(f"unknown workload {workload!r}; choose one of {WORKLOADS}")
    out = Path(out_dir)
    out.mkdir(parents=True)
    manifest = {"workload": workload, "seed": seed, **_GENERATORS[workload](seed, out)}
    (out / "manifest.json").write_text(json.dumps(manifest, indent=1, sort_keys=True))
    return manifest
