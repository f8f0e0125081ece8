"""Pinned sha256 digests of CLI outputs on the stock scenario.

Speed-ups must keep every output byte: the same config and seed give the
same trace and the same tables. The digests below were recorded before
the cost model, the environment and the agents were sped up, and the
``retrieval-sim`` ones before its ranking was replaced by rank counting
(Python 3.11, numpy 2.4 with OpenBLAS, x86-64). An intended output change
re-records them and says why.

The ``retrieval-sim`` layout digests (150 locations, dim 32, 3 images
per view, nonzero satellite noise) were recorded before the corpus moved
from per-vector objects to one array draw.

The ``dqn`` and ``ppo`` digests were re-recorded when the battery bins
left the environment state: each device no longer adds a size-1 battery
one-hot to the network input, so ``feature_dim`` on the stock scenario
fell from 6 to 4 and the networks' shapes, initial weights and traces
changed with it. The tabular agents' state ids, and so their traces,
did not change.

On the stock scenario every episode lasts one step, so every sampled
transition is terminal and the DQN target and PPO value bootstraps are
multiplied by zero. The horizon-2 digests (a 2 x 3 bin grid per device,
72 states) and the digest of DQN's final parameters there are the ones
that see those bootstraps. They were recorded before DQN and PPO stopped
running the bootstrap forward on all-terminal batches. The horizon-2
digests of the three tabular agents, whose bootstraps are likewise
multiplied by zero at horizon 1, were recorded before the env's reset and
step moved to precomputed bin tables and the tabular agents' loops were
trimmed.

The ``privacy`` digest, on a fixed demo corpus, was recorded before the
CLI parser was cached and configs moved to libyaml. The color ``privacy``
digest, on a corpus this module writes byte by byte (3-channel 37x45 PPM
and one 11x9 CSV triple), was recorded before the privacy stage moved
from histogram and image records to plain arrays.

Last-digit float results of numpy and its BLAS (tanh, exp, small matrix
products) can differ between platforms, and the outputs computed with
them. Those digests (the actor-critic, DQN and PPO traces, DQN's
parameters, ``retrieval-sim`` and ``privacy``) are only checked where a
fingerprint of those results matches the recording platform's. ``cost``,
``oracle`` and the Q-learning and multi-Q traces use Python floats, libm
and elementwise numpy sums and maxima only, so they are checked on every
host. A test reruns them with another BLAS kernel and numpy's AVX-512
paths off.
"""

import hashlib
import math
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from splitcvl.cli import main
from splitcvl.privmetrics import write_demo_corpus
from splitcvl.rlopt import agents
from splitcvl.rlopt.env import PartitionEnv
from splitcvl.rlopt.nets import TinyNet
from splitcvl.trico import default_scenario

from helpers import flat_params

CONFIG = Path(__file__).resolve().parents[1] / "configs" / "scenario.yaml"
SEED = "7"

TRACE_DIGESTS = {
    "q_learning": "497da70c15ad0042bda79d892851479c56d481f63e5f9c7d556d6837c9fce920",
    "multi_q": "812b2e0da188daeac3a0025a19046f95bdecf88fe10f5329326c260937331a00",
    "actor_critic": "a6084ce668a36f9210ed6a959d78f6d060686efa268d846e85a8f461d1c6daf3",
    "dqn": "3b41ae45d35438bcdc02cc05c25cb47a6e2d6a2cb64b3609b36d32508a018cd2",
    "ppo": "ef6493e79877554b7097b723ba99eb1d4f75c43cbd3e6b1c1eefdd1677fdfc88",
}
HORIZON2_DIGESTS = {
    "q_learning": "cd6d36bee5bfb5b21b083da57818b4f74f4fcb47fbf7d01a7610f0ca882c305b",
    "multi_q": "57bfcad605eacf4aa958473955ef56bbbce7ea721da216c4382f7efc65468b7b",
    "actor_critic": "8c0c96d722460810579bc20d190d1447d678068a068d509c916e78c10090cc27",
    "dqn": "e7677b3549ad885213ffc5bb2b2e3c76f37928dc88fc0365511bcf602956b703",
    "ppo": "74a25c1dd42b9ef2d6afbd56a1ebc3f11f28fb4c9da801ef18fe8accddcf5366",
}
HORIZON2_OPTIMIZER = "  snr_bins: 3\n  bandwidth_bins: 2\n  horizon: 2"
# sha256 of the online net's flat parameters after 1500 DQN steps, seed 7,
# default hyperparameters, on the horizon-2 env above
DQN_HORIZON2_PARAMS_DIGEST = "3b132bc5779886410e489b86984bbdb5c4f1c1261784d944fc271e024f7b723a"
COMMAND_DIGESTS = {
    "cost": "300cb9d48b0f6df7ae25db4e7840120a91fc48227ecec29c353990a1c9b5bd04",
    "oracle": "6bc6be1b8fe24f3a252086aed04b14198f53dc1ab30927479ee74790923434f1",
}
# keyed "[layout-]fusion"; the layout grid (150 locations, dim 32, 3 images
# per view, nonzero satellite noise) pins the per-location draw order:
# prototype, satellite, uav..., ground...
RETRIEVAL_DIGESTS = {
    "max_score": "7d947f3edd9136a1b6a43e84c40f3454763b46362716f530eba44d61266d7966",
    "mean": "dbb6361b54bf26d3b528ebbc9b30322bbbbb3634a428e5b5ad99267ad09b8ca3",
    "layout-max_score": "ce8f7dd1502d5d5dd3f47959b46de68c1b681bc6a2254c56629db0818b5d5992",
    "layout-mean": "a6d40e572af292aa46e3ea4b10405bf246fed343a2b999b197c8ced073e8385b",
}
RETRIEVAL_SECTIONS = {
    "": "{locations: 200, dim: 64, seeds: 2, fusion: %s}",
    "layout": "{locations: 150, dim: 32, images_per_view: 3, seeds: 2, fusion: %s,"
    " noise: {satellite: 0.1, uav: 0.7, ground: 0.4}}",
}
# write_demo_corpus(seed=4, triples_per_cut=3): KL and SSIM per cut
PRIVACY_DIGEST = "e62ea450c093b3d8b6033bafe6e1f65819c902ebc942344aeda1dfc2fb69551a"
# write_color_corpus(): 37x45 RGB PPM triples plus one CSV triple
COLOR_PRIVACY_DIGEST = "0d6e00a6e70edec0739ed4fdd3804f74d07b96bd20839865b1da71b22427fbf1"
PLATFORM_DIGEST = "e493df5eb2425930d9e0a1eff9152ad6a238a42aac2ec1fae4eb2d156ee8982d"


def platform_floats_digest() -> str:
    """Digest of the float results the agents' traces depend on."""
    rng = np.random.default_rng(0)
    x = rng.standard_normal((32, 6))
    w = rng.standard_normal((6, 32))
    v = rng.standard_normal((32, 25))
    h = np.tanh(x @ w)
    arrays = [x[:1] @ w, h, h @ v, h.T @ v, v @ v.T[:, :6], np.exp(v),
              np.log(np.abs(v)), np.log10(np.abs(v))]
    scalars = [math.log2(1.0 + 10.0 ** (d / 10.0)) for d in (5.0, 7.3, 12.9)]
    data = b"".join(a.tobytes() for a in arrays) + repr(scalars).encode()
    return hashlib.sha256(data).hexdigest()


needs_platform = pytest.mark.skipif(
    platform_floats_digest() != PLATFORM_DIGEST,
    reason="numpy/BLAS float results differ from the recording platform's",
)
# agents whose traces depend on numpy transcendentals or BLAS products
PLATFORM_AGENTS = {"actor_critic", "dqn", "ppo"}


def agent_params(digests):
    return [pytest.param(agent, marks=needs_platform) if agent in PLATFORM_AGENTS
            else agent for agent in sorted(digests)]


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("agent", agent_params(TRACE_DIGESTS))
def test_optimize_trace_digest(agent, tmp_path, capsys):
    config = tmp_path / "scenario.yaml"
    config.write_text(
        CONFIG.read_text().replace("agent: actor_critic", f"agent: {agent}")
    )
    out = tmp_path / "trace.csv"
    argv = ["optimize", "--config", str(config), "--seed", SEED, "--out", str(out)]
    assert main(argv) == 0
    assert f"agent={agent}" in capsys.readouterr().out
    assert sha256(out) == TRACE_DIGESTS[agent]


@pytest.mark.parametrize("agent", agent_params(HORIZON2_DIGESTS))
def test_optimize_horizon2_trace_digest(agent, tmp_path, capsys):
    config = tmp_path / "scenario.yaml"
    config.write_text(
        CONFIG.read_text()
        .replace("agent: actor_critic", f"agent: {agent}")
        .replace("  snr_bins: 2", HORIZON2_OPTIMIZER)
    )
    out = tmp_path / "trace.csv"
    argv = ["optimize", "--config", str(config), "--seed", SEED, "--out", str(out)]
    assert main(argv) == 0
    assert f"agent={agent}" in capsys.readouterr().out
    assert sha256(out) == HORIZON2_DIGESTS[agent]


@needs_platform
def test_dqn_horizon2_final_params_digest(monkeypatch):
    created = []

    class RecordingNet(TinyNet):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            created.append(self)

    monkeypatch.setattr(agents, "TinyNet", RecordingNet)
    env = PartitionEnv(default_scenario(), bandwidth_bins=2, snr_bins=3, horizon=2)
    assert env.n_states == 72
    agents.train_agent("dqn", env, 1500, seed=7)
    [net] = created  # the target net is a copy, not a new TinyNet
    digest = hashlib.sha256(flat_params(net).tobytes()).hexdigest()
    assert digest == DQN_HORIZON2_PARAMS_DIGEST


@pytest.mark.parametrize("command", sorted(COMMAND_DIGESTS))
def test_command_digest(command, tmp_path):
    out = tmp_path / f"{command}.csv"
    assert main([command, "--config", str(CONFIG), "--out", str(out)]) == 0
    assert sha256(out) == COMMAND_DIGESTS[command]


@needs_platform
@pytest.mark.parametrize("case", sorted(RETRIEVAL_DIGESTS))
def test_retrieval_sim_digest(case, tmp_path):
    layout, _, fusion = case.rpartition("-")
    config = tmp_path / "retrieval.yaml"
    config.write_text(f"retrieval: {RETRIEVAL_SECTIONS[layout] % fusion}\n")
    out = tmp_path / "grid.csv"
    assert main(["retrieval-sim", "--config", str(config), "--out", str(out)]) == 0
    assert sha256(out) == RETRIEVAL_DIGESTS[case]


@needs_platform
def test_privacy_digest(tmp_path):
    corpus = tmp_path / "corpus"
    write_demo_corpus(corpus, seed=4, triples_per_cut=3)
    out = tmp_path / "conf.csv"
    assert main(["privacy", str(corpus), "--out", str(out)]) == 0
    assert sha256(out) == PRIVACY_DIGEST


def write_color_corpus(root: Path) -> None:
    """Two cuts of 37x45 P6 triples, sides not multiples of the SSIM
    window, and one 11x9 grayscale CSV triple, written without the
    package's image writer."""
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
        text = "".join(",".join(str(v) for v in row) + "\n" for row in values.tolist())
        (root / "1_deep" / f"{role}_csv.csv").write_text(text)


@needs_platform
def test_color_privacy_digest(tmp_path):
    corpus = tmp_path / "corpus"
    write_color_corpus(corpus)
    out = tmp_path / "conf.csv"
    assert main(["privacy", str(corpus), "--out", str(out)]) == 0
    assert sha256(out) == COLOR_PRIVACY_DIGEST


# the digests checked on every host
HOST_FREE = [f"test_command_digest[{c}]" for c in sorted(COMMAND_DIGESTS)] + [
    f"{test}[{agent}]"
    for test in ("test_optimize_trace_digest", "test_optimize_horizon2_trace_digest")
    for agent in sorted(TRACE_DIGESTS) if agent not in PLATFORM_AGENTS
]


@pytest.mark.skipif(platform.machine().lower() not in {"x86_64", "amd64"},
                    reason="emulates the float paths of another x86-64 host")
def test_host_free_digests_hold_on_avx2_paths():
    # OpenBLAS's Haswell kernel and numpy without its AVX-512 paths are
    # what an AVX2 host runs; set for the child process only
    here = Path(__file__).resolve()
    root = here.parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"), OPENBLAS_CORETYPE="Haswell",
               NPY_DISABLE_CPU_FEATURES="X86_V4,AVX512_ICL,AVX512_SPR")
    child = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         *(f"{here}::{t}" for t in HOST_FREE)],
        cwd=root, env=env, capture_output=True, text=True, timeout=300,
    )
    assert child.returncode == 0, child.stdout + child.stderr
    assert f"{len(HOST_FREE)} passed" in child.stdout, child.stdout
