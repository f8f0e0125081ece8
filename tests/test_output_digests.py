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
one-hot to the network input, so the env's ``features`` on the stock
scenario fell from 6 to 4 columns and the networks' shapes, initial weights and traces
changed with it. The tabular agents' state ids, and so their traces,
did not change.

The five trace digests were recorded while episodes could last several
steps and every update bootstrapped from the next state, the bootstrap
multiplied by zero on the stock one-step episodes. They held when the
episode length, the bootstraps, DQN's target net and the unused
next-state fields were deleted: each step still draws the next state's
uniforms, so the random stream is unchanged.

The ``q_learning``, ``multi_q`` and ``dqn`` digests were re-recorded when
the env began to draw its steps a block at a time: those agents now take
their epsilon coin from the row's agent uniform and their explore
actions, table indices and replay batches from a second generator, so
their draws no longer sit between the env's. The ``actor_critic`` and
``ppo`` digests held, because those agents draw nothing but the row's
agent uniform.

The ``privacy`` digest, on a fixed demo corpus, was recorded before the
CLI parser was cached and configs moved to libyaml. The color ``privacy``
digest, on a corpus this module writes byte by byte (3-channel 37x45 PPM
and one 11x9 CSV triple), was recorded before the privacy stage moved
from histogram and image records to plain arrays.

Last-digit float results of numpy and its BLAS (tanh, exp, small matrix
products) can differ between platforms, and the outputs computed with
them. Those digests (the actor-critic, DQN and PPO traces,
``retrieval-sim`` and ``privacy``) are only checked where a fingerprint
of those results matches the recording platform's, or the one this host
gives with OpenBLAS's Haswell kernel and numpy's AVX-512 paths off; every
one of them holds on both. ``cost``, ``oracle`` and the Q-learning and
multi-Q traces use Python floats, libm and elementwise numpy sums and
maxima only, so they are checked on every host. A test reruns every
digest on those AVX2 paths.
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

from helpers import write_color_corpus

CONFIG = Path(__file__).resolve().parents[1] / "configs" / "scenario.yaml"
SEED = "7"

TRACE_DIGESTS = {
    "q_learning": "29db10e1a2c50a2d901de4aacad5ec67cec751a8ebd3e25bb9357cecb8fafa2d",
    "multi_q": "d444c8f8115817ab4d9a3efb6496b65e8bced90d2616a2e517387160dd0080ed",
    "actor_critic": "a6084ce668a36f9210ed6a959d78f6d060686efa268d846e85a8f461d1c6daf3",
    "dqn": "ec9fb9e3e00e59ec5f70f2cd09e38066525790c2c60a69c31d7d7e4a4983d49c",
    "ppo": "ef6493e79877554b7097b723ba99eb1d4f75c43cbd3e6b1c1eefdd1677fdfc88",
}
# keyed "agent-seed" on the stock scenario, and "dqn-rows" for seed 7 on
# 2 bandwidth x 3 SNR bins per device: 36 states, more than a step's 33
# rows, so DQN runs on the step's rows rather than the feature table.
# Recorded before TinyNet folded each bias into its layer's weights.
MORE_TRACE_DIGESTS = {
    "dqn-0": "2b7cd5d492361d06031cddbdbc3042b6f29b9f824634a7adbeefbbae3d1bd320",
    "dqn-123": "9c11b771aeb993f984428df44e775ad923959d0fc7ceb837b18b1ddb1dfd6af8",
    "dqn-rows": "58735505380a672aef33f8dd49d778e9fc77e711b3a9d7212625a4f72e20db58",
    "ppo-0": "f180e8c5e70b4e90278142f8bee9fb132c63bf034b3d4c7ac313c1cae0b34709",
    "ppo-123": "e9d0ce5b008d2e94cdb52524543d4d9657347430f309ccec76d926f46f0524ac",
}
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


# the fingerprint under OpenBLAS's Haswell kernel with numpy's AVX-512 paths
# off; every digest holds there byte for byte
AVX2_PLATFORM_DIGEST = "9e1d6bb95f546ac2be5116e8f0d177ef0ea4653eb3c53e6a1a331d9bf0ecef62"
HOST_FLOATS = platform_floats_digest()
needs_platform = pytest.mark.skipif(
    HOST_FLOATS not in (PLATFORM_DIGEST, AVX2_PLATFORM_DIGEST),
    reason="numpy/BLAS float results differ from both recorded platforms'",
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


@needs_platform
@pytest.mark.parametrize("case", sorted(MORE_TRACE_DIGESTS))
def test_more_optimize_trace_digests(case, tmp_path):
    agent, _, seed = case.partition("-")
    text = CONFIG.read_text().replace("agent: actor_critic", f"agent: {agent}")
    if seed == "rows":
        seed = SEED
        text = text.replace("snr_bins: 2", "bandwidth_bins: 2\n  snr_bins: 3")
    config = tmp_path / "scenario.yaml"
    config.write_text(text)
    out = tmp_path / "trace.csv"
    argv = ["optimize", "--config", str(config), "--seed", seed, "--out", str(out)]
    assert main(argv) == 0
    assert sha256(out) == MORE_TRACE_DIGESTS[case]


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


@needs_platform
def test_color_privacy_digest(tmp_path):
    corpus = tmp_path / "corpus"
    write_color_corpus(corpus)
    out = tmp_path / "conf.csv"
    assert main(["privacy", str(corpus), "--out", str(out)]) == 0
    assert sha256(out) == COLOR_PRIVACY_DIGEST


# every digest test, rerun on the AVX2 paths
AVX2_RERUN = [
    f"{test}[{case}]"
    for test, digests in (("test_optimize_trace_digest", TRACE_DIGESTS),
                          ("test_more_optimize_trace_digests", MORE_TRACE_DIGESTS),
                          ("test_command_digest", COMMAND_DIGESTS),
                          ("test_retrieval_sim_digest", RETRIEVAL_DIGESTS))
    for case in sorted(digests)
] + ["test_privacy_digest", "test_color_privacy_digest"]


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
         *(f"{here}::{t}" for t in AVX2_RERUN)],
        cwd=root, env=env, capture_output=True, text=True, timeout=300,
    )
    assert child.returncode == 0, child.stdout + child.stderr
    assert f"{len(AVX2_RERUN)} passed" in child.stdout, child.stdout
