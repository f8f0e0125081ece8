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

All ten ``optimize`` digests were re-recorded when the agents became
factored, one cut per device: the env's rows lost the agent's uniform
and the k channel uniforms that were drawn but never used, each device
learns from its own reward, and every agent draws all of its own
randomness (initial weights included) as uniforms from the generator
spawned from the seed. The traces of seed 7 under ``BLOCK_STEPS`` of 1,
7 and 256 are identical, and all ten digests hold on the AVX2 paths.

The seven DQN and PPO digests were re-recorded when the joint state id
left the env. Each net is now shared by the devices: its input is one
(device, bin) row's one-hot and its output that row's cut values (PPO's
critic: its expected reward), so a device's cut reads its own channel
alone, and each loss is a mean over the rows, whatever the device count.
The nets' shapes, initial weights and traces changed with them.
``dqn-rows`` moved from 2 x 3 bins (12 rows, which DQN now runs as every
row at once) to 6 x 6 bins, so that it still pins the forward on a
step's rows. The stream of uniforms did not change, and the Q-learning,
multi-Q and actor-critic digests held, which also pins their tables'
row numbering. All ten hold on the AVX2 and SSE-baseline paths.

The ``privacy`` digest, on a fixed demo corpus, was recorded before the
CLI parser was cached and configs moved to libyaml. The color ``privacy``
digest, on a corpus this module writes byte by byte (3-channel 37x45 PPM
and one 11x9 grayscale triple), was recorded before the privacy stage
moved from histogram and image records to plain arrays. Its grayscale
triple was a comma-separated matrix then; it held when that format was
deleted and the triple became P5 bytes of the same pixels.

Last-digit float results of numpy and its BLAS (tanh, exp, small matrix
products) can differ between platforms, and the outputs computed with
them (the DQN and PPO traces, ``retrieval-sim`` and ``privacy``). Every
digest is checked on every host: each holds where it was recorded (AVX-512
numpy, OpenBLAS with ``DYNAMIC_ARCH``), and a test reruns every one on two
other x86-64 float paths, OpenBLAS's Haswell and Nehalem kernels with
numpy's newer CPU features off. A mismatch names this host's fingerprint
of those float results beside the recorded ones, so that a platform
difference tells itself apart from a changed output.

The ``infeasible`` traces run the stock config with a link too slow for
the largest payload in some steps. They were recorded while the env still
marked such a step as None and each agent put 1.0 in its place; they held
when the env began to write those 1.0 effects itself.

The ``optimize`` summary digests (stdout of the stock and ``infeasible``
trace runs) were recorded while the summary still scored its decision with
a per-decision effect function; they held when it began to read the
decision's effect from the mean-channel effect table.
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
    "q_learning": "a82749e30e85e30369b131691509f5de4f2d491801ff750c18ef1f1d5f5d8d7b",
    "multi_q": "8782a4416e00dc67a13103b906f98f5e07d4f9eab0e79d0e15f38be7c4470040",
    "actor_critic": "b91208f243e072551e93871ce1cee334b83ee16a848ef00e9b8ea1215ef6b4ef",
    "dqn": "be3cf0b168bc4a9215effbe90a3b71ad729aa1a0b5fd5fea15f0d9e027a96094",
    "ppo": "d8b2b91dcbeb7682d1497e4af3f085f792e697cb03a66910f69a64a66626f78c",
}
# keyed "agent-seed" on the stock scenario, and "dqn-rows" for seed 7 on
# 6 bandwidth x 6 SNR bins per device: 72 rows, more than a step's 2 x 33,
# so DQN runs on the step's rows rather than on every row.
MORE_TRACE_DIGESTS = {
    "dqn-0": "3baeea8db1912e1541119ad6d4f432abbcf82f162371993a4643537a02f1c799",
    "dqn-123": "afd1ec9656451e9954d89a657951f99f559836ba5c34229b3938e57baafda1b1",
    "dqn-rows": "7bdda03423c6ab9a972f70c65845440a4b84c568e40cd2ffe5a543ea825b5ee4",
    "ppo-0": "cdf6b8298c85c7c673dec0334ae3c7bf09572964ffe3b425db539f964167e032",
    "ppo-123": "7d7ab4a88f59cf8c8d52730fdf19335a81469fce4126e5c388eae27504f2c79a",
}
# seed 7 on the stock config with uav1's bandwidth at 1e-302 to 4e-300 Hz:
# its rate then falls below the largest payload's limit in 19 of the 3000
# steps, which the env scores as infeasible, 1.0 for every device and cut
INFEASIBLE_TRACE_DIGESTS = {
    "actor_critic": "faf1c2483fa5d67e3c770350af2cfdf0d543d3c1a209276bac6d2d842ca46799",
    "dqn": "b96801bc37f1adbf383b3dab1bd64e37fa12d3e03f9a960995179845c5effc90",
    "multi_q": "dd2896bf5bdc789a6d5d81365027e14c409669ff22d839ec57dc4efdcc1f2384",
    "ppo": "7488f59ce78f7380f85e392820af186b4f9e0f70a8d4c14bd31294e130c0b0a8",
    "q_learning": "376a5ce8bb11e8d69209ead14cab88a15893e95f2362faee59b983ed1af5e8b2",
}
# stdout of the runs above: agent, decision, effect, oracle effect, gap
SUMMARY_DIGESTS = {
    "actor_critic": "67bd09887c154d674df52027020be4a9bab86627dd6d94eb0481693c106cd52e",
    "dqn": "bd4a7984f6aa23b5094c75bfd5a828c26b1c0d48b56d5c2d5786bde72176f2e7",
    "multi_q": "243aa4cbc5318f484a1e304f4035ac75e1a15997317498fbe28336b538eadf80",
    "ppo": "110046bb2a02a22f5688ca481a0c8252d5fb209e7b66b7ff5ef6e5bd4c6dd156",
    "q_learning": "023156fceb810176c5dcc1e4406bd76b76e6c5f4a0d30a84276f5434a25f2955",
}
INFEASIBLE_SUMMARY_DIGESTS = {
    "actor_critic": "f0080a02519e54742ae393a31eb75dd5bef796a7f97e85524f27e1f036bc54a5",
    "dqn": "bd4a7984f6aa23b5094c75bfd5a828c26b1c0d48b56d5c2d5786bde72176f2e7",
    "multi_q": "243aa4cbc5318f484a1e304f4035ac75e1a15997317498fbe28336b538eadf80",
    "ppo": "110046bb2a02a22f5688ca481a0c8252d5fb209e7b66b7ff5ef6e5bd4c6dd156",
    "q_learning": "023156fceb810176c5dcc1e4406bd76b76e6c5f4a0d30a84276f5434a25f2955",
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
# write_color_corpus(): 37x45 RGB PPM triples plus one 11x9 PGM triple
COLOR_PRIVACY_DIGEST = "0d6e00a6e70edec0739ed4fdd3804f74d07b96bd20839865b1da71b22427fbf1"


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


# platform_floats_digest() on the host the digests were recorded on
RECORDING_FLOATS = "e493df5eb2425930d9e0a1eff9152ad6a238a42aac2ec1fae4eb2d156ee8982d"
# the child environments of two other x86-64 float paths, with the
# fingerprint each gives on the recording host, which proves that a child
# took its path. "avx2" is OpenBLAS's Haswell kernel with numpy's AVX-512
# paths off, "sse" OpenBLAS's Nehalem kernel with numpy's AVX2 paths off too.
FLOAT_PATHS = {
    "avx2": ({"OPENBLAS_CORETYPE": "Haswell",
              "NPY_DISABLE_CPU_FEATURES": "X86_V4,AVX512_ICL,AVX512_SPR"},
             "9e1d6bb95f546ac2be5116e8f0d177ef0ea4653eb3c53e6a1a331d9bf0ecef62"),
    "sse": ({"OPENBLAS_CORETYPE": "Nehalem",
             "NPY_DISABLE_CPU_FEATURES": "X86_V3,X86_V4,AVX512_ICL,AVX512_SPR"},
            "a5bbc7dc3baa48e167fe5a2edde888997ee2ed6b45a021ba04477b253d8f2217"),
}


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def assert_digest(path: Path, expected: str) -> None:
    """The file's sha256 is ``expected``; a mismatch names this host's
    float fingerprint beside the recorded ones."""
    recorded = {"recording host": RECORDING_FLOATS,
                **{name: digest for name, (_, digest) in FLOAT_PATHS.items()}}
    assert sha256(path) == expected, (
        f"{path.name}: sha256 differs; this host's platform_floats_digest() is "
        f"{platform_floats_digest()}, recorded: {recorded}")


@pytest.mark.parametrize("agent", sorted(TRACE_DIGESTS))
def test_optimize_trace_digest(agent, tmp_path, capsys):
    config = tmp_path / "scenario.yaml"
    config.write_text(
        CONFIG.read_text().replace("agent: actor_critic", f"agent: {agent}")
    )
    out = tmp_path / "trace.csv"
    argv = ["optimize", "--config", str(config), "--seed", SEED, "--out", str(out)]
    assert main(argv) == 0
    summary = tmp_path / "stdout.txt"
    summary.write_text(capsys.readouterr().out)
    assert f"agent={agent}" in summary.read_text()
    assert_digest(out, TRACE_DIGESTS[agent])
    assert_digest(summary, SUMMARY_DIGESTS[agent])


@pytest.mark.parametrize("case", sorted(MORE_TRACE_DIGESTS))
def test_more_optimize_trace_digests(case, tmp_path):
    agent, _, seed = case.partition("-")
    text = CONFIG.read_text().replace("agent: actor_critic", f"agent: {agent}")
    if seed == "rows":
        seed = SEED
        text = text.replace("snr_bins: 2", "bandwidth_bins: 6\n  snr_bins: 6")
    config = tmp_path / "scenario.yaml"
    config.write_text(text)
    out = tmp_path / "trace.csv"
    argv = ["optimize", "--config", str(config), "--seed", seed, "--out", str(out)]
    assert main(argv) == 0
    assert_digest(out, MORE_TRACE_DIGESTS[case])


@pytest.mark.parametrize("agent", sorted(INFEASIBLE_TRACE_DIGESTS))
def test_infeasible_link_trace_digest(agent, tmp_path, capsys):
    text = CONFIG.read_text().replace("agent: actor_critic", f"agent: {agent}")
    uav1 = "  uav1:\n    distribution: {bandwidth_hz: "
    config = tmp_path / "scenario.yaml"
    config.write_text(text.replace(uav1 + "[5.0e6, 20.0e6]", uav1 + "[1.0e-302, 4.0e-300]"))
    out = tmp_path / "trace.csv"
    argv = ["optimize", "--config", str(config), "--seed", SEED, "--out", str(out)]
    assert main(argv) == 0
    # an infeasible step scores exactly 1.0, a feasible one less: both occur
    effects = [float(line.split(",")[1]) for line in out.read_text().splitlines()[1:]]
    assert effects.count(1.0) == 19 < len(effects) == 3000
    assert_digest(out, INFEASIBLE_TRACE_DIGESTS[agent])
    summary = tmp_path / "stdout.txt"
    summary.write_text(capsys.readouterr().out)
    assert_digest(summary, INFEASIBLE_SUMMARY_DIGESTS[agent])


@pytest.mark.parametrize("command", sorted(COMMAND_DIGESTS))
def test_command_digest(command, tmp_path):
    out = tmp_path / f"{command}.csv"
    assert main([command, "--config", str(CONFIG), "--out", str(out)]) == 0
    assert_digest(out, COMMAND_DIGESTS[command])


@pytest.mark.parametrize("case", sorted(RETRIEVAL_DIGESTS))
def test_retrieval_sim_digest(case, tmp_path):
    layout, _, fusion = case.rpartition("-")
    config = tmp_path / "retrieval.yaml"
    config.write_text(f"retrieval: {RETRIEVAL_SECTIONS[layout] % fusion}\n")
    out = tmp_path / "grid.csv"
    assert main(["retrieval-sim", "--config", str(config), "--out", str(out)]) == 0
    assert_digest(out, RETRIEVAL_DIGESTS[case])


def test_privacy_digest(tmp_path):
    corpus = tmp_path / "corpus"
    write_demo_corpus(corpus, seed=4, triples_per_cut=3)
    out = tmp_path / "conf.csv"
    assert main(["privacy", str(corpus), "--out", str(out)]) == 0
    assert_digest(out, PRIVACY_DIGEST)


def test_color_privacy_digest(tmp_path):
    corpus = tmp_path / "corpus"
    write_color_corpus(corpus)
    out = tmp_path / "conf.csv"
    assert main(["privacy", str(corpus), "--out", str(out)]) == 0
    assert_digest(out, COLOR_PRIVACY_DIGEST)


# every digest test, rerun on each of FLOAT_PATHS
RERUN = [
    f"{test}[{case}]"
    for test, digests in (("test_optimize_trace_digest", TRACE_DIGESTS),
                          ("test_more_optimize_trace_digests", MORE_TRACE_DIGESTS),
                          ("test_infeasible_link_trace_digest", INFEASIBLE_TRACE_DIGESTS),
                          ("test_command_digest", COMMAND_DIGESTS),
                          ("test_retrieval_sim_digest", RETRIEVAL_DIGESTS))
    for case in sorted(digests)
] + ["test_privacy_digest", "test_color_privacy_digest"]


@pytest.mark.skipif(platform.machine().lower() not in {"x86_64", "amd64"},
                    reason="emulates the float paths of other x86-64 hosts")
@pytest.mark.parametrize("float_path", sorted(FLOAT_PATHS))
def test_host_free_digests_hold_on_other_float_paths(float_path):
    # the BLAS kernel and numpy CPU features of an older host, set for the
    # child process only; its fingerprint proves the child took that path
    here = Path(__file__).resolve()
    root = here.parents[1]
    variables, fingerprint = FLOAT_PATHS[float_path]
    env = dict(os.environ, PYTHONPATH=str(root / "src"), **variables)
    child = subprocess.run(
        [sys.executable, "-c", "from test_output_digests import platform_floats_digest as f;"
         " print(f())"],
        cwd=root, env=dict(env, PYTHONPATH=f"{env['PYTHONPATH']}{os.pathsep}{here.parent}"),
        capture_output=True, text=True, timeout=60,
    )
    assert child.stdout.strip() == fingerprint, child.stdout + child.stderr
    child = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         *(f"{here}::{t}" for t in RERUN)],
        cwd=root, env=env, capture_output=True, text=True, timeout=300,
    )
    assert child.returncode == 0, child.stdout + child.stderr
    assert f"{len(RERUN)} passed" in child.stdout, child.stdout
