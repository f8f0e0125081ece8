"""The per-op checks accept the program's real outputs and reject corrupted ones."""

import json
from pathlib import Path

import pytest

import splitcvl.cli as cli
from checks import check_op, parse_cost_table
from inputs import AGENTS, generate
from run import end_to_end, tail
from spans import Tracer, layer_metrics, self_times
from worker import Runner

BENCHMARK = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())


def _outputs(op):
    runner = Runner(cli)
    texts = []
    for argv in op["commands"]:
        text, failure = runner.command(argv)
        assert failure is None, failure
        texts.append(text)
    return texts


@pytest.fixture
def inputs(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return lambda workload: generate(workload, 5, workload)


def test_oracle_decision_one_cut_off_is_rejected(inputs):
    op = inputs("oracle-fleet")["ops"][0]
    cost_text, oracle_text = _outputs(op)
    assert check_op("oracle-fleet", op, [cost_text, oracle_text], {}, 0) is None

    device, rows = parse_cost_table(cost_text)[0]
    decision_line, effect_line = oracle_text.splitlines()
    first, rest = decision_line.split(",", 1)
    chosen = [name for name, _ in rows].index(first.split(":")[1])
    other = rows[chosen - 1 if chosen > 0 else 1][0]
    corrupted = f"decision={device}:{other},{rest}\n{effect_line}\n"
    reason = check_op("oracle-fleet", op, [cost_text, corrupted], {}, 0)
    assert reason and "per-device argmin" in reason


def test_perturbed_retrieval_cell_is_rejected(inputs):
    op = inputs("retrieval-grid")["ops"][1]  # a max_score op
    (text,) = _outputs(op)
    assert check_op("retrieval-grid", op, [text], {}, 3) is None

    lines = text.splitlines()
    fields = lines[4].split(",")  # the cell checked at schedule index 3
    fields[-1] = repr(float(fields[-1]) + 1e-6)
    lines[4] = ",".join(fields)
    reason = check_op("retrieval-grid", op, ["\n".join(lines) + "\n"], {}, 3)
    assert reason and "rank counting" in reason


def test_truncated_trace_is_rejected(inputs):
    manifest = inputs("train")
    op = manifest["ops"][AGENTS.index("q_learning")]
    prep = {"cost_table": _outputs({"commands": [manifest["prep"]["cost_table"]]})[0]}
    (text,) = _outputs(op)
    assert check_op("train", op, [text], prep, 0) is None

    lines = text.splitlines()
    split = next(i for i, line in enumerate(lines) if "=" in line)
    truncated = "\n".join(lines[: split - 1] + lines[split:]) + "\n"
    reason = check_op("train", op, [truncated], prep, 0)
    assert reason and "rows" in reason

    moved = text.replace(",0.3", ",0.4", 1)
    assert check_op("train", op, [moved], prep, 0) is not None


def test_perturbed_privacy_kl_is_rejected(inputs):
    op = inputs("privacy-corpus")["ops"][0]
    (text,) = _outputs(op)
    assert check_op("privacy-corpus", op, [text], {}, 2) is None

    lines = text.splitlines()
    fields = lines[3].split(",")  # cut 2, the one checked at schedule index 2
    fields[1] = repr(float(fields[1]) * (1 + 1e-6))
    lines[3] = ",".join(fields)
    reason = check_op("privacy-corpus", op, ["\n".join(lines) + "\n"], {}, 2)
    assert reason and "independent histograms" in reason


def test_tail_keeps_ten_samples_beyond():
    values = list(range(1, 26))
    assert tail(values) == (15, 60.0, 25)
    assert tail([3.0, 1.0]) == (3.0, 100.0, 2)


def test_self_time_subtracts_direct_children():
    import numpy as np

    duration = np.array([10.0, 4.0, 1.0, 3.0])
    parent = np.array([-1, 0, 1, 0])
    assert self_times(duration, parent).tolist() == [3.0, 3.0, 1.0, 3.0]


def test_reported_metrics_match_benchmark_json():
    layers = layer_metrics(Tracer(), 1, AGENTS)
    assert set(layers) | {"cli.import_s", "trace.overhead_s"} == {
        m["name"] for m in BENCHMARK["per_layer"]
    }
    raw = {"records": [{"latency_s": 0.5, "failure": None, "work": 1, "key": "k"}],
           "pass_walls_s": [0.5], "peak_rss_mb": 10.0}
    metrics, _ = end_to_end("oracle-fleet", raw, [0.3])
    assert set(metrics) == {m["name"] for m in BENCHMARK["end_to_end"]}
