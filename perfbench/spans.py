"""Span tracing from the benchmark's own process, and per-layer metrics.

``Tracer.install()`` replaces each public function the CLI reaches with a
wrapper, under the name its caller looks up (``splitcvl.cli.load_config``,
``splitcvl.rlopt.env.decision_effect``, the ``PartitionEnv.step`` method,
...), so the program itself is unchanged. A wrapper records one span:
name, start, end, parent span and op id. Spans stay in flat in-memory
arrays and are written once, at the end. A site that a later version of
the program no longer has is skipped, and its layer reports zero calls.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array
from collections import Counter

import numpy as np

ZERO_RATE_REWARD = -1.0  # PartitionEnv's reward when a link has zero rate


def _agent_name(args, kwargs):
    return f"agents.{args[0]}"


def _fusion_name(args, kwargs):
    strategy = args[2] if len(args) > 2 else kwargs.get("strategy")
    return f"retrieval.rank_query_set.{getattr(strategy, 'value', 'mean')}"


def _count_joint_decisions(tracer, args, result):
    scenario = args[0]
    tracer.counters["trico.joint_decisions"] += scenario.num_candidates ** scenario.num_devices


def _count_bytes(tracer, args, result):
    tracer.counters["privmetrics.bytes_read"] += result.width * result.height * result.channels


def _count_clamps(tracer, args, result):
    if result.reward == ZERO_RATE_REWARD:
        tracer.counters["env.zero_rate_clamps"] += 1


# (layer, module, attribute the caller looks up, span-name refinement, post-call counter)
SITES = (
    ("config.load_config", "splitcvl.cli", "load_config", None, None),
    ("trico.decision_effect", "splitcvl.cli", "decision_effect", None, None),
    ("trico.decision_effect", "splitcvl.rlopt.env", "decision_effect", None, None),
    ("trico.scenario_breakdowns", "splitcvl.trico", "scenario_breakdowns", None, None),
    ("trico.brute_force_optimal", "splitcvl.cli", "brute_force_optimal", None,
     _count_joint_decisions),
    ("trico.format_cost_table", "splitcvl.cli", "format_cost_table", None, None),
    ("netmodel.sample_channel", "splitcvl.rlopt.env", "sample_channel", None, None),
    ("env.step", "splitcvl.rlopt.env", "PartitionEnv.step", None, _count_clamps),
    ("env.reset", "splitcvl.rlopt.env", "PartitionEnv.reset", None, None),
    ("agents", "splitcvl.cli", "train_agent", _agent_name, None),
    ("nets.forward", "splitcvl.rlopt.nets", "TinyNet.forward", None, None),
    ("nets.backward", "splitcvl.rlopt.nets", "TinyNet.backward", None, None),
    ("nets.sgd_step", "splitcvl.rlopt.nets", "TinyNet.sgd_step", None, None),
    ("retrieval.synth_gallery", "splitcvl.cli", "synth_gallery", None, None),
    ("retrieval.evaluate_cell", "splitcvl.cli", "evaluate_cell", None, None),
    ("retrieval.rank_query_set", "splitcvl.retrieval", "rank_query_set", _fusion_name, None),
    ("retrieval.format_metrics_table", "splitcvl.cli", "format_metrics_table", None, None),
    ("privmetrics.load_corpus_dir", "splitcvl.privmetrics", "load_corpus_dir", None, None),
    ("privmetrics.read_image", "splitcvl.privmetrics", "read_image", None, _count_bytes),
    ("privmetrics.histogram_of", "splitcvl.privmetrics", "histogram_of", None, None),
    ("privmetrics.kl_divergence", "splitcvl.privmetrics", "kl_divergence", None, None),
    ("privmetrics.ssim", "splitcvl.privmetrics", "ssim", None, None),
    ("privmetrics.build_conf_table", "splitcvl.privmetrics", "build_conf_table", None, None),
)


class Tracer:
    """In-memory span recorder; one instance per traced run."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.op = array("i")
        self.counters: Counter = Counter()
        self.current_op = -1
        self._stack = [-1]
        self._restore: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    def name_id_of(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name_id: int) -> int:
        idx = len(self.name_id)
        self.name_id.append(name_id)
        self.parent.append(self._stack[-1])
        self.op.append(self.current_op)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    def wrap(self, fn, layer: str, refine=None, after=None):
        fixed_id = self.name_id_of(layer)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(fixed_id if refine is None else self.name_id_of(refine(args, kwargs)))
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if after is not None:
                after(self, args, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every site that exists; ``missing`` lists the ones that do not."""
        self.missing = []
        for layer, module_name, attr, refine, after in SITES:
            try:
                owner = importlib.import_module(module_name)
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = getattr(owner, leaf)
            except (ImportError, AttributeError):
                self.missing.append(f"{module_name}.{attr}")
                continue
            self._restore.append((owner, leaf, original))
            setattr(owner, leaf, self.wrap(original, layer, refine, after))

    def uninstall(self) -> None:
        for owner, leaf, original in reversed(self._restore):
            setattr(owner, leaf, original)
        self._restore.clear()

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "start_ns": np.frombuffer(self.start, dtype=np.int64).copy(),
            "end_ns": np.frombuffer(self.end, dtype=np.int64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "op": np.frombuffer(self.op, dtype=np.int32).copy(),
        }

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())


def self_times(duration: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Each span's duration minus the time its direct children cover."""
    has_parent = parent >= 0
    children = np.bincount(
        parent[has_parent], weights=duration[has_parent], minlength=len(duration)
    )
    return duration - children


def layer_metrics(tracer: Tracer, ops: int, agents) -> dict[str, float]:
    """Per-layer metrics of a traced run over ``ops`` ops.

    ``.calls`` is calls per op; ``.us`` and ``.ms`` are mean inclusive time
    per call; ``self_us`` excludes the time of traced callees.
    """
    a = tracer.arrays()
    names = tracer.names
    duration = (a["end_ns"] - a["start_ns"]).astype(np.float64)
    own = self_times(duration, a["parent"])
    ids = a["name_id"]

    def spans(name):
        return ids == names.index(name) if name in names else np.zeros(len(ids), bool)

    def calls(name):
        return int(spans(name).sum())

    def mean_ns(name, values=duration):
        mask = spans(name)
        return float(values[mask].mean()) if mask.any() else 0.0

    per_op = 1.0 / max(ops, 1)
    out = {}
    for layer in ("trico.decision_effect", "trico.scenario_breakdowns",
                  "netmodel.sample_channel", "env.step", "nets.forward"):
        out[f"{layer}.calls"] = calls(layer) * per_op
    for layer in ("trico.decision_effect", "trico.scenario_breakdowns",
                  "netmodel.sample_channel", "env.reset", "nets.forward",
                  "nets.backward", "nets.sgd_step", "privmetrics.read_image",
                  "privmetrics.histogram_of", "privmetrics.kl_divergence",
                  "privmetrics.ssim"):
        out[f"{layer}.us"] = mean_ns(layer) / 1e3
    out["config.load_config_ms"] = mean_ns("config.load_config") / 1e6
    for layer in ("trico.brute_force_optimal",
                  "trico.format_cost_table", "retrieval.synth_gallery",
                  "retrieval.evaluate_cell", "retrieval.format_metrics_table",
                  "privmetrics.load_corpus_dir", "privmetrics.build_conf_table"):
        out[f"{layer}.ms"] = mean_ns(layer) / 1e6
    out["env.step.self_us"] = mean_ns("env.step", own) / 1e3
    out["env.zero_rate_clamps"] = tracer.counters["env.zero_rate_clamps"] * per_op
    out["trico.joint_decisions"] = tracer.counters["trico.joint_decisions"] * per_op
    out["privmetrics.bytes_read"] = tracer.counters["privmetrics.bytes_read"] * per_op
    out["retrieval.rank_query_set.calls"] = per_op * (
        calls("retrieval.rank_query_set.mean") + calls("retrieval.rank_query_set.max_score")
    )
    for fusion in ("mean", "max_score"):
        out[f"retrieval.rank_query_set.us.{fusion}"] = (
            mean_ns(f"retrieval.rank_query_set.{fusion}") / 1e3
        )

    # agent time = the training call minus the env.step/env.reset spans under it
    env_ids = [names.index(n) for n in ("env.step", "env.reset") if n in names]
    step_id = names.index("env.step") if "env.step" in names else -1
    in_env = np.isin(ids, env_ids)
    parent = a["parent"]
    for agent in agents:
        mask = spans(f"agents.{agent}")
        value = 0.0
        if mask.any():
            under = np.isin(parent, np.flatnonzero(mask))
            steps = int(np.sum(under & (ids == step_id)))
            agent_ns = duration[mask].sum() - duration[under & in_env].sum()
            value = agent_ns / max(steps, 1) / 1e3
        out[f"agents.{agent}.self_us_per_step"] = float(value)
    return out
