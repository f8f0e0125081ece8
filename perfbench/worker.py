"""One benchmark run in a fresh interpreter: a single-client closed loop.

    python3 perfbench/worker.py --probe
    python3 perfbench/worker.py --manifest M --seconds S --trace 0|1 --result R

Both forms import ``splitcvl.cli`` first and print
``ready <import seconds> <CLOCK_MONOTONIC at ready>`` so the parent can
time interpreter start plus import. ``--probe`` exits there. Otherwise
the worker runs the manifest's ops in-process through
``splitcvl.cli.main``, one after another, in whole passes over the
schedule until ``S`` seconds have passed. Input generation, the warm-up
op, the determinism re-runs and the correctness checks all happen outside
the timed region. Calibrate.py's reference task runs after every timed
op, for at least a tenth of the op's time, and each op's latency is
scaled by the reference samples around it. With ``--trace 1`` untraced
and traced passes alternate, so the tracing overhead is measured in the
same process. The raw result goes to ``R`` as JSON.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

from calibrate import REFERENCE_SHARE, reference_seconds, scales


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Runner:
    """Runs ops through ``cli.main`` and keeps what the checks need."""

    def __init__(self, cli):
        self.cli = cli
        self.tracer = None
        self.records: list[dict] = []
        self.first_outputs: dict[str, list[str]] = {}
        self.digests: dict[str, list[str]] = {}
        self.ops_run = 0
        self.passes = 0
        self.references_s: list[float] = []  # one sample before the first timed op, one after each

    def command(self, argv: list[str]) -> tuple[str, str | None]:
        """(stdout, failure reason or None) of one CLI command."""
        out, err = io.StringIO(), io.StringIO()
        tracer = self.tracer
        span = tracer.open(tracer.name_id_of(f"cli.{argv[0]}")) if tracer else None
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:  # a crashing op is a failed op; the loop goes on
            return out.getvalue(), traceback.format_exc(limit=-1).strip().splitlines()[-1]
        finally:
            if span is not None:
                tracer.close(span)
        if code != 0:
            return out.getvalue(), f"{argv[0]} exited {code}: {err.getvalue().strip()[:200]}"
        return out.getvalue(), None

    def op(self, op: dict, timed: bool) -> None:
        if self.tracer:
            self.tracer.current_op = self.ops_run
        if timed and not self.references_s:
            self.references_s.append(reference_seconds())
        outputs, failure = [], None
        start = time.perf_counter()
        for argv in op["commands"]:
            text, failure = self.command(argv)
            outputs.append(text)
            if failure:
                break
        latency = time.perf_counter() - start
        self.ops_run += 1
        digest = hashlib.sha256("\x00".join(outputs).encode()).hexdigest()
        key = op["key"]
        self.first_outputs.setdefault(key, outputs)
        self.digests.setdefault(key, []).append(digest)
        if timed:
            self.references_s.append(reference_seconds(REFERENCE_SHARE * latency))
            self.records.append({
                "key": key, "raw_latency_s": latency, "digest": digest,
                "failure": failure, "work": op["work"], "pass": self.passes,
                "traced": self.tracer is not None,
            })

    def one_pass(self, ops: list[dict]) -> None:
        for op in ops:
            self.op(op, timed=True)
        self.passes += 1

    def scale_records(self) -> None:
        """Give every timed op its latency in reference-speed seconds."""
        for rec, factor in zip(self.records, scales(self.references_s)):
            rec["scale"] = factor
            rec["latency_s"] = rec["raw_latency_s"] * factor

    def pass_walls(self, traced: bool) -> list[float]:
        """Reference-speed seconds of each pass: the sum of its ops' latencies."""
        walls: dict[int, float] = {}
        for rec in self.records:
            if rec["traced"] == traced:
                walls[rec["pass"]] = walls.get(rec["pass"], 0.0) + rec["latency_s"]
        return list(walls.values())

    def traced_pass(self, ops: list[dict], tracer) -> None:
        tracer.install()
        self.tracer = tracer
        try:
            self.one_pass(ops)
        finally:
            tracer.uninstall()
            self.tracer = None


def _judge(runner: Runner, manifest: dict, prep: dict) -> list[str]:
    """Mark failed records: command failures, check failures, and ops whose
    output sha256 is not the same on every run of that op."""
    from checks import check_op

    workload = manifest["workload"]
    ops = {op["key"]: (i, op) for i, op in enumerate(manifest["ops"])}
    verdicts = {}
    for key, outputs in runner.first_outputs.items():
        index, op = ops[key]
        verdicts[key] = check_op(workload, op, outputs, prep, index)
    unrepeatable = {key for key, digests in runner.digests.items() if len(set(digests)) > 1}
    reasons = []
    for rec in runner.records:
        key = rec["key"]
        if rec["failure"] is None and verdicts[key]:
            rec["failure"] = f"check: {verdicts[key]}"
        if rec["failure"] is None and key in unrepeatable:
            rec["failure"] = "output not byte-identical across runs of the same op"
        if rec["failure"]:
            reasons.append(f"{key}: {rec['failure']}")
    return reasons


def run(args) -> dict:
    import splitcvl.cli as cli

    from inputs import AGENTS

    manifest = json.loads(Path(args.manifest).read_text())
    ops = manifest["ops"]
    tracer = None
    runner = Runner(cli)
    prep = {}
    for name, argv in manifest["prep"].items():
        text, failure = runner.command(argv)
        prep[name] = None if failure else text  # the checks that need it then fail
    runner.op(ops[0], timed=False)  # warm-up: lazy imports and caches
    reference_seconds()  # and the reference task's

    start = _now()
    until = start + args.seconds
    if args.trace:
        from spans import Tracer

        # untraced and traced passes alternate, so drift in machine speed
        # falls on both sides of the tracing overhead alike
        tracer = Tracer()
        while not runner.passes or _now() < until:
            runner.one_pass(ops)
            runner.traced_pass(ops, tracer)
    else:
        while not runner.passes or _now() < until:
            runner.one_pass(ops)
    measured_s = _now() - start
    runner.scale_records()
    traced_walls = runner.pass_walls(traced=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # determinism: every op runs at least twice before its digests are compared
    for op in ops:
        if len(runner.digests[op["key"]]) < 2:
            runner.op(op, timed=False)
    reasons = _judge(runner, manifest, prep)

    result = {
        "records": runner.records,
        "pass_walls_s": runner.pass_walls(traced=False),
        "traced_pass_walls_s": traced_walls,
        "references_s": runner.references_s,
        "measured_s": measured_s,
        "peak_rss_mb": peak_rss_mb,
        "failures": reasons[:20],
    }
    if manifest["workload"] == "train":
        from checks import train_quality

        result["quality"] = {
            key: train_quality(outputs[0]) for key, outputs in runner.first_outputs.items()
            if not any(r["key"] == key and r["failure"] for r in runner.records)
        }
    if tracer is not None:
        from spans import layer_metrics

        result["layers"] = layer_metrics(tracer, len(traced_walls) * len(ops), AGENTS)
        result["missing_sites"] = tracer.missing
        result["spans"] = len(tracer.name_id)
        tracer.save(args.spans)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--manifest")
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--result")
    parser.add_argument("--spans")
    args = parser.parse_args(argv)

    start = time.perf_counter()
    import splitcvl.cli  # the import is what set-up measures

    import_s = time.perf_counter() - start
    src = Path(__file__).resolve().parent.parent / "src"
    if src not in Path(splitcvl.cli.__file__).resolve().parents:
        print(f"worker: splitcvl was not imported from {src}", file=sys.stderr)
        return 2
    print(f"ready {import_s!r} {_now()!r}", flush=True)
    if args.probe:
        return 0
    result = run(args)
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
