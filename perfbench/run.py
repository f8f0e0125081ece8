"""splitcvl benchmark: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload train --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

Run from anywhere; the program is taken from ``src/`` next to this
directory. The run generates the workload's inputs from the seed, times
interpreter start plus ``import splitcvl.cli`` in seven fresh interpreters
(``setup_s``), then runs the ops in one more fresh interpreter, a
single-client closed loop with ``--jobs 1`` (see worker.py), checks every
op's output and prints a report followed by one JSON line:
``{"correct", "attempted", "failed", "metrics"}``. ``--trace 0`` reports
the end-to-end metrics of BENCHMARK.json, ``--trace 1`` its per-layer
metrics. Every time it reports is in reference-speed units: scaled by
how long calibrate.py's reference task took beside it, so drift in the
host's speed cancels (the report also prints the unscaled values). Raw
results, provenance and the span file go to ``.perfbench_out/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from calibrate import REFERENCE_SHARE, reference_seconds, scales
from inputs import THROUGHPUT_NAMES, WORKLOADS, generate

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
PROBES = 7
RUN_LIMIT_S = 175.0  # a run must end within 180 s
TAIL_BEYOND = 10     # samples that must lie beyond the reported tail percentile
TIME_UNITS = ("s", "ms", "us")


class RunFailed(Exception):
    pass


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def tail(values: list[float]) -> tuple[float, float, int]:
    """(value, percentile, n) at the highest percentile with at least
    ``TAIL_BEYOND`` samples beyond it, by nearest rank; the maximum when
    there are too few samples."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, n
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, n


def _env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # one client on one core: no BLAS thread pools behind the numpy calls
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    # one str hash seed for every run: with random ones, the dict and set
    # layouts alone moved the same retrieval run by about 10% between
    # interpreters
    env["PYTHONHASHSEED"] = "0"
    return env


def _spawn(args: list[str], deadline: float) -> tuple[float, float]:
    """Run the worker; (seconds from spawn to its ready line, import seconds)."""
    spawned = _now()
    proc = subprocess.Popen(
        [sys.executable, str(WORKER), *args], cwd=ROOT, env=_env(),
        stdout=subprocess.PIPE, text=True,
    )
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - _now()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RunFailed("worker did not finish in time") from None
    if proc.returncode != 0 or not out.startswith("ready "):
        raise RunFailed(f"worker exited with code {proc.returncode}")
    _, import_s, ready_at = out.split()
    return float(ready_at) - spawned, float(import_s)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True
    )
    if done.returncode != 0:
        return None
    return done.stdout.strip() or None


def _source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def provenance() -> dict:
    return {
        "git_sha": _git_sha(),
        "source_sha256": _source_sha256(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "loadavg_1m_before": os.getloadavg()[0],
    }


def end_to_end(workload: str, raw: dict, setup: list[float]) -> tuple[dict, list[str]]:
    """The end-to-end metrics, and report lines for the metrics that
    BENCHMARK.json cannot hold (zero on the current code, or train-only)."""
    recs = raw["records"]
    latencies = [r["latency_s"] for r in recs]
    tail_s, tail_pct, n = tail(latencies)
    failed = sum(1 for r in recs if r["failure"])
    throughput = sum(r["work"] for r in recs) / sum(latencies)
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.fmean(raw["pass_walls_s"]),
        "cmd_p50_ms": 1e3 * statistics.median(latencies),
        "cmd_tail_ms": 1e3 * tail_s,
        "peak_rss_mb": raw["peak_rss_mb"],
        "throughput_per_s": throughput,
    }
    notes = [
        f"cmd_tail_ms is p{tail_pct:.1f} of n={n} ops",
        f"wall_s is the mean of {len(raw['pass_walls_s'])} passes over the op schedule",
        f"error_frac = {failed / len(recs)!r} ({failed} of {len(recs)} ops failed)",
        f"{THROUGHPUT_NAMES[workload]} = {throughput!r} 1/s (throughput_per_s)",
    ]
    if workload == "train":
        quality = raw["quality"]
        good = [r for r in recs if r["key"] in quality]
        gaps = [quality[r["key"]][0] for r in good]
        reach = [r["latency_s"] * quality[r["key"]][1] for r in good
                 if quality[r["key"]][1] is not None]
        if gaps:
            notes.append(f"oracle_gap_mean = {statistics.fmean(gaps)!r} (ratio)")
        if reach:
            notes.append(f"time_to_5pct_s = {statistics.median(reach)!r} s "
                         f"({len(good) - len(reach)} of {len(good)} ops never reach 5%)")
        else:
            notes.append(f"time_to_5pct_s: none of {len(good)} ops reach 5% of the oracle")
    return metrics, notes


def raw_latencies(raw: dict) -> list[float]:
    return [r["raw_latency_s"] for r in raw["records"]]


def per_layer(raw: dict, import_s: list[float], spec: list[dict]) -> tuple[dict, list[str]]:
    # span times are unscaled; the traced ops' median scale brings them to
    # reference speed like every other time
    factor = statistics.median(r["scale"] for r in raw["records"] if r["traced"])
    units = {m["name"]: m["unit"] for m in spec}
    metrics = {name: value * factor if units.get(name) in TIME_UNITS else value
               for name, value in raw["layers"].items()}
    metrics["cli.import_s"] = statistics.median(import_s)
    traced = statistics.fmean(raw["traced_pass_walls_s"])
    untraced = statistics.fmean(raw["pass_walls_s"])
    metrics["trace.overhead_s"] = traced - untraced
    notes = [
        f"trace.overhead_s = traced wall_s {traced!r} - untraced wall_s {untraced!r}",
        f"{raw['spans']} spans recorded",
    ]
    if raw["missing_sites"]:
        notes.append(f"sites not found (zero calls): {', '.join(raw['missing_sites'])}")
    return metrics, notes


def run_workload(workload: str, seed: int, seconds: int, trace: int) -> dict:
    deadline = _now() + RUN_LIMIT_S
    prov = provenance()
    out_dir = ROOT / ".perfbench_out"
    work = out_dir / f"work-{os.getpid()}-{workload}"
    results = out_dir / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{trace}"
    try:
        shutil.rmtree(work, ignore_errors=True)
        generate(workload, seed, work / "inputs")
        raw_setup, raw_import, references = [], [], [reference_seconds()]
        for _ in range(PROBES):
            ready_s, imp = _spawn(["--probe"], deadline)
            references.append(reference_seconds(REFERENCE_SHARE * ready_s))
            raw_setup.append(ready_s)
            raw_import.append(imp)
        factors = scales(references)
        setup = [t * f for t, f in zip(raw_setup, factors)]
        import_s = [t * f for t, f in zip(raw_import, factors)]
        raw_path = work / "raw.json"
        _spawn(
            ["--manifest", str(work / "inputs" / "manifest.json"),
             "--seconds", str(seconds), "--trace", str(trace),
             "--result", str(raw_path), "--spans", str(results / f"{workload}.spans.npz")],
            deadline,
        )
        raw = json.loads(raw_path.read_text())
    finally:
        shutil.rmtree(work, ignore_errors=True)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if trace:
        values, notes = per_layer(raw, import_s, spec["per_layer"])
        wanted = spec["per_layer"]
    else:
        values, notes = end_to_end(workload, raw, setup)
        notes.append(f"unscaled: setup_s = {statistics.median(raw_setup)!r} s, "
                     f"cmd_p50_ms = {1e3 * statistics.median(raw_latencies(raw))!r} ms")
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    attempted = len(raw["records"])
    failed = sum(1 for r in raw["records"] if r["failure"])
    prov["loadavg_1m_after"] = os.getloadavg()[0]
    summary = {"correct": failed == 0, "attempted": attempted, "failed": failed,
               "metrics": metrics}
    (results / f"{stem}.json").write_text(json.dumps(
        {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
         "summary": summary, "notes": notes, "failures": raw["failures"],
         "provenance": prov, "setup_s": setup, "unscaled_setup_s": raw_setup,
         "import_s": import_s,
         "raw": {k: v for k, v in raw.items() if k != "records"},
         "latencies_s": [r["latency_s"] for r in raw["records"]],
         "unscaled_latencies_s": raw_latencies(raw)},
        indent=1,
    ))
    print(f"== {workload} seed={seed} seconds={seconds} trace={trace}")
    for name, m in metrics.items():
        print(f"  {name:<40} {m['value']!r} {m['unit']}")
    for line in notes + raw["failures"]:
        print(f"  {line}")
    print(f"  provenance {json.dumps(prov, sort_keys=True)}")
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "splitcvl" / "cli.py").is_file():
        print(f"perfbench: no splitcvl sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {w: run_workload(w, args.seed, args.seconds, args.trace) for w in names}
    except RunFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    if args.workload == "all":
        summary = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }
    else:
        summary = results[args.workload]
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
