"""Per-op correctness checks, coded independently of the program.

Each check takes the op from the manifest, the stdout of each of its
commands, the outputs of the manifest's ``prep`` commands and the op's
position in the schedule, and returns ``None`` when the output is right
or a one-line reason when it is not. The checks run outside the timed
region.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

MOVING_AVG_WINDOW = 100  # Hyperparams.moving_avg_window; the configs leave it unset
TOP1_FRACTION = 0.01     # "top1" recall uses K = 1% of the gallery
HIST_EPSILON = 1e-6      # additive smoothing of the 256-bin histograms
TOLERANCE = 1e-9

COST_HEADER = (
    "device,cut_name,comm_latency_s,comm_energy_j,comp_energy_j,"
    "conf_cost,n_comm,n_comp,n_conf,effect"
)
METRIC_HEADER = (
    "uav_images,ground_images,recall_at_1,recall_at_5,recall_at_10,recall_at_top1,ap"
)
CONF_HEADER = "cut_name,kl_open,kl_closed,ssim_open,ssim_closed"


class CheckFailed(Exception):
    pass


def _require(cond: bool, reason: str) -> None:
    if not cond:
        raise CheckFailed(reason)


def _float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise CheckFailed(f"not a number: {text!r}") from None
    _require(math.isfinite(value), f"non-finite value {text!r}")
    return value


def _csv_rows(text: str, header: str) -> list[list[str]]:
    lines = text.splitlines()
    _require(bool(lines) and lines[0] == header, f"expected header {header!r}")
    width = header.count(",") + 1
    rows = [line.split(",") for line in lines[1:]]
    _require(all(len(r) == width for r in rows), f"rows must have {width} fields")
    return rows


def _key_values(lines: list[str]) -> dict[str, str]:
    pairs = {}
    for line in lines:
        key, sep, value = line.partition("=")
        _require(bool(sep), f"expected key=value, got {line!r}")
        pairs[key] = value
    return pairs


# -- cost tables and the exact optimum -----------------------------------------


def parse_cost_table(text: str) -> list[tuple[str, list[tuple[str, float]]]]:
    """(device, [(cut_name, effect), ...]) in file order."""
    devices: list[tuple[str, list[tuple[str, float]]]] = []
    for row in _csv_rows(text, COST_HEADER):
        effect = _float(row[-1])
        _require(0.0 <= effect <= 1.0, f"effect {effect!r} outside [0, 1]")
        if not devices or devices[-1][0] != row[0]:
            devices.append((row[0], []))
        devices[-1][1].append((row[1], effect))
    _require(bool(devices), "cost table has no rows")
    return devices


def per_device_optimum(table) -> tuple[list[str], list[str], float]:
    """Per-device argmin of the effect, ties going to the deeper cut.

    The effect of a joint decision is the mean of independent per-device
    terms, so this is the exact optimum over all joint decisions.
    """
    ids, cuts, minima = [], [], []
    for dev, rows in table:
        best = 0
        for c, (_, effect) in enumerate(rows):
            if effect <= rows[best][1]:
                best = c
        ids.append(dev)
        cuts.append(rows[best][0])
        minima.append(rows[best][1])
    return ids, cuts, math.fsum(minima) / len(minima)


def check_oracle_fleet(op, outputs, prep, index):
    cost_text, oracle_text = outputs
    table = parse_cost_table(cost_text)
    meta = op["meta"]
    _require(len(table) == meta["devices"], f"expected {meta['devices']} devices")
    _require(
        all(len(rows) == meta["candidates"] for _, rows in table),
        f"expected {meta['candidates']} cuts per device",
    )
    ids, cuts, effect = per_device_optimum(table)
    got = _key_values(oracle_text.splitlines())
    want_decision = ",".join(f"{d}:{c}" for d, c in zip(ids, cuts))
    _require(
        got.get("decision") == want_decision,
        f"oracle decision {got.get('decision')!r}, per-device argmin {want_decision!r}",
    )
    _require(
        _float(got.get("effect", "")) == effect,
        f"oracle effect {got.get('effect')!r}, per-device argmin {effect!r}",
    )


# -- training traces -------------------------------------------------------------


def parse_optimize(text: str) -> tuple[np.ndarray, np.ndarray, dict[str, str]]:
    """(effects, moving averages, summary) from optimize's stdout."""
    lines = text.splitlines()
    _require(bool(lines) and lines[0] == "step,effect,moving_avg", "missing trace header")
    split = next((i for i, line in enumerate(lines) if "=" in line), len(lines))
    rows = [line.split(",") for line in lines[1:split]]
    _require(all(len(r) == 3 for r in rows), "trace rows must have 3 fields")
    _require(
        all(r[0] == str(i) for i, r in enumerate(rows)), "trace steps must count from 0"
    )
    effects = np.array([_float(r[1]) for r in rows])
    moving = np.array([_float(r[2]) for r in rows])
    return effects, moving, _key_values(lines[split:])


def trailing_mean(values: np.ndarray, window: int) -> np.ndarray:
    """Mean of the last ``window`` values at each step (fewer at the start)."""
    out = np.empty(len(values))
    for i in range(len(values)):
        out[i] = math.fsum(values[max(0, i - window + 1): i + 1]) / min(i + 1, window)
    return out


def check_train(op, outputs, prep, index):
    effects, moving, summary = parse_optimize(outputs[0])
    steps = op["meta"]["steps"]
    _require(len(effects) == steps, f"trace has {len(effects)} rows, expected {steps}")
    _require(
        bool(np.all((effects >= 0.0) & (effects <= 1.0))), "trace effect outside [0, 1]"
    )
    expected = trailing_mean(effects, MOVING_AVG_WINDOW)
    worst = float(np.max(np.abs(expected - moving)))
    _require(worst <= TOLERANCE, f"moving average off by {worst:.3g}")
    for key in ("effect", "oracle_effect", "gap", "final_moving_avg"):
        _require(key in summary, f"summary lacks {key}")
    _require(
        _float(summary["final_moving_avg"]) == moving[-1],
        "final_moving_avg differs from the trace",
    )
    _require(prep.get("cost_table") is not None, "the cost command failed")
    _, _, optimum = per_device_optimum(parse_cost_table(prep["cost_table"]))
    _require(
        _float(summary["oracle_effect"]) == optimum,
        f"oracle_effect {summary['oracle_effect']} but the cost table's minimum is {optimum!r}",
    )


def train_quality(text: str) -> tuple[float, float | None]:
    """(gap, share of steps until the moving average stays within 5% of the
    oracle); the share is None when the run ends outside that band."""
    _, moving, summary = parse_optimize(text)
    oracle = _float(summary["oracle_effect"])
    inside = np.abs(moving - oracle) <= 0.05 * oracle
    if len(inside) == 0 or not inside[-1]:
        return _float(summary["gap"]), None
    outside = np.flatnonzero(~inside)
    settled = 0 if outside.size == 0 else int(outside[-1]) + 1
    return _float(summary["gap"]), settled / len(inside)


# -- retrieval grid --------------------------------------------------------------


def recompute_cell(meta: dict, uav: int, ground: int) -> dict[str, float]:
    """One cell's metrics from rank counting over the same synthetic gallery.

    With one gallery record per location, the true record's rank is
    1 + #(higher scores) + #(equal scores at a smaller location index), so
    Recall@K is ``rank <= K`` and AP is ``1 / rank``.
    """
    from splitcvl.retrieval import synth_gallery

    locations = meta["locations"]
    ks = (1, min(5, locations), min(10, locations), max(1, round(locations * TOP1_FRACTION)))
    per_seed = []
    for seed in meta["seeds"]:
        gallery, pools = synth_gallery(
            locations, meta["dim"], meta["noise"], seed=seed,
            images_per_view=meta["images_per_view"],
        )
        matrix = np.stack([rec.embedding.vector for rec in gallery])
        sums = [[] for _ in range(5)]
        for i, pool in enumerate(pools):
            vecs = [e.vector for e in pool.uav[:uav] + pool.ground[:ground]]
            if meta["fusion"] == "mean":
                fused = np.mean(vecs, axis=0)
                scores = matrix @ (fused / float(np.linalg.norm(fused)))
            else:
                scores = (matrix @ np.stack(vecs).T).max(axis=1)
            rank = 1 + int(np.sum(scores > scores[i])) + int(np.sum(scores[:i] == scores[i]))
            for slot, k in enumerate(ks):
                sums[slot].append(1.0 if rank <= k else 0.0)
            sums[4].append(1.0 / rank)
        per_seed.append([100.0 * math.fsum(v) / len(v) for v in sums])
    names = ("recall_at_1", "recall_at_5", "recall_at_10", "recall_at_top1", "ap")
    return {
        name: sum(seed_row[j] for seed_row in per_seed) / len(per_seed)
        for j, name in enumerate(names)
    }


def check_retrieval(op, outputs, prep, index):
    rows = _csv_rows(outputs[0], METRIC_HEADER)
    n = op["meta"]["images_per_view"]
    _require(len(rows) == n * n, f"expected {n * n} cells, got {len(rows)}")
    row = rows[index % len(rows)]
    uav, ground = int(row[0]), int(row[1])
    expected = recompute_cell(op["meta"], uav, ground)
    for name, text in zip(expected, row[2:]):
        diff = abs(_float(text) - expected[name])
        _require(
            diff <= TOLERANCE,
            f"cell ({uav},{ground}) {name} off by {diff:.3g} from rank counting",
        )


# -- privacy table -----------------------------------------------------------------


def read_pgm(path: Path) -> np.ndarray:
    """Pixels of a binary PGM as written by the input generator."""
    data = path.read_bytes()
    header, raster = data.split(b"\n", 1)
    magic, width, height, maxval = header.split()
    _require(magic == b"P5" and maxval == b"255", f"{path.name}: not an 8-bit P5 image")
    return np.frombuffer(raster, dtype=np.uint8).reshape(int(height), int(width))


def _histogram(pixels: np.ndarray) -> np.ndarray:
    counts = np.bincount(pixels.ravel(), minlength=256).astype(np.float64) + HIST_EPSILON
    return counts / counts.sum()


def recompute_kl(cut_dir: Path) -> tuple[float, float]:
    """Mean KL(original || reconstruction) of the cut's open and closed images."""
    kl_open, kl_closed = [], []
    for orig_path in sorted(cut_dir.glob("orig_*.pgm")):
        triple = orig_path.name[len("orig_"):]
        p = _histogram(read_pgm(orig_path))
        for role, values in (("open_", kl_open), ("closed_", kl_closed)):
            q = _histogram(read_pgm(cut_dir / (role + triple)))
            values.append(float(np.sum(p * np.log(p / q))))
    _require(bool(kl_open), f"{cut_dir.name}: no image triples")
    return math.fsum(kl_open) / len(kl_open), math.fsum(kl_closed) / len(kl_closed)


def check_privacy(op, outputs, prep, index):
    rows = _csv_rows(outputs[0], CONF_HEADER)
    cuts = op["meta"]["cuts"]
    _require([r[0] for r in rows] == cuts, f"expected cuts {cuts}")
    for row in rows:
        _require(min(_float(row[1]), _float(row[2])) >= 0.0, "negative KL")
        _require(
            all(0.0 <= _float(v) <= 1.0 for v in row[3:]), "SSIM outside [0, 1]"
        )
    row = rows[index % len(rows)]
    want = recompute_kl(Path(op["meta"]["corpus"]) / row[0])
    for name, text, value in zip(("kl_open", "kl_closed"), row[1:3], want):
        got = _float(text)
        _require(
            abs(got - value) <= TOLERANCE * max(1.0, abs(value)),
            f"{row[0]} {name} {got!r}, independent histograms give {value!r}",
        )


CHECKS = {
    "train": check_train,
    "oracle-fleet": check_oracle_fleet,
    "retrieval-grid": check_retrieval,
    "privacy-corpus": check_privacy,
}


def check_op(workload: str, op: dict, outputs: list[str], prep: dict, index: int):
    """None when the op's outputs are right, else the reason they are not."""
    try:
        CHECKS[workload](op, outputs, prep, index)
    except CheckFailed as exc:
        return str(exc)
    except (ValueError, IndexError, KeyError) as exc:
        return f"unparseable output: {exc!r}"
    return None
