"""Fuzzed configs: every run exits 0, 2 or 3 and prints no NaN/inf.

The first test writes the stock scenario with a drawn agent (a name, or
junk such as a list, an int or null), step count, seed (negative ones
too), a few drawn ``optimizer.hyper`` values and a drawn ``retrieval``
section, then runs ``optimize`` through ``main()``. A value of the wrong
type or range must be a config error (exit 2), a run that diverges must
raise the package's NonFiniteError (exit 2), and any run that finishes
must write only finite numbers.

The second draws the scenario itself: 1 to 8 devices, of which at most
one draws its constants (from 1e-320 to 1e308, and integers past the
largest float) and its channel (zero SNR, zero-width ranges, SNR that
underflows) from the wide ranges, the others at desk scale; weights,
inline KL and SSIM tables (SSIM absent, inside [0, 1], outside it, a
bool or NaN), the builtin model's input size (0, negative, non-integral
or large), ``profile_file`` integers up to 10^310, and the optimizer's
bin counts, so that many fleets have more than 4096 combinations of the
devices' bins. It runs ``profile``, ``cost``, ``oracle`` and a 20-step
``optimize`` on each. Every run exits 0 with only finite numbers, or 2
or 3 with no output and one ``error:`` line. The one non-finite number
allowed is the ``gap=nan`` of an ``optimize`` whose mean channel is
infeasible, which stderr warns about.
"""

import re
import warnings
from dataclasses import fields
from pathlib import Path

import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from splitcvl.cli import main
from splitcvl.nnprofile import PROFILE_HEADER
from splitcvl.rlopt.agents import AGENTS, Hyperparams

STOCK = yaml.safe_load(
    (Path(__file__).resolve().parents[1] / "configs" / "scenario.yaml").read_text()
)
HYPER_KEYS = sorted(f.name for f in fields(Hyperparams))
NON_FINITE = re.compile(r"\b(nan|inf)\b", re.IGNORECASE)

hyper_values = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(-2, 50),
    st.booleans(),
    st.text(alphabet="0123456789.e+-nafiNAFI x", max_size=5),
)
seeds = st.integers(-2, 9)
junk = st.sampled_from([[1], {"a": 1}, None])
retrieval_sections = st.fixed_dictionaries({}, optional={
    "locations": st.integers(1, 300),
    "dim": st.integers(1, 80),
    "seeds": st.integers(0, 12),
    "seed": seeds,
    "images_per_view": st.integers(0, 5),
    "fusion": st.one_of(st.sampled_from(["mean", "max_score"]), junk),
    "noise": st.one_of(
        st.dictionaries(
            st.sampled_from(["satellite", "uav", "ground"]), st.floats(-0.1, 2.0),
            max_size=3,
        ),
        junk,
    ),
})


@settings(
    max_examples=100,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    agent=st.sampled_from([*sorted(AGENTS), [1], 7, None]),
    steps=st.integers(-2, 20),
    seed=seeds,
    hyper=st.dictionaries(st.sampled_from(HYPER_KEYS), hyper_values, max_size=4),
    retrieval=retrieval_sections,
)
def test_optimize_exits_0_or_2_without_non_finite_output(
    agent, steps, seed, hyper, retrieval, tmp_path, capsys
):
    config = dict(STOCK)
    config["optimizer"] = {
        **STOCK["optimizer"], "agent": agent, "steps": steps, "seed": seed, "hyper": hyper,
    }
    config["retrieval"] = retrieval
    path = tmp_path / "fuzz.yaml"
    path.write_text(yaml.safe_dump(config))
    out = tmp_path / "trace.csv"
    out.unlink(missing_ok=True)
    capsys.readouterr()
    with warnings.catch_warnings():
        # a diverging network overflows before the agent reports it
        warnings.simplefilter("ignore", RuntimeWarning)
        code = main(["optimize", "--config", str(path), "--out", str(out)])
    assert code in (0, 2)
    trace = out.read_text() if out.exists() else ""
    summary = capsys.readouterr().out
    assert not NON_FINITE.search(trace + summary)
    if code == 0:
        assert trace.startswith("step,effect,moving_avg\n")
        assert f"agent={agent}\n" in summary and f"seed={seed}\n" in summary
    else:
        assert trace == summary == ""


# Each kind of value is drawn log-uniform over 1e-320 to 1e308, or over a
# desk-scale range as often as all the rest together (so that examples
# also get past the config checks), or is one of a few integers past the
# largest float and values out of range.
magnitudes = st.floats(-320.0, 308.0).map(lambda e: 10.0 ** e)
desk_scale = st.floats(-2.0, 12.0).map(lambda e: 10.0 ** e)
constants = st.one_of(
    desk_scale, desk_scale, magnitudes, st.sampled_from([10**309, 10**310, 0, 0.0, -1.0, 1]),
)
# a bandwidth with a rate too low to carry a payload as often as any other kind
bandwidths = st.one_of(constants, st.floats(-310.0, -295.0).map(lambda e: 10.0 ** e))
# SNRs that underflow to a zero linear SNR or to a zero rate, or that overflow
snr_dbs = st.one_of(st.floats(-30.0, 60.0), st.floats(-4000.0, 400.0),
                    st.sampled_from([-4000.0, -200.0, 0.0]))
unit_shares = st.one_of(st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.sampled_from([-0.5, 1.5]))
ssims = st.one_of(unit_shares, st.sampled_from([True, False, float("nan")]))
# input sizes: valid ones (multiples of 32) as often as all the rest together
valid_input_sizes = st.integers(1, 64).map(lambda k: 32 * k)
input_sizes = st.one_of(
    valid_input_sizes,
    st.one_of(st.integers(-64, 300), st.sampled_from([0, -32, 224.5, 2**40, 32 * 10**12, 10**310])),
)


@st.composite
def channels(draw, bandwidths, snr_dbs, snr_linears):
    if draw(st.booleans()):
        key, snr = (("snr_db", draw(snr_dbs)) if draw(st.booleans())
                    else ("snr_linear", draw(snr_linears)))
        return {"fixed": {"bandwidth_hz": draw(bandwidths), key: snr}}
    # zero-width ranges too
    bw = sorted([draw(bandwidths)] * 2 if draw(st.booleans())
                else [draw(bandwidths), draw(bandwidths)])
    db = sorted([draw(snr_dbs)] * 2 if draw(st.booleans())
                else [draw(snr_dbs), draw(snr_dbs)])
    return {"distribution": {"bandwidth_hz": bw, "snr_db": db}}


# the section that an example draws from the wide ranges above, if any;
# the others draw values that pass the config checks, so that most
# examples get past the devices to the model and table sections, and a
# third of them to training
WILD_SECTIONS = ("devices", None, "model", "devices", "confidentiality", "weights")


@st.composite
def scenarios(draw):
    """(config, profile CSV or None) of a drawn scenario."""
    n_devices = draw(st.integers(1, 8))
    wild = draw(st.sampled_from(WILD_SECTIONS))
    # where the devices are wild, one of them is
    odd = draw(st.integers(0, n_devices - 1)) if wild == "devices" else -1
    devices, links = [], {}
    for i in range(n_devices):
        devices.append({"id": f"d{i}", "kind": draw(st.sampled_from(["uav", "vehicle"])),
                        **draw(st.dictionaries(
                            st.sampled_from(["peak_flops", "compute_power_w", "tx_power_w"]),
                            constants if i == odd else desk_scale, max_size=2))})
        links[f"d{i}"] = draw(
            channels(bandwidths, snr_dbs, st.one_of(constants, st.just(0.0))) if i == odd
            else channels(desk_scale, st.floats(-30.0, 60.0), desk_scale))
    config = {
        "devices": devices,
        "channels": links,
        "optimizer": {"agent": draw(st.sampled_from(sorted(AGENTS))), "steps": 20,
                      "bandwidth_bins": draw(st.integers(1, 4)),
                      "snr_bins": draw(st.integers(1, 8))},
    }
    profile = None
    if draw(st.booleans()):
        sizes = input_sizes if wild == "model" else valid_input_sizes
        config["model"] = {"builtin": "resnet50_usam", **draw(st.dictionaries(
            st.sampled_from(["input_h", "input_w"]), sizes, max_size=2))}
        n_cuts = 5
    else:
        config["model"] = {"profile_file": "prof.csv"}
        counts = st.integers(1, 10**12)
        if wild == "model":
            counts = st.one_of(counts, st.integers(1, 10**310))
        layers = draw(st.lists(st.tuples(counts, counts), min_size=3, max_size=3))
        profile = "".join(f"l{i},{flops},{out},4,1\n" for i, (flops, out) in enumerate(layers))
        n_cuts = 3
    shares = unit_shares if wild == "weights" else st.floats(0.0, 1.0)
    if draw(st.booleans()):
        kl = st.one_of(magnitudes, st.just(0.0))
        ssim = st.dictionaries(
            st.sampled_from(["ssim_open", "ssim_closed"]),
            ssims if wild == "confidentiality" else st.floats(0.0, 1.0), max_size=2)
        config["confidentiality"] = {"table": [
            {"kl_open": draw(kl), "kl_closed": draw(kl), **draw(ssim)} for _ in range(n_cuts)]}
    if draw(st.booleans()):
        w_comm = draw(shares)
        w_comp = draw(shares) * (1.0 - w_comm)
        config["weights"] = {
            "w_comm": w_comm, "w_comp": w_comp, "w_conf": 1.0 - w_comm - w_comp,
            "alpha_open": draw(shares), "lambda_latency": draw(shares),
        }
    return config, profile


@settings(
    max_examples=100,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(scenario=scenarios())
def test_scenario_commands_exit_cleanly(scenario, tmp_path, capsys):
    config, profile = scenario
    path = tmp_path / "fuzz.yaml"
    path.write_text(yaml.safe_dump(config))
    if profile is not None:
        (tmp_path / "prof.csv").write_text(f"{PROFILE_HEADER}\n{profile}")
    out = tmp_path / "trace.csv"
    for command in ("profile", "cost", "oracle", "optimize"):
        out.unlink(missing_ok=True)
        capsys.readouterr()
        code = main([command, "--config", str(path), "--out", str(out)])
        written = out.read_text() if out.exists() else ""
        captured = capsys.readouterr()
        if code == 0:
            text = written + captured.out
            if "warning: a link has zero rate" in captured.err:
                text = text.replace("gap=nan\n", "")
            assert written and not NON_FINITE.search(text), (command, text)
        else:
            assert code in (2, 3), (command, code)
            assert written == captured.out == ""
            assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
