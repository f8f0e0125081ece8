"""Fuzzed optimizer settings: every run exits 0 or 2 and prints no NaN/inf.

Each example writes the stock scenario with a drawn agent (a name, or junk
such as a list, an int or null), step count, seed (negative ones too), a
few drawn ``optimizer.hyper`` values and a drawn ``retrieval`` section,
then runs ``optimize`` through ``main()``. A value of the wrong type or
range must be a config error (exit 2), a run that diverges must raise the
package's NonFiniteError (exit 2), and any run that finishes must write
only finite numbers.
"""

import re
import warnings
from dataclasses import fields
from pathlib import Path

import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from splitcvl.cli import main
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
