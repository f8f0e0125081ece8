"""Each input generator is byte-deterministic per seed."""

from pathlib import Path

import pytest

from inputs import WORKLOADS, generate


def _generate_in(root: Path, workload: str, seed: int, monkeypatch) -> dict[str, bytes]:
    root.mkdir()
    monkeypatch.chdir(root)
    generate(workload, seed, "in")
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*")) if p.is_file()
    }


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_bytes(workload, tmp_path, monkeypatch):
    first = _generate_in(tmp_path / "a", workload, 11, monkeypatch)
    second = _generate_in(tmp_path / "b", workload, 11, monkeypatch)
    assert "in/manifest.json" in first
    assert first == second


@pytest.mark.parametrize("workload", WORKLOADS)
def test_other_seed_other_inputs(workload, tmp_path, monkeypatch):
    first = _generate_in(tmp_path / "a", workload, 11, monkeypatch)
    second = _generate_in(tmp_path / "b", workload, 12, monkeypatch)
    assert sorted(first) == sorted(second)
    assert first != second
