"""Every demo script runs to completion as a script."""

import runpy
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_demos_are_found():
    assert any(p.stem.startswith("02_") for p in DEMOS)


@pytest.mark.parametrize("path", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_runs(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    out = capsys.readouterr().out
    assert out
    if path.stem.startswith("02_"):
        verdicts = [line.strip() for line in out.splitlines() if "duality verified" in line]
        assert verdicts == ["duality verified: True"] * 3
