"""Every demo script runs to completion in process and prints its key lines."""

import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"

KEY_LINES = {
    "02_cross_chain_transfer.py": (
        "resolve on src -> claimed; coin now owned by bob on dst",
        "resolve on src -> aborted; gem is unlocked and stays with alice",
    ),
    "03_security_curves.py": (
        "  40    1/5   8    692/15873    0.0436    0.9822    0.0449",
    ),
    "04_scenario_metrics.py": (
        "final chains: 8; divisions: 7; messages: 2940",
    ),
}


def test_every_demo_has_key_lines():
    assert sorted(p.name for p in DEMOS.glob("*.py")) == sorted(KEY_LINES)


@pytest.mark.parametrize("name", sorted(KEY_LINES))
def test_demo_runs_and_prints_key_lines(name, capsys):
    runpy.run_path(str(DEMOS / name), run_name="__main__")
    lines = capsys.readouterr().out.splitlines()
    for key in KEY_LINES[name]:
        assert key in lines, key
