"""scripts/reach.py on one figure1 seed: what it marks reached and not."""

import importlib.util
from pathlib import Path

import pytest

from splitchain.scenario import run_scenario

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "reach.py"


@pytest.fixture(scope="module")
def reach():
    spec = importlib.util.spec_from_file_location("reach", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_one_figure1_seed_commits_without_asking_a_hook(reach):
    hits = reach.trace(lambda: run_scenario(reach.FIGURE1.read_text(),
                                            seed=0))
    report = reach.unreached(hits)
    assert sorted(report) == sorted(p.stem
                                    for p in reach.PACKAGE.glob("*.py"))
    for module, (total, missing) in report.items():
        assert len(missing) <= total
        # a line the run executed is never listed
        executed = hits.get(str(reach.PACKAGE / f"{module}.py"), set())
        assert not executed.intersection(line for line, _ in missing)
    assert hits[str(reach.PACKAGE / "consensus.py")]
    functions = {module: {function for _, function in lines}
                 for module, (_, lines) in report.items()}
    # every round reaches quorum on correct votes, and figure1 has no [fuse]
    assert "run_commit_round.counts" in functions["consensus"]
    assert "_Driver.fuse" in functions["scenario"]
