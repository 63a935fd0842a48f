"""scripts/reach.py: what it marks reached and not on one figure1 seed,
and each module's unreached count over its whole corpus of documented
inputs, pinned. A change that leaves more statements unreached updates
UNREACHED and names them, with the reason, in CHANGES.md."""

import importlib.util
from pathlib import Path

import pytest

from splitchain.scenario import run_scenario

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "reach.py"

# statements no documented input reaches, per module
UNREACHED = {"__init__": 0, "analysis": 8, "assignment": 4, "cli": 3,
             "consensus": 16, "crypto": 8, "errors": 2, "manager": 21,
             "model": 82, "netsim": 14, "scenario": 4, "xchain": 41}


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


@pytest.fixture(scope="module")
def corpus(reach):
    return reach.unreached(reach.corpus_hits())


def test_unreached_statements_are_pinned_per_module(corpus):
    assert {module: len(missing)
            for module, (_, missing) in corpus.items()} == UNREACHED
    counted = sum(total for total, _ in corpus.values())
    assert sum(UNREACHED.values()) <= 0.15 * counted


def test_the_corpus_reaches_each_documented_outcome(corpus):
    functions = {module: [function for _, function in lines]
                 for module, (_, lines) in corpus.items()}
    # every exit-2 path of the CLI and the exit-4 stall run; only exit 3,
    # which no scenario can reach yet, is left
    assert functions["cli"] == ["_cmd_simulate"] * 3
    assert "parse_scenario" not in functions["scenario"]
    assert "_validate" not in functions["scenario"]
    # Byzantine founders ACK through respond when their chain divides at
    # genesis height, which runs every statement of on_divide's receiver
    assert functions["manager"].count("ChainSim.on_divide.receive") == 0
