"""Generated scenarios: any valid scenario text runs, reruns to the same
bytes, and every division partitions its parent's n and f.

The strategy writes only text that ``parse_scenario`` accepts: each key is
one of ``scenario._KEYS``, and each value keeps to ``_validate``'s rules.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from splitchain.assignment import DETERMINISTIC, RANDOMIZED
from splitchain.errors import ConfigError
from splitchain.netsim import STRATEGIES
from splitchain.scenario import _KEYS, parse_scenario, run_scenario


def section(header: str, kind: str, values: dict) -> list:
    assert values.keys() <= _KEYS[kind].keys()
    return [f"[{header}]"] + [f"{key} = {value}"
                              for key, value in values.items()]


@st.composite
def chain_section(draw, name: str) -> tuple:
    validators = draw(st.integers(1, 12))
    values = {"validators": validators,
              "n_max": draw(st.integers(2, 12)),
              "faulty": draw(st.integers(0, validators)),
              "alpha": draw(st.sampled_from(["1/2", "1/3", "1/4"])),
              "kind": draw(st.sampled_from(["cft", "bft"]))}
    if draw(st.booleans()):
        values["clients"] = draw(st.integers(1, 3))
        values["assets"] = draw(st.integers(0, 3))
    return section(f"chain {name}", "chain", values), validators


@st.composite
def scenarios(draw) -> str:
    d_max = draw(st.integers(1, 4))
    lines = section("scenario", "scenario", {
        "seed": draw(st.integers(0, 2 ** 16)),
        "d_min": draw(st.integers(1, d_max)), "d_max": d_max,
        "assignment": draw(st.sampled_from([RANDOMIZED, DETERMINISTIC]))})
    names = ["a", "b", "c"][:draw(st.integers(1, 3))]
    sizes = {}
    for name in names:
        text, sizes[name] = draw(chain_section(name))
        lines += text
    if draw(st.booleans()):
        block = draw(st.integers(1, 4))
        lines += section("join", "join", {
            "arrivals": draw(st.integers(0, 16)),
            "interval": draw(st.integers(1, 3)), "block": block,
            "beta": Fraction(draw(st.integers(0, block)), block),
            "target": draw(st.sampled_from(["round-robin", "smallest"]))})
    if len(names) > 1 and draw(st.booleans()):
        left, right = draw(st.permutations(names))[:2]
        lines += section("fuse", "fuse", {
            "at": draw(st.integers(0, 12)), "left": left, "right": right})
    faults = []
    for name in names:
        for i in range(sizes[name]):
            fault = draw(st.sampled_from(
                [None] * 6 + ["crash", "byzantine"]))
            if fault == "crash":
                faults.append(f"{name}-v{i:03d} = crash"
                              f" {draw(st.integers(0, 12))}")
            elif fault == "byzantine":
                faults.append(f"{name}-v{i:03d} = byzantine"
                              f" {draw(st.sampled_from(sorted(STRATEGIES)))}")
    if faults:
        lines += ["[faults]"] + faults
    return "\n".join(lines) + "\n"


def outputs(report) -> tuple:
    return report.metrics_csv(), report.lineage_csv(), report.events_log()


@settings(max_examples=150, derandomize=True, deadline=None)
@given(scenarios())
def test_a_valid_scenario_runs_reruns_and_partitions_each_division(text):
    spec = parse_scenario(text)  # the strategy writes only valid text
    try:
        report = run_scenario(spec)
    except ConfigError:  # the only error a run may raise
        return
    assert outputs(run_scenario(text)) == outputs(report)
    for event in report.divisions:
        children = event.fields["children"]
        assert sum(n for _, n, _, _ in children) == event.fields["n"]
        assert sum(f for _, _, f, _ in children) == event.fields["f"]
