"""The paired summary of scripts/bench_pairs.py, on hand-made runs."""

import ast
import dataclasses
import importlib.util
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_pair_stats_reads_each_pair_where_the_medians_mislead(bench_pairs):
    # throughput in ops/s: the host ran four pairs at half speed, and two
    # runs of the change hit a stall, so the change wins 8 of 10 pairs by
    # 5-10% while the ratio of the medians says it is 45% slower
    parent = [10] * 4 + [20] * 6
    change = [11] * 4 + [21] * 4 + [9] * 2
    assert statistics.median(change) / statistics.median(parent) == 0.55
    stats = bench_pairs.pair_stats(parent, change, higher=True)
    assert stats["pair_ratio_median"] == 1.05
    # 2 * (C(10,0) + C(10,1) + C(10,2)) / 2**10
    assert stats["sign_test_p"] == round(2 * 56 / 1024, 4)
    # the verdict rule is unchanged: no gain without nine tenths of the pairs
    assert bench_pairs.verdict(parent, change, True, 0.15) != "gain"


def test_sign_test_drops_ties_and_reads_lower_as_better(bench_pairs):
    parent = [1.0, 2.0, 3.0, 4.0]
    change = [0.5, 1.0, 3.0, 2.0]  # three wins (lower is better), one tie
    stats = bench_pairs.pair_stats(parent, change, higher=False)
    assert stats["sign_test_p"] == 2 * 1 / 8
    assert stats["pair_ratio_median"] == 0.5
    assert bench_pairs.pair_stats([1.0], [1.0], False)["sign_test_p"] == 1.0


def test_division_probe_reports_the_median_of_its_divisions(bench_pairs):
    tree = SCRIPT.parent.parent
    run = bench_pairs.division_run(tree, 8, repeats=3)
    assert len(run["cpu_s_runs"]) == 3
    assert run["cpu_s"] == round(statistics.median(run["cpu_s_runs"]), 4)
    # one division of 8: a DIVIDE to each validator and 8 acks from each
    assert run["messages_sent"] == 8 + 8 * 8
    assert sorted(run["children"]) == [4, 4]


def test_division_probe_reports_each_division_at_reference_speed(
        bench_pairs):
    # each division's raw CPU time, and that time scaled by the tree's own
    # calibration loop, timed around it
    run = bench_pairs.division_run(SCRIPT.parent.parent, 4, repeats=2)
    assert len(run["cpu_s_runs"]) == len(run["ref_s_runs"]) == 2
    # the median of two runs is their mean, taken before either is rounded
    assert abs(run["ref_s"] - statistics.median(run["ref_s_runs"])) <= 1e-4
    assert all(t > 0 for t in run["ref_s_runs"])
    assert run["messages_sent"] == 4 + 4 * 4


def test_trace_calls_equal_compares_calls_and_drops_only(bench_pairs):
    parent = {"crypto.sign.calls": 665.0, "crypto.sign.self_ms": 1.2,
              "netsim.dropped": 3.5, "op.self_ms": 9.5}
    # self times may differ; calls and drops may not
    same = dict(parent, **{"crypto.sign.self_ms": 0.7, "op.self_ms": 8.0})
    assert bench_pairs.trace_calls_equal(parent, same)
    for key, value in (("crypto.sign.calls", 666.0), ("netsim.dropped", 3.0)):
        assert not bench_pairs.trace_calls_equal(parent,
                                                 dict(parent, **{key: value}))
    # a layer only one side traced counts as a difference
    assert not bench_pairs.trace_calls_equal(
        parent, dict(parent, **{"model.replay.calls": 1.0}))


def test_reports_equal_reads_the_report_files_alone(bench_pairs, tmp_path):
    def digests(stdout, report):
        (tmp_path / "out").mkdir(exist_ok=True)
        (tmp_path / "out" / "events.log").write_bytes(report)
        done = subprocess.CompletedProcess([], 0, stdout, b"")
        return bench_pairs.run_digests(done, tmp_path)

    parent = {"run": digests(b"2 chains born\n", b"[0] create\n")}
    reworded = {"run": digests(b"2 chains beyond\n", b"[0] create\n")}
    moved = {"run": digests(b"2 chains born\n", b"[0] divide\n")}
    assert parent != reworded  # the whole-run hash reads stdout
    assert bench_pairs.reports_equal(parent, reworded)
    assert not bench_pairs.reports_equal(parent, moved)
    assert not bench_pairs.reports_equal(parent, {})
    # a report file's name counts as well as its bytes
    (tmp_path / "out" / "events.log").rename(tmp_path / "out" / "other.log")
    done = subprocess.CompletedProcess([], 0, b"2 chains born\n", b"")
    renamed = {"run": bench_pairs.run_digests(done, tmp_path)}
    assert not bench_pairs.reports_equal(parent, renamed)


@pytest.fixture
def side_packages():
    """Removes the two sides' packages from ``sys.modules`` afterwards."""
    yield
    sides = ("splitchain_parent", "splitchain_change")
    for name in [m for m in sys.modules if m.split(".")[0] in sides]:
        del sys.modules[name]


def test_interleaved_compares_a_tree_with_itself_seed_by_seed(
        bench_pairs, side_packages):
    tree = SCRIPT.parent.parent
    dont_write_bytecode = sys.dont_write_bytecode
    run = bench_pairs.interleaved({"parent": tree, "change": tree}, "growth",
                                  seeds=3, first=5)
    summary = run["summary"]
    assert summary["outputs_equal"] is True
    assert (summary["pairs"], summary["first_seed"]) == (3, 5)
    assert [len(run["cpu_ms"][side]) for side in ("parent", "change")] == [3, 3]
    assert 0 <= summary["change_won"] <= 3
    assert summary["pair_ratio_median"] > 0
    # each side ran its own copy of the package
    parent, change = (sys.modules[f"splitchain_{side}.scenario"]
                      for side in ("parent", "change"))
    assert parent is not change
    assert parent.run_scenario is not change.run_scenario
    assert sys.dont_write_bytecode == dont_write_bytecode  # left as it was


def test_alternate_runs_each_side_once_per_pair_first_side_alternating(
        bench_pairs):
    calls = []

    def measure(side, i):
        calls.append((side, i))
        return f"{side} {i}"

    runs = bench_pairs.alternate(measure, 4)
    assert calls == [("parent", 0), ("change", 0), ("change", 1),
                     ("parent", 1), ("parent", 2), ("change", 2),
                     ("change", 3), ("parent", 3)]
    assert [run["first"] for run in runs] == ["parent", "change"] * 2
    assert runs[1] == {"first": "change", "change": "change 1",
                       "parent": "parent 1"}


def test_compare_gives_a_verdict_only_when_a_bound_is_given(bench_pairs):
    parent = [10.0, 11.0, 12.0, 13.0]
    change = [9.0, 10.0, 11.5, 12.0]  # lower is better: every pair won
    plain = bench_pairs.compare(parent, change, False)
    assert "bound" not in plain and "verdict" not in plain
    assert (plain["change_won"], plain["pairs"]) == (4, 4)
    assert plain["parent_iqr"] == 1.5
    bounded = bench_pairs.compare(parent, change, False, 0.2)
    assert bounded == dict(plain, bound=0.2, verdict=bench_pairs.verdict(
        parent, change, False, 0.2))
    # summarise reads each key with its own direction and bound
    runs = [{"first": bench_pairs.pair_order(i)[0], "parent": {"t": p, "x": p},
             "change": {"t": c, "x": c}}
            for i, (p, c) in enumerate(zip(parent, change))]
    summary = bench_pairs.summarise(runs, {"t": (False, 0.2),
                                           "x": (True, None)})
    assert summary["t"] == bounded
    assert summary["x"]["change_won"] == 0 and "verdict" not in summary["x"]


def test_cold_start_probe_reads_each_pair(bench_pairs, monkeypatch):
    # hand-made runs: the change imports faster in 9 of 10 pairs
    def run(import_s, exit=0):
        return {"exit": exit, "import_s": import_s, "total_s": import_s + 1,
                "ref_import_s": 2 * import_s, "ref_total_s": 2 * import_s + 2}

    parents = [0.10, 0.12, 0.11, 0.10, 0.13, 0.10, 0.12, 0.11, 0.10, 0.09]
    changes = [0.08, 0.09, 0.08, 0.08, 0.10, 0.07, 0.09, 0.09, 0.08, 0.10]
    made = {"P": iter(map(run, parents)), "C": iter(map(run, changes))}
    monkeypatch.setattr(bench_pairs, "cold_start_run",
                        lambda tree: next(made[tree]))
    probe = bench_pairs.cold_start_probe({"parent": "P", "change": "C"}, 10)
    assert [r["first"] for r in probe["runs"]] == ["parent", "change"] * 5
    summary = probe["summary"]
    imports = summary["import_s"]
    assert imports["change_won"] == 9 and imports["pairs"] == 10
    assert imports["parent_median"] == round(statistics.median(parents), 4)
    assert imports["change_median"] == round(statistics.median(changes), 4)
    assert imports["parent_q1_q3"] == list(bench_pairs.quartiles(parents)[::2])
    assert "verdict" not in imports  # no bound, so no verdict
    assert summary["ref_total_s"]["change_won"] == 9
    assert summary["exits"] == [0]
    assert set(summary) == set(bench_pairs.COLD_START_KEYS) | {"exits"}


def test_exact_probe_reads_each_point_and_the_grid(
        bench_pairs, side_packages, monkeypatch):
    # hand-made times at n = 1000, whose default grid holds five points the
    # support decides and five open ones: the decided points both trees
    # answer at once, and the open ones the change walks 2-4x faster
    decided = [[0.02, 0.03, 0.02, 0.02], [0.01, 0.01, 0.03, 0.01]]
    quarter = [[3.0, 3.2, 2.8, 3.0], [1.0, 0.8, 0.7, 1.0]]
    two_fifths = [[4.0, 4.4, 4.0, 4.2], [2.0, 2.0, 1.9, 2.0]]
    times = {side: [[decided[s][i]] * 5 + [quarter[s][i]] * 4
                    + [two_fifths[s][i]] for i in range(4)]
             for s, side in enumerate(("parent", "change"))}
    calls = {}

    def exact_sweep_ms(analysis, n):
        side = analysis.__name__.split(".")[0].removeprefix("splitchain_")
        i = calls[side, n] = calls.get((side, n), -2) + 1  # -1: the warm-up
        return times[side][i] if n == 1000 and i >= 0 else [0.01] * 10

    monkeypatch.setattr(bench_pairs, "exact_sweep_ms", exact_sweep_ms)
    monkeypatch.setattr(bench_pairs, "EXACT_SIZES", (1000, 4))
    tree = SCRIPT.parent.parent
    probe = bench_pairs.exact_probe({"parent": tree, "change": tree}, 4)
    summary = probe["n=1000"]["summary"]
    points = summary["points"]
    assert [p["decided"] for p in points] == [True] * 5 + [False] * 5
    assert (points[0]["beta"], points[5]["beta"]) == ("0", "1/4")
    assert points[0]["change_won"] == 3  # one pair the change lost
    assert points[0]["parent_median"] == 0.02
    assert points[0]["change_median"] == 0.01
    assert points[5]["pair_ratio_median"] == round(statistics.median(
        [1 / 3, 0.25, 0.25, 1 / 3]), 4)
    assert points[5]["change_won"] == points[5]["pairs"] == 4
    assert points[9]["parent_median"] == 4.1
    assert points[9]["change_median"] == 2.0
    # the largest open-point ratio reads the least sped-up point
    assert points[9]["pair_ratio_median"] == round(statistics.median(
        [0.5, 2.0 / 4.4, 1.9 / 4.0, 2.0 / 4.2]), 4)
    assert summary["open_max_pair_ratio"] == points[9]["pair_ratio_median"]
    grid = summary["grid"]
    assert grid["parent_median"] == round(statistics.median(
        [sum(t) for t in times["parent"]]), 4)
    assert grid["change_won"] == 4 and "verdict" not in grid
    # at n = 4 the support decides every point, so no point is open
    assert probe["n=4"]["summary"]["open_max_pair_ratio"] is None


def test_shapes_equal_reads_kinds_chains_and_sizes_alone(
        bench_pairs, side_packages, monkeypatch):
    load_tree = bench_pairs.load_tree

    def summary(edit=None):
        """interleaved growth of this tree against itself, each run's first
        divide event's fields on the change side updated by ``edit``."""
        def loaded(tree, name, submodule="scenario"):
            module = load_tree(tree, name, submodule)
            run_scenario = module.run_scenario

            def edited(spec, seed):
                report = run_scenario(spec, seed=seed)
                events = list(report.events)
                i = next(k for k, e in enumerate(events) if e.kind == "divide")
                fields = dict(events[i].fields, **edit(events[i].fields))
                events[i] = dataclasses.replace(events[i], fields=fields)
                return dataclasses.replace(report, events=tuple(events))

            if edit is not None and name == "splitchain_change":
                module.run_scenario = edited
            return module

        monkeypatch.setattr(bench_pairs, "load_tree", loaded)
        tree = SCRIPT.parent.parent
        return bench_pairs.interleaved({"parent": tree, "change": tree},
                                       "growth", seeds=2, first=5)["summary"]

    assert summary()["shapes_equal"] is True
    moved = summary(lambda fields: {"n": fields["n"] + 1})
    assert (moved["outputs_equal"], moved["shapes_equal"]) == (False, False)
    faults = summary(lambda fields: {"f": fields["f"] + 1})
    assert (faults["outputs_equal"], faults["shapes_equal"]) == (False, True)


def test_one_alternation_loop_and_one_child_runner():
    # every pair runs through alternate, and every child through child
    found = []
    for top in ast.parse(SCRIPT.read_text()).body:
        for node in ast.walk(top):
            if (isinstance(node, (ast.Name, ast.Attribute)) and ast.unparse(
                    node) in ("pair_order", "subprocess.run")):
                found.append((ast.unparse(node), getattr(top, "name", None)))
    assert sorted(found) == [("pair_order", "alternate"),
                             ("subprocess.run", "child")]
