"""The paired summary of scripts/bench_pairs.py, on hand-made runs."""

import importlib.util
import statistics
import subprocess
import sys
from fractions import Fraction
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
    assert (summary["seeds"], summary["first_seed"]) == (3, 5)
    assert [len(run["cpu_ms"][side]) for side in ("parent", "change")] == [3, 3]
    assert 0 <= summary["change_won"] <= 3
    assert summary["cpu_ratio_median"] > 0
    # each side ran its own copy of the package
    parent, change = (sys.modules[f"splitchain_{side}.scenario"]
                      for side in ("parent", "change"))
    assert parent is not change
    assert parent.run_scenario is not change.run_scenario
    assert sys.dont_write_bytecode == dont_write_bytecode  # left as it was


def test_cold_start_summary_reads_each_pair(bench_pairs):
    # hand-made runs: the change imports faster in 9 of 10 pairs
    def run(import_s, exit=0):
        return {"exit": exit, "import_s": import_s, "total_s": import_s + 1,
                "ref_import_s": 2 * import_s, "ref_total_s": 2 * import_s + 2}

    parents = [0.10, 0.12, 0.11, 0.10, 0.13, 0.10, 0.12, 0.11, 0.10, 0.09]
    changes = [0.08, 0.09, 0.08, 0.08, 0.10, 0.07, 0.09, 0.09, 0.08, 0.10]
    runs = [{"first": "parent", "parent": run(p), "change": run(c)}
            for p, c in zip(parents, changes)]
    summary = bench_pairs.cold_start_summary(runs)
    imports = summary["import_s"]
    assert imports["change_won"] == 9 and imports["pairs"] == 10
    assert imports["parent_median"] == round(statistics.median(parents), 4)
    assert imports["change_median"] == round(statistics.median(changes), 4)
    assert imports["parent_q1_q3"] == list(bench_pairs.quartiles(parents)[::2])
    assert summary["ref_total_s"]["change_won"] == 9
    assert summary["exits"] == [0]
    assert set(summary) == set(bench_pairs.COLD_START_KEYS) | {"exits"}


def test_exact_summary_reads_each_point_and_the_grid(bench_pairs):
    # hand-made runs of a three-point grid: a decided point both trees
    # answer at once, and two open points the change walks 2-4x faster
    points = [(Fraction(0), True), (Fraction(1, 4), False),
              (Fraction(2, 5), False)]
    parents = [[0.02, 3.0, 4.0], [0.03, 3.2, 4.4], [0.02, 2.8, 4.0],
               [0.02, 3.0, 4.2]]
    changes = [[0.01, 1.0, 2.0], [0.01, 0.8, 2.0], [0.03, 0.7, 1.9],
               [0.01, 1.0, 2.0]]
    runs = [{"first": bench_pairs.pair_order(i)[0], "parent": p, "change": c}
            for i, (p, c) in enumerate(zip(parents, changes))]
    summary = bench_pairs.exact_summary(runs, points)
    assert summary["pairs"] == 4
    decided, quarter, two_fifths = summary["points"]
    assert (decided["beta"], decided["decided"]) == ("0", True)
    assert decided["change_won"] == 3  # one pair the change lost
    assert decided["parent_ms"] == 0.02 and decided["change_ms"] == 0.01
    assert quarter["speedup"] == round(statistics.median(
        [3.0, 4.0, 4.0, 3.0]), 3)
    assert quarter["change_won"] == 4
    assert two_fifths["parent_ms"] == 4.1 and two_fifths["change_ms"] == 2.0
    # the least speedup over open points reads the slower of the two
    assert two_fifths["speedup"] == round(statistics.median(
        [2.0, 2.2, 4.0 / 1.9, 2.1]), 3)
    assert summary["open_min_speedup"] == two_fifths["speedup"]
    grid = summary["grid"]
    assert grid["parent_ms"] == round(statistics.median(
        [sum(p) for p in parents]), 4)
    assert grid["change_won"] == 4
    # a grid the support decides everywhere has no open point
    assert bench_pairs.exact_summary(
        runs, [(Fraction(0), True)] * 3)["open_min_speedup"] is None
