"""Scenario grammar and the grow/divide/fuse driver."""

import gc
import hashlib
import weakref
from fractions import Fraction
from pathlib import Path

import pytest

from splitchain.errors import ConfigError
from splitchain.scenario import (
    METRICS_HEADER,
    _Driver,
    parse_scenario,
    run_scenario,
)

REPO = Path(__file__).resolve().parent.parent
FIGURE1 = REPO / "src" / "splitchain" / "scenarios" / "figure1.mit"
ADVERSARIAL = REPO / "bench" / "adversarial.mit"  # d_max = 3, drops, a fusion

GROW_ONCE = """
[scenario]
seed = 3

[chain root]
validators = 10
alpha = 1/2
n_max = 20

[join]
arrivals = 10
beta = 0
block = 1
"""


# --- parsing ------------------------------------------------------------------


def test_parse_full_scenario():
    spec = parse_scenario("""
# comment line
[scenario]
seed = 9
d_min = 1
d_max = 3
assignment = deterministic

[chain a]
validators = 4     # trailing comment
clients = 2
assets = 2
alpha = 1/3
kind = bft
n_max = 8

[chain b]
validators = 3

[join]
arrivals = 5
interval = 2
beta = 1/5
block = 10

[fuse]
at = 40
left = a
right = b

[faults]
a-v001 = crash 7
a-v002 = byzantine withhold
""")
    assert spec.seed == 9 and spec.d_max == 3
    assert spec.assignment == "deterministic"
    assert [c.name for c in spec.chains] == ["a", "b"]
    assert spec.chains[0].alpha == Fraction(1, 3)
    assert spec.chains[0].assets == 2
    assert spec.join.interval == 2 and spec.join.beta == Fraction(1, 5)
    assert spec.fuses[0].left == "a" and spec.fuses[0].at == 40
    assert [(f.user, f.kind, f.at_time, f.strategy) for f in spec.faults] == [
        ("a-v001", "crash", 7, ""), ("a-v002", "byzantine", 0, "withhold")]


@pytest.mark.parametrize("source, lineno, fragment", [
    ("[chain]\nvalidators = 4", 1, "needs a name"),
    ("[scenario]\nbogus = 1", 2, "unknown [scenario] key"),
    ("[chain a]\ncolour = red", 2, "unknown [chain] key 'colour'"),
    ("[join]\nrate = 2", 2, "unknown [join] key 'rate'"),
    ("[fuse]\nwhen = 2", 2, "unknown [fuse] key 'when'"),
    ("[scenario]\nassignment = sorted", 2,
     "assignment must be randomized or deterministic"),
    ("[chain a]\nkind = pow", 2, "kind must be cft or bft"),
    ("[join]\ntarget = largest", 2,
     "target must be round-robin or smallest"),
    ("[chain a]\nvalidators = soon", 2, "integer"),
    ("[chain a]\nalpha = huh", 2, "rational"),
    ("[chain a]\nvalidators = 4\n[chain a]\nvalidators = 4", 3, "duplicate"),
    ("validators = 4", 1, "before any section"),
    ("[chain a]\nvalidators 4", 2, "key = value"),
    ("[mystery]\nx = 1", 1, "unknown section"),
    ("[chain a]\nvalidators = 4\n\n[faults]\na-v000 = flaky", 5, "fault"),
    ("[chain a]\nvalidators = 4\n[join]\narrivals = 5\nbeta = 1/3\nblock = 10",
     3, "integer"),
    ("[chain a]\nvalidators = 4\nassets = 1", 1, "no clients"),
    ("[chain a]\nvalidators = 4\n[fuse]\nat = 1\nleft = a\nright = ghost",
     3, "unknown chain"),
    ("[chain a]\nvalidators = 4\n[fuse]\nat = 1\nleft = a\nright = a",
     3, "with itself"),
    ("[chain a]\n[chain b]\n[chain c]\n[fuse]\nleft = a\nright = b\n"
     "merged = c", 4, "already taken"),
    ("[chain a]\n[chain b]\n[chain c]\n[chain d]\n"
     "[fuse]\nleft = a\nright = b\nmerged = m\n"
     "[fuse]\nleft = c\nright = d\nmerged = m", 9, "already taken"),
    ("[chain a]\n[chain b]\n[chain a+b]\n[fuse]\nleft = a\nright = b",
     4, "'a+b' is already taken"),
    ("[chain a]\n[chain b]\n[fuse]\nleft = a\nright = b\n"
     "[fuse]\nleft = a\nright = b", 6, "'a+b' is already taken"),
    ("[chain a]\nvalidators = 4\nalpha = 2/3", 1, "alpha"),
    ("[scenario]\nlookback = 0\n[chain a]", 1, "lookback must be >= 1"),
    ("[chain a]\nvalidators = 4\nn_max = 1", 1, "'a' needs n_max >= 2"),
], ids=lambda v: repr(v)[:40])
def test_parse_errors_carry_line_numbers(source, lineno, fragment):
    with pytest.raises(ConfigError) as err:
        parse_scenario(source)
    assert f"line {lineno}:" in str(err.value)
    assert fragment in str(err.value)


def test_empty_scenario_rejected():
    with pytest.raises(ConfigError, match="no chains"):
        parse_scenario("[scenario]\nseed = 1")


# --- runs ----------------------------------------------------------------------


def test_grow_to_trigger_divides_exactly_once():
    report = run_scenario(GROW_ONCE)
    assert len(report.divisions) == 1
    assert [(n, f) for _, n, f in report.final_chains] == [(10, 0), (10, 0)]
    assert report.divisions[0].n == 20 and report.divisions[0].f == 0
    assert report.bound_violations == ()
    assert report.safety_violations == ()


def test_chain_created_at_trigger_divides_before_arrivals():
    report = run_scenario("""
[chain root]
validators = 20
alpha = 1/2
n_max = 20
""")
    assert len(report.divisions) == 1
    assert [(cid, n) for cid, n, _ in report.final_chains] == [
        (b"root.1", 10), (b"root.2", 10)]
    assert report.doublings[0].n_division == 20
    assert report.doublings[0].joined == 0
    assert [r[1] for r in report.metrics] == ["root.1", "root.2"]


def test_metrics_rows_track_growth():
    report = run_scenario(GROW_ONCE)
    root_rows = [r for r in report.metrics if r[1] == "root"]
    assert root_rows[0][2] == 10  # size at tick 0
    assert [r[2] for r in root_rows] == sorted(r[2] for r in root_rows)
    assert root_rows[-1][2] == 19  # sampled just before the dividing join
    child_rows = [r for r in report.metrics if r[1] == "root.1"]
    assert child_rows and all(r[2] == 10 for r in child_rows)
    header_width = len(METRICS_HEADER)
    assert all(len(r) == header_width for r in report.metrics)


def test_rebalancing_identity_exact_across_generations():
    text = open("src/splitchain/scenarios/figure1.mit").read()
    for seed in (0, 4, 9):
        report = run_scenario(text, seed=seed)
        assert len(report.divisions) == 7
        assert len(report.final_chains) == 8
        assert all(n == 10 for _, n, _ in report.final_chains)
        beta_join = Fraction(1, 5)
        for d in report.doublings:
            assert d.joined == 10 and d.joined_faulty == 2
            assert d.beta_division == (d.beta_birth + beta_join) / 2


def test_same_seed_same_bytes():
    text = open("src/splitchain/scenarios/figure1.mit").read()
    a = run_scenario(text, seed=6)
    b = run_scenario(text, seed=6)
    assert a.metrics_csv() == b.metrics_csv()
    assert a.lineage_csv() == b.lineage_csv()
    assert a.events_log() == b.events_log()
    c = run_scenario(text, seed=7)
    assert c.metrics_csv() != a.metrics_csv()


def test_lineage_csv_lists_roots_and_children():
    report = run_scenario(GROW_ONCE)
    lines = report.lineage_csv().strip().splitlines()
    assert lines[0] == "chain_id,parent_id,side,split_height"
    assert "root,,0,0" in lines[1:]
    assert any(line.startswith("root.1,root,1,") for line in lines)
    assert any(line.startswith("root.2,root,2,") for line in lines)


def test_scheduled_crash_is_applied():
    report = run_scenario("""
[chain solo]
validators = 4
n_max = 64

[faults]
solo-v003 = crash 0
""")
    assert [(n, f) for _, n, f in report.final_chains] == [(4, 1)]


def test_initial_faulty_are_flagged_not_strategic():
    report = run_scenario("""
[chain solo]
validators = 10
faulty = 3
n_max = 64
""", seed=2)
    assert report.final_chains[0][2] == 3
    assert report.metrics[0][4] == "3/10"


def test_fusion_scenario_merges_and_takes_min_alpha():
    report = run_scenario("""
[chain a]
validators = 3
alpha = 1/3
kind = bft
n_max = 64

[chain b]
validators = 3
alpha = 1/2
n_max = 64

[fuse]
at = 5
left = a
right = b
merged = ab
""")
    assert [(cid, n) for cid, n, _ in report.final_chains] == [(b"ab", 6)]
    assert any("fuse" in e or "ab" in e for e in report.events)


FUSE_WITHOUT_QUORUM = """
[chain a]
validators = 2
n_max = 64

[chain b]
validators = 3
n_max = 64

[faults]
a-v000 = crash 1
a-v001 = crash 1

[fuse]
at = 4
left = a
right = b
merged = ab
"""


def test_fusion_without_quorum_is_logged_and_both_chains_stay():
    report = run_scenario(FUSE_WITHOUT_QUORUM)
    assert "[4] fusion a+b failed: 0 of 1 required signatures" in report.events
    assert [(cid, n) for cid, n, _ in report.final_chains] == [(b"a", 2),
                                                              (b"b", 3)]
    assert report.stalled is None and not report.safety_violations


FUSE_INTO_DIVIDED_CHILD = """
[chain A]
validators = 4
n_max = 4

[chain B]
validators = 3
n_max = 64

[chain C]
validators = 3
n_max = 64

[fuse]
at = 2
left = B
right = C
merged = A.1
"""


def test_fusion_into_a_taken_runtime_id_is_logged_and_both_chains_stay():
    # A divides at start, so its child A.1 owns the merged id by tick 2
    report = run_scenario(FUSE_INTO_DIVIDED_CHILD)
    assert ("[2] fusion B+C failed: chain b'A.1' already exists"
            in report.events)
    assert sorted(cid for cid, _, _ in report.final_chains) == [
        b"A.1", b"A.2", b"B", b"C"]
    assert report.stalled is None and not report.safety_violations


DIVIDE_INTO_TAKEN_CHILD = """
[chain a]
validators = 4
n_max = 4

[chain a.1]
validators = 3
"""


def test_division_into_a_taken_child_id_is_logged_and_both_chains_stay():
    # a starts at its trigger, but its child id a.1 is a declared chain
    report = run_scenario(DIVIDE_INTO_TAKEN_CHILD)
    assert ("[0] division of a failed: chain b'a.1' already exists"
            in report.events)
    assert [(cid, n) for cid, n, _ in report.final_chains] == [(b"a", 4),
                                                              (b"a.1", 3)]
    assert report.messages_total == 0 and not report.divisions
    assert report.stalled is None and not report.safety_violations


def test_failed_division_adds_no_doubling_row():
    # a taken child id is never freed, so later arrivals to a do not retry
    report = run_scenario(DIVIDE_INTO_TAKEN_CHILD + """
[join]
arrivals = 6
target = smallest
""")
    failed = [e for e in report.events if "division of a failed" in e]
    assert len(failed) == 1
    assert not report.divisions and report.doublings == ()


def test_unknown_fault_user_is_a_config_error():
    with pytest.raises(ConfigError, match="unknown user"):
        run_scenario("""
[chain a]
validators = 4

[faults]
ghost = crash
""")


def test_join_blocks_carry_exact_faulty_count():
    report = run_scenario("""
[chain root]
validators = 10
alpha = 1/2
n_max = 100

[join]
arrivals = 40
beta = 1/4
block = 8
""", seed=5)
    (_, n, f), = report.final_chains
    assert n == 50
    assert f == 10  # 5 full blocks of 8, exactly 2 faulty each


# --- pinned outputs and memory ------------------------------------------------

# sha256 of metrics.csv, lineage.csv and events.log, and the messages
# dropped: a change to delivery order, or to what any handler does, fails
# here and not only in the benchmark's hash check.
PINNED = {
    (FIGURE1, 0): (
        "030c4f3381317f9ea01171f7e3397902509f40e0e115445f8d1ef191bf92cc31",
        "de5bfaab1316d9e2bffb396011a4e06c030e2ab504e281da96f8113242fdb8b1",
        "98d9a320db3c89fb68a75b9b9160f2d40bb7092a23c577ee9ba8a279bb29df1c",
        0),
    (FIGURE1, 1): (
        "fbf07d327f75af138c2f9a89d1bf394f56b9114fbef21e8a52f3eaffd891b5ab",
        "de5bfaab1316d9e2bffb396011a4e06c030e2ab504e281da96f8113242fdb8b1",
        "7ded2e4adccfbb2085f62da5f049083f2d516bc082b041155514ebcc3366362d",
        0),
    (FIGURE1, 2): (
        "fadf163347b149bb5ce83f5496d3b120db219e5bb7e766d7e18fc0faee3636e8",
        "de5bfaab1316d9e2bffb396011a4e06c030e2ab504e281da96f8113242fdb8b1",
        "33d1de6df2a81955c56550cd61469a1a412164e34924564282dbaa366ad515ae",
        0),
    (ADVERSARIAL, 0): (
        "aaab55c0177290a260c0470d7936461ff5817e6a629c06f762a8839b5f672037",
        "23177ac0ecc72be75556a2571b6d143ea4a177ab4898c133ca80d0bc69b6075b",
        "11360f891f63869a329e557baf3a3eb0fe60058d6d33cd65b56f0da1fc959c97",
        44),
}


@pytest.mark.parametrize("path,seed", sorted(PINNED),
                         ids=lambda v: getattr(v, "stem", v))
def test_scenario_outputs_are_pinned(path, seed):
    driver = _Driver(parse_scenario(path.read_text()), seed)
    report = driver.run()
    digests = tuple(hashlib.sha256(text.encode()).hexdigest() for text in (
        report.metrics_csv(), report.lineage_csv(), report.events_log()))
    assert digests + (driver.eco.network.messages_dropped,) == \
        PINNED[path, seed]


@pytest.mark.parametrize("path", [FIGURE1, ADVERSARIAL],
                         ids=lambda p: p.stem)
def test_finished_run_is_freed_by_refcount(path):
    spec = parse_scenario(path.read_text())
    gc.collect()
    gc.disable()
    try:
        driver = _Driver(spec, 0)
        report = driver.run()
        eco = weakref.ref(driver.eco)
        del driver, report
        assert eco() is None
        assert gc.collect() == 0  # nothing was left for the collector
    finally:
        gc.enable()
