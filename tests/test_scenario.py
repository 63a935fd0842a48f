"""Scenario grammar and the grow/divide/fuse driver."""

import gc
import hashlib
import weakref
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from splitchain import cli
from splitchain.crypto import SignatureScheme
from splitchain.errors import ConfigError
from splitchain.manager import EVENT_FORMATS, Ecosystem, VoteRequest
from splitchain.model import replay
from splitchain.netsim import Network
from splitchain.scenario import (
    METRICS_HEADER,
    _Driver,
    parse_scenario,
    ratio_text,
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
    ("[chains]\nvalidators = 4\n", 1, "unknown section [chains]"),
    ("[chain a]\nvalidators = 4\n\n[faults]\na-v000 = flaky", 5, "fault"),
    ("[chain a]\nvalidators = 4\n[faults]\na-v001 = crash 5 banana", 4,
     "crash fault takes one optional tick, got 'crash 5 banana'"),
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
    ("[scenario]\nlookback = 0\n[chain a]", 2,
     "unknown [scenario] key 'lookback'"),
    ("[chain a]\nvalidators = 4\nn_max = 1", 1, "'a' needs n_max >= 2"),
    ("[chain a]\nvalidators = 4\nclients = -1\nassets = 1", 1,
     "'a' needs clients and assets >= 0"),
    ("[chain a]\nvalidators = 4\nclients = 2\nassets = -2", 1,
     "'a' needs clients and assets >= 0"),
    ("[chain a]\nvalidators = 4\nn_max = 8\n[join]\narrivals = -3", 4,
     "join arrivals must be >= 0"),
    ("[scenario]\nhorizon = -5\n[chain a]\nvalidators = 4", 1,
     "horizon must be >= 0"),
    ("[chain a]\n[chain b]\n[fuse]\nat = -3\nleft = a\nright = b", 3,
     "[fuse] at must be >= 0"),
    ("[chain a]\nvalidators = 4\nvalidators = 6", 3,
     "second [chain] key 'validators' (first on line 2)"),
    ("[scenario]\nseed = 1\n[chain a]\n[scenario]\nseed = 2", 5,
     "second [scenario] key 'seed' (first on line 2)"),
    ("[chain a]\nvalidators = 4\n[faults]\na-v001 = crash\n"
     "a-v001 = byzantine withhold", 5,
     "second fault for 'a-v001' (first on line 4)"),
    ("[chain a]\nvalidators = 4\n[faults]\na-v001 = crash 3\n[faults]\n"
     "a-v001 = crash 5", 6, "second fault for 'a-v001' (first on line 4)"),
    ("[chain a]\nvalidators = 4\n[faults]\na-v001 = crash -4", 4,
     "crash time must be >= 0, got -4"),
], ids=lambda v: repr(v)[:40])
def test_parse_errors_carry_line_numbers(source, lineno, fragment):
    with pytest.raises(ConfigError) as err:
        parse_scenario(source)
    assert f"line {lineno}:" in str(err.value)
    assert fragment in str(err.value)


@pytest.mark.parametrize("seed", [2**127, -2**127 - 1, 10**40])
def test_seed_outside_the_derivable_range_is_a_config_error(seed):
    source = f"[chain a]\nvalidators = 4\n[scenario]\nseed = {seed}\n"
    with pytest.raises(ConfigError) as err:
        parse_scenario(source)
    assert str(err.value) == (f"line 4: seed must lie in [-2**127,"
                              f" 2**127 - 1], got {seed}")


@pytest.mark.parametrize("seed", [2**127 - 1, -2**127])
def test_seeds_at_both_ends_of_the_range_run(seed):
    spec = parse_scenario(GROW_ONCE.replace("seed = 3", f"seed = {seed}"))
    assert spec.seed == seed
    report = run_scenario(spec)
    assert len(report.divisions) == 1
    assert report.metrics_csv() == run_scenario(spec).metrics_csv()


def test_empty_scenario_rejected():
    with pytest.raises(ConfigError, match="no chains"):
        parse_scenario("[scenario]\nseed = 1")


# --- runs ----------------------------------------------------------------------


def test_grow_to_trigger_divides_exactly_once():
    report = run_scenario(GROW_ONCE)
    assert len(report.divisions) == 1
    assert [(n, f) for _, n, f in report.final_chains] == [(10, 0), (10, 0)]
    assert report.divisions[0].fields["n"] == 20
    assert report.divisions[0].fields["f"] == 0
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
    assert report.divisions[0].fields["n"] == 20
    assert report.divisions[0].fields["n_birth"] == 20  # none joined
    assert [r[1] for r in report.metrics] == ["root.1", "root.2"]


def test_a_child_born_at_or_above_its_trigger_divides_at_once():
    # 40 at trigger 10 splits into 20s, each 20 into 10s and each 10 into
    # 5s, all before the one arrival, which lands on a chain of 5
    report = run_scenario("""
[chain a]
validators = 40
n_max = 10

[join]
arrivals = 1
""")
    assert [e.fields["n"] for e in report.divisions] == [40, 20, 10, 10,
                                                         20, 10, 10]
    assert sorted(n for _, n, _ in report.final_chains) == [5] * 7 + [6]
    assert report.messages_total == 2920


def test_division_record_counts_founders_faulted_in_the_fault_plan():
    # the crash is applied after the chain is created, yet a-v001 is a
    # faulty founder: f_birth counts it, and the honest joins add none
    report = run_scenario("""
[chain a]
validators = 4
n_max = 8

[join]
arrivals = 4
beta = 0

[faults]
a-v001 = crash 100
""")
    (divide,) = report.divisions
    fields = divide.fields
    assert (fields["n_birth"], fields["f_birth"]) == (4, 1)
    assert (fields["n"], fields["f"]) == (8, 1)


UNCOUNTED_BIRTHS = """
[chain a]
validators = 4
faulty = 1
alpha = 1/2

[chain b]
validators = 4
faulty = 2
alpha = 1/3
kind = bft

[fuse]
at = 1
left = a
right = b
"""


def test_every_birth_at_its_bound_is_counted():
    # b is created at 2 of 4 faulty against alpha 1/3, and a+b fuses at
    # 3 of 8 against min(1/2, 1/3); a, at 1 of 4 against 1/2, is not
    report = run_scenario(UNCOUNTED_BIRTHS)
    assert report.bound_violations == ((b"b", 4, 2, True),
                                       (b"a+b", 8, 3, True))
    assert report.events_log() == ("[0] create chain=a n=4\n"
                                   "[0] create chain=b n=4\n"
                                   "[1] fuse a+b -> a+b alpha=1/3\n")


def test_a_root_faulted_by_the_fault_plan_counts_at_its_birth():
    # the [faults] lines flag c-v000 and c-v001 before c is created, so
    # its create event holds f = 2 of 4, at alpha 1/2's bound
    report = run_scenario("""
[chain c]
validators = 4

[faults]
c-v000 = crash 100
c-v001 = byzantine withhold
""")
    (create,) = report.events
    assert (create.fields["n"], create.fields["f"]) == (4, 2)
    assert report.bound_violations == ((b"c", 4, 2, True),)


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


def test_ratio_text_is_the_fractions_text():
    # metrics.csv's beta column, written without building a Fraction
    for n in range(1, 301):
        for f in range(n + 1):
            assert ratio_text(f, n) == str(Fraction(f, n))


def test_rebalancing_identity_exact_across_generations():
    text = open("src/splitchain/scenarios/figure1.mit").read()
    for seed in (0, 4, 9):
        report = run_scenario(text, seed=seed)
        assert len(report.divisions) == 7
        assert len(report.final_chains) == 8
        assert all(n == 10 for _, n, _ in report.final_chains)
        beta_join = Fraction(1, 5)
        for divide in report.divisions:
            d = divide.fields
            assert d["n"] - d["n_birth"] == 10 and d["f"] - d["f_birth"] == 2
            assert Fraction(d["f"], d["n"]) == (
                Fraction(d["f_birth"], d["n_birth"]) + beta_join) / 2


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
    (fuse,) = (e for e in report.events if e.kind == "fuse")
    assert fuse.fields == {"left": b"a", "right": b"b", "merged": b"ab",
                           "alpha": Fraction(1, 3), "n": 6, "f": 0}
    # `text in event` searches its events.log line, as the benchmark's
    # fusion count does
    assert fuse.line == "[5] fuse a+b -> ab alpha=1/3"
    assert "] fuse " in fuse and "failed" not in fuse


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
    assert ("[4] fusion a+b failed: 0 of 1 required signatures"
            in report.events_log().splitlines())
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
    assert ("[2] fusion B+C failed: chain A.1 already exists"
            in report.events_log().splitlines())
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
    assert ("[0] division of a failed: chain a.1 already exists"
            in report.events_log().splitlines())
    assert [(cid, n) for cid, n, _ in report.final_chains] == [(b"a", 4),
                                                              (b"a.1", 3)]
    assert report.messages_total == 0 and not report.divisions
    assert report.stalled is None and not report.safety_violations


def test_failed_division_adds_no_division_record():
    # a taken child id is never freed, so later arrivals to a do not retry
    report = run_scenario(DIVIDE_INTO_TAKEN_CHILD + """
[join]
arrivals = 6
target = smallest
""")
    failed = [e for e in report.events if e.kind == "division-failed"]
    assert len(failed) == 1
    assert not report.divisions


EVERY_VALIDATOR_CRASHED_AT_TRIGGER = """
[chain a]
validators = 2
n_max = 2

[faults]
a-v000 = crash 0
a-v001 = crash 0
"""


def test_division_at_trigger_with_every_validator_crashed_is_skipped():
    report = run_scenario(EVERY_VALIDATOR_CRASHED_AT_TRIGGER)
    assert report.events_log().splitlines()[1:] == [
        "[0] chain a at trigger but every validator is crashed;"
        " skipping division"]
    assert not report.divisions


FUSE_AFTER_LEFT_DIVIDED = """
[chain a]
validators = 4
n_max = 4

[chain b]
validators = 2

[fuse]
at = 1
left = a
right = b
"""


def test_fusion_of_a_divided_chain_is_skipped():
    # a divides at start, so it is no longer live when the fusion comes
    report = run_scenario(FUSE_AFTER_LEFT_DIVIDED)
    assert report.events_log().splitlines()[-1] == (
        "[2] fusion a+b skipped: not both live")
    assert sorted(cid for cid, _, _ in report.final_chains) == [
        b"a.1", b"a.2", b"b"]


def test_skipped_fusion_names_a_chain_as_every_other_line_does():
    # a non-ASCII name prints as its id's hex, in the fusion line too
    report = run_scenario(FUSE_AFTER_LEFT_DIVIDED.replace("chain a]",
                                                          "chain é]")
                          .replace("left = a", "left = é"))
    lines = report.events_log().splitlines()
    assert lines[0] == "[0] create chain=c3a9 n=4"
    assert lines[-1] == "[2] fusion c3a9+b skipped: not both live"


STALL_AT_FIRST_JOIN = """
[chain root]
validators = 4
alpha = 1/2

[join]
arrivals = 1

[faults]
root-v001 = crash 0
root-v002 = crash 0
root-v003 = crash 0
"""


def test_every_event_kind_is_emitted_and_has_a_format(monkeypatch, tmp_path,
                                                      capsys):
    kinds = set()
    emit = Ecosystem._emit

    def recording(eco, kind, **fields):
        kinds.add(kind)
        return emit(eco, kind, **fields)

    monkeypatch.setattr(Ecosystem, "_emit", recording)
    for path, seed in PINNED:
        run_scenario(path.read_text(), seed=seed)
    for text in (EVERY_VALIDATOR_CRASHED_AT_TRIGGER, FUSE_AFTER_LEFT_DIVIDED,
                 FUSE_WITHOUT_QUORUM, DIVIDE_INTO_TAKEN_CHILD,
                 STALL_AT_FIRST_JOIN):
        run_scenario(text)
    assert cli.main(["divide-demo", "--validators", "7", "--alpha", "1/3",
                     "--seed", "2"]) == 0
    assert cli.main(["xfer-demo", "--seed", "0", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    # no valid scenario reaches a divergence until ROADMAP item 1a makes
    # safety able to fail, so nothing here emits `safety` (test_cli's exit-3
    # test renders one)
    assert kinds == EVENT_FORMATS.keys() - {"safety"}


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

# sha256 of metrics.csv, lineage.csv and events.log, the messages dropped,
# and the calls of SignatureScheme.sign, SignatureScheme.verify,
# Network.send and Ecosystem.respond: a change to delivery order, to what
# any handler does, or to which calls a check makes fails here and not only
# in the benchmark. The call counts also keep every signature and send on
# the methods the benchmark's tracer patches: each message on the wire
# (Network.messages_sent) is one Network.send call, broadcasts included.
# Respond answers only crashed and Byzantine validators, for every request
# kind, and a commit round asks it only once the correct votes fall short
# of quorum, so figure1, which has no active fault, never calls it, and
# adversarial calls it only for its fusion's crashed or Byzantine shares.
PINNED = {
    (FIGURE1, 0): (
        "030c4f3381317f9ea01171f7e3397902509f40e0e115445f8d1ef191bf92cc31",
        "de5bfaab1316d9e2bffb396011a4e06c030e2ab504e281da96f8113242fdb8b1",
        "98d9a320db3c89fb68a75b9b9160f2d40bb7092a23c577ee9ba8a279bb29df1c",
        0, 665, 595, 2940, 0),
    (FIGURE1, 1): (
        "fbf07d327f75af138c2f9a89d1bf394f56b9114fbef21e8a52f3eaffd891b5ab",
        "de5bfaab1316d9e2bffb396011a4e06c030e2ab504e281da96f8113242fdb8b1",
        "7ded2e4adccfbb2085f62da5f049083f2d516bc082b041155514ebcc3366362d",
        0, 665, 595, 2940, 0),
    (FIGURE1, 2): (
        "fadf163347b149bb5ce83f5496d3b120db219e5bb7e766d7e18fc0faee3636e8",
        "de5bfaab1316d9e2bffb396011a4e06c030e2ab504e281da96f8113242fdb8b1",
        "33d1de6df2a81955c56550cd61469a1a412164e34924564282dbaa366ad515ae",
        0, 665, 595, 2940, 0),
    (ADVERSARIAL, 0): (
        "aaab55c0177290a260c0470d7936461ff5817e6a629c06f762a8839b5f672037",
        "23177ac0ecc72be75556a2571b6d143ea4a177ab4898c133ca80d0bc69b6075b",
        "11360f891f63869a329e557baf3a3eb0fe60058d6d33cd65b56f0da1fc959c97",
        44, 2937, 2922, 6624, 5),
}

COUNTED = ((SignatureScheme, "sign"), (SignatureScheme, "verify"),
           (Network, "send"), (Ecosystem, "respond"))


def _counted(calls, name, method):
    def counted(*args, **kwargs):
        calls[name] += 1
        return method(*args, **kwargs)
    return counted


@pytest.mark.parametrize("path,seed", sorted(PINNED),
                         ids=lambda v: getattr(v, "stem", v))
def test_scenario_outputs_are_pinned(path, seed, monkeypatch):
    calls = Counter()
    for owner, name in COUNTED:
        monkeypatch.setattr(owner, name,
                            _counted(calls, name, getattr(owner, name)))
    driver = _Driver(parse_scenario(path.read_text()), seed)
    report = driver.run()
    digests = tuple(hashlib.sha256(text.encode()).hexdigest() for text in (
        report.metrics_csv(), report.lineage_csv(), report.events_log()))
    network = driver.eco.network
    assert digests + (network.messages_dropped,) + tuple(
        calls[name] for _, name in COUNTED) == PINNED[path, seed]
    assert network.messages_sent == calls["send"]


def test_respond_answers_only_crashed_or_byzantine_validators(monkeypatch):
    # a correct validator's commit vote, division ACK and certificate share
    # are its own key's tags; respond is asked only for the others, and for
    # a commit vote only once the correct votes fall short of quorum, which
    # no round of this scenario does
    asked = Counter()
    respond = Ecosystem.respond

    def recording(eco, validator, request):
        node = eco.network.nodes[validator]
        correct = (eco.network.now < node.crash_at
                   and node.strategy is None)
        if isinstance(request, VoteRequest):
            asked[correct, "vote"] += 1
        elif request.statement.startswith(b"divide"):
            asked[correct, "ack"] += 1
        else:
            asked[correct, "share"] += 1
        return respond(eco, validator, request)

    monkeypatch.setattr(Ecosystem, "respond", recording)
    _Driver(parse_scenario(ADVERSARIAL.read_text()), 0).run()
    assert not any(asked[True, kind] for kind in ("vote", "ack", "share"))
    assert asked[False, "vote"] == 0
    # only the fusion's crashed or Byzantine shares ask respond
    assert asked[False, "share"] == PINNED[ADVERSARIAL, 0][-1] > 0
    assert sum(asked.values()) == PINNED[ADVERSARIAL, 0][-1]


@pytest.mark.parametrize("path,seed", sorted(PINNED),
                         ids=lambda v: getattr(v, "stem", v))
def test_replay_rebuilds_every_chains_state(path, seed):
    # replay is the reference for the state a chain is born with and then
    # advances by commits: full equality, lineage fields included, for every
    # chain a root, a division or a fusion made
    driver = _Driver(parse_scenario(path.read_text()), seed)
    driver.run()
    eco = driver.eco
    sims = list(eco.chains.values()) + list(eco.retired.values())
    assert len(sims) > 1
    # adversarial.mit fuses two chains; figure1 has no fusion
    assert any(len(sim.parents) == 2 for sim in sims) == (path == ADVERSARIAL)
    for sim in sims:
        assert replay(sim.ledger) == sim.state, sim.chain_id


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
