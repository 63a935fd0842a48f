"""Deterministic message scheduler and fault injection."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splitchain.crypto import derive_rng
from splitchain.errors import UnknownNode
from splitchain.netsim import Network, Scheduler, make_strategy

from helpers import reference_scheduler


def test_scheduler_orders_by_time_then_insertion():
    sched = Scheduler()
    log = []
    sched.at(5, log.append, "late")
    sched.at(1, log.append, "first")
    sched.at(1, log.append, "second")
    sched.run_until_idle()
    assert log == ["first", "second", "late"]
    assert sched.now == 5


def test_scheduler_rejects_past():
    sched = Scheduler()
    sched.at(3, lambda: None)
    sched.run_until_idle()
    with pytest.raises(ValueError):
        sched.at(1, lambda: None)


def test_scheduler_event_budget():
    sched = Scheduler()

    def rearm():
        sched.after(1, rearm)

    sched.after(1, rearm)
    with pytest.raises(RuntimeError, match="event budget"):
        sched.run_until_idle(max_events=100)


def test_run_until_stops_at_horizon():
    sched = Scheduler()
    log = []
    sched.at(3, log.append, 3)
    sched.at(9, log.append, 9)
    sched.run_until(5)
    assert log == [3]
    assert sched.now == 5
    assert not sched.idle


# A callback plan is a tuple of (delay, plan) pairs: the callback logs itself
# and schedules each child plan `delay` ticks later, 0 being the tick it
# runs in.
PLANS = st.recursive(
    st.just(()),
    lambda sub: st.lists(st.tuples(st.integers(0, 3), sub),
                         max_size=3).map(tuple),
    max_leaves=12)

CALLS = st.one_of(
    st.tuples(st.just("at"), st.integers(-2, 6), PLANS),  # time - now
    st.tuples(st.just("after"), st.integers(0, 6), PLANS),
    st.tuples(st.just("step")),
    st.tuples(st.just("run_until"), st.integers(-1, 8)),  # horizon - now
    st.tuples(st.just("run_until_idle"), st.integers(0, 12)),  # budget
)


def drive(sched, calls) -> list:
    """Apply `calls` to `sched`; log every callback run, what each call
    returned or raised, and the clock and idleness after it."""
    log = []
    labels = itertools.count()

    def schedule(time, plan, via_after):
        label = next(labels)

        def callback():
            log.append(("run", label, sched.now))
            for i, (delay, child) in enumerate(plan):
                schedule(sched.now + delay, child, (label + i) % 2 == 0)

        if via_after:
            sched.after(time - sched.now, callback)
        else:
            sched.at(time, callback)

    for call in calls:
        kind = call[0]
        before = len(log)
        try:
            if kind in ("at", "after"):
                result = schedule(sched.now + call[1], call[2],
                                  kind == "after")
            elif kind == "step":
                result = sched.step()
            elif kind == "run_until":
                result = sched.run_until(sched.now + call[1])
            else:
                result = sched.run_until_idle(max_events=call[1])
        except (ValueError, RuntimeError) as exc:
            result = (type(exc).__name__, len(log) - before)
        log.append((kind, result, sched.now, sched.idle))
    return log


@given(st.lists(CALLS, max_size=25))
@settings(max_examples=200, derandomize=True, deadline=None)
def test_scheduler_matches_the_heap_reference(calls):
    log = drive(Scheduler(), calls)
    assert log == drive(reference_scheduler(), calls)


def test_scheduler_runs_same_tick_callbacks_after_those_waiting():
    sched = Scheduler()
    log = []
    sched.at(1, lambda: (log.append("a"), sched.at(1, log.append, "c")))
    sched.at(1, log.append, "b")
    sched.at(2, log.append, "d")
    assert sched.run_until_idle() == 4
    assert log == ["a", "b", "c", "d"] and sched.idle and sched.now == 2


def net_pair(seed=0, d_min=1, d_max=1):
    net = Network(seed=seed, d_min=d_min, d_max=d_max)
    seen = []
    net.add_node(b"a", handler=lambda me, msg, now: seen.append((me, msg, now)))
    net.add_node(b"b", handler=lambda me, msg, now: seen.append((me, msg, now)))
    return net, seen


def test_send_counts_and_delivers_with_delay():
    net, seen = net_pair(d_min=2, d_max=2)
    net.send(b"a", b"b", "hello")
    assert net.messages_sent == 1
    net.run_until_idle()
    assert seen == [(b"b", "hello", 2)]


def test_delays_are_seeded_and_within_bounds():
    def trace(seed):
        net, seen = net_pair(seed=seed, d_min=1, d_max=5)
        for i in range(20):
            net.send(b"a", b"b", i)
        net.run_until_idle()
        return [(m, t) for (_, m, t) in seen]

    first = trace(42)
    assert trace(42) == first
    assert trace(43) != first
    assert all(1 <= t <= 5 for _, t in first)


def test_fixed_delay_lands_every_delivery_at_now_plus_d_min():
    net, seen = net_pair(seed=7, d_min=3, d_max=3)
    net.crash(b"b", 5)
    for i in range(4):
        net.send(b"a", b"b", i)
        net.send(b"b", b"a", i)
    net.sched.run_until(2)
    net.send(b"a", b"b", "dropped")  # lands at 5, when b has crashed
    net.send(b"b", b"a", "late")
    net.run_until_idle()
    assert seen == [(dst, i, 3) for i in range(4) for dst in (b"b", b"a")] \
        + [(b"a", "late", 5)]
    assert net.messages_sent == 10
    assert net.messages_dropped == 1


def test_random_delays_follow_the_seeded_stream_in_send_order():
    seed, d_min, d_max = 11, 1, 6
    net, seen = net_pair(seed=seed, d_min=d_min, d_max=d_max)
    sends = [(b"a", b"b"), (b"b", b"a"), (b"a", b"a")] * 10
    for i, (src, dst) in enumerate(sends):
        net.send(src, dst, i)
    net.run_until_idle()
    rng = derive_rng("net-delay", seed)
    expected = [rng.randint(d_min, d_max) for _ in sends]
    assert sorted((i, t) for _, i, t in seen) == list(enumerate(expected))
    assert [dst for dst, _, _ in seen] == [
        sends[i][1] for i, _ in sorted(enumerate(expected),
                                       key=lambda p: p[1])]
    assert net.messages_sent == len(sends)


def test_broadcast_includes_self_delivery():
    net, seen = net_pair()
    net.broadcast(b"a", [b"a", b"b"], "x")
    net.run_until_idle()
    assert net.messages_sent == 2
    assert sorted(row[0] for row in seen) == [b"a", b"b"]


def test_crashed_node_receives_nothing():
    net, seen = net_pair()
    net.crash(b"b", 0)
    net.send(b"a", b"b", "lost")
    net.run_until_idle()
    assert seen == []
    assert net.messages_dropped == 1
    assert net.node(b"b").crashed(net.now)


def test_crash_takes_effect_at_given_time():
    net, seen = net_pair(d_min=1, d_max=1)
    net.crash(b"b", 10)
    net.send(b"a", b"b", "early")  # delivered at t=1 < 10
    net.run_until_idle()
    net.sched.run_until(10)
    net.send(b"a", b"b", "late")
    net.run_until_idle()
    assert [m for (_, m, _) in seen] == ["early"]


def test_unknown_node_raises():
    net, _ = net_pair()
    with pytest.raises(UnknownNode):
        net.node(b"ghost")
    with pytest.raises(UnknownNode):
        net.send(b"a", b"ghost", "x")


@pytest.mark.parametrize("d_max", [1, 4])
@pytest.mark.parametrize("src,dst", [(b"ghost", b"b"), (b"a", b"ghost"),
                                     (b"ghost", b"phantom")])
def test_send_with_unknown_end_raises_and_counts_nothing(src, dst, d_max):
    net, seen = net_pair(d_min=1, d_max=d_max)
    with pytest.raises(UnknownNode, match=repr(src if src == b"ghost"
                                               else dst)):
        net.send(src, dst, "x")
    assert net.messages_sent == 0 and net.messages_dropped == 0
    assert net.sched.idle
    # the delay stream was not drawn from: the next send gets the first draw
    net.send(b"a", b"b", "y")
    net.run_until_idle()
    assert seen == [(b"b", "y", derive_rng("net-delay", 0).randint(1, d_max))]


def test_duplicate_node_rejected():
    net, _ = net_pair()
    with pytest.raises(ValueError):
        net.add_node(b"a")


def test_strategy_lookup():
    assert make_strategy("withhold").__class__.__name__ == "Withhold"
    assert make_strategy("badsig").__class__.__name__ == "BadSig"
    assert make_strategy("equivocate").__class__.__name__ == "Equivocate"
    with pytest.raises(ValueError):
        make_strategy("nonsense")


def test_byzantine_fault_carries_strategy():
    net, _ = net_pair()
    net.make_byzantine(b"a", make_strategy("withhold"))
    assert net.node(b"a").strategy is not None
    assert not net.node(b"a").crashed(net.now)
    assert net.node(b"b").strategy is None


def test_crash_at_a_past_tick_starts_now():
    net, seen = net_pair()
    net.sched.run_until(6)
    net.crash(b"b", 2)
    assert net.node(b"b").crash_at == 6
    net.send(b"a", b"b", "lost")
    net.run_until_idle()
    assert seen == [] and net.messages_dropped == 1


@pytest.mark.parametrize("crash_first", [True, False])
def test_last_fault_applied_wins(crash_first):
    net, _ = net_pair()
    strategy = make_strategy("badsig")
    if crash_first:
        net.crash(b"a", 3)
        net.make_byzantine(b"a", strategy)
    else:
        net.make_byzantine(b"a", strategy)
        net.crash(b"a", 3)
    node = net.node(b"a")
    net.sched.run_until(5)
    if crash_first:
        assert node.strategy is strategy and not node.crashed(net.now)
    else:
        assert node.strategy is None and node.crashed(net.now)
