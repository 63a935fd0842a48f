"""Deterministic message delivery and fault injection."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splitchain.crypto import derive_rng
from splitchain.errors import UnknownNode
from splitchain.netsim import Network, make_strategy

from helpers import per_delivery, reference_network


def net_pair(seed=0, d_min=1, d_max=1):
    seen = []
    net = Network(per_delivery(lambda me, msg, now:
                               seen.append((me, msg, now))),
                  seed=seed, d_min=d_min, d_max=d_max)
    net.add_node(b"a")
    net.add_node(b"b")
    return net, seen


def test_scheduler_orders_by_time_then_insertion():
    seed, d_min, d_max = 5, 1, 3
    net, seen = net_pair(seed=seed, d_min=d_min, d_max=d_max)
    for i in range(12):
        net.send(b"a", b"b", i)
    assert net.run_until_idle() == 12
    rng = derive_rng("net-delay", seed)
    delays = [rng.randint(d_min, d_max) for _ in range(12)]
    # the stream makes a later send land earlier and two sends share a tick
    assert delays != sorted(delays) and len(set(delays)) < len(delays)
    assert [(i, t) for _, i, t in seen] == sorted(
        enumerate(delays), key=lambda row: (row[1], row[0]))
    assert net.now == max(delays)


def test_scheduler_event_budget():
    log = []  # ping-pong: each payload names the peer to answer
    net = Network(per_delivery(lambda me, peer, now: (log.append(me),
                                                      net.send(me, peer, me))))
    net.add_node(b"a")
    net.add_node(b"b")
    net.send(b"a", b"b", b"a")
    with pytest.raises(RuntimeError, match="event budget"):
        net.run_until_idle(max_events=100)
    # the delivery past the budget runs before the error is raised
    assert log == [b"b", b"a"] * 50 + [b"b"]
    assert net.now == 101
    assert net.run_until_idle() == 0  # the raise dropped the ping in flight


def test_the_clock_advances_only_while_nothing_is_in_flight():
    net, seen = net_pair(d_min=3, d_max=3)
    net.advance_to(2)
    net.send(b"a", b"b", "x")  # lands at 5
    with pytest.raises(RuntimeError, match="not idle"):
        net.advance_to(4)
    assert net.now == 2 and seen == []
    assert net.run_until_idle() == 1
    assert seen == [(b"b", "x", 5)]
    net.advance_to(4)  # never back
    assert net.now == 5
    net.advance_to(9)
    assert net.now == 9


NODES = (b"a", b"b", b"c")
RAISE = "raise"

# A delivery plan is a tuple of steps the handler takes in order once it has
# logged the delivery: (dst, plan) sends `plan` on to `dst`, (targets, plan)
# broadcasts it to a tuple of targets, and RAISE makes the handler raise
# there, which drops everything in flight.
TARGETS = st.lists(st.sampled_from(NODES), max_size=4).map(tuple)
PLANS = st.recursive(
    st.just(()),
    lambda sub: st.lists(st.tuples(st.sampled_from(NODES), sub)
                         | st.tuples(TARGETS, sub)
                         | st.just(RAISE), max_size=3).map(tuple),
    max_leaves=12)

CALLS = st.one_of(
    st.tuples(st.just("send"), st.sampled_from(NODES),
              st.sampled_from(NODES), PLANS),
    # targets may repeat and include the sender
    st.tuples(st.just("broadcast"), st.sampled_from(NODES), TARGETS, PLANS),
    st.tuples(st.just("crash"), st.sampled_from(NODES),
              st.integers(-2, 6)),  # at_time - now
    st.tuples(st.just("advance"), st.integers(-1, 8)),  # tick - now
    st.tuples(st.just("run_until_idle"), st.integers(0, 12)),  # budget
)


class Boom(Exception):
    pass


def drive(make_network, seed, d_max, calls, ignored=None) -> list:
    """Apply `calls` to a network of NODES, then drain it; log every
    delivery, what each call returned or raised, and the clock and counters
    after it. A delivery of a payload `ignored` accepts does nothing."""
    log = []
    labels = itertools.count()

    def handler(node_id, payload, now):
        if ignored is not None and ignored(payload):
            return
        label, plan = payload
        log.append(("deliver", node_id, label, now, net.now))
        for step in plan:
            if step == RAISE:
                raise Boom
            dst, child = step
            if isinstance(dst, tuple):
                net.broadcast(node_id, dst, (next(labels), child))
            else:
                net.send(node_id, dst, (next(labels), child))

    net = make_network(handler, seed=seed, d_min=1, d_max=d_max)
    for node in NODES:
        net.add_node(node)

    def apply(call):
        kind = call[0]
        before = len(log)
        try:
            if kind == "send":
                result = net.send(call[1], call[2], (next(labels), call[3]))
            elif kind == "broadcast":
                result = net.broadcast(call[1], call[2],
                                       (next(labels), call[3]))
            elif kind == "crash":
                result = net.crash(call[1], net.now + call[2])
            elif kind == "advance":
                result = net.advance_to(net.now + call[1])
            else:
                result = net.run_until_idle(max_events=call[1])
        except (Boom, RuntimeError) as exc:
            result = (type(exc).__name__, len(log) - before)
        log.append((kind, result, net.now, net.messages_sent,
                     net.messages_dropped))
        return result

    for call in calls:
        apply(call)
    while apply(("run_until_idle", 10**6)) != 0:  # a raise empties it
        pass
    return log


@given(st.sampled_from([1, 4]), st.integers(0, 3),
       st.lists(CALLS, min_size=5, max_size=25))
@settings(max_examples=200, derandomize=True, deadline=None)
def test_scheduler_matches_the_heap_reference(d_max, seed, calls):
    log = drive(lambda handler, **kw: Network(per_delivery(handler), **kw),
                seed, d_max, calls)
    assert log == drive(reference_network, seed, d_max, calls)


def every_third(payload) -> bool:
    return payload[0] % 3 == 0


@given(st.sampled_from([1, 4]), st.integers(0, 3),
       st.lists(CALLS, min_size=5, max_size=25))
@settings(max_examples=200, derandomize=True, deadline=None)
def test_entries_nobody_acts_on_match_the_heap_reference(d_max, seed, calls):
    # every third message gets no receiver, so _run settles its entry in
    # one pass: the same clock, counters, drops and budget raises as a
    # reference that delivers it one recipient at a time and does nothing
    log = drive(lambda handler, **kw: Network(
        per_delivery(handler, every_third), **kw), seed, d_max, calls,
        every_third)
    assert log == drive(reference_network, seed, d_max, calls, every_third)


def _ignored_broadcast(make_network, crashed, budget):
    """Broadcast a payload nobody acts on to a, b, c, a, b with `crashed`
    down, then a message that is acted on; run with `budget`, then drain.
    Returns what each run returned or raised, the log and the counters."""
    log = []

    def handler(node_id, payload, now):
        if payload != "ignored":
            log.append((node_id, payload, now))

    net = make_network(handler)
    for node in NODES:
        net.add_node(node)
    for node in crashed:
        net.crash(node, 0)
    net.broadcast(b"a", [b"a", b"b", b"c", b"a", b"b"], "ignored")
    net.send(b"a", b"b", "acted")
    results = []
    for max_events in (budget, 10**6):
        try:
            results.append(net.run_until_idle(max_events=max_events))
        except RuntimeError as exc:
            results.append(str(exc))
    return results, log, net.now, net.messages_sent, net.messages_dropped


@pytest.mark.parametrize("crashed", [(), (b"b",), (b"a", b"c")])
@pytest.mark.parametrize("budget", [0, 2, 4, 5, 6, 10])
def test_an_entry_nobody_acts_on_counts_its_crashed_recipients_as_drops(
        crashed, budget):
    # budgets 0-5 run out inside the ignored entry (or at the message after
    # it), so the per-recipient loop must raise at the same delivery as the
    # reference; 6 and 10 settle the entry in one pass
    def ignore(payload):
        return payload == "ignored"

    ours = _ignored_broadcast(
        lambda handler: Network(per_delivery(handler, ignore)), crashed,
        budget)
    assert ours == _ignored_broadcast(reference_network, crashed, budget)
    results, log, _, sent, dropped = ours
    # the broadcast's recipients, then "acted"'s; a budget raise drops
    # every delivery after the one that crossed it
    delivered = [b"a", b"b", b"c", b"a", b"b", b"b"][:budget + 1]
    assert sent == 6 and dropped == sum(node in crashed for node in delivered)
    assert log == [(b"b", "acted", 1)] * (
        len(delivered) == 6 and b"b" not in crashed)
    if budget < 6:
        assert "event budget" in results[0] and results[1] == 0


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
    net.run_until_idle()
    net.advance_to(2)  # never back: the clock stays at 3
    net.send(b"a", b"b", "dropped")  # lands at 6, when b has crashed
    net.send(b"b", b"a", "late")
    net.run_until_idle()
    assert seen == [(dst, i, 3) for i in range(4) for dst in (b"b", b"a")] \
        + [(b"a", "late", 6)]
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


@pytest.mark.parametrize("width", [*range(1, 10), 16, 17])
def test_delays_equal_randint_in_send_order(width):
    # send() draws randint's getrandbits stream itself; powers of two are
    # where its bit count (width.bit_length()) differs from width - 1's
    for d_min in (1, 3):
        d_max = d_min + width - 1
        for seed in range(4):
            net, seen = net_pair(seed=seed, d_min=d_min, d_max=d_max)
            for i in range(40):
                net.send(b"a", b"b", i)
            net.run_until_idle()
            rng = derive_rng("net-delay", seed)
            assert sorted((i, t) for _, i, t in seen) == [
                (i, rng.randint(d_min, d_max)) for i in range(40)]


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
    net.advance_to(10)
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
    assert net.run_until_idle() == 0  # nothing was queued
    # the delay stream was not drawn from: the next send gets the first draw
    net.send(b"a", b"b", "y")
    net.run_until_idle()
    assert seen == [(b"b", "y", derive_rng("net-delay", 0).randint(1, d_max))]


@pytest.mark.parametrize("d_max", [1, 4])
@pytest.mark.parametrize("src,targets", [
    (b"a", [b"a", b"ghost", b"b"]), (b"ghost", [b"a", b"b"]),
    (b"a", [b"b", b"b", b"ghost"])])
def test_broadcast_with_unknown_end_sends_nothing(src, targets, d_max):
    net, seen = net_pair(d_min=1, d_max=d_max)
    with pytest.raises(UnknownNode, match="ghost"):
        net.broadcast(src, targets, "x")
    assert net.messages_sent == 0 and net.messages_dropped == 0
    assert net.run_until_idle() == 0  # nothing was queued
    # the delay stream was not drawn from: the next send gets the first draw
    net.send(b"a", b"b", "y")
    net.run_until_idle()
    assert seen == [(b"b", "y", derive_rng("net-delay", 0).randint(1, d_max))]


def test_a_fixed_delay_broadcast_is_one_entry_dispatched_once():
    entries = []
    seen = []

    def handler(payload, now):
        entries.append((payload, now))
        return lambda node_id: seen.append((node_id, payload))

    net = Network(handler, d_min=2, d_max=2)
    for node in NODES:
        net.add_node(node)
    net.crash(b"c", 0)
    net.broadcast(b"a", [b"b", b"c", b"a", b"b"], "x")
    net.send(b"b", b"a", "y")
    assert net.messages_sent == 5
    assert [len(entry[0]) for entry in net._queues[2]] == [4, 1]
    assert net.run_until_idle() == 5  # every delivery counts, drops too
    assert entries == [("x", 2), ("y", 2)]
    assert seen == [(b"b", "x"), (b"a", "x"), (b"b", "x"), (b"a", "y")]
    assert net.messages_dropped == 1


def test_sends_of_one_payload_object_to_one_tick_share_an_entry():
    net, seen = net_pair()
    x, twin = ["x"], ["x"]  # equal, but distinct objects
    net.send(b"a", b"b", x)
    net.send(b"b", b"a", x)
    net.send(b"a", b"a", twin)
    net.send(b"a", b"b", x)
    assert [(len(recipients), payload is x)
            for recipients, payload in net._queues[1]] == [
        (2, True), (1, False), (1, True)]
    net.run_until_idle()
    assert [dst for dst, _, _ in seen] == [b"b", b"a", b"a", b"b"]


def test_a_payload_sent_again_at_a_later_tick_gets_its_own_entry():
    # send checks the entry it opened last first; the same payload object
    # sent again while its entry is delivered lands on a later tick, in an
    # entry of its own
    x = ["x"]
    entries, seen = [], []

    def handler(payload, now):
        entries.append(now)
        return lambda node_id: (seen.append((node_id, now)),
                                now < 6 and net.send(node_id, b"a", x))

    net = Network(handler, d_min=3, d_max=3)
    for node in NODES:
        net.add_node(node)
    net.send(b"a", b"b", x)  # lands at 3
    net.send(b"a", b"c", x)  # joins it
    assert [len(recipients) for recipients, _ in net._queues[3]] == [2]
    assert net.run_until_idle() == 4
    assert entries == [3, 6]
    assert seen == [(b"b", 3), (b"c", 3), (b"a", 6), (b"a", 6)]


def test_random_delay_broadcast_draws_per_recipient_in_target_order():
    seed, d_min, d_max = 3, 1, 4
    net, seen = net_pair(seed=seed, d_min=d_min, d_max=d_max)
    targets = [b"a", b"b"] * 6
    net.broadcast(b"a", targets, "x")
    rng = derive_rng("net-delay", seed)
    delays = [rng.randint(d_min, d_max) for _ in targets]
    # one entry per distinct tick
    assert sorted(net._queues) == sorted(set(delays))
    net.run_until_idle()
    assert seen == [(dst, "x", t) for t, _, dst in
                    sorted(zip(delays, range(len(targets)), targets))]


def _entry_network(handler):
    net = Network(per_delivery(handler))
    for node in NODES:
        net.add_node(node)
    return net


def test_a_raise_inside_an_entry_drops_everything_in_flight():
    log = []

    def handler(node_id, payload, now):
        log.append((node_id, payload, now))
        if payload == "x":
            if node_id == b"b":
                raise Boom
            net.send(node_id, b"c", "echo")  # lands at 2

    net = _entry_network(handler)
    net.broadcast(b"a", [b"a", b"b", b"c", b"a"], "x")
    net.send(b"a", b"c", "y")
    with pytest.raises(Boom):
        net.run_until_idle()
    assert log == [(b"a", "x", 1), (b"b", "x", 1)]
    assert net.messages_sent == 6 and net.now == 1
    # the rest of tick 1 and a's echo to tick 2 are gone
    assert net.run_until_idle() == 0
    # and the dropped echo's entry is no longer one a send can join
    net.send(b"a", b"b", "echo")
    assert net.run_until_idle() == 1
    assert log[2:] == [(b"b", "echo", 2)]


def test_a_budget_that_runs_out_inside_an_entry_drops_everything_in_flight():
    log = []
    net = _entry_network(lambda node_id, payload, now:
                         log.append((node_id, payload)))
    net.broadcast(b"a", [b"c", b"b", b"a", b"b"], "x")
    net.send(b"a", b"c", "y")
    with pytest.raises(RuntimeError, match="event budget"):
        net.run_until_idle(max_events=1)
    # the delivery past the budget runs before the error is raised
    assert log == [(b"c", "x"), (b"b", "x")]
    assert net.run_until_idle() == 0
    assert net.messages_sent == 5 and net.messages_dropped == 0


@pytest.mark.parametrize("nested", ["run_until_idle", "advance_to"])
def test_a_handler_may_not_run_the_network(nested):
    calls = []

    def handler(node_id, payload, now):
        calls.append(node_id)
        getattr(net, nested)(*(() if nested == "run_until_idle" else (9,)))

    net = _entry_network(handler)
    net.broadcast(b"a", [b"a", b"b"], "x")
    with pytest.raises(RuntimeError, match="already running" if nested ==
                       "run_until_idle" else "not idle"):
        net.run_until_idle()
    assert calls == [b"a"] and net.now == 1
    # the outer run ended cleanly: it dropped the rest of the entry, and
    # the network runs again
    net.handler = per_delivery(lambda node_id, payload, now:
                               calls.append(node_id))
    assert net.run_until_idle() == 0
    net.send(b"a", b"b", "y")
    assert net.run_until_idle() == 1
    assert calls == [b"a", b"b"] and net.now == 2


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
    net.advance_to(6)
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
    net.advance_to(5)
    if crash_first:
        assert node.strategy is strategy and not node.crashed(net.now)
    else:
        assert node.strategy is None and node.crashed(net.now)
