"""Deterministic discrete-event network with fault injection.

Time is a logical tick counter. Deliveries are scheduled through a seeded
delay model and processed by tick, in send order within a tick, so a
(topology, seed) pair fully determines every run. Nodes are dumb mailboxes:
protocol behavior lives in the handler each node is registered with, and
fault status (crash schedule, Byzantine strategy) is consulted by those
handlers and by the delivery loop.
"""

import heapq
import math
from collections import deque
from dataclasses import dataclass

from .crypto import derive_rng
from .errors import UnknownNode
from .model import sha256


class Scheduler:
    """Timed callbacks run in (time, insertion) order: one FIFO per tick.

    A calendar queue (Brown, CACM 1988) with one bucket per tick: each tick
    that has callbacks keeps them in a deque in the order they were
    scheduled, and a heap holds the distinct ticks. A callback scheduled
    for the tick being run goes to the back of that tick's FIFO, after the
    callbacks already waiting there.
    """

    def __init__(self):
        self._queues = {}  # tick -> deque of (fn, args); never empty at rest
        self._ticks = []  # heap of the ticks in _queues
        self.now = 0

    def _queue(self, time: int) -> deque:
        queue = self._queues.get(time)
        if queue is None:
            queue = self._queues[time] = deque()
            heapq.heappush(self._ticks, time)
        return queue

    def at(self, time: int, fn, *args) -> None:
        if time < self.now:
            raise ValueError("cannot schedule into the past")
        self._queue(time).append((fn, args))

    def after(self, delay: int, fn, *args) -> None:
        self.at(self.now + delay, fn, *args)

    def step(self) -> bool:
        if not self._ticks:
            return False
        time = self._ticks[0]
        queue = self._queues[time]
        fn, args = queue.popleft()
        if not queue:
            heapq.heappop(self._ticks)
            del self._queues[time]
        self.now = time
        fn(*args)
        return True

    def _run(self, horizon, max_events) -> int:
        """Run whole ticks up to `horizon` (None: every tick), counting
        callbacks; raise once more than `max_events` have run."""
        count = 0
        queues, ticks = self._queues, self._ticks
        while ticks and (horizon is None or ticks[0] <= horizon):
            time = ticks[0]
            queue = queues[time]
            popleft = queue.popleft
            self.now = time
            try:
                while queue:
                    fn, args = popleft()
                    fn(*args)
                    count += 1
                    if count > max_events:
                        raise RuntimeError(
                            "event budget exhausted; likely a message loop")
            finally:
                # callbacks schedule at >= time, so time is still the heap's
                # head, unless a nested run already retired this tick
                if not queue and queues.get(time) is queue:
                    heapq.heappop(ticks)
                    del queues[time]
        return count

    def run_until_idle(self, max_events: int = 1_000_000) -> int:
        return self._run(None, max_events)

    def run_until(self, horizon: int) -> None:
        """Process all events with time <= horizon, then advance the clock."""
        self._run(horizon, math.inf)
        self.now = max(self.now, horizon)

    @property
    def idle(self) -> bool:
        return not self._ticks


@dataclass
class Node:
    node_id: bytes
    handler: object = None  # callable(node_id, payload, now)
    crash_at: int | None = None  # crashed from this tick on
    strategy: object = None  # Byzantine behavior object; never with crash_at

    def crashed(self, now: int) -> bool:
        return self.crash_at is not None and now >= self.crash_at


class Network:
    """Point-to-point message fabric over the scheduler.

    Every ``send`` counts toward ``messages_sent`` (self-delivery included);
    delivery to a node crashed at delivery time is a silent drop.
    """

    def __init__(self, seed: int = 0, d_min: int = 1, d_max: int = 1):
        if not 0 < d_min <= d_max:
            raise ValueError("need 0 < d_min <= d_max")
        self.sched = Scheduler()
        self.nodes: dict[bytes, Node] = {}
        self.messages_sent = 0
        self.messages_dropped = 0
        self.d_min = d_min
        self.d_max = d_max
        self._delay_rng = derive_rng("net-delay", seed)

    def add_node(self, node_id: bytes, handler=None) -> Node:
        if node_id in self.nodes:
            raise ValueError(f"node {node_id!r} already exists")
        node = Node(node_id, handler)
        self.nodes[node_id] = node
        return node

    def node(self, node_id: bytes) -> Node:
        try:
            return self.nodes[node_id]
        except KeyError:
            raise UnknownNode(f"no node {node_id!r}") from None

    def crash(self, node_id: bytes, at_time: int) -> None:
        """Crash from `at_time` (a past tick: now) on; drops any strategy."""
        node = self.node(node_id)
        node.crash_at = max(at_time, self.sched.now)
        node.strategy = None

    def make_byzantine(self, node_id: bytes, strategy) -> None:
        """Run the node by `strategy`; drops any planned crash."""
        node = self.node(node_id)
        node.strategy = strategy
        node.crash_at = None

    def send(self, src: bytes, dst: bytes, payload) -> None:
        nodes = self.nodes
        target = nodes.get(dst)
        if target is None or src not in nodes:
            self.node(src)
            self.node(dst)  # raises UnknownNode for whichever is missing
        self.messages_sent += 1
        # The delay stream feeds nothing else, so a fixed delay skips it.
        delay = self.d_min if self.d_min == self.d_max else \
            self._delay_rng.randint(self.d_min, self.d_max)
        # Scheduler.after without its check: delay > 0, so never past.
        sched = self.sched
        sched._queue(sched.now + delay).append(
            (self._deliver, (target, payload)))

    def broadcast(self, src: bytes, targets, payload) -> None:
        for dst in targets:
            self.send(src, dst, payload)

    def _deliver(self, target: Node, payload) -> None:
        if target.crashed(self.sched.now) or target.handler is None:
            self.messages_dropped += 1
            return
        target.handler(target.node_id, payload, self.sched.now)

    @property
    def now(self) -> int:
        return self.sched.now

    def run_until_idle(self, max_events: int = 1_000_000) -> int:
        return self.sched.run_until_idle(max_events)


# --- stock Byzantine strategies -------------------------------------------------
#
# Each hook receives the honest payload plus a sign(message) closure for the
# node's own key and returns what actually goes on the wire to `recipient`
# (or None for silence). Corruption choices are deterministic functions of
# the recipient id so runs stay reproducible.


def _targets_recipient(recipient: bytes) -> bool:
    return sha256(b"split" + recipient)[0] % 2 == 0


class Withhold:
    """Stays silent: never acks, never votes, never signs certificates."""

    def division_ack(self, statement, recipient, sign):
        return None

    def vote(self, digest, statement_of, recipient, sign):
        return None

    def cert_sign(self, statement, sign):
        return None


class BadSig:
    """Responds eagerly but every signature is garbage."""

    def division_ack(self, statement, recipient, sign):
        return sha256(b"bad" + statement)

    def vote(self, digest, statement_of, recipient, sign):
        return digest, sha256(b"bad" + digest + recipient)

    def cert_sign(self, statement, sign):
        return sha256(b"bad" + statement)


class Equivocate:
    """Sends the honest payload to about half the peers, a conflicting one
    to the rest."""

    def division_ack(self, statement, recipient, sign):
        if _targets_recipient(recipient):
            return sign(sha256(b"evil" + statement))
        return sign(statement)

    def vote(self, digest, statement_of, recipient, sign):
        if _targets_recipient(recipient):
            evil = sha256(b"evil" + digest)
            return evil, sign(statement_of(evil))
        return digest, sign(statement_of(digest))

    def cert_sign(self, statement, sign):
        return sign(sha256(b"evil" + statement))


STRATEGIES = {
    "withhold": Withhold,
    "badsig": BadSig,
    "equivocate": Equivocate,
}


def make_strategy(name: str):
    try:
        return STRATEGIES[name]()
    except KeyError:
        raise ValueError(f"unknown Byzantine strategy {name!r}") from None
