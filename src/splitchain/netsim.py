"""Deterministic discrete-event network with fault injection.

Time is a logical tick counter. Deliveries are scheduled through a seeded
delay model and processed in (time, sequence) order, so a (topology, seed)
pair fully determines every run. Nodes are dumb mailboxes: protocol behavior
lives in the handler each node is registered with, and fault status (crash
schedule, Byzantine strategy) is consulted by those handlers and by the
delivery loop.
"""

import heapq
from dataclasses import dataclass, field

from .crypto import derive_rng
from .errors import UnknownNode
from .model import sha256

CORRECT = "correct"
CRASH = "crash"
BYZANTINE = "byzantine"


@dataclass(frozen=True)
class FaultSpec:
    """Per-node fault plan entry."""

    kind: str = CORRECT
    at_time: int = 0  # crash activation tick
    strategy: object = None  # Byzantine behavior object

    def __post_init__(self):
        if self.kind not in (CORRECT, CRASH, BYZANTINE):
            raise ValueError(f"unknown fault kind {self.kind!r}")


class Scheduler:
    """Priority queue of timed callbacks with a deterministic tiebreak."""

    def __init__(self):
        self._heap = []
        self._seq = 0
        self.now = 0

    def at(self, time: int, fn, *args) -> None:
        if time < self.now:
            raise ValueError("cannot schedule into the past")
        heapq.heappush(self._heap, (time, self._seq, fn, args))
        self._seq += 1

    def after(self, delay: int, fn, *args) -> None:
        self.at(self.now + delay, fn, *args)

    def step(self) -> bool:
        if not self._heap:
            return False
        time, _, fn, args = heapq.heappop(self._heap)
        self.now = time
        fn(*args)
        return True

    def run_until_idle(self, max_events: int = 1_000_000) -> int:
        count = 0
        while self.step():
            count += 1
            if count > max_events:
                raise RuntimeError("event budget exhausted; likely a message loop")
        return count

    def run_until(self, horizon: int) -> None:
        """Process all events with time <= horizon, then advance the clock."""
        while self._heap and self._heap[0][0] <= horizon:
            self.step()
        self.now = max(self.now, horizon)

    @property
    def idle(self) -> bool:
        return not self._heap


@dataclass
class Node:
    node_id: bytes
    handler: object = None  # callable(node_id, payload, now)
    fault: FaultSpec = field(default_factory=FaultSpec)

    def crashed(self, now: int) -> bool:
        return self.fault.kind == CRASH and now >= self.fault.at_time

    @property
    def strategy(self):
        return self.fault.strategy if self.fault.kind == BYZANTINE else None


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

    def inject_fault(self, node_id: bytes, kind: str, at_time: int = 0,
                     strategy=None) -> None:
        node = self.node(node_id)
        if kind == CRASH and at_time < self.sched.now:
            at_time = self.sched.now
        node.fault = FaultSpec(kind, at_time, strategy)

    def is_crashed(self, node_id: bytes) -> bool:
        return self.node(node_id).crashed(self.sched.now)

    def strategy_of(self, node_id: bytes):
        return self.node(node_id).strategy

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
        # Scheduler.after inlined: delay > 0, so the time is never past.
        sched = self.sched
        heapq.heappush(sched._heap, (sched.now + delay, sched._seq,
                                     self._deliver, (target, payload)))
        sched._seq += 1

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
