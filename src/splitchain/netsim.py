"""Deterministic discrete-event network with fault injection.

Time is a logical tick counter. Deliveries are scheduled through a seeded
delay model and processed by tick, in send order within a tick, so a
(topology, seed) pair fully determines every run. Every message is one
``send``; consecutive sends of one payload object that land on the same tick
share one calendar entry, (recipients, payload), so a broadcast is one entry
per delivery tick. The network's one handler is called once per entry,
``handler(payload, now)``, and returns a ``receive(node_id)`` that runs for
each recipient in order, or None: nobody acts on it, and the entry is
settled in one pass. Nodes are dumb mailboxes: protocol behavior lives in
that handler, and fault status (crash schedule, Byzantine strategy) is
consulted by it and by the delivery loop.

A Byzantine strategy has one method, ``answer(request, recipient, sign)``:
what the node sends ``recipient`` when asked to sign ``request`` (None for
silence), using a ``sign(message)`` closure for the node's own key. The
request is a commit vote, a division ACK or a certificate share; a share
goes to its collector, with recipient None. A strategy is the only source
of a commit vote or ACK besides a correct node's, which the scheme signs
under the node's key directly; a crashed node is silent. ``request.value``
is what a correct node endorses, and ``request.answer(value, sign)`` is
what goes on the wire when a node endorses ``value``. The stock
strategies' choices are deterministic functions of the recipient id, so
runs stay reproducible.
"""

import heapq
import math
from collections import deque
from dataclasses import dataclass

from .crypto import derive_rng
from .errors import UnknownNode
from .model import sha256


@dataclass
class Node:
    node_id: bytes
    # crashed from this tick on; inf for never, so that "crashed at tick t"
    # is the one comparison t >= crash_at, which hot loops inline
    crash_at: int | float = math.inf
    strategy: object = None  # Byzantine behavior; only while crash_at is inf

    def crashed(self, now: int) -> bool:
        return now >= self.crash_at


class Network:
    """Message fabric that runs its own deliveries, with one handler for
    every node: ``handler(payload, now)``, called once per calendar entry,
    returns ``receive(node_id)`` or None, and ``receive`` runs for each live
    recipient of the entry in order, so it must read per call what a
    delivery can change. Every message is one ``send`` call and counts
    toward ``messages_sent`` (self-delivery included); delivery to a node
    crashed at delivery time is a silent drop. No handler may run the
    network: a nested run raises.

    The queue is a calendar queue (Brown, CACM 1988): each tick that has
    deliveries keeps a deque of (recipients, payload) entries in send
    order, and a heap holds those ticks. A send whose payload is the same
    object as the tick's last entry's joins that entry, which keeps every
    delivery's order: a broadcast with a fixed delay is one entry, and with
    random delays each recipient draws in target order and the recipients
    are grouped by tick. The entry send opened last is checked first,
    before the tick's deque is looked up, since a broadcast's sends all
    join it when the delay is fixed.
    """

    def __init__(self, handler, seed: int = 0, d_min: int = 1,
                 d_max: int = 1):
        if not 0 < d_min <= d_max:
            raise ValueError("need 0 < d_min <= d_max")
        self.handler = handler
        self.nodes: dict[bytes, Node] = {}
        self.now = 0
        self.messages_sent = 0
        self.messages_dropped = 0
        self.d_min = d_min
        self.d_max = d_max
        # send() draws randint(d_min, d_max) itself, as CPython's
        # getrandbits-based _randbelow does: width.bit_length() bits,
        # redrawn while >= width. Same stream, without randint's checks.
        self._getrandbits = derive_rng("net-delay", seed).getrandbits
        self._width = d_max - d_min + 1
        self._bits = self._width.bit_length()
        # tick -> deque of ([Node, ...], payload); never empty at rest
        self._queues = {}
        self._ticks = []  # heap of the ticks in _queues
        # (tick, payload, recipients) of the entry send opened last
        self._last = (None, None, None)
        self._running = False

    def add_node(self, node_id: bytes) -> Node:
        if node_id in self.nodes:
            raise ValueError(f"node {node_id!r} already exists")
        node = Node(node_id)
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
        node.crash_at = max(at_time, self.now)
        node.strategy = None

    def make_byzantine(self, node_id: bytes, strategy) -> None:
        """Run the node by `strategy`; drops any planned crash."""
        node = self.node(node_id)
        node.strategy = strategy
        node.crash_at = math.inf

    def send(self, src: bytes, dst: bytes, payload) -> None:
        nodes = self.nodes
        target = nodes.get(dst)
        if target is None or src not in nodes:
            self.node(src)
            self.node(dst)  # raises UnknownNode for whichever is missing
        self.messages_sent += 1
        time = self.now + self.d_min  # delay > 0: never the tick being run
        if self.d_min == self.d_max:
            # A fixed delay skips the delay stream, which feeds nothing
            # else, and a broadcast's sends all join the entry send opened
            # last: still its tick's last entry, since a later one would
            # have been opened after it.
            last_time, last_payload, recipients = self._last
            if last_payload is payload and last_time == time:
                recipients.append(target)
                return
        else:  # randint(d_min, d_max), drawn as in __init__
            r = self._getrandbits(self._bits)
            while r >= self._width:
                r = self._getrandbits(self._bits)
            time += r
        queue = self._queues.get(time)
        if queue is None:
            queue = self._queues[time] = deque()
            heapq.heappush(self._ticks, time)
        else:
            entry = queue[-1]
            if entry[1] is payload:  # the same message: one more recipient
                entry[0].append(target)
                return
        recipients = [target]
        queue.append((recipients, payload))
        self._last = (time, payload, recipients)

    def broadcast(self, src: bytes, targets, payload) -> None:
        """Send `payload` from `src` to each of `targets` (a sequence) in
        order, one `send` each; an unknown end raises UnknownNode before
        anything is sent, counted or drawn."""
        nodes = self.nodes
        if src not in nodes or not all(map(nodes.__contains__, targets)):
            for end in (src, *targets):
                self.node(end)  # raises UnknownNode at the first unknown
        send = self.send
        for dst in targets:
            send(src, dst, payload)

    def run_until_idle(self, max_events: int = 1_000_000) -> int:
        """Deliver every tick in order, counting deliveries; raise once more
        than `max_events` have run. A tick leaves the calendar before its
        first delivery (every send lands on a later tick), and an entry as
        it is delivered, which frees it. Any raise empties the calendar, so
        nothing a failed run sent stays in flight. An entry nobody acts on
        (the handler returned None) is settled in one pass, its crashed
        recipients counted as drops, unless it would cross the budget: then
        the per-recipient loop raises at the same delivery."""
        if self._running:
            raise RuntimeError("the network is already running; a handler "
                               "may not run it")
        self._running = True
        count = 0
        handler, queues, ticks = self.handler, self._queues, self._ticks
        try:
            while ticks:
                time = heapq.heappop(ticks)
                self.now = time
                queue = queues.pop(time)
                while queue:
                    recipients, payload = queue.popleft()
                    receive = handler(payload, time)
                    if (receive is None
                            and count + len(recipients) <= max_events):
                        count += len(recipients)
                        for node in recipients:
                            if time >= node.crash_at:  # node.crashed
                                self.messages_dropped += 1
                        continue
                    for node in recipients:
                        if time >= node.crash_at:  # node.crashed
                            self.messages_dropped += 1
                        elif receive is not None:
                            receive(node.node_id)
                        count += 1
                        if count > max_events:
                            raise RuntimeError("event budget exhausted; "
                                               "likely a message loop")
        except BaseException:
            queues.clear()
            ticks.clear()
            self._last = (None, None, None)
            raise
        finally:
            self._running = False
        return count

    def advance_to(self, tick: int) -> None:
        """Move an idle network's clock to `tick`, never back."""
        if self._running or self._ticks:
            raise RuntimeError("the network is not idle: run it first")
        self.now = max(self.now, tick)


# --- stock Byzantine strategies -------------------------------------------------


def _targets_recipient(recipient: bytes | None) -> bool:
    return recipient is None or sha256(b"split" + recipient)[0] % 2 == 0


class Withhold:
    """Stays silent: never acks, never votes, never signs certificates."""

    def answer(self, request, recipient, sign):
        return None


class BadSig:
    """Responds eagerly but every signature is garbage, a different garbage
    tag for each recipient."""

    def answer(self, request, recipient, sign):
        salt = recipient or b""
        return request.answer(request.value,
                              lambda message: sha256(b"bad" + message + salt))


class Equivocate:
    """Endorses the honest value to about half the peers and a conflicting
    one to the rest; a certificate's collector gets the conflicting one."""

    def answer(self, request, recipient, sign):
        value = request.value
        if _targets_recipient(recipient):
            value = sha256(b"evil" + value)
        return request.answer(value, sign)


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
