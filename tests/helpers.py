"""Shared test oracles and small builders.

The enumeration oracles here deliberately avoid the library's own formulas:
they count outcomes by brute force so the exact-arithmetic code has an
independent reference.
"""

import heapq
import itertools
import math
from fractions import Fraction

import numpy as np

from splitchain.consensus import commit_statement
from splitchain.crypto import derive_rng
from splitchain.model import (
    Account,
    Asset,
    ChainConfig,
    ClaimPayload,
    ConsensusParams,
    LockPayload,
    Role,
    Transaction,
    TxKind,
    _Reader,
)


def divide_events(eco) -> list:
    """The `divide` events an Ecosystem recorded, one per division."""
    return [event for event in eco.events if event.kind == "divide"]


def enumerate_violation_probability(n: int, f: int, alpha: Fraction) -> Fraction:
    """Probability a uniform balanced split breaches either child.

    Walks all C(n, n/2) subsets that could form child 1; validators
    0..f-1 are the faulty ones. A child of size n/2 with f_i faulty is
    breached when f_i >= alpha * n/2.
    """
    alpha = Fraction(alpha)
    half = n // 2
    bad = 0
    total = 0
    for side1 in itertools.combinations(range(n), half):
        f1 = sum(1 for v in side1 if v < f)
        f2 = f - f1
        if Fraction(f1) >= alpha * half or Fraction(f2) >= alpha * half:
            bad += 1
        total += 1
    return Fraction(bad, total)


def enumerate_pmf(N: int, M: int, n: int, k: int) -> Fraction:
    """P(X = k) for H(N, M, n) by walking every n-subset of N elements."""
    hits = 0
    total = 0
    for draw in itertools.combinations(range(N), n):
        total += 1
        if sum(1 for x in draw if x < M) == k:
            hits += 1
    return Fraction(hits, total)


def enumerate_upper_tail(N: int, M: int, n: int, threshold: Fraction) -> Fraction:
    hits = 0
    total = 0
    for draw in itertools.combinations(range(N), n):
        total += 1
        if sum(1 for x in draw if x < M) >= threshold:
            hits += 1
    return Fraction(hits, total)


def reference_hypergeom_mass(N: int, M: int, n: int, event) -> Fraction:
    """P(event(X)) for X ~ H(N, M, n) as a sum of per-k rational pmf terms.

    Every term is C(M, k) C(N-M, n-k) / C(N, n) with its binomials computed
    afresh, so this shares no recurrence with the library and stays usable
    at chain sizes in the thousands, where enumeration is out of reach.
    """
    total = Fraction(0)
    for k in range(max(0, n + M - N), min(n, M) + 1):
        if event(k):
            total += Fraction(math.comb(M, k) * math.comb(N - M, n - k),
                              math.comb(N, n))
    return total


def reference_montecarlo(d, trials: int, seed: int = 0) -> tuple:
    """violation_frequency_montecarlo as first written: argsort every row.

    Blocks of 20000 rows whatever n is; each trial's first half is the first
    n/2 indices of the argsort of its row of uniforms. Same generator, same
    draw order, so the library's block size and kernel must not change a hit.
    """
    rng = np.random.default_rng(seed)
    a = d.alpha
    hits = 0
    done = 0
    while done < trials:
        block = min(20_000, trials - done)
        order = np.argsort(rng.random((block, d.n)), axis=1)
        f1 = (order[:, :d.half] < d.f).sum(axis=1)
        v1 = f1 * a.denominator >= a.numerator * d.half
        v2 = (d.f - f1) * a.denominator >= a.numerator * d.half
        hits += int(np.count_nonzero(v1 | v2))
        done += block
    freq = hits / trials
    stderr = math.sqrt(freq * (1.0 - freq) / trials)
    return freq, stderr


def reference_commit_round(chain, candidate, validators, quorum, verify,
                           keys, sign, check, hook_of) -> dict:
    """run_commit_round by brute force: every recipient asks every voter.

    Each (voter, recipient) pair resolves the voter's vote on its own and
    checks its signature afresh, with no counting shared across recipients.
    A voter in ``keys`` votes for the candidate with ``sign(keys[voter],
    statement)``; any other voter is silent when ``hook_of(voter)`` is None
    and sends ``hook(recipient)`` otherwise. Every vote is checked by
    ``verify(voter, ...)``, so ``check`` goes unused and a key in ``keys``
    that is not its voter's own shows.
    """
    statement = commit_statement(chain, candidate.digest, candidate.height)
    outcome = {}
    for recipient in validators:
        matching = 0
        for voter in validators:
            if voter in keys:
                vote = candidate.digest, sign(keys[voter], statement)
            else:
                hook = hook_of(voter)
                vote = None if hook is None else hook(recipient)
            if vote is None or vote[0] != candidate.digest:
                continue
            if verify(voter, statement, vote[1]):
                matching += 1
        outcome[recipient] = matching >= quorum
    return outcome


class _HeapNetwork:
    """netsim.Network's delivery rules over one heap of
    (time, seq, node, payload), popped one delivery at a time."""

    def __init__(self, handler, seed, d_min, d_max):
        self.handler = handler
        self.crash_at = {}  # node -> crashed from this tick on, or None
        self.now = 0
        self.messages_sent = 0
        self.messages_dropped = 0
        self.d_min, self.d_max = d_min, d_max
        self._delay_rng = derive_rng("net-delay", seed)
        self._heap = []
        self._seq = 0

    def add_node(self, node_id: bytes) -> None:
        self.crash_at[node_id] = None

    def crash(self, node_id: bytes, at_time: int) -> None:
        self.crash_at[node_id] = max(at_time, self.now)

    def send(self, src: bytes, dst: bytes, payload) -> None:
        self.messages_sent += 1
        if self.d_min == self.d_max:
            delay = self.d_min
        else:
            delay = self._delay_rng.randint(self.d_min, self.d_max)
        heapq.heappush(self._heap, (self.now + delay, self._seq, dst, payload))
        self._seq += 1

    def broadcast(self, src: bytes, targets, payload) -> None:
        for dst in targets:
            self.send(src, dst, payload)

    def _step(self) -> None:
        time, _, node, payload = heapq.heappop(self._heap)
        self.now = time
        crash_at = self.crash_at[node]
        if crash_at is not None and time >= crash_at:
            self.messages_dropped += 1
        else:
            self.handler(node, payload, time)

    def run_until_idle(self, max_events: int = 1_000_000) -> int:
        count = 0
        try:
            while self._heap:
                self._step()
                count += 1
                if count > max_events:
                    raise RuntimeError("event budget exhausted; likely a "
                                       "message loop")
        except BaseException:
            self._heap.clear()  # nothing a failed run sent stays in flight
            raise
        return count

    def advance_to(self, tick: int) -> None:
        if self._heap:
            raise RuntimeError("the network is not idle: run it first")
        self.now = max(self.now, tick)


def per_delivery(handler, ignored=None):
    """A netsim.Network handler, ``handler(payload, now) -> receive``, that
    calls a per-delivery ``handler(node_id, payload, now)`` for each
    recipient of a calendar entry. An entry whose payload ``ignored``
    accepts gets no receiver: nobody acts on it."""

    def per_entry(payload, now):
        if ignored is not None and ignored(payload):
            return None
        return lambda node_id: handler(node_id, payload, now)

    return per_entry


def reference_network(handler, seed: int = 0, d_min: int = 1,
                      d_max: int = 1) -> _HeapNetwork:
    """A network that pops one heap of (time, seq, node, payload) per
    delivery, with a per-delivery ``handler(node_id, payload, now)``. A
    broadcast is one send per target, in target order.

    The sequence number breaks ties, so deliveries of one tick run in send
    order. Delays come from the same seeded stream as netsim.Network's
    (no draw when d_min == d_max), a node crashed at delivery time drops
    the delivery, and the counters and event budget follow the same rules.
    A raise, the handler's or the budget's, empties the heap, and the clock
    advances only while nothing is in flight. This is the reference for the
    per-tick FIFOs of netsim.Network: same calls, same delivery order,
    clock, counters and budget.
    """
    return _HeapNetwork(handler, seed, d_min, d_max)


def user(i: int) -> bytes:
    return b"u%03d" % i


def make_config(chain=b"root", n_validators=4, n_clients=0, alpha=Fraction(1, 2),
                kind="cft", n_max=8, assets=()) -> ChainConfig:
    validators = tuple(user(i) for i in range(n_validators))
    clients = tuple(user(100 + i) for i in range(n_clients))
    return ChainConfig(chain, validators, clients,
                       ConsensusParams(Fraction(alpha), kind), n_max,
                       tuple(assets))


def make_accounts(config: ChainConfig, scheme) -> dict:
    accounts = {}
    for v in config.validators:
        accounts[v] = Account(v, scheme.issue(v), Role.VALIDATOR)
    for c in config.clients:
        if c not in accounts:
            accounts[c] = Account(c, scheme.issue(c), Role.CLIENT)
    return accounts


def demo_asset(i: int, owner: bytes, value: int = 1) -> Asset:
    return Asset(b"asset-%03d" % i, owner, value)


def parse_transaction(data: bytes) -> Transaction:
    """The reference decoder of the transaction kinds that travel inside
    transfer proofs, LOCK and CLAIM; anything else raises ValueError."""
    r = _Reader(data)
    kind = TxKind(r.take(1)[0])
    pr = _Reader(r.read_bytes())
    submitter = r.read_bytes()
    signature = r.read_bytes()
    if not r.done():
        raise ValueError("trailing bytes after transaction")
    if kind == TxKind.LOCK:
        payload = LockPayload(pr.read_bytes(), pr.read_u64(), pr.read_bytes(),
                              pr.read_bytes(), pr.read_bytes())
    elif kind == TxKind.CLAIM:
        payload = ClaimPayload(pr.read_bytes(), pr.read_bytes(), pr.read_u64(),
                               pr.read_bytes(), pr.read_bytes(), pr.read_u64(),
                               pr.read_bytes())
    else:
        raise ValueError(f"cannot parse transactions of kind {kind!r}")
    if not pr.done():
        raise ValueError("trailing bytes in payload")
    return Transaction(kind, payload, submitter, signature)


def carried_transaction(proof_bytes: bytes) -> Transaction:
    """The transaction a TransferProof's bytes carry, decoded: the proof is
    its kind byte, then the inner proof, the transaction and the attesting
    chain, each length-prefixed."""
    r = _Reader(proof_bytes)
    r.take(1)
    r.read_bytes()
    tx = parse_transaction(r.read_bytes())
    r.read_bytes()
    if not r.done():
        raise ValueError("trailing bytes after transfer proof")
    return tx
