"""Chain lifecycle: membership, creation, joins, division, and fusion.

The :class:`Ecosystem` owns the network, the signature scheme, the user
accounts, one :class:`ChainSim` per chain, live or retired (the only record
of its config), and ``events``, the only record of what a run did: one
:class:`Event` (tick, kind, fields) per fact. events.log renders each event
by its kind's EVENT_FORMATS entry, and a run's divisions, stall and safety
violations are queries over the list.

Chains are born and retired only in :meth:`Ecosystem._replace`. A division
child's or a fusion's genesis comes from its parents' states (named by
``ChainSim.parents``) through :func:`_inherit`, reusing the REGISTER
transaction an earlier genesis made for each member whose account is
unchanged, and :func:`model.genesis_state` installs each genesis once. Only
:meth:`Ecosystem.verify` maps a signer to its key. Ordinary commits are
synchronous vote rounds (only consensus's quorum arithmetic matters here),
while the division protocol is message-faithful: one DIVIDE per validator
plus n^2 acks travel the simulated network, one calendar entry per broadcast
and delivery tick. :meth:`Ecosystem.divide_chain` judges a request once,
before its DIVIDE, and runs the network until idle, so a round runs whole
with no commit inside it; ``ChainSim.on_divide`` and ``ChainSim.on_ack``
return one receiver per calendar entry, for the per-recipient work, and
:meth:`Ecosystem._bear_children` builds the children at ACK quorum.

A correct validator's commit vote is its signature over the candidate's
commit statement, signed and checked once: :meth:`ChainSim.commit` hands the
round each correct voter's public key with the scheme's ``sign`` and
``verify``, bound once per commit, so each vote is one
``SignatureScheme.sign`` and one ``SignatureScheme.verify`` call. Its
division ACK is likewise one ``scheme.sign`` under its key over the DIVIDE
statement, broadcast as one message by the receiver
:meth:`ChainSim.on_divide` returns. A crashed validator is silent, and a
Byzantine one votes and acks through the per-recipient hook that
:meth:`Ecosystem.respond` builds around a signing closure for its key.
A correct validator's certificate share is likewise one ``scheme.sign``
under its key (:meth:`Ecosystem.cert_sign_fn`), so respond answers only
crashed and Byzantine validators, for every request kind, and it is the
only place a hook is built.
"""

import weakref
from dataclasses import dataclass, field
from fractions import Fraction

from . import model
from .assignment import DETERMINISTIC, RANDOMIZED, assign
from .consensus import collect_certificate, commit_statement, run_commit_round
from .crypto import SignatureScheme, beacon
from .errors import (
    AlreadyMember,
    AssetIdCollision,
    DuplicateChainId,
    NoQuorum,
    SplitchainError,
    Stalled,
    StateDivergence,
    TriggerNotMet,
    UnknownInitiator,
    UnknownUser,
    UnregisteredValidator,
)
from .model import (
    Account,
    Block,
    ChainConfig,
    ChainId,
    ConfigUpdatePayload,
    ConsensusParams,
    Role,
    Transaction,
    TxKind,
    UserId,
    apply_transaction,
    build_genesis,
    enc_bytes,
    enc_u64,
    make_block,
    memo,
    record,
)
from .netsim import Network, make_strategy

@record
class DivideRequest:
    """The initiator's broadcast: divide `chain` at its tip, named by the
    tip's height and digest."""

    chain: ChainId
    initiator: UserId
    agreed_height: int
    anchor_digest: bytes

    @memo
    def statement(self) -> bytes:
        return (b"divide" + enc_bytes(self.chain) + enc_bytes(self.initiator)
                + enc_u64(self.agreed_height) + enc_bytes(self.anchor_digest))


@record
class AckMsg:
    request: DivideRequest
    signer: UserId
    signature: bytes


@dataclass
class DivisionRound:
    """One division attempt on a chain, from its DIVIDE broadcast on.

    Ecosystem.divide_chain opens a round at the chain's tip and runs the
    network until it is idle, and no commit runs meanwhile, so the chain's
    state is the round's tip state throughout. Each attempt makes a fresh
    round, so nothing a failed attempt left behind counts later.
    """

    request: DivideRequest
    acks: dict = field(default_factory=dict)  # validator -> {signer: signature}
    # validators that refused a delivery: they had not committed the tip
    behind: set = field(default_factory=set)
    # (signer, signature) -> whether the signer is a member and the tag
    # verifies, shared by every recipient. Exact: the statement and the
    # config are fixed for the round.
    verdicts: dict = field(default_factory=dict)


# --- signing requests ------------------------------------------------------------
#
# A request is what every validator is asked to sign. `value` is what a
# correct validator endorses, and `answer(value, sign)` is what goes on the
# wire when a validator endorses `value`. `Ecosystem.respond` turns a request
# into a crashed or Byzantine validator's answer.


@record
class VoteRequest:
    """Vote on a candidate block. `value` is its digest; answers are
    (digest, signature over that digest's commit statement)."""

    chain: ChainId
    candidate: Block

    @memo
    def statement(self) -> bytes:
        return commit_statement(self.chain, self.candidate.digest,
                                self.candidate.height)

    @memo  # read by each strategy answer
    def value(self) -> bytes:
        return self.candidate.digest

    def answer(self, digest, sign):
        if digest == self.candidate.digest:
            return digest, sign(self.statement)
        return digest, sign(commit_statement(self.chain, digest,
                                             self.candidate.height))


@record
class SignRequest:
    """Sign a statement: a Byzantine validator's division ACK, or a crashed
    or Byzantine validator's certificate share, answered to its collector
    (recipient None). `value` is the statement; answers are signatures."""

    statement: bytes

    @property
    def value(self) -> bytes:
        return self.statement

    def answer(self, statement, sign):
        return sign(statement)


# events.log's format per event kind: ids print as names, nonces are hex.
# create and fuse also hold their chain's n, f and alpha at birth, and
# divide its founders' and children's counts, outside the format.
EVENT_FORMATS = {
    "create": "create chain={chain} n={n}",
    "join": "join chain={chain} user={user} role=validator n={n}",
    "divide": "divide parent={parent} n={n} f={f} -> {children}",
    "fuse": "fuse {left}+{right} -> {merged} alpha={alpha}",
    "stall": "stall chain={chain} height={height}",
    "lock": "lock {asset} on {chain} -> {target} nonce {nonce:.8}",
    "claim": "claim nonce {nonce:.8} on {chain}: {outcome}",
    "resolve": "resolve nonce {nonce:.8} on {chain}: {outcome}",
    "trigger-skip": ("chain {chain} at trigger but every validator is"
                     " crashed; skipping division"),
    "division-failed": "division of {chain} failed: {error}",
    "fusion-skipped": "fusion {left}+{right} skipped: not both live",
    "fusion-failed": "fusion {left}+{right} failed: {error}",
    "safety": "SAFETY VIOLATION: {error}",
}
STALL_REASON = "chain {chain}: no quorum at height {height}"


def _shown(value):
    if isinstance(value, bytes):
        return _name(value)
    if isinstance(value, tuple):
        return ", ".join(f"{_name(c)}(n={n},f={f})" for c, n, f, _ in value)
    return value


@record
class Event:
    """One fact of a run: its tick, its kind (a key of EVENT_FORMATS) and
    the kind's fields. `text in event` searches its events.log line."""

    tick: int
    kind: str
    fields: dict

    def format(self, template: str) -> str:
        return template.format_map({key: _shown(value)
                                    for key, value in self.fields.items()})

    @memo
    def line(self) -> str:
        return f"[{self.tick}] {self.format(EVENT_FORMATS[self.kind])}"

    def __contains__(self, text: str) -> bool:
        return text in self.line


def render_events(events) -> str:
    return "".join(event.line + "\n" for event in events)


class ChainSim:
    """One chain: canonical ledger, materialized state, vote rounds. A chain
    divided or fused away is halted and kept in Ecosystem.retired."""

    def __init__(self, eco: "Ecosystem", genesis: Block, parents: tuple):
        self.eco = weakref.proxy(eco)  # no cycle: a run is freed by refcount
        self.ledger = [genesis]
        self.fault_count = (None, 0, 0)  # Ecosystem.chain_fault_count's cache
        self.state = model.genesis_state(genesis)
        self.chain_id = self.state.config.chain
        self.founders = self.state.config.validators  # its genesis installed
        self.parents = parents  # ids of the chains it was born from
        self.halted = False
        # validator -> height of the last block it committed
        self.committed = dict.fromkeys(self.founders, 0)
        self.division: DivisionRound | None = None

    @property
    def state(self) -> model.ChainState:
        return self._state

    @state.setter
    def state(self, state: model.ChainState) -> None:
        # config and its validators are read far more often than the state
        # is set, so each set stores them as plain attributes
        self._state = state
        self.config = state.config
        self.validators = state.config.validators

    @property
    def quorum(self) -> int:
        return self.config.quorum

    # -- ordinary commits --------------------------------------------------

    def commit(self, txs) -> "Block":
        """Validate a batch, run one vote round, append on success.

        Raises whatever rule the batch breaks, or Stalled when no correct
        validator assembles a quorum. Votes and crash times do not change
        while commit runs, so a second round would repeat the first.
        """
        if self.halted:
            raise SplitchainError(f"chain {self.chain_id!r} is halted")
        txs = tuple(txs)
        state = self.state
        for tx in txs:
            state = apply_transaction(state, tx, scheme=self.eco.scheme)
        candidate = make_block(len(self.ledger), self.ledger[-1].digest, txs)
        eco = self.eco
        network, users, scheme = eco.network, eco.users, eco.scheme
        nodes, now = network.nodes, network.now
        correct = {}  # correct validator -> its public key
        for v in self.validators:
            node = nodes[v]
            # now < crash_at: not node.crashed(now), inlined
            if now < node.crash_at and node.strategy is None:
                correct[v] = users[v].public_key
        request = VoteRequest(self.chain_id, candidate)
        respond = eco.respond

        def hook_of(voter):  # crashed: None; Byzantine: its hook
            return respond(voter, request)

        # scheme.sign and scheme.verify are bound here, once per commit, so
        # a patched or subclassed SignatureScheme sees every correct vote
        outcome = run_commit_round(
            self.chain_id, candidate, self.validators, self.quorum,
            eco.verify, correct, scheme.sign, scheme.verify, hook_of)
        if not any(outcome[v] for v in correct):
            stall = eco._emit("stall", chain=self.chain_id,
                              height=candidate.height)
            raise Stalled(stall.format(STALL_REASON))
        self.ledger.append(candidate)
        self.state = state.replace(last_height=candidate.height)
        # `correct` predates this block's config; a validator the block
        # admits gets its entry from join_chain after we return
        for v in correct:
            self.committed[v] = candidate.height
        return candidate

    # -- division protocol ---------------------------------------------------

    def on_divide(self, req: DivideRequest):
        """The receiver of one DIVIDE calendar entry of the chain's round:
        receive(validator) acks if the validator has committed the tip. The
        network delivers only to live validators, and the rest is fixed for
        the round, so it is read once per entry."""
        rnd = self.division
        committed, height = self.committed, req.agreed_height
        eco = self.eco
        network, users, sign = eco.network, eco.users, eco.scheme.sign
        nodes, validators, statement = (network.nodes, self.validators,
                                        req.statement)

        def receive(validator):
            if committed[validator] < height:
                rnd.behind.add(validator)
            elif nodes[validator].strategy is None:
                # correct: one ACK, its own key's tag, to every validator
                network.broadcast(validator, validators, AckMsg(
                    req, validator, sign(users[validator].public_key,
                                         statement)))
            else:
                self._ack_through_respond(validator, req)

        return receive

    def _ack_through_respond(self, validator, req):
        """A Byzantine validator's ACKs, as respond's hook answers."""
        network = self.eco.network
        hook = self.eco.respond(validator, SignRequest(req.statement))
        for recipient in self.validators:
            sig = hook(recipient)
            if sig is not None:  # None: withheld, nothing on the wire
                network.send(validator, recipient, AckMsg(req, validator, sig))

    def on_ack(self, ack: AckMsg):
        """The receiver of one ACK calendar entry of the chain's round:
        receive(validator) runs once per delivery of `ack`. Acks can outrun
        the DIVIDE. What a delivery can change (halted: the first completion
        retires the chain, so no later delivery completes the round; acks)
        is read per delivery, the rest once per entry."""
        rnd = self.division
        req, behind, committed = rnd.request, rnd.behind, self.committed
        acks_of, height = rnd.acks, req.agreed_height
        cfg = self.state.config  # the round's own: no commit runs in it
        quorum = cfg.quorum
        signer, sig = ack.signer, ack.signature
        ok = None  # the (signer, sig) verdict, once a delivery reads it

        def receive(validator):
            nonlocal ok
            if self.halted:
                return
            if committed[validator] < height:
                behind.add(validator)
                return
            if ok is None:
                key = (signer, sig)
                ok = rnd.verdicts.get(key)
                if ok is None:
                    ok = rnd.verdicts[key] = (
                        signer in cfg.validator_set
                        and self.eco.verify(signer, req.statement, sig))
            if not ok:
                return
            acks = acks_of.get(validator)
            if acks is None:
                acks = acks_of[validator] = {}
            acks[signer] = sig
            if len(acks) >= quorum:
                self.eco._bear_children(self, height, req.anchor_digest)

        return receive


def child_chain_ids(parent: ChainId) -> tuple:
    return parent + b".1", parent + b".2"


def _split_clients(clients, scheme: str, seed: bytes):
    if len(clients) < 2:
        return tuple(clients), ()
    out = assign(clients, scheme, None if scheme == DETERMINISTIC
                 else seed + b"/clients")
    return out.v1, out.v2


def _inherit(config: ChainConfig, states, **lineage) -> Block:
    """The genesis of a chain with `config` born from `states` (a division
    child's parent, or both chains of a fusion): its members' accounts, the
    assets they own, state by state in id order, the locks on those assets
    and every claim, a later state's record winning a shared nonce. An asset
    goes with its owner's client seat if it has one, else its validator
    seat; one owned by no member is a StateDivergence. `lineage` holds
    build_genesis's keyword arguments."""
    clients = set(config.clients)
    accounts, assets, locks, claims = {}, [], {}, {}
    for state in states:
        parent_clients = set(state.config.clients)
        for asset_id in sorted(state.assets):
            asset = state.assets[asset_id]
            if asset.owner in parent_clients:
                seats = clients
            elif asset.owner in state.config.validator_set:
                seats = config.validator_set
            else:
                raise StateDivergence(
                    f"asset {asset_id!r} owned by non-member {asset.owner!r}")
            if asset.owner in seats:
                assets.append(asset)
        accounts.update(state.accounts)
        locks.update(state.locks)
        claims.update(state.claims)
    kept = {asset.asset_id for asset in assets}
    return build_genesis(
        config, accounts, extra_assets=assets,
        locks=sorted(item for item in locks.items() if item[1] in kept),
        claims=sorted(claims.items()), **lineage)


class Ecosystem:
    """Top-level simulation handle: network + accounts + live chains."""

    def __init__(self, seed: int = 0, d_min: int = 1, d_max: int = 1,
                 assignment_scheme: str = RANDOMIZED):
        self.scheme = SignatureScheme(seed)
        # live chains by id; never replaced, since the handler keeps it
        self.chains: dict[ChainId, ChainSim] = {}
        self.network = Network(_message_handler(self.chains),
                               seed=seed, d_min=d_min, d_max=d_max)
        self.users: dict[UserId, Account] = {}
        # UserId -> the REGISTER transaction geneses reuse (build_genesis)
        self._registered: dict = {}
        self.retired: dict[ChainId, ChainSim] = {}
        self.assignment_scheme = assignment_scheme
        self.faulty: set = set()  # harness-side flags, dormant or active
        self.events: list[Event] = []  # the run's only record of facts
        # freshness tags handed out per verifying chain, keyed (chain, nonce)
        self.issued_tags: dict = {}
        self._tag_counter = 0

    # -- membership -----------------------------------------------------------

    def register_user(self, user: UserId, role: Role = Role.CLIENT,
                      faulty: bool = False) -> Account:
        if user in self.users:
            raise AlreadyMember(f"user {user!r} already registered")
        account = Account(user, self.scheme.issue(user), role)
        self.users[user] = account
        self.network.add_node(user)
        if faulty:
            self.faulty.add(user)
        return account

    def crash_user(self, user: UserId, at_time: int = 0) -> None:
        self.network.crash(user, at_time)
        self.faulty.add(user)

    def mark_byzantine(self, user: UserId, strategy=None) -> None:
        """Flag an already-registered user as faulty, optionally with an
        active misbehavior strategy (a name or a strategy object).

        A strategy object answers every signing request through one method,
        answer(request, recipient, sign) (see netsim). It must be
        deterministic and stateless: its answer may depend only on its
        arguments. The simulator does not ask it when its answer cannot
        change an outcome, as in a commit round whose correct votes already
        reach quorum."""
        if isinstance(strategy, str):
            strategy = make_strategy(strategy)
        if strategy is not None:
            self.network.make_byzantine(user, strategy)
        else:
            self.network.node(user)  # raises UnknownNode for typos
        self.faulty.add(user)

    def verify(self, signer: UserId, message: bytes, signature: bytes) -> bool:
        """Check a signature by `signer`'s key; an unregistered signer fails
        without asking the scheme."""
        account = self.users.get(signer)
        return account is not None and self.scheme.verify(
            account.public_key, message, signature)

    # -- chain lifecycle --------------------------------------------------------

    def create_chain(self, chain_id: ChainId, validators, clients=(),
                     alpha=Fraction(1, 2), kind: str = "cft",
                     n_max: int = 64, initial_assets=()) -> ChainSim:
        for v in tuple(validators) + tuple(clients):
            if v not in self.users:
                raise UnregisteredValidator(f"{v!r} has no registered account")
        config = ChainConfig(chain_id, tuple(validators),
                             tuple(sorted(clients)),
                             ConsensusParams(Fraction(alpha), kind), n_max,
                             tuple(initial_assets))
        sim, = self._replace((), [build_genesis(
            config, self.users, self._registered)])
        self._emit("create", chain=chain_id, n=len(config.validators),
                   f=self.chain_fault_count(sim), alpha=config.consensus.alpha)
        return sim

    def join_chain(self, user: UserId, chain_id: ChainId) -> ChainConfig:
        """Add `user` as a validator of the chain by one CONFIG_UPDATE."""
        sim = self._live(chain_id)
        account = self.users.get(user)
        if account is None:
            raise UnknownUser(f"{user!r} has no registered account")
        if user in sim.config.validators:
            raise AlreadyMember(f"{user!r} already a validator")
        sim.commit([Transaction(TxKind.CONFIG_UPDATE,
                                ConfigUpdatePayload(add_validators=(account,)),
                                user)])
        sim.committed[user] = sim.state.last_height
        self._emit("join", chain=chain_id, user=user,
                   n=len(sim.config.validators))
        return sim.config

    def divide_chain(self, chain_id: ChainId, initiator: UserId = None) -> tuple:
        """Run one division round of the chain to completion.

        Judged once, before any message is sent: an initiator outside the
        validators raises UnknownInitiator, a taken child id
        DuplicateChainId, a chain below its trigger TriggerNotMet. Then the
        DIVIDE for the tip goes out and the network runs until idle, with
        no commit in between. Returns the two children, or raises NoQuorum.
        """
        sim = self._live(chain_id)
        cfg = sim.config
        if initiator is None:
            initiator = cfg.validators[0]
        if initiator not in cfg.validator_set:
            raise UnknownInitiator(f"{_name(initiator)} is not a validator "
                                   f"of {_name(chain_id)}")
        children = child_chain_ids(chain_id)
        for child in children:
            self._check_id_free(child)
        n = len(cfg.validators)
        if n < cfg.n_max:
            raise TriggerNotMet(f"chain {_name(chain_id)} has {n} "
                                f"validators, trigger is {cfg.n_max}")
        req = DivideRequest(chain_id, initiator, sim.state.last_height,
                            sim.ledger[-1].digest)
        rnd = sim.division = DivisionRound(req)
        self.network.broadcast(initiator, cfg.validators, req)
        # a DIVIDE to each validator, then at most n acks from each
        self.network.run_until_idle(n + n * n)
        if sim.halted:
            return self.chains[children[0]], self.chains[children[1]]
        rejected = "; rejected: behind" if rnd.behind else ""
        raise NoQuorum(
            f"division of {_name(chain_id)} gathered no quorum "
            f"(need {sim.quorum} acks{rejected})")

    def fuse_chains(self, c1_id: ChainId, c2_id: ChainId,
                    merged_id: ChainId = None) -> ChainSim:
        """Merge two live chains into one with alpha' = min, refusing a shared
        asset id or validator before either chain certifies its state."""
        s1, s2 = self._live(c1_id), self._live(c2_id)
        if merged_id is None:
            merged_id = c1_id + b"+" + c2_id
        self._check_id_free(merged_id)
        overlap = set(s1.state.assets) & set(s2.state.assets)
        if overlap:
            raise AssetIdCollision(f"asset ids on both chains: {sorted(overlap)}")
        shared = set(s1.validators) & set(s2.validators)
        if shared:
            raise SplitchainError(f"validators on both chains: {sorted(shared)}")
        for sim in (s1, s2):
            stmt = (b"fuse" + enc_bytes(sim.chain_id)
                    + enc_bytes(sim.state.digest()))
            collect_certificate(stmt, sim.validators, sim.quorum,
                                self.cert_sign_fn(stmt), self.verify)
        p1, p2 = s1.config.consensus, s2.config.consensus
        merged_params = p1 if p1.alpha <= p2.alpha else p2
        config = ChainConfig(
            merged_id, s1.validators + s2.validators,
            tuple(sorted(set(s1.config.clients) | set(s2.config.clients))),
            merged_params, max(s1.config.n_max, s2.config.n_max))
        merged, = self._replace((s1, s2),
                                [_inherit(config, (s1.state, s2.state),
                                          registered=self._registered)])
        self._emit("fuse", left=c1_id, right=c2_id, merged=merged_id,
                   alpha=merged_params.alpha, n=len(merged.validators),
                   f=self.chain_fault_count(merged))
        return merged

    # -- harness bookkeeping ------------------------------------------------------

    def chain_fault_count(self, sim: ChainSim) -> int:
        """How many of the chain's validators are flagged faulty, cached on
        the chain under (config object, len(faulty)). Exact: a chain's
        validators change only with its config, and `faulty` only grows, so
        an equal length is an equal set."""
        config, marked = sim.config, len(self.faulty)
        cached = sim.fault_count
        if cached[0] is config and cached[1] == marked:
            return cached[2]
        count = len(self.faulty.intersection(config.validators))
        sim.fault_count = (config, marked, count)
        return count

    def total_value(self) -> int:
        return sum(sim.state.total_value() for sim in self.chains.values())

    # -- chain records -----------------------------------------------------------------

    def chain(self, chain_id: ChainId) -> ChainSim | None:
        """The live or retired ChainSim of `chain_id`, or None."""
        sim = self.chains.get(chain_id)
        return sim if sim is not None else self.retired.get(chain_id)

    def lineage_rows(self) -> tuple:
        """(chain, parent, side, split_height) for every chain, live or
        retired, sorted by id and named, as each chain's genesis records
        them. A root or fused chain has no parent: (chain, "", 0, 0)."""
        states = [self.chain(chain_id).state for chain_id
                  in sorted(self.chains.keys() | self.retired.keys())]
        return tuple((_name(s.config.chain), _name(s.parent_chain or b""),
                      s.side, s.split_height) for s in states)

    # -- internals -------------------------------------------------------------------

    def _live(self, chain_id: ChainId) -> ChainSim:
        sim = self.chains.get(chain_id)
        if sim is None:
            raise SplitchainError(f"no live chain {chain_id!r}")
        return sim

    def _check_id_free(self, chain_id: ChainId) -> None:
        if self.chain(chain_id) is not None:
            raise DuplicateChainId(f"chain {_name(chain_id)} already exists")

    def respond(self, validator: UserId, request):
        """A crashed or Byzantine `validator`'s answer to a signing request:
        None for a crashed validator, which is silent, else a hook.
        hook(recipient) is strategy.answer(request, recipient, sign), whose
        answer may differ per recipient. `sign` signs with the validator's
        own key through scheme.sign(public_key, message), looked up at call
        time, so every tag goes through SignatureScheme.sign, patched or
        subclassed after the ecosystem was built or not. Tags are
        deterministic, so the hook signs each distinct message once and
        repeats the tag for later recipients.

        A correct validator is never asked: its commit vote, division ACK
        and certificate share are one scheme.sign under its key (commit,
        on_divide and cert_sign_fn). A vote is asked for only once the
        round's correct votes fall short of quorum, and an ACK only from a
        Byzantine validator, since the network never delivers to a crashed
        one.
        """
        network = self.network
        node = network.nodes[validator]
        if network.now >= node.crash_at:  # node.crashed(network.now)
            return None
        scheme, key = self.scheme, self.users[validator].public_key
        signed = {}  # message -> tag

        def sign_once(message):
            sig = signed.get(message)
            if sig is None:
                sig = signed[message] = scheme.sign(key, message)
            return sig

        answer = node.strategy.answer

        def hook(recipient):
            return answer(request, recipient, sign_once)

        return hook

    def cert_sign_fn(self, statement: bytes):
        """collect_certificate's sign_fn: each validator's share to the
        certificate's collector. A correct validator's share is one
        scheme.sign under its key over the statement, bound here, once per
        certificate; a crashed or Byzantine one is asked through respond,
        and strategies see the collector as recipient None."""
        network, users, sign = self.network, self.users, self.scheme.sign
        nodes, respond = network.nodes, self.respond
        request = SignRequest(statement)

        def sign_fn(validator):
            node = nodes[validator]
            # now < crash_at: not node.crashed(now), inlined
            if network.now < node.crash_at and node.strategy is None:
                return sign(users[validator].public_key, statement)
            hook = respond(validator, request)
            return None if hook is None else hook(None)

        return sign_fn

    def _replace(self, retiring, geneses) -> list:
        """Retire `retiring` and register one chain per genesis, born of the
        retired chains: the only place chains enter or leave the live set.
        A taken chain id raises before anything changes."""
        parents = tuple(sim.chain_id for sim in retiring)
        born = [ChainSim(self, genesis, parents) for genesis in geneses]
        for sim in born:
            self._check_id_free(sim.chain_id)
        for sim in retiring:
            sim.halted = True
            self.retired[sim.chain_id] = sim
            del self.chains[sim.chain_id]
        for sim in born:
            self.chains[sim.chain_id] = sim
        return born

    def _bear_children(self, parent: ChainSim, height: int,
                       anchor_digest: bytes) -> None:
        """Replace `parent` by its two children at its tip (`height`,
        `anchor_digest`; no commit runs in a round, so its state is the
        tip's), split by the anchor's beacon. A taken id leaves all live."""
        seed = beacon(anchor_digest)
        scheme, cfg = self.assignment_scheme, parent.config
        outcome = assign(parent.validators, scheme, seed)
        sides = zip((1, 2), child_chain_ids(parent.chain_id),
                    (outcome.v1, outcome.v2),
                    _split_clients(cfg.clients, scheme, seed))
        born = self._replace((parent,), [
            _inherit(ChainConfig(cid, validators, tuple(sorted(clients)),
                                 cfg.consensus, cfg.n_max),
                     (parent.state,), parent_chain=parent.chain_id,
                     split_height=height, side=side,
                     registered=self._registered)
            for side, cid, validators, clients in sides])
        parent.division = None  # the retired parent keeps no round
        children = []
        for sim in born:
            n_i, f_i = len(sim.validators), self.chain_fault_count(sim)
            violated = model.at_fault_bound(f_i, n_i, sim.config.consensus.alpha)
            children.append((sim.chain_id, n_i, f_i, violated))
        founders = parent.founders
        self._emit("divide", parent=parent.chain_id, n_birth=len(founders),
                   f_birth=sum(v in self.faulty for v in founders),
                   n=len(parent.validators),
                   f=self.chain_fault_count(parent), children=tuple(children))

    def _emit(self, kind: str, **fields) -> Event:
        """Record one fact of the run, at the network's current tick."""
        self.events.append(Event(self.network.now, kind, fields))
        return self.events[-1]


def _message_handler(chains):
    """The network's handler: once per calendar entry, find the live chain
    a DIVIDE or ACK names in `chains`, the Ecosystem's live-chain map, and
    return the entry's per-recipient receiver on that chain. It holds no
    reference to the Ecosystem, so the ecosystem -> network -> handler path
    is no cycle."""
    get = chains.get

    def on_message(payload, now: int):
        kind = type(payload)  # exact: the network carries only these two
        if kind is AckMsg:
            sim = get(payload.request.chain)
            if sim is not None:
                return sim.on_ack(payload)
        elif kind is DivideRequest:
            sim = get(payload.chain)
            if sim is not None:
                return sim.on_divide(payload)
        return None

    return on_message


def _name(raw: bytes) -> str:
    try:
        return raw.decode("ascii")
    except UnicodeDecodeError:
        return raw.hex()
