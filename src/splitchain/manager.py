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
and delivery tick. ``ChainSim.on_divide`` and ``ChainSim.on_ack`` judge an
entry's request once, from the live tip (:meth:`ChainSim._judgment`), and
return a receiver that runs once per recipient.

A correct validator's commit vote is its signature over the candidate's
commit statement, signed and checked once: :meth:`ChainSim.commit` hands the
round each correct voter's signing closure. Its division ACK is likewise
its closure's tag over the DIVIDE statement, broadcast as one message by
the receiver :meth:`ChainSim.on_divide` returns. A crashed validator is
silent, and a Byzantine one votes and acks through the per-recipient hook
that :meth:`Ecosystem.respond` builds. Respond also answers every
certificate share, and it is the only place a hook is built.
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
)
from .netsim import Network, make_strategy

@dataclass(frozen=True)
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


@dataclass(frozen=True)
class AckMsg:
    request: DivideRequest
    signer: UserId
    signature: bytes


@dataclass
class DivisionRound:
    """One division attempt on a chain, from its DIVIDE broadcast on.

    A round is bound to the tip its DIVIDE names. Any commit after the DIVIDE
    ends it: every validator then rejects the request as "not-tip". So while
    a validator accepts the request, the chain's state is the round's tip
    state. Each start_division makes a fresh round, so each attempt is judged
    afresh and nothing a failed attempt left behind counts later.
    """

    request: DivideRequest
    acks: dict = field(default_factory=dict)  # validator -> {signer: signature}
    # validator -> why its latest DIVIDE or ACK delivery was refused
    rejections: dict = field(default_factory=dict)
    # (signer, signature) -> whether the signer is a member and the tag
    # verifies, shared by every recipient. Exact: it is read only while the
    # recipient accepts the request, so the statement and config are fixed.
    verdicts: dict = field(default_factory=dict)


# --- signing requests ------------------------------------------------------------
#
# A request is what every validator is asked to sign. `value` is what a
# correct validator endorses, and `answer(value, sign)` is what goes on the
# wire when a validator endorses `value`. `Ecosystem.respond` turns a request
# into one validator's answer.


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class SignRequest:
    """Sign a statement: a division ACK, or a certificate share answered to
    its collector (recipient None). `value` is the statement; answers are
    signatures."""

    statement: bytes

    @property
    def value(self) -> bytes:
        return self.statement

    def answer(self, statement, sign):
        return sign(statement)


# events.log's format per event kind: ids print as names, nonces are hex
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


@dataclass(frozen=True)
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
        self.state = model.genesis_state(genesis)
        self.chain_id = self.state.config.chain
        self.founders = self.state.config.validators  # its genesis installed
        self.parents = parents  # ids of the chains it was born from
        self.halted = False
        # validator -> height of the last block it committed
        self.committed = dict.fromkeys(self.founders, 0)
        self.division: DivisionRound | None = None

    @property
    def config(self) -> ChainConfig:
        return self.state.config

    @property
    def validators(self) -> tuple:
        return self.state.config.validators

    @property
    def quorum(self) -> int:
        return self.state.config.quorum

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
        network, signers = eco.network, eco._signers
        nodes, now = network.nodes, network.now
        correct = {}  # correct validator -> its signing closure
        for v in self.validators:
            node = nodes[v]
            # now < crash_at: not node.crashed(now), inlined
            if now < node.crash_at and node.strategy is None:
                correct[v] = signers[v]
        request = VoteRequest(self.chain_id, candidate)
        respond = eco.respond

        def hook_of(voter):  # crashed: None; Byzantine: its hook
            return respond(voter, request)[1]

        outcome = run_commit_round(
            self.chain_id, candidate, self.validators, self.quorum,
            eco.verify, correct, hook_of)
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

    def start_division(self, initiator: UserId) -> DivideRequest:
        """Open a new division round and broadcast its DIVIDE message from
        `initiator` to every validator. Deliveries of an earlier round's
        messages are ignored from now on."""
        req = DivideRequest(self.chain_id, initiator, self.state.last_height,
                            self.ledger[-1].digest)
        self.division = DivisionRound(req)
        self.eco.network.broadcast(initiator, self.validators, req)
        return req

    def _judgment(self, req: DivideRequest):
        """(round, refusal) for one DIVIDE or ACK entry, or None for an
        earlier round's `req`. `refusal`, read from the live tip, is the
        reason all recipients share (None: only "behind" is left). Only
        commit changes what it reads, and none runs inside a network run."""
        rnd = self.division
        if rnd.request is not req and rnd.request != req:
            return None
        cfg = self.state.config
        if len(cfg.validators) < cfg.n_max:
            return rnd, "trigger"
        if req.initiator not in cfg.validator_set:
            return rnd, "unknown-initiator"
        if req.agreed_height != self.state.last_height:
            return rnd, "not-tip"
        if self.ledger[-1].digest != req.anchor_digest:
            return rnd, "anchor-mismatch"
        return rnd, None

    def on_divide(self, req: DivideRequest):
        """The receiver of one DIVIDE calendar entry: receive(validator) acks
        if the validator accepts the request; None for an earlier round's.
        What it reads besides the validator's node is fixed while the
        network runs, so it is read once per entry."""
        judgment = self._judgment(req)
        if judgment is None:
            return None
        rnd, refusal = judgment
        committed, height = self.committed, req.agreed_height
        eco = self.eco
        network, signers = eco.network, eco._signers
        nodes, validators, statement = (network.nodes, self.validators,
                                        req.statement)

        def receive(validator):
            if refusal is not None or committed[validator] < height:
                rnd.rejections[validator] = refusal or "behind"
                return
            node = nodes[validator]
            # now < crash_at: not node.crashed(now), inlined
            if network.now < node.crash_at and node.strategy is None:
                # correct: one ACK, its own closure's tag, to every validator
                network.broadcast(validator, validators, AckMsg(
                    req, validator, signers[validator](statement)))
            else:
                self._ack_through_respond(validator, req)

        return receive

    def _ack_through_respond(self, validator, req):
        """A crashed or Byzantine validator's ACKs, as respond answers."""
        network = self.eco.network
        hook = self.eco.respond(validator, SignRequest(req.statement))[1]
        if hook is None:  # crashed: silent
            return
        for recipient in self.validators:
            sig = hook(recipient)
            if sig is not None:  # None: withheld, nothing on the wire
                network.send(validator, recipient, AckMsg(req, validator, sig))

    def on_ack(self, ack: AckMsg):
        """The receiver of one ACK calendar entry: receive(validator) runs
        once per delivery of `ack`; None when the ack belongs to an earlier
        round. Acks can outrun the DIVIDE; the embedded request is judged
        here. What a delivery can change (halted: the first completion
        retires the chain, so no later delivery completes the round; acks)
        is read per delivery, the rest once per entry."""
        judgment = self._judgment(ack.request)
        if judgment is None:
            return None
        rnd, refusal = judgment
        req, rejections, committed = rnd.request, rnd.rejections, self.committed
        acks_of, height = rnd.acks, req.agreed_height
        cfg = self.state.config  # the round's own while it is accepted
        quorum = cfg.quorum
        signer, sig = ack.signer, ack.signature
        ok = None  # the (signer, sig) verdict, once a delivery reads it

        def receive(validator):
            nonlocal ok
            if self.halted:
                return
            if refusal is not None or committed[validator] < height:
                rejections[validator] = refusal or "behind"
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
                self._complete_division(rnd)

        return receive

    def _complete_division(self, rnd: DivisionRound):
        # the validator accepts the request, so self.state is its tip state
        req = rnd.request
        seed = beacon(req.anchor_digest)
        scheme = self.eco.assignment_scheme
        cfg = self.state.config
        outcome = assign(self.validators, scheme, seed)
        sides = zip((1, 2), child_chain_ids(self.chain_id),
                    (outcome.v1, outcome.v2),
                    _split_clients(cfg.clients, scheme, seed))
        geneses = [_inherit(ChainConfig(cid, validators, tuple(sorted(clients)),
                                        cfg.consensus, cfg.n_max),
                            (self.state,), parent_chain=self.chain_id,
                            split_height=req.agreed_height, side=side,
                            registered=self.eco._registered)
                   for side, cid, validators, clients in sides]
        self.eco._install_division(self, geneses)


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
        # UserId -> sign(message), for commit votes, ACKs and respond
        self._signers: dict = {}
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
        scheme = self.scheme
        public_key = scheme.issue(user)
        account = Account(user, public_key, role)
        self.users[user] = account
        self.network.add_node(user)

        def sign(message):
            # scheme.sign is looked up on each call, so a patched or
            # subclassed SignatureScheme.sign sees every tag
            return scheme.sign(public_key, message)

        self._signers[user] = sign
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
        self._emit("create", chain=chain_id, n=len(config.validators))
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
        """Run the division protocol to completion (direct-drive mode).

        Returns the two child ChainSims, or raises UnknownInitiator /
        TriggerNotMet / NoQuorum mirroring what correct validators reported.
        Raises DuplicateChainId, before any message is sent, when a child id
        is already taken.
        """
        sim = self._live(chain_id)
        if initiator is None:
            initiator = sim.validators[0]
        if initiator not in self.users:
            # no account means no network presence: certainly not a validator
            raise UnknownInitiator(f"{_name(initiator)} is not a validator "
                                   f"of {_name(chain_id)}")
        children = child_chain_ids(chain_id)
        for child in children:
            self._check_id_free(child)
        sim.start_division(initiator)
        n = len(sim.validators)
        # a DIVIDE to each validator, then at most n acks from each
        self.network.run_until_idle(n + n * n)
        if all(c in self.chains for c in children):
            return self.chains[children[0]], self.chains[children[1]]
        reasons = set(sim.division.rejections.values())
        if "unknown-initiator" in reasons:
            raise UnknownInitiator(f"{_name(initiator)} is not a validator "
                                   f"of {_name(chain_id)}")
        if "trigger" in reasons:
            raise TriggerNotMet(
                f"chain {_name(chain_id)} has {len(sim.validators)} "
                f"validators, trigger is {sim.config.n_max}")
        rejected = (f"; rejected: {', '.join(sorted(reasons))}" if reasons
                    else "")
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
                   alpha=merged_params.alpha)
        return merged

    # -- harness bookkeeping ------------------------------------------------------

    def chain_fault_count(self, sim: ChainSim) -> int:
        return len(self.faulty.intersection(sim.validators))  # distinct ids

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

    def respond(self, validator: UserId, request) -> tuple:
        """`validator`'s answer to a signing request, as (answer, hook).

        A crashed validator answers None, and a correct one endorses the
        request's value: request.answer(request.value, sign). Both send every
        recipient the same answer, so hook is None. A Byzantine validator's
        answer may differ per recipient: answer is None and hook(recipient)
        is strategy.answer(request, recipient, sign), which signs with the
        validator's own key. Tags are deterministic, so the hook signs each
        distinct message once and repeats the tag for later recipients.

        `sign` is the validator's signing closure, made once by
        register_user. It calls scheme.sign(public_key, message), looked up
        at call time, so every tag a validator gives goes through
        SignatureScheme.sign. Neither a commit round nor a division asks
        respond for a correct validator's vote or ACK: ChainSim.commit
        passes run_commit_round that validator's closure, and the receiver
        ChainSim.on_divide returns signs with it.
        """
        network = self.network
        node = network.nodes[validator]
        if network.now >= node.crash_at:  # node.crashed(network.now)
            return None, None
        sign = self._signers[validator]
        strategy = node.strategy
        if strategy is None:
            return request.answer(request.value, sign), None
        signed = {}  # message -> tag

        def sign_once(message):
            sig = signed.get(message)
            if sig is None:
                sig = signed[message] = sign(message)
            return sig

        answer = strategy.answer

        def hook(recipient):
            return answer(request, recipient, sign_once)

        return None, hook

    def cert_sign_fn(self, statement: bytes):
        """collect_certificate's sign_fn: each validator's response to the
        certificate's collector, which strategies see as recipient None."""
        request = SignRequest(statement)

        def sign_fn(validator):
            sig, hook = self.respond(validator, request)
            return sig if hook is None else hook(None)

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

    def _install_division(self, parent: ChainSim, geneses) -> None:
        born = self._replace((parent,), geneses)  # a taken id leaves all live
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
