"""Chain lifecycle: registry, creation, joins, division, and fusion.

The :class:`Ecosystem` owns the network, the signature scheme, and one
:class:`ChainSim` per chain, live or retired: a chain's ChainSim is the only
record of its config, and its genesis the only record of its lineage.
Ordinary block commits are modeled as synchronous vote rounds (consensus is
a black box — only its quorum arithmetic matters here), while the division
protocol is message-faithful: the initiator's broadcast and every signed ack
travel through the simulated network and are counted, one DIVIDE per
validator plus n^2 acks.

Every signature a validator gives (commit vote, division ack, certificate
share) comes from :meth:`Ecosystem.respond`. Correct and crashed validators
give one answer for all recipients, so it is signed and checked once; only a
Byzantine strategy answers each recipient separately.

Nothing a run builds points back at its Ecosystem strongly: a ChainSim holds
a weak proxy of it and every network node a handler over a weak reference.
A finished run is therefore freed by reference counting, without waiting
for the cyclic garbage collector.
"""

import weakref
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cached_property, partial

from .assignment import DETERMINISTIC, RANDOMIZED, assign
from .consensus import collect_certificate, commit_statement, run_commit_round
from .crypto import SignatureScheme, beacon
from .errors import (
    AlreadyMember,
    AssetIdCollision,
    DuplicateChainId,
    NoQuorum,
    PolicyRejected,
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
    RegisterPayload,
    Role,
    Transaction,
    TxKind,
    UserId,
    apply_transaction,
    build_genesis,
    enc_bytes,
    enc_u64,
    make_block,
)
from .netsim import BYZANTINE, CRASH, Network, make_strategy

# division phases, strictly ordered
PROPOSED = 1
ACKED = 2
ASSIGNED = 3


@dataclass(frozen=True)
class DivideRequest:
    """The initiator's broadcast: divide `chain` at an agreed ledger prefix."""

    chain: ChainId
    initiator: UserId
    agreed_height: int
    anchor_digest: bytes

    @cached_property
    def statement(self) -> bytes:
        return (b"divide" + enc_bytes(self.chain) + enc_bytes(self.initiator)
                + enc_u64(self.agreed_height) + enc_bytes(self.anchor_digest))


@dataclass(frozen=True)
class AckMsg:
    request: DivideRequest
    signer: UserId
    signature: bytes


@dataclass
class DivisionState:
    """Per-validator protocol state for one division attempt."""

    request: DivideRequest
    phase: int = PROPOSED
    acks: dict = field(default_factory=dict)  # signer -> signature


@dataclass
class ValidatorRuntime:
    committed_height: int = 0
    division: DivisionState | None = None


# --- signing requests ------------------------------------------------------------
#
# A request is what every validator is asked to sign. `honest(sign)` is the
# answer of a correct validator; `byzantine(strategy, sign, recipient)` asks
# a Byzantine validator's strategy what it sends to `recipient`.
# `Ecosystem.respond` turns a request into one validator's answer.


@dataclass(frozen=True)
class VoteRequest:
    """Vote on a candidate block; answers are (digest, signature)."""

    chain: ChainId
    candidate: Block

    @cached_property
    def statement(self) -> bytes:
        return commit_statement(self.chain, self.candidate.digest,
                                self.candidate.height)

    def statement_of(self, digest) -> bytes:
        if digest == self.candidate.digest:
            return self.statement
        return commit_statement(self.chain, digest, self.candidate.height)

    def honest(self, sign):
        return self.candidate.digest, sign(self.statement)

    def byzantine(self, strategy, sign, recipient):
        return strategy.vote(self.candidate.digest, self.statement_of,
                             recipient, sign)


@dataclass(frozen=True)
class AckRequest:
    """Acknowledge a DIVIDE request; answers are signatures."""

    statement: bytes

    def honest(self, sign):
        return sign(self.statement)

    def byzantine(self, strategy, sign, recipient):
        return strategy.division_ack(self.statement, recipient, sign)


@dataclass(frozen=True)
class CertRequest:
    """Sign a certificate statement for its collector; answers are
    signatures. Strategies answer the collector alone, so the recipient
    is ignored."""

    statement: bytes

    def honest(self, sign):
        return sign(self.statement)

    def byzantine(self, strategy, sign, recipient):
        return strategy.cert_sign(self.statement, sign)


@dataclass(frozen=True)
class DivisionRecord:
    """Harness bookkeeping for one completed division."""

    tick: int
    parent: ChainId
    n: int
    f: int
    children: tuple  # ((chain_id, n_i, f_i, violated), (chain_id, n_i, f_i, violated))

    @property
    def any_violation(self) -> bool:
        return any(c[3] for c in self.children)


class Registry:
    """Membership service: user accounts and their keys. Chains keep their
    own configs and lineage (see Ecosystem.chain and lineage_rows)."""

    def __init__(self):
        self.users: dict[UserId, Account] = {}

    def pk_of(self, user: UserId):
        account = self.users.get(user)
        return None if account is None else account.public_key


class ChainSim:
    """One chain: canonical ledger, materialized state, vote rounds. A chain
    divided or fused away is halted and kept in Ecosystem.retired."""

    def __init__(self, eco: "Ecosystem", ledger):
        self.eco = weakref.proxy(eco)
        self.ledger = list(ledger)
        self.state = _replay_trusted(self.ledger)
        self.chain_id = self.state.config.chain
        self.halted = False
        self.runtimes = {v: ValidatorRuntime(self.state.last_height)
                         for v in self.state.config.validators}
        self.division_rejections: dict[UserId, str] = {}
        # AckMsg -> signature verdict, shared by receivers
        self._ack_verdicts: dict = {}

    @property
    def config(self) -> ChainConfig:
        return self.state.config

    @property
    def validators(self) -> tuple:
        return self.state.config.validators

    @property
    def quorum(self) -> int:
        return self.state.config.quorum

    def correct_validators(self) -> list:
        network = self.eco.network
        nodes, now = network.nodes, network.now
        return [v for v in self.validators
                if not nodes[v].crashed(now) and nodes[v].strategy is None]

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
        request = VoteRequest(self.chain_id, candidate)
        votes = {v: self.eco.respond(v, request) for v in self.validators}
        outcome = run_commit_round(
            self.chain_id, candidate, self.validators, self.quorum,
            self.eco.registry.pk_of, self.eco.scheme, votes.__getitem__)
        correct = self.correct_validators()
        if not any(outcome[v] for v in correct):
            self.eco._log(f"stall chain={_name(self.chain_id)} "
                          f"height={candidate.height}")
            raise Stalled(f"chain {self.chain_id!r}: no quorum at height "
                          f"{candidate.height}")
        self.ledger.append(candidate)
        self.state = replace(state, last_height=candidate.height)
        # `correct` predates this block's config; a validator the block
        # admits gets its runtime from join_chain after we return
        for v in correct:
            self.runtimes[v].committed_height = candidate.height
        return candidate

    # -- division protocol ---------------------------------------------------

    def start_division(self, initiator: UserId) -> DivideRequest:
        """Broadcast the DIVIDE message from `initiator` to every validator."""
        req = DivideRequest(self.chain_id, initiator, self.state.last_height,
                            self.ledger[-1].digest)
        self.eco.network.broadcast(initiator, self.validators, req)
        return req

    def _verify_request(self, rt: ValidatorRuntime, req: DivideRequest):
        cfg = self.state.config
        if len(cfg.validators) < cfg.n_max:
            return "trigger"
        if req.initiator not in cfg.validator_set:
            return "unknown-initiator"
        if not 0 <= req.agreed_height < len(self.ledger):
            return "unknown-height"
        if self.ledger[req.agreed_height].digest != req.anchor_digest:
            return "anchor-mismatch"
        if rt.committed_height < req.agreed_height:
            return "behind"
        return None

    def on_divide(self, validator: UserId, req: DivideRequest, now: int):
        if self.halted:
            return
        rt = self.runtimes.get(validator)
        if rt is None:
            return
        reason = self._verify_request(rt, req)
        if reason is not None:
            self.division_rejections[validator] = reason
            return
        if rt.division is None:
            rt.division = DivisionState(req)
        elif rt.division.request != req:
            return  # first proposal wins; competing requests ignored
        if rt.division.phase >= ACKED:
            return  # duplicate DIVIDE delivery
        self._broadcast_ack(validator, rt, req)

    def _broadcast_ack(self, validator, rt, req):
        network = self.eco.network
        rt.division.phase = max(rt.division.phase, ACKED)
        sig, hook = self.eco.respond(validator, AckRequest(req.statement))
        if hook is None:  # one signed ack, the same for every recipient
            if sig is not None:
                network.broadcast(validator, self.validators,
                                  AckMsg(req, validator, sig))
            return
        for recipient in self.validators:
            sig = hook(recipient)
            if sig is not None:  # None: withheld, nothing on the wire
                network.send(validator, recipient, AckMsg(req, validator, sig))

    def on_ack(self, validator: UserId, ack: AckMsg, now: int):
        if self.halted:
            return
        rt = self.runtimes.get(validator)
        if rt is None:
            return
        reason = self._verify_request(rt, ack.request)
        if reason is not None:
            self.division_rejections[validator] = reason
            return
        st = rt.division
        if st is None:
            # acks can outrun the DIVIDE broadcast; the embedded request is
            # verified above, so record the proposal and ack when it arrives
            st = rt.division = DivisionState(ack.request)
        elif st.request is not ack.request and st.request != ack.request:
            return
        # checked on every delivery: the config may change mid-division
        if ack.signer not in self.state.config.validator_set:
            return
        ok = self._ack_verdicts.get(ack)
        if ok is None:
            pk = self.eco.registry.pk_of(ack.signer)
            ok = self._ack_verdicts[ack] = pk is not None and \
                self.eco.scheme.verify(pk, ack.request.statement,
                                       ack.signature)
        if not ok:
            return
        st.acks[ack.signer] = ack.signature
        if len(st.acks) >= self.quorum and st.phase < ASSIGNED:
            st.phase = ASSIGNED
            self._complete_division(validator, st, now)

    def _complete_division(self, validator: UserId, st: DivisionState, now: int):
        req = st.request
        prefix = self.ledger[:req.agreed_height + 1]
        seed = beacon(prefix, self.eco.lookback)
        snapshot = self.state
        if snapshot.last_height != req.agreed_height:
            snapshot = _replay_trusted(prefix)
        cfg = snapshot.config
        outcome = assign(cfg.validators, self.eco.assignment_scheme, seed)
        geneses = _build_children(self.chain_id, snapshot, outcome,
                                  req.agreed_height, seed,
                                  self.eco.assignment_scheme)
        self.eco._install_division(self, geneses, now)


def _replay_trusted(ledger):
    """Replay without per-tx signature checks (blocks are already committed)."""
    from .model import replay
    return replay(ledger)


def child_chain_ids(parent: ChainId) -> tuple:
    return parent + b".1", parent + b".2"


def _split_clients(clients, scheme: str, seed: bytes):
    if len(clients) == 0:
        return (), ()
    if len(clients) == 1:
        return tuple(clients), ()
    out = assign(clients, scheme, None if scheme == DETERMINISTIC
                 else seed + b"/clients")
    return out.v1, out.v2


def _build_children(parent: ChainId, snapshot, outcome, split_height: int,
                    seed: bytes, client_scheme: str) -> tuple:
    """Two deterministic child genesis blocks partitioning the snapshot."""
    cfg = snapshot.config
    c1_clients, c2_clients = _split_clients(cfg.clients, client_scheme, seed)
    sides = {1: (outcome.v1, c1_clients), 2: (outcome.v2, c2_clients)}
    side_of = {}
    for side, (validators, clients) in sides.items():
        for u in validators:
            side_of[u] = side
        for u in clients:
            side_of[u] = side
    geneses = []
    for side, (validators, clients) in sides.items():
        child_id = child_chain_ids(parent)[side - 1]
        child_cfg = ChainConfig(child_id, tuple(validators),
                                tuple(sorted(clients)), cfg.consensus,
                                cfg.n_max)
        accounts = {}
        for u in tuple(validators) + tuple(clients):
            account = snapshot.accounts.get(u)
            if account is None:
                raise StateDivergence(f"member {u!r} missing from snapshot")
            accounts[u] = account
        assets = []
        for asset_id in sorted(snapshot.assets):
            asset = snapshot.assets[asset_id]
            owner_side = side_of.get(asset.owner)
            if owner_side is None:
                raise StateDivergence(
                    f"asset {asset_id!r} owned by non-member {asset.owner!r}")
            if owner_side == side:
                assets.append(asset)
        asset_ids = {a.asset_id for a in assets}
        locks = [(nonce, snapshot.locks[nonce])
                 for nonce in sorted(snapshot.locks)
                 if snapshot.locks[nonce] in asset_ids]
        claims = [(nonce, snapshot.claims[nonce])
                  for nonce in sorted(snapshot.claims)]
        geneses.append(build_genesis(child_cfg, accounts, parent_chain=parent,
                                     split_height=split_height, side=side,
                                     extra_assets=assets, locks=locks,
                                     claims=claims))
    return tuple(geneses)


class Ecosystem:
    """Top-level simulation handle: network + registry + live chains."""

    def __init__(self, seed: int = 0, d_min: int = 1, d_max: int = 1,
                 lookback: int = 1, assignment_scheme: str = RANDOMIZED,
                 join_policy=None):
        self.scheme = SignatureScheme(seed)
        self.network = Network(seed=seed, d_min=d_min, d_max=d_max)
        self.registry = Registry()
        self.chains: dict[ChainId, ChainSim] = {}
        self.retired: dict[ChainId, ChainSim] = {}
        self.lookback = lookback
        self.assignment_scheme = assignment_scheme
        self.join_policy = join_policy  # callable(user, chain_id) -> bool
        self.faulty: set = set()  # harness-side flags, dormant or active
        self.divisions: list[DivisionRecord] = []
        self.violations: list[str] = []
        self.events: list[str] = []
        self._division_installs: dict[ChainId, tuple] = {}
        self._handler = _message_handler(weakref.ref(self))
        # freshness tags handed out per verifying chain, keyed (chain, nonce)
        self.issued_tags: dict = {}
        self._tag_counter = 0

    # -- membership -----------------------------------------------------------

    def register_user(self, user: UserId, role: Role = Role.CLIENT,
                      faulty: bool = False) -> Account:
        if user in self.registry.users:
            raise AlreadyMember(f"user {user!r} already registered")
        account = Account(user, self.scheme.issue(user), role)
        self.registry.users[user] = account
        self.network.add_node(user, handler=self._handler)
        if faulty:
            self.faulty.add(user)
        return account

    def crash_user(self, user: UserId, at_time: int = 0) -> None:
        self.network.inject_fault(user, CRASH, at_time=at_time)
        self.faulty.add(user)

    def mark_byzantine(self, user: UserId, strategy=None) -> None:
        """Flag an already-registered user as faulty, optionally with an
        active misbehavior strategy (a name or a strategy object)."""
        if isinstance(strategy, str):
            strategy = make_strategy(strategy)
        if strategy is not None:
            self.network.inject_fault(user, BYZANTINE, strategy=strategy)
        else:
            self.network.node(user)  # raises UnknownNode for typos
        self.faulty.add(user)

    # -- chain lifecycle --------------------------------------------------------

    def create_chain(self, chain_id: ChainId, validators, clients=(),
                     alpha=Fraction(1, 2), kind: str = "cft",
                     n_max: int = 64, initial_assets=()) -> ChainSim:
        self._check_id_free(chain_id)
        for v in tuple(validators) + tuple(clients):
            if v not in self.registry.users:
                raise UnregisteredValidator(f"{v!r} has no registered account")
        config = ChainConfig(chain_id, tuple(validators),
                             tuple(sorted(clients)),
                             ConsensusParams(Fraction(alpha), kind), n_max,
                             tuple(initial_assets))
        genesis = build_genesis(config, self.registry.users)
        sim = ChainSim(self, [genesis])
        self.chains[chain_id] = sim
        self._log(f"create chain={_name(chain_id)} n={len(config.validators)}")
        return sim

    def join_chain(self, user: UserId, chain_id: ChainId,
                   role: Role = Role.VALIDATOR) -> ChainConfig:
        sim = self._live(chain_id)
        account = self.registry.users.get(user)
        if account is None:
            raise UnknownUser(f"{user!r} has no registered account")
        if role == Role.CLIENT:
            if user in sim.config.clients or user in sim.state.accounts:
                raise AlreadyMember(f"{user!r} already on {chain_id!r}")
            tx = Transaction(TxKind.REGISTER, RegisterPayload(account), user)
            sim.commit([tx])
        else:
            if self.join_policy is not None and not self.join_policy(user, chain_id):
                raise PolicyRejected(f"{user!r} refused by access policy")
            if user in sim.config.validators:
                raise AlreadyMember(f"{user!r} already a validator")
            tx = Transaction(TxKind.CONFIG_UPDATE,
                             ConfigUpdatePayload(add_validators=(account,)),
                             user)
            sim.commit([tx])
            sim.runtimes[user] = ValidatorRuntime(sim.state.last_height)
        self._log(f"join chain={_name(chain_id)} user={_name(user)} "
                  f"role={role.name.lower()} n={len(sim.config.validators)}")
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
        if initiator not in self.registry.users:
            # no account means no network presence: certainly not a validator
            raise UnknownInitiator(
                f"{initiator!r} is not a validator of {chain_id!r}")
        children = child_chain_ids(chain_id)
        for child in children:
            self._check_id_free(child)
        sim.start_division(initiator)
        self.network.run_until_idle()
        if all(c in self.chains for c in children):
            return self.chains[children[0]], self.chains[children[1]]
        reasons = set(sim.division_rejections.values())
        if "unknown-initiator" in reasons:
            raise UnknownInitiator(
                f"{initiator!r} is not a validator of {chain_id!r}")
        if "trigger" in reasons:
            raise TriggerNotMet(
                f"chain {chain_id!r} has {len(sim.validators)} validators, "
                f"trigger is {sim.config.n_max}")
        raise NoQuorum(
            f"division of {chain_id!r} gathered no quorum "
            f"(need {sim.quorum} acks)")

    def fuse_chains(self, c1_id: ChainId, c2_id: ChainId,
                    merged_id: ChainId = None) -> ChainSim:
        """Merge two halted-snapshot chains into one with alpha' = min."""
        s1, s2 = self._live(c1_id), self._live(c2_id)
        if merged_id is None:
            merged_id = c1_id + b"+" + c2_id
        self._check_id_free(merged_id)
        for sim in (s1, s2):
            stmt = (b"fuse" + enc_bytes(sim.chain_id)
                    + enc_bytes(sim.state.digest()))
            collect_certificate(stmt, sim.validators, sim.quorum,
                                self.cert_sign_fn(stmt),
                                pk_of=self.registry.pk_of, scheme=self.scheme)
        overlap = set(s1.state.assets) & set(s2.state.assets)
        if overlap:
            raise AssetIdCollision(f"asset ids on both chains: {sorted(overlap)}")
        shared = set(s1.validators) & set(s2.validators)
        if shared:
            raise SplitchainError(f"validators on both chains: {sorted(shared)}")
        p1, p2 = s1.config.consensus, s2.config.consensus
        merged_params = p1 if p1.alpha <= p2.alpha else p2
        config = ChainConfig(
            merged_id, s1.validators + s2.validators,
            tuple(sorted(set(s1.config.clients) | set(s2.config.clients))),
            merged_params, max(s1.config.n_max, s2.config.n_max))
        accounts = dict(s1.state.accounts)
        accounts.update(s2.state.accounts)
        assets = [s1.state.assets[a] for a in sorted(s1.state.assets)]
        assets += [s2.state.assets[a] for a in sorted(s2.state.assets)]
        locks = dict(s1.state.locks)
        locks.update(s2.state.locks)
        claims = dict(s1.state.claims)
        claims.update(s2.state.claims)
        genesis = build_genesis(config, accounts, extra_assets=assets,
                                locks=sorted(locks.items()),
                                claims=sorted(claims.items()))
        for sim in (s1, s2):
            sim.halted = True
            self.retired[sim.chain_id] = sim
            del self.chains[sim.chain_id]
        merged = ChainSim(self, [genesis])
        self.chains[merged_id] = merged
        self._log(f"fuse {_name(c1_id)}+{_name(c2_id)} -> {_name(merged_id)} "
                  f"alpha={merged_params.alpha}")
        return merged

    # -- harness bookkeeping ------------------------------------------------------

    def chain_fault_count(self, sim: ChainSim) -> int:
        return sum(1 for v in sim.validators if v in self.faulty)

    def chain_beta(self, chain_id: ChainId) -> Fraction:
        sim = self._live(chain_id)
        return Fraction(self.chain_fault_count(sim), len(sim.validators))

    def total_value(self) -> int:
        return sum(sim.state.total_value() for sim in self.chains.values())

    # -- chain records -----------------------------------------------------------------

    def chain(self, chain_id: ChainId) -> ChainSim | None:
        """The live or retired ChainSim of `chain_id`, or None."""
        sim = self.chains.get(chain_id)
        return sim if sim is not None else self.retired.get(chain_id)

    def lineage_rows(self) -> list:
        """(chain_id, parent_id, side, split_height) for every chain, live or
        retired, sorted by id, as each chain's genesis records them. A root
        or fused chain has no parent: (chain_id, b"", 0, 0)."""
        rows = []
        for chain_id in sorted(self.chains.keys() | self.retired.keys()):
            state = self.chain(chain_id).state
            rows.append((chain_id, state.parent_chain or b"", state.side,
                         state.split_height))
        return rows

    # -- internals -------------------------------------------------------------------

    def _live(self, chain_id: ChainId) -> ChainSim:
        sim = self.chains.get(chain_id)
        if sim is None:
            raise SplitchainError(f"no live chain {chain_id!r}")
        return sim

    def _check_id_free(self, chain_id: ChainId) -> None:
        if self.chain(chain_id) is not None:
            raise DuplicateChainId(f"chain {chain_id!r} already exists")

    def respond(self, validator: UserId, request) -> tuple:
        """`validator`'s answer to a signing request, as (answer, hook).

        A crashed validator answers None and a correct one its honest
        answer. Both send every recipient the same answer, so hook is None.
        A Byzantine validator's answer may differ per recipient: answer is
        None and hook(recipient) asks its strategy, which signs with the
        validator's own key. Tags are deterministic, so the hook signs each
        distinct message once and repeats the tag for later recipients.
        """
        node = self.network.nodes[validator]
        if node.crashed(self.network.now):
            return None, None
        pk = self.registry.users[validator].public_key

        def sign(message):
            return self.scheme.sign(pk, message)

        strategy = node.strategy
        if strategy is None:
            return request.honest(sign), None
        signed = {}  # message -> tag

        def sign_once(message):
            sig = signed.get(message)
            if sig is None:
                sig = signed[message] = sign(message)
            return sig

        return None, partial(request.byzantine, strategy, sign_once)

    def cert_sign_fn(self, statement: bytes):
        """collect_certificate's sign_fn: each validator's response to the
        certificate's collector."""
        request = CertRequest(statement)

        def sign_fn(validator):
            sig, hook = self.respond(validator, request)
            return sig if hook is None else hook(None)

        return sign_fn

    def _install_division(self, parent: ChainSim, geneses, now: int) -> None:
        digests = tuple(g.digest for g in geneses)
        existing = self._division_installs.get(parent.chain_id)
        if existing is not None:
            if existing != digests:
                raise StateDivergence(
                    f"validators built conflicting children for "
                    f"{parent.chain_id!r}")
            return
        for cid in child_chain_ids(parent.chain_id):
            self._check_id_free(cid)  # a failure leaves the parent live
        self._division_installs[parent.chain_id] = digests
        parent.halted = True
        self.retired[parent.chain_id] = parent
        del self.chains[parent.chain_id]

        f_parent = self.chain_fault_count(parent)
        children = []
        for genesis in geneses:
            sim = ChainSim(self, [genesis])
            cid = sim.chain_id
            self.chains[cid] = sim
            n_i = len(sim.validators)
            f_i = self.chain_fault_count(sim)
            alpha = sim.config.consensus.alpha
            violated = f_i * alpha.denominator >= alpha.numerator * n_i
            if violated:
                self.violations.append(
                    f"[{now}] chain={_name(cid)} f={f_i} n={n_i} "
                    f"alpha={alpha} breached at division")
            children.append((cid, n_i, f_i, violated))
        self.divisions.append(DivisionRecord(
            now, parent.chain_id, len(parent.validators), f_parent,
            tuple(children)))
        self._log(f"divide parent={_name(parent.chain_id)} "
                  f"n={len(parent.validators)} f={f_parent} -> "
                  + ", ".join(f"{_name(c)}(n={n},f={f})"
                              for c, n, f, _ in children))

    def _log(self, text: str) -> None:
        self.events.append(f"[{self.network.now}] {text}")


def _message_handler(eco_ref):
    """Every node's handler: hand DIVIDE and ACK deliveries to the live
    chain they name. It holds its Ecosystem through `eco_ref`, a weak
    reference, so the ecosystem -> network -> node -> handler path is no
    cycle."""

    def on_message(node_id: bytes, payload, now: int) -> None:
        eco = eco_ref()
        if isinstance(payload, AckMsg):
            sim = eco.chains.get(payload.request.chain)
            if sim is not None:
                sim.on_ack(node_id, payload, now)
        elif isinstance(payload, DivideRequest):
            sim = eco.chains.get(payload.chain)
            if sim is not None:
                sim.on_divide(node_id, payload, now)

    return on_message


def _name(raw: bytes) -> str:
    try:
        return raw.decode("ascii")
    except UnicodeDecodeError:
        return raw.hex()
