"""Chain lifecycle: creation, joins, the division protocol, fusion."""

import weakref
from collections import Counter
from fractions import Fraction

import pytest

from splitchain import manager
from splitchain.consensus import commit_statement, run_commit_round
from splitchain.crypto import SignatureScheme
from splitchain.errors import (
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
from splitchain.manager import (
    AckMsg,
    ChainSim,
    DivideRequest,
    DivisionRound,
    Ecosystem,
    SignRequest,
    VoteRequest,
    child_chain_ids,
)
from splitchain.model import (
    Asset,
    LockPayload,
    Role,
    Transaction,
    TxKind,
    enc_bytes,
    make_block,
    replay,
    sha256,
)
from splitchain.netsim import (
    Equivocate,
    Network,
    _targets_recipient,
    make_strategy,
)
from splitchain.scenario import run_scenario
from splitchain.xchain import toa_claim, toa_lock, toa_resolve

from helpers import divide_events, reference_commit_round

HALF = Fraction(1, 2)
THIRD = Fraction(1, 3)


class CountingScheme(SignatureScheme):
    """Signature scheme that counts sign and verify calls per key, and
    verify calls in all."""

    def __init__(self, seed=0):
        super().__init__(seed)
        self.signs = Counter()  # public key -> sign calls
        self.verifies = 0
        self.verified = Counter()  # public key -> verify calls

    def sign(self, public_key, message):
        self.signs[public_key] += 1
        return super().sign(public_key, message)

    def verify(self, public_key, message, signature):
        self.verifies += 1
        self.verified[public_key] += 1
        return super().verify(public_key, message, signature)


def build_eco(n=10, clients=0, alpha=HALF, kind="cft", n_max=None, seed=0,
              assets_per_client=0, faulty=(), strategies=None, scheme="randomized",
              counting=False, d_max=1):
    """Ecosystem with one chain `root` of n validators (u000..) and clients
    (u100..); `faulty` ids are flagged, `strategies` maps id -> behavior.
    With `counting`, eco.scheme is a CountingScheme. Message delays are
    drawn from 1..d_max."""
    eco = Ecosystem(seed=seed, d_max=d_max, assignment_scheme=scheme)
    if counting:
        eco.scheme = CountingScheme(seed)
    strategies = strategies or {}
    validators = []
    for i in range(n):
        u = b"u%03d" % i
        eco.register_user(u, Role.VALIDATOR, faulty=u in faulty)
        if strategies.get(u) is not None:
            eco.mark_byzantine(u, strategies[u])
        validators.append(u)
    client_ids = []
    assets = []
    for i in range(clients):
        u = b"u%03d" % (100 + i)
        eco.register_user(u, Role.CLIENT)
        client_ids.append(u)
        for j in range(assets_per_client):
            assets.append(Asset(b"coin-%03d-%d" % (100 + i, j), u, 1 + j))
    eco.create_chain(b"root", validators, client_ids, alpha=alpha, kind=kind,
                     n_max=n_max if n_max is not None else n,
                     initial_assets=assets)
    return eco


def tip_round(eco, initiator=b"u000"):
    """A fresh DivisionRound of root at its tip, as divide_chain opens one."""
    sim = eco.chains[b"root"]
    return DivisionRound(DivideRequest(b"root", initiator,
                                       sim.state.last_height,
                                       sim.ledger[-1].digest))


def signed_ack(eco, rnd, signer):
    """`signer`'s ACK of the round, tagged under its own key."""
    return AckMsg(signer, eco.scheme.sign(eco.users[signer].public_key,
                                          rnd.request.statement))


@pytest.fixture
def division_rounds(monkeypatch):
    """A weak reference to every DivisionRound that divide_chain opens."""
    refs = []

    def recorded(request):
        rnd = DivisionRound(request)
        refs.append(weakref.ref(rnd))
        return rnd

    monkeypatch.setattr(manager, "DivisionRound", recorded)
    return refs


# --- creation and joins -----------------------------------------------------


def test_create_chain_registers_and_replays():
    eco = build_eco(n=4, clients=2, assets_per_client=1, n_max=8)
    sim = eco.chains[b"root"]
    assert sim.state.last_height == 0
    assert eco.chain(b"root") is sim
    assert eco.lineage_rows() == (("root", "", 0, 0),)
    assert replay(sim.ledger).digest() == sim.state.digest()
    assert sim.state.total_value() == 2


def test_create_duplicate_chain_id_rejected():
    eco = build_eco(n=4, n_max=8)
    with pytest.raises(DuplicateChainId):
        eco.create_chain(b"root", [b"u000", b"u001"])


@pytest.mark.parametrize("clients,assets,error,tx", [
    # tx 0 installs the config, txs 1-4 register the validators
    ([b"c1"], [Asset(b"coin", b"c1", 1), Asset(b"coin", b"c1", 2)],
     AssetIdCollision, 7),
    ([b"c1"], [Asset(b"coin", b"c2", 1)], UnknownUser, 6),  # c2: no seat
    ([b"c1", b"c1"], [], AlreadyMember, 6),
], ids=["asset-id-twice", "owner-not-member", "client-twice"])
def test_create_chain_refuses_a_bad_genesis_and_changes_nothing(
        clients, assets, error, tx):
    eco = Ecosystem(seed=0)
    validators = [b"u%03d" % i for i in range(4)]
    for v in validators:
        eco.register_user(v, Role.VALIDATOR)
    for c in (b"c1", b"c2"):
        eco.register_user(c, Role.CLIENT)
    with pytest.raises(error, match=rf"height 0, tx {tx}: "):
        eco.create_chain(b"x", validators, clients, initial_assets=assets)
    assert (eco.chains, eco.retired, eco.events) == ({}, {}, [])


def test_verify_checks_the_signers_key_and_never_asks_for_a_stranger():
    eco = build_eco(n=4, n_max=8, counting=True)
    sig = eco.scheme.sign(eco.users[b"u000"].public_key, b"msg")
    assert eco.verify(b"u000", b"msg", sig)
    assert not eco.verify(b"u001", b"msg", sig)
    assert eco.scheme.verifies == 2
    assert not eco.verify(b"ghost", b"msg", sig)
    assert eco.scheme.verifies == 2  # an unregistered signer has no key


def test_correct_keys_names_the_live_honest_validators_in_order():
    # a crash tick still ahead of the clock counts as live; a Byzantine
    # validator, and one crashed at the network's now, are not correct
    eco = build_eco(n=5, n_max=8, strategies={b"u001": "badsig"})
    eco.crash_user(b"u002", at_time=4)
    eco.crash_user(b"u003", at_time=6)
    eco.network.advance_to(4)
    asked = (b"u004", b"u003", b"u002", b"u001", b"u000")
    correct = eco.correct_keys(asked)
    assert list(correct) == [b"u004", b"u003", b"u000"]
    assert correct == {v: eco.users[v].public_key for v in correct}
    eco.network.advance_to(6)
    assert list(eco.correct_keys(asked)) == [b"u004", b"u000"]


def test_create_with_unregistered_validator_rejected():
    eco = build_eco(n=4, n_max=8)
    with pytest.raises(UnregisteredValidator):
        eco.create_chain(b"other", [b"u000", b"ghost"])


def test_validator_join_recomputes_quorum():
    eco = build_eco(n=4, alpha=THIRD, kind="bft", n_max=16)
    assert eco.chains[b"root"].config.quorum == 3
    eco.register_user(b"u900", Role.VALIDATOR)
    cfg = eco.join_chain(b"u900", b"root")
    assert len(cfg.validators) == 5
    assert eco.chains[b"root"].config.quorum == 4
    assert eco.chain(b"root").config is cfg


# --- commits under faults ------------------------------------------------------


def test_commit_tolerates_one_crash_of_four():
    eco = build_eco(n=4, alpha=THIRD, kind="bft", n_max=8)
    eco.crash_user(b"u003")
    assert eco.chains[b"root"].commit([]).height == 1


def test_commit_stalls_with_two_crashes_of_four():
    eco = build_eco(n=4, alpha=THIRD, kind="bft", n_max=8, counting=True)
    eco.crash_user(b"u002")
    eco.crash_user(b"u003")
    with pytest.raises(Stalled, match="no quorum at height 1"):
        eco.chains[b"root"].commit([])
    # one round: each live voter's vote is verified once, not once per retry
    assert eco.scheme.verifies == 2


class CountingStrategy:
    """A stock strategy, counting the requests it answers."""

    def __init__(self, name):
        self.inner = make_strategy(name)
        self.asked = 0

    def answer(self, request, recipient, sign):
        self.asked += 1
        return self.inner.answer(request, recipient, sign)


def test_all_honest_commit_signs_and_verifies_only_the_first_quorum():
    # voters are asked in validator order until q valid votes are in, so
    # exactly the first q correct validators sign once and are verified
    # once; crashed and Byzantine ones among them make the round ask
    # further, and no strategy is asked, since the correct votes reach
    # quorum (n=10, q=5, u001 and u003 crashed: u000, u002 and u004-u006
    # sign, u007-u009 are not asked)
    for n, crashed, byzantine in (
            (1, (), ()), (4, (), ()), (10, (), ()), (4, (b"u000",), ()),
            (10, (b"u001", b"u003"), ()), (4, (), (b"u000",)),
            (10, (), (b"u000", b"u002", b"u003")),
            (10, (b"u001",), (b"u000", b"u004"))):
        strategies = {v: CountingStrategy(name) for v, name in zip(
            byzantine, ("equivocate", "badsig", "withhold"))}
        eco = build_eco(n=n, n_max=16, counting=True, strategies=strategies)
        for v in crashed:
            eco.crash_user(v)
        eco.scheme.signs.clear()
        sim = eco.chains[b"root"]
        sim.commit([])
        correct = [v for v in sim.validators
                   if v not in crashed and v not in byzantine]
        first = Counter({eco.users[v].public_key: 1
                         for v in correct[:sim.config.quorum]})
        case = (n, crashed, byzantine)
        assert eco.scheme.signs == first, case
        assert eco.scheme.verified == first, case
        assert [s.asked for s in strategies.values()] == [0] * len(byzantine)


def test_committed_holds_each_validators_last_committed_height():
    # n=4 at a third: q=3, and q=4 once a fifth validator joins
    eco = build_eco(n=4, alpha=THIRD, kind="bft", n_max=16)
    sim = eco.chains[b"root"]
    assert sim.committed == dict.fromkeys(sim.validators, 0)
    sim.commit([])
    assert sim.committed == dict.fromkeys(sim.validators, 1)
    eco.crash_user(b"u003")  # crashed before the next commit: stays at 1
    sim.commit([])
    expected = {b"u000": 2, b"u001": 2, b"u002": 2, b"u003": 1}
    assert sim.committed == expected
    eco.register_user(b"u100", Role.VALIDATOR)
    eco.join_chain(b"u100", b"root")  # the joiner gets last_height
    assert sim.state.last_height == 3
    expected.update({b"u000": 3, b"u001": 3, b"u002": 3, b"u100": 3})
    assert sim.committed == expected
    sim.commit([])
    expected.update({b"u000": 4, b"u001": 4, b"u002": 4, b"u100": 4})
    assert sim.committed == expected
    # three correct voters of five fall short of q=4: nothing changes
    eco.crash_user(b"u002")
    ledger, state = list(sim.ledger), sim.state
    with pytest.raises(Stalled, match="no quorum at height 5"):
        sim.commit([])
    assert sim.ledger == ledger and sim.state is state
    assert sim.committed == expected


def crash_honest_beyond(eco, sim, live, byzantine):
    """Crash every correct validator of `sim` but the first `live`."""
    honest = [v for v in sim.validators if v not in byzantine]
    for v in honest[live:]:
        eco.crash_user(v)
    return honest[:live]


def test_byzantine_voter_signs_once_per_distinct_message():
    # correct votes fall one short of quorum, so every recipient asks the
    # Byzantine voters and the equivocator's honest half decides the round
    for n in (4, 7, 10):
        eco = build_eco(n=n, counting=True, strategies={
            b"u001": "equivocate", b"u002": "badsig"})
        sim = eco.chains[b"root"]
        live = crash_honest_beyond(eco, sim, sim.config.quorum - 1,
                                   (b"u001", b"u002"))

        def pk(user):
            return eco.users[user].public_key

        candidate = make_block(1, sim.ledger[-1].digest, [])
        request = VoteRequest(b"root", candidate)
        eco.scheme.signs.clear()
        keys = {v: pk(v) for v in live}
        hooks = {v: eco.respond(v, request) for v in sim.validators
                 if v not in keys}
        args = (b"root", candidate, sim.validators, sim.config.quorum,
                eco.verify, keys, eco.scheme.sign, eco.scheme.verify,
                hooks.__getitem__)
        outcome = run_commit_round(*args)
        # the equivocator sends two statements to n recipients: two tags
        assert eco.scheme.signs[pk(b"u001")] == 2, n
        assert eco.scheme.signs[pk(b"u002")] == 0, n  # garbage, never signed
        assert all(eco.scheme.signs[pk(v)] == (1 if v in live else 0)
                   for v in sim.validators
                   if v not in (b"u001", b"u002")), n
        # each distinct matching signature is verified once: the live
        # honest voters', the equivocator's honest one and every badsig tag
        equivocator, badsig = hooks[b"u001"], hooks[b"u002"]
        honest_tags = {equivocator(r)[1] for r in sim.validators
                       if equivocator(r)[0] == candidate.digest}
        garbage = {badsig(r)[1] for r in sim.validators}
        assert len(honest_tags) == 1 and len(garbage) == n
        assert eco.scheme.verifies == len(live) + 1 + n, n
        assert outcome == reference_commit_round(*args), n
        assert set(outcome.values()) == {True, False}, n
        assert eco.scheme.signs[pk(b"u001")] == 2, n  # memo spans recipients


def test_byzantine_voter_is_asked_only_when_correct_votes_fall_short():
    for n in (4, 7, 10):
        for short in (0, 1):
            strategy = CountingStrategy("equivocate")
            eco = build_eco(n=n, strategies={b"u001": strategy})
            sim = eco.chains[b"root"]
            live = crash_honest_beyond(eco, sim, sim.config.quorum - short,
                                       (b"u001",))
            candidate = make_block(1, sim.ledger[-1].digest, [])
            request = VoteRequest(b"root", candidate)
            keys = {v: eco.users[v].public_key for v in live}
            hooks = {v: eco.respond(v, request) for v in sim.validators
                     if v not in keys}
            args = (b"root", candidate, sim.validators, sim.config.quorum,
                    eco.verify, keys, eco.scheme.sign, eco.scheme.verify,
                    hooks.__getitem__)
            outcome = run_commit_round(*args)
            assert strategy.asked == (n if short else 0), (n, short)
            assert outcome == reference_commit_round(*args), (n, short)
            if not short:
                assert all(outcome.values()), n


class Recorder:
    """Answers every request honestly through the one strategy method and
    records what it was asked, as (request type, recipient)."""

    def __init__(self):
        self.asked = set()

    def answer(self, request, recipient, sign):
        self.asked.add((type(request), recipient))
        return request.answer(request.value, sign)


def test_one_strategy_method_answers_votes_acks_and_certificate_shares():
    # every validator acks the DIVIDE, each child certifies its state for
    # the fusion, and with u001 crashed the merged chain's one correct vote
    # falls short of quorum 2, so its commit asks the recorders' hooks
    recorder = Recorder()
    eco = build_eco(n=4, strategies=dict.fromkeys((b"u002", b"u003"),
                                                  recorder))
    root = eco.chains[b"root"].validators
    eco.divide_chain(b"root", initiator=b"u000")
    merged = eco.fuse_chains(b"root.1", b"root.2")
    eco.crash_user(b"u001")
    merged.commit([])
    assert merged.state.last_height == 1
    assert recorder.asked == ({(SignRequest, r) for r in root}
                              | {(SignRequest, None)}
                              | {(VoteRequest, r) for r in merged.validators})

    # Equivocate, against the formulas of its per-kind methods
    def sign(message):
        return b"tag:" + message

    peers = [b"u%03d" % i for i in range(8)]
    targeted = next(r for r in peers if _targets_recipient(r))
    spared = next(r for r in peers if not _targets_recipient(r))
    equivocate = Equivocate()
    candidate = make_block(1, sha256(b"prev"), [])
    digest = candidate.digest
    evil = sha256(b"evil" + digest)
    vote = VoteRequest(b"c", candidate)
    assert equivocate.answer(vote, targeted, sign) == (
        evil, sign(commit_statement(b"c", evil, 1)))
    assert equivocate.answer(vote, spared, sign) == (
        digest, sign(commit_statement(b"c", digest, 1)))
    statement = b"a statement"
    request = SignRequest(statement)
    assert equivocate.answer(request, targeted, sign) == sign(
        sha256(b"evil" + statement))
    assert equivocate.answer(request, spared, sign) == sign(statement)
    assert equivocate.answer(request, None, sign) == sign(
        sha256(b"evil" + statement))


# --- division: happy path ---------------------------------------------------------


def test_division_splits_ten_into_five_and_five():
    eco = build_eco(n=10)
    c1, c2 = eco.divide_chain(b"root", initiator=b"u000")
    assert len(c1.validators) == 5 and len(c2.validators) == 5
    assert set(c1.validators) | set(c2.validators) == set(
        b"u%03d" % i for i in range(10))
    assert not set(c1.validators) & set(c2.validators)
    assert b"root" not in eco.chains
    assert eco.chain(b"root") is eco.retired[b"root"]
    assert eco.retired[b"root"].halted
    assert eco.lineage_rows() == (("root", "", 0, 0), ("root.1", "root", 1, 0),
                                  ("root.2", "root", 2, 0))


def test_division_message_count_is_n_plus_n_squared():
    for n in (4, 7, 10):
        eco = build_eco(n=n, counting=True)
        before = eco.network.messages_sent
        eco.divide_chain(b"root", initiator=b"u000")
        assert eco.network.messages_sent - before == n + n * n, n
        # each validator signs one ack and sends it to all n validators
        validators = eco.retired[b"root"].validators
        assert eco.scheme.signs == Counter(
            {eco.users[v].public_key: 1 for v in validators}), n
        # each distinct ack signature is checked at most once (receivers
        # stop once the division completes)
        assert eco.scheme.verifies <= n, n


def test_a_division_rounds_calendar_holds_one_entry_per_broadcast():
    # unit delay: the DIVIDE is one entry at tick 1, and the n ack
    # broadcasts it triggers are n entries at tick 2, not n^2 deliveries;
    # the handler is called once per entry
    n = 50
    eco = build_eco(n=n)
    network = eco.network
    run, seen = network.run_until_idle, []

    def recording_run(handler, max_events):
        def recording(payload, now):
            seen.append((now, type(payload), network.messages_sent))
            return handler(payload, now)

        return run(recording, max_events)

    network.run_until_idle = recording_run
    eco.divide_chain(b"root", initiator=b"u000")
    # every ack was sent while tick 1 ran, before tick 2's first entry
    assert seen[:2] == [(1, DivideRequest, n), (2, AckMsg, n + n * n)]
    assert Counter((now, kind) for now, kind, _ in seen) == {
        (1, DivideRequest): 1, (2, AckMsg): n}
    assert b"root.1" in eco.chains and b"root.2" in eco.chains


def test_deliveries_after_the_first_completion_do_nothing():
    # the first validator to reach quorum retires the parent; the rest of
    # that ack entry, and every later one, reach a halted chain
    for n in (4, 10, 50):
        eco = build_eco(n=n)
        eco.divide_chain(b"root")
        assert len(divide_events(eco)) == 1, n


def test_division_budget_is_the_rounds_own_bound(monkeypatch):
    # a round delivers n + n^2 messages, whatever the default budget is
    monkeypatch.setattr(Network.run_until_idle, "__defaults__", (100,))
    eco = build_eco(n=10)
    c1, c2 = eco.divide_chain(b"root")
    assert eco.network.messages_sent == 10 + 10 * 10
    assert len(c1.validators) + len(c2.validators) == 10


def test_division_partitions_state():
    eco = build_eco(n=8, clients=4, assets_per_client=2)
    parent = eco.chains[b"root"]
    parent_snapshot = parent.state
    c1, c2 = eco.divide_chain(b"root")
    s1, s2 = replay(c1.ledger), replay(c2.ledger)
    # every account in exactly one child
    for u in parent_snapshot.accounts:
        assert (u in s1.accounts) != (u in s2.accounts), u
    # every asset in exactly one child, owner side respected
    for aid, asset in parent_snapshot.assets.items():
        assert (aid in s1.assets) != (aid in s2.assets), aid
        holder = s1 if aid in s1.assets else s2
        assert asset.owner in holder.accounts
    assert s1.total_value() + s2.total_value() == parent_snapshot.total_value()


def test_division_is_deterministic_per_seed():
    a1, _ = build_eco(n=10, seed=7).divide_chain(b"root"), None
    b1, _ = build_eco(n=10, seed=7).divide_chain(b"root"), None
    c1, _ = build_eco(n=10, seed=8).divide_chain(b"root"), None
    assert a1[0].validators == b1[0].validators
    assert a1[1].validators == b1[1].validators
    assert (a1[0].validators != c1[0].validators
            or a1[1].validators != c1[1].validators)


def test_division_with_deterministic_assignment_sorts():
    eco = build_eco(n=6, scheme="deterministic")
    c1, c2 = eco.divide_chain(b"root")
    assert c1.validators == tuple(b"u%03d" % i for i in range(3))
    assert c2.validators == tuple(b"u%03d" % i for i in range(3, 6))


def test_locked_asset_follows_owner_with_lock_intact():
    eco = build_eco(n=4, clients=2, assets_per_client=1)
    sim = eco.chains[b"root"]
    owner = b"u100"
    asset_id = b"coin-100-0"
    payload = LockPayload(asset_id, 1, b"elsewhere", b"addr", b"nonce-1")
    tx = Transaction(TxKind.LOCK, payload, owner)
    tx = Transaction(TxKind.LOCK, payload, owner,
                     eco.scheme.sign(eco.users[owner].public_key,
                                     tx.signing_bytes()))
    sim.commit([tx])
    c1, c2 = eco.divide_chain(b"root")
    holder = c1 if asset_id in c1.state.assets else c2
    asset = holder.state.assets[asset_id]
    assert asset.locked and asset.lock_target == (b"elsewhere", b"addr")
    assert holder.state.locks[b"nonce-1"] == asset_id
    assert owner in holder.state.accounts


# --- division: adversarial paths -----------------------------------------------------


def test_non_member_initiator_never_divides():
    eco = build_eco(n=4)
    eco.register_user(b"mallory", Role.VALIDATOR)
    with pytest.raises(UnknownInitiator):
        eco.divide_chain(b"root", initiator=b"mallory")
    sim = eco.chains[b"root"]
    assert not sim.halted
    assert child_chain_ids(b"root")[0] not in eco.chains
    assert divide_events(eco) == []


def test_division_below_trigger_rejected():
    eco = build_eco(n=4, n_max=8)
    with pytest.raises(TriggerNotMet):
        eco.divide_chain(b"root")
    assert b"root" in eco.chains


@pytest.mark.parametrize("retired", [False, True])
def test_division_into_a_taken_child_id_touches_nothing(retired,
                                                        division_rounds):
    eco = build_eco(n=4)
    for u in (b"x000", b"x001"):
        eco.register_user(u, Role.VALIDATOR)
    eco.create_chain(b"root.2", [b"x000"])
    if retired:
        eco.create_chain(b"z", [b"x001"])
        eco.fuse_chains(b"root.2", b"z")
        assert b"root.2" in eco.retired
    before = eco.network.messages_sent
    with pytest.raises(DuplicateChainId, match="root.2"):
        eco.divide_chain(b"root")
    assert eco.network.messages_sent == before
    sim = eco.chains[b"root"]
    assert not sim.halted and b"root" not in eco.retired
    assert division_rounds == []  # refused before any round opened
    assert divide_events(eco) == []


@pytest.mark.parametrize("error,n_max,initiator,crashed", [
    (TriggerNotMet, 8, b"u000", 0),
    (UnknownInitiator, 4, b"mallory", 0),
    (UnknownInitiator, 4, None, 4),  # every validator crashed: no default
    (UnknownInitiator, 4, b"u000", 1),  # a crashed node sends nothing
], ids=["trigger", "unknown-initiator", "no-live-initiator",
        "crashed-initiator"])
def test_a_refused_division_sends_no_message(error, n_max, initiator, crashed,
                                            division_rounds):
    # divide_chain judges the request before its DIVIDE: a refusal costs
    # no message and no tick, and opens no round
    eco = build_eco(n=4, n_max=n_max)
    eco.register_user(b"mallory", Role.VALIDATOR)  # an account, no seat
    for v in eco.chains[b"root"].validators[:crashed]:
        eco.crash_user(v, at_time=3)  # crashed from the tick of the call
    network = eco.network
    network.advance_to(3)
    with pytest.raises(error):
        eco.divide_chain(b"root", initiator=initiator)
    assert network.messages_sent == 0 and network.now == 3
    assert network._queues == {} and network._ticks == []
    assert division_rounds == []


def test_a_division_is_refused_in_a_fixed_order():
    # UnknownInitiator, then DuplicateChainId, then TriggerNotMet, each
    # with the text it had when validators reported it
    eco = build_eco(n=4, n_max=8)
    eco.register_user(b"x000", Role.VALIDATOR)
    eco.create_chain(b"root.2", [b"x000"])
    with pytest.raises(UnknownInitiator,
                       match="^x000 is not a validator of root$"):
        eco.divide_chain(b"root", initiator=b"x000")
    with pytest.raises(DuplicateChainId, match="^chain root.2 already"):
        eco.divide_chain(b"root")
    eco = build_eco(n=4, n_max=8)
    with pytest.raises(TriggerNotMet,
                       match="^chain root has 4 validators, trigger is 8$"):
        eco.divide_chain(b"root")


@pytest.mark.parametrize("n,d_max,strategies,crashed,divides", [
    (10, 1, {}, (), True),
    (10, 4, {}, (), True),  # acks outrun the DIVIDE
    (7, 3, {b"u001": "equivocate", b"u004": "badsig"}, (), True),
    (4, 1, dict.fromkeys((b"u001", b"u002", b"u003"), "withhold"), (), False),
    (4, 3, dict.fromkeys((b"u001", b"u002", b"u003"), "badsig"), (), False),
    (4, 2, {}, (b"u001", b"u002", b"u003"), False),  # drops
], ids=["correct", "delays", "byzantine", "withhold", "badsig", "crashed"])
def test_every_division_leaves_the_calendar_empty(n, d_max, strategies,
                                                  crashed, divides):
    # a round runs whole inside divide_chain, so none of its messages is
    # left for a later run to deliver
    eco = build_eco(n=n, d_max=d_max, strategies=strategies)
    for u in crashed:
        eco.crash_user(u)
    network = eco.network
    if divides:
        eco.divide_chain(b"root", initiator=b"u000")
    else:
        with pytest.raises(NoQuorum):
            eco.divide_chain(b"root", initiator=b"u000")
    assert network.messages_sent > n
    assert network._queues == {} and network._ticks == []
    assert (b"root" in eco.retired) == divides


def test_a_division_that_raises_leaves_nothing_in_flight(monkeypatch):
    # a one-shot StateDivergence while the first child is built: the raise
    # drops the round's queued acks, so the retry runs a whole round of its
    # own, n DIVIDEs and n^2 acks, and builds what a clean division builds
    n = 10
    clean = build_eco(n=n).divide_chain(b"root")
    eco = build_eco(n=n)
    network, inherit, raised = eco.network, manager._inherit, []

    def inherit_once(*args, **kwargs):
        if not raised:
            raised.append(True)
            raise StateDivergence("injected")
        return inherit(*args, **kwargs)

    monkeypatch.setattr(manager, "_inherit", inherit_once)
    with pytest.raises(StateDivergence, match="injected"):
        eco.divide_chain(b"root")
    assert network._queues == {} and network._ticks == []
    assert b"root" in eco.chains and divide_events(eco) == []
    before = network.messages_sent
    children = eco.divide_chain(b"root")
    assert network.messages_sent - before == n + n * n
    assert [(c.chain_id, c.validators, c.ledger) for c in children] == [
        (c.chain_id, c.validators, c.ledger) for c in clean]


def test_a_divided_parent_keeps_no_round_and_a_failed_one_stays(
        division_rounds):
    # a round that falls short keeps what it counted for whoever holds it
    # (n=4, quorum 2: u000's ack alone reaches every validator), is not
    # decided and leaves its chain live; a retired parent is kept for good,
    # and keeps no round
    eco = build_eco(n=4, strategies=dict.fromkeys(
        (b"u001", b"u002", b"u003"), "withhold"))
    sim, rnd = eco.chains[b"root"], tip_round(eco)
    ack = signed_ack(eco, rnd, b"u000")
    for recipient in sim.validators:
        sim.on_ack(rnd, ack)(recipient)
    assert rnd.acks == dict.fromkeys((b"u000", b"u001", b"u002", b"u003"), 1)
    assert rnd.done_at is None
    assert not sim.halted and divide_events(eco) == []
    eco = build_eco(n=10, d_max=3)
    root = eco.chains[b"root"]
    eco.divide_chain(b"root")
    assert eco.chain(b"root") is root and root.halted
    assert not any(isinstance(value, DivisionRound)
                   for value in vars(root).values())
    assert [ref() for ref in division_rounds] == [None]


@pytest.mark.parametrize("divides", [True, False])
def test_no_division_round_outlives_its_call(divides, division_rounds):
    # the round is a local of divide_chain: once the call has returned, or
    # its NoQuorum has been handled, nothing holds it. Delays up to 3 leave
    # acks in flight when the quorum completes the round
    withheld = () if divides else (b"u001", b"u002", b"u003")
    eco = build_eco(n=4, d_max=3,
                    strategies=dict.fromkeys(withheld, "withhold"))
    if divides:
        eco.divide_chain(b"root", initiator=b"u000")
    else:
        with pytest.raises(NoQuorum):
            eco.divide_chain(b"root", initiator=b"u000")
    assert len(division_rounds) == 1
    assert division_rounds[0]() is None
    assert (b"root" in eco.retired) == divides


def test_children_are_born_only_once_the_network_is_idle(monkeypatch):
    # delays up to 3 leave acks in flight when the quorum decides the
    # round; the children are born after the network has delivered them
    eco = build_eco(n=10, d_max=3)
    network, bear, seen = eco.network, Ecosystem._bear_children, []

    def recorded(self, *args):
        seen.append((dict(network._queues), list(network._ticks),
                     network._running))
        return bear(self, *args)

    monkeypatch.setattr(Ecosystem, "_bear_children", recorded)
    children = eco.divide_chain(b"root")
    assert seen == [({}, [], False)]
    assert [c.chain_id for c in children] == list(child_chain_ids(b"root"))


def test_the_default_initiator_is_the_first_live_validator(monkeypatch):
    eco = build_eco(n=10)
    eco.crash_user(b"u000")
    on_divide, initiators = ChainSim.on_divide, []

    def recorded(sim, rnd):
        initiators.append(rnd.request.initiator)
        return on_divide(sim, rnd)

    monkeypatch.setattr(ChainSim, "on_divide", recorded)
    eco.divide_chain(b"root")
    assert initiators == [b"u001"]
    assert b"root" in eco.retired


def test_a_division_is_logged_at_its_quorums_tick(monkeypatch):
    # the round runs on after its quorum until the acks in flight land;
    # the divide event keeps the tick of the last entry that was acted on
    # (every later one finds the round decided), and the clock ends at the
    # last delivery's tick
    eco = build_eco(n=10, d_max=3)
    network, on_ack, rounds = eco.network, ChainSim.on_ack, []

    def kept(sim, rnd, ack):
        rounds.append(rnd)
        return on_ack(sim, rnd, ack)

    monkeypatch.setattr(ChainSim, "on_ack", kept)
    run, acted = network.run_until_idle, []

    def recording_run(handler, max_events):
        def recording(payload, now):
            receive = handler(payload, now)
            acted.append((now, receive is not None))
            return receive

        return run(recording, max_events)

    network.run_until_idle = recording_run
    eco.divide_chain(b"root")
    quorum_tick = max(now for now, live in acted if live)
    assert quorum_tick < network.now == max(now for now, _ in acted)
    event, = divide_events(eco)
    assert event.tick == quorum_tick
    assert all(rnd is rounds[0] for rnd in rounds)
    assert rounds[0].done_at == quorum_tick


def test_each_validator_acks_each_validator_at_most_once(monkeypatch):
    # the rounds of a chain whose Byzantine founders ack through respond,
    # with a crashed founder and delays up to 3, and of both its children;
    # a recipient's ACK count is exact only because no (signer, recipient)
    # pair repeats in a round
    text = """
[scenario]
seed = 1
d_max = 3
[chain a]
validators = 10
n_max = 10
[join]
arrivals = 20
[faults]
a-v001 = byzantine equivocate
a-v002 = byzantine badsig
a-v003 = byzantine withhold
a-v004 = crash 0
"""
    rounds = []
    divide_chain, send = Ecosystem.divide_chain, Network.send

    def opened(eco, *args, **kwargs):
        rounds.append([])
        return divide_chain(eco, *args, **kwargs)

    def recorded(network, src, dst, payload):
        if isinstance(payload, AckMsg):
            rounds[-1].append((payload.signer, dst))
        return send(network, src, dst, payload)

    monkeypatch.setattr(Ecosystem, "divide_chain", opened)
    monkeypatch.setattr(Network, "send", recorded)
    report = run_scenario(text)
    assert len(report.divisions) == len(rounds) == 3
    for sends in rounds:
        assert len(set(sends)) == len(sends)
    signers = {signer for sends in rounds for signer, _ in sends}
    assert {b"a-v001", b"a-v002"} <= signers  # acks through respond
    assert not {b"a-v003", b"a-v004"} & signers  # withheld, crashed


def test_install_checks_child_ids_before_retiring_the_parent():
    # divide_chain checks the child ids before its DIVIDE; an id taken
    # after that is caught at install time, when the children of a round
    # that direct acks decided are born (n=4, quorum 2: u000 and then u001
    # ack to u000)
    eco = build_eco(n=4, strategies=dict.fromkeys(
        (b"u001", b"u002", b"u003"), "withhold"))
    with pytest.raises(NoQuorum):
        eco.divide_chain(b"root", initiator=b"u000")
    eco.register_user(b"x000", Role.VALIDATOR)
    eco.create_chain(b"root.1", [b"x000"])
    sim, rnd = eco.chains[b"root"], tip_round(eco)
    sim.on_ack(rnd, signed_ack(eco, rnd, b"u000"))(b"u000")
    sim.on_ack(rnd, signed_ack(eco, rnd, b"u001"))(b"u000")
    assert rnd.done_at == eco.network.now
    req = rnd.request
    with pytest.raises(DuplicateChainId, match="root.1"):
        eco._bear_children(sim, req.agreed_height, req.anchor_digest,
                           rnd.done_at)
    assert not sim.halted and b"root" not in eco.retired
    assert b"root.2" not in eco.chains and divide_events(eco) == []


def test_division_quorum_boundary_with_withholders():
    # alpha=1/2, n=4: quorum 2. 2 withholders leave 2 honest acks: completes.
    eco = build_eco(n=4, strategies={b"u002": "withhold", b"u003": "withhold"})
    eco.divide_chain(b"root")
    assert b"root.1" in eco.chains
    # 3 withholders leave 1 honest ack: no quorum anywhere.
    eco = build_eco(n=4, strategies={b"u001": "withhold", b"u002": "withhold",
                                     b"u003": "withhold"})
    with pytest.raises(NoQuorum):
        eco.divide_chain(b"root", initiator=b"u000")
    assert divide_events(eco) == []


class SilentAcker:
    """Votes and signs certificates honestly but never acks a division."""

    def answer(self, request, recipient, sign):
        is_ack = isinstance(request, SignRequest) and recipient is not None
        return None if is_ack else request.answer(request.value, sign)


def _join_validators(eco, users, strategy=None):
    for u in users:
        eco.register_user(u, Role.VALIDATOR)
        if strategy is not None:
            eco.mark_byzantine(u, strategy)
        eco.join_chain(u, b"root")


def test_a_retry_after_no_quorum_counts_validators_that_saw_the_failed_attempt():
    # n=4, alpha=1/2: u000 alone acks, 1 < quorum 2
    eco = build_eco(n=4, strategies=dict.fromkeys(
        (b"u001", b"u002", b"u003"), SilentAcker()))
    with pytest.raises(NoQuorum):
        eco.divide_chain(b"root", initiator=b"u000")
    # n=6: u000 and the two joiners ack, reaching quorum 3
    _join_validators(eco, (b"u004", b"u005"))
    eco.divide_chain(b"root", initiator=b"u000")
    assert set(eco.chains) == {b"root.1", b"root.2"}


def _after_unknown_initiator():
    eco = build_eco(n=4, strategies=dict.fromkeys(
        (b"u001", b"u002", b"u003"), "withhold"))
    eco.register_user(b"mallory", Role.VALIDATOR)
    with pytest.raises(UnknownInitiator):
        eco.divide_chain(b"root", initiator=b"mallory")
    return eco


def _after_trigger_not_met():
    eco = build_eco(n=4, n_max=6, strategies=dict.fromkeys(
        (b"u001", b"u002", b"u003"), SilentAcker()))
    with pytest.raises(TriggerNotMet):
        eco.divide_chain(b"root", initiator=b"u000")
    _join_validators(eco, (b"u004", b"u005"), SilentAcker())
    return eco


@pytest.mark.parametrize("failed_attempt",
                         [_after_unknown_initiator, _after_trigger_not_met],
                         ids=["unknown-initiator", "trigger"])
def test_a_retry_reports_its_own_failure_not_an_earlier_attempts(
        failed_attempt):
    # the retry is a valid request that only u000 acks
    eco = failed_attempt()
    with pytest.raises(NoQuorum):
        eco.divide_chain(b"root", initiator=b"u000")


def test_badsig_ackers_do_not_count():
    # 3 garbage signers at alpha=1/2, n=4: only 1 valid ack < quorum 2
    eco = build_eco(n=4, strategies={b"u001": "badsig", b"u002": "badsig",
                                     b"u003": "badsig"})
    with pytest.raises(NoQuorum):
        eco.divide_chain(b"root", initiator=b"u000")


def test_ack_signer_is_checked_against_the_config_of_its_round():
    # n=5, quorum 3; the others vote but never ack, so only u000 acks. An
    # ack from a registered non-member never counts in a round of the
    # chain's tip; after the signer joins (a commit that leaves the silent
    # ackers behind), a round of the new tip counts the joiner's ack
    eco = build_eco(n=5, strategies=dict.fromkeys(
        (b"u001", b"u002", b"u003", b"u004"), SilentAcker()))
    eco.register_user(b"u050", Role.VALIDATOR)
    with pytest.raises(NoQuorum):
        eco.divide_chain(b"root", initiator=b"u000")
    sim, rnd = eco.chains[b"root"], tip_round(eco)
    sim.on_ack(rnd, signed_ack(eco, rnd, b"u000"))(b"u001")
    ack = signed_ack(eco, rnd, b"u050")
    sim.on_ack(rnd, ack)(b"u001")
    assert rnd.acks == {b"u001": 1}
    assert rnd.verdicts[b"u050", ack.signature] is False
    eco.join_chain(b"u050", b"root")
    with pytest.raises(NoQuorum, match="rejected: behind"):
        eco.divide_chain(b"root", initiator=b"u000")
    rnd = tip_round(eco)
    ack = signed_ack(eco, rnd, b"u050")
    for signer in (b"u000", b"u050"):
        sim.on_ack(rnd, signed_ack(eco, rnd, signer))(b"u000")
    assert rnd.verdicts[b"u050", ack.signature] is True
    assert rnd.acks == {b"u000": 2}
    assert rnd.done_at is None and not sim.halted  # 2 of quorum 3


def test_ack_verdicts_are_memoised_per_round_by_signer_and_tag():
    # n=5, quorum 3: u000's ack reaches every validator of a round of the
    # tip, so acks from one more signer never complete it
    eco = build_eco(n=5, counting=True, strategies=dict.fromkeys(
        (b"u001", b"u002", b"u003", b"u004"), "withhold"))
    sim = eco.chains[b"root"]
    key = eco.users[b"u001"].public_key

    def opened():
        rnd = tip_round(eco)
        ack = signed_ack(eco, rnd, b"u000")
        for recipient in sim.validators:
            sim.on_ack(rnd, ack)(recipient)
        return rnd, rnd.request, ack.signature

    rnd, req, own = opened()
    good = eco.scheme.sign(key, req.statement)
    bad = sha256(b"garbage")
    # equal but distinct messages
    for recipient in (b"u000", b"u002", b"u003"):
        sim.on_ack(rnd, AckMsg(b"u001", good))(recipient)
    assert eco.scheme.verified[key] == 1
    assert rnd.verdicts == {(b"u000", own): True, (b"u001", good): True}
    assert rnd.acks == {b"u000": 2, b"u001": 1, b"u002": 2, b"u003": 2,
                        b"u004": 1}
    # a second tag from the same signer is verified on its own, once, and
    # never counted
    for recipient in (b"u001", b"u002", b"u001"):
        sim.on_ack(rnd, AckMsg(b"u001", bad))(recipient)
    assert eco.scheme.verified[key] == 2
    assert rnd.verdicts[b"u001", bad] is False
    assert rnd.acks == {b"u000": 2, b"u001": 1, b"u002": 2, b"u003": 2,
                        b"u004": 1}
    # a new round judges every tag afresh
    rnd, req, own = opened()
    sim.on_ack(rnd, AckMsg(b"u001", good))(b"u000")
    sim.on_ack(rnd, AckMsg(b"u001", bad))(b"u002")
    assert eco.scheme.verified[key] == 4
    assert rnd.verdicts == {(b"u000", own): True, (b"u001", good): True,
                            (b"u001", bad): False}
    assert rnd.acks == {b"u000": 2, b"u001": 1, b"u002": 1, b"u003": 1,
                        b"u004": 1}


def test_a_fresh_division_is_judged_once_per_calendar_entry(monkeypatch):
    # n=20 at unit delay, quorum q=10: divide_chain judges the request once,
    # before the DIVIDE; then one DIVIDE entry, and one ACK entry per acker
    # until the q-th decides the round, each get one receiver; the entries
    # after it find the round decided. Every ACK entry reaches every
    # validator, so once the first recipient of the q-th entry holds q
    # acks, the rest of that entry counts nothing
    eco = build_eco(n=20)
    calls, rounds = [], []
    for name in ("on_divide", "on_ack"):
        original = getattr(ChainSim, name)

        def counted(sim, rnd, *ack, original=original, name=name):
            calls.append((name, rnd.request.chain))
            rounds.append(rnd)
            return original(sim, rnd, *ack)

        monkeypatch.setattr(ChainSim, name, counted)
    eco.divide_chain(b"root", initiator=b"u000")
    assert eco.chain(b"root").config.quorum == 10
    assert calls == [("on_divide", b"root")] + [("on_ack", b"root")] * 10
    assert sorted(rounds[-1].acks.values()) == [9] * 19 + [10]


def test_no_quorum_names_the_rejection_reasons():
    # n=4, quorum 2. Only u000 is correct; the others vote when asked but
    # never ack, and commit advances only correct validators, so after one
    # commit they reject the DIVIDE as behind
    eco = build_eco(n=4, strategies=dict.fromkeys(
        (b"u001", b"u002", b"u003"), SilentAcker()))
    with pytest.raises(NoQuorum) as failed:
        eco.divide_chain(b"root", initiator=b"u000")
    assert str(failed.value).endswith("(need 2 acks, most held 1)")
    eco.chains[b"root"].commit([])
    with pytest.raises(NoQuorum) as failed:
        eco.divide_chain(b"root", initiator=b"u000")
    assert str(failed.value).endswith(
        "(need 2 acks, most held 1; rejected: behind)")


def test_every_vote_and_ack_goes_through_the_scheme_sign_of_call_time(
        monkeypatch):
    # SignatureScheme.sign is patched after the users are registered, as
    # the benchmark's tracer does; a signer bound at registration would
    # miss the patch
    eco = build_eco(n=4)
    signed = []
    original = SignatureScheme.sign

    def patched(scheme, public_key, message):
        signed.append((public_key, message))
        return original(scheme, public_key, message)

    monkeypatch.setattr(SignatureScheme, "sign", patched)
    sim = eco.chains[b"root"]
    block = sim.commit([])
    statement = commit_statement(b"root", block.digest, block.height)
    first_quorum = [eco.users[v].public_key
                    for v in sim.validators[:sim.config.quorum]]
    assert signed == [(pk, statement) for pk in first_quorum]
    del signed[:]
    # the round is divide_chain's own, so the statement is rebuilt from the
    # DIVIDE for the tip
    statement = DivideRequest(b"root", b"u000", sim.state.last_height,
                              sim.ledger[-1].digest).statement
    eco.divide_chain(b"root", initiator=b"u000")
    assert sorted(signed) == sorted((eco.users[v].public_key, statement)
                                    for v in sim.validators)


def test_a_sign_patched_after_the_build_sees_every_byzantine_tag(
        monkeypatch):
    # the promise of respond's signing closure: an equivocator's votes and
    # ACKs, signed through respond's hook, reach a SignatureScheme.sign
    # patched after the ecosystem is built, each distinct message once,
    # beside every correct validator's tag
    eco = build_eco(n=4, strategies={b"u001": "equivocate"})
    sim = eco.chains[b"root"]
    signed = []
    original = SignatureScheme.sign

    def patched(scheme, public_key, message):
        signed.append((public_key, message))
        return original(scheme, public_key, message)

    def pk(user):
        return eco.users[user].public_key

    def equivocated(statement, value_of):
        # the messages the equivocator signs: one per distinct value
        return {(pk(b"u001"), value_of(sha256(b"evil" + statement)
                                       if _targets_recipient(r) else statement))
                for r in sim.validators}

    monkeypatch.setattr(SignatureScheme, "sign", patched)
    # u002 and u003 crashed: u000's vote alone falls short of quorum 2, so
    # the round asks the equivocator's hook for every recipient
    eco.crash_user(b"u002", at_time=0)
    eco.crash_user(b"u003", at_time=0)
    block = sim.commit([])  # u000 gets the equivocator's honest vote

    def vote_message(digest):
        return commit_statement(b"root", digest, block.height)

    votes = equivocated(block.digest, vote_message)
    assert len(votes) == 2
    assert sorted(signed) == sorted(
        {(pk(b"u000"), vote_message(block.digest))} | votes)
    # a division: every validator ACKs at the DIVIDE's tick, the correct
    # ones with their own key's tag, the equivocator through its hook
    eco = build_eco(n=4, strategies={b"u001": "equivocate"})
    sim = eco.chains[b"root"]
    del signed[:]
    statement = DivideRequest(b"root", b"u000", sim.state.last_height,
                              sim.ledger[-1].digest).statement
    eco.divide_chain(b"root", initiator=b"u000")
    acks = equivocated(statement, lambda value: value)
    assert len(acks) == 2
    assert sorted(signed) == sorted(
        {(pk(v), statement) for v in (b"u000", b"u002", b"u003")} | acks)


def test_a_sign_patched_after_the_build_sees_every_certificate_share(
        monkeypatch):
    # the same promise for certificate shares: a correct validator's share
    # is one scheme.sign under its own key, bound once per certificate, an
    # equivocator's goes through respond's hook (the collector, recipient
    # None, gets the conflicting value) and a crashed one signs nothing;
    # each share of a transfer proof and of a fusion reaches a
    # SignatureScheme.sign patched after the ecosystem is built, once
    eco = Ecosystem(seed=3)
    src = [b"s%03d" % i for i in range(4)]
    dst = [b"t%03d" % i for i in range(4)]
    for v in src + dst:
        eco.register_user(v, Role.VALIDATOR)
    eco.register_user(b"alice", Role.CLIENT)
    eco.register_user(b"bob", Role.CLIENT)
    eco.create_chain(b"src", src, [b"alice"],
                     initial_assets=[Asset(b"coin", b"alice", 3)])
    eco.create_chain(b"dst", dst, [b"bob"])
    eco.mark_byzantine(b"s001", "equivocate")
    eco.crash_user(b"t003")
    signed = []
    original = SignatureScheme.sign

    def patched(scheme, public_key, message):
        signed.append((public_key, message))
        return original(scheme, public_key, message)

    def shares(statement, validators):
        # every share one certificate over `statement` signs
        return [(eco.users[v].public_key,
                 sha256(b"evil" + statement) if v == b"s001" else statement)
                for v in validators if v != b"t003"]

    def signed_shares(expected):
        messages = {message for _, message in expected}
        return sorted(entry for entry in signed if entry[1] in messages)

    monkeypatch.setattr(SignatureScheme, "sign", patched)
    lock = toa_lock(eco, b"alice", b"coin", b"bob", b"dst")
    claim = toa_claim(eco, b"bob", b"dst", lock)
    assert claim.kind == "claim"
    expected = (shares(lock.inner.certificate.statement, src)
                + shares(claim.inner.certificate.statement, dst))
    assert signed_shares(expected) == sorted(expected)
    # the equivocator's conflicting share is dropped, the crashed one's
    # absent, and the rest certify
    assert [v for v, _ in lock.inner.certificate.signatures] == [
        b"s000", b"s002", b"s003"]
    assert [v for v, _ in claim.inner.certificate.signatures] == dst[:3]
    assert toa_resolve(eco, b"src", claim) == "claimed"  # frees the id
    del signed[:]
    expected = [share for sim in (eco.chains[b"src"], eco.chains[b"dst"])
                for share in shares(b"fuse" + enc_bytes(sim.chain_id)
                                    + enc_bytes(sim.state.digest()),
                                    sim.validators)]
    eco.fuse_chains(b"src", b"dst")
    assert signed_shares(expected) == sorted(expected)


def test_crashed_validators_never_ack():
    eco = build_eco(n=4)
    eco.crash_user(b"u002")
    eco.crash_user(b"u003")
    eco.crash_user(b"u001")
    with pytest.raises(NoQuorum):
        eco.divide_chain(b"root", initiator=b"u000")


def _fresh_fault_count(eco, sim):
    return len(eco.faulty & set(sim.validators))


def test_the_fault_count_cache_equals_a_fresh_intersection():
    # chain_fault_count caches per chain under (config object,
    # len(faulty)); every way a chain's validators or the faulty set
    # change must show in the next count
    eco = build_eco(n=6, n_max=8, faulty={b"u001"}, strategies={})
    root = eco.chains[b"root"]

    def check(*sims):
        for sim in sims:
            assert eco.chain_fault_count(sim) == _fresh_fault_count(eco, sim)
            # twice: the second read comes from the cache
            assert eco.chain_fault_count(sim) == _fresh_fault_count(eco, sim)

    check(root)
    assert eco.chain_fault_count(root) == 1
    eco.register_user(b"u050", Role.VALIDATOR, faulty=True)  # a faulty join
    check(root)
    eco.join_chain(b"u050", b"root")
    check(root)
    assert eco.chain_fault_count(root) == 2
    eco.crash_user(b"u002", at_time=5)  # a sitting validator, crash later
    check(root)
    eco.mark_byzantine(b"u003", "withhold")
    check(root)
    assert eco.chain_fault_count(root) == 4
    eco.register_user(b"u051", Role.VALIDATOR)
    eco.join_chain(b"u051", b"root")  # n reaches the trigger, 8
    check(root)
    c1, c2 = eco.divide_chain(b"root")
    check(root, c1, c2)
    assert (eco.chain_fault_count(c1) + eco.chain_fault_count(c2)
            == eco.chain_fault_count(root) == 4)
    eco.crash_user(sorted(set(c1.validators) - eco.faulty)[0])
    check(c1, c2)
    merged = eco.fuse_chains(c1.chain_id, c2.chain_id)
    check(merged)
    assert eco.chain_fault_count(merged) == 5


def test_division_bookkeeping_counts_faults():
    eco = build_eco(n=10, faulty={b"u001", b"u004", b"u007"})
    root = eco.chains[b"root"]
    assert Fraction(eco.chain_fault_count(root),
                    len(root.validators)) == Fraction(3, 10)
    eco.divide_chain(b"root")
    rec = divide_events(eco)[-1].fields
    assert (rec["parent"], rec["n"], rec["f"]) == (b"root", 10, 3)
    assert sum(c[2] for c in rec["children"]) == 3
    for _, n_i, f_i, violated in rec["children"]:
        assert violated == (2 * f_i >= n_i)  # alpha = 1/2


@pytest.mark.parametrize("faulty, expected", [
    ((b"u004",), (False, True)),  # child 2 sits exactly at f_i = alpha*n_i
    ((b"u000", b"u004"), (False, True)),
    ((b"u000",), (False, False)),
    ((b"u000", b"u001", b"u005"), (True, True)),
])
def test_violated_flags_the_fault_bound_at_a_third_on_odd_sizes(faulty,
                                                                expected):
    # n_max = 7 splits deterministically into u000-u003 and u004-u006
    eco = build_eco(n=7, alpha=THIRD, faulty=faulty, scheme="deterministic")
    eco.divide_chain(b"root")
    children = divide_events(eco)[-1].fields["children"]
    assert [n_i for _, n_i, _, _ in children] == [4, 3]
    for _, n_i, f_i, violated in children:
        assert violated == (Fraction(f_i, n_i) >= THIRD)
    assert tuple(violated for *_, violated in children) == expected


# --- fusion -----------------------------------------------------------------------


def two_chain_eco():
    eco = Ecosystem(seed=3)
    for i in range(6):
        eco.register_user(b"u%03d" % i, Role.VALIDATOR)
    eco.register_user(b"u100", Role.CLIENT)
    eco.register_user(b"u101", Role.CLIENT)
    eco.create_chain(b"a", [b"u%03d" % i for i in range(3)], [b"u100"],
                     alpha=THIRD, kind="bft", n_max=8,
                     initial_assets=[Asset(b"coin-a", b"u100", 5)])
    eco.create_chain(b"b", [b"u%03d" % i for i in range(3, 6)], [b"u101"],
                     alpha=HALF, kind="cft", n_max=8,
                     initial_assets=[Asset(b"coin-b", b"u101", 7)])
    return eco


def test_fusion_takes_min_alpha_and_unions_state():
    eco = two_chain_eco()
    merged = eco.fuse_chains(b"a", b"b")
    assert merged.config.consensus.alpha == THIRD
    assert merged.config.consensus.kind == "bft"
    assert len(merged.validators) == 6
    assert merged.state.total_value() == 12
    assert b"a" not in eco.chains and b"b" not in eco.chains
    assert eco.chain(b"a").halted and eco.chain(b"b").halted
    assert (merged.chain_id.decode(), "", 0, 0) in eco.lineage_rows()
    assert replay(merged.ledger).digest() == merged.state.digest()


def test_fusion_then_redivision_preserves_validators():
    eco = two_chain_eco()
    merged = eco.fuse_chains(b"a", b"b")
    before = set(merged.validators)
    eco.assignment_scheme = "deterministic"
    merged.state = merged.state  # no-op; division trigger needs n_max <= n
    c1, c2 = eco.divide_chain(merged.chain_id) if len(
        merged.validators) >= merged.config.n_max else (None, None)
    if c1 is None:
        # trigger size was inherited as 8 > 6; lower it via a fresh fuse
        eco2 = two_chain_eco()
        eco2.assignment_scheme = "deterministic"
        merged = eco2.fuse_chains(b"a", b"b", merged_id=b"ab")
        object.__setattr__(merged.state.config, "n_max", 6)
        c1, c2 = eco2.divide_chain(b"ab")
    assert set(c1.validators) | set(c2.validators) == before


def test_fusion_rejects_asset_id_collision():
    eco = Ecosystem(seed=4)
    for i in range(4):
        eco.register_user(b"u%03d" % i, Role.VALIDATOR)
    eco.register_user(b"u100", Role.CLIENT)
    eco.register_user(b"u101", Role.CLIENT)
    eco.create_chain(b"a", [b"u000", b"u001"], [b"u100"], n_max=8,
                     initial_assets=[Asset(b"dup", b"u100", 1)])
    eco.create_chain(b"b", [b"u002", b"u003"], [b"u101"], n_max=8,
                     initial_assets=[Asset(b"dup", b"u101", 1)])
    with pytest.raises(AssetIdCollision):
        eco.fuse_chains(b"a", b"b")


def test_fusion_requires_quorum_on_both_sides():
    eco = two_chain_eco()
    eco.crash_user(b"u003")
    eco.crash_user(b"u004")  # chain b: alpha=1/2, n=3, quorum 2 -> 1 left
    with pytest.raises(NoQuorum):
        eco.fuse_chains(b"a", b"b")


def test_a_refused_fusion_asks_no_validator_to_sign(monkeypatch):
    # a colliding asset id or a shared validator is refused before either
    # chain's certificate is collected
    eco = two_chain_eco()
    eco.register_user(b"u006", Role.VALIDATOR)
    eco.create_chain(b"c", [b"u006"], [b"u100"], n_max=8,
                     initial_assets=[Asset(b"coin-a", b"u100", 1)])
    eco.create_chain(b"d", [b"u000", b"u006"], n_max=8)
    signed = []
    real_sign = SignatureScheme.sign

    def counting_sign(self, public_key, message):
        signed.append(message)
        return real_sign(self, public_key, message)

    monkeypatch.setattr(SignatureScheme, "sign", counting_sign)
    with pytest.raises(AssetIdCollision):
        eco.fuse_chains(b"a", b"c")
    with pytest.raises(SplitchainError, match="validators on both chains"):
        eco.fuse_chains(b"a", b"d")
    assert signed == []
    assert set(eco.chains) == {b"a", b"b", b"c", b"d"} and not eco.retired


def test_an_asset_owned_by_a_non_member_is_a_divergence_at_birth():
    # a division or fusion refuses to hand such an asset to a child and
    # leaves every chain live
    eco = build_eco(n=4, clients=1, assets_per_client=1)
    eco.register_user(b"u200", Role.VALIDATOR)
    eco.create_chain(b"other", [b"u200"], n_max=8)
    root = eco.chains[b"root"]
    ghost = Asset(b"ghost-coin", b"ghost", 1)
    root.state = root.state.replace(
        assets={**root.state.assets, ghost.asset_id: ghost})
    for birth in (lambda: eco.divide_chain(b"root"),
                  lambda: eco.fuse_chains(b"root", b"other")):
        with pytest.raises(StateDivergence, match="non-member"):
            birth()
        assert set(eco.chains) == {b"root", b"other"} and not eco.retired


def test_an_owner_with_two_seats_keeps_its_assets_with_its_client_seat():
    # clients that joined as validators sit in both rosters, so a division
    # may give them a validator seat on one child and a client seat on the
    # other; each asset still lands on exactly one child
    for seed in range(6):
        eco = build_eco(n=4, clients=3, assets_per_client=1, n_max=6,
                        seed=seed)
        for client in (b"u100", b"u101"):
            eco.join_chain(client, b"root")
        children = eco.divide_chain(b"root")
        assert eco.total_value() == 3
        for child in children:
            assert {a.owner for a in child.state.assets.values()} <= set(
                child.config.clients), seed


@pytest.mark.parametrize("seed", [0, 2])
def test_a_genesis_installs_exactly_the_roster_it_names(seed):
    # c1 and c2 join as validators and so hold two seats; each child's
    # genesis registers their client-role accounts, which must not give the
    # child a client seat its install payload does not list
    eco = Ecosystem(seed=seed)
    validators = [b"u%03d" % i for i in range(4)]
    for v in validators:
        eco.register_user(v, Role.VALIDATOR)
    for c in (b"c1", b"c2", b"c3"):
        eco.register_user(c, Role.CLIENT)
    eco.create_chain(b"x", validators, [b"c1", b"c2", b"c3"], n_max=6)
    for c in (b"c1", b"c2"):
        eco.join_chain(c, b"x")
    children = eco.divide_chain(b"x")
    for child in children:
        assert child.config == child.ledger[0].transactions[0].payload.config
    assert not set(children[0].config.clients) & set(
        children[1].config.clients)


def _guarded_births(seed):
    """Three chains with clients and assets; `src` holds two pending locks
    and `dst` a claim of each verdict. Then src fuses with x, dst divides,
    its children fuse and divide again, and src+x divides."""
    eco = Ecosystem(seed=seed)
    for prefix in (b"u0", b"u2", b"u3"):
        for i in range(4):
            eco.register_user(prefix + b"%02d" % i, Role.VALIDATOR)
    for client in (b"alice", b"carol", b"bob", b"dave", b"erin"):
        eco.register_user(client, Role.CLIENT)

    def validators(prefix):
        return [prefix + b"%02d" % i for i in range(4)]

    eco.create_chain(b"src", validators(b"u0"), [b"alice", b"carol"],
                     n_max=4, initial_assets=[Asset(b"coin", b"alice", 9),
                                              Asset(b"gem", b"carol", 4)])
    eco.create_chain(b"dst", validators(b"u2"), [b"bob", b"dave"], n_max=4,
                     initial_assets=[Asset(b"ruby", b"dave", 3)])
    eco.create_chain(b"x", validators(b"u3"), [b"erin"], n_max=8,
                     alpha=THIRD, kind="bft",
                     initial_assets=[Asset(b"pebble", b"erin", 2)])
    toa_claim(eco, b"bob", b"dst",
              toa_lock(eco, b"alice", b"coin", b"bob", b"dst"))
    # addressed to dave, so bob's claim is recorded as a failure
    toa_claim(eco, b"bob", b"dst",
              toa_lock(eco, b"carol", b"gem", b"dave", b"dst"))
    assert len(eco.chains[b"src"].state.locks) == 2
    assert sorted(eco.chains[b"dst"].state.claims.values()) == [0, 1]
    eco.fuse_chains(b"src", b"x")
    eco.divide_chain(b"dst")
    eco.fuse_chains(b"dst.1", b"dst.2")
    eco.divide_chain(b"dst.1+dst.2")
    eco.divide_chain(b"src+x")
    return eco


# sha256 over (chain id, genesis digest, state digest) of every chain the
# scenario above leaves, live or retired, per seed
GUARDED_BIRTHS = {
    0: "2222319e6b47f5e444981baeb9557d053dae6d9dc8698cc44f58fdea1e00733b",
    1: "4f25c1f9015afd0bfbcafd9c091de16a3013267d59ad49913703f1617d35d24c",
    2: "11e57594a56dcf6cd5024664d5574705b966ce11937e4d961a5b992820032e5a",
    3: "885728a14c756e98612f7cf253ae0696bce60669538cf51333500cb39104be52",
    4: "7ca79bbbb02c68c225495c4ee8d7462a9bf17b3a6d9c389b182472dcecc43e8b",
    5: "9b07eb392cb5e20ceb1f903d10697e3661a4dae9ec3708dc0bcb0112e58ea18a",
}


@pytest.mark.parametrize("seed", sorted(GUARDED_BIRTHS))
def test_division_and_fusion_geneses_keep_their_bytes(seed):
    eco = _guarded_births(seed)
    rows = [(cid, eco.chain(cid).ledger[0].digest.hex(),
             eco.chain(cid).state.digest().hex())
            for cid in sorted(eco.chains.keys() | eco.retired.keys())]
    assert [cid for cid, _, _ in rows] == [
        b"dst", b"dst.1", b"dst.1+dst.2", b"dst.1+dst.2.1", b"dst.1+dst.2.2",
        b"dst.2", b"src", b"src+x", b"src+x.1", b"src+x.2", b"x"]
    assert eco.total_value() == 27  # coin counts on src and on dst
    assert sha256(repr(rows).encode()).hex() == GUARDED_BIRTHS[seed]


def test_value_conserved_across_divide():
    eco = build_eco(n=8, clients=4, assets_per_client=3)
    total = eco.total_value()
    eco.divide_chain(b"root")
    assert eco.total_value() == total
