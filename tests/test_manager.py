"""Chain lifecycle: creation, joins, the division protocol, fusion."""

from collections import Counter
from fractions import Fraction

import pytest

from splitchain.consensus import run_commit_round
from splitchain.crypto import SignatureScheme
from splitchain.errors import (
    AlreadyMember,
    AssetIdCollision,
    DuplicateChainId,
    NoQuorum,
    PolicyRejected,
    Stalled,
    TriggerNotMet,
    UnknownInitiator,
    UnregisteredValidator,
)
from splitchain.manager import (
    ASSIGNED,
    AckMsg,
    DivideRequest,
    Ecosystem,
    VoteRequest,
    child_chain_ids,
)
from splitchain.model import (
    Asset,
    LockPayload,
    Role,
    Transaction,
    TxKind,
    make_block,
    replay,
)

from helpers import reference_commit_round

HALF = Fraction(1, 2)
THIRD = Fraction(1, 3)


class CountingScheme(SignatureScheme):
    """Signature scheme that counts sign calls per key and verify calls."""

    def __init__(self, seed=0):
        super().__init__(seed)
        self.signs = Counter()  # public key -> sign calls
        self.verifies = 0

    def sign(self, public_key, message):
        self.signs[public_key] += 1
        return super().sign(public_key, message)

    def verify(self, public_key, message, signature):
        self.verifies += 1
        return super().verify(public_key, message, signature)


def build_eco(n=10, clients=0, alpha=HALF, kind="cft", n_max=None, seed=0,
              assets_per_client=0, faulty=(), strategies=None, scheme="randomized",
              counting=False):
    """Ecosystem with one chain `root` of n validators (u000..) and clients
    (u100..); `faulty` ids are flagged, `strategies` maps id -> behavior.
    With `counting`, eco.scheme is a CountingScheme."""
    eco = Ecosystem(seed=seed, assignment_scheme=scheme)
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


# --- creation and joins -----------------------------------------------------


def test_create_chain_registers_and_replays():
    eco = build_eco(n=4, clients=2, assets_per_client=1, n_max=8)
    sim = eco.chains[b"root"]
    assert sim.state.last_height == 0
    assert eco.chain(b"root") is sim
    assert eco.lineage_rows() == [(b"root", b"", 0, 0)]
    assert replay(sim.ledger).digest() == sim.state.digest()
    assert sim.state.total_value() == 2


def test_create_duplicate_chain_id_rejected():
    eco = build_eco(n=4, n_max=8)
    with pytest.raises(DuplicateChainId):
        eco.create_chain(b"root", [b"u000", b"u001"])


def test_create_with_unregistered_validator_rejected():
    eco = build_eco(n=4, n_max=8)
    with pytest.raises(UnregisteredValidator):
        eco.create_chain(b"other", [b"u000", b"ghost"])


def test_client_join_appears_in_roster():
    eco = build_eco(n=4, n_max=8)
    eco.register_user(b"u100", Role.CLIENT)
    cfg = eco.join_chain(b"u100", b"root", role=Role.CLIENT)
    assert b"u100" in cfg.clients
    assert b"u100" in eco.chains[b"root"].state.accounts
    with pytest.raises(AlreadyMember):
        eco.join_chain(b"u100", b"root", role=Role.CLIENT)


def test_validator_join_recomputes_quorum():
    eco = build_eco(n=4, alpha=THIRD, kind="bft", n_max=16)
    assert eco.chains[b"root"].quorum == 3
    eco.register_user(b"u900", Role.VALIDATOR)
    cfg = eco.join_chain(b"u900", b"root")
    assert len(cfg.validators) == 5
    assert eco.chains[b"root"].quorum == 4
    assert eco.chain(b"root").config is cfg


def test_join_policy_gate():
    eco = build_eco(n=4, n_max=8)
    eco.join_policy = lambda user, chain: False
    eco.register_user(b"u900", Role.VALIDATOR)
    with pytest.raises(PolicyRejected):
        eco.join_chain(b"u900", b"root")
    assert len(eco.chains[b"root"].validators) == 4


# --- commits under faults ------------------------------------------------------


def test_commit_tolerates_one_crash_of_four():
    eco = build_eco(n=4, alpha=THIRD, kind="bft", n_max=8)
    eco.crash_user(b"u003")
    eco.register_user(b"u100", Role.CLIENT)
    cfg = eco.join_chain(b"u100", b"root", role=Role.CLIENT)
    assert b"u100" in cfg.clients


def test_commit_stalls_with_two_crashes_of_four():
    eco = build_eco(n=4, alpha=THIRD, kind="bft", n_max=8, counting=True)
    eco.crash_user(b"u002")
    eco.crash_user(b"u003")
    eco.register_user(b"u100", Role.CLIENT)
    with pytest.raises(Stalled, match="no quorum at height 1"):
        eco.join_chain(b"u100", b"root", role=Role.CLIENT)
    # one round: each live voter's vote is verified once, not once per retry
    assert eco.scheme.verifies == 2


def test_all_honest_commit_signs_and_verifies_once_per_voter():
    for n in (1, 4, 10):
        eco = build_eco(n=n, n_max=16, counting=True)
        eco.register_user(b"u100", Role.CLIENT)
        eco.scheme.signs.clear()
        eco.join_chain(b"u100", b"root", role=Role.CLIENT)
        validators = eco.chains[b"root"].validators
        assert eco.scheme.signs == Counter(
            {eco.registry.pk_of(v): 1 for v in validators}), n
        assert eco.scheme.verifies == n


def test_byzantine_voter_signs_once_per_distinct_message():
    for n in (4, 7, 10):
        eco = build_eco(n=n, counting=True, strategies={
            b"u001": "equivocate", b"u002": "badsig"})
        sim = eco.chains[b"root"]
        pk = eco.registry.pk_of
        candidate = make_block(1, sim.ledger[-1].digest, [])
        request = VoteRequest(b"root", candidate)
        eco.scheme.signs.clear()
        votes = {v: eco.respond(v, request) for v in sim.validators}
        args = (b"root", candidate, sim.validators, sim.quorum, pk,
                eco.scheme, votes.__getitem__)
        outcome = run_commit_round(*args)
        # the equivocator sends two statements to n recipients: two tags
        assert eco.scheme.signs[pk(b"u001")] == 2, n
        assert eco.scheme.signs[pk(b"u002")] == 0, n  # garbage, never signed
        assert all(eco.scheme.signs[pk(v)] == 1 for v in sim.validators
                   if v not in (b"u001", b"u002")), n
        # each distinct matching signature is verified once: the honest
        # voters', the equivocator's honest one and every badsig tag
        equivocator, badsig = votes[b"u001"][1], votes[b"u002"][1]
        honest_tags = {equivocator(r)[1] for r in sim.validators
                       if equivocator(r)[0] == candidate.digest}
        garbage = {badsig(r)[1] for r in sim.validators}
        assert len(honest_tags) == 1 and len(garbage) == n
        assert eco.scheme.verifies == (n - 2) + 1 + n, n
        assert outcome == reference_commit_round(*args), n
        assert eco.scheme.signs[pk(b"u001")] == 2, n  # memo spans recipients


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
    assert eco.lineage_rows() == [(b"root", b"", 0, 0),
                                  (b"root.1", b"root", 1, 0),
                                  (b"root.2", b"root", 2, 0)]


def test_division_message_count_is_n_plus_n_squared():
    for n in (4, 7, 10):
        eco = build_eco(n=n, counting=True)
        before = eco.network.messages_sent
        eco.divide_chain(b"root", initiator=b"u000")
        assert eco.network.messages_sent - before == n + n * n, n
        # each validator signs one ack and sends it to all n validators
        validators = eco.retired[b"root"].validators
        assert eco.scheme.signs == Counter(
            {eco.registry.pk_of(v): 1 for v in validators}), n
        # each distinct ack signature is checked at most once (receivers
        # stop once the division completes)
        assert eco.scheme.verifies <= n, n


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
                     eco.scheme.sign(eco.registry.pk_of(owner),
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
    for rt in sim.runtimes.values():
        assert rt.division is None or rt.division.phase < ASSIGNED


def test_division_below_trigger_rejected():
    eco = build_eco(n=4, n_max=8)
    with pytest.raises(TriggerNotMet):
        eco.divide_chain(b"root")
    assert b"root" in eco.chains


@pytest.mark.parametrize("retired", [False, True])
def test_division_into_a_taken_child_id_touches_nothing(retired):
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
    assert all(rt.division is None for rt in sim.runtimes.values())
    assert eco.divisions == []


def test_install_checks_child_ids_before_retiring_the_parent():
    # an id taken after the DIVIDE broadcast is caught at install time
    eco = build_eco(n=4)
    eco.register_user(b"x000", Role.VALIDATOR)
    eco.chains[b"root"].start_division(b"u000")
    eco.create_chain(b"root.1", [b"x000"])
    with pytest.raises(DuplicateChainId, match="root.1"):
        eco.network.run_until_idle()
    assert not eco.chains[b"root"].halted and b"root" not in eco.retired
    assert b"root.2" not in eco.chains and eco.divisions == []


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
    for rt in eco.chains[b"root"].runtimes.values():
        assert rt.division is None or rt.division.phase < ASSIGNED


def test_badsig_ackers_do_not_count():
    # 3 garbage signers at alpha=1/2, n=4: only 1 valid ack < quorum 2
    eco = build_eco(n=4, strategies={b"u001": "badsig", b"u002": "badsig",
                                     b"u003": "badsig"})
    with pytest.raises(NoQuorum):
        eco.divide_chain(b"root", initiator=b"u000")


def test_ack_signer_is_checked_against_the_config_on_every_delivery():
    # an ack from a registered non-member does not count; the same ack does
    # once its signer has joined, so membership is not memoised with the
    # signature verdict
    eco = build_eco(n=4)
    eco.register_user(b"u050", Role.VALIDATOR)
    sim = eco.chains[b"root"]
    req = DivideRequest(b"root", b"u000", 0, sim.ledger[0].digest)
    ack = AckMsg(req, b"u050",
                 eco.scheme.sign(eco.registry.pk_of(b"u050"), req.statement))
    sim.on_ack(b"u001", ack, 0)
    assert sim.runtimes[b"u001"].division.acks == {}
    eco.join_chain(b"u050", b"root")
    sim.on_ack(b"u001", ack, 0)
    assert sim.runtimes[b"u001"].division.acks == {b"u050": ack.signature}


def test_crashed_validators_never_ack():
    eco = build_eco(n=4)
    eco.crash_user(b"u002")
    eco.crash_user(b"u003")
    eco.crash_user(b"u001")
    with pytest.raises(NoQuorum):
        eco.divide_chain(b"root", initiator=b"u000")


def test_division_bookkeeping_counts_faults():
    eco = build_eco(n=10, faulty={b"u001", b"u004", b"u007"})
    assert eco.chain_beta(b"root") == Fraction(3, 10)
    eco.divide_chain(b"root")
    rec = eco.divisions[-1]
    assert rec.parent == b"root" and rec.n == 10 and rec.f == 3
    assert sum(c[2] for c in rec.children) == 3
    for _, n_i, f_i, violated in rec.children:
        assert violated == (2 * f_i >= n_i)  # alpha = 1/2


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
    assert (merged.chain_id, b"", 0, 0) in eco.lineage_rows()
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


def test_value_conserved_across_divide():
    eco = build_eco(n=8, clients=4, assets_per_client=3)
    total = eco.total_value()
    eco.divide_chain(b"root")
    assert eco.total_value() == total
