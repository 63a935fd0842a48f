"""Ledger structure and the pure transaction state machine."""

import copy
import dataclasses
import math
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splitchain import manager, model
from splitchain.crypto import SignatureScheme
from splitchain.errors import (
    AlreadyMember,
    AssetIdCollision,
    AssetLocked,
    BrokenChain,
    InvalidSignature,
    NotOwner,
    UnknownAsset,
    UnknownLock,
    UnknownUser,
)
from splitchain.model import (
    Account,
    Asset,
    AssetCreatePayload,
    AssetTransferPayload,
    Block,
    ChainConfig,
    ChainState,
    ClaimPayload,
    ConfigUpdatePayload,
    LockPayload,
    RegisterPayload,
    ResolvePayload,
    Role,
    Transaction,
    TxKind,
    ZERO_DIGEST,
    apply_transaction,
    build_genesis,
    genesis_state,
    make_block,
    quorum_size,
    replay,
    verify_ledger,
)

from splitchain.manager import Ecosystem
from splitchain.scenario import _Driver, parse_scenario
from splitchain.xchain import toa_claim, toa_lock, toa_resolve

from helpers import make_accounts, make_config

REPO = Path(__file__).resolve().parent.parent
FIGURE1 = REPO / "src" / "splitchain" / "scenarios" / "figure1.mit"
ADVERSARIAL = REPO / "bench" / "adversarial.mit"


@pytest.fixture
def scheme():
    return SignatureScheme(seed=5)


@pytest.fixture
def chain(scheme):
    """A 4-validator chain with one client and one asset, fully replayed."""
    config = make_config(n_validators=4, n_clients=1,
                         assets=[Asset(b"coin-1", b"u100", 10)])
    accounts = make_accounts(config, scheme)
    genesis = build_genesis(config, accounts, {})
    return [genesis], replay([genesis])


def signed(scheme, state, kind, payload, submitter):
    tx = Transaction(kind, payload, submitter)
    sig = scheme.sign(state.accounts[submitter].public_key, tx.signing_bytes())
    return Transaction(kind, payload, submitter, sig)


def extend(ledger, state, txs, scheme=None):
    block = make_block(len(ledger), ledger[-1].digest, txs)
    new_ledger = ledger + [block]
    return new_ledger, replay(new_ledger, scheme=scheme)


# --- quorum arithmetic -------------------------------------------------------


def test_quorum_is_ceiling_of_honest_fraction():
    assert quorum_size(4, Fraction(1, 3)) == 3
    assert quorum_size(5, Fraction(1, 3)) == 4
    assert quorum_size(6, Fraction(1, 3)) == 4
    assert quorum_size(10, Fraction(1, 2)) == 5
    assert quorum_size(7, Fraction(1, 2)) == 4


@given(st.integers(1, 400), st.fractions(min_value=Fraction(1, 100),
                                         max_value=Fraction(1, 2)))
@settings(max_examples=200, derandomize=True)
def test_quorum_matches_float_ceiling(n, alpha):
    q = quorum_size(n, alpha)
    # smallest integer >= (1-alpha)*n, checked by rational comparison
    assert q - 1 < (1 - alpha) * n <= q


def _quorum_size_by_fraction(n, alpha):
    """quorum_size as it was written in Fraction arithmetic: the reference
    for the integer version."""
    if n < 1:
        raise ValueError("validator count must be positive")
    alpha = Fraction(alpha)
    if not (0 < alpha <= Fraction(1, 2)):
        raise ValueError("fault threshold must lie in (0, 1/2]")
    num = (alpha.denominator - alpha.numerator) * n
    return -(-num // alpha.denominator)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (ValueError, ZeroDivisionError) as exc:
        return type(exc), str(exc)


_EDGE_FRACTIONS = [Fraction(0), Fraction(1, 2), Fraction(-1, 2), Fraction(1),
                   Fraction(1, 2) + Fraction(1, 10**9), Fraction(51, 100),
                   Fraction(-1, 10**9), Fraction(1, 10**9)]
_FRACTIONS = st.one_of(st.sampled_from(_EDGE_FRACTIONS),
                       st.fractions(min_value=-2, max_value=2))
_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 0.5, math.nextafter(0.5, 1.0), -0.5, 1.0,
                     5e-324]),
    st.floats(-2, 2, allow_nan=False))


@given(st.integers(-2, 400),
       st.one_of(_FRACTIONS, st.integers(-3, 3), _FRACTIONS.map(str),
                 st.sampled_from(["0", "1/2", "0.5", "0.5000001", "-1/3",
                                  "1/3", " 1/4 ", "half", "1/0"]),
                 _FLOATS))
@settings(max_examples=400, derandomize=True)
def test_quorum_matches_the_fraction_arithmetic(n, alpha):
    # same quorum for every alpha a caller may pass, and the same error for
    # a bad n, an alpha outside (0, 1/2] or a string that is no fraction
    assert (_outcome(quorum_size, n, alpha)
            == _outcome(_quorum_size_by_fraction, n, alpha))


# --- blocks and ledgers --------------------------------------------------------


def test_genesis_replay_installs_config_accounts_assets(chain):
    ledger, state = chain
    assert state.config is not None
    assert len(state.config.validators) == 4
    assert state.accounts[b"u100"].role == Role.CLIENT
    assert state.assets[b"coin-1"].owner == b"u100"
    assert state.last_height == 0
    assert state.total_value() == 10


def test_a_genesis_reuses_a_register_only_for_the_very_account_record(scheme):
    config = make_config(n_validators=4, n_clients=1)
    accounts = make_accounts(config, scheme)
    registered = {}
    first = build_genesis(config, accounts, registered)

    def registers(block):
        return [tx for tx in block.transactions if tx.kind == TxKind.REGISTER]

    assert [tx.payload.account.user for tx in registers(first)] \
        == list(config.members()) == sorted(registered)
    again = build_genesis(config, accounts, registered)
    assert again == first
    assert all(a is b for a, b in zip(registers(again), registers(first)))
    # an equal record that is another object, and a changed one, get a
    # REGISTER of their own; the genesis equals one built from scratch
    user, other = config.validators[:2]
    records = dict(accounts)
    records[user] = dataclasses.replace(accounts[user])
    records[other] = dataclasses.replace(accounts[other],
                                         metadata=((b"k", b"v"),))
    changed = build_genesis(config, records, registered)
    assert changed == build_genesis(config, records, {})
    assert changed.digest != first.digest
    for member in (user, other):
        assert registered[member].payload.account is records[member]
    kept = [tx for tx in registers(changed)
            if tx.payload.account.user not in (user, other)]
    assert all(any(tx is old for old in registers(first)) for tx in kept)


def test_genesis_state_is_replay_and_refuses_what_build_genesis_never_emits(
        chain):
    (genesis,), state = chain
    assert genesis_state(genesis) == state
    install, *rest = genesis.transactions
    # replay would register a non-member's account
    stranger = Transaction(TxKind.REGISTER, RegisterPayload(
        Account(b"zed", b"key", Role.CLIENT)), b"genesis")
    update = Transaction(TxKind.CONFIG_UPDATE, ConfigUpdatePayload(),
                         b"genesis")
    bad = [(1, genesis.transactions), (0, rest), (0, [install, stranger]),
           (0, [*genesis.transactions, update])]
    for height, txs in bad:
        with pytest.raises(ValueError):
            genesis_state(make_block(height, ZERO_DIGEST, txs))


def test_verify_ledger_rejects_height_gap(chain):
    ledger, _ = chain
    bogus = make_block(5, ledger[-1].digest, [])
    with pytest.raises(BrokenChain):
        verify_ledger(ledger + [bogus])


def test_verify_ledger_rejects_parent_mismatch(chain):
    ledger, _ = chain
    bogus = make_block(1, ZERO_DIGEST, [])
    with pytest.raises(BrokenChain) as exc:
        verify_ledger(ledger + [bogus])
    assert exc.value.height == 1


def test_verify_ledger_rejects_tampered_digest(chain):
    ledger, _ = chain
    block = make_block(1, ledger[-1].digest, [])
    tampered = Block(block.height, block.parent_digest, block.transactions,
                     b"\xff" * 32)
    with pytest.raises(BrokenChain):
        verify_ledger(ledger + [tampered])


def test_block_digest_changes_with_contents(chain, scheme):
    ledger, state = chain
    t1 = signed(scheme, state, TxKind.ASSET_TRANSFER,
                AssetTransferPayload(b"coin-1", b"u000"), b"u100")
    a = make_block(1, ledger[-1].digest, [t1])
    b = make_block(1, ledger[-1].digest, [])
    assert a.digest != b.digest


# --- transfers -------------------------------------------------------------------


def test_transfer_moves_ownership(chain, scheme):
    ledger, state = chain
    tx = signed(scheme, state, TxKind.ASSET_TRANSFER,
                AssetTransferPayload(b"coin-1", b"u000"), b"u100")
    _, after = extend(ledger, state, [tx], scheme)
    assert after.assets[b"coin-1"].owner == b"u000"
    # original state untouched
    assert state.assets[b"coin-1"].owner == b"u100"


def test_transfer_requires_known_asset(chain, scheme):
    ledger, state = chain
    tx = signed(scheme, state, TxKind.ASSET_TRANSFER,
                AssetTransferPayload(b"ghost", b"u000"), b"u100")
    with pytest.raises(UnknownAsset):
        apply_transaction(state, tx, scheme)


def test_transfer_requires_ownership(chain, scheme):
    ledger, state = chain
    tx = signed(scheme, state, TxKind.ASSET_TRANSFER,
                AssetTransferPayload(b"coin-1", b"u001"), b"u000")
    with pytest.raises(NotOwner):
        apply_transaction(state, tx, scheme)


def test_transfer_requires_registered_recipient(chain, scheme):
    ledger, state = chain
    tx = signed(scheme, state, TxKind.ASSET_TRANSFER,
                AssetTransferPayload(b"coin-1", b"stranger"), b"u100")
    with pytest.raises(UnknownUser):
        apply_transaction(state, tx, scheme)


def test_bad_signature_rejected(chain, scheme):
    ledger, state = chain
    tx = Transaction(TxKind.ASSET_TRANSFER,
                     AssetTransferPayload(b"coin-1", b"u000"), b"u100",
                     b"\x00" * 32)
    with pytest.raises(InvalidSignature):
        apply_transaction(state, tx, scheme)
    # without a scheme the caller vouches for signatures
    after = apply_transaction(state, tx)
    assert after.assets[b"coin-1"].owner == b"u000"


def test_register_then_create_asset(chain, scheme):
    ledger, state = chain
    newcomer = Account(b"u200", scheme.issue(b"u200"), Role.CLIENT)
    reg = Transaction(TxKind.REGISTER, RegisterPayload(newcomer), b"u200")
    config = state.config
    ledger, state = extend(ledger, state, [reg])
    assert b"u200" in state.accounts
    assert state.config is config  # an account, not a seat
    mint = signed(scheme, state, TxKind.ASSET_CREATE,
                  AssetCreatePayload(Asset(b"coin-2", b"u200", 5)), b"u200")
    _, state = extend(ledger, state, [mint], scheme)
    assert state.total_value() == 15


def test_double_register_rejected(chain, scheme):
    _, state = chain
    dup = Transaction(TxKind.REGISTER,
                      RegisterPayload(state.accounts[b"u100"]), b"u100")
    with pytest.raises(AlreadyMember):
        apply_transaction(state, dup)


def test_asset_id_collision_rejected(chain, scheme):
    _, state = chain
    tx = signed(scheme, state, TxKind.ASSET_CREATE,
                AssetCreatePayload(Asset(b"coin-1", b"u100", 1)), b"u100")
    with pytest.raises(AssetIdCollision):
        apply_transaction(state, tx, scheme)


# --- lock / claim / resolve -------------------------------------------------------


def lock_tx(scheme, state, nonce=b"n-1"):
    return signed(scheme, state, TxKind.LOCK,
                  LockPayload(b"coin-1", 10, b"other-chain", b"u000", nonce),
                  b"u100")


def test_lock_freezes_asset(chain, scheme):
    ledger, state = chain
    ledger, state = extend(ledger, state, [lock_tx(scheme, state)], scheme)
    asset = state.assets[b"coin-1"]
    assert asset.locked and asset.lock_target == (b"other-chain", b"u000")
    assert state.locks[b"n-1"] == b"coin-1"
    moved = signed(scheme, state, TxKind.ASSET_TRANSFER,
                   AssetTransferPayload(b"coin-1", b"u000"), b"u100")
    with pytest.raises(AssetLocked):
        apply_transaction(state, moved, scheme)


def test_double_lock_rejected(chain, scheme):
    ledger, state = chain
    ledger, state = extend(ledger, state, [lock_tx(scheme, state)], scheme)
    with pytest.raises(AssetLocked):
        apply_transaction(state, lock_tx(scheme, state, nonce=b"n-2"), scheme)


def test_resolve_claimed_burns_asset(chain, scheme):
    ledger, state = chain
    ledger, state = extend(ledger, state, [lock_tx(scheme, state)], scheme)
    resolve = signed(scheme, state, TxKind.RESOLVE,
                     ResolvePayload(b"n-1", outcome=1), b"u100")
    _, state = extend(ledger, state, [resolve], scheme)
    assert b"coin-1" not in state.assets
    assert b"n-1" not in state.locks


def test_resolve_aborted_unlocks_asset(chain, scheme):
    ledger, state = chain
    ledger, state = extend(ledger, state, [lock_tx(scheme, state)], scheme)
    resolve = signed(scheme, state, TxKind.RESOLVE,
                     ResolvePayload(b"n-1", outcome=0), b"u100")
    _, state = extend(ledger, state, [resolve], scheme)
    asset = state.assets[b"coin-1"]
    assert not asset.locked and asset.lock_target is None


def test_resolve_unknown_lock_rejected(chain, scheme):
    _, state = chain
    resolve = signed(scheme, state, TxKind.RESOLVE,
                     ResolvePayload(b"nope", outcome=0), b"u100")
    with pytest.raises(UnknownLock):
        apply_transaction(state, resolve, scheme)


def test_claim_creates_asset_once(chain, scheme):
    ledger, state = chain
    claim = ClaimPayload(b"n-9", b"coin-9", 3, b"u000", b"src-chain", verdict=1)
    tx = signed(scheme, state, TxKind.CLAIM, claim, b"u000")
    ledger, state = extend(ledger, state, [tx], scheme)
    assert state.assets[b"coin-9"].owner == b"u000"
    assert state.claims[b"n-9"] == 1
    # a second verdict-1 claim on the same lock nonce must not mint again
    dup = signed(scheme, state, TxKind.CLAIM,
                 ClaimPayload(b"n-9", b"coin-9x", 3, b"u000", b"src-chain", 1),
                 b"u000")
    with pytest.raises(Exception):
        apply_transaction(state, dup, scheme)


def test_failed_claim_is_recorded_without_minting(chain, scheme):
    ledger, state = chain
    claim = ClaimPayload(b"n-8", b"coin-8", 3, b"u000", b"src-chain", verdict=0)
    tx = signed(scheme, state, TxKind.CLAIM, claim, b"u000")
    _, state = extend(ledger, state, [tx], scheme)
    assert b"coin-8" not in state.assets
    assert state.claims[b"n-8"] == 0


def test_account_encoding_keeps_empty_metadata_count():
    # the empty metadata sequence still encodes its 4-byte zero count, and
    # every state digest covers these bytes
    account = Account(b"u1", b"pk", Role.VALIDATOR)
    assert account.to_bytes() == (b"\x00\x00\x00\x02u1" + b"\x00\x00\x00\x02pk"
                                  + b"\x01" + b"\x00\x00\x00\x00")


# --- state digests -----------------------------------------------------------------


def test_state_digest_is_order_insensitive_but_content_sensitive(chain, scheme):
    ledger, state = chain
    d0 = state.digest()
    assert d0 == replay(ledger).digest()  # replays agree
    tx = signed(scheme, state, TxKind.ASSET_TRANSFER,
                AssetTransferPayload(b"coin-1", b"u000"), b"u100")
    _, after = extend(ledger, state, [tx], scheme)
    assert after.digest() != d0


def test_asset_lock_flag_consistency():
    with pytest.raises(ValueError):
        Asset(b"x", b"u", 1, locked=True, lock_target=None)
    with pytest.raises(ValueError):
        Asset(b"x", b"u", 1, locked=False, lock_target=(b"c", b"a"))
    with pytest.raises(ValueError):
        Asset(b"x", b"u", -2)


# --- state copies ------------------------------------------------------------------

_KEYS = st.binary(min_size=1, max_size=3)
STATE_CHANGES = {
    "config": st.sampled_from([None, make_config(n_validators=2),
                               make_config(chain=b"other", n_clients=1)]),
    "accounts": st.dictionaries(_KEYS, st.builds(
        Account, _KEYS, st.binary(max_size=4), st.sampled_from(Role)),
        max_size=3),
    "assets": st.dictionaries(_KEYS, st.builds(
        Asset, _KEYS, _KEYS, st.integers(0, 99)), max_size=3),
    "locks": st.dictionaries(_KEYS, _KEYS, max_size=3),
    "claims": st.dictionaries(_KEYS, st.integers(0, 1), max_size=3),
    "last_height": st.integers(-1, 10**6),
    "parent_chain": st.one_of(st.none(), _KEYS),
    "split_height": st.integers(0, 10**6),
    "side": st.integers(0, 2),
}


@settings(max_examples=200, deadline=None)
@given(changes=st.fixed_dictionaries({}, optional=STATE_CHANGES))
def test_state_replace_matches_dataclasses_replace(changes):
    config = make_config(n_clients=1, assets=[Asset(b"coin-1", b"u100", 10)])
    state = replay([build_genesis(config, make_accounts(
        config, SignatureScheme(seed=5)), {})])
    names = [f.name for f in dataclasses.fields(ChainState)]
    before = {name: getattr(state, name) for name in names}
    saved = {name: copy.copy(value) for name, value in before.items()}
    new = state.replace(**changes)
    ref = dataclasses.replace(state, **changes)
    assert type(new) is ChainState and new is not state
    for name in names:  # the same object in each field, as replace gives
        assert getattr(new, name) is getattr(ref, name), name
        assert getattr(state, name) is before[name], name
        assert getattr(state, name) == saved[name], name
    assert new == ref and new.digest() == ref.digest()
    assert vars(new) == vars(ref)


def test_config_update_adding_a_present_validator_still_raises(chain):
    _, state = chain
    present = state.accounts[b"u000"]
    tx = Transaction(TxKind.CONFIG_UPDATE, ConfigUpdatePayload((present,)),
                     b"u000")
    with pytest.raises(AlreadyMember):
        apply_transaction(state, tx)
    newcomer = Account(b"u300", b"pk", Role.VALIDATOR)
    twice = Transaction(TxKind.CONFIG_UPDATE,
                        ConfigUpdatePayload((newcomer, newcomer)), b"u300")
    with pytest.raises(AlreadyMember):
        apply_transaction(state, twice)
    # ChainConfig keeps its validating constructor on the copy path
    with pytest.raises(ValueError, match="duplicate validator"):
        dataclasses.replace(state.config,
                            validators=state.config.validators + (b"u000",))
    assert apply_transaction(state, Transaction(
        TxKind.CONFIG_UPDATE, ConfigUpdatePayload((newcomer,)),
        b"u300")).config.validators[-1] == b"u300"


def test_memoized_config_fields_track_a_run_of_joins(chain):
    # joins make each config from a config whose quorum and validator set
    # were already read: the new one must derive its own, not inherit the
    # old memo
    _, state = chain
    for i in range(9):
        old = state.config
        assert (old.quorum, old.validator_set) == (
            quorum_size(len(old.validators), old.consensus.alpha),
            frozenset(old.validators))
        seat = Account(b"v%03d" % i, b"pk", Role.VALIDATOR)
        tx = Transaction(TxKind.CONFIG_UPDATE, ConfigUpdatePayload((seat,)),
                         seat.user)
        state = apply_transaction(state, tx)
        new = state.config
        assert new is not old
        fresh = dataclasses.replace(new)
        assert (new.quorum, new.validator_set) == (
            fresh.quorum, fresh.validator_set)
        assert new.quorum == quorum_size(len(new.validators),
                                         new.consensus.alpha)
        assert new.validator_set == frozenset(new.validators)
    assert len(state.config.validators) == 13 and state.config.quorum == 7


# --- successors built by their own constructors ----------------------------------


def replaced_successors(state, tx) -> dict:
    """The ChainConfig and Assets ``apply_transaction`` builds anew from
    `state`, as dataclasses.replace builds them: "config" and asset ids
    as keys."""
    p, config, kind = tx.payload, state.config, tx.kind
    if kind == TxKind.CONFIG_UPDATE and isinstance(p, ConfigUpdatePayload):
        return {"config": dataclasses.replace(config, validators=(
            config.validators + tuple(a.user for a in p.add_validators)))}
    elif kind == TxKind.ASSET_TRANSFER:
        return {p.asset_id: dataclasses.replace(state.assets[p.asset_id],
                                                owner=p.recipient)}
    elif kind == TxKind.LOCK:
        return {p.asset_id: dataclasses.replace(
            state.assets[p.asset_id], locked=True,
            lock_target=(p.target_chain, p.target_address))}
    elif kind == TxKind.RESOLVE and p.outcome == 0:
        asset_id = state.locks[p.lock_nonce]
        return {asset_id: dataclasses.replace(
            state.assets[asset_id], locked=False, lock_target=None)}
    return {}


def transfer_run():
    """A src/dst pair running lock/claim/resolve schedules as the transfer
    benchmark does (a claim by the wrong recipient commits an abort), then
    ann joins dst as a validator and is sent a claimed coin."""
    eco = Ecosystem(seed=3)
    for i in range(4):
        eco.register_user(b"s%03d" % i, Role.VALIDATOR)
        eco.register_user(b"t%03d" % i, Role.VALIDATOR)
    for client in (b"alice", b"bob", b"carol", b"ann"):
        eco.register_user(client, Role.CLIENT)
    eco.create_chain(b"src", [b"s%03d" % i for i in range(4)],
                     [b"alice", b"carol"],
                     initial_assets=[Asset(b"coin-%d" % j, b"alice", 1 + j)
                                     for j in range(3)])
    eco.create_chain(b"dst", [b"t%03d" % i for i in range(4)],
                     [b"bob", b"carol"])
    eco.crash_user(b"s003")
    for j, recipient in enumerate((b"bob", b"carol", b"bob")):
        lock = toa_lock(eco, b"alice", b"coin-%d" % j, b"bob", b"dst")
        toa_resolve(eco, b"src", toa_claim(eco, recipient, b"dst", lock))
    eco.join_chain(b"ann", b"dst")
    tx = Transaction(TxKind.ASSET_TRANSFER,
                     AssetTransferPayload(b"coin-0", b"ann"), b"bob")
    sig = eco.scheme.sign(eco.users[b"bob"].public_key, tx.signing_bytes())
    eco.chains[b"dst"].commit([dataclasses.replace(tx, signature=sig)])
    return eco


def test_successors_equal_what_dataclasses_replace_builds(monkeypatch):
    # every ChainConfig or Asset apply_transaction builds from a pre-state
    # equals dataclasses.replace's, ran its own __post_init__ checks and
    # carries no memo over from the value it replaces; replaying every
    # ledger afterwards adds the genesis kinds
    built = []  # every ChainConfig and Asset a __post_init__ checked
    for cls in (ChainConfig, Asset):
        def checked(self, check=cls.__post_init__):
            built.append(self)
            check(self)
        monkeypatch.setattr(cls, "__post_init__", checked)
    kinds = Counter()
    sites = Counter()
    apply = model.apply_transaction

    def compared(state, tx, scheme=None):
        expected = replaced_successors(state, tx)
        del built[:]
        after = apply(state, tx, scheme)
        kinds[tx.kind] += 1
        for key, want in expected.items():
            got = after.config if key == "config" else after.assets[key]
            assert got == want
            assert any(value is got for value in built)
            assert vars(got).keys() == {f.name for f in dataclasses.fields(got)}
            sites[tx.kind, key == "config"] += 1
        return after

    monkeypatch.setattr(model, "apply_transaction", compared)
    monkeypatch.setattr(manager, "apply_transaction", compared)
    ecos = [transfer_run()]
    for path in (FIGURE1, ADVERSARIAL):
        driver = _Driver(parse_scenario(path.read_text()), 0)
        driver.run()
        ecos.append(driver.eco)
    for eco in ecos:
        for sim in [*eco.chains.values(), *eco.retired.values()]:
            assert model.replay(sim.ledger) == sim.state
    assert set(kinds) == set(TxKind)
    # the four sites: a validator join, a transfer, a lock and an abort's
    # unlock
    assert set(sites) == {(TxKind.CONFIG_UPDATE, True),
                          (TxKind.ASSET_TRANSFER, False),
                          (TxKind.LOCK, False), (TxKind.RESOLVE, False)}
