"""Cross-chain knowledge proofs and lock/claim/resolve asset transfer."""

import dataclasses
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from splitchain.consensus import QuorumCertificate
from splitchain.errors import (
    AssetLocked,
    InvalidProof,
    NoQuorum,
    NotOwner,
    UnknownAsset,
    UnknownLock,
    UnknownUser,
)
from splitchain.manager import Ecosystem
from splitchain.model import (
    Asset,
    ClaimPayload,
    LockPayload,
    Role,
    Transaction,
    TxKind,
    enc_bytes,
    replay,
    sha256,
    verify_ledger,
)
from splitchain.xchain import (
    ClaimDecided,
    FreshnessTag,
    KnowledgeProof,
    TransferProof,
    TxInclusion,
    issue_tag,
    parse_transaction,
    toa_claim,
    toa_lock,
    toa_resolve,
    tok_generate_proof,
    tok_verify_proof,
)


def two_chain_eco(seed=0, n=4, alpha=None, n_max=64):
    """Chains `src` (validators u0xx, client alice + coin) and `dst`
    (validators u2xx, client bob)."""
    eco = Ecosystem(seed=seed)
    src_vals = [b"u0%02d" % i for i in range(n)]
    dst_vals = [b"u2%02d" % i for i in range(n)]
    for v in src_vals + dst_vals:
        eco.register_user(v, Role.VALIDATOR)
    eco.register_user(b"alice", Role.CLIENT)
    eco.register_user(b"bob", Role.CLIENT)
    kwargs = {} if alpha is None else {"alpha": alpha, "kind": "bft"}
    eco.create_chain(b"src", src_vals, [b"alice"], n_max=n_max,
                     initial_assets=[Asset(b"coin", b"alice", 9)], **kwargs)
    eco.create_chain(b"dst", dst_vals, [b"bob"], n_max=n_max, **kwargs)
    return eco


def locked_coin(eco):
    """The TxInclusion that the lock of alice's coin to bob, committed on
    src, satisfies."""
    return toa_lock(eco, b"alice", b"coin", b"bob", b"dst").inner.predicate


def bump_height(eco, chain_id, times=1):
    """Commit empty blocks to advance the chain."""
    for _ in range(times):
        eco.chains[chain_id].commit([])


# --- tags ---------------------------------------------------------------------


def test_tag_anchors_to_verifier_tip_and_roundtrips():
    eco = two_chain_eco()
    tag = issue_tag(eco, b"dst", expiry_window=50)
    assert tag.issuer_chain == b"dst"
    assert tag.anchor_digest == eco.chains[b"dst"].ledger[-1].digest
    assert tag.expiry_height == tag.issued_height + 50
    assert eco.issued_tags[(b"dst", tag.nonce)] == tag
    assert FreshnessTag.from_bytes(tag.to_bytes()) == tag


def test_tag_nonces_are_unique_per_issuance():
    eco = two_chain_eco()
    nonces = {issue_tag(eco, b"dst").nonce for _ in range(64)}
    assert len(nonces) == 64


def test_tag_must_expire_after_issuance():
    with pytest.raises(ValueError):
        FreshnessTag(b"c", b"\x00" * 32, 5, 5, b"n")


# --- knowledge proofs -----------------------------------------------------------


def test_true_predicate_yields_verifying_proof():
    eco = two_chain_eco()
    included = locked_coin(eco)
    tag = issue_tag(eco, b"dst")
    proof = tok_generate_proof(eco, b"alice", b"src", included, tag)
    assert proof is not None
    assert len(proof.certificate.signatures) >= eco.chains[b"src"].quorum
    verdict, reason = tok_verify_proof(
        proof, tag, eco.chain(b"src").config,
        eco.chains[b"dst"].state.last_height, eco.verify)
    assert (verdict, reason) == (1, None)


def test_false_or_unanswerable_predicates_yield_no_proof():
    eco = two_chain_eco()
    included = locked_coin(eco)
    tag = issue_tag(eco, b"dst")
    # false: the lock's block holds no such transaction
    assert tok_generate_proof(eco, b"alice", b"src",
                              TxInclusion(b"\x00" * 32, included.height),
                              tag) is None
    # false: the genesis block does not hold the lock
    assert tok_generate_proof(eco, b"alice", b"src",
                              TxInclusion(included.tx_digest, 0), tag) is None
    # unanswerable: src has decided no claim for this nonce
    assert tok_generate_proof(eco, b"alice", b"src",
                              ClaimDecided(tag.nonce, 1), tag) is None
    # unanswerable: height not committed yet
    assert tok_generate_proof(eco, b"alice", b"src",
                              TxInclusion(b"\x00" * 32, 99), tag) is None


def test_generate_requires_membership_and_quorum():
    from fractions import Fraction

    eco = two_chain_eco(alpha=Fraction(1, 3))
    included = locked_coin(eco)
    tag = issue_tag(eco, b"dst")
    with pytest.raises(UnknownUser):
        tok_generate_proof(eco, b"bob", b"src", included, tag)
    eco.crash_user(b"u002")
    eco.crash_user(b"u003")  # quorum 3 of 4, only 2 can sign
    with pytest.raises(NoQuorum):
        tok_generate_proof(eco, b"alice", b"src", included, tag)


def proof_fixture():
    eco = two_chain_eco()
    included = locked_coin(eco)
    tag = issue_tag(eco, b"dst")
    proof = tok_generate_proof(eco, b"alice", b"src", included, tag)
    cfg = eco.chain(b"src").config
    height = eco.chains[b"dst"].state.last_height
    return eco, tag, proof, cfg, height


def test_verify_rejects_stale_tag():
    eco, tag, proof, cfg, _ = proof_fixture()
    verdict, reason = tok_verify_proof(proof, tag, cfg, tag.expiry_height + 1,
                                       eco.verify)
    assert verdict == 0 and reason == "stale tag"


def test_verify_rejects_tag_substitution():
    eco, tag, proof, cfg, height = proof_fixture()
    other = issue_tag(eco, b"dst")
    verdict, reason = tok_verify_proof(proof, other, cfg, height,
                                       eco.verify)
    assert verdict == 0 and reason == "tag mismatch"


def test_verify_rejects_quorum_minus_one():
    eco, tag, proof, cfg, height = proof_fixture()
    quorum = cfg.quorum
    stripped = KnowledgeProof(
        proof.predicate, 1, tag,
        type(proof.certificate)(proof.certificate.statement,
                                proof.certificate.signatures[:quorum - 1]))
    verdict, reason = tok_verify_proof(stripped, tag, cfg, height,
                                       eco.verify)
    assert verdict == 0 and "quorum" in reason


def test_verify_rejects_statement_tampering():
    eco, tag, proof, cfg, height = proof_fixture()
    doctored = KnowledgeProof(
        TxInclusion(b"\x00" * 32, proof.predicate.height), 1, tag,
        proof.certificate)
    verdict, reason = tok_verify_proof(doctored, tag, cfg, height,
                                       eco.verify)
    assert verdict == 0 and reason == "statement mismatch"


def test_verify_rejects_duplicate_and_foreign_signers():
    eco, tag, proof, cfg, height = proof_fixture()
    cert = proof.certificate
    first = cert.signatures[0]
    dup = type(cert)(cert.statement, cert.signatures[:-1] + (first,))
    verdict, reason = tok_verify_proof(
        KnowledgeProof(proof.predicate, 1, tag, dup), tag, cfg, height,
        eco.verify)
    assert verdict == 0 and "duplicate" in reason
    foreign = type(cert)(cert.statement,
                         cert.signatures[:-1] + ((b"u200", first[1]),))
    verdict, reason = tok_verify_proof(
        KnowledgeProof(proof.predicate, 1, tag, foreign), tag, cfg, height,
        eco.verify)
    assert verdict == 0


def test_verify_rejects_negative_claims():
    eco, tag, proof, cfg, height = proof_fixture()
    negative = KnowledgeProof(proof.predicate, 0, tag, proof.certificate)
    verdict, _ = tok_verify_proof(negative, tag, cfg, height, eco.verify)
    assert verdict == 0


def test_proof_bytes_roundtrip():
    _, tag, proof, _, _ = proof_fixture()
    assert KnowledgeProof.from_bytes(proof.to_bytes()) == proof
    with pytest.raises(ValueError, match="trailing bytes after proof"):
        KnowledgeProof.from_bytes(proof.to_bytes() + b"!")
    predicate = proof.predicate.to_bytes()
    padded = (enc_bytes(predicate + b"!")
              + proof.to_bytes()[len(enc_bytes(predicate)):])
    with pytest.raises(ValueError, match="trailing bytes after predicate"):
        KnowledgeProof.from_bytes(padded)
    with pytest.raises(ValueError, match="trailing bytes after tag"):
        FreshnessTag.from_bytes(tag.to_bytes() + b"!")


@pytest.mark.parametrize("predicate", [
    TxInclusion(b"\x11" * 32, 3),
    ClaimDecided(b"nonce", 1),
], ids=lambda p: type(p).__name__)
def test_every_predicate_kind_roundtrips_in_a_proof(predicate):
    _, tag, proof, _, _ = proof_fixture()
    for verdict in (0, 1):
        carried = KnowledgeProof(predicate, verdict, tag, proof.certificate)
        assert KnowledgeProof.from_bytes(carried.to_bytes()) == carried


def test_proof_size_grows_linearly_with_validators():
    sizes = {}
    for n in (4, 8, 16):
        eco = Ecosystem(seed=1)
        vals = [b"v%03d" % i for i in range(n)]
        for v in vals:
            eco.register_user(v, Role.VALIDATOR)
        eco.register_user(b"alice", Role.CLIENT)
        eco.create_chain(b"c", vals, [b"alice"], n_max=64,
                         initial_assets=[Asset(b"coin", b"alice", 1)])
        tag = issue_tag(eco, b"c")
        genesis = eco.chains[b"c"].ledger[0]
        proof = tok_generate_proof(
            eco, b"alice", b"c",
            TxInclusion(genesis.transactions[0].digest, 0), tag)
        sizes[n] = proof.size_bytes
    per_sig = (sizes[8] - sizes[4]) / 4
    assert per_sig == (sizes[16] - sizes[8]) / 8  # constant marginal cost
    assert sizes[4] - 4 * per_sig > 0  # fixed statement/tag overhead


# --- asset transfer: happy path ----------------------------------------------------


def test_lock_claim_resolve_moves_the_asset():
    eco = two_chain_eco()
    lock = toa_lock(eco, b"alice", b"coin", b"bob", b"dst")
    src, dst = eco.chains[b"src"], eco.chains[b"dst"]
    assert lock.kind == "lock"
    assert src.state.assets[b"coin"].locked
    assert src.state.assets[b"coin"].lock_target == (b"dst", b"bob")
    # frozen: alice cannot move the coin in-chain anymore
    with pytest.raises(AssetLocked):
        toa_lock(eco, b"alice", b"coin", b"bob", b"dst")

    claim = toa_claim(eco, b"bob", b"dst", lock)
    assert claim.kind == "claim"
    assert dst.state.assets[b"coin"].owner == b"bob"
    assert not dst.state.assets[b"coin"].locked

    outcome = toa_resolve(eco, b"src", claim)
    assert outcome == "claimed"
    assert b"coin" not in src.state.assets
    assert not src.state.locks
    # exactly one instance across the ecosystem, value conserved
    assert eco.total_value() == 9
    assert replay(dst.ledger).digest() == dst.state.digest()
    assert replay(src.ledger).digest() == src.state.digest()


def test_new_owner_can_lock_a_claimed_asset_before_resolve():
    eco = two_chain_eco()
    lock = toa_lock(eco, b"alice", b"coin", b"bob", b"dst")
    toa_claim(eco, b"bob", b"dst", lock)
    # src still holds alice's locked copy; bob's unlocked copy is on dst
    back = toa_lock(eco, b"bob", b"coin", b"alice", b"src")
    assert back.attesting_chain == b"dst"
    dst = eco.chains[b"dst"]
    assert dst.state.assets[b"coin"].lock_target == (b"src", b"alice")
    assert eco.chains[b"src"].state.assets[b"coin"].owner == b"alice"


def test_lock_errors():
    eco = two_chain_eco()
    with pytest.raises(UnknownAsset):
        toa_lock(eco, b"alice", b"nope", b"bob", b"dst")
    with pytest.raises(NotOwner):
        toa_lock(eco, b"bob", b"coin", b"bob", b"dst")


def test_claim_records_failure_on_stale_tag():
    eco = two_chain_eco()
    # hand-rolled lock with a tag that expires almost immediately
    tag = issue_tag(eco, b"dst", expiry_window=1)
    src = eco.chains[b"src"]
    from splitchain.model import LockPayload

    payload = LockPayload(b"coin", 9, b"dst", b"bob", tag.nonce)
    tx = Transaction(TxKind.LOCK, payload, b"alice")
    tx = Transaction(TxKind.LOCK, payload, b"alice",
                     eco.scheme.sign(eco.users[b"alice"].public_key,
                                     tx.signing_bytes()))
    src.commit([tx])
    proof = tok_generate_proof(eco, b"alice", b"src",
                               TxInclusion(tx.digest, src.state.last_height),
                               tag)
    lock = TransferProof("lock", proof, tx.to_bytes(), b"src")

    bump_height(eco, b"dst", times=2)  # sail past expiry_height
    result = toa_claim(eco, b"bob", b"dst", lock)
    assert result.kind == "abort"
    dst = eco.chains[b"dst"]
    assert b"coin" not in dst.state.assets
    assert dst.state.claims[tag.nonce] == 0  # failure recorded on-chain

    # the abort proof rolls the lock back on the source chain
    assert toa_resolve(eco, b"src", result) == "aborted"
    assert not src.state.assets[b"coin"].locked
    assert eco.total_value() == 9


def test_double_claim_aborts_without_duplicate_asset():
    eco = two_chain_eco()
    lock = toa_lock(eco, b"alice", b"coin", b"bob", b"dst")
    first = toa_claim(eco, b"bob", b"dst", lock)
    second = toa_claim(eco, b"bob", b"dst", lock)
    assert first.kind == "claim" and second.kind == "abort"
    dst_state = replay(eco.chains[b"dst"].ledger)
    assert [a for a in dst_state.assets if a == b"coin"] == [b"coin"]
    assert dst_state.assets[b"coin"].value == 9


def test_replayed_claims_abort_cannot_unlock_claimed_asset():
    # the abort handed out for a duplicate attempt must never become
    # grounds to unlock: that would leave spendable copies on both chains
    eco = two_chain_eco()
    lock = toa_lock(eco, b"alice", b"coin", b"bob", b"dst")
    first = toa_claim(eco, b"bob", b"dst", lock)
    second = toa_claim(eco, b"bob", b"dst", lock)
    with pytest.raises(InvalidProof):
        toa_resolve(eco, b"src", second)
    assert eco.chains[b"src"].state.assets[b"coin"].locked
    assert toa_resolve(eco, b"src", first) == "claimed"
    assert b"coin" not in eco.chains[b"src"].state.assets


def test_claim_by_wrong_address_aborts():
    eco = two_chain_eco()
    eco.register_user(b"carol", Role.CLIENT)
    eco.join_chain(b"carol", b"dst")  # a member of dst, not the addressee
    lock = toa_lock(eco, b"alice", b"coin", b"bob", b"dst")
    result = toa_claim(eco, b"carol", b"dst", lock)
    assert result.kind == "abort"
    assert b"coin" not in eco.chains[b"dst"].state.assets
    # bob can still claim afterwards: the failed attempt burned nothing
    assert toa_claim(eco, b"bob", b"dst", lock).kind == "abort"  # nonce spent
    # ...but the abort proof lets the source unlock
    assert toa_resolve(eco, b"src", result) == "aborted"
    assert not eco.chains[b"src"].state.assets[b"coin"].locked


def test_claim_with_tampered_lock_tx_aborts():
    eco = two_chain_eco()
    lock = toa_lock(eco, b"alice", b"coin", b"bob", b"dst")
    forged = TransferProof("lock", lock.inner,
                           lock.tx_bytes[:-1] + b"\x00", b"src")
    result = toa_claim(eco, b"bob", b"dst", forged)
    assert result.kind == "abort"
    assert b"coin" not in eco.chains[b"dst"].state.assets


def test_resolve_discards_invalid_proofs_without_state_change():
    eco = two_chain_eco()
    lock = toa_lock(eco, b"alice", b"coin", b"bob", b"dst")
    claim = toa_claim(eco, b"bob", b"dst", lock)
    src = eco.chains[b"src"]
    before = src.state.digest()

    with pytest.raises(InvalidProof):
        toa_resolve(eco, b"src", lock)  # wrong proof kind
    cert = claim.inner.certificate
    tampered_cert = type(cert)(cert.statement, cert.signatures[:1])
    tampered = TransferProof(
        "claim",
        KnowledgeProof(claim.inner.predicate, 1, claim.inner.tag,
                       tampered_cert),
        claim.tx_bytes, claim.attesting_chain)
    with pytest.raises(InvalidProof):
        toa_resolve(eco, b"src", tampered)
    mismarked = TransferProof("abort", claim.inner, claim.tx_bytes,
                              claim.attesting_chain)
    with pytest.raises(InvalidProof):
        toa_resolve(eco, b"src", mismarked)

    assert src.state.digest() == before
    assert src.state.assets[b"coin"].locked  # still pending
    assert toa_resolve(eco, b"src", claim) == "claimed"
    with pytest.raises(UnknownLock):
        toa_resolve(eco, b"src", claim)  # already settled


def test_transfer_survives_target_division():
    eco = two_chain_eco(n=4, n_max=4)
    lock = toa_lock(eco, b"alice", b"coin", b"bob", b"dst")
    eco.divide_chain(b"dst")
    claim = toa_claim(eco, b"bob", b"dst", lock)
    assert claim.kind == "claim"
    holder = next(s for s in eco.chains.values()
                  if b"coin" in s.state.assets and s.chain_id != b"src")
    assert holder.chain_id.startswith(b"dst.")
    assert holder.state.assets[b"coin"].owner == b"bob"
    assert toa_resolve(eco, b"src", claim) == "claimed"
    assert eco.total_value() == 9


def test_transfer_survives_source_division():
    eco = two_chain_eco(n=4, n_max=4)
    lock = toa_lock(eco, b"alice", b"coin", b"bob", b"dst")
    eco.divide_chain(b"src")
    claim = toa_claim(eco, b"bob", b"dst", lock)
    assert claim.kind == "claim"
    assert toa_resolve(eco, b"src", claim) == "claimed"
    assert all(b"coin" not in s.state.assets or s.chain_id == b"dst"
               for s in eco.chains.values())
    assert eco.total_value() == 9


def add_chain_x(eco):
    """A third chain `x` (validators u3xx, client erin), free to fuse."""
    vals = [b"u3%02d" % i for i in range(4)]
    for v in vals:
        eco.register_user(v, Role.VALIDATOR)
    eco.register_user(b"erin", Role.CLIENT)
    eco.create_chain(b"x", vals, [b"erin"])


def test_transfer_survives_source_fusion():
    eco = two_chain_eco()
    add_chain_x(eco)
    lock = toa_lock(eco, b"alice", b"coin", b"bob", b"dst")
    eco.fuse_chains(b"src", b"x")
    claim = toa_claim(eco, b"bob", b"dst", lock)
    assert claim.kind == "claim"
    assert toa_resolve(eco, b"src", claim) == "claimed"
    assert b"coin" not in eco.chains[b"src+x"].state.assets
    assert eco.total_value() == 9


def test_transfer_survives_target_fusion():
    eco = two_chain_eco()
    add_chain_x(eco)
    lock = toa_lock(eco, b"alice", b"coin", b"bob", b"dst")
    eco.fuse_chains(b"dst", b"x")
    claim = toa_claim(eco, b"bob", b"dst", lock)
    assert claim.kind == "claim" and claim.attesting_chain == b"dst+x"
    assert eco.chains[b"dst+x"].state.assets[b"coin"].owner == b"bob"
    assert toa_resolve(eco, b"src", claim) == "claimed"
    assert eco.total_value() == 9


def test_parse_transaction_rejects_other_kinds():
    eco = two_chain_eco()
    lock = toa_lock(eco, b"alice", b"coin", b"bob", b"dst")
    parsed = parse_transaction(lock.tx_bytes)
    assert parsed.kind == TxKind.LOCK
    assert parsed.payload.target_address == b"bob"
    genesis_tx = eco.chains[b"dst"].ledger[0].transactions[0]
    with pytest.raises(ValueError):
        parse_transaction(genesis_tx.to_bytes())
    with pytest.raises(ValueError):
        parse_transaction(lock.tx_bytes + b"junk")


# canonical encodings are a bijection on what the parsers accept: every field
# is a fixed-width int or length-prefixed bytes, and both readers end done()
_blobs = st.binary(max_size=40)
_u64 = st.integers(0, 2**64 - 1)
_lock_txs = st.builds(
    Transaction, st.just(TxKind.LOCK),
    st.builds(LockPayload, _blobs, _u64, _blobs, _blobs, _blobs),
    _blobs, _blobs)
_claim_txs = st.builds(
    Transaction, st.just(TxKind.CLAIM),
    st.builds(ClaimPayload, _blobs, _blobs, _u64, _blobs, _blobs, _u64,
              st.binary(max_size=400)),
    _blobs, _blobs)
_predicates = st.one_of(
    st.builds(TxInclusion, _blobs, _u64),
    st.builds(ClaimDecided, _blobs, _u64))
_tags = st.builds(
    lambda chain, anchor, issued, window, nonce: FreshnessTag(
        chain, anchor, issued, issued + window, nonce),
    _blobs, _blobs, st.integers(0, 2**63), st.integers(1, 2**63 - 1), _blobs)
_certificates = st.builds(
    QuorumCertificate, _blobs,
    st.lists(st.tuples(_blobs, _blobs), max_size=5).map(tuple))
_MAX = 2**64 - 1
_EMPTY_PROOF = (ClaimDecided(b"", _MAX), _MAX,
                FreshnessTag(b"", b"", 0, _MAX, b""), QuorumCertificate(b"", ()),
                b"")


@settings(max_examples=200, derandomize=True)
@given(st.one_of(_lock_txs, _claim_txs), st.sampled_from(TransferProof.KINDS),
       _predicates, _u64, _tags, _certificates, _blobs)
@example(Transaction(TxKind.LOCK, LockPayload(b"", _MAX, b"", b"", b""), b""),
         "lock", *_EMPTY_PROOF)
@example(Transaction(TxKind.CLAIM,
                     ClaimPayload(b"", b"", _MAX, b"", b"", _MAX, b""), b""),
         "abort", *_EMPTY_PROOF)
def test_transfer_encodings_roundtrip_byte_for_byte(
        tx, kind, predicate, verdict, tag, certificate, chain):
    data = tx.to_bytes()
    parsed = parse_transaction(data)
    assert parsed == tx
    assert parsed.to_bytes() == data
    assert parsed.digest == tx.digest == sha256(data)
    inner = KnowledgeProof(predicate, verdict, tag, certificate)
    encoded = inner.to_bytes()
    back = KnowledgeProof.from_bytes(encoded)
    assert back == inner and back.to_bytes() == encoded
    assert TransferProof(kind, back, data, chain).transaction == tx


def assert_memos_fresh(eco, proofs):
    """Every memo a schedule left equals what a fresh value computes."""
    memoized = 0
    for chain_id in (b"src", b"dst"):
        sim = eco.chains[chain_id]
        verify_ledger(sim.ledger)
        assert replay(sim.ledger, scheme=eco.scheme) == sim.state
        for block in sim.ledger:
            for tx in block.transactions:
                fresh = dataclasses.replace(tx)
                assert fresh == tx and hash(fresh) == hash(tx)
                if "digest" in vars(tx):
                    memoized += 1
                    assert tx.digest == sha256(
                        tx.signing_bytes() + enc_bytes(tx.signature))
        for account in sim.state.accounts.values():
            assert account.to_bytes() == dataclasses.replace(account).to_bytes()
    assert memoized
    for proof in proofs:
        inner = proof.inner
        assert inner.to_bytes() == dataclasses.replace(inner).to_bytes()
        assert proof.to_bytes() == dataclasses.replace(proof).to_bytes()
        assert proof.transaction == parse_transaction(proof.tx_bytes)


# --- randomized interleavings (small smoke; the full suite lives in acceptance) --


def test_random_schedules_never_double_spend():
    rng = random.Random(11)
    for trial in range(60):
        eco = two_chain_eco(seed=trial)
        lock = toa_lock(eco, b"alice", b"coin", b"bob", b"dst")
        ops = ["claim", "claim", "resolve"]
        rng.shuffle(ops)
        outcome = None
        resolved = False

        def spendable():
            return sum(not s.state.assets[b"coin"].locked
                       for s in eco.chains.values()
                       if b"coin" in s.state.assets)

        proofs = [lock]
        for op in ops:
            if op == "claim":
                res = toa_claim(eco, b"bob", b"dst", lock)
                proofs.append(res)
                if outcome is None:
                    outcome = res
            elif outcome is not None:
                toa_resolve(eco, b"src", outcome)
                resolved = True
            assert spendable() <= 1, trial
        if not resolved:  # owner settles once the claim outcome is known
            toa_resolve(eco, b"src", outcome)
        instances = sum(b"coin" in s.state.assets for s in eco.chains.values())
        assert instances == 1, trial
        assert eco.total_value() == 9
        assert_memos_fresh(eco, proofs)
