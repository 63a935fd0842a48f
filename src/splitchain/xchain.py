"""Cross-chain proofs: knowledge transfer and two-phase asset hand-off.

A fact about one chain's committed state travels as a quorum certificate
over ``(predicate, verdict, freshness tag)``. The verifying side issues the
tag first, anchored to its own recent block, so stale certificates cannot
be replayed past the tag's expiry height.

Asset transfer composes three such proofs: the source chain commits a Lock
and hands back an inclusion proof; the target chain checks it and commits
either a successful Claim (minting the asset) or a recorded failure; the
source finally Resolves the lock — deleting the asset if it was claimed,
unlocking it if the claim aborted. Every hand-off is keyed on the tag
nonce, which makes double claims detectable and idempotent.

Operations run synchronously against the ecosystem: a client gathers
signatures from validators directly rather than through simulated wire
messages, which keeps large randomized-schedule suites cheap while the
certificates themselves stay byte-faithful.
"""

from .consensus import QuorumCertificate, collect_certificate, verify_certificate
from .errors import (
    InvalidProof,
    NotOwner,
    SplitchainError,
    UnknownAsset,
    UnknownLock,
    UnknownUser,
)
from .model import (
    ChainId,
    ClaimPayload,
    Digest,
    LockPayload,
    ResolvePayload,
    Transaction,
    TxKind,
    UserId,
    _Reader,
    enc_bytes,
    enc_u64,
    memo,
    record,
    sha256,
)

DEFAULT_EXPIRY_WINDOW = 100

__all__ = [
    "DEFAULT_EXPIRY_WINDOW",
    "FreshnessTag",
    "TxInclusion",
    "ClaimDecided",
    "parse_predicate",
    "KnowledgeProof",
    "TransferProof",
    "proof_statement",
    "issue_tag",
    "tok_generate_proof",
    "tok_verify_proof",
    "toa_lock",
    "toa_claim",
    "toa_resolve",
]


# --- freshness tags -----------------------------------------------------------


@record
class FreshnessTag:
    """Verifier-issued anti-replay anchor.

    ``issuer_chain`` is the chain that will judge proofs carrying this tag;
    ``anchor_digest`` pins one of its recent blocks and ``expiry_height``
    bounds how long the tag stays acceptable on that chain.
    """

    issuer_chain: ChainId
    anchor_digest: Digest
    issued_height: int
    expiry_height: int
    nonce: bytes

    def __post_init__(self):
        if self.expiry_height <= self.issued_height:
            raise ValueError("tag must expire strictly after issuance")

    def to_bytes(self) -> bytes:
        return (enc_bytes(self.issuer_chain) + enc_bytes(self.anchor_digest)
                + enc_u64(self.issued_height) + enc_u64(self.expiry_height)
                + enc_bytes(self.nonce))

    @classmethod
    def from_bytes(cls, data: bytes) -> "FreshnessTag":
        r = _Reader(data)
        tag = cls(r.read_bytes(), r.read_bytes(), r.read_u64(), r.read_u64(),
                  r.read_bytes())
        if not r.done():
            raise ValueError("trailing bytes after tag")
        return tag


# --- predicates over committed state -------------------------------------------
#
# evaluate(ledger, state) returns True/False, or None when the chain cannot
# answer (e.g. the referenced height is not committed yet). Proof generation
# treats False and None alike: no certificate is produced.


@record
class TxInclusion:
    """The block at ``height`` contains a transaction with this digest."""

    KIND = 0

    tx_digest: Digest
    height: int

    def evaluate(self, ledger, state):
        if self.height > state.last_height or self.height >= len(ledger):
            return None
        block = ledger[self.height]
        return any(t.digest == self.tx_digest for t in block.transactions)

    def to_bytes(self) -> bytes:
        return bytes([self.KIND]) + enc_bytes(self.tx_digest) + enc_u64(self.height)


@record
class ClaimDecided:
    """The chain's first committed claim verdict for ``nonce`` is ``verdict``.

    Resolve legs ride on this predicate rather than on inclusion of any
    particular claim attempt: replayed attempts also leave recorded-failure
    transactions in the ledger, but only the deciding verdict is attestable,
    so a failure recorded after a successful claim can never be dressed up
    as grounds to unlock the source asset.
    """

    KIND = 3  # 1 and 2 are retired; a proof statement carries this byte

    nonce: bytes
    verdict: int

    def evaluate(self, ledger, state):
        decided = state.claims.get(self.nonce)
        if decided is None:
            return None  # nothing committed about this nonce yet
        return decided == self.verdict

    def to_bytes(self) -> bytes:
        return bytes([self.KIND]) + enc_bytes(self.nonce) + enc_u64(self.verdict)


def parse_predicate(r: _Reader):
    kind = r.take(1)[0]
    if kind == TxInclusion.KIND:
        return TxInclusion(r.read_bytes(), r.read_u64())
    if kind == ClaimDecided.KIND:
        return ClaimDecided(r.read_bytes(), r.read_u64())
    raise ValueError(f"unknown predicate kind {kind}")


def proof_statement(predicate, verdict: int, tag: FreshnessTag) -> bytes:
    """The exact bytes a quorum signs: predicate, verdict, and tag bound
    together."""
    return (b"know" + enc_bytes(predicate.to_bytes()) + enc_u64(verdict)
            + enc_bytes(tag.to_bytes()))


# --- proofs ---------------------------------------------------------------------


@record
class KnowledgeProof:
    """Quorum-certified claim that ``predicate`` held on the signing chain."""

    predicate: object
    verdict_claimed: int
    tag: FreshnessTag
    certificate: QuorumCertificate

    @memo
    def encoded(self) -> bytes:
        return (enc_bytes(self.predicate.to_bytes())
                + enc_u64(self.verdict_claimed)
                + enc_bytes(self.tag.to_bytes())
                + enc_bytes(self.certificate.to_bytes()))

    def to_bytes(self) -> bytes:
        return self.encoded

    @classmethod
    def from_bytes(cls, data: bytes) -> "KnowledgeProof":
        r = _Reader(data)
        pr = _Reader(r.read_bytes())
        predicate = parse_predicate(pr)
        if not pr.done():
            raise ValueError("trailing bytes after predicate")
        verdict = r.read_u64()
        tag = FreshnessTag.from_bytes(r.read_bytes())
        cert = QuorumCertificate.from_bytes(r.read_bytes())
        if not r.done():
            raise ValueError("trailing bytes after proof")
        return cls(predicate, verdict, tag, cert)

    @property
    def size_bytes(self) -> int:
        return len(self.to_bytes())


@record
class TransferProof:
    """Inclusion proof of one leg of an asset transfer.

    ``inner`` certifies that ``transaction`` was committed on
    ``attesting_chain``; ``kind`` says which leg ("lock", "claim", "abort")
    the transaction represents, so the receiving side knows which state
    change to perform. The proof's bytes carry the transaction's own
    encoding.
    """

    KINDS = ("lock", "claim", "abort")

    kind: str
    inner: KnowledgeProof
    transaction: Transaction
    attesting_chain: ChainId

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise ValueError(f"unknown transfer proof kind {self.kind!r}")

    @memo
    def encoded(self) -> bytes:
        return (bytes([self.KINDS.index(self.kind)])
                + enc_bytes(self.inner.to_bytes())
                + enc_bytes(self.transaction.to_bytes())
                + enc_bytes(self.attesting_chain))

    def to_bytes(self) -> bytes:
        return self.encoded


# --- tag issuance and knowledge transfer ------------------------------------------


def issue_tag(eco, verifier_chain: ChainId,
              expiry_window: int = DEFAULT_EXPIRY_WINDOW) -> FreshnessTag:
    """Mint a tag on the chain that will verify proofs carrying it."""
    sim = eco._live(verifier_chain)
    height = sim.state.last_height
    eco._tag_counter += 1
    nonce = sha256(b"tag" + enc_bytes(verifier_chain) + enc_u64(height)
                   + enc_u64(eco._tag_counter))[:16]
    tag = FreshnessTag(verifier_chain, sim.ledger[-1].digest, height,
                       height + expiry_window, nonce)
    eco.issued_tags[(verifier_chain, nonce)] = tag
    return tag


def tok_generate_proof(eco, prover: UserId, source: ChainId, predicate,
                       tag: FreshnessTag):
    """Ask the source chain's validators to certify ``predicate``.

    Returns a KnowledgeProof when the predicate holds on committed state and
    a quorum signs, None when it is false or unanswerable. NoQuorum
    propagates when too few validators respond with valid signatures.
    """
    sim = eco._live(source)
    if prover not in sim.config.members():
        raise UnknownUser(f"{prover!r} is not a member of {source!r}")
    if predicate.evaluate(sim.ledger, sim.state) is not True:
        return None
    statement = proof_statement(predicate, 1, tag)
    cert = collect_certificate(statement, sim.validators, sim.config.quorum,
                               eco.cert_sign_fn(statement, sim.validators),
                               eco.verify)
    return KnowledgeProof(predicate, 1, tag, cert)


def tok_verify_proof(proof: KnowledgeProof, tag: FreshnessTag, source_config,
                     current_height: int, verify) -> tuple:
    """(verdict, reason): 1 with None, or 0 with why it was rejected.

    Acceptance requires the presented tag to match the proof's, the tag to
    be unexpired at ``current_height``, the statement to bind (predicate, 1,
    tag) exactly, and a quorum of distinct source validators to have signed.
    ``verify(signer, statement, signature)`` checks each signature:
    ``Ecosystem.verify``, or ``KeyedVerifier.verify`` over a snapshot.
    """
    if proof.tag != tag:
        return 0, "tag mismatch"
    if current_height > tag.expiry_height:
        return 0, "stale tag"
    if proof.verdict_claimed != 1:
        return 0, "proof does not claim an affirmative verdict"
    statement = proof_statement(proof.predicate, 1, tag)
    ok, reason = verify_certificate(proof.certificate, statement,
                                    source_config.validators,
                                    source_config.quorum, verify)
    if not ok:
        return 0, reason
    return 1, None


# --- routing across divisions and fusions ------------------------------------------
#
# A lock can outlive its chain: either endpoint may divide or fuse before
# the transfer finishes. A chain born from others (ChainSim.parents: a
# division's parent, or both chains of a fusion) inherits their pending
# locks and claims and honors tags its ancestors issued, so in-flight
# transfers land on whichever descendant holds the relevant account or lock.


def _ancestry(eco, chain_id: ChainId) -> tuple:
    seen = [chain_id]
    for cid in seen:  # extended as it is walked: breadth first
        sim = eco.chain(cid)
        if sim is not None:
            seen.extend(p for p in sim.parents if p not in seen)
    return tuple(seen)


def _route(eco, chain_id: ChainId, want) -> "object | None":
    sim = eco.chains.get(chain_id)
    if sim is not None and want(sim):
        return sim
    for candidate in eco.chains.values():
        if chain_id in _ancestry(eco, candidate.chain_id) and want(candidate):
            return candidate
    return None


def _tag_acceptable(eco, sim, tag: FreshnessTag) -> bool:
    """Was this tag issued by the judging chain or one of its ancestors?"""
    if tag.issuer_chain not in _ancestry(eco, sim.chain_id):
        return False
    return eco.issued_tags.get((tag.issuer_chain, tag.nonce)) == tag


# --- asset transfer ------------------------------------------------------------------


def _signed(eco, user: UserId, kind: TxKind, payload) -> Transaction:
    tx = Transaction(kind, payload, user)
    sig = eco.scheme.sign(eco.users[user].public_key, tx.signing_bytes())
    return Transaction(kind, payload, user, sig)


def _find_asset_chain(eco, asset_id: bytes):
    """(chain, asset): the live chain whose copy of the asset is unlocked,
    else the first holder. Between claim and resolve the target holds the
    new owner's copy while the source still holds the locked one."""
    holders = []
    for sim in eco.chains.values():
        asset = sim.state.assets.get(asset_id)
        if asset is not None:
            holders.append((sim, asset))
    if not holders:
        raise UnknownAsset(f"asset {asset_id!r} not found on any live chain")
    return next((held for held in holders if not held[1].locked), holders[0])


def toa_lock(eco, owner: UserId, asset_id: bytes, target_addr: UserId,
             target_chain: ChainId) -> TransferProof:
    """Freeze an asset for transfer and return the lock's inclusion proof.

    The target chain issues the freshness tag first; its nonce becomes the
    lock nonce, keying the whole transfer end to end.
    """
    source, asset = _find_asset_chain(eco, asset_id)
    if asset.owner != owner:
        raise NotOwner(f"{owner!r} does not own {asset_id!r}")
    tag = issue_tag(eco, target_chain)
    payload = LockPayload(asset_id, asset.value, target_chain, target_addr,
                          tag.nonce)
    tx = _signed(eco, owner, TxKind.LOCK, payload)
    source.commit([tx])
    proof = tok_generate_proof(
        eco, owner, source.chain_id,
        TxInclusion(tx.digest, source.state.last_height), tag)
    if proof is None:  # the lock was just committed, so this cannot be False
        raise SplitchainError("lock inclusion proof unavailable")
    eco._emit("lock", asset=asset_id, chain=source.chain_id,
              target=target_chain, nonce=tag.nonce.hex())
    return TransferProof("lock", proof, tx, source.chain_id)


def toa_claim(eco, claimer: UserId, target: ChainId,
              lock_proof: TransferProof) -> TransferProof:
    """Present a lock proof on the target chain.

    A valid, fresh, addressed-to-us, first-time proof mints the asset and
    returns a Claim proof attesting the committed decision; anything else
    commits a recorded failure and returns an Abort proof — the transfer
    fails on-chain rather than in transit, so the source can always
    resolve. Only the first attempt decides the nonce: an abort returned
    for a later attempt cannot be used to unlock a successfully claimed
    asset.
    """
    sim = _route(eco, target, lambda s: claimer in s.config.members())
    if sim is None:
        raise UnknownUser(
            f"{claimer!r} is not a member of {target!r} or its descendants")
    state = sim.state  # the target's state until its claim commits
    if claimer not in state.accounts:
        raise UnknownUser(f"claimer {claimer!r} not registered on target")

    inner = lock_proof.inner
    nonce = inner.tag.nonce
    reason = None
    payload = None
    tx = lock_proof.transaction
    if lock_proof.kind != "lock":
        reason = "not a lock proof"
    elif tx.kind != TxKind.LOCK:
        reason = "carried transaction is not a lock"
    elif not isinstance(inner.predicate, TxInclusion):
        reason = "proof does not attest a transaction inclusion"
    elif inner.predicate.tx_digest != tx.digest:
        reason = "proof attests a different transaction"
    elif not _tag_acceptable(eco, sim, inner.tag):
        reason = "tag was not issued here"
    else:
        payload = tx.payload
        nonce = payload.nonce
        source = eco.chain(lock_proof.attesting_chain)
        if source is None:
            reason = "unknown source chain"
        elif payload.nonce != inner.tag.nonce:
            reason = "lock nonce does not match tag nonce"
        elif payload.target_chain not in _ancestry(eco, sim.chain_id):
            reason = "lock targets a different chain"
        elif payload.target_address != claimer:
            reason = "lock targets a different address"
        else:
            verdict, why = tok_verify_proof(
                inner, inner.tag, source.config, state.last_height,
                eco.verify)
            if verdict != 1:
                reason = why
            elif nonce in state.claims:
                reason = "lock nonce already claimed"
            elif payload.asset_id in state.assets:
                reason = "asset id already exists on target"

    verdict = 1 if reason is None else 0
    kind = "claim" if verdict else "abort"
    asset_id, value = ((b"", 0) if payload is None
                       else (payload.asset_id, payload.value))
    claim_tx = _signed(eco, claimer, TxKind.CLAIM, ClaimPayload(
        nonce, asset_id, value, claimer, lock_proof.attesting_chain, verdict,
        lock_proof.to_bytes()))
    sim.commit([claim_tx])
    state = sim.state
    outcome = "accepted" if reason is None else f"recorded failure ({reason})"
    eco._emit("claim", nonce=nonce.hex(), chain=sim.chain_id, outcome=outcome)

    # the source chain judges the resolve leg, so it issues the next tag
    source_sim = _route(
        eco, lock_proof.attesting_chain,
        lambda s: nonce in s.state.locks) or eco.chains.get(
            lock_proof.attesting_chain)
    if source_sim is None:
        raise UnknownLock(
            f"no live chain holds the lock for nonce {nonce.hex()}")
    back_tag = issue_tag(eco, source_sim.chain_id)
    decision = state.claims.get(nonce)
    if verdict or decision == 0:
        back_pred = ClaimDecided(nonce, verdict)
    else:
        # a failure recorded after the nonce was already claimed: attest
        # only this attempt's inclusion, which resolve will not accept as
        # the lock's decision
        back_pred = TxInclusion(claim_tx.digest, state.last_height)
    back = tok_generate_proof(eco, claimer, sim.chain_id, back_pred, back_tag)
    if back is None:
        raise SplitchainError("claim decision proof unavailable")
    return TransferProof(kind, back, claim_tx, sim.chain_id)


def toa_resolve(eco, source: ChainId, proof: TransferProof) -> str:
    """Settle a lock with the target chain's claim or abort proof.

    "claimed" deletes the locked asset (it lives on the target now);
    "aborted" unlocks it. Proofs that fail any check are discarded with
    InvalidProof and the state does not change.
    """
    if proof.kind not in ("claim", "abort"):
        raise InvalidProof(f"cannot resolve with a {proof.kind!r} proof")
    tx = proof.transaction
    if tx.kind != TxKind.CLAIM:
        raise InvalidProof("carried transaction is not a claim")
    payload = tx.payload
    expected_verdict = 1 if proof.kind == "claim" else 0
    if payload.verdict != expected_verdict:
        raise InvalidProof("proof kind contradicts the committed verdict")

    sim = _route(eco, source, lambda s: payload.lock_nonce in s.state.locks)
    if sim is None:
        raise UnknownLock(f"no lock with nonce {payload.lock_nonce.hex()}")

    inner = proof.inner
    if not isinstance(inner.predicate, ClaimDecided):
        raise InvalidProof("proof does not attest a claim decision")
    if inner.predicate.nonce != payload.lock_nonce:
        raise InvalidProof("proof decides a different lock")
    if inner.predicate.verdict != expected_verdict:
        raise InvalidProof("proof kind contradicts the attested decision")
    if not _tag_acceptable(eco, sim, inner.tag):
        raise InvalidProof("tag was not issued here")
    target = eco.chain(proof.attesting_chain)
    if target is None:
        raise InvalidProof(f"unknown chain {proof.attesting_chain!r}")
    state = sim.state
    verdict, why = tok_verify_proof(inner, inner.tag, target.config,
                                    state.last_height, eco.verify)
    if verdict != 1:
        raise InvalidProof(why)

    owner = state.assets[state.locks[payload.lock_nonce]].owner
    resolve_payload = ResolvePayload(payload.lock_nonce, expected_verdict,
                                     proof.to_bytes())
    sim.commit([_signed(eco, owner, TxKind.RESOLVE, resolve_payload)])
    outcome = "claimed" if expected_verdict == 1 else "aborted"
    eco._emit("resolve", nonce=payload.lock_nonce.hex(), chain=sim.chain_id,
              outcome=outcome)
    return outcome
