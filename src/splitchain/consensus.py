"""Simulated total-order consensus: quorum certificates and commit rounds.

Consensus is modeled as leaderless quorum collection, not a faithful
Raft/PBFT: a deterministic candidate block is put to a vote, every correct
validator signs it, and a recipient commits once it holds quorum-many valid
matching signatures. Byzantine voters may equivocate (different payloads to
different recipients), stay silent, or emit garbage signatures; safety rests
on the quorum arithmetic alone, which is exactly what the tests probe.
"""

from dataclasses import dataclass

from .errors import NoQuorum
from .model import (
    Block,
    ConsensusParams,
    Digest,
    UserId,
    _Reader,
    enc_bytes,
    enc_u64,
    quorum_size,
    sha256,
)

__all__ = [
    "ConsensusParams",
    "QuorumCertificate",
    "quorum_size",
    "collect_certificate",
    "verify_certificate",
    "commit_statement",
    "run_commit_round",
]


@dataclass(frozen=True)
class QuorumCertificate:
    """A statement plus at-least-quorum validator signatures over it."""

    statement: bytes
    signatures: tuple  # tuple[(UserId, bytes), ...] in collection order

    @property
    def signers(self) -> tuple:
        return tuple(s for s, _ in self.signatures)

    def to_bytes(self) -> bytes:
        out = [enc_bytes(self.statement),
               len(self.signatures).to_bytes(4, "big")]
        for signer, sig in self.signatures:
            out.append(enc_bytes(signer))
            out.append(enc_bytes(sig))
        return b"".join(out)

    @classmethod
    def from_bytes(cls, data: bytes) -> "QuorumCertificate":
        r = _Reader(data)
        statement = r.read_bytes()
        count = r.read_count()
        sigs = tuple((r.read_bytes(), r.read_bytes()) for _ in range(count))
        if not r.done():
            raise ValueError("trailing bytes after certificate")
        return cls(statement, sigs)


def collect_certificate(statement: bytes, validators, quorum: int,
                        sign_fn, pk_of=None, scheme=None) -> QuorumCertificate:
    """Poll validators for signatures over ``statement``.

    ``sign_fn(validator) -> bytes | None`` returns a signature or refuses.
    Signatures are collected in validator order; when ``pk_of``/``scheme``
    are given, non-verifying responses are dropped on the spot. Fewer than
    ``quorum`` usable signatures raises NoQuorum.
    """
    sigs = []
    for v in validators:
        sig = sign_fn(v)
        if sig is None:
            continue
        if scheme is not None:
            pk = pk_of(v)
            if pk is None or not scheme.verify(pk, statement, sig):
                continue
        sigs.append((v, sig))
    if len(sigs) < quorum:
        raise NoQuorum(f"{len(sigs)} of {quorum} required signatures")
    return QuorumCertificate(statement, tuple(sigs))


def verify_certificate(cert: QuorumCertificate, statement: bytes, validators,
                       quorum: int, pk_of, scheme) -> tuple:
    """(ok, reason): certificate checks in rejection-priority order.

    Rejects on statement mismatch, duplicate signers, signers outside the
    validator set, sub-quorum size, or any non-verifying signature.
    ``pk_of(user) -> bytes | None`` resolves registered public keys.
    """
    if cert.statement != statement:
        return False, "statement mismatch"
    seen = set()
    member = set(validators)
    valid = 0
    for signer, sig in cert.signatures:
        if signer in seen:
            return False, f"duplicate signer {signer!r}"
        seen.add(signer)
        if signer not in member:
            return False, f"signer {signer!r} is not a current validator"
        pk = pk_of(signer)
        if pk is None or not scheme.verify(pk, statement, sig):
            return False, f"invalid signature from {signer!r}"
        valid += 1
    if valid < quorum:
        return False, f"quorum not met: {valid} < {quorum}"
    return True, None


def commit_statement(chain: bytes, block_digest: Digest, height: int) -> bytes:
    return b"commit" + enc_bytes(chain) + enc_u64(height) + enc_bytes(block_digest)


def run_commit_round(chain: bytes, candidate: Block, validators, quorum: int,
                     pk_of, scheme, vote_of) -> dict:
    """One vote round over a candidate block, with per-recipient delivery.

    ``vote_of(voter) -> (vote, hook)`` says what ``voter`` sends, where a
    vote is ``(digest, signature)`` or None for silence. A voter that sends
    every recipient the same vote (a correct or crashed one) gives that vote
    and hook None; it is counted once, for all recipients. A voter whose
    vote may differ per recipient (a Byzantine one) gives hook, and
    ``hook(recipient)`` is the vote ``recipient`` receives. A round thus
    costs O(n + b*n) votes for b hooked voters, and each distinct
    (voter, signature) is verified once.

    Returns {recipient: committed bool} for every validator; a recipient
    commits when it holds >= quorum valid signatures from distinct
    validators over the candidate's commit statement.
    """
    statement = commit_statement(chain, candidate.digest, candidate.height)
    checked = {}  # (voter, sig) -> bool; a hooked voter may repeat a vote

    def counts(voter, vote) -> bool:
        if vote is None or vote[0] != candidate.digest:
            return False
        key = (voter, vote[1])
        ok = checked.get(key)
        if ok is None:
            pk = pk_of(voter)
            ok = checked[key] = pk is not None and scheme.verify(
                pk, statement, vote[1])
        return ok

    uniform = 0
    hooked = []
    for voter in validators:
        vote, hook = vote_of(voter)
        if hook is None:
            uniform += counts(voter, vote)
        else:
            hooked.append((voter, hook))
    if not hooked:
        return dict.fromkeys(validators, uniform >= quorum)
    return {recipient: uniform + sum(counts(voter, hook(recipient))
                                     for voter, hook in hooked) >= quorum
            for recipient in validators}
