"""Simulated total-order consensus: quorum certificates and commit rounds.

Consensus is modeled as leaderless quorum collection, not a faithful
Raft/PBFT: a deterministic candidate block is put to a vote, every correct
validator signs it, and a recipient commits once it holds quorum-many valid
matching signatures. Byzantine voters may equivocate (different payloads to
different recipients), stay silent, or emit garbage signatures; safety rests
on the quorum arithmetic alone, which is exactly what the tests probe.
"""

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
    record,
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


@record
class QuorumCertificate:
    """A statement plus at-least-quorum validator signatures over it."""

    statement: bytes
    signatures: tuple  # tuple[(UserId, bytes), ...] in collection order

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
                        sign_fn, verify) -> QuorumCertificate:
    """Poll validators for signatures over ``statement``.

    ``sign_fn(validator) -> bytes | None`` returns a signature or refuses.
    Signatures are collected in validator order, and a response for which
    ``verify(validator, statement, signature)`` is false is dropped on the
    spot. Fewer than ``quorum`` usable signatures raises NoQuorum.
    """
    sigs = []
    for v in validators:
        sig = sign_fn(v)
        if sig is not None and verify(v, statement, sig):
            sigs.append((v, sig))
    if len(sigs) < quorum:
        raise NoQuorum(f"{len(sigs)} of {quorum} required signatures")
    return QuorumCertificate(statement, tuple(sigs))


def verify_certificate(cert: QuorumCertificate, statement: bytes, validators,
                       quorum: int, verify) -> tuple:
    """(ok, reason): certificate checks in rejection-priority order.

    Rejects on statement mismatch, duplicate signers, signers outside the
    validator set, sub-quorum size, or any non-verifying signature.
    ``verify(signer, statement, signature) -> bool`` checks one signature
    by its signer's key; an unknown signer does not verify.
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
        if not verify(signer, statement, sig):
            return False, f"invalid signature from {signer!r}"
        valid += 1
    if valid < quorum:
        return False, f"quorum not met: {valid} < {quorum}"
    return True, None


def commit_statement(chain: bytes, block_digest: Digest, height: int) -> bytes:
    return b"commit" + enc_bytes(chain) + enc_u64(height) + enc_bytes(block_digest)


def run_commit_round(chain: bytes, candidate: Block, validators, quorum: int,
                     verify, keys, sign, check, hook_of) -> dict:
    """One vote round over a candidate block, with per-recipient delivery.

    ``keys`` maps each correct voter to its public key, and ``sign(key,
    message)`` and ``check(key, message, signature)`` are the signature
    scheme's own. A correct voter sends every recipient the same vote, its
    signature over the candidate's commit statement, so this uniform vote
    is one ``sign(key, statement)``, checked once by ``check`` for all
    recipients; no other vote is uniform. Every other voter is asked
    ``hook_of(voter)``: None for a silent (crashed) voter, else a hook for
    a voter whose vote may differ per recipient (a Byzantine one), and
    ``hook(recipient)`` is the vote ``recipient`` receives, ``(digest,
    signature)`` or None for silence. Each distinct (voter, signature) a
    hook gives is verified once, by ``verify(voter, statement,
    signature)``.

    Returns {recipient: committed bool} for every validator; a recipient
    commits when it holds >= quorum valid signatures from distinct
    validators over the candidate's commit statement.

    Correct voters are asked first, in ``validators`` order, each at most
    once. A recipient's count is the uniform votes plus its hooked matches,
    and the hooked term is never negative. So the round stops as soon as
    the valid uniform votes reach quorum: every recipient commits, no later
    voter signs or is verified, and ``hook_of`` is never called. Only when
    the valid uniform votes stay below quorum is ``hook_of`` asked, for
    every other voter in ``validators`` order, and the round costs
    O(n + b*n) for b hooked voters. A hook must therefore be deterministic
    and have no side effect that matters, and ``hook_of`` must not be
    relied on to run at all. Were the round to report, per recipient, any
    digest that holds a quorum, this stop would stay exact only while
    fewer than ``quorum`` voters are hooked, since they alone could then
    give a recipient a conflicting quorum.
    """
    digest = candidate.digest
    statement = commit_statement(chain, digest, candidate.height)
    uniform = 0
    others = []  # voters with no key in ``keys``, in validator order
    for voter in validators:
        key = keys.get(voter)
        if key is None:
            others.append(voter)
        elif check(key, statement, sign(key, statement)):
            uniform += 1
            if uniform >= quorum:
                return dict.fromkeys(validators, True)
    hooked = [(voter, hook)
              for voter, hook in zip(others, map(hook_of, others))
              if hook is not None]
    if not hooked:
        return dict.fromkeys(validators, False)
    checked = {}  # (voter, sig) -> bool; a hook may repeat a vote

    def counts(voter, vote) -> bool:
        if vote is None or vote[0] != digest:
            return False
        key = (voter, vote[1])
        ok = checked.get(key)
        if ok is None:
            ok = checked[key] = verify(voter, statement, vote[1])
        return ok

    return {recipient: uniform + sum(counts(voter, hook(recipient))
                                     for voter, hook in hooked) >= quorum
            for recipient in validators}
