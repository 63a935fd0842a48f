"""Quorum certificates and the simulated commit round."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splitchain.consensus import (
    collect_certificate,
    commit_statement,
    QuorumCertificate,
    quorum_size,
    run_commit_round,
    verify_certificate,
)
from splitchain.crypto import SignatureScheme
from splitchain.errors import NoQuorum
from splitchain.manager import Ecosystem, VoteRequest
from splitchain.model import ZERO_DIGEST, Role, make_block, sha256
from splitchain.netsim import STRATEGIES

from helpers import reference_commit_round


@pytest.fixture
def setup():
    scheme = SignatureScheme(seed=2)
    validators = tuple(b"v%d" % i for i in range(4))
    pks = {v: scheme.issue(v) for v in validators}
    return scheme, validators, pks


def honest_signer(scheme, pks, statement, refusing=()):
    def sign_fn(v):
        if v in refusing:
            return None
        return scheme.sign(pks[v], statement)
    return sign_fn


def test_collect_all_honest(setup):
    scheme, validators, pks = setup
    stmt = b"statement"
    cert = collect_certificate(stmt, validators, 3,
                               honest_signer(scheme, pks, stmt))
    assert len(cert.signatures) == 4
    ok, reason = verify_certificate(cert, stmt, validators, 3, pks.get, scheme)
    assert ok and reason is None


def test_collect_with_one_refusal_meets_bft_quorum(setup):
    scheme, validators, pks = setup
    stmt = b"statement"
    cert = collect_certificate(
        stmt, validators, quorum_size(4, Fraction(1, 3)),
        honest_signer(scheme, pks, stmt, refusing={validators[0]}))
    assert len(cert.signatures) == 3
    assert verify_certificate(cert, stmt, validators, 3, pks.get, scheme)[0]


def test_collect_two_refusals_fails(setup):
    scheme, validators, pks = setup
    stmt = b"statement"
    with pytest.raises(NoQuorum):
        collect_certificate(
            stmt, validators, 3,
            honest_signer(scheme, pks, stmt,
                          refusing={validators[0], validators[1]}))


def test_collect_drops_garbage_when_verifying(setup):
    scheme, validators, pks = setup
    stmt = b"statement"

    def sign_fn(v):
        if v == validators[0]:
            return b"\x00" * 32
        return scheme.sign(pks[v], stmt)

    cert = collect_certificate(stmt, validators, 3, sign_fn,
                               pk_of=pks.get, scheme=scheme)
    assert validators[0] not in cert.signers


def test_verify_rejects_each_defect(setup):
    scheme, validators, pks = setup
    stmt = b"statement"
    cert = collect_certificate(stmt, validators, 3,
                               honest_signer(scheme, pks, stmt))

    ok, reason = verify_certificate(cert, b"other", validators, 3,
                                    pks.get, scheme)
    assert not ok and "statement" in reason

    dup = QuorumCertificate(stmt, (cert.signatures[0], cert.signatures[0],
                                   cert.signatures[1]))
    ok, reason = verify_certificate(dup, stmt, validators, 3, pks.get, scheme)
    assert not ok and "duplicate" in reason

    outsider = b"mallory"
    pks[outsider] = scheme.issue(outsider)
    alien = QuorumCertificate(
        stmt, cert.signatures[:2] + ((outsider,
                                      scheme.sign(pks[outsider], stmt)),))
    ok, reason = verify_certificate(alien, stmt, validators, 3,
                                    pks.get, scheme)
    assert not ok and "not a current validator" in reason

    thin = QuorumCertificate(stmt, cert.signatures[:2])
    ok, reason = verify_certificate(thin, stmt, validators, 3, pks.get, scheme)
    assert not ok and "quorum" in reason

    forged = QuorumCertificate(
        stmt, cert.signatures[:2] + ((validators[3], b"\x01" * 32),))
    ok, reason = verify_certificate(forged, stmt, validators, 3,
                                    pks.get, scheme)
    assert not ok and "signature" in reason


def test_certificate_roundtrips_through_bytes(setup):
    scheme, validators, pks = setup
    stmt = b"statement"
    cert = collect_certificate(stmt, validators, 3,
                               honest_signer(scheme, pks, stmt))
    assert QuorumCertificate.from_bytes(cert.to_bytes()) == cert
    for junk in (b"!", b"junk"):
        with pytest.raises(ValueError, match="trailing bytes after certificate"):
            QuorumCertificate.from_bytes(cert.to_bytes() + junk)


# --- commit rounds ---------------------------------------------------------------
#
# vote_of(voter) -> (vote, hook): a uniform vote with hook None, or a
# per-recipient hook(recipient) -> vote for a Byzantine voter.


def make_candidate():
    return make_block(1, sha256(b"parent"), [])


def round_with(setup, vote_of, alpha=Fraction(1, 3)):
    """Run the round and check it against the brute-force reference."""
    scheme, validators, pks = setup
    candidate = make_candidate()
    quorum = quorum_size(len(validators), alpha)

    def bound(voter):
        return vote_of(voter, candidate)

    outcome = run_commit_round(b"c", candidate, validators, quorum,
                               pks.get, scheme, bound)
    assert outcome == reference_commit_round(b"c", candidate, validators,
                                             quorum, pks.get, scheme, bound)
    return candidate, outcome


def honest_vote(scheme, pks):
    def vote(voter, candidate):
        stmt = commit_statement(b"c", candidate.digest, candidate.height)
        return (candidate.digest, scheme.sign(pks[voter], stmt)), None
    return vote


def test_all_honest_commit(setup):
    scheme, validators, pks = setup
    _, outcome = round_with(setup, honest_vote(scheme, pks))
    assert all(outcome.values())


def test_one_crash_still_commits(setup):
    scheme, validators, pks = setup
    base = honest_vote(scheme, pks)

    def vote(voter, candidate):
        if voter == validators[0]:
            return None, None
        return base(voter, candidate)

    _, outcome = round_with(setup, vote)
    for v in validators[1:]:
        assert outcome[v]


def test_two_crashes_stall_bft_quorum(setup):
    scheme, validators, pks = setup
    base = honest_vote(scheme, pks)

    def vote(voter, candidate):
        if voter in validators[:2]:
            return None, None
        return base(voter, candidate)

    _, outcome = round_with(setup, vote)
    assert not any(outcome.values())


def test_equivocator_cannot_split_correct_nodes(setup):
    """Exhaustive sweep at n=4, alpha=1/3, one Byzantine voter: for every
    per-recipient choice of (honest vote | conflicting vote | silence), all
    three correct validators still commit the candidate, and the conflicting
    digest can never reach quorum anywhere."""
    scheme, validators, pks = setup
    byz = validators[0]
    correct = validators[1:]
    candidate = make_candidate()
    evil_digest = sha256(b"evil" + candidate.digest)
    quorum = quorum_size(4, Fraction(1, 3))

    def stmt(digest):
        return commit_statement(b"c", digest, candidate.height)

    for choices in itertools.product(("honest", "evil", "silent"), repeat=4):
        plan = dict(zip(validators, choices))

        def hook(recipient):
            choice = plan[recipient]
            if choice == "silent":
                return None
            digest = evil_digest if choice == "evil" else candidate.digest
            return digest, scheme.sign(pks[byz], stmt(digest))

        def vote_of(voter):
            if voter == byz:
                return None, hook
            return (candidate.digest,
                    scheme.sign(pks[voter], stmt(candidate.digest))), None

        outcome = run_commit_round(b"c", candidate, validators, quorum,
                                   pks.get, scheme, vote_of)
        assert outcome == reference_commit_round(
            b"c", candidate, validators, quorum, pks.get, scheme, vote_of)
        for v in correct:
            assert outcome[v], (choices, v)
        # the evil digest holds at most 1 signature, far below quorum 3
        evil_votes = sum(1 for r in validators if plan[r] == "evil")
        assert evil_votes <= 4 and quorum > 1


# --- the ecosystem's responder against the brute-force reference ---------------

BEHAVIOURS = ("honest", "crashed", "withhold", "badsig", "equivocate")


@settings(max_examples=150, deadline=None)
@given(behaviours=st.lists(st.sampled_from(BEHAVIOURS), min_size=1,
                           max_size=12),
       alpha=st.sampled_from((Fraction(1, 3), Fraction(1, 2))))
def test_commit_round_matches_per_pair_reference(behaviours, alpha):
    """Counting uniform votes once and hooked votes per recipient gives the
    same outcome as asking every (voter, recipient) pair, for any mix of
    honest, crashed and Byzantine voters."""
    eco = Ecosystem(seed=len(behaviours))
    validators = [b"v%02d" % i for i in range(len(behaviours))]
    for v, behaviour in zip(validators, behaviours):
        eco.register_user(v, Role.VALIDATOR)
        if behaviour in STRATEGIES:
            eco.mark_byzantine(v, behaviour)
        if behaviour == "crashed":
            eco.crash_user(v)
    sim = eco.create_chain(b"c", validators, alpha=alpha,
                           n_max=max(2, len(validators)))
    candidate = make_block(1, sim.ledger[-1].digest, [])
    request = VoteRequest(b"c", candidate)

    def vote_of(voter):
        return eco.respond(voter, request)

    args = (b"c", candidate, sim.validators, sim.quorum,
            eco.registry.pk_of, eco.scheme, vote_of)
    outcome = run_commit_round(*args)
    assert outcome == reference_commit_round(*args)
    if "equivocate" not in behaviours:  # only honest votes count, everywhere
        assert set(outcome.values()) == {
            behaviours.count("honest") >= sim.quorum}
