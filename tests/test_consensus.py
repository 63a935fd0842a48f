"""Quorum certificates and the simulated commit round."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
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


def verify_by(scheme, pks):
    """A ``verify`` over a signer -> public key table: an unknown signer
    does not verify."""
    def verify(signer, message, signature):
        pk = pks.get(signer)
        return pk is not None and scheme.verify(pk, message, signature)
    return verify


def honest_signer(scheme, pks, statement, refusing=()):
    def sign_fn(v):
        if v in refusing:
            return None
        return scheme.sign(pks[v], statement)
    return sign_fn


def test_collect_all_honest(setup):
    scheme, validators, pks = setup
    verify = verify_by(scheme, pks)
    stmt = b"statement"
    cert = collect_certificate(stmt, validators, 3,
                               honest_signer(scheme, pks, stmt), verify)
    assert len(cert.signatures) == 4
    ok, reason = verify_certificate(cert, stmt, validators, 3, verify)
    assert ok and reason is None


def test_collect_with_one_refusal_meets_bft_quorum(setup):
    scheme, validators, pks = setup
    verify = verify_by(scheme, pks)
    stmt = b"statement"
    cert = collect_certificate(
        stmt, validators, quorum_size(4, Fraction(1, 3)),
        honest_signer(scheme, pks, stmt, refusing={validators[0]}),
        verify)
    assert len(cert.signatures) == 3
    assert verify_certificate(cert, stmt, validators, 3, verify)[0]


def test_collect_two_refusals_fails(setup):
    scheme, validators, pks = setup
    verify = verify_by(scheme, pks)
    stmt = b"statement"
    with pytest.raises(NoQuorum):
        collect_certificate(
            stmt, validators, 3,
            honest_signer(scheme, pks, stmt,
                          refusing={validators[0], validators[1]}),
            verify)


def test_collect_drops_garbage_when_verifying(setup):
    scheme, validators, pks = setup
    verify = verify_by(scheme, pks)
    stmt = b"statement"

    def sign_fn(v):
        if v == validators[0]:
            return b"\x00" * 32
        return scheme.sign(pks[v], stmt)

    cert = collect_certificate(stmt, validators, 3, sign_fn, verify)
    assert validators[0] not in dict(cert.signatures)


def test_verify_rejects_each_defect(setup):
    scheme, validators, pks = setup
    verify = verify_by(scheme, pks)
    stmt = b"statement"
    cert = collect_certificate(stmt, validators, 3,
                               honest_signer(scheme, pks, stmt), verify)

    ok, reason = verify_certificate(cert, b"other", validators, 3, verify)
    assert not ok and "statement" in reason

    dup = QuorumCertificate(stmt, (cert.signatures[0], cert.signatures[0],
                                   cert.signatures[1]))
    ok, reason = verify_certificate(dup, stmt, validators, 3, verify)
    assert not ok and "duplicate" in reason

    outsider = b"mallory"
    pks[outsider] = scheme.issue(outsider)
    alien = QuorumCertificate(
        stmt, cert.signatures[:2] + ((outsider,
                                      scheme.sign(pks[outsider], stmt)),))
    ok, reason = verify_certificate(alien, stmt, validators, 3, verify)
    assert not ok and "not a current validator" in reason

    thin = QuorumCertificate(stmt, cert.signatures[:2])
    ok, reason = verify_certificate(thin, stmt, validators, 3, verify)
    assert not ok and "quorum" in reason

    forged = QuorumCertificate(
        stmt, cert.signatures[:2] + ((validators[3], b"\x01" * 32),))
    ok, reason = verify_certificate(forged, stmt, validators, 3, verify)
    assert not ok and "signature" in reason


def test_certificate_roundtrips_through_bytes(setup):
    scheme, validators, pks = setup
    verify = verify_by(scheme, pks)
    stmt = b"statement"
    cert = collect_certificate(stmt, validators, 3,
                               honest_signer(scheme, pks, stmt), verify)
    assert QuorumCertificate.from_bytes(cert.to_bytes()) == cert
    for junk in (b"!", b"junk"):
        with pytest.raises(ValueError, match="trailing bytes after certificate"):
            QuorumCertificate.from_bytes(cert.to_bytes() + junk)


# --- commit rounds ---------------------------------------------------------------
#
# signers: correct voter -> sign(message), the voters that sign the
# candidate's statement directly. Every other voter answers hook_of(voter):
# None for a silent voter, or a per-recipient hook(recipient) -> vote.


def make_candidate():
    return make_block(1, sha256(b"parent"), [])


def signers_of(scheme, pks, voters) -> dict:
    return {v: (lambda message, pk=pks[v]: scheme.sign(pk, message))
            for v in voters}


def round_with(setup, hook_of, correct=(), alpha=Fraction(1, 3)):
    """Run the round, the ``correct`` voters signing directly and the rest
    answering hook_of, and check it against the brute-force reference."""
    scheme, validators, pks = setup
    verify = verify_by(scheme, pks)
    candidate = make_candidate()
    quorum = quorum_size(len(validators), alpha)
    signers = signers_of(scheme, pks, correct)

    def bound(voter):
        return hook_of(voter, candidate)

    outcome = run_commit_round(b"c", candidate, validators, quorum,
                               verify, signers, bound)
    assert outcome == reference_commit_round(b"c", candidate, validators,
                                             quorum, verify, signers, bound)
    return candidate, outcome


def honest_hook(scheme, pks):
    """Every voter hooked, sending each recipient the same honest vote."""
    def hook_of(voter, candidate):
        stmt = commit_statement(b"c", candidate.digest, candidate.height)
        vote = candidate.digest, scheme.sign(pks[voter], stmt)
        return lambda recipient: vote
    return hook_of


def crashed_hook(voter, candidate):
    return None


def test_all_honest_commit(setup):
    scheme, validators, pks = setup
    # signing directly, and as the same vote through every voter's hook
    _, outcome = round_with(setup, crashed_hook, correct=validators)
    assert all(outcome.values())
    _, outcome = round_with(setup, honest_hook(scheme, pks))
    assert all(outcome.values())


def test_one_crash_still_commits(setup):
    scheme, validators, pks = setup
    _, outcome = round_with(setup, crashed_hook, correct=validators[1:])
    for v in validators[1:]:
        assert outcome[v]


def test_two_crashes_stall_bft_quorum(setup):
    scheme, validators, pks = setup
    _, outcome = round_with(setup, crashed_hook, correct=validators[2:])
    assert not any(outcome.values())


def test_equivocator_cannot_split_correct_nodes(setup):
    """Exhaustive sweep at n=4, alpha=1/3, one Byzantine voter: for every
    per-recipient choice of (honest vote | conflicting vote | silence), all
    three correct validators still commit the candidate, and the conflicting
    digest can never reach quorum anywhere."""
    scheme, validators, pks = setup
    verify = verify_by(scheme, pks)
    byz = validators[0]
    correct = validators[1:]
    candidate = make_candidate()
    evil_digest = sha256(b"evil" + candidate.digest)
    quorum = quorum_size(4, Fraction(1, 3))

    signers = signers_of(scheme, pks, correct)

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

        def hook_of(voter):
            assert voter == byz
            return hook

        outcome = run_commit_round(b"c", candidate, validators, quorum,
                                   verify, signers, hook_of)
        assert outcome == reference_commit_round(
            b"c", candidate, validators, quorum, verify, signers, hook_of)
        for v in correct:
            assert outcome[v], (choices, v)
        # the evil digest holds at most 1 signature, far below quorum 3
        evil_votes = sum(1 for r in validators if plan[r] == "evil")
        assert evil_votes <= 4 and quorum > 1


# --- the ecosystem's responder against the brute-force reference ---------------

BEHAVIOURS = ("honest", "crashed", "withhold", "badsig", "equivocate")


def ecosystem_round(behaviours, alpha):
    """A chain of validators v00, v01, ... behaving as listed, a candidate
    block and the round arguments: the honest voters' signing closures, as
    ChainSim.commit passes them, and a hook_of that asks the ecosystem's
    responder. A "forged" voter sends every recipient a vote whose signature
    does not verify. A "misnamed" voter sends every recipient a vote that
    names another digest, with a valid tag over the candidate's commit
    statement."""
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
    signers = {v: eco._signers[v] for v, b in zip(validators, behaviours)
               if b == "honest"}
    same = {v: b for v, b in zip(validators, behaviours)
            if b in ("forged", "misnamed")}
    other = sha256(b"other" + candidate.digest)

    def hook_of(voter):
        behaviour = same.get(voter)
        if behaviour == "forged":
            vote = candidate.digest, b"\x00" * 32
        elif behaviour == "misnamed":
            vote = other, eco._signers[voter](request.statement)
        else:
            return eco.respond(voter, request)[1]
        return lambda recipient: vote

    return (b"c", candidate, sim.validators, sim.quorum, eco.verify, signers,
            hook_of)


@settings(max_examples=150, deadline=None)
@given(behaviours=st.lists(st.sampled_from(BEHAVIOURS + ("misnamed",)),
                           min_size=1, max_size=12),
       alpha=st.sampled_from((Fraction(1, 3), Fraction(1, 2))))
@example(behaviours=["misnamed", "honest", "honest"], alpha=Fraction(1, 3))
def test_commit_round_matches_per_pair_reference(behaviours, alpha):
    """Counting uniform votes once and hooked votes per recipient gives the
    same outcome as asking every (voter, recipient) pair, for any mix of
    honest, crashed, misnamed and Byzantine voters."""
    args = ecosystem_round(behaviours, alpha)
    quorum = args[3]
    outcome = run_commit_round(*args)
    assert outcome == reference_commit_round(*args)
    if "equivocate" not in behaviours:  # only honest votes count, everywhere
        assert set(outcome.values()) == {behaviours.count("honest") >= quorum}


@settings(max_examples=200, deadline=None)
@given(behaviours=st.lists(st.sampled_from(BEHAVIOURS
                                           + ("forged", "misnamed")),
                           min_size=1, max_size=12),
       alpha=st.sampled_from((Fraction(1, 3), Fraction(1, 2))))
@example(behaviours=["equivocate", "badsig", "honest", "crashed", "honest",
                     "withhold", "honest", "honest"], alpha=Fraction(1, 2))
@example(behaviours=["forged", "equivocate", "honest", "honest", "honest",
                     "forged"], alpha=Fraction(1, 3))
@example(behaviours=["honest", "misnamed", "equivocate", "honest",
                     "honest"], alpha=Fraction(1, 2))
def test_commit_round_stops_at_the_qth_valid_uniform_vote(behaviours, alpha):
    """Voters are asked in validator order, each once, and the round stops
    right after the q-th valid uniform vote: no later voter is asked and
    no hook is called, even for hooked voters placed before it. When valid
    uniform votes stay below q, every voter is asked. An honest voter is
    asked by signing; every other voter through hook_of."""
    *head, signers, hook_of = ecosystem_round(behaviours, alpha)
    validators, quorum = head[2], head[3]
    asked, hooks_called = [], []

    def counting_signer(voter, sign):
        def counted(message):
            asked.append(voter)
            return sign(message)
        return counted

    counting_signers = {v: counting_signer(v, sign)
                        for v, sign in signers.items()}

    def counting_hook_of(voter):
        asked.append(voter)
        hook = hook_of(voter)
        if hook is None:
            return None

        def counting_hook(recipient):
            hooks_called.append((voter, recipient))
            return hook(recipient)
        return counting_hook

    outcome = run_commit_round(*head, counting_signers, counting_hook_of)
    assert outcome == reference_commit_round(*head, signers, hook_of)
    honest_at = [i for i, b in enumerate(behaviours) if b == "honest"]
    if len(honest_at) >= quorum:
        assert asked == list(validators[:honest_at[quorum - 1] + 1])
        assert hooks_called == []
        assert all(outcome.values())
    else:
        assert asked == list(validators)
