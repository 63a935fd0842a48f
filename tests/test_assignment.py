"""Assignment schemes: the lexicographic rule and the seeded hash ranking."""

import itertools
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splitchain.analysis import HypergeomParams, hypergeom_pmf
from splitchain.assignment import (
    assign,
    assign_deterministic,
    assign_randomized,
)
from splitchain.crypto import derive_seed, sha256
from splitchain.errors import TooFew


def seed_bytes(i: int) -> bytes:
    return derive_seed("assignment-seed", i).to_bytes(8, "big")


def test_deterministic_sorts_lexicographically():
    v1, v2 = assign_deterministic([b"d", b"b", b"a", b"c"])
    assert v1 == (b"a", b"b")
    assert v2 == (b"c", b"d")


def test_deterministic_odd_split_takes_ceiling():
    v1, v2 = assign_deterministic([b"a", b"b", b"c"])
    assert v1 == (b"a", b"b")
    assert v2 == (b"c",)


def test_deterministic_is_idempotent():
    members = [b"x", b"m", b"q", b"a", b"t"]
    assert assign_deterministic(members) == assign_deterministic(members)


def test_too_few_members():
    with pytest.raises(TooFew):
        assign_deterministic([b"solo"])
    with pytest.raises(TooFew):
        assign_randomized([b"solo"], b"seed")


def test_randomized_is_deterministic_given_seed():
    members = [b"v%d" % i for i in range(6)]
    a = assign_randomized(members, b"seed-0")
    b = assign_randomized(members, b"seed-0")
    c = assign_randomized(members, b"seed-1")
    assert a == b
    assert a != c  # astronomically unlikely to coincide


def test_randomized_order_of_input_does_not_matter():
    members = [b"v%d" % i for i in range(7)]
    a = assign_randomized(members, b"s")
    b = assign_randomized(list(reversed(members)), b"s")
    assert a == b


@given(st.integers(2, 40), st.integers(0, 10_000))
@settings(max_examples=150, derandomize=True)
def test_partition_invariants(n, seed_i):
    members = [b"node-%02d" % i for i in range(n)]
    v1, v2 = assign_randomized(members, seed_bytes(seed_i))
    assert type(v1) is tuple and type(v2) is tuple
    assert sorted(v1 + v2) == sorted(members)
    assert len(v1) == (n + 1) // 2
    assert len(v2) == n // 2
    assert not set(v1) & set(v2)


def test_membership_marginal_is_balanced():
    """Each id lands in the first child about half the time over seeds."""
    members = [b"v%d" % i for i in range(6)]
    hits = Counter()
    trials = 4_000
    for i in range(trials):
        v1, _ = assign_randomized(members, seed_bytes(i))
        for v in v1:
            hits[v] += 1
    for v in members:
        assert abs(hits[v] / trials - 0.5) < 0.03, v


def test_faulty_count_tracks_hypergeometric():
    """f1 under seeded hash ranking matches H(10, 4, 5) closely (the full
    10^5-seed total-variation check lives in the acceptance suite)."""
    members = [b"v%d" % i for i in range(10)]
    faulty = set(members[:4])
    counts = Counter()
    trials = 20_000
    for i in range(trials):
        v1, _ = assign_randomized(members, seed_bytes(i))
        counts[sum(1 for v in v1 if v in faulty)] += 1
    h = HypergeomParams(10, 4, 5)
    tv = sum(abs(counts[k] / trials - float(hypergeom_pmf(h, k)))
             for k in range(5)) / 2
    assert tv < 0.02


def test_adversary_labels_cannot_bias_the_split():
    """The marginal law of "how many of a fixed subset land in v1" does not
    depend on which subset the adversary controls: identities are fixed
    before the seed is known."""
    members = [b"v%d" % i for i in range(10)]
    subsets = [set(members[:4]), {members[1], members[4], members[7], members[9]}]
    dists = []
    trials = 20_000
    for marked in subsets:
        counts = Counter()
        for i in range(trials):
            v1, _ = assign_randomized(members, seed_bytes(i))
            counts[sum(1 for v in v1 if v in marked)] += 1
        dists.append(counts)
    tv = sum(abs(dists[0][k] - dists[1][k]) for k in range(5)) / (2 * trials)
    assert tv < 0.02


def test_small_instance_splits_are_uniform():
    """n=6: every one of the C(6,3)=20 balanced splits appears with
    frequency close to 1/20 over independent seeds."""
    members = [b"v%d" % i for i in range(6)]
    counts = Counter()
    trials = 40_000
    for i in range(trials):
        v1, _ = assign_randomized(members, seed_bytes(i))
        counts[frozenset(v1)] += 1
    assert len(counts) == 20
    for split, c in counts.items():
        assert abs(c / trials - 0.05) < 0.008, split


def test_assign_dispatcher():
    members = [b"b", b"a"]
    assert assign(members, "deterministic") == ((b"a",), (b"b",))
    # this seed ranks b first, so a dispatcher that sent "randomized" to
    # the deterministic scheme would fail here
    randomized = assign(members, "randomized", b"b")
    assert randomized == assign_randomized(members, b"b")
    assert randomized == ((b"b",), (b"a",))
    with pytest.raises(ValueError):
        assign(members, "coin-flip")
    with pytest.raises(ValueError):
        assign(members, "randomized")  # seed required
