"""Signature scheme, beacon extraction, and seed derivation."""

import hashlib
import hmac

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splitchain.crypto import (
    SEED_RANGE,
    KeyedVerifier,
    MacKey,
    SignatureScheme,
    beacon,
    derive_rng,
    derive_seed,
)
from splitchain.model import ZERO_DIGEST, make_block


def test_sign_verify_roundtrip():
    s = SignatureScheme(seed=1)
    pk = s.issue(b"alice")
    sig = s.sign(pk, b"hello")
    assert s.verify(pk, b"hello", sig)
    assert not s.verify(pk, b"hellp", sig)
    assert not s.verify(pk, b"hello", sig[:-1] + b"\x00")


@given(key_len=st.sampled_from([0, 1, 32, 63, 64, 65, 200]),
       data=st.data(), message=st.binary(max_size=300))
@settings(max_examples=200, derandomize=True)
def test_mac_matches_stdlib_hmac(key_len, data, message):
    key = data.draw(st.binary(min_size=key_len, max_size=key_len))
    tag = hmac.new(key, message, hashlib.sha256).digest()
    assert MacKey(key).sign(message) == tag
    assert MacKey(key).verify(message, tag)
    assert KeyedVerifier({b"pk": key}).verify(b"pk", message, tag)
    # a truncated, extended or corrupted tag fails
    garbage = data.draw(st.binary(max_size=64).filter(lambda g: g != tag))
    for bad in (tag[:-1], tag + b"\x00", bytes(32), garbage,
                tag[:5] + bytes([tag[5] ^ 1]) + tag[6:]):
        assert not MacKey(key).verify(message, bad)
        assert not KeyedVerifier({b"pk": key}).verify(b"pk", message, bad)


def test_scheme_tags_are_stdlib_hmac_under_the_exported_key():
    s = SignatureScheme(seed=3)
    pk = s.issue(b"alice")
    key = s.verification_key(pk)
    for message in (b"", b"m", b"x" * 200):
        tag = s.sign(pk, message)
        assert tag == hmac.new(key, message, hashlib.sha256).digest()
        assert s.verify(pk, message, tag)
        assert not s.verify(pk, message, tag[:31])
        assert not s.verify(pk, message, tag + b"\x00")
    # signing copies the stored states, so later tags under a key match
    other = s.issue(b"bob")
    assert s.sign(other, b"m") != s.sign(pk, b"m")
    assert s.sign(pk, b"m") == hmac.new(key, b"m", hashlib.sha256).digest()


MEMO_MESSAGES = [b"", b"m", b"n", b"m\x00", b"vote", b"x" * 200]


def _step_matches_stdlib(sign, verify, key, op, i, j):
    """One sign or verify call on a long-lived key, checked against a fresh
    stdlib HMAC: op is sign, verify (the right tag), other (the tag of
    message j, modulo the pool) or corrupt (the right tag with byte j
    flipped)."""
    message = MEMO_MESSAGES[i]
    tag = hmac.new(key, message, hashlib.sha256).digest()
    if op == "sign":
        assert sign(message) == tag
    elif op == "verify":
        assert verify(message, tag)
    elif op == "other":
        j %= len(MEMO_MESSAGES)
        other = hmac.new(key, MEMO_MESSAGES[j], hashlib.sha256).digest()
        assert verify(message, other) == (i == j)
    else:
        bad = bytearray(tag)
        bad[j % len(tag)] ^= 1
        assert not verify(message, bytes(bad))


# the last-signed tag against another message, a corrupted tag for the
# last-signed message, and a message signed again after another one
MEMO_CASES = [("sign", 1, 0), ("other", 2, 1), ("sign", 1, 0),
              ("corrupt", 1, 31), ("sign", 1, 0), ("sign", 4, 0),
              ("sign", 1, 0), ("verify", 4, 0), ("other", 0, 5),
              ("sign", 5, 0), ("corrupt", 5, 0), ("verify", 5, 0)]


@given(steps=st.lists(st.tuples(
    st.sampled_from(["sign", "verify", "other", "corrupt"]),
    st.integers(0, len(MEMO_MESSAGES) - 1),
    st.integers(0, 63)), max_size=30))
@settings(max_examples=200, derandomize=True)
def test_remembered_tag_is_exact_across_interleavings(steps):
    mac = MacKey(b"k" * 32)
    scheme = SignatureScheme(seed=4)
    pk = scheme.issue(b"alice")
    key = scheme.verification_key(pk)
    for op, i, j in MEMO_CASES + steps:
        _step_matches_stdlib(mac.sign, mac.verify, b"k" * 32, op, i, j)
        _step_matches_stdlib(lambda m: scheme.sign(pk, m),
                             lambda m, t: scheme.verify(pk, m, t),
                             key, op, i, j)


def test_a_mutable_buffer_is_never_remembered():
    mac = MacKey(b"k")
    buffer = bytearray(b"first")
    assert mac.sign(buffer) == hmac.new(b"k", b"first", hashlib.sha256).digest()
    buffer[:] = b"later"
    assert mac.sign(buffer) == hmac.new(b"k", b"later", hashlib.sha256).digest()


def test_keys_are_per_user_and_stable():
    s = SignatureScheme(seed=1)
    a = s.issue(b"alice")
    b = s.issue(b"bob")
    assert a != b
    assert s.issue(b"alice") == a  # reissue returns the same handle


def test_wrong_key_does_not_verify():
    s = SignatureScheme(seed=1)
    a = s.issue(b"alice")
    b = s.issue(b"bob")
    sig = s.sign(a, b"msg")
    assert not s.verify(b, b"msg", sig)


def test_unissued_key_cannot_sign():
    s = SignatureScheme(seed=1)
    with pytest.raises(KeyError):
        s.sign(b"\x00" * 32, b"msg")
    assert not s.verify(b"\x00" * 32, b"msg", b"\x00" * 32)


def test_scheme_is_seed_deterministic():
    pk1 = SignatureScheme(seed=9).issue(b"alice")
    pk2 = SignatureScheme(seed=9).issue(b"alice")
    pk3 = SignatureScheme(seed=10).issue(b"alice")
    assert pk1 == pk2
    assert pk1 != pk3


def test_beacon_depends_on_tip():
    # the seed hashes the tip's digest, the anchor a DIVIDE carries
    g = make_block(0, ZERO_DIGEST, [])
    b1 = make_block(1, g.digest, [])
    assert beacon(b1.digest) == hashlib.sha256(b"beacon" + b1.digest).digest()
    assert beacon(g.digest) != beacon(b1.digest)


def test_derive_seed_separates_labels():
    assert derive_seed("a", 1) != derive_seed("a", 2)
    assert derive_seed("a", 1) != derive_seed("b", 1)
    assert derive_seed("a", 1) == derive_seed("a", 1)
    assert derive_seed(b"raw") != derive_seed("raw")


def test_derive_rng_streams_are_independent():
    r1 = derive_rng("stream", 1)
    r2 = derive_rng("stream", 2)
    seq1 = [r1.randrange(1000) for _ in range(5)]
    seq2 = [r2.randrange(1000) for _ in range(5)]
    assert seq1 != seq2
    replayed = derive_rng("stream", 1)
    assert [replayed.randrange(1000) for _ in range(5)] == seq1


@pytest.mark.parametrize("seed", [2**127 - 1, -2**127])
def test_derive_seed_encodes_both_ends_of_the_seed_range(seed):
    assert seed in SEED_RANGE
    expected = hashlib.sha256(b"i" + seed.to_bytes(16, "big", signed=True))
    assert derive_seed(seed) == int.from_bytes(expected.digest()[:8], "big")


def test_seed_range_is_what_sixteen_signed_bytes_hold():
    assert SEED_RANGE == range(-2**127, 2**127)
    for seed in (SEED_RANGE.start - 1, SEED_RANGE.stop):
        with pytest.raises(OverflowError):
            derive_seed(seed)
