"""Hashing, signatures, and seeded randomness.

Signatures use HMAC-SHA256 under per-user keys held by the simulator's
key issuer. The interface (issue/sign/verify over public handles) matches
an asymmetric scheme, so a real one can be dropped in; the MAC construction
keeps million-signature test runs fast and fully deterministic.

Each key remembers its last tag (``MacKey``), so a vote or ACK checked
right after its signer made it costs a bytes compare, not a second HMAC,
and every verdict is the one a fresh HMAC gives.
"""

import hashlib
import hmac
import random

from .model import Digest, UserId, sha256

__all__ = [
    "sha256",
    "MacKey",
    "SignatureScheme",
    "KeyedVerifier",
    "beacon",
    "derive_seed",
    "derive_rng",
]

TAG_LEN = 32
_BLOCK = hashlib.sha256().block_size
_IPAD = bytes(x ^ 0x36 for x in range(256))
_OPAD = bytes(x ^ 0x5C for x in range(256))


class MacKey:
    """An HMAC-SHA256 key (RFC 2104) with its padded hash states prebuilt.

    The inner and outer SHA-256 states, already fed the key XOR ipad/opad,
    are made once per key; each tag then costs two state copies and two
    short updates instead of re-deriving the pads.

    One slot keeps the last ``bytes`` message signed and its tag: verifying
    a tag on that message compares against the stored tag without hashing.
    Signing always hashes, since a signer tags each message once. HMAC is a
    deterministic function of (key, message), so the stored tag is exactly
    the tag a fresh HMAC would give. The slot holds one message per key, so
    memory stays bounded; a mutable buffer is never stored, since it could
    change after it is tagged.
    """

    __slots__ = ("secret", "_inner", "_outer", "_last_message", "_last_tag")

    def __init__(self, secret: bytes):
        self.secret = secret
        key = secret
        if len(key) > _BLOCK:
            key = hashlib.sha256(key).digest()
        key = key.ljust(_BLOCK, b"\0")
        self._inner = hashlib.sha256(key.translate(_IPAD))
        self._outer = hashlib.sha256(key.translate(_OPAD))
        self._last_message = None
        self._last_tag = None

    def sign(self, message: bytes) -> bytes:
        inner = self._inner.copy()
        inner.update(message)
        outer = self._outer.copy()
        outer.update(inner.digest())
        tag = outer.digest()
        if type(message) is bytes:
            self._last_message = message
            self._last_tag = tag
        return tag

    def verify(self, message: bytes, signature: bytes) -> bool:
        if len(signature) != TAG_LEN:
            return False
        tag = (self._last_tag if message == self._last_message
               else self.sign(message))
        return hmac.compare_digest(tag, signature)


class SignatureScheme:
    """Deterministic signature scheme with a simulator-held key registry.

    ``issue(user)`` mints a key pair: the public handle is a hash commitment
    to the secret, and signatures are HMAC-SHA256 tags under the secret.
    Verification looks the secret up by handle, so only handles ever travel
    in messages.
    """

    def __init__(self, seed: int = 0):
        self._rng = random.Random(("splitchain-keys", seed).__repr__())
        self._keys: dict[bytes, MacKey] = {}  # public handle -> key
        self._by_user: dict[UserId, bytes] = {}

    def issue(self, user: UserId) -> bytes:
        """Create (or return) the public key handle for ``user``."""
        if user in self._by_user:
            return self._by_user[user]
        secret = sha256(b"secret" + self._rng.getrandbits(256).to_bytes(32, "big")
                        + user)
        public = sha256(b"public" + secret)
        self._keys[public] = MacKey(secret)
        self._by_user[user] = public
        return public

    def sign(self, public_key: bytes, message: bytes) -> bytes:
        key = self._keys.get(public_key)
        if key is None:
            raise KeyError("no secret issued for this public key")
        return key.sign(message)

    def verify(self, public_key: bytes, message: bytes, signature: bytes) -> bool:
        key = self._keys.get(public_key)
        if key is None:
            return False
        return key.verify(message, signature)

    def verification_key(self, public_key: bytes) -> bytes:
        """Export the key needed to check tags offline.

        With a MAC construction the verification key is the signing key
        itself, so exports are meant for trusted verifiers (e.g. a registry
        snapshot consumed by ``verify-proof``).
        """
        key = self._keys.get(public_key)
        if key is None:
            raise KeyError("no secret issued for this public key")
        return key.secret


class KeyedVerifier:
    """Signature checker over an explicit signer id -> key table.

    Its ``verify(signer, message, signature)`` stands in for
    ``Ecosystem.verify``, so certificate and proof checks can run without
    the simulator, e.g. from a serialized registry snapshot.
    """

    def __init__(self, keys: dict[bytes, bytes]):
        self._keys = {signer: MacKey(key) for signer, key in keys.items()}

    def verify(self, signer: bytes, message: bytes, signature: bytes) -> bool:
        key = self._keys.get(signer)
        if key is None:
            return False
        return key.verify(message, signature)


def beacon(anchor_digest: bytes) -> Digest:
    """Public randomness extracted from a division's anchor, the digest of
    the tip block its DIVIDE names; every honest member of the chain
    computes the same value, and it is fixed before any assignment that
    consumes it."""
    return sha256(b"beacon" + anchor_digest)


# the ints derive_seed can encode: 16 bytes, two's complement
SEED_RANGE = range(-2**127, 2**127)


def check_seed(seed: int) -> int:
    """seed, when derive_seed can encode it; ValueError otherwise."""
    if seed not in SEED_RANGE:
        raise ValueError(
            f"seed must lie in [-2**127, 2**127 - 1], got {seed}")
    return seed


def derive_seed(*parts) -> int:
    """Collapse labels/ints/bytes into a 64-bit stream seed, stably."""
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, bytes):
            h.update(b"b" + len(part).to_bytes(4, "big") + part)
        elif isinstance(part, int):
            h.update(b"i" + part.to_bytes(16, "big", signed=True))
        elif isinstance(part, str):
            data = part.encode()
            h.update(b"s" + len(data).to_bytes(4, "big") + data)
        else:
            raise TypeError(f"cannot derive a seed from {type(part).__name__}")
    return int.from_bytes(h.digest()[:8], "big")


def derive_rng(*parts) -> random.Random:
    """Independent ``random.Random`` stream named by ``parts``."""
    return random.Random(derive_seed(*parts))
