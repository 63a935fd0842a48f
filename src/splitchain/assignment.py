"""Validator assignment for chain division: who lands in which child.

Both schemes produce a balanced partition (sizes ceil(n/2) and floor(n/2))
and are pure functions, so every correct validator computes the same split
from the same inputs. The randomized scheme ranks identifiers by a hash
keyed with a beacon seed fixed before the division, which makes the split
behave like a uniform random balanced partition of the validator set.
"""

from dataclasses import dataclass

from .errors import TooFew
from .model import sha256

DETERMINISTIC = "deterministic"
RANDOMIZED = "randomized"


@dataclass(frozen=True)
class AssignmentOutcome:
    v1: tuple  # tuple[UserId, ...], size ceil(n/2)
    v2: tuple  # tuple[UserId, ...], size floor(n/2)
    scheme: str
    seed: bytes | None = None

    def __post_init__(self):
        n = len(self.v1) + len(self.v2)
        if len(self.v1) != (n + 1) // 2:
            raise ValueError("first side must take the ceiling half")
        if set(self.v1) & set(self.v2):
            raise ValueError("sides must be disjoint")


def _split(ranked, scheme, seed=None) -> AssignmentOutcome:
    cut = (len(ranked) + 1) // 2
    return AssignmentOutcome(tuple(ranked[:cut]), tuple(ranked[cut:]),
                             scheme, seed)


def assign_deterministic(validators) -> AssignmentOutcome:
    """Lexicographic rule: sort ids, first ceil(n/2) form the first child."""
    members = list(validators)
    if len(members) < 2:
        raise TooFew(f"cannot split {len(members)} member(s)")
    if len(set(members)) != len(members):
        raise ValueError("duplicate member id")
    return _split(sorted(members), DETERMINISTIC)


def assign_randomized(validators, seed: bytes) -> AssignmentOutcome:
    """Rank ids by hash(seed || id) ascending (ties by id), split in half.

    With identities fixed before the seed is known, the induced partition is
    uniform over balanced splits up to hash bias.
    """
    members = list(validators)
    if len(members) < 2:
        raise TooFew(f"cannot split {len(members)} member(s)")
    if len(set(members)) != len(members):
        raise ValueError("duplicate member id")
    ranked = sorted(members, key=lambda v: (sha256(seed + v), v))
    return _split(ranked, RANDOMIZED, seed)


def assign(validators, scheme: str, seed: bytes | None = None) -> AssignmentOutcome:
    if scheme == DETERMINISTIC:
        return assign_deterministic(validators)
    if scheme == RANDOMIZED:
        if seed is None:
            raise ValueError("randomized assignment needs a seed")
        return assign_randomized(validators, seed)
    raise ValueError(f"unknown assignment scheme {scheme!r}")
