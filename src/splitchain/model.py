"""Core domain types: users, accounts, assets, transactions, blocks, ledgers.

All types are immutable values with a canonical byte serialization
(length-prefixed fields in declaration order) used for hashing and signing.
State transitions are pure: ``apply_transaction`` returns a new state and
never mutates its input.

Because the values are frozen, a value derived from one (its bytes, a digest,
a parse) is memoized on it with :class:`memo`, without a lock. A transaction
memoizes its digest but not its bytes: ledgers keep every transaction, and
claims and resolves carry whole proofs, so caching their bytes costs memory
and saves no time.
"""

import hashlib
from dataclasses import MISSING, FrozenInstanceError, dataclass, field, fields
from enum import IntEnum
from fractions import Fraction
from reprlib import recursive_repr

from .errors import (
    AlreadyMember,
    AssetIdCollision,
    AssetLocked,
    BrokenChain,
    InvalidProof,
    InvalidSignature,
    NotOwner,
    SplitchainError,
    UnknownAsset,
    UnknownLock,
    UnknownUser,
)

UserId = bytes
ChainId = bytes
Digest = bytes

ZERO_DIGEST = b"\x00" * 32


# --- canonical serialization -------------------------------------------------

def enc_bytes(b: bytes) -> bytes:
    return len(b).to_bytes(4, "big") + b


def enc_u64(i: int) -> bytes:
    if i < 0:
        raise ValueError("canonical integers are non-negative")
    return i.to_bytes(8, "big")


def enc_bool(v: bool) -> bytes:
    return b"\x01" if v else b"\x00"


def enc_seq(items) -> bytes:
    parts = [len(items).to_bytes(4, "big")]
    parts.extend(items)
    return b"".join(parts)


def enc_opt(item: bytes | None) -> bytes:
    return b"\x00" if item is None else b"\x01" + item


def sha256(data: bytes) -> Digest:
    return hashlib.sha256(data).digest()


class memo:
    """``functools.cached_property`` without the lock Python 3.11 takes on
    every miss: the first read stores the value in the instance's
    ``__dict__``, which later reads find before this non-data descriptor.
    Exact only on frozen values, which is what it decorates; writing the
    ``__dict__`` directly also gets past a frozen dataclass's
    ``__setattr__``. Fields alone decide ``==`` and ``hash``."""

    def __init__(self, func):
        self.func = func
        self.__doc__ = func.__doc__

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = self.func(instance)
        instance.__dict__[self.name] = value
        return value


# The methods dataclass(frozen=True) gives a class, written as it writes
# them; `record` fills in the field tuples and compiles them in one exec.
_RECORD_METHODS = """
def __eq__(self, other):
    if other.__class__ is self.__class__:
        return {self_compared}=={other_compared}
    return NotImplemented
def __hash__(self):
    return hash({self_hashed})
def __repr__(self):
    return self.__class__.__qualname__ + f"({shown})"
def __setattr__(self, name, value):
    if type(self) is cls or name in {names}:
        raise FrozenInstanceError(f"cannot assign to field {{name!r}}")
    super(cls, self).__setattr__(name, value)
def __delattr__(self, name):
    if type(self) is cls or name in {names}:
        raise FrozenInstanceError(f"cannot delete field {{name!r}}")
    super(cls, self).__delattr__(name)
"""


def record(cls):
    """A frozen value class, built with one ``exec``. ``dataclass`` only
    collects the fields, so ``dataclasses.fields`` and ``replace`` work;
    one generated source defines ``__init__``, ``==``, ``hash``, ``repr``
    (recursion-guarded) and the frozen ``__setattr__`` and
    ``__delattr__``, each behaving as under ``dataclass(frozen=True)``,
    which compiles each method in an ``exec`` of its own. ``__init__``
    stores each field with ``object.__setattr__`` bound once, as a global
    of that function, where dataclass's own looks the builtin up per
    field, then runs ``__post_init__`` if the class has one. The fields
    stay in the instance's inline values, as dataclass leaves them: a
    single ``self.__dict__.update(...)`` would give every instance its own
    dict, which doubles a small record's memory and slows every read of
    its fields. A class without a docstring gets its signature as one, so
    dataclass never calls ``inspect.signature``. A field may have a
    default, not a ``default_factory``, and the class defines none of the
    generated methods."""
    doc = cls.__doc__
    cls.__doc__ = doc or cls.__name__  # dataclass writes no docstring then
    cls = dataclass(init=False, repr=False, eq=False)(cls)
    every = fields(cls)
    namespace = {"_set": object.__setattr__, "cls": cls,
                 "FrozenInstanceError": FrozenInstanceError}
    params, signature, stores = [], [], []
    for f in every:
        if f.default_factory is not MISSING:
            raise TypeError(f"record field {cls.__name__}.{f.name} has a "
                            "default_factory")
        if f.default is MISSING:
            params.append(f.name)
            signature.append(f.name)
        else:
            namespace[f"_default_{f.name}"] = f.default
            params.append(f"{f.name}=_default_{f.name}")
            signature.append(f"{f.name}={f.default!r}")
        stores.append(f"    _set(self, {f.name!r}, {f.name})\n")
    if hasattr(cls, "__post_init__"):
        stores.append("    self.__post_init__()\n")

    def attributes(obj, chosen):
        return "(" + "".join(f"{obj}.{f.name}," for f in chosen) + ")"

    compared = [f for f in every if f.compare]
    hashed = [f for f in every if (f.compare if f.hash is None else f.hash)]
    exec(f"def __init__(self, {', '.join(params)}):\n{''.join(stores)}"
         + _RECORD_METHODS.format(
             self_compared=attributes("self", compared),
             other_compared=attributes("other", compared),
             self_hashed=attributes("self", hashed),
             shown=", ".join(f"{f.name}={{self.{f.name}!r}}"
                             for f in every if f.repr),
             names="(" + "".join(f"{f.name!r}," for f in every) + ")"),
         namespace)
    for name in ("__init__", "__eq__", "__hash__", "__repr__", "__setattr__",
                 "__delattr__"):
        if name in cls.__dict__:
            raise TypeError(f"record {cls.__name__} defines {name}")
        method = namespace[name]
        if name == "__repr__":
            method = recursive_repr()(method)
        method.__qualname__ = f"{cls.__qualname__}.{name}"
        setattr(cls, name, method)
    if not doc:
        cls.__doc__ = f"{cls.__name__}({', '.join(signature)})"
    return cls


class _Reader:
    """Cursor over canonical bytes, for parsing proof and registry files."""

    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise ValueError("truncated input")
        out = self.data[self.pos:self.pos + n]
        self.pos += n
        return out

    def read_bytes(self) -> bytes:
        n = int.from_bytes(self.take(4), "big")
        return self.take(n)

    def read_u64(self) -> int:
        return int.from_bytes(self.take(8), "big")

    def read_count(self) -> int:
        return int.from_bytes(self.take(4), "big")

    def done(self) -> bool:
        return self.pos == len(self.data)


# --- roles and accounts ------------------------------------------------------

class Role(IntEnum):
    CLIENT = 0
    VALIDATOR = 1


@record
class Account:
    user: UserId
    public_key: bytes
    role: Role
    metadata: tuple = ()

    @memo  # a genesis registers the accounts its parents' geneses did
    def encoded(self) -> bytes:
        meta = enc_seq([enc_bytes(k) + enc_bytes(v) for k, v in self.metadata])
        return (enc_bytes(self.user) + enc_bytes(self.public_key)
                + bytes([self.role]) + meta)

    def to_bytes(self) -> bytes:
        return self.encoded


@record
class Asset:
    asset_id: bytes
    owner: UserId
    value: int
    locked: bool = False
    lock_target: tuple | None = None  # (ChainId, UserId)

    def __post_init__(self):
        if self.value < 0:
            raise ValueError("asset value must be non-negative")
        if self.locked != (self.lock_target is not None):
            raise ValueError("locked flag and lock_target must agree")

    def to_bytes(self) -> bytes:
        target = None
        if self.lock_target is not None:
            target = enc_bytes(self.lock_target[0]) + enc_bytes(self.lock_target[1])
        return (enc_bytes(self.asset_id) + enc_bytes(self.owner)
                + enc_u64(self.value) + enc_bool(self.locked) + enc_opt(target))


# --- transactions ------------------------------------------------------------

class TxKind(IntEnum):
    REGISTER = 0
    ASSET_CREATE = 1
    ASSET_TRANSFER = 2
    LOCK = 3
    CLAIM = 4
    RESOLVE = 5
    CONFIG_UPDATE = 6


@record
class RegisterPayload:
    account: Account

    def to_bytes(self) -> bytes:
        return self.account.to_bytes()


@record
class AssetCreatePayload:
    asset: Asset

    def to_bytes(self) -> bytes:
        return self.asset.to_bytes()


@record
class AssetTransferPayload:
    asset_id: bytes
    recipient: UserId

    def to_bytes(self) -> bytes:
        return enc_bytes(self.asset_id) + enc_bytes(self.recipient)


@record
class LockPayload:
    asset_id: bytes
    value: int  # snapshot of the asset's value, re-minted by the claim
    target_chain: ChainId
    target_address: UserId
    nonce: bytes  # freshness-tag nonce; claim idempotency is keyed on it

    def to_bytes(self) -> bytes:
        return (enc_bytes(self.asset_id) + enc_u64(self.value)
                + enc_bytes(self.target_chain)
                + enc_bytes(self.target_address) + enc_bytes(self.nonce))


@record
class ClaimPayload:
    lock_nonce: bytes
    asset_id: bytes
    value: int
    claimer: UserId
    source_chain: ChainId
    verdict: int  # 1 = asset created, 0 = committed failure
    proof_bytes: bytes = b""

    def to_bytes(self) -> bytes:
        return (enc_bytes(self.lock_nonce) + enc_bytes(self.asset_id)
                + enc_u64(self.value) + enc_bytes(self.claimer)
                + enc_bytes(self.source_chain) + enc_u64(self.verdict)
                + enc_bytes(self.proof_bytes))


@record
class ResolvePayload:
    lock_nonce: bytes
    outcome: int  # 1 = claimed elsewhere (delete), 0 = aborted (unlock)
    proof_bytes: bytes = b""

    def to_bytes(self) -> bytes:
        return (enc_bytes(self.lock_nonce) + enc_u64(self.outcome)
                + enc_bytes(self.proof_bytes))


@record
class ConfigInstallPayload:
    """Genesis payload: installs the full chain configuration.

    Child chains additionally inherit the parent's pending lock and claim
    records so cross-chain transfers survive a division.
    """

    config: "ChainConfig"
    parent_chain: ChainId | None = None
    split_height: int = 0
    side: int = 0  # 1 or 2 for child chains, 0 for roots
    locks: tuple = ()  # tuple[(nonce, asset_id), ...]
    claims: tuple = ()  # tuple[(nonce, verdict), ...]

    def to_bytes(self) -> bytes:
        parent = None if self.parent_chain is None else enc_bytes(self.parent_chain)
        return (self.config.to_bytes() + enc_opt(parent)
                + enc_u64(self.split_height) + enc_u64(self.side)
                + enc_seq([enc_bytes(n) + enc_bytes(a) for n, a in self.locks])
                + enc_seq([enc_bytes(n) + enc_u64(v) for n, v in self.claims]))


@record
class ConfigUpdatePayload:
    add_validators: tuple = ()  # tuple[Account, ...]

    def to_bytes(self) -> bytes:
        return enc_seq([a.to_bytes() for a in self.add_validators])


@record
class Transaction:
    kind: TxKind
    payload: object
    submitter: UserId
    signature: bytes = b""

    def signing_bytes(self) -> bytes:
        return (bytes([self.kind]) + enc_bytes(self.payload.to_bytes())
                + enc_bytes(self.submitter))

    def to_bytes(self) -> bytes:
        return self.signing_bytes() + enc_bytes(self.signature)

    @memo
    def digest(self) -> Digest:
        return sha256(self.to_bytes())


# --- consensus parameters ----------------------------------------------------

def quorum_size(n: int, alpha: Fraction) -> int:
    """Smallest integer >= (1 - alpha) * n, in exact rational arithmetic.

    Integer arithmetic on alpha's numerator and denominator: a Fraction's
    denominator is positive, so 0 < alpha <= 1/2 is 0 < 2*num <= den."""
    if n < 1:
        raise ValueError("validator count must be positive")
    if not isinstance(alpha, Fraction):
        alpha = Fraction(alpha)
    num, den = alpha.numerator, alpha.denominator
    if not 0 < 2 * num <= den:
        raise ValueError("fault threshold must lie in (0, 1/2]")
    return -(-(den - num) * n // den)


def at_fault_bound(f, n: int, alpha: Fraction):
    """Whether f faulty of n validators reach alpha, where a chain is
    compromised: f >= alpha * n, in exact integer arithmetic. Works on ints
    and, elementwise, on numpy integer arrays of f."""
    return f * alpha.denominator >= alpha.numerator * n


@record
class ConsensusParams:
    alpha: Fraction
    kind: str  # "cft" or "bft"

    def __post_init__(self):
        if self.kind not in ("cft", "bft"):
            raise ValueError(f"unknown consensus kind {self.kind!r}")
        if not (0 < self.alpha <= Fraction(1, 2)):
            raise ValueError("fault threshold must lie in (0, 1/2]")

    def to_bytes(self) -> bytes:
        return (enc_u64(self.alpha.numerator) + enc_u64(self.alpha.denominator)
                + enc_bytes(self.kind.encode()))


@record
class ChainConfig:
    chain: ChainId
    validators: tuple  # tuple[UserId, ...], ordered
    clients: tuple  # tuple[UserId, ...], sorted
    consensus: ConsensusParams
    n_max: int
    initial_assets: tuple = ()  # tuple[Asset, ...], consumed by genesis

    def __post_init__(self):
        if len(self.validators) < 1:
            raise ValueError("a chain needs at least one validator")
        if self.n_max < 2:
            raise ValueError("division trigger size must be at least 2")
        if len(set(self.validators)) != len(self.validators):
            raise ValueError("duplicate validator")

    @memo
    def quorum(self) -> int:
        return quorum_size(len(self.validators), self.consensus.alpha)

    @memo
    def validator_set(self) -> frozenset:
        return frozenset(self.validators)

    def members(self) -> tuple:
        if not self.clients:
            return self.validators
        return self.validators + tuple(
            c for c in self.clients if c not in self.validators)

    def to_bytes(self) -> bytes:
        return (enc_bytes(self.chain)
                + enc_seq([enc_bytes(v) for v in self.validators])
                + enc_seq([enc_bytes(c) for c in sorted(self.clients)])
                + self.consensus.to_bytes()
                + enc_u64(self.n_max)
                + enc_seq([a.to_bytes() for a in self.initial_assets]))


# --- blocks and ledgers ------------------------------------------------------

@record
class Block:
    height: int
    parent_digest: Digest
    transactions: tuple  # tuple[Transaction, ...]
    digest: Digest = b""


def header_bytes(height: int, parent_digest: Digest, transactions) -> bytes:
    """The canonical block header; a block's digest is its SHA-256."""
    return (enc_u64(height) + enc_bytes(parent_digest)
            + enc_seq([enc_bytes(t.to_bytes()) for t in transactions]))


def make_block(height: int, parent_digest: Digest, transactions) -> Block:
    txs = tuple(transactions)
    return Block(height, parent_digest, txs,
                 sha256(header_bytes(height, parent_digest, txs)))


def verify_ledger(ledger) -> None:
    """Check heights are consecutive from 0 and digests chain correctly."""
    for i, block in enumerate(ledger):
        if block.height != i:
            raise BrokenChain(i, f"expected height {i}, found {block.height}")
        expected_parent = ZERO_DIGEST if i == 0 else ledger[i - 1].digest
        if block.parent_digest != expected_parent:
            raise BrokenChain(i)
        header = header_bytes(block.height, block.parent_digest,
                              block.transactions)
        if sha256(header) != block.digest:
            raise BrokenChain(i, f"block digest mismatch at height {i}")


# --- materialized chain state ------------------------------------------------

@dataclass(frozen=True)
class ChainState:
    """View of a chain: what its genesis installs, advanced by each commit."""

    config: ChainConfig | None = None
    accounts: dict = field(default_factory=dict)  # UserId -> Account
    assets: dict = field(default_factory=dict)  # asset_id -> Asset
    locks: dict = field(default_factory=dict)  # lock nonce -> asset_id
    claims: dict = field(default_factory=dict)  # lock nonce -> verdict
    last_height: int = -1
    parent_chain: ChainId | None = None
    split_height: int = 0
    side: int = 0

    def digest(self) -> Digest:
        parts = [enc_opt(None if self.config is None else self.config.to_bytes())]
        parts.append(enc_seq([self.accounts[u].to_bytes()
                              for u in sorted(self.accounts)]))
        parts.append(enc_seq([self.assets[a].to_bytes()
                              for a in sorted(self.assets)]))
        parts.append(enc_seq([enc_bytes(n) + enc_bytes(self.locks[n])
                              for n in sorted(self.locks)]))
        parts.append(enc_seq([enc_bytes(n) + enc_u64(self.claims[n])
                              for n in sorted(self.claims)]))
        parts.append(enc_u64(self.last_height + 1))
        return sha256(b"".join(parts))

    def total_value(self) -> int:
        return sum(a.value for a in self.assets.values())

    def replace(self, **changes) -> "ChainState":
        """``dataclasses.replace(self, **changes)`` without its per-call
        field walk and ``__init__``. Exact because ChainState has no
        ``__post_init__``: there is no check to skip. ``changes`` must name
        fields."""
        new = object.__new__(ChainState)
        new.__dict__.update(self.__dict__, **changes)
        return new


def _check_signature(tx: Transaction, state: ChainState, scheme) -> None:
    if scheme is None:
        return
    account = state.accounts.get(tx.submitter)
    if account is None:
        raise UnknownUser(f"unknown submitter {tx.submitter!r}")
    if not scheme.verify(account.public_key, tx.signing_bytes(), tx.signature):
        raise InvalidSignature(f"bad signature from {tx.submitter!r}")


def apply_transaction(state: ChainState, tx: Transaction, scheme=None) -> ChainState:
    """Apply one transaction, returning the successor state.

    Raises on rule violations; the input state is never modified. Passing a
    signature scheme enables submitter signature checks (genesis transactions
    are installed unchecked by ``replay``). A successor ``ChainConfig`` or
    ``Asset`` is built by its own constructor, which runs its
    ``__post_init__`` checks as ``dataclasses.replace`` would, without
    replace's per-call field walk.
    """
    kind = tx.kind
    if kind == TxKind.CONFIG_UPDATE and isinstance(tx.payload, ConfigInstallPayload):
        p = tx.payload
        return state.replace(config=p.config, parent_chain=p.parent_chain,
                             split_height=p.split_height, side=p.side,
                             locks=dict(p.locks), claims=dict(p.claims))

    if kind == TxKind.REGISTER:
        p = tx.payload
        if p.account.user in state.accounts:
            raise AlreadyMember(f"{p.account.user!r} already registered")
        accounts = dict(state.accounts)
        accounts[p.account.user] = p.account
        return state.replace(accounts=accounts)

    if kind == TxKind.CONFIG_UPDATE:
        # membership-service-authorized, like registration: the joining
        # validator has no account on this chain yet to sign with
        p = tx.payload
        config = state.config
        accounts = dict(state.accounts)
        validators = list(config.validators)
        for account in p.add_validators:
            if account.user in validators:
                raise AlreadyMember(f"{account.user!r} already a validator")
            validators.append(account.user)
            accounts.setdefault(account.user, account)
        config = ChainConfig(config.chain, tuple(validators), config.clients,
                             config.consensus, config.n_max,
                             config.initial_assets)
        return state.replace(config=config, accounts=accounts)

    _check_signature(tx, state, scheme)

    if kind == TxKind.ASSET_CREATE:
        asset = tx.payload.asset
        if asset.asset_id in state.assets:
            raise AssetIdCollision(f"asset {asset.asset_id!r} already exists")
        if asset.owner not in state.accounts:
            raise UnknownUser(f"asset owner {asset.owner!r} not registered")
        assets = dict(state.assets)
        assets[asset.asset_id] = asset
        return state.replace(assets=assets)

    if kind == TxKind.ASSET_TRANSFER:
        p = tx.payload
        asset = state.assets.get(p.asset_id)
        if asset is None:
            raise UnknownAsset(f"no asset {p.asset_id!r}")
        if asset.locked:
            raise AssetLocked(f"asset {p.asset_id!r} is locked")
        if asset.owner != tx.submitter:
            raise NotOwner(f"{tx.submitter!r} does not own {p.asset_id!r}")
        if p.recipient not in state.accounts:
            raise UnknownUser(f"recipient {p.recipient!r} not registered")
        assets = dict(state.assets)
        assets[p.asset_id] = Asset(asset.asset_id, p.recipient, asset.value)
        return state.replace(assets=assets)

    if kind == TxKind.LOCK:
        p = tx.payload
        asset = state.assets.get(p.asset_id)
        if asset is None:
            raise UnknownAsset(f"no asset {p.asset_id!r}")
        if asset.locked:
            raise AssetLocked(f"asset {p.asset_id!r} is already locked")
        if asset.owner != tx.submitter:
            raise NotOwner(f"{tx.submitter!r} does not own {p.asset_id!r}")
        assets = dict(state.assets)
        assets[p.asset_id] = Asset(asset.asset_id, asset.owner, asset.value,
                                   True, (p.target_chain, p.target_address))
        locks = dict(state.locks)
        locks[p.nonce] = p.asset_id
        return state.replace(assets=assets, locks=locks)

    if kind == TxKind.CLAIM:
        p = tx.payload
        claims = dict(state.claims)
        if p.verdict == 1:
            if p.lock_nonce in state.claims:
                raise InvalidProof("lock nonce already claimed")
            if p.asset_id in state.assets:
                raise AssetIdCollision(f"asset {p.asset_id!r} already exists")
            if p.claimer not in state.accounts:
                raise UnknownUser(f"claimer {p.claimer!r} not registered")
            assets = dict(state.assets)
            assets[p.asset_id] = Asset(p.asset_id, p.claimer, p.value)
            claims[p.lock_nonce] = 1
            return state.replace(assets=assets, claims=claims)
        # committed failure: recorded, no asset appears
        claims.setdefault(p.lock_nonce, 0)
        return state.replace(claims=claims)

    if kind == TxKind.RESOLVE:
        p = tx.payload
        asset_id = state.locks.get(p.lock_nonce)
        if asset_id is None:
            raise UnknownLock(f"no lock with nonce {p.lock_nonce.hex()}")
        asset = state.assets[asset_id]
        assets = dict(state.assets)
        if p.outcome == 1:
            del assets[asset_id]
        else:
            assets[asset_id] = Asset(asset.asset_id, asset.owner, asset.value)
        locks = dict(state.locks)
        del locks[p.lock_nonce]
        return state.replace(assets=assets, locks=locks)

    raise ValueError(f"unhandled transaction kind {kind!r}")


def replay(ledger, scheme=None) -> ChainState:
    """Fold ``apply_transaction`` over a verified ledger: the reference that
    a chain's state, born by ``genesis_state``, equals at every height.

    Signature checks (when a scheme is given) start at height 1; the genesis
    block installs configuration, accounts, and initial assets unchecked.
    Any rule violation aborts with the failing (height, index) position."""
    verify_ledger(ledger)
    state = ChainState()
    for block in ledger:
        block_scheme = None if block.height == 0 else scheme
        for idx, tx in enumerate(block.transactions):
            try:
                state = apply_transaction(state, tx, scheme=block_scheme)
            except SplitchainError as exc:
                raise type(exc)(
                    f"replay failed at height {block.height}, tx {idx}: {exc}"
                ) from exc
        state = state.replace(last_height=block.height)
    return state


def build_genesis(config: ChainConfig, accounts, registered: dict,
                  parent_chain=None, split_height=0, side=0, extra_assets=(),
                  locks=(), claims=()) -> Block:
    """Assemble a genesis block from a config and the member account records.

    ``accounts`` maps UserId -> Account and must cover every member.
    ``registered`` maps UserId -> the REGISTER transaction an earlier
    genesis made for it, and gains each one made here: a member whose
    account record is the very object its entry registers gets that
    transaction, equal to the one it would get built.
    ``extra_assets``, ``locks``, and ``claims`` carry inherited records
    for child chains created by a division.
    """
    txs = [Transaction(TxKind.CONFIG_UPDATE,
                       ConfigInstallPayload(config, parent_chain, split_height,
                                            side, tuple(locks), tuple(claims)),
                       b"genesis")]
    register = TxKind.REGISTER
    for user in config.members():
        account = accounts.get(user)
        if account is None:
            raise UnknownUser(f"no account record for member {user!r}")
        tx = registered.get(user)
        if tx is None or tx.payload.account is not account:
            tx = registered[user] = Transaction(
                register, RegisterPayload(account), b"genesis")
        txs.append(tx)
    for asset in tuple(config.initial_assets) + tuple(extra_assets):
        txs.append(Transaction(TxKind.ASSET_CREATE,
                               AssetCreatePayload(asset), b"genesis"))
    return make_block(0, ZERO_DIGEST, txs)


def genesis_state(block: Block) -> ChainState:
    """``replay([block])`` for a block ``build_genesis`` made, in one pass and
    not re-hashed (its maker just did); it raises what replay would raise."""
    install = block.transactions[0].payload
    if block.height != 0 or not isinstance(install, ConfigInstallPayload):
        raise ValueError("a genesis is height 0 and opens with an install")
    members = set(install.config.members())
    accounts, assets = {}, {}
    try:
        for idx, tx in enumerate(block.transactions[1:], 1):
            p = tx.payload
            if tx.kind == TxKind.REGISTER and p.account.user in members:
                if p.account.user in accounts:
                    raise AlreadyMember(f"{p.account.user!r} already registered")
                accounts[p.account.user] = p.account
            elif tx.kind == TxKind.ASSET_CREATE:
                if p.asset.asset_id in assets:
                    raise AssetIdCollision(f"asset {p.asset.asset_id!r} exists")
                if p.asset.owner not in accounts:
                    raise UnknownUser(f"asset owner {p.asset.owner!r} unknown")
                assets[p.asset.asset_id] = p.asset
            else:
                raise ValueError(f"genesis tx {idx}: unexpected {tx.kind.name}")
    except SplitchainError as exc:
        raise type(exc)(f"genesis failed at height 0, tx {idx}: {exc}") from exc
    return ChainState(install.config, accounts, assets, dict(install.locks),
                      dict(install.claims), 0, install.parent_chain,
                      install.split_height, install.side)
