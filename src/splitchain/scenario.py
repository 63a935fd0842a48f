"""Scenario files and the ecosystem-evolution driver.

A scenario is a line-oriented ``key = value`` file describing initial
chains, a validator-arrival process, scheduled faults, and fusions::

    [scenario]
    seed = 0
    assignment = randomized

    [chain root]
    validators = 10
    alpha = 1/2
    n_max = 20

    [join]
    arrivals = 70
    beta = 1/5
    block = 10

    [faults]
    root-v003 = crash 40

Running a scenario grows chains through joins, divides any chain that
reaches its size trigger, applies the fault plan, and records per-chain
size/fault trajectories, lineage, and division outcomes into an immutable
MetricsReport. A (scenario, seed) pair fully determines the report.

The arrival process delivers validators in blocks: within each block of
``block`` consecutive arrivals to the same chain, exactly ``beta * block``
are flagged faulty, at seeded positions. This makes the faulty ratio after
a chain doubles exactly ``(beta_birth + beta_join) / 2``, which the report
exposes for direct checking.
"""

import functools
import itertools
import math
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction

from .assignment import DETERMINISTIC, RANDOMIZED
from .crypto import check_seed, derive_rng
from .errors import (
    ConfigError,
    DuplicateChainId,
    NoQuorum,
    Stalled,
    StateDivergence,
    UnknownInitiator,
)
from .manager import STALL_REASON, Ecosystem, _name, render_events
from .model import Asset, Role, at_fault_bound, record

# A spec is filled in as its lines are parsed and compares by identity:
# eq=False spares the import an __eq__ compiled per class.
@dataclass(eq=False)
class ChainSpec:
    """A ``[chain NAME]`` section."""

    name: str
    line: int
    validators: int = 4
    clients: int = 0
    faulty: int = 0
    alpha: Fraction = Fraction(1, 2)
    kind: str = "cft"
    n_max: int = 64
    assets: int = 0


@dataclass(eq=False)
class JoinSpec:
    """The ``[join]`` section."""

    line: int
    arrivals: int = 0
    interval: int = 1
    beta: Fraction = Fraction(0)
    block: int = 1
    target: str = "round-robin"


@dataclass(eq=False)
class FuseSpec:
    """A ``[fuse]`` section."""

    line: int
    at: int = 0
    left: str = ""
    right: str = ""
    merged: str = ""


@dataclass(eq=False)
class FaultLine:
    """One line of the ``[faults]`` section."""

    line: int
    user: str
    kind: str
    at_time: int = 0
    strategy: str = ""


@dataclass(eq=False)
class ScenarioSpec:
    """A parsed scenario file."""

    seed: int = 0
    horizon: int = 0  # 0 = run to completion
    d_min: int = 1
    d_max: int = 1
    assignment: str = RANDOMIZED
    chains: list = field(default_factory=list)
    join: JoinSpec = None
    fuses: list = field(default_factory=list)
    faults: list = field(default_factory=list)


def _parse_int(value, lineno, key):
    try:
        return int(value)
    except ValueError:
        raise ConfigError(f"{key} expects an integer, got {value!r}",
                          lineno) from None


def _parse_seed(value, lineno, key):
    try:
        return check_seed(_parse_int(value, lineno, key))
    except ValueError as exc:
        raise ConfigError(str(exc), lineno) from None


def _parse_fraction(value, lineno, key):
    try:
        return Fraction(value)
    except (ValueError, ZeroDivisionError):
        raise ConfigError(f"{key} expects a rational like 1/3, got {value!r}",
                          lineno) from None


def _parse_str(value, lineno, key):
    return value


def _one_of(*allowed):
    """A parser that accepts exactly the values in `allowed`."""

    def parse(value, lineno, key):
        if value not in allowed:
            raise ConfigError(f"{key} must be {' or '.join(allowed)}", lineno)
        return value

    return parse


# section -> key -> parser(value, lineno, key); [faults] keys are user ids
_KEYS = {
    "scenario": {"seed": _parse_seed, "horizon": _parse_int,
                 "d_min": _parse_int, "d_max": _parse_int,
                 "assignment": _one_of(RANDOMIZED, DETERMINISTIC)},
    "chain": {"validators": _parse_int, "clients": _parse_int,
              "faulty": _parse_int, "alpha": _parse_fraction,
              "kind": _one_of("cft", "bft"), "n_max": _parse_int,
              "assets": _parse_int},
    "join": {"arrivals": _parse_int, "interval": _parse_int,
             "beta": _parse_fraction, "block": _parse_int,
             "target": _one_of("round-robin", "smallest")},
    "fuse": {"at": _parse_int, "left": _parse_str, "right": _parse_str,
             "merged": _parse_str},
}


def parse_scenario(text: str) -> ScenarioSpec:
    """Parse scenario source, raising line-numbered ConfigError on mistakes."""
    spec = ScenarioSpec()
    section = None  # (name, object); the object is None for [faults]
    seen_chains = set()
    assigned = {}  # (id of section object, key) -> line; [faults] user -> line

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ConfigError("unterminated section header", lineno)
            header = line[1:-1].strip()
            if header == "scenario":
                section = ("scenario", spec)
            elif header.split(None, 1)[:1] == ["chain"]:
                name = header[len("chain"):].strip()
                if not name:
                    raise ConfigError("chain section needs a name: [chain NAME]",
                                      lineno)
                if name in seen_chains:
                    raise ConfigError(f"duplicate chain {name!r}", lineno)
                seen_chains.add(name)
                chain = ChainSpec(name, lineno)
                spec.chains.append(chain)
                section = ("chain", chain)
            elif header == "join":
                if spec.join is not None:
                    raise ConfigError("only one [join] section is allowed",
                                      lineno)
                spec.join = JoinSpec(lineno)
                section = ("join", spec.join)
            elif header == "fuse":
                fuse = FuseSpec(lineno)
                spec.fuses.append(fuse)
                section = ("fuse", fuse)
            elif header == "faults":
                section = ("faults", None)
            else:
                raise ConfigError(f"unknown section [{header}]", lineno)
            continue

        if "=" not in line:
            raise ConfigError("expected key = value", lineno)
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if section is None:
            raise ConfigError(f"{key!r} appears before any section", lineno)

        kind, obj = section
        slot = key if kind == "faults" else (id(obj), key)
        if slot in assigned:
            what = "fault for" if kind == "faults" else f"[{kind}] key"
            raise ConfigError(f"second {what} {key!r} (first on line"
                              f" {assigned[slot]})", lineno)
        assigned[slot] = lineno
        if kind != "faults":
            parser = _KEYS[kind].get(key)
            if parser is None:
                raise ConfigError(f"unknown [{kind}] key {key!r}", lineno)
            setattr(obj, key, parser(value, lineno, key))
            continue
        parts = value.split()
        if not parts or parts[0] not in ("crash", "byzantine"):
            raise ConfigError(
                f"fault must be 'crash [TICK]' or 'byzantine STRATEGY',"
                f" got {value!r}", lineno)
        if parts[0] == "crash":
            if len(parts) > 2:
                raise ConfigError(
                    f"crash fault takes one optional tick, got {value!r}",
                    lineno)
            at = _parse_int(parts[1], lineno, "crash time") if len(
                parts) > 1 else 0
            if at < 0:
                raise ConfigError(f"crash time must be >= 0, got {at}",
                                  lineno)
            spec.faults.append(FaultLine(lineno, key, "crash", at_time=at))
        elif len(parts) != 2:
            raise ConfigError("byzantine fault needs a strategy name", lineno)
        else:
            spec.faults.append(
                FaultLine(lineno, key, "byzantine", strategy=parts[1]))

    _validate(spec)
    return spec


def _validate(spec: ScenarioSpec) -> None:
    if not spec.chains:
        raise ConfigError("scenario defines no chains", 1)
    if not 0 < spec.d_min <= spec.d_max:
        raise ConfigError("need 0 < d_min <= d_max", 1)
    if spec.horizon < 0:
        raise ConfigError("horizon must be >= 0", 1)
    for chain in spec.chains:
        if chain.validators < 1:
            raise ConfigError(f"chain {chain.name!r} needs validators >= 1",
                              chain.line)
        if chain.n_max < 2:
            raise ConfigError(f"chain {chain.name!r} needs n_max >= 2",
                              chain.line)
        if not 0 <= chain.faulty <= chain.validators:
            raise ConfigError(
                f"chain {chain.name!r}: faulty must lie in [0, validators]",
                chain.line)
        if chain.clients < 0 or chain.assets < 0:
            raise ConfigError(f"chain {chain.name!r} needs clients and"
                              f" assets >= 0", chain.line)
        if chain.assets > 0 and chain.clients == 0:
            raise ConfigError(
                f"chain {chain.name!r} has assets but no clients to own them",
                chain.line)
        if not 0 < chain.alpha <= Fraction(1, 2):
            raise ConfigError(
                f"chain {chain.name!r}: alpha must lie in (0, 1/2]",
                chain.line)
    join = spec.join
    if join is not None and join.arrivals < 0:
        raise ConfigError("join arrivals must be >= 0", join.line)
    if join is not None and join.arrivals > 0:
        if join.interval < 1:
            raise ConfigError("join interval must be >= 1", join.line)
        if join.block < 1:
            raise ConfigError("join block must be >= 1", join.line)
        faulty_per_block = join.beta * join.block
        if faulty_per_block.denominator != 1:
            raise ConfigError(
                f"beta * block must be an integer so each block carries an"
                f" exact faulty count (got {faulty_per_block})", join.line)
        if not 0 <= faulty_per_block <= join.block:
            raise ConfigError("join beta must lie in [0, 1]", join.line)
    names = {c.name for c in spec.chains}
    merged_names = set()
    for fuse in spec.fuses:
        if fuse.at < 0:
            raise ConfigError("[fuse] at must be >= 0", fuse.line)
        if not fuse.left or not fuse.right:
            raise ConfigError("[fuse] needs left and right chain names",
                              fuse.line)
        if fuse.left not in names or fuse.right not in names:
            raise ConfigError(
                f"[fuse] references unknown chain"
                f" {fuse.left!r} or {fuse.right!r}", fuse.line)
        if fuse.left == fuse.right:
            raise ConfigError(
                f"[fuse] cannot fuse chain {fuse.left!r} with itself",
                fuse.line)
        merged = fuse.merged or f"{fuse.left}+{fuse.right}"
        if merged in names or merged in merged_names:
            raise ConfigError(
                f"[fuse] merged name {merged!r} is already taken", fuse.line)
        merged_names.add(merged)


# --- report ----------------------------------------------------------------------

METRICS_HEADER = ("tick", "chain_id", "n", "f", "beta", "divisions", "messages")
LINEAGE_HEADER = ("chain_id", "parent_id", "side", "split_height")


@functools.lru_cache(maxsize=1024)  # runs revisit each (n, f)
def ratio_text(f: int, n: int) -> str:
    """str(Fraction(f, n)) for n > 0, reduced with math.gcd: "p/q", or "p"
    when q is 1."""
    g = math.gcd(f, n)
    if g == n:
        return str(f // g)
    return f"{f // g}/{n // g}"


def csv_text(header, rows) -> str:
    """`rows` as CSV text, under their `header` line: each field is its
    str(), in one %-format over every line."""
    line = ",".join(["%s"] * len(header)) + "\n"
    return (line * (len(rows) + 1)) % tuple(itertools.chain(header, *rows))


@record
class MetricsReport:
    """Everything a scenario run produced, as immutable values."""

    metrics: tuple  # rows matching METRICS_HEADER
    lineage: tuple  # rows matching LINEAGE_HEADER
    events: tuple  # manager.Event per fact of the run; properties query it
    messages_total: int
    final_chains: tuple  # (chain_id, n, f) at end of run

    @property
    def divisions(self) -> tuple:
        """The `divide` events: parent, n_birth and f_birth (its founders),
        n and f at division, children as (chain_id, n_i, f_i, violated)."""
        return tuple(e for e in self.events if e.kind == "divide")

    @property
    def bound_violations(self) -> tuple:
        """Every chain born at f >= alpha*n, as (chain_id, n, f, True): a
        division child as its divide event's children entry, a created or
        fused chain from the n, f and alpha its create or fuse event holds."""
        found = []
        for event in self.events:
            x = event.fields
            if event.kind == "divide":
                found += (child for child in x["children"] if child[3])
            elif (event.kind in ("create", "fuse")
                  and at_fault_bound(x["f"], x["n"], x["alpha"])):
                found.append((x.get("merged", x.get("chain")), x["n"], x["f"],
                              True))
        return tuple(found)

    @property
    def safety_violations(self) -> tuple:  # divergence among correct ones
        return tuple(e.fields["error"] for e in self.events
                     if e.kind == "safety")

    @property
    def stalled(self) -> str | None:  # why a lost quorum stopped the run
        return next((e.format(STALL_REASON) for e in self.events
                     if e.kind == "stall"), None)

    def metrics_csv(self) -> str:
        return csv_text(METRICS_HEADER, self.metrics)

    def lineage_csv(self) -> str:
        return csv_text(LINEAGE_HEADER, self.lineage)

    def events_log(self) -> str:
        return render_events(self.events)


# --- driver ----------------------------------------------------------------------


class _Driver:
    def __init__(self, spec: ScenarioSpec, seed: int):
        self.spec = spec
        self.seed = seed
        self.eco = Ecosystem(seed=seed, d_min=spec.d_min, d_max=spec.d_max,
                             assignment_scheme=spec.assignment)
        self.metrics = []
        self.divided = self.scanned = 0  # divide events in events[:scanned]
        self.arrival_idx = 0
        # chain -> faulty positions in its current block of arrivals; a
        # divided or fused chain's entry is never read again
        self.meta = {}
        # round-robin order: a chain re-enters at the back after each turn,
        # and its children take over its membership when it divides
        self.rotation = deque()
        # chains refused because a child id is taken: a retry would fail too
        self.undividable = set()

    # -- setup --

    def create_chains(self) -> None:
        """Register every chain's members, apply the fault plan, then
        create the chains, so that each create event counts every founder
        the scenario flags faulty."""
        members = []
        for cs in self.spec.chains:
            validators = [b"%s-v%03d" % (cs.name.encode(), i)
                          for i in range(cs.validators)]
            faulty_at = set()
            if cs.faulty:
                rng = derive_rng("init-faulty", self.seed, cs.name)
                faulty_at = set(rng.sample(range(cs.validators), cs.faulty))
            for i, v in enumerate(validators):
                self.eco.register_user(v, Role.VALIDATOR,
                                       faulty=i in faulty_at)
            clients = [b"%s-c%03d" % (cs.name.encode(), i)
                       for i in range(cs.clients)]
            for c in clients:
                self.eco.register_user(c, Role.CLIENT)
            members.append((validators, clients))
        self.apply_faults()
        for cs, (validators, clients) in zip(self.spec.chains, members):
            assets = [Asset(b"%s-coin-%03d" % (cs.name.encode(), j),
                            clients[j % len(clients)], 1)
                      for j in range(cs.assets)]
            sim = self.eco.create_chain(
                cs.name.encode(), validators, clients, alpha=cs.alpha,
                kind=cs.kind, n_max=cs.n_max, initial_assets=assets)
            self.rotation.append(sim.chain_id)

    def apply_faults(self) -> None:
        for fault in self.spec.faults:
            user = fault.user.encode()
            if user not in self.eco.users:
                raise ConfigError(f"fault names unknown user {fault.user!r}",
                                  fault.line)
            if fault.kind == "crash":
                self.eco.crash_user(user, at_time=fault.at_time)
            else:
                try:
                    self.eco.mark_byzantine(user, fault.strategy)
                except ValueError as exc:
                    raise ConfigError(str(exc), fault.line) from None

    # -- actions --

    def sample(self) -> None:
        tick = self.eco.network.now
        new = self.eco.events[self.scanned:]
        self.scanned += len(new)
        self.divided += sum(e.kind == "divide" for e in new)
        messages = self.eco.network.messages_sent
        for chain_id in sorted(self.eco.chains):
            sim = self.eco.chains[chain_id]
            n = len(sim.validators)
            f = self.eco.chain_fault_count(sim)
            self.metrics.append((tick, _name(chain_id), n, f,
                                 ratio_text(f, n), self.divided, messages))

    def _next_target(self):
        if self.spec.join.target == "smallest":
            return min(self.eco.chains.values(),
                       key=lambda s: (len(s.validators), s.chain_id))
        while self.rotation and self.rotation[0] not in self.eco.chains:
            self.rotation.popleft()  # divided or fused away
        return self.eco.chains[self.rotation.popleft()]

    def arrival(self) -> None:
        join = self.spec.join
        uid = b"join-%04d" % self.arrival_idx
        target = self._next_target()
        self.arrival_idx += 1
        block_idx, pos = divmod(
            len(target.validators) - len(target.founders), join.block)
        if pos == 0:
            per_block = int(join.beta * join.block)
            rng = derive_rng("join-faulty", self.seed, target.chain_id,
                             block_idx)
            self.meta[target.chain_id] = set(
                rng.sample(range(join.block), per_block))
        faulty = pos in self.meta[target.chain_id]
        self.eco.register_user(uid, Role.VALIDATOR, faulty=faulty)
        self.eco.join_chain(uid, target.chain_id)
        self._maybe_divide(target.chain_id)
        if target.chain_id in self.eco.chains:  # still live: next turn later
            self.rotation.append(target.chain_id)

    def _maybe_divide(self, chain_id: bytes) -> None:
        sim = self.eco.chains.get(chain_id)
        if (sim is None or chain_id in self.undividable
                or len(sim.validators) < sim.config.n_max):
            return
        try:
            children = self.eco.divide_chain(chain_id)
        except UnknownInitiator:  # every validator is crashed
            self.eco._emit("trigger-skip", chain=chain_id)
            return
        except (NoQuorum, DuplicateChainId) as exc:
            self.eco._emit("division-failed", chain=chain_id, error=str(exc))
            if isinstance(exc, DuplicateChainId):  # ids are never freed
                self.undividable.add(chain_id)
            return
        self.rotation.extend(child.chain_id for child in children)
        for child in children:  # born at or above its trigger: divide it too
            self._maybe_divide(child.chain_id)

    def fuse(self, fuse: FuseSpec) -> None:
        left, right = fuse.left.encode(), fuse.right.encode()
        if left not in self.eco.chains or right not in self.eco.chains:
            self.eco._emit("fusion-skipped", left=left, right=right)
            return
        merged_id = fuse.merged.encode() if fuse.merged else None
        try:
            merged = self.eco.fuse_chains(left, right, merged_id=merged_id)
        except (NoQuorum, DuplicateChainId) as exc:  # chains untouched
            self.eco._emit("fusion-failed", left=left, right=right,
                           error=str(exc))
            return
        self.rotation.append(merged.chain_id)
        self._maybe_divide(merged.chain_id)

    # -- main loop --

    def run(self) -> MetricsReport:
        self.create_chains()
        for chain_id in list(self.eco.chains):  # a chain may start at n_max
            self._maybe_divide(chain_id)
        self.sample()

        actions = []
        join = self.spec.join
        if join is not None:
            for i in range(join.arrivals):
                actions.append(((i + 1) * join.interval, 0, i, "arrival", None))
        for k, fuse in enumerate(self.spec.fuses):
            actions.append((fuse.at, 1, k, "fuse", fuse))
        actions.sort(key=lambda a: a[:3])

        for time, _, _, kind, payload in actions:
            if self.spec.horizon and time > self.spec.horizon:
                break
            self.eco.network.advance_to(time)
            try:
                if kind == "arrival":
                    self.arrival()
                else:
                    self.fuse(payload)
            except StateDivergence as exc:
                self.eco._emit("safety", error=str(exc))
                break
            except Stalled:  # the manager emitted the stall event
                break
            self.sample()

        final = tuple(
            (cid, len(sim.validators), self.eco.chain_fault_count(sim))
            for cid, sim in sorted(self.eco.chains.items()))
        return MetricsReport(
            metrics=tuple(self.metrics),
            lineage=self.eco.lineage_rows(),
            events=tuple(self.eco.events),
            messages_total=self.eco.network.messages_sent,
            final_chains=final,
        )


def run_scenario(spec, seed=None) -> MetricsReport:
    """Execute a parsed scenario (or scenario source text) deterministically.

    ``seed`` overrides the file's own seed; every run with the same
    (scenario, seed) pair yields an identical report.
    """
    if isinstance(spec, str):
        spec = parse_scenario(spec)
    if not isinstance(spec, ScenarioSpec):
        raise ConfigError("run_scenario expects scenario text or a parsed spec")
    return _Driver(spec, spec.seed if seed is None else seed).run()
