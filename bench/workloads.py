"""The benchmark's four workloads, driven through splitchain's public API.

Each workload derives its op inputs from the run seed ``s``: op ``i`` of
``growth`` and ``adversarial`` runs scenario seed ``s * STRIDE + i``,
epoch ``i`` of ``transfer`` is seeded ``s * STRIDE + i``, and pass ``i``
of ``sweep`` uses Monte Carlo seed ``s * STRIDE + i``. Two run seeds thus
never share an input, and a claim can be checked on a held-out seed.
Every op passes its workload's structural gate. ``reference.json`` holds
the output hashes of the inputs seed 0 visits first (``pool()``), which
covers a whole run on seed 0 with room to spare; an op whose input has a
recorded hash must match it, and ops of other seeds are checked by the
structural gate alone (``sweep``'s exact-only points have no Monte Carlo
seed and are hash-checked on every seed). Modules of splitchain are
imported in ``setup`` so that import time counts as set-up time.

A workload provides:

* ``setup(seed)``: imports, input parsing and fixture build (``setup_s``);
* ``chunks()``: the stream of op lists, in order; a run stops only between
  chunks, so ``transfer`` always measures whole epochs and ``sweep`` whole
  passes over its grid;
* ``window(seconds) -> (chunks, seconds or None)``: what an end-to-end run
  measures: ops until the time is up, or a fixed list of chunks;
* ``begin(entry)``: untimed preparation before an op;
* ``run(entry) -> (output bytes, counts)``: the op itself;
* ``verdict(entry, output, counts) -> (key, digest, problem)``: the
  correctness gate, run untimed after the op. ``key`` names the reference
  hash that ``digest`` must equal if reference.json has one, or is None
  when this op's output is folded into a later digest.
* ``pool()``: the entries whose hashes reference.json records, in order,
  for ``record_reference.py``;
* ``calibration``: the calibration.py loop whose work resembles its ops;
* ``trace_ops``: how many ops the traced run measures, a fixed count so
  that its per-layer counts repeat exactly between runs of one seed.
"""

import gc
import hashlib
import itertools
import math
import random
from fractions import Fraction
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO_DIR = BENCH_DIR.parent
STRIDE = 1 << 20  # inputs per run seed; no run comes near this many ops
FIGURE1 = REPO_DIR / "src" / "splitchain" / "scenarios" / "figure1.mit"
ADVERSARIAL = BENCH_DIR / "adversarial.mit"


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def kl_divergence(q: float, p: float) -> float:
    """KL(q || p) of two Bernoulli laws. By the Chernoff bound, a frequency
    of q or further from p over t trials has probability at most
    exp(-t * KL(q || p))."""
    def term(a, b):
        if a == 0:
            return 0.0
        return math.inf if b == 0 else a * math.log(a / b)
    return term(q, p) + term(1 - q, 1 - p)


class ScenarioWorkload:
    """op = one seed of a scenario file, reports rendered and hashed.

    This is ``splitchain simulate`` without the file writes.
    """

    calibration = "interpreter"

    def __init__(self, name, path, recorded, expect, trace_ops):
        self.name = name
        self.path = path
        self.recorded = recorded  # scenario seeds with a reference hash
        self.expect = expect  # count name -> value every op must show
        self.trace_ops = trace_ops

    def setup(self, seed):
        from splitchain import scenario
        self.scenario = scenario
        self.spec = scenario.parse_scenario(self.path.read_text())
        self.first = seed * STRIDE

    def window(self, seconds):
        return self.chunks(), seconds

    def chunks(self):
        for scenario_seed in itertools.count(self.first):
            yield [scenario_seed]

    def begin(self, entry):
        pass

    def run(self, scenario_seed):
        report = self.scenario.run_scenario(self.spec, seed=scenario_seed)
        output = b"\0".join(text.encode() for text in (
            report.metrics_csv(), report.lineage_csv(), report.events_log()))
        counts = {
            "divisions": len(report.divisions),
            "final_chains": len(report.final_chains),
            "messages": report.messages_total,
            "fusions": sum("] fuse " in e for e in report.events),
            "failed_or_skipped": sum("failed" in e or "skipped" in e
                                     for e in report.events),
            "safety_violations": len(report.safety_violations),
        }
        return output, counts

    def verdict(self, scenario_seed, output, counts):
        wrong = [f"{k}={counts[k]} (want {v})"
                 for k, v in self.expect.items() if counts[k] != v]
        return (str(scenario_seed), sha(output),
                "; ".join(wrong) if wrong else None)

    def pool(self):
        return list(range(self.recorded))


class TransferWorkload:
    """op = one lock -> {claim, claim, resolve} schedule, shuffled.

    Schedules run back to back on one long-lived pair of chains (src holds
    EPOCH coins, each chain has one crashed validator of four), in the
    shape of the acceptance atomicity test. About one schedule in five
    claims as the wrong recipient, which commits an abort. A fresh pair is
    built every EPOCH schedules (untimed), so ledgers grow to about a
    thousand blocks and memory stays bounded. The reference hashes one
    epoch's outputs together with the final state of both chains, so a
    transfer op's output is checked when its epoch ends; a chunk is one
    epoch, so a run never stops inside one.
    """

    name = "transfer"
    calibration = "interpreter"
    EPOCH = 500
    RECORDED = 96  # epochs with a reference hash
    trace_ops = EPOCH

    def setup(self, seed):
        from splitchain import errors, manager, model, xchain
        self.errors, self.manager, self.model = errors, manager, model
        self.xchain = xchain
        self.first = seed * STRIDE
        self._build(self.first)
        self.untouched = self.first  # epoch whose new pair no op has used

    def _build(self, epoch):
        Role, Asset = self.model.Role, self.model.Asset
        eco = self.manager.Ecosystem(seed=epoch)
        for i in range(4):
            eco.register_user(b"s%03d" % i, Role.VALIDATOR)
            eco.register_user(b"t%03d" % i, Role.VALIDATOR)
        for client in (b"alice", b"bob", b"carol"):
            eco.register_user(client, Role.CLIENT)
        coins = [Asset(b"coin-%04d" % j, b"alice", 1 + j % 9)
                 for j in range(self.EPOCH)]
        eco.create_chain(b"src", [b"s%03d" % i for i in range(4)],
                         [b"alice", b"carol"], initial_assets=coins)
        eco.create_chain(b"dst", [b"t%03d" % i for i in range(4)],
                         [b"bob", b"carol"])
        eco.crash_user(b"s003")  # f = 1 < alpha * n = 2 on each chain
        eco.crash_user(b"t003")
        self.eco = eco
        self.total_value = eco.total_value()
        self.epoch_digest = sha(b"epoch %d" % epoch)

    def window(self, seconds):
        return self.chunks(), seconds

    def chunks(self):
        for epoch in itertools.count(self.first):
            yield [(epoch, j) for j in range(self.EPOCH)]

    def begin(self, entry):
        epoch, j = entry
        if j == 0 and self.untouched != epoch:
            # collect the old pair first, so that memory holds one pair and
            # the collector's work inside ops comes from the schedules alone
            self.eco = None
            gc.collect()
            self._build(epoch)
        self.untouched = None

    def run(self, entry):
        epoch, j = entry
        eco, xchain = self.eco, self.xchain
        rejected = (self.errors.InvalidProof, self.errors.UnknownLock)
        rng = random.Random(f"transfer/{epoch}/{j}")
        coin = b"coin-%04d" % j
        lock = xchain.toa_lock(eco, b"alice", coin, b"bob", b"dst")
        recipient = b"bob" if rng.random() < 0.8 else b"carol"
        steps = ["claim", "claim", "resolve"]
        rng.shuffle(steps)
        proofs = []
        counts = {"recipient": recipient, "resolves": 0, "resolved": 0}

        def settle():
            # newest evidence first; an abort minted for a replayed attempt
            # is refused by the source without touching the lock
            for proof in reversed(proofs):
                counts["resolves"] += 1
                try:
                    outcome = xchain.toa_resolve(eco, b"src", proof)
                except rejected:
                    continue
                counts["resolved"] += 1
                return outcome
            return None

        outcome = None
        for step in steps:
            if step == "claim":
                proofs.append(xchain.toa_claim(eco, recipient, b"dst", lock))
            elif proofs and outcome is None:
                outcome = settle()
        if outcome is None:  # the shuffle may front-load the resolve
            outcome = settle()
        for proof in proofs:  # a settled lock must refuse every proof
            counts["resolves"] += 1
            try:
                xchain.toa_resolve(eco, b"src", proof)
            except rejected:
                continue
            counts["resolved"] += 1

        counts.update(
            outcome=outcome,
            kinds=tuple(p.kind for p in proofs),
            proof_bytes=lock.inner.size_bytes + sum(
                p.inner.size_bytes for p in proofs),
            proofs=1 + len(proofs))
        output = b"|".join([str(outcome).encode(), lock.to_bytes()]
                           + [p.kind.encode() + p.to_bytes() for p in proofs])
        return output, counts

    def verdict(self, entry, output, counts):
        epoch, j = entry
        coin = b"coin-%04d" % j
        eco = self.eco
        problem = None
        instances = [(cid, sim.state.assets[coin])
                     for cid, sim in eco.chains.items()
                     if coin in sim.state.assets]
        claimed = "claim" in counts["kinds"]
        home, owner = ((b"dst", counts["recipient"]) if claimed
                       else (b"src", b"alice"))
        if counts["outcome"] is None or counts["resolved"] != 1:
            problem = (f"{counts['resolved']} terminal outcomes"
                       f" ({counts['outcome']})")
        elif counts["outcome"] != ("claimed" if claimed else "aborted"):
            problem = f"outcome {counts['outcome']} after {counts['kinds']}"
        elif len(instances) != 1 or instances[0][1].locked:
            problem = f"{len(instances)} instances of {coin!r}, want 1 spendable"
        elif (instances[0][0], instances[0][1].owner) != (home, owner):
            problem = f"{coin!r} ended at {instances[0][0]!r}"
        elif eco.total_value() != self.total_value:
            problem = "total value not conserved"
        self.epoch_digest = sha((self.epoch_digest + sha(output)).encode())
        if j < self.EPOCH - 1:
            return None, None, problem
        final_state = b"".join(eco.chains[c].state.digest()
                               for c in (b"src", b"dst"))
        return f"epoch {epoch}", sha(self.epoch_digest.encode()
                                     + final_state), problem

    def pool(self):
        return [(epoch, j) for epoch in range(self.RECORDED)
                for j in range(self.EPOCH)]


class SweepWorkload:
    """op = one (n, beta) grid point at alpha = 1/2, rendered to CSV.

    The paper sizes run 10^5 Monte Carlo trials per point; the
    committee-scale sizes are exact only. A pass visits all 70 points in a
    seeded order with one Monte Carlo seed, its own. A point costs from under a
    millisecond to over a second, so a run measures a fixed number of whole
    passes, one per PASS_SECONDS of ``--seconds`` (a pass takes about that
    long at the reference speed of calibration.py): every run of a given
    length then has the same mix and the same number of samples, and its
    tail percentile picks the same point.
    """

    name = "sweep"
    calibration = "bigint"
    PAPER_SIZES = (10, 40, 50, 100)
    LARGE_SIZES = (1000, 2000, 4000)
    TRIALS = 100_000
    RECORDED = 8  # passes with reference hashes for their Monte Carlo points
    PASS_SECONDS = 8
    # A Monte Carlo count fails its check when the Chernoff bound on a count
    # at least that far from exact is below this. A 4-sigma normal test
    # would fail a correct pass about once in 400 (the points with exact
    # probabilities of 1e-9 and 2e-5 at n = 100 fail on 1 and 8 hits).
    MC_FALSE_ALARM = 1e-9
    trace_ops = 70  # one pass

    def setup(self, seed):
        from splitchain import analysis, cli
        self.analysis, self.cli = analysis, cli
        self.alpha = Fraction(1, 2)
        betas = analysis.default_beta_grid(self.alpha)
        self.grid = [(n, beta) for n in self.PAPER_SIZES + self.LARGE_SIZES
                     for beta in betas]
        self.seed = seed

    def _entry(self, n, beta, mc_seed):
        return (n, beta, mc_seed if n in self.PAPER_SIZES else None)

    def window(self, seconds):
        passes = max(1, round(seconds / self.PASS_SECONDS))
        return itertools.islice(self.chunks(), passes), None

    def chunks(self):
        rng = random.Random(f"{self.name}/{self.seed}")
        for mc_seed in itertools.count(self.seed * STRIDE):
            points = list(self.grid)
            rng.shuffle(points)
            yield [self._entry(n, beta, mc_seed) for n, beta in points]

    def begin(self, entry):
        pass

    def run(self, entry):
        n, beta, mc_seed = entry
        trials = self.TRIALS if mc_seed is not None else 0
        rows = self.analysis.sweep_curves(
            [n], self.alpha, beta_grid=[beta], trials=trials,
            seed=mc_seed or 0)
        text = self.cli.sweep_csv(rows, include_mc=trials > 0)
        row = rows[0]
        return text.encode(), {"trials": trials, "exact": row.exact,
                               "mc_freq": row.mc_freq}

    def verdict(self, entry, output, counts):
        n, beta, mc_seed = entry
        key = f"n={n} beta={beta}" + (
            "" if mc_seed is None else f" mc_seed={mc_seed}")
        problem = None
        if counts["trials"]:
            p, q = float(counts["exact"]), counts["mc_freq"]
            bound = math.exp(-counts["trials"] * kl_divergence(q, p))
            if bound < self.MC_FALSE_ALARM:
                problem = (f"Monte Carlo {q} is too far from exact {p}"
                           f" (tail bound {bound:.3g})")
        return key, sha(output), problem

    def pool(self):
        return [self._entry(n, beta, k)
                for k in range(self.RECORDED) for n, beta in self.grid
                if k == 0 or n in self.PAPER_SIZES]


WORKLOADS = {
    # The paper's growth experiment: honest or dormant validators only,
    # time split between division ACK handling and commit rounds.
    "growth": lambda: ScenarioWorkload(
        "growth", FIGURE1, recorded=1024, trace_ops=40,
        expect={"divisions": 7, "final_chains": 8, "messages": 2940,
                "safety_violations": 0}),
    # Active Byzantine strategies, crashes and a fusion: commit rounds
    # dominate and votes differ per recipient.
    "adversarial": lambda: ScenarioWorkload(
        "adversarial", ADVERSARIAL, recorded=256, trace_ops=8,
        expect={"divisions": 3, "fusions": 1, "failed_or_skipped": 0,
                "safety_violations": 0}),
    # Cross-chain certificates and proofs; no network, no divisions.
    "transfer": TransferWorkload,
    # Exact and Monte Carlo analysis only.
    "sweep": SweepWorkload,
}
