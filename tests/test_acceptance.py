"""Release gate: the package's headline guarantees at full statistical scale.

Each test here drives one end-to-end property — exact-arithmetic curves
against brute-force enumeration, protocol conformance sweeps, large
randomized safety campaigns, and byte-level CLI determinism. They run
heavier than the unit suites (a couple of minutes total on a laptop).
"""

import dataclasses
import itertools
import math
import random
import time
from fractions import Fraction
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import nchypergeom_fisher

from splitchain import cli
from splitchain.analysis import (
    DivisionAnalysisParams,
    HypergeomParams,
    hypergeom_pmf,
    violation_frequency_montecarlo,
    violation_probability_exact,
)
from splitchain.assignment import assign_randomized
from splitchain.consensus import QuorumCertificate
from splitchain.crypto import derive_seed
from splitchain.errors import (
    InvalidProof,
    NoQuorum,
    UnknownInitiator,
    UnknownLock,
)
from splitchain.manager import Ecosystem
from splitchain.model import (
    Asset,
    AssetTransferPayload,
    Role,
    Transaction,
    TxKind,
    quorum_size,
)
from splitchain.scenario import parse_scenario, run_scenario
from splitchain.xchain import (
    TxInclusion,
    issue_tag,
    toa_claim,
    toa_lock,
    toa_resolve,
    tok_generate_proof,
    tok_verify_proof,
)

from helpers import enumerate_violation_probability

HALF = Fraction(1, 2)
THIRD = Fraction(1, 3)


def figure_scenario_text() -> str:
    return (resources.files("splitchain") / "scenarios" / "figure1.mit") \
        .read_text()


# --- 1. exact probabilities vs exhaustive enumeration -------------------------------


def test_exact_violation_probability_matches_enumeration_everywhere():
    """Rational equality against subset-walking for every small chain.

    Covers the analyzer's whole small domain: every even chain size up to
    twelve, every faulty count, both thresholds in common use.
    """
    started = time.perf_counter()
    for n in range(2, 13, 2):
        for f in range(n + 1):
            for alpha in (THIRD, HALF):
                exact = violation_probability_exact(
                    DivisionAnalysisParams(n, f, alpha))
                oracle = enumerate_violation_probability(n, f, alpha)
                assert exact == oracle, (n, f, alpha)
    assert time.perf_counter() - started < 10


# --- 2. security-figure reproduction through the CLI --------------------------------


def _read_sweep_csv(path: Path) -> list:
    lines = path.read_text().strip().splitlines()
    assert lines[0] == ("n,alpha,beta,f,exact,bound_single,bound_combined,"
                        "mc_freq,mc_stderr")
    rows = []
    for line in lines[1:]:
        n, alpha, beta, f, exact, b1, b2, freq, stderr = line.split(",")
        rows.append({
            "n": int(n), "alpha": Fraction(alpha), "beta": Fraction(beta),
            "f": int(f), "exact": Fraction(exact),
            "bound_single": float(b1) if b1 else None,
            "bound_combined": float(b2) if b2 else None,
            "mc_freq": float(freq), "mc_stderr": float(stderr),
        })
    return rows


def test_security_figure_curves_reproduce(tmp_path, capsys):
    started = time.perf_counter()
    rows = []
    for alpha in ("1/2", "1/3"):
        out = tmp_path / f"curves-{alpha.replace('/', '_')}.csv"
        code = cli.main(["analyze", "--alpha", alpha, "--n", "10,40,50,100",
                         "--trials", "100000", "--seed", "0",
                         "--out", str(out)])
        capsys.readouterr()
        assert code == 0
        rows.extend(_read_sweep_csv(out))

    # (a) no faults, no violations
    for row in rows:
        if row["beta"] == 0:
            assert row["exact"] == 0

    # (b) monotone non-decreasing in the faulty count along each curve
    for (alpha, n), group in itertools.groupby(
            sorted(rows, key=lambda r: (r["alpha"], r["n"], r["f"])),
            key=lambda r: (r["alpha"], r["n"])):
        exacts = [r["exact"] for r in group]
        assert all(a <= b for a, b in zip(exacts, exacts[1:])), (alpha, n)

    # (c) the pinned rational at n=10, beta=0.4, alpha=1/2
    pinned = [r for r in rows
              if (r["n"], r["alpha"], r["beta"]) == (10, HALF, Fraction(2, 5))]
    assert len(pinned) == 1 and pinned[0]["exact"] == Fraction(11, 21)

    # (d) the two-sided exponential bound holds on its validity region
    for row in rows:
        if row["alpha"] <= 2 * row["beta"]:
            gap = float(row["alpha"] - row["beta"])
            assert float(row["exact"]) <= 2 * math.exp(
                -gap * gap * row["n"]) + 1e-12, row

    # (e) below-threshold regimes sit under the single-tail bound
    for row in rows:
        regime = Fraction(1, 4) if row["alpha"] == THIRD else Fraction(2, 5)
        if row["beta"] <= regime:
            gap = float(row["alpha"] - row["beta"])
            assert float(row["exact"]) <= math.exp(
                -gap * gap * row["n"]) + 1e-12, row

    assert time.perf_counter() - started < 120


# --- 3. Monte Carlo agreement on random parameter sets ------------------------------


def test_montecarlo_tracks_exact_on_random_parameter_sets():
    rng = random.Random(20260814)
    trials = 100_000
    seen = []
    for i in range(20):
        n = 2 * rng.randint(2, 50)
        f = rng.randint(0, n)
        alpha = rng.choice((THIRD, HALF))
        d = DivisionAnalysisParams(n, f, alpha)
        exact = violation_probability_exact(d)
        seed = derive_seed("acceptance-mc", i)
        freq, _ = violation_frequency_montecarlo(d, trials, seed=seed)
        # standard error taken at the true probability: zero only when the
        # outcome is deterministic, where the frequency must match exactly
        stderr = math.sqrt(float(exact * (1 - exact)) / trials)
        assert abs(freq - float(exact)) <= 4 * stderr, (n, f, alpha)
        seen.append((d, seed, freq))
    for d, seed, freq in seen[:5]:
        again, _ = violation_frequency_montecarlo(d, trials, seed=seed)
        assert again == freq


# --- 4. randomized assignment is hypergeometric --------------------------------------


def test_randomized_assignment_distribution_matches_hypergeometric():
    n, f, draws = 10, 4, 100_000
    members = [b"m%02d" % i for i in range(n)]
    faulty = set(members[:f])
    counts = [0] * (f + 1)
    for i in range(draws):
        v1, _ = assign_randomized(members, derive_seed(
            "assign-tv", i).to_bytes(8, "big"))
        counts[sum(1 for v in v1 if v in faulty)] += 1
    pmf = HypergeomParams(n, f, n // 2)
    tv = sum(abs(counts[k] / draws - float(hypergeom_pmf(pmf, k)))
             for k in range(f + 1)) / 2
    assert tv < 0.01


# --- 5. division protocol conformance -------------------------------------------------


def _division_eco(n, alpha, withholders=0, seed=0):
    eco = Ecosystem(seed=seed)
    validators = [b"w%03d" % i for i in range(n)]
    # the initiator stays honest; withholders swallow their acknowledgements
    for i, v in enumerate(validators):
        eco.register_user(v, Role.VALIDATOR)
        if 1 <= i <= withholders:
            eco.mark_byzantine(v, "withhold")
    eco.create_chain(b"root", validators, alpha=alpha, n_max=n)
    return eco, validators


@pytest.mark.parametrize("n", [4, 7, 10])
@pytest.mark.parametrize("alpha", [THIRD, HALF])
def test_division_completes_exactly_at_ack_quorum(n, alpha):
    quorum = quorum_size(n, alpha)
    for withholders in range(n):
        eco, validators = _division_eco(n, alpha, withholders)
        acks = n - withholders
        if acks >= quorum:
            eco.divide_chain(b"root", initiator=validators[0])
            assert b"root" not in eco.chains
            assert set(eco.chains) == {b"root.1", b"root.2"}
        else:
            with pytest.raises(NoQuorum):
                eco.divide_chain(b"root", initiator=validators[0])
            assert b"root" in eco.chains


@pytest.mark.parametrize("n", [4, 7, 10])
def test_division_message_count_is_exact(n):
    eco, validators = _division_eco(n, HALF)
    before = eco.network.messages_sent
    eco.divide_chain(b"root", initiator=validators[0])
    assert eco.network.messages_sent - before == n + n * n


def test_non_member_initiator_never_divides():
    for initiator in (b"outsider", b"z999"):
        eco, _ = _division_eco(7, HALF)
        eco.register_user(b"z999", Role.VALIDATOR)  # registered, not a member
        config_before = eco.chains[b"root"].config
        with pytest.raises(UnknownInitiator):
            eco.divide_chain(b"root", initiator=initiator)
        assert eco.chains[b"root"].config == config_before
        assert set(eco.chains) == {b"root"}


# --- 6. division partitions state ------------------------------------------------------


def _signed_transfer(eco, asset, recipient):
    tx = Transaction(TxKind.ASSET_TRANSFER,
                     AssetTransferPayload(asset.asset_id, recipient),
                     asset.owner)
    sig = eco.scheme.sign(eco.users[asset.owner].public_key,
                          tx.signing_bytes())
    return Transaction(tx.kind, tx.payload, tx.submitter, sig)


def test_division_partitions_parent_state_across_seeds():
    for seed in range(1000):
        rng = random.Random(seed)
        n = rng.choice((8, 10, 12))
        eco = Ecosystem(seed=seed)
        validators = [b"v%03d" % i for i in range(n)]
        clients = [b"c%03d" % i for i in range(4)]
        for v in validators:
            eco.register_user(v, Role.VALIDATOR)
        for c in clients:
            eco.register_user(c, Role.CLIENT)
        assets = [Asset(b"a%03d" % i, rng.choice(clients), rng.randint(1, 9))
                  for i in range(6)]
        parent = eco.create_chain(b"root", validators, clients, n_max=n,
                                  initial_assets=assets)
        members = set(parent.state.accounts)
        total_value = sum(a.value for a in parent.state.assets.values())
        moved = None
        if seed % 3 == 0:
            # a transfer committed before the division: the division at
            # the new tip carries it
            moved = assets[0]
            recipient = next(c for c in clients if c != moved.owner)
            parent.commit([_signed_transfer(eco, moved, recipient)])
        left, right = eco.divide_chain(b"root")
        l_sim, r_sim = eco.chains[left.chain_id], eco.chains[right.chain_id]
        if moved is not None:
            holder = next(s for s in (l_sim, r_sim)
                          if moved.asset_id in s.state.assets)
            assert holder.state.assets[moved.asset_id].owner == recipient
            assert recipient in holder.state.accounts

        l_acc, r_acc = set(l_sim.state.accounts), set(r_sim.state.accounts)
        assert l_acc | r_acc == members
        assert not l_acc & r_acc
        l_assets, r_assets = set(l_sim.state.assets), set(r_sim.state.assets)
        assert l_assets | r_assets == set(b"a%03d" % i for i in range(6))
        assert not l_assets & r_assets
        assert sum(a.value for s in (l_sim, r_sim)
                   for a in s.state.assets.values()) == total_value
        # each asset landed with its owner
        for sim in (l_sim, r_sim):
            for asset in sim.state.assets.values():
                assert asset.owner in sim.state.accounts


# --- 7. transfer atomicity under randomized schedules -----------------------------------


def _transfer_eco(seed: int, crash_one: bool):
    eco = Ecosystem(seed=seed)
    for i in range(4):
        eco.register_user(b"s%03d" % i, Role.VALIDATOR)
        eco.register_user(b"t%03d" % i, Role.VALIDATOR)
    for c in (b"alice", b"bob", b"carol"):
        eco.register_user(c, Role.CLIENT)
    eco.create_chain(b"src", [b"s%03d" % i for i in range(4)],
                     [b"alice", b"carol"],
                     initial_assets=[Asset(b"coin", b"alice", 9)])
    eco.create_chain(b"dst", [b"t%03d" % i for i in range(4)],
                     [b"bob", b"carol"])
    if crash_one:  # one crash per chain keeps f < alpha * n = 2
        eco.crash_user(b"s003")
        eco.crash_user(b"t003")
    return eco


def _spendable_instances(eco, asset_id=b"coin"):
    return [a for sim in eco.chains.values()
            for a in (sim.state.assets.get(asset_id),)
            if a is not None and not a.locked]


def _all_instances(eco, asset_id=b"coin"):
    return [sim.state.assets[asset_id] for sim in eco.chains.values()
            if asset_id in sim.state.assets]


def test_randomized_transfer_schedules_preserve_atomicity():
    """Ten thousand shuffled lock/claim/resolve interleavings, some with a
    crashed validator per chain: never two spendable copies, and every lock
    ends in exactly one terminal outcome."""
    for trial in range(10_000):
        rng = random.Random(derive_seed("toa-schedules", trial))
        eco = _transfer_eco(trial, crash_one=rng.random() < 0.5)
        lock = toa_lock(eco, b"alice", b"coin", b"bob", b"dst")

        recipient = b"bob" if rng.random() < 0.8 else b"carol"
        ops = ["claim", "claim", "resolve"]
        rng.shuffle(ops)
        transfer_proofs = []

        def try_settle():
            # newest evidence first; aborts minted for replayed attempts
            # are discarded by the source without touching the lock
            for proof in reversed(transfer_proofs):
                try:
                    return proof, toa_resolve(eco, b"src", proof)
                except InvalidProof:
                    continue
            return None

        settled = None
        for op in ops:
            if op == "claim":
                transfer_proofs.append(toa_claim(eco, recipient, b"dst", lock))
            elif transfer_proofs and settled is None:
                settled = try_settle()
            assert len(_spendable_instances(eco)) <= 1, trial

        if settled is None:  # the shuffle may front-load the resolve
            settled = try_settle()
        assert settled is not None, trial
        outcome = settled[1]
        for proof in transfer_proofs:  # the outcome is terminal and unique
            with pytest.raises((UnknownLock, InvalidProof)):
                toa_resolve(eco, b"src", proof)

        kinds = {p.kind for p in transfer_proofs}
        instances = _all_instances(eco)
        assert len(instances) == 1 and instances[0].value == 9
        assert not instances[0].locked
        if "claim" in kinds:  # the first claim won: the coin moved to dst
            assert outcome == "claimed"
            assert b"coin" in eco.chains[b"dst"].state.assets
            assert instances[0].owner == recipient
        else:  # every attempt aborted: the coin stays home, unlocked
            assert outcome == "aborted"
            assert b"coin" in eco.chains[b"src"].state.assets
            assert instances[0].owner == b"alice"


# --- 8. proof soundness under fuzzing ---------------------------------------------------


def _proof_fixture(seed=0, n=4):
    """Chains src (n validators, alice's coin) and dst (4, bob), and the
    TxInclusion that the lock of alice's coin to bob, committed on src,
    satisfies."""
    eco = Ecosystem(seed=seed)
    for i in range(n):
        eco.register_user(b"s%03d" % i, Role.VALIDATOR)
    for i in range(4):
        eco.register_user(b"t%03d" % i, Role.VALIDATOR)
    eco.register_user(b"alice", Role.CLIENT)
    eco.register_user(b"bob", Role.CLIENT)
    eco.create_chain(b"src", [b"s%03d" % i for i in range(n)], [b"alice"],
                     initial_assets=[Asset(b"coin", b"alice", 3)])
    eco.create_chain(b"dst", [b"t%03d" % i for i in range(4)], [b"bob"])
    lock = toa_lock(eco, b"alice", b"coin", b"bob", b"dst")
    return eco, lock.inner.predicate


def test_fuzzed_proofs_rejected_and_honest_proofs_accepted():
    eco, included = _proof_fixture()
    config = eco.chains[b"src"].config
    verify = eco.verify

    honest = []
    for i in range(64):
        tag = issue_tag(eco, b"dst")
        proof = tok_generate_proof(eco, b"alice", b"src", included, tag)
        honest.append(proof)

    for case in range(10_000):
        verdict, reason = tok_verify_proof(
            honest[case % len(honest)], honest[case % len(honest)].tag,
            config, honest[case % len(honest)].tag.issued_height, verify)
        assert (verdict, reason) == (1, None)

    mutations = ("strip-signatures", "substitute-signer", "tamper-statement",
                 "expire-tag")
    rejected = 0
    for case in range(10_000):
        rng = random.Random(derive_seed("tok-fuzz", case))
        base = honest[rng.randrange(len(honest))]
        mutation = mutations[case % len(mutations)]
        height = base.tag.issued_height
        if mutation == "strip-signatures":
            keep = rng.randrange(config.quorum)  # strictly below quorum
            sigs = list(base.certificate.signatures)
            rng.shuffle(sigs)
            cert = QuorumCertificate(base.certificate.statement,
                                     tuple(sigs[:keep]))
            proof = dataclasses.replace(base, certificate=cert)
        elif mutation == "substitute-signer":
            sigs = list(base.certificate.signatures)
            victim = rng.randrange(len(sigs))
            if rng.random() < 0.5:  # outsider
                sigs[victim] = (b"intruder", sigs[victim][1])
            else:  # duplicate an existing signer
                sigs[victim] = sigs[victim - 1]
            cert = QuorumCertificate(base.certificate.statement, tuple(sigs))
            proof = dataclasses.replace(base, certificate=cert)
        elif mutation == "tamper-statement":
            if rng.random() < 0.5:  # claim a different fact
                predicate = TxInclusion(included.tx_digest,
                                        included.height + 1)
                proof = dataclasses.replace(base, predicate=predicate)
            else:  # corrupt one signature byte
                sigs = list(base.certificate.signatures)
                victim = rng.randrange(len(sigs))
                signer, sig = sigs[victim]
                flipped = bytes([sig[0] ^ 0xFF]) + sig[1:]
                sigs[victim] = (signer, flipped)
                cert = QuorumCertificate(base.certificate.statement,
                                         tuple(sigs))
                proof = dataclasses.replace(base, certificate=cert)
        else:  # expire-tag
            proof = base
            height = base.tag.expiry_height + rng.randint(1, 1000)
        verdict, reason = tok_verify_proof(proof, proof.tag, config, height,
                                           verify)
        assert verdict == 0 and reason, (case, mutation)
        rejected += 1
    assert rejected == 10_000


def test_proof_serialization_is_linear_in_signer_count():
    """Byte length follows header + n * per-signature cost exactly."""
    sizes = {}
    for n in (4, 6, 8, 10):
        eco, included = _proof_fixture(seed=n, n=n)
        tag = issue_tag(eco, b"dst")
        proof = tok_generate_proof(eco, b"alice", b"src", included, tag)
        assert len(proof.certificate.signatures) == n
        sizes[n] = proof.size_bytes
    per_signer = (sizes[6] - sizes[4]) // 2
    header = sizes[4] - 4 * per_signer
    assert per_signer > 0 and header > 0
    for n, size in sizes.items():
        assert size == header + n * per_signer


# --- 9. growth scenario: rebalancing identity and violation incidence --------------------

# The split gate tests child .1's faulty count f1 of each division of a
# 20-validator chain with f faulty against the law of a uniform halving,
# H(20, f, 10), by two statistics: the sum of f1 - f/2 (a biased split) and
# the sum of (f1 - f/2)^2 less its exact mean under H (a split too even or
# too uneven). Each gate is exact: for a fixed lambda,
# exp(lambda * S - sum of log E exp(lambda * term)), with each expectation
# taken under H(20, f, 10) for that division's f, is a martingale of mean 1
# whatever f each division has, so by Markov's inequality and a union over
# the 16 lambdas a gate fires with probability at most SPLIT_FALSE_ALARM
# under a uniform halving. The two gates together spend the two-sided 4
# sigma rate, 6.3e-5.
SPLIT_FALSE_ALARM = 3.15e-5
SPLIT_LAMBDAS = tuple(sign * 0.005 * 2 ** k for sign in (1, -1)
                      for k in range(8))


def split_gate(pairs, n=20):
    """{statistic: (evidence, threshold, z)} over (f, f1) pairs: a gate
    rejects when its evidence, the largest lambda * S - sum of log-MGFs
    over SPLIT_LAMBDAS, reaches log(16 / SPLIT_FALSE_ALARM). z is S over
    its exact standard deviation under the law."""
    half = n // 2
    f, f1 = np.asarray(pairs).T
    laws = {}  # f -> (support, pmf, exact mean of (k - f/2)^2)
    for fv in np.unique(f).tolist():
        ks = np.arange(max(0, fv - half), min(fv, half) + 1)
        pmf = np.array([math.comb(fv, k) * math.comb(n - fv, half - k)
                        for k in ks.tolist()], float) / math.comb(n, half)
        laws[fv] = ks, pmf, float(pmf @ (ks - fv / 2) ** 2)
    terms = {"mean": lambda fv, k: k - fv / 2,
             "square": lambda fv, k: (k - fv / 2) ** 2 - laws[fv][2]}
    threshold = math.log(len(SPLIT_LAMBDAS) / SPLIT_FALSE_ALARM)
    count = {fv: int((f == fv).sum()) for fv in laws}
    gates = {}
    for name, term in terms.items():
        total = sum(term(fv, f1[f == fv]).sum() for fv in laws)
        evidence = max(
            lam * total - sum(count[fv] * math.log(pmf @ np.exp(lam * term(
                fv, ks))) for fv, (ks, pmf, _) in laws.items())
            for lam in SPLIT_LAMBDAS)
        variance = sum(count[fv] * (pmf @ term(fv, ks) ** 2)
                       for fv, (ks, pmf, _) in laws.items())
        gates[name] = (evidence, threshold, total / math.sqrt(variance))
    return gates


def test_growth_scenario_rebalances_and_matches_exact_incidence():
    """Over 10^3 seeds (7000 divisions): the rebalancing identity, the
    breach count within 4 sigma of the exact law, and the split gate.
    The gate rejects a split with Fisher odds 0.8 or 1.25 between the
    children (z about -15 and +16 on the mean) and one that is most even
    half the time, which halves the breach rate (z about -26 on the
    square); test_split_gate_rejects_each_stated_alternative feeds it
    seeded draws of each."""
    spec = parse_scenario(figure_scenario_text())
    beta_join = Fraction(1, 5)
    p_cache = {}
    expected = variance = 0.0
    observed = 0
    divisions_seen = 0
    splits = []  # (f, f1) of each division, f1 child .1's faulty count
    for seed in range(1000):
        report = run_scenario(spec, seed=seed)
        assert len(report.divisions) == 7
        assert len(report.final_chains) == 8
        # three generations of division actually happened
        assert any(chain.count(".") == 3 for chain, *_ in report.lineage)
        for divide in report.divisions:
            record = divide.fields
            n, f = record["n"], record["f"]
            assert n == 20
            assert Fraction(f, n) == (
                Fraction(record["f_birth"], record["n_birth"]) + beta_join) / 2
            divisions_seen += 1
            p = p_cache.get(f)
            if p is None:
                p = float(violation_probability_exact(
                    DivisionAnalysisParams(n, f, HALF)))
                p_cache[f] = p
            expected += p
            variance += p * (1 - p)
            observed += any(child[3] for child in record["children"])
            first = record["children"][0]
            assert first[0] == record["parent"] + b".1"
            splits.append((f, first[2]))
        # per-child bound flags agree with f_i >= n_i / 2 (alpha = 1/2)
        assert report.bound_violations == tuple(
            child for d in report.divisions for child in d.fields["children"]
            if 2 * child[2] >= child[1])
    assert divisions_seen == 7000
    assert abs(observed - expected) <= 4 * math.sqrt(variance)
    for name, (evidence, threshold, z) in split_gate(splits).items():
        assert evidence < threshold, (name, evidence, z)


def _growth_splits(draw, rng, runs=1000):
    """(f, f1) of each division in `runs` runs of figure1's tree with
    child .1's faulty count drawn by draw(f, rng): the root reaches 20 with
    f = 2, and each child's next block of 10 arrivals adds 2 faulty."""
    f = np.full(runs, 2)
    pairs = []
    for generation in range(3):
        f1 = draw(f, rng)
        pairs += zip(f.tolist(), f1.tolist())
        f = np.concatenate([f1, f - f1]) + 2
    return pairs


def _fisher(odds):
    return lambda f, rng: nchypergeom_fisher.rvs(20, f, 10, odds,
                                                 random_state=rng)


def _half_balanced(f, rng):
    """The most even split half the time, else a uniform halving."""
    even = f // 2 + (f % 2) * rng.integers(0, 2, len(f))
    return np.where(rng.random(len(f)) < 0.5, even,
                    rng.hypergeometric(f, 20 - f, 10))


@pytest.mark.parametrize("draw,statistic", [
    (lambda f, rng: rng.hypergeometric(f, 20 - f, 10), None),
    (_fisher(0.8), "mean"), (_fisher(1.25), "mean"),
    (_half_balanced, "square")], ids=["uniform", "odds-0.8", "odds-1.25",
                                      "half-balanced"])
def test_split_gate_rejects_each_stated_alternative(draw, statistic):
    # seeded draws of figure1's 7000 divisions: a uniform halving passes
    # both gates, and each alternative fails the gate it was sized for
    gates = split_gate(_growth_splits(draw, np.random.default_rng(21)))
    fired = {name for name, (evidence, threshold, _) in gates.items()
             if evidence >= threshold}
    assert fired == ({statistic} if statistic else set()), gates


# --- 10. CLI determinism -------------------------------------------------------------------


def _tree_bytes(root: Path) -> bytes:
    return b"".join(p.name.encode() + b"\0" + p.read_bytes()
                    for p in sorted(root.rglob("*")) if p.is_file())


def test_every_subcommand_is_byte_identical_across_runs(tmp_path, capsys):
    scenario = tmp_path / "figure1.mit"
    scenario.write_text(figure_scenario_text())

    def run_all(tag: str):
        base = tmp_path / tag
        outputs = []
        plans = [
            (["simulate", "--scenario", str(scenario), "--seed", "5",
              "--out", str(base / "sim")], 0),
            (["analyze", "--alpha", "1/2", "--n", "10,40", "--trials", "2000",
              "--seed", "9", "--out", str(base / "curves.csv")], 0),
            (["divide-demo", "--validators", "9", "--alpha", "1/3",
              "--seed", "3", "--out", str(base / "dd")], 0),
            (["xfer-demo", "--seed", "4", "--out", str(base / "xfer")], 0),
        ]
        for argv, want in plans:
            assert cli.main(argv) == want
            outputs.append(capsys.readouterr().out)
        assert cli.main(["verify-proof",
                         "--proof", str(base / "xfer" / "lock_proof.bin"),
                         "--registry", str(base / "xfer" / "registry.json")
                         ]) == 0
        outputs.append(capsys.readouterr().out)
        return "\n".join(outputs).replace(str(base), "BASE"), _tree_bytes(base)

    stdout_a, files_a = run_all("a")
    stdout_b, files_b = run_all("b")
    assert stdout_a == stdout_b
    assert files_a == files_b
