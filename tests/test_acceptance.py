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

import pytest

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
from splitchain.model import Asset, Role, quorum_size
from splitchain.scenario import parse_scenario, run_scenario
from splitchain.xchain import (
    AssetOwnedBy,
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
        outcome = assign_randomized(members, derive_seed(
            "assign-tv", i).to_bytes(8, "big"))
        counts[sum(1 for v in outcome.v1 if v in faulty)] += 1
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
        left, right = eco.divide_chain(b"root")
        l_sim, r_sim = eco.chains[left.chain_id], eco.chains[right.chain_id]

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
    return eco


def test_fuzzed_proofs_rejected_and_honest_proofs_accepted():
    eco = _proof_fixture()
    config = eco.chains[b"src"].config
    pk_of, scheme = eco.registry.pk_of, eco.scheme

    honest = []
    for i in range(64):
        tag = issue_tag(eco, b"dst")
        proof = tok_generate_proof(eco, b"alice", b"src",
                                   AssetOwnedBy(b"coin", b"alice"), tag)
        honest.append(proof)

    for case in range(10_000):
        verdict, reason = tok_verify_proof(
            honest[case % len(honest)], honest[case % len(honest)].tag,
            config, honest[case % len(honest)].tag.issued_height,
            pk_of, scheme)
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
                predicate = AssetOwnedBy(b"coin", b"mallory")
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
                                           pk_of, scheme)
        assert verdict == 0 and reason, (case, mutation)
        rejected += 1
    assert rejected == 10_000


def test_proof_serialization_is_linear_in_signer_count():
    """Byte length follows header + n * per-signature cost exactly."""
    sizes = {}
    for n in (4, 6, 8, 10):
        eco = _proof_fixture(seed=n, n=n)
        tag = issue_tag(eco, b"dst")
        proof = tok_generate_proof(eco, b"alice", b"src",
                                   AssetOwnedBy(b"coin", b"alice"), tag)
        assert len(proof.certificate.signatures) == n
        sizes[n] = proof.size_bytes
    per_signer = (sizes[6] - sizes[4]) // 2
    header = sizes[4] - 4 * per_signer
    assert per_signer > 0 and header > 0
    for n, size in sizes.items():
        assert size == header + n * per_signer


# --- 9. growth scenario: rebalancing identity and violation incidence --------------------


def test_growth_scenario_rebalances_and_matches_exact_incidence():
    spec = parse_scenario(figure_scenario_text())
    beta_join = Fraction(1, 5)
    p_cache = {}
    expected = variance = 0.0
    observed = 0
    doublings_seen = 0
    for seed in range(1000):
        report = run_scenario(spec, seed=seed)
        assert len(report.divisions) == 7
        assert len(report.final_chains) == 8
        # three generations of division actually happened
        assert any(chain.count(".") == 3 for chain, *_ in report.lineage)
        for d in report.doublings:
            assert d.n_division == 20
            assert d.beta_division == (d.beta_birth + beta_join) / 2
            doublings_seen += 1
        for record in report.divisions:
            p = p_cache.get(record.f)
            if p is None:
                p = float(violation_probability_exact(
                    DivisionAnalysisParams(record.n, record.f, HALF)))
                p_cache[record.f] = p
            expected += p
            variance += p * (1 - p)
            observed += record.any_violation
        # per-child bound bookkeeping agrees with the division records
        assert len(report.bound_violations) == sum(
            child[3] for rec in report.divisions for child in rec.children)
    assert doublings_seen == 7000
    assert abs(observed - expected) <= 4 * math.sqrt(variance)


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
