"""End-to-end checks of the command-line interface and its exit codes."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from splitchain import cli
from splitchain.manager import Event
from splitchain.scenario import MetricsReport

GROW = """
[scenario]
seed = 7
[chain root]
validators = 10
alpha = 1/2
n_max = 20
[join]
arrivals = 10
interval = 1
beta = 0
"""


def run_cli(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- imports -----------------------------------------------------------------------


def test_importing_the_cli_does_not_load_numpy():
    # only `analyze` needs splitchain.analysis, and with it numpy; a fresh
    # interpreter shows what importing the cli alone loads
    src = str(Path(cli.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    probe = ("import sys, splitchain.cli; "
             "print(sorted(m for m in ('numpy', 'splitchain.analysis') "
             "if m in sys.modules))")
    result = subprocess.run([sys.executable, "-c", probe], env=env,
                            capture_output=True, text=True, timeout=60,
                            check=True)
    assert result.stdout == "[]\n"


# --- analyze -----------------------------------------------------------------------


def test_analyze_golden_csv(tmp_path, capsys):
    out = tmp_path / "curves.csv"
    code, _, _ = run_cli(["analyze", "--alpha", "1/2", "--n", "10",
                          "--beta-steps", "5", "--out", str(out)], capsys)
    assert code == 0
    assert out.read_text() == (
        "n,alpha,beta,f,exact,bound_single,bound_combined\n"
        "10,1/2,0,0,0,0.0820849986238988,0.1641699972477976\n"
        "10,1/2,1/10,1,0,0.20189651799465538,0.40379303598931077\n"
        "10,1/2,1/5,2,0,0.4065696597405991,0.8131393194811982\n"
        "10,1/2,3/10,3,1/6,0.6703200460356393,1.3406400920712787\n"
        "10,1/2,2/5,4,11/21,0.9048374180359595,1.809674836071919\n"
    )


def test_analyze_monte_carlo_columns(capsys):
    code, out, _ = run_cli(["analyze", "--alpha", "1/2", "--n", "8",
                            "--beta-steps", "4", "--trials", "500",
                            "--seed", "3"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].endswith("mc_freq,mc_stderr")
    for line in lines[1:]:
        cells = line.split(",")
        assert len(cells) == 9
        float(cells[7]), float(cells[8])  # parse cleanly


@pytest.mark.parametrize("argv", [
    ["analyze", "--alpha", "3/2", "--n", "10"],
    ["analyze", "--alpha", "0", "--n", "10"],
    ["analyze", "--alpha", "1/2", "--n", "nope"],
    ["analyze", "--alpha", "1/2", "--n", ""],
    ["analyze", "--alpha", "1/2", "--n", "10", "--beta-steps", "0"],
    ["analyze", "--alpha", "1/2", "--n", "10", "--trials", "-5"],
])
def test_analyze_invalid_params_exit_2(argv, capsys):
    code, _, err = run_cli(argv, capsys)
    assert code == 2
    assert err.startswith("error:")


def test_unknown_flag_uses_usage_exit():
    with pytest.raises(SystemExit) as exc:
        cli.main(["analyze", "--alpha", "1/2", "--n", "10", "--frobnicate"])
    assert exc.value.code == 2


# --- simulate ----------------------------------------------------------------------


def test_simulate_writes_reports(tmp_path, capsys):
    scenario = tmp_path / "grow.mit"
    scenario.write_text(GROW)
    out = tmp_path / "run"
    code, stdout, _ = run_cli(["simulate", "--scenario", str(scenario),
                               "--out", str(out)], capsys)
    assert code == 0
    metrics = (out / "metrics.csv").read_text().splitlines()
    assert metrics[0] == "tick,chain_id,n,f,beta,divisions,messages"
    lineage = (out / "lineage.csv").read_text().splitlines()
    assert lineage[0] == "chain_id,parent_id,side,split_height"
    assert len(lineage) == 4  # root plus two children
    assert (out / "events.log").read_text().count("divide") == 1
    assert stdout == ("2 chains after 1 divisions; 420 messages; 0 chains"
                      " born beyond the fault bound\n")


def test_simulate_seed_override_changes_reports(tmp_path, capsys):
    # beta > 0 makes the reports seed-sensitive: the faulty arrivals land at
    # sampled positions, so the per-tick fault trajectory moves with the seed
    scenario = tmp_path / "fuzzy.mit"
    scenario.write_text(GROW.replace("beta = 0", "beta = 1/5\nblock = 10"))
    outs = []
    for seed in ("11", "12"):
        out = tmp_path / f"run{seed}"
        code, _, _ = run_cli(["simulate", "--scenario", str(scenario),
                              "--seed", seed, "--out", str(out)], capsys)
        assert code == 0
        outs.append((out / "metrics.csv").read_bytes()
                    + (out / "events.log").read_bytes())
    assert outs[0] != outs[1]


def test_simulate_repeats_byte_identical(tmp_path, capsys):
    scenario = tmp_path / "grow.mit"
    scenario.write_text(GROW)
    blobs = []
    for name in ("a", "b"):
        out = tmp_path / name
        code, _, _ = run_cli(["simulate", "--scenario", str(scenario),
                              "--seed", "5", "--out", str(out)], capsys)
        assert code == 0
        blobs.append(b"".join((out / f).read_bytes() for f in
                              ("metrics.csv", "lineage.csv", "events.log")))
    assert blobs[0] == blobs[1]


REPORTS = ("metrics.csv", "lineage.csv", "events.log")
SIMULATED = {
    "figure1": Path(cli.__file__).resolve().parent / "scenarios"
    / "figure1.mit",
    "adversarial": Path(__file__).resolve().parent.parent / "bench"
    / "adversarial.mit",
}
SIMULATE_PROBE = """
import sys
from splitchain import cli
out, *scenarios = sys.argv[1:]
for name, path in zip(scenarios[::2], scenarios[1::2]):
    assert cli.main(["simulate", "--scenario", path, "--seed", "3",
                     "--out", f"{out}/{name}"]) == 0
print(sorted(m for m in ("numpy", "splitchain.xchain") if m in sys.modules))
"""


@pytest.fixture(scope="module")
def hash_seeded_runs(tmp_path_factory):
    """hash seed -> (which of numpy and xchain were loaded, {scenario:
    report bytes}) for `simulate` on figure1 and adversarial at seed 3,
    each hash seed in one fresh interpreter."""
    src = str(Path(cli.__file__).resolve().parent.parent)
    runs = {}
    for hashseed in ("0", "1"):
        out = tmp_path_factory.mktemp(f"hashseed{hashseed}")
        env = {**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": hashseed}
        argv = [str(x) for pair in SIMULATED.items() for x in pair]
        result = subprocess.run(
            [sys.executable, "-c", SIMULATE_PROBE, str(out), *argv],
            env=env, capture_output=True, text=True, timeout=120, check=True)
        runs[hashseed] = (result.stdout.splitlines()[-1], {
            name: [(out / name / f).read_bytes() for f in REPORTS]
            for name in SIMULATED})
    return runs


def test_simulate_never_imports_numpy(hash_seeded_runs):
    # nor xchain: only xfer-demo and verify-proof import it
    assert [loaded for loaded, _ in hash_seeded_runs.values()] == ["[]"] * 2


def test_simulate_is_byte_identical_under_any_hash_seed(hash_seeded_runs):
    (_, first), (_, second) = hash_seeded_runs.values()
    assert first == second
    assert all(all(report) for reports in first.values()
               for report in reports)


def test_simulate_malformed_scenario_exit_2(tmp_path, capsys):
    scenario = tmp_path / "bad.mit"
    scenario.write_text("[scenario]\nseed = banana\n")
    code, _, err = run_cli(["simulate", "--scenario", str(scenario),
                            "--out", str(tmp_path / "x")], capsys)
    assert code == 2
    assert "line 2" in err


@pytest.mark.parametrize("source, fragment", [
    ("[scenario]\nlookback = 0\n[chain a]\nn_max = 4\n",
     "line 2: unknown [scenario] key 'lookback'"),
    ("[chain a]\nvalidators = 1\nn_max = 1\n",
     "line 1: chain 'a' needs n_max >= 2"),
    ("[chain a]\nvalidators = 4\n[faults]\na-v001 = crash 5 banana\n",
     "line 4: crash fault takes one optional tick"),
    ("[chain a]\nvalidators = 4\nclients = -1\nassets = 1\n",
     "line 1: chain 'a' needs clients and assets >= 0"),
    ("[chain a]\nvalidators = 4\nn_max = 8\n[join]\narrivals = -3\n",
     "line 4: join arrivals must be >= 0"),
    ("[chain a]\nvalidators = 4\n[chain b]\nvalidators = 4\n"
     "[fuse]\nat = -3\nleft = a\nright = b\n",
     "line 5: [fuse] at must be >= 0"),
    ("[chain a]\nvalidators = 4\n[faults]\na-v001 = crash -4\n",
     "line 4: crash time must be >= 0"),
    ("[chain a]\nvalidators = 4\nvalidators = 6\n",
     "line 3: second [chain] key 'validators'"),
    ("[chain a]\nvalidators = 4\n[faults]\na-v001 = crash\n"
     "a-v001 = byzantine withhold\n", "line 5: second fault for 'a-v001'"),
])
def test_simulate_rejects_unrunnable_settings_exit_2(tmp_path, capsys,
                                                     source, fragment):
    scenario = tmp_path / "bad.mit"
    scenario.write_text(source)
    code, _, err = run_cli(["simulate", "--scenario", str(scenario),
                            "--out", str(tmp_path / "x")], capsys)
    assert code == 2
    assert "Traceback" not in err and fragment in err


def test_simulate_missing_file_exit_2(tmp_path, capsys):
    code, _, err = run_cli(["simulate", "--scenario",
                            str(tmp_path / "missing.mit"),
                            "--out", str(tmp_path / "x")], capsys)
    assert code == 2
    assert "cannot read scenario" in err


def test_simulate_exit_3_on_observed_violation(tmp_path, capsys, monkeypatch):
    scenario = tmp_path / "grow.mit"
    scenario.write_text(GROW)
    # no valid scenario reaches a divergence yet, so the run is made up
    report = MetricsReport(
        metrics=(), lineage=(), messages_total=0, final_chains=(),
        events=(Event(3, "safety", {"error": "divergence on root"}),))
    monkeypatch.setattr(cli, "run_scenario", lambda spec, seed=None: report)
    out = tmp_path / "x"
    code, _, err = run_cli(["simulate", "--scenario", str(scenario),
                            "--out", str(out)], capsys)
    assert code == 3
    assert err == "error: safety violation: divergence on root\n"
    assert (out / "events.log").read_text() == (
        "[3] SAFETY VIOLATION: divergence on root\n")


@pytest.mark.parametrize("fuse,fragment", [
    ("left = a\nright = a", "with itself"),
    ("left = a\nright = b\nmerged = b", "already taken"),
])
def test_simulate_bad_fusion_exit_2(tmp_path, capsys, fuse, fragment):
    scenario = tmp_path / "fuse.mit"
    scenario.write_text(f"[chain a]\n[chain b]\n[fuse]\n{fuse}\n")
    code, _, err = run_cli(["simulate", "--scenario", str(scenario),
                            "--out", str(tmp_path / "x")], capsys)
    assert code == 2
    assert "Traceback" not in err and "line 3" in err and fragment in err


def test_simulate_fusion_default_id_taken_exit_2(tmp_path, capsys):
    scenario = tmp_path / "fuse.mit"
    scenario.write_text("[chain a]\n[chain b]\n[chain a+b]\n"
                        "[fuse]\nleft = a\nright = b\n")
    code, _, err = run_cli(["simulate", "--scenario", str(scenario),
                            "--out", str(tmp_path / "x")], capsys)
    assert code == 2
    assert "Traceback" not in err and "line 4" in err
    assert "'a+b' is already taken" in err


def test_simulate_fusion_into_divided_child_exit_0(tmp_path, capsys):
    # chain A divides at start, so the merged id A.1 is taken at tick 2
    scenario = tmp_path / "fuse.mit"
    scenario.write_text("""
[chain A]
validators = 4
n_max = 4
[chain B]
validators = 3
n_max = 64
[chain C]
validators = 3
n_max = 64
[fuse]
at = 2
left = B
right = C
merged = A.1
""")
    out = tmp_path / "run"
    code, stdout, err = run_cli(["simulate", "--scenario", str(scenario),
                                 "--out", str(out)], capsys)
    assert code == 0
    assert err == "" and stdout.startswith("4 chains after 1 divisions")
    events = (out / "events.log").read_text().splitlines()
    assert "[2] fusion B+C failed: chain A.1 already exists" in events


def test_simulate_division_into_taken_child_id_exit_0(tmp_path, capsys):
    # chain a starts at its trigger, but its child id a.1 is declared
    scenario = tmp_path / "collide.mit"
    scenario.write_text("""
[chain a]
validators = 4
n_max = 4
[chain a.1]
validators = 3
""")
    out = tmp_path / "run"
    code, stdout, err = run_cli(["simulate", "--scenario", str(scenario),
                                 "--out", str(out)], capsys)
    assert code == 0
    assert err == "" and stdout.startswith("2 chains after 0 divisions")
    events = (out / "events.log").read_text().splitlines()
    assert "[0] division of a failed: chain a.1 already exists" in events
    assert (out / "lineage.csv").read_text() == (
        "chain_id,parent_id,side,split_height\na,,0,0\na.1,,0,0\n")


def test_simulate_stall_exit_4_with_reports(tmp_path, capsys):
    # alpha=1/2, n=4: quorum 2, and three crashed validators leave one vote
    scenario = tmp_path / "stall.mit"
    scenario.write_text("""
[chain root]
validators = 4
alpha = 1/2
[join]
arrivals = 1
[faults]
root-v001 = crash 0
root-v002 = crash 0
root-v003 = crash 0
""")
    out = tmp_path / "run"
    code, _, err = run_cli(["simulate", "--scenario", str(scenario),
                            "--out", str(out)], capsys)
    assert code == 4
    assert "Traceback" not in err and "no quorum" in err
    events = (out / "events.log").read_text().splitlines()
    assert events[-1] == "[1] stall chain=root height=1"
    metrics = (out / "metrics.csv").read_text().splitlines()
    assert metrics[1:] == ["0,root,4,3,3/4,0,0"]
    assert (out / "lineage.csv").read_text() == (
        "chain_id,parent_id,side,split_height\nroot,,0,0\n")


def test_failed_division_and_stall_name_the_chain_as_the_log_does(tmp_path,
                                                                   capsys):
    # alpha=1/3, n=4: quorum 3, and two crashes at tick 1 leave two acks
    # and two votes
    scenario = tmp_path / "crash.mit"
    scenario.write_text("""
[chain a]
validators = 4
alpha = 1/3
kind = bft
n_max = 4
[faults]
a-v002 = crash 1
a-v003 = crash 1
[join]
arrivals = 2
""")
    out = tmp_path / "run"
    code, _, err = run_cli(["simulate", "--scenario", str(scenario),
                            "--out", str(out)], capsys)
    assert code == 4
    assert err == "error: run stopped early: chain a: no quorum at height 1\n"
    assert (out / "events.log").read_text().splitlines()[1:] == [
        "[2] division of a failed: division of a gathered no quorum "
        "(need 3 acks, most held 2)",
        "[2] stall chain=a height=1"]


def test_simulate_fusion_without_quorum_exit_0(tmp_path, capsys):
    # both validators of chain a crash at tick 1; the fusion at tick 4
    # cannot collect a's certificate
    scenario = tmp_path / "fuse.mit"
    scenario.write_text("""
[chain a]
validators = 2
n_max = 64
[chain b]
validators = 3
n_max = 64
[faults]
a-v000 = crash 1
a-v001 = crash 1
[fuse]
at = 4
left = a
right = b
""")
    out = tmp_path / "run"
    code, stdout, err = run_cli(["simulate", "--scenario", str(scenario),
                                 "--out", str(out)], capsys)
    assert code == 0
    assert err == "" and stdout.startswith("2 chains after 0 divisions")
    events = (out / "events.log").read_text().splitlines()
    assert "[4] fusion a+b failed: 0 of 1 required signatures" in events


# --- demos -------------------------------------------------------------------------


def test_divide_demo_prints_message_count(tmp_path, capsys):
    out = tmp_path / "dd"
    code, stdout, _ = run_cli(["divide-demo", "--validators", "7",
                               "--alpha", "1/3", "--seed", "2",
                               "--out", str(out)], capsys)
    assert code == 0
    assert "7 proposals + 49 acknowledgements" in stdout
    assert (out / "lineage.csv").read_text().splitlines()[0] == \
        "chain_id,parent_id,side,split_height"
    # the two rosters partition the original seven validators
    rosters = [line.split(": ")[1].split(", ")
               for line in stdout.splitlines() if line.startswith("  demo.")]
    names = sorted(name for roster in rosters for name in roster)
    assert names == [f"v{i:03d}" for i in range(7)]


def test_divide_demo_lineage_bytes_are_pinned(tmp_path, capsys):
    out = tmp_path / "dd"
    code, _, _ = run_cli(["divide-demo", "--validators", "7", "--alpha", "1/3",
                          "--seed", "2", "--out", str(out)], capsys)
    assert code == 0
    assert (out / "lineage.csv").read_bytes() == (
        b"chain_id,parent_id,side,split_height\n"
        b"demo,,0,0\ndemo.1,demo,1,0\ndemo.2,demo,2,0\n")
    assert (out / "events.log").read_bytes() == (
        b"[0] create chain=demo n=7\n"
        b"[2] divide parent=demo n=7 f=0 -> demo.1(n=4,f=0), demo.2(n=3,f=0)\n")


def test_divide_demo_bad_alpha_exit_2(capsys):
    code, _, err = run_cli(["divide-demo", "--alpha", "zero"], capsys)
    assert code == 2
    assert err.startswith("error:")


@pytest.mark.parametrize("argv", [["--validators", "1"],
                                  ["--validators", "0"],
                                  ["--validators", "-3"],
                                  ["--alpha", "2/3"]])
def test_divide_demo_unrunnable_chain_exit_2(argv, capsys):
    code, _, err = run_cli(["divide-demo"] + argv, capsys)
    assert code == 2
    assert err.startswith("error:") and "Traceback" not in err


def test_xfer_demo_completes_transfer(tmp_path, capsys):
    out = tmp_path / "xfer"
    code, stdout, _ = run_cli(["xfer-demo", "--seed", "1",
                               "--out", str(out)], capsys)
    assert code == 0
    assert "resolve on src: claimed" in stdout
    assert "owner bob" in stdout
    registry = json.loads((out / "registry.json").read_text())
    assert bytes.fromhex(registry["chain"]) == b"src"
    assert len(registry["validators"]) == 4
    assert (out / "lock_proof.bin").stat().st_size > 0


# SHA-256 of every `xfer-demo --seed 0` output. A change to the proof or
# registry format changes these on purpose, and must re-record them.
XFER_SEED0_SHA256 = {
    "lock_proof.bin":
        "85226bb6f89d442c9ec405895f825efecbc3cbf86e1df2ba2fe4bbc6c7f4add2",
    "registry.json":
        "faf457950609d43200df0ce86ba6b03ad2c7e0f85ee2949477bc9d91ef4a55d6",
    "transfer.log":
        "21bbf14c27503cdd9762436252b4acf513290752774f5e53f93bb76a57b2cf1e",
}


def test_xfer_demo_bytes_are_pinned(tmp_path, capsys):
    out = tmp_path / "xfer"
    assert run_cli(["xfer-demo", "--seed", "0", "--out", str(out)],
                   capsys)[0] == 0
    assert {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in XFER_SEED0_SHA256} == XFER_SEED0_SHA256


def test_demo_outputs_are_byte_identical_across_runs(tmp_path, capsys):
    blobs = []
    for name in ("a", "b"):
        out = tmp_path / name
        code, _, _ = run_cli(["xfer-demo", "--seed", "9", "--out", str(out)],
                             capsys)
        assert code == 0
        blobs.append((out / "lock_proof.bin").read_bytes()
                     + (out / "registry.json").read_bytes()
                     + (out / "transfer.log").read_bytes())
    assert blobs[0] == blobs[1]


# --- seeds and output paths --------------------------------------------------------

SEED_COMMANDS = [
    ["analyze", "--alpha", "1/2", "--n", "10", "--trials", "10"],
    ["divide-demo"],
    ["xfer-demo"],
    ["simulate"],
]


def _with_seed(argv, seed, tmp_path):
    argv = argv + ["--seed", str(seed)]
    if argv[0] == "simulate":
        scenario = tmp_path / "grow.mit"
        scenario.write_text(GROW)
        argv += ["--scenario", str(scenario)]
    if argv[0] != "analyze":
        argv += ["--out", str(tmp_path / "out")]
    return argv


@pytest.mark.parametrize("seed", [2**127, -2**127 - 1, 10**40])
@pytest.mark.parametrize("argv", SEED_COMMANDS, ids=lambda a: a[0])
def test_seed_outside_the_derivable_range_exit_2(tmp_path, capsys, argv,
                                                 seed):
    with pytest.raises(SystemExit) as exc:
        cli.main(_with_seed(argv, seed, tmp_path))
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"seed must lie in [-2**127, 2**127 - 1], got {seed}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("seed", [2**127 - 1, -2**127])
@pytest.mark.parametrize("argv", SEED_COMMANDS, ids=lambda a: a[0])
def test_seeds_at_both_ends_of_the_range_exit_0(tmp_path, capsys, argv, seed):
    assert run_cli(_with_seed(argv, seed, tmp_path), capsys)[0] == 0


def test_simulate_scenario_seed_outside_the_range_exit_2(tmp_path, capsys):
    scenario = tmp_path / "big.mit"
    scenario.write_text(GROW.replace("seed = 7", f"seed = {2**127}"))
    code, _, err = run_cli(["simulate", "--scenario", str(scenario),
                            "--out", str(tmp_path / "x")], capsys)
    assert code == 2
    assert f"line 3: seed must lie in [-2**127, 2**127 - 1], got {2**127}" \
        in err


def test_analyze_unwritable_out_exit_2(tmp_path, capsys):
    out = tmp_path / "missing" / "x.csv"
    code, _, err = run_cli(["analyze", "--alpha", "1/2", "--n", "10",
                            "--out", str(out)], capsys)
    assert code == 2
    assert err.startswith(f"error: cannot write {out}: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [["divide-demo"], ["xfer-demo"], ["simulate"]],
                         ids=lambda a: a[0])
def test_out_under_a_regular_file_exit_2(tmp_path, capsys, argv):
    blocker = tmp_path / "file"
    blocker.write_text("")
    argv = _with_seed(argv, 0, tmp_path)
    argv[argv.index("--out") + 1] = str(blocker / "out")
    code, _, err = run_cli(argv, capsys)
    assert code == 2
    assert err.startswith(f"error: cannot write {blocker / 'out'}: ")
    assert "Traceback" not in err


# --- verify-proof ------------------------------------------------------------------


@pytest.fixture()
def proof_files(tmp_path, capsys):
    out = tmp_path / "xfer"
    assert run_cli(["xfer-demo", "--out", str(out)], capsys)[0] == 0
    return out / "lock_proof.bin", out / "registry.json"


def test_verify_proof_accepts_fresh_proof(proof_files, capsys):
    proof, registry = proof_files
    code, stdout, _ = run_cli(["verify-proof", "--proof", str(proof),
                               "--registry", str(registry)], capsys)
    assert code == 0
    assert stdout.strip() == "verdict 1"


def test_verify_proof_stale_height_exit_1(proof_files, capsys):
    proof, registry = proof_files
    code, stdout, _ = run_cli(["verify-proof", "--proof", str(proof),
                               "--registry", str(registry),
                               "--height", "100000"], capsys)
    assert code == 1
    assert "stale tag" in stdout


def test_verify_proof_quorum_shortfall_names_quorum(proof_files, tmp_path,
                                                    capsys):
    proof, registry = proof_files
    data = json.loads(registry.read_text())
    # a bigger roster raises the quorum above the four collected signatures
    for i in range(5):
        fake = b"ghost%d" % i
        data["validators"].append({"id": fake.hex(),
                                   "public_key": (b"pk" + fake).hex(),
                                   "verification_key": (b"k" + fake).hex()})
    bigger = tmp_path / "bigger.json"
    bigger.write_text(json.dumps(data))
    code, stdout, _ = run_cli(["verify-proof", "--proof", str(proof),
                               "--registry", str(bigger)], capsys)
    assert code == 1
    assert "quorum" in stdout


def test_verify_proof_tampered_key_exit_1(proof_files, tmp_path, capsys):
    proof, registry = proof_files
    data = json.loads(registry.read_text())
    key = bytearray.fromhex(data["validators"][0]["verification_key"])
    key[0] ^= 0xFF
    data["validators"][0]["verification_key"] = bytes(key).hex()
    tampered = tmp_path / "tampered.json"
    tampered.write_text(json.dumps(data))
    code, stdout, _ = run_cli(["verify-proof", "--proof", str(proof),
                               "--registry", str(tampered)], capsys)
    assert code == 1
    assert "invalid signature" in stdout


def test_verify_proof_zero_denominator_alpha_exit_2(proof_files, tmp_path,
                                                   capsys):
    proof, registry = proof_files
    data = json.loads(registry.read_text())
    data["alpha"] = "1/0"
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps(data))
    code, stdout, err = run_cli(["verify-proof", "--proof", str(proof),
                                 "--registry", str(broken)], capsys)
    assert code == 2 and stdout == ""
    assert "cannot parse registry" in err


def test_verify_proof_unparseable_inputs_exit_2(proof_files, tmp_path, capsys):
    proof, registry = proof_files
    code, _, err = run_cli(["verify-proof", "--proof", str(registry),
                            "--registry", str(registry)], capsys)
    assert code == 2 and "cannot parse proof" in err
    garbage = tmp_path / "garbage.json"
    garbage.write_text("{\"validators\": 3}")
    code, _, err = run_cli(["verify-proof", "--proof", str(proof),
                            "--registry", str(garbage)], capsys)
    assert code == 2 and "cannot parse registry" in err
    # the same proof with one zero byte appended inside the predicate field
    raw = proof.read_bytes()
    size = int.from_bytes(raw[:4], "big")
    padded = tmp_path / "padded.bin"
    padded.write_bytes((size + 1).to_bytes(4, "big") + raw[4:4 + size]
                       + b"\x00" + raw[4 + size:])
    code, stdout, err = run_cli(["verify-proof", "--proof", str(padded),
                                 "--registry", str(registry)], capsys)
    assert code == 2 and stdout == ""
    assert "cannot parse proof: trailing bytes after predicate" in err
