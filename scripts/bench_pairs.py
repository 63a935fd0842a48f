"""Compare two source trees of splitchain side by side and write one JSON file.

    python3 scripts/bench_pairs.py PARENT_DIR CHANGE_DIR OUT.json [--seed 7]

PARENT_DIR and CHANGE_DIR are two checkouts (for example made with
``git archive``), each holding ``src/`` and ``bench/``. The script

* deletes every ``__pycache__`` under both trees and runs every child
  process with ``PYTHONDONTWRITEBYTECODE=1``, so both sides compile their
  imports afresh and start in the same bytecode state;
* runs each tree's own ``bench/run.py``, at its own default run length, in
  PAIRS alternating pairs per workload (which side runs first alternates
  too) on the given seed; it records every run's end-to-end metrics and
  each side's medians, quartiles and pair wins, the median of the per-pair
  change/parent ratios and a two-sided sign-test p-value of the wins;
* gives each end-to-end metric of each workload a verdict, against the
  metric's bound in the repository's ``BENCHMARK.json`` (read, never
  written): ``gain`` when the change wins at least nine tenths of the pairs
  and the medians differ by more than the parent's interquartile range;
  ``unresolved`` when the parent's own interquartile range, relative to its
  median, is wider than the bound and some run of the change reads no
  better than some run of the parent; ``within_bound`` when the change's
  median is no worse than the parent's by more than the bound; otherwise
  ``regression``;
* hashes the ``analyze`` CSV of each tree at α ∈ {1/2, 1/3, 1/4, 2/5}:
  n = 10,40,50,100 with 10⁵ Monte Carlo trials and n = 200,1000,4000 with
  10⁴ trials, each on seed 0 and on the given seed, and n = 1000,2000,4000
  and n = 10000 exact only;
* hashes every output of ``simulate`` (figure1 seeds 0–29, the bench's
  adversarial.mit seeds 0–7), ``divide-demo`` (seeds 0, 1 and 7, and 300
  validators) and ``xfer-demo``, each run in a fresh directory with the
  same relative paths, so the bytes of both trees can be compared: per run,
  one hash of its exit code, stdout, stderr and report files, and one of
  the report files alone, so ``outputs_equal`` reads every byte and
  ``reports_equal`` still shows whether a report moved when stdout changes
  on purpose;
* counts, on the bench's sweep grid, the points per n whose breach event the
  support of f₁ decides (``DivisionAnalysisParams.decided_breach``);
* times each op of one sweep pass per tree, to show which grid points sit at
  the median op;
* times ``divide_chain`` of a fresh n-validator chain, n ∈ {300, 1000},
  DIVISION_REPEATS times in each fresh interpreter, in DIVISION_PAIRS
  alternating pairs of interpreters per n; each division's CPU time is
  also reported at the reference speed of the tree's own
  ``bench/calibration.py`` (raw seconds × REFERENCE_S / the mean of the
  ``interpreter`` loop timed just before and just after it), so a host
  that slows down between divisions does not read as a slower division;
  each run reports the median of its divisions, raw and at reference
  speed (so one slow division, a fraction of a second at n = 300, does
  not decide a run), the messages one division sends and the peak RSS,
  and the summary holds each side's medians and, at reference speed, the
  median of the per-pair ratios and the change's wins, since no benchmark
  workload runs a division at that size;
* times, in COLD_START_PAIRS alternating pairs of fresh interpreters, the
  CPU time of ``import splitchain.cli`` and of that import plus one
  ``simulate`` of figure1 at seed 0, raw and at the reference speed of the
  tree's own ``bench/calibration.py``, with each side's medians and
  quartiles and the change's wins, since no bench workload times the CLI;
* times, in EXACT_PAIRS alternating pairs in this interpreter (both trees'
  ``splitchain.analysis`` imported side by side, as for the interleaved
  runs below), each point of an exact-only sweep over the default ten-point
  grid at α = 1/2 for n ∈ EXACT_SIZES, after one untimed sweep per tree;
  per point it reports each side's median CPU time, the median of the
  per-pair speedups parent/change, the change's wins and whether the
  support decides the point, and per n the least speedup of a point the
  support leaves open, since the sweep workload's median op is a decided
  point and no workload runs n = 10⁴;
* makes one traced run (``--trace 1``) per workload and tree, and records
  its per-layer metrics (call counts, self times, the Monte Carlo cost per
  10⁵ trials), to show in which layer a saving appears; per workload,
  ``trace_calls_equal`` is true when both trees made the same calls per
  layer (every ``*.calls`` metric and ``netsim.dropped`` match);
* runs ``growth`` and ``adversarial`` interleaved in this interpreter:
  both trees' ``splitchain`` packages are imported side by side under
  distinct names (their modules import one another relatively), and on
  each held-out scenario seed (the ones the bench's ``--seed`` visits) the
  two trees run the op of ``bench/workloads.py``'s ScenarioWorkload in
  turn, the first side alternating seed by seed; per workload it records
  whether every seed's outputs match, each op's CPU time, the median of the
  per-seed ratios parent CPU / change CPU (above 1: the change is faster),
  the change's wins and their two-sided sign-test p-value. Seed by seed the
  two trees see the same host, so this resolves gains of a few percent
  that the pairs of whole runs cannot;
* counts the lines of every ``.py`` file under ``src/`` and ``demos/`` of
  each tree, per directory and per file, and the change's net lines against
  the parent, per directory and per file that differs.

The JSON records the command that wrote it, with every option spelled out.
"""

import argparse
import hashlib
import importlib
import importlib.util
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

PAIRS = 10  # per workload: the fewest pairs a gain or a regression rests on
DIVISION_PAIRS = 5  # per division size
DIVISION_REPEATS = 7  # divisions timed per interpreter; the median counts
DIVISION_SIZES = (300, 1000)
WIN_SHARE = 0.9  # of the pairs a change must win to claim a gain
WORKLOADS = ("sweep", "growth", "adversarial", "transfer")
# interleaved seeds per scenario workload, and each tree's scenario file
INTERLEAVED = {"growth": (240, "src/splitchain/scenarios/figure1.mit"),
               "adversarial": (120, "bench/adversarial.mit")}
STRIDE = 1 << 20  # bench/workloads.py: run seed s visits s * STRIDE + i

BENCHMARK = json.loads(
    (Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
# end-to-end metric -> (True when higher is better, relative bound)
METRICS = {m["name"]: (m["better"] == "higher", m["bound"])
           for m in BENCHMARK["end_to_end"]}
PER_LAYER = [m["name"] for m in BENCHMARK["per_layer"]]

# Runs in a child interpreter with PYTHONPATH=<tree>/src: the breach
# events the support decides per n of the sweep workload's grid, and the
# CPU time of each of that grid's ops (sweep_curves + sweep_csv, as
# bench/workloads.SweepWorkload.run does them).
GRID_PROBE = r"""
import json, sys, time
sys.path.insert(0, sys.argv[1])
from workloads import SweepWorkload
from splitchain import analysis, cli
w = SweepWorkload()
w.setup(int(sys.argv[2]))
alpha = w.alpha
decided = {}
for n, beta in w.grid:
    d = analysis.DivisionAnalysisParams(n, round(beta * n), alpha)
    if d.decided_breach() is not None:
        decided[n] = decided.get(n, 0) + 1
times = []
entries = next(iter(w.chunks()))
w.run(entries[0])  # warm up
for entry in entries:
    start = time.thread_time()
    w.run(entry)
    times.append((time.thread_time() - start,
                  f"n={entry[0]} beta={entry[1]}"
                  + (" mc" if entry[2] is not None else "")))
print(json.dumps({"decided_per_n": decided, "op_s": times}))
"""


# Runs in a child interpreter with PYTHONPATH=<tree>/src: argv[2] divisions,
# each of a fresh chain of argv[1] validators, with the CPU time of each
# division (the division only), raw and at the reference speed of the
# calibration loop in argv[3] (the tree's bench/), and their medians, the
# messages one division sends, its children's sizes and the process's peak
# RSS.
DIVISION_PROBE = r"""
import json, resource, statistics, sys, time
sys.path.insert(0, sys.argv[3])
from calibration import SpeedProbe
from splitchain.manager import Ecosystem
from splitchain.model import Role
n, repeats = int(sys.argv[1]), int(sys.argv[2])
probe = SpeedProbe("interpreter")
runs, ref_runs, sent = [], [], set()
for _ in range(repeats):
    eco = Ecosystem(seed=0)
    validators = [b"v%04d" % i for i in range(n)]
    for v in validators:
        eco.register_user(v, Role.VALIDATOR)
    eco.create_chain(b"root", validators, n_max=n)
    before = eco.network.messages_sent
    loop_s = probe.sample()
    start = time.process_time()
    c1, c2 = eco.divide_chain(b"root")
    runs.append(time.process_time() - start)
    loop_s = (loop_s + probe.sample()) / 2
    ref_runs.append(runs[-1] * probe.reference / loop_s)
    sent.add(eco.network.messages_sent - before)
    children = [len(c1.validators), len(c2.validators)]
    del eco, c1, c2  # freed before the next chain: peak RSS is one division's
assert len(sent) == 1, sent  # every division sends the same messages
print(json.dumps({
    "cpu_s": round(statistics.median(runs), 4),
    "cpu_s_runs": [round(t, 4) for t in runs],
    "ref_s": round(statistics.median(ref_runs), 4),
    "ref_s_runs": [round(t, 4) for t in ref_runs],
    "messages_sent": sent.pop(),
    "children": children,
    "peak_rss_mb": round(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)}))
"""


# Runs in a child interpreter with PYTHONPATH=<tree>/src: the CPU time of
# `import splitchain.cli` and of one `simulate` of the scenario in argv[1]
# at seed 0 into argv[2], raw and at the reference speed of the calibration
# loop in argv[3] (the tree's bench/), timed just after the run.
COLD_START_PROBE = r"""
import json, sys, time
sys.path.insert(0, sys.argv[3])
from calibration import SpeedProbe
start = time.process_time()
import splitchain.cli
imported = time.process_time()
code = splitchain.cli.main(["simulate", "--scenario", sys.argv[1],
                            "--seed", "0", "--out", sys.argv[2]])
done = time.process_time()
probe = SpeedProbe("interpreter")
scale = probe.reference / probe.sample()
print(json.dumps({"exit": code, "import_s": imported - start,
                  "total_s": done - start,
                  "ref_import_s": (imported - start) * scale,
                  "ref_total_s": (done - start) * scale}))
"""
COLD_START_PAIRS = 10
COLD_START_KEYS = ("import_s", "total_s", "ref_import_s", "ref_total_s")
EXACT_PAIRS = 10
EXACT_SIZES = (1000, 4000, 10_000)


def child_env(tree: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["PYTHONPATH"] = str(tree / "src")
    return env


def purge_bytecode(tree: Path) -> None:
    for cache in tree.rglob("__pycache__"):
        shutil.rmtree(cache)


def bench_run(tree: Path, workload: str, seed: int,
              trace: bool = False) -> dict:
    """The end-to-end metrics of one run, or with ``trace`` the per-layer
    metrics of one traced run."""
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload,
         "--seed", str(seed), "--trace", str(int(trace))],
        cwd=tree, env=child_env(tree), capture_output=True, text=True,
        timeout=900, check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    metrics = result["metrics"]
    run = {key: round(metrics[key]["value"], 4)
           for key in (PER_LAYER if trace else METRICS) if key in metrics}
    run["attempted"] = result["attempted"]
    run["failed"] = result["failed"]
    run["correct"] = result["correct"]
    return run


def quartiles(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return round(q1, 4), round(median, 4), round(q3, 4)


def verdict(parent: list, change: list, higher: bool, bound: float) -> str:
    """gain, unresolved, within_bound or regression; see the module doc."""
    sign = 1 if higher else -1
    parent = [sign * p for p in parent]  # from here on, larger is better
    change = [sign * c for c in change]
    q1, median, q3 = statistics.quantiles(parent, n=4, method="inclusive")
    gap = statistics.median(change) - median
    won = sum(c > p for p, c in zip(parent, change))
    if won >= WIN_SHARE * len(parent) and gap > q3 - q1:
        return "gain"
    if q3 - q1 > bound * abs(median) and min(change) <= max(parent):
        return "unresolved"
    return "within_bound" if gap >= -bound * abs(median) else "regression"


def pair_stats(parent: list, change: list, higher: bool) -> dict:
    """The median of the per-pair ratios change/parent, and the two-sided
    sign-test p-value of the change's pair wins against its losses (ties
    count for neither). Each reads a pair on its own, so a host that drifts
    between pairs moves them less than it moves the ratio of the medians."""
    ratios = [c / p for p, c in zip(parent, change)]
    won = sum((c > p) if higher else (c < p) for p, c in zip(parent, change))
    untied = sum(c != p for p, c in zip(parent, change))
    tail = sum(math.comb(untied, k)
               for k in range(min(won, untied - won) + 1))
    return {"pair_ratio_median": round(statistics.median(ratios), 4),
            "sign_test_p": round(min(1.0, 2 * tail / 2 ** untied), 4)}


def summarise(pairs: list) -> dict:
    out = {}
    for key, (higher, bound) in METRICS.items():
        parent = [p["parent"][key] for p in pairs]
        change = [p["change"][key] for p in pairs]
        pq1, pmed, pq3 = quartiles(parent)
        cq1, cmed, cq3 = quartiles(change)
        won = sum((c > p) if higher else (c < p)
                  for p, c in zip(parent, change))
        out[key] = {"parent_median": pmed, "change_median": cmed,
                    "parent_q1_q3": [pq1, pq3], "change_q1_q3": [cq1, cq3],
                    "parent_iqr": round(pq3 - pq1, 4),
                    "change_won": won, "pairs": len(pairs), "bound": bound,
                    **pair_stats(parent, change, higher),
                    "verdict": verdict(parent, change, higher, bound)}
    out["failed"] = {side: sum(p[side]["failed"] for p in pairs)
                     for side in ("parent", "change")}
    return out


def pair_order(i: int) -> tuple:
    """The sides of the i-th pair in run order; the first side alternates."""
    return ("parent", "change") if i % 2 == 0 else ("change", "parent")


def run_pairs(trees: dict, workload: str, count: int, seed: int) -> dict:
    pairs = []
    for i in range(count):
        order = pair_order(i)
        pair = {"first": order[0]}
        for side in order:
            pair[side] = bench_run(trees[side], workload, seed)
        pairs.append(pair)
        print(f"{workload} pair {i + 1}/{count}:"
              f" parent {pair['parent']['throughput_ops_s']}"
              f" change {pair['change']['throughput_ops_s']} ops/s",
              file=sys.stderr)
    return {"runs": pairs, "summary": summarise(pairs)}


def analyze_hashes(tree: Path, held_out: int) -> dict:
    """sha256 of stdout, stderr and exit code per analyze run."""
    runs = [(n_list, trials, seed)
            for n_list, trials in (("10,40,50,100", 100_000),
                                   ("200,1000,4000", 10_000))
            for seed in (0, held_out)]
    runs += [("1000,2000,4000", 0, 0), ("10000", 0, 0)]
    hashes = {}
    for alpha in ("1/2", "1/3", "1/4", "2/5"):
        for n_list, trials, seed in runs:
            argv = ["analyze", "--alpha", alpha, "--n", n_list,
                    "--trials", str(trials), "--seed", str(seed),
                    "--out", "-"]
            done = subprocess.run(
                [sys.executable, "-m", "splitchain.cli", *argv],
                env=child_env(tree), capture_output=True, timeout=900)
            digest = hashlib.sha256(
                done.stdout + b"\0" + done.stderr + b"\0"
                + str(done.returncode).encode()).hexdigest()
            hashes[f"alpha={alpha} n={n_list} trials={trials}"
                   f" seed={seed}"] = digest
    return hashes


def cli_runs(tree: Path) -> list:
    """(name, scenario file to copy in or None, CLI arguments) per run."""
    figure1 = tree / "src" / "splitchain" / "scenarios" / "figure1.mit"
    adversarial = tree / "bench" / "adversarial.mit"
    runs = [(f"simulate figure1 seed={seed}", figure1,
             ["simulate", "--scenario", figure1.name, "--seed", str(seed)])
            for seed in range(30)]
    runs += [(f"simulate adversarial seed={seed}", adversarial,
              ["simulate", "--scenario", adversarial.name,
               "--seed", str(seed)])
             for seed in range(8)]
    runs += [(f"divide-demo seed={seed}", None,
              ["divide-demo", "--seed", str(seed)]) for seed in (0, 1, 7)]
    runs.append(("divide-demo validators=300", None,
                 ["divide-demo", "--validators", "300"]))
    runs.append(("xfer-demo", None, ["xfer-demo"]))
    return runs


def run_digests(done, work: Path) -> dict:
    """One CLI run's sha256 of its exit code, stdout, stderr and every file
    under ``work/out`` ("run"), and of those files alone ("reports")."""
    run = hashlib.sha256(
        str(done.returncode).encode() + b"\0" + done.stdout + b"\0"
        + done.stderr)
    reports = hashlib.sha256()
    for path in sorted((work / "out").rglob("*")):
        if path.is_file():
            entry = (b"\0" + str(path.relative_to(work)).encode() + b"\0"
                     + path.read_bytes())
            run.update(entry)
            reports.update(entry)
    return {"run": run.hexdigest(), "reports": reports.hexdigest()}


def output_hashes(tree: Path) -> dict:
    """run_digests per CLI run. Each run starts in a fresh directory holding
    only its scenario file, and writes to the relative --out ``out``, so no
    path differs between trees."""
    hashes = {}
    for name, scenario, argv in cli_runs(tree):
        with tempfile.TemporaryDirectory() as work:
            work = Path(work)
            if scenario is not None:
                shutil.copy(scenario, work / scenario.name)
            done = subprocess.run(
                [sys.executable, "-m", "splitchain.cli", *argv,
                 "--out", "out"],
                cwd=work, env=child_env(tree), capture_output=True,
                timeout=900)
            hashes[name] = run_digests(done, work)
    return hashes


def reports_equal(parent: dict, change: dict) -> bool:
    """Whether every CLI run wrote the same report files in both trees."""
    return parent.keys() == change.keys() and all(
        parent[name]["reports"] == change[name]["reports"] for name in parent)


def grid_probe(tree: Path, seed: int) -> dict:
    done = subprocess.run(
        [sys.executable, "-c", GRID_PROBE, str(tree / "bench"), str(seed)],
        env=child_env(tree), capture_output=True, text=True, timeout=900,
        check=True)
    probe = json.loads(done.stdout)
    times = sorted(probe.pop("op_s"))
    mid = len(times) // 2
    probe["ops"] = len(times)
    probe["median_op"] = [{"ms": round(t * 1e3, 3), "point": point}
                          for t, point in times[mid - 1:mid + 1]]
    probe["op_ms_sorted"] = [round(t * 1e3, 3) for t, _ in times]
    return probe


def division_run(tree: Path, n: int, repeats: int = DIVISION_REPEATS) -> dict:
    """One fresh interpreter's divisions of an n-validator chain."""
    done = subprocess.run(
        [sys.executable, "-c", DIVISION_PROBE, str(n), str(repeats),
         str(tree / "bench")],
        env=child_env(tree), capture_output=True, text=True, timeout=900,
        check=True)
    return json.loads(done.stdout)


def division_probe(trees: dict) -> dict:
    """Alternating pairs of interpreters per size, each timing
    DIVISION_REPEATS divisions; the ratios and wins read reference
    seconds."""
    out = {}
    for n in DIVISION_SIZES:
        runs = []
        for i in range(DIVISION_PAIRS):
            order = pair_order(i)
            pair = {"first": order[0]}
            for side in order:
                pair[side] = division_run(trees[side], n)
            runs.append(pair)
        summary = {}
        for side in ("parent", "change"):
            summary[side] = {key: statistics.median(
                r[side][key] for r in runs)
                for key in ("ref_s", "cpu_s", "messages_sent", "peak_rss_mb")}
        summary["ref_ratio"] = round(summary["change"]["ref_s"]
                                     / summary["parent"]["ref_s"], 3)
        summary["ref_pair_ratio_median"] = pair_stats(
            [r["parent"]["ref_s"] for r in runs],
            [r["change"]["ref_s"] for r in runs], False)["pair_ratio_median"]
        summary["change_won"] = sum(r["change"]["ref_s"] < r["parent"]["ref_s"]
                                    for r in runs)
        out[f"n={n}"] = {"runs": runs, "summary": summary}
        print(f"division n={n}: {summary}", file=sys.stderr)
    return out


def cold_start_run(tree: Path) -> dict:
    """One fresh interpreter's import of the CLI and simulate of figure1."""
    figure1 = tree / "src" / "splitchain" / "scenarios" / "figure1.mit"
    with tempfile.TemporaryDirectory() as work:
        done = subprocess.run(
            [sys.executable, "-c", COLD_START_PROBE, str(figure1),
             str(Path(work) / "out"), str(tree / "bench")],
            env=child_env(tree), capture_output=True, text=True, timeout=300,
            check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def cold_start_summary(runs: list) -> dict:
    """Per COLD_START_KEYS: each side's median and quartiles, the change's
    wins (lower is better) and the pair statistics."""
    out = {}
    for key in COLD_START_KEYS:
        parent = [r["parent"][key] for r in runs]
        change = [r["change"][key] for r in runs]
        pq1, pmed, pq3 = quartiles(parent)
        cq1, cmed, cq3 = quartiles(change)
        out[key] = {"parent_median": pmed, "change_median": cmed,
                    "parent_q1_q3": [pq1, pq3], "change_q1_q3": [cq1, cq3],
                    "change_won": sum(c < p for p, c in zip(parent, change)),
                    "pairs": len(runs), **pair_stats(parent, change, False)}
    out["exits"] = sorted({r[side]["exit"] for r in runs
                           for side in ("parent", "change")})
    return out


def cold_start_probe(trees: dict, pairs: int = COLD_START_PAIRS) -> dict:
    """Alternating pairs of fresh interpreters, each importing the CLI and
    running one simulate; no bench workload times the CLI itself."""
    runs = []
    for i in range(pairs):
        order = pair_order(i)
        runs.append({"first": order[0],
                     **{side: cold_start_run(trees[side]) for side in order}})
    summary = cold_start_summary(runs)
    print(f"cold start: {summary['total_s']}", file=sys.stderr)
    return {"runs": runs, "summary": summary}


def exact_sweep_ms(analysis, n: int) -> list:
    """CPU milliseconds of each point of an exact-only sweep of n over the
    default grid at alpha = 1/2, one sweep_curves call per point."""
    alpha = Fraction(1, 2)
    times = []
    for beta in analysis.default_beta_grid(alpha):
        start = time.thread_time()
        analysis.sweep_curves([n], alpha, beta_grid=[beta])
        times.append(round((time.thread_time() - start) * 1e3, 5))
    return times


def speedups(parent: list, change: list) -> dict:
    """Each side's median, the median of the per-pair speedups
    parent/change, and the change's wins (lower is better)."""
    return {"parent_ms": round(statistics.median(parent), 4),
            "change_ms": round(statistics.median(change), 4),
            "speedup": round(statistics.median(
                p / c for p, c in zip(parent, change)), 3),
            "change_won": sum(c < p for p, c in zip(parent, change))}


def exact_summary(runs: list, points: list) -> dict:
    """speedups per grid point, ``points`` holding each point's (beta,
    decided) in the order of every run's times, and for the whole grid;
    and the least speedup of a point the support leaves open."""
    out = {"points": [
        {"beta": str(beta), "decided": decided,
         **speedups([r["parent"][i] for r in runs],
                    [r["change"][i] for r in runs])}
        for i, (beta, decided) in enumerate(points)],
        "grid": speedups([sum(r["parent"]) for r in runs],
                         [sum(r["change"]) for r in runs]),
        "pairs": len(runs)}
    out["open_min_speedup"] = min(
        (e["speedup"] for e in out["points"] if not e["decided"]),
        default=None)
    return out


def exact_probe(trees: dict, pairs: int = EXACT_PAIRS) -> dict:
    """Alternating in-process pairs of exact-only sweeps per n in
    EXACT_SIZES, after one untimed sweep per tree and n."""
    analyses = {side: load_tree(tree, f"splitchain_{side}", "analysis")
                for side, tree in trees.items()}
    alpha = Fraction(1, 2)
    out = {}
    for n in EXACT_SIZES:
        change = analyses["change"]
        points = [(beta, change.DivisionAnalysisParams(
            n, round(beta * n), alpha).decided_breach() is not None)
            for beta in change.default_beta_grid(alpha)]
        for analysis in analyses.values():
            exact_sweep_ms(analysis, n)  # warm-up, untimed
        runs = []
        for i in range(pairs):
            order = pair_order(i)
            runs.append({"first": order[0],
                         **{side: exact_sweep_ms(analyses[side], n)
                            for side in order}})
        summary = exact_summary(runs, points)
        out[f"n={n}"] = {"runs": runs, "summary": summary}
        print(f"exact n={n}: grid {summary['grid']}, least open-point"
              f" speedup {summary['open_min_speedup']}", file=sys.stderr)
    return out


def trace_calls_equal(parent: dict, change: dict) -> bool:
    """Whether two traced runs made the same calls in every layer: each
    ``*.calls`` metric and ``netsim.dropped`` match."""
    keys = {key for key in parent.keys() | change.keys()
            if key.endswith(".calls") or key == "netsim.dropped"}
    return all(parent.get(key) == change.get(key) for key in keys)


def load_tree(tree: Path, name: str, submodule: str = "scenario"):
    """The ``submodule`` module of ``tree``'s splitchain, imported as package
    ``name``. The package's modules import one another relatively, so two
    trees load side by side."""
    for module in [m for m in sys.modules
                   if m == name or m.startswith(name + ".")]:
        del sys.modules[module]
    package = tree / "src" / "splitchain"
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py",
        submodule_search_locations=[str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return importlib.import_module(f"{name}.{submodule}")


def scenario_op(scenario, spec, seed: int) -> tuple:
    """(output, CPU seconds) of one op of the bench's ScenarioWorkload: one
    run of ``spec`` and its three reports."""
    start = time.thread_time()
    report = scenario.run_scenario(spec, seed=seed)
    output = b"\0".join(text.encode() for text in (
        report.metrics_csv(), report.lineage_csv(), report.events_log()))
    return output, time.thread_time() - start


def interleaved(trees: dict, workload: str, seeds: int, first: int) -> dict:
    """Both trees' ops on scenario seeds first .. first + seeds - 1, seed by
    seed in one interpreter, the first side alternating, after one untimed
    warm-up op per tree."""
    path = INTERLEAVED[workload][1]
    runs = {}
    for side, tree in trees.items():
        scenario = load_tree(tree, f"splitchain_{side}")
        spec = scenario.parse_scenario((tree / path).read_text())
        scenario_op(scenario, spec, first)  # warm-up, untimed
        runs[side] = scenario, spec
    cpu = {"parent": [], "change": []}
    equal = True
    for i in range(seeds):
        outputs = {}
        for side in pair_order(i):
            outputs[side], seconds = scenario_op(*runs[side], first + i)
            cpu[side].append(seconds)
        equal = equal and outputs["parent"] == outputs["change"]
    parent, change = cpu["parent"], cpu["change"]
    summary = {
        "seeds": seeds, "first_seed": first, "outputs_equal": equal,
        "parent_cpu_ms_median": round(statistics.median(parent) * 1e3, 4),
        "change_cpu_ms_median": round(statistics.median(change) * 1e3, 4),
        "cpu_ratio_median": round(statistics.median(
            p / c for p, c in zip(parent, change)), 4),
        "change_won": sum(c < p for p, c in zip(parent, change)),
        "sign_test_p": pair_stats(parent, change, False)["sign_test_p"]}
    print(f"interleaved {workload}: {summary}", file=sys.stderr)
    return {"summary": summary,
            "cpu_ms": {side: [round(t * 1e3, 4) for t in times]
                       for side, times in cpu.items()}}


LINE_DIRS = ("src", "demos")


def line_counts(tree: Path) -> dict:
    """Lines of the .py files under src/ and demos/: the total per directory,
    and under "files" the count per file, keyed by its path in the tree."""
    files = {path.relative_to(tree).as_posix():
             len(path.read_text().splitlines())
             for top in LINE_DIRS
             for path in sorted((tree / top).rglob("*.py"))}
    counts = {top: sum(lines for name, lines in files.items()
                       if name.startswith(top + "/")) for top in LINE_DIRS}
    counts["files"] = files
    return counts


def net_lines(parent: dict, change: dict) -> dict:
    """The change's net lines per directory, and per file whose count
    differs (a file only one tree has counts 0 in the other)."""
    net = {top: change[top] - parent[top] for top in LINE_DIRS}
    before, after = parent["files"], change["files"]
    net["files"] = {name: after.get(name, 0) - before.get(name, 0)
                    for name in sorted(before.keys() | after.keys())
                    if after.get(name, 0) != before.get(name, 0)}
    return net


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("out", type=Path)
    parser.add_argument("--seed", type=int, default=7,
                        help="held-out bench and Monte Carlo seed")
    args = parser.parse_args(argv)
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for tree in trees.values():
        purge_bytecode(tree)
    sys.dont_write_bytecode = True  # the interleaved section imports both

    result = {
        "script": "scripts/bench_pairs.py PARENT CHANGE OUT"
                  f" --seed {args.seed}",
        "bytecode": "every __pycache__ removed from both trees first;"
                    " children run with PYTHONDONTWRITEBYTECODE=1",
        "environment": {"nproc": os.cpu_count(),
                        "python": sys.version.split()[0]},
        "analyze_hashes": {side: analyze_hashes(tree, args.seed)
                           for side, tree in trees.items()},
        "output_hashes": {side: output_hashes(tree)
                          for side, tree in trees.items()},
        "sweep_grid": {side: grid_probe(tree, args.seed)
                       for side, tree in trees.items()},
        "division": division_probe(trees),
        "cold_start": cold_start_probe(trees),
        "exact": exact_probe(trees),
        "lines": {side: line_counts(tree) for side, tree in trees.items()},
        "trace": {w: {side: bench_run(tree, w, args.seed, trace=True)
                      for side, tree in trees.items()} for w in WORKLOADS},
    }
    result["interleaved"] = {
        w: interleaved(trees, w, seeds, args.seed * STRIDE)
        for w, (seeds, _) in INTERLEAVED.items()}
    lines = result["lines"]
    lines["net"] = net_lines(lines["parent"], lines["change"])
    hashes = result["analyze_hashes"]
    result["analyze_hashes_equal"] = hashes["parent"] == hashes["change"]
    outputs = result["output_hashes"]
    result["outputs_equal"] = outputs["parent"] == outputs["change"]
    result["reports_equal"] = reports_equal(outputs["parent"],
                                            outputs["change"])
    result["trace_calls_equal"] = {
        w: trace_calls_equal(runs["parent"], runs["change"])
        for w, runs in result["trace"].items()}
    result["pairs"] = {"command": "python3 bench/run.py --workload {w}"
                                  f" --seed {args.seed}"}
    for workload in WORKLOADS:
        result["pairs"][workload] = run_pairs(trees, workload, PAIRS,
                                              args.seed)
        args.out.write_text(json.dumps(result, indent=1) + "\n")
    result["verdicts"] = {
        w: {key: result["pairs"][w]["summary"][key]["verdict"]
            for key in METRICS} for w in WORKLOADS}
    args.out.write_text(json.dumps(result, indent=1) + "\n")
    print(json.dumps({w: result["pairs"][w]["summary"]["throughput_ops_s"]
                      for w in WORKLOADS}, indent=1))


if __name__ == "__main__":
    main()
