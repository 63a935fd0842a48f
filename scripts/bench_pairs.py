"""Compare two source trees of splitchain side by side and write one JSON file.

    python3 scripts/bench_pairs.py PARENT_DIR CHANGE_DIR OUT.json [--seed 7]

PARENT_DIR and CHANGE_DIR are two checkouts (for example made with
``git archive``), each holding ``src/`` and ``bench/``. The same directory
passed as both is an A/A: any verdict there other than ``within_bound`` is
a defect of this harness. Every ``__pycache__`` under both trees is deleted
first and every child runs with ``PYTHONDONTWRITEBYTECODE=1``, so both
sides compile their imports afresh.

Every timing is taken in alternating pairs, the parent first in even pairs
and the change first in odd ones, and every paired quantity is summarised
alike: each side's median and quartiles, the parent's interquartile range,
the pair count, the change's wins (ties count for neither), the median of
the per-pair ratios change/parent and the two-sided sign-test p-value of
the wins against the losses. Read pair by pair, these move less than the
ratio of the medians when the host drifts between pairs. An end-to-end
metric of a benchmark workload also gets a verdict against its bound in the
repository's ``BENCHMARK.json`` (read, never written): ``gain`` when the
change wins at least nine tenths of the pairs and the medians differ by
more than the parent's interquartile range; ``unresolved`` when that range,
relative to the parent's median, is wider than the bound and some run of
the change reads no better than some run of the parent; ``within_bound``
when the change's median is no worse than the parent's by more than the
bound; otherwise ``regression``. The paired probes:

* ``pairs``: PAIRS runs per workload of each tree's own ``bench/run.py``,
  at its own default run length on the given seed, with failed ops;
* ``division``: per n in DIVISION_SIZES, fresh interpreters that each time
  ``divide_chain`` of a fresh n-validator chain DIVISION_REPEATS times: the
  median division's CPU time, raw and at the reference speed of the tree's
  own ``bench/calibration.py`` (raw seconds × REFERENCE_S / the mean of the
  ``interpreter`` loop timed just before and after it, so a host that slows
  down between divisions does not read as a slower division), the messages
  one division sends and the peak RSS; no workload divides at that size;
* ``cold_start``: fresh interpreters timing ``import splitchain.cli`` and
  that import plus one ``simulate`` of figure1 at seed 0, raw and at
  reference speed, with their exit codes; no workload times the CLI;
* ``exact``: in this interpreter, after one untimed sweep per tree, each
  point of an exact-only sweep of n in EXACT_SIZES over the default
  ten-point grid at α = 1/2, with whether the support decides it, and the
  whole grid; no workload runs n = 10⁴. A claim rests on the grid's ratio:
  ``open_max_pair_ratio``, the largest ratio of a point the support leaves
  open, is a maximum over noisy ratios and reads high even in an A/A;
* ``interleaved``: in this interpreter, after one untimed op per tree, the
  i-th pair runs the op of ``bench/workloads.py``'s ScenarioWorkload of
  ``growth`` or ``adversarial`` on held-out scenario seed first + i (the
  seeds the bench's ``--seed`` visits). Both trees see the same host seed
  by seed, which resolves gains of a few percent that whole runs cannot.
  ``outputs_equal`` holds when every seed's reports match byte for byte,
  and ``shapes_equal`` when its events match in kind, the chain ids they
  name (a division's children with their sizes) and n, leaving out ticks,
  fault counts, users, nonces and which validators land where.

Once per tree, the script also

* hashes the ``analyze`` CSV at α ∈ {1/2, 1/3, 1/4, 2/5}: n =
  10,40,50,100 with 10⁵ Monte Carlo trials and n = 200,1000,4000 with 10⁴
  trials, each on seed 0 and on the given seed, and n = 1000,2000,4000 and
  n = 10000 exact only;
* hashes every output of ``simulate`` (figure1 seeds 0–29, the bench's
  adversarial.mit seeds 0–7), ``divide-demo`` (seeds 0, 1 and 7, and 300
  validators) and ``xfer-demo``, each run in a fresh directory with the
  same relative paths: per run, one hash of its exit code, stdout, stderr
  and report files, and one of the report files alone, so
  ``outputs_equal`` reads every byte and ``reports_equal`` still shows
  whether a report moved when stdout changes on purpose;
* counts, on the bench's sweep grid, the points per n whose breach event
  the support of f₁ decides (``DivisionAnalysisParams.decided_breach``),
  and times each op of one sweep pass, to show which points sit at the
  median op;
* makes one traced run (``--trace 1``) per workload and records its
  per-layer metrics, to show in which layer a saving appears;
  ``trace_calls_equal`` is true when both trees made the same calls per
  layer (every ``*.calls`` metric and ``netsim.dropped`` match);
* counts the lines of every ``.py`` file under ``src/`` and ``demos/``, and
  the change's net lines per directory and per file that differs.

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
DIVISION_KEYS = ("ref_s", "cpu_s", "messages_sent", "peak_rss_mb")
WIN_SHARE = 0.9  # of the pairs a change must win to claim a gain
WORKLOADS = ("sweep", "growth", "adversarial", "transfer")
# interleaved seeds per scenario workload, and each tree's scenario file
INTERLEAVED = {"growth": (240, "src/splitchain/scenarios/figure1.mit"),
               "adversarial": (120, "bench/adversarial.mit")}
STRIDE = 1 << 20  # bench/workloads.py: run seed s visits s * STRIDE + i
# the event fields that name a chain; a divide's children name theirs too
CHAIN_FIELDS = ("chain", "parent", "left", "right", "merged", "target")

BENCHMARK = json.loads(
    (Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
# end-to-end metric -> (True when higher is better, relative bound)
METRICS = {m["name"]: (m["better"] == "higher", m["bound"])
           for m in BENCHMARK["end_to_end"]}
PER_LAYER = [m["name"] for m in BENCHMARK["per_layer"]]
LOWER = (False, None)  # a timing or size with no bound: lower is better

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
LINE_DIRS = ("src", "demos")


def child(tree: Path, *argv, cwd=None, check=True, text=True):
    """One child interpreter running ``argv`` on ``tree``'s ``src/``, with
    no bytecode written; its output captured."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=str(tree / "src"))
    return subprocess.run([sys.executable, *argv], cwd=cwd, env=env,
                          capture_output=True, text=text, timeout=900,
                          check=check)


def child_json(tree: Path, *argv, cwd=None):
    """The last line a child printed, read as JSON."""
    done = child(tree, *argv, cwd=cwd)
    return json.loads(done.stdout.strip().splitlines()[-1])


def pair_order(i: int) -> tuple:
    """The sides of the i-th pair in run order; the first side alternates."""
    return ("parent", "change") if i % 2 == 0 else ("change", "parent")


def alternate(measure, pairs: int) -> list:
    """``measure(side, i)`` of both sides of each of ``pairs`` pairs, in
    ``pair_order(i)``: one {"first", "parent", "change"} per pair."""
    runs = []
    for i in range(pairs):
        order = pair_order(i)
        runs.append({"first": order[0],
                     **{side: measure(side, i) for side in order}})
    return runs


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
    """The change's pair wins, the median of the per-pair ratios
    change/parent, and the two-sided sign-test p-value of the wins against
    the losses (ties count for neither)."""
    ratios = [c / p for p, c in zip(parent, change)]
    won = sum((c > p) if higher else (c < p) for p, c in zip(parent, change))
    untied = sum(c != p for p, c in zip(parent, change))
    tail = sum(math.comb(untied, k)
               for k in range(min(won, untied - won) + 1))
    return {"change_won": won,
            "pair_ratio_median": round(statistics.median(ratios), 4),
            "sign_test_p": round(min(1.0, 2 * tail / 2 ** untied), 4)}


def compare(parent: list, change: list, higher: bool, bound=None) -> dict:
    """The paired summary of one quantity (see the module doc); the bound
    and the verdict only when a bound is given."""
    pq1, pmed, pq3 = quartiles(parent)
    cq1, cmed, cq3 = quartiles(change)
    out = {"parent_median": pmed, "change_median": cmed,
           "parent_q1_q3": [pq1, pq3], "change_q1_q3": [cq1, cq3],
           "parent_iqr": round(pq3 - pq1, 4), "pairs": len(parent),
           **pair_stats(parent, change, higher)}
    if bound is not None:
        out["bound"] = bound
        out["verdict"] = verdict(parent, change, higher, bound)
    return out


def summarise(runs: list, keys: dict) -> dict:
    """``compare`` per key of ``keys``, which maps each key of a run's sides
    to (True when higher is better, bound or None)."""
    return {key: compare([r["parent"][key] for r in runs],
                         [r["change"][key] for r in runs], higher, bound)
            for key, (higher, bound) in keys.items()}


def bench_run(tree: Path, workload: str, seed: int,
              trace: bool = False) -> dict:
    """The end-to-end metrics of one run, or with ``trace`` the per-layer
    metrics of one traced run."""
    result = child_json(tree, "bench/run.py", "--workload", workload,
                        "--seed", str(seed), "--trace", str(int(trace)),
                        cwd=tree)
    metrics = result["metrics"]
    run = {key: round(metrics[key]["value"], 4)
           for key in (PER_LAYER if trace else METRICS) if key in metrics}
    for key in ("attempted", "failed", "correct"):
        run[key] = result[key]
    return run


def run_pairs(trees: dict, workload: str, count: int, seed: int) -> dict:
    def measure(side, i):
        run = bench_run(trees[side], workload, seed)
        print(f"{workload} pair {i + 1}/{count}: {side}"
              f" {run['throughput_ops_s']} ops/s", file=sys.stderr)
        return run

    pairs = alternate(measure, count)
    summary = summarise(pairs, METRICS)
    summary["failed"] = {side: sum(p[side]["failed"] for p in pairs)
                         for side in ("parent", "change")}
    return {"runs": pairs, "summary": summary}


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
            done = child(tree, "-m", "splitchain.cli", "analyze",
                         "--alpha", alpha, "--n", n_list,
                         "--trials", str(trials), "--seed", str(seed),
                         "--out", "-", check=False, text=False)
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
            done = child(tree, "-m", "splitchain.cli", *argv, "--out", "out",
                         cwd=work, check=False, text=False)
            hashes[name] = run_digests(done, work)
    return hashes


def reports_equal(parent: dict, change: dict) -> bool:
    """Whether every CLI run wrote the same report files in both trees."""
    return parent.keys() == change.keys() and all(
        parent[name]["reports"] == change[name]["reports"] for name in parent)


def grid_probe(tree: Path, seed: int) -> dict:
    probe = child_json(tree, "-c", GRID_PROBE, str(tree / "bench"), str(seed))
    times = sorted(probe.pop("op_s"))
    mid = len(times) // 2
    probe["ops"] = len(times)
    probe["median_op"] = [{"ms": round(t * 1e3, 3), "point": point}
                          for t, point in times[mid - 1:mid + 1]]
    probe["op_ms_sorted"] = [round(t * 1e3, 3) for t, _ in times]
    return probe


def division_run(tree: Path, n: int, repeats: int = DIVISION_REPEATS) -> dict:
    """One fresh interpreter's divisions of an n-validator chain."""
    return child_json(tree, "-c", DIVISION_PROBE, str(n), str(repeats),
                      str(tree / "bench"))


def division_probe(trees: dict) -> dict:
    out = {}
    for n in DIVISION_SIZES:
        runs = alternate(lambda side, i: division_run(trees[side], n),
                         DIVISION_PAIRS)
        summary = summarise(runs, dict.fromkeys(DIVISION_KEYS, LOWER))
        out[f"n={n}"] = {"runs": runs, "summary": summary}
        print(f"division n={n}: {summary['ref_s']}", file=sys.stderr)
    return out


def cold_start_run(tree: Path) -> dict:
    """One fresh interpreter's import of the CLI and simulate of figure1."""
    figure1 = tree / "src" / "splitchain" / "scenarios" / "figure1.mit"
    with tempfile.TemporaryDirectory() as work:
        return child_json(tree, "-c", COLD_START_PROBE, str(figure1),
                          str(Path(work) / "out"), str(tree / "bench"))


def cold_start_probe(trees: dict, pairs: int = COLD_START_PAIRS) -> dict:
    runs = alternate(lambda side, i: cold_start_run(trees[side]), pairs)
    summary = summarise(runs, dict.fromkeys(COLD_START_KEYS, LOWER))
    summary["exits"] = sorted({r[side]["exit"] for r in runs
                               for side in ("parent", "change")})
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


def exact_probe(trees: dict, pairs: int = EXACT_PAIRS) -> dict:
    analyses = {side: load_tree(tree, f"splitchain_{side}", "analysis")
                for side, tree in trees.items()}
    alpha = Fraction(1, 2)
    out = {}
    change = analyses["change"]
    for n in EXACT_SIZES:
        betas = change.default_beta_grid(alpha)
        for analysis in analyses.values():
            exact_sweep_ms(analysis, n)  # warm-up, untimed
        runs = alternate(lambda side, i: exact_sweep_ms(analyses[side], n),
                         pairs)
        per_point = summarise(runs, dict.fromkeys(range(len(betas)), LOWER))
        points = []
        for i, beta in enumerate(betas):
            point = change.DivisionAnalysisParams(n, round(beta * n), alpha)
            points.append({"beta": str(beta),
                           "decided": point.decided_breach() is not None,
                           **per_point[i]})
        grid = compare([sum(r["parent"]) for r in runs],
                       [sum(r["change"]) for r in runs], False)
        open_ratios = [p["pair_ratio_median"] for p in points
                       if not p["decided"]]
        summary = {"points": points, "grid": grid,
                   "open_max_pair_ratio": max(open_ratios, default=None)}
        out[f"n={n}"] = {"runs": runs, "summary": summary}
        print(f"exact n={n}: grid {grid}, largest open-point pair ratio"
              f" {summary['open_max_pair_ratio']}", file=sys.stderr)
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


def events_shape(events) -> str:
    """sha256 of each event's kind, the chain ids it names (a divide's
    children as (id, n)) and its n; no tick, f, user, nonce or split
    membership."""
    digest = hashlib.sha256()
    for event in events:
        fields = event.fields
        ids = [fields[key] for key in CHAIN_FIELDS if key in fields]
        ids += [c[:2] for c in fields.get("children", ())]
        digest.update(repr((event.kind, ids, fields.get("n"))).encode())
    return digest.hexdigest()


def scenario_op(scenario, spec, seed: int) -> dict:
    """The CPU milliseconds of one op of the bench's ScenarioWorkload (one
    run of ``spec`` and its three reports), and the sha256 of its output
    and the shape of its events."""
    start = time.thread_time()
    report = scenario.run_scenario(spec, seed=seed)
    output = b"\0".join(text.encode() for text in (
        report.metrics_csv(), report.lineage_csv(), report.events_log()))
    cpu_ms = (time.thread_time() - start) * 1e3
    return {"cpu_ms": cpu_ms, "output": hashlib.sha256(output).hexdigest(),
            "shape": events_shape(report.events)}


def interleaved(trees: dict, workload: str, seeds: int, first: int) -> dict:
    """Both trees' ops on scenario seeds first .. first + seeds - 1, one
    pair per seed in this interpreter, after one untimed warm-up op per
    tree."""
    path = INTERLEAVED[workload][1]
    loaded = {}
    for side, tree in trees.items():
        scenario = load_tree(tree, f"splitchain_{side}")
        loaded[side] = scenario, scenario.parse_scenario(
            (tree / path).read_text())
        scenario_op(*loaded[side], first)  # warm-up, untimed
    runs = alternate(lambda side, i: scenario_op(*loaded[side], first + i),
                     seeds)

    def equal(key):
        return all(r["parent"][key] == r["change"][key] for r in runs)

    summary = {"first_seed": first, "outputs_equal": equal("output"),
               "shapes_equal": equal("shape"),
               **summarise(runs, {"cpu_ms": LOWER})["cpu_ms"]}
    print(f"interleaved {workload}: {summary}", file=sys.stderr)
    return {"summary": summary,
            "cpu_ms": {side: [round(r[side]["cpu_ms"], 4) for r in runs]
                       for side in ("parent", "change")}}


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
        for cache in tree.rglob("__pycache__"):
            shutil.rmtree(cache)
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
    result["shapes_equal"] = all(run["summary"]["shapes_equal"]
                                 for run in result["interleaved"].values())
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
