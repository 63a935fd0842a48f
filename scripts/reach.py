"""List the statements of splitchain that no documented input reaches.

    python3 scripts/reach.py

Line-traces ``src/splitchain`` with the stdlib ``trace`` module (which
runs on ``sys.settrace``) while it runs the corpus of documented inputs:

* the first ``OPS`` ops of each of the benchmark's four workloads
  (``bench/workloads.py``) on seed 0;
* ``CLI_RUNS``, in a temporary directory: the five subcommands with the
  README's documented options and outputs, each exit-2 case of its
  exit-code table (an unreadable scenario, an unwritable ``--out``, a bad
  ``--seed``, bad ``analyze`` and ``divide-demo`` parameters, an
  unparsable proof, a malformed or duplicate-validator registry) and
  ``verify-proof``'s verdict 0 (a ``--height`` past the tag's expiry);
* ``simulate`` on each of ``SCENARIOS``, the scenario behaviours the
  README describes (among them the exit-4 stall), and on each of
  ``BAD_SCENARIOS``, one per ``ConfigError`` of the scenario grammar;
* every script under ``demos/``;
* each module's body, run afresh, so that what a function runs at import
  counts the same whether or not the package was imported before;

then prints, per module, the statements inside functions that none of
these runs executed, each with its line and the function it sits in.
Module and class bodies run on import and are not listed. A statement
counts as reached when any line of it (for a compound statement, of its
header) executed; statements that compile to nothing, such as a
docstring, are not counted. What the runs print, to stdout or stderr, is
swallowed, so the report stays readable.
"""

import ast
import contextlib
import io
import runpy
import sys
import tempfile
from collections import defaultdict
from pathlib import Path
from trace import Trace

REPO = Path(__file__).resolve().parent.parent
PACKAGE = REPO / "src" / "splitchain"
FIGURE1 = PACKAGE / "scenarios" / "figure1.mit"
WORKLOADS = ("growth", "adversarial", "transfer", "sweep")
OPS = 3  # ops traced per benchmark workload

# The scenario behaviours the README describes: name -> scenario text.
SCENARIOS = {
    # a chain that starts at n_max divides at its genesis height, where
    # every founder, Byzantine ones too, has committed the tip
    "byzantine-founders": """
[chain a]
validators = 10
n_max = 10
[faults]
a-v001 = byzantine equivocate
a-v002 = byzantine badsig
a-v003 = byzantine withhold
a-v004 = crash 0
""",
    # a declared chain holds the child id: `division of a failed`
    "taken-child-id": """
[chain a]
validators = 4
n_max = 5
[chain a.1]
validators = 4
[join]
arrivals = 4
""",
    # `a` divides at start, so the merged id a.1 is taken at run time and
    # a fusion with `a` finds it gone; b and c then fuse under b+c, and d,
    # whose validators have all crashed, cannot certify a fusion with e
    "fusions": """
[chain a]
validators = 4
n_max = 4
[chain b]
validators = 4
[chain c]
validators = 4
[chain d]
validators = 2
[chain e]
validators = 2
[fuse]
at = 1
left = b
right = c
merged = a.1
[fuse]
at = 1
left = a
right = b
[fuse]
at = 2
left = b
right = c
[fuse]
at = 3
left = d
right = e
[faults]
d-v000 = crash 0
d-v001 = crash 0
""",
    # a dividing chain splits its clients and the assets they own
    "clients-and-assets": """
[chain a]
validators = 4
clients = 3
assets = 4
n_max = 4
""",
    "smallest-deterministic-horizon": """
[scenario]
assignment = deterministic
horizon = 5
[chain a]
validators = 4
clients = 2
assets = 2
n_max = 6
[chain b]
validators = 5
faulty = 1
[join]
arrivals = 10
target = smallest
""",
    # births beyond their bound that no divide event records: b is
    # created at 2 of 4 faulty against alpha 1/3, and the fusion a+b holds
    # 3 of 8 against min(1/2, 1/3)
    "uncounted-births": """
[chain a]
validators = 4
faulty = 1
alpha = 1/2
[chain b]
validators = 4
faulty = 2
alpha = 1/3
kind = bft
[fuse]
at = 1
left = a
right = b
""",
    # exit 4: three of a's validators crash while it divides, so the
    # division finds no ACK quorum; every validator of b has crashed when
    # it reaches its trigger, so its division is skipped, and b's arrival
    # stalls
    "stall": """
[chain a]
validators = 4
n_max = 5
[chain b]
validators = 4
n_max = 4
[join]
arrivals = 2
[faults]
a-v000 = crash 2
a-v001 = crash 2
a-v002 = crash 2
b-v000 = crash 0
b-v001 = crash 0
b-v002 = crash 0
b-v003 = crash 0
""",
}

_CHAIN = "[chain a]\nvalidators = 4\n"

# One scenario per ConfigError of the scenario grammar: simulate exits 2.
BAD_SCENARIOS = (
    "[scenario]\nhorizon = soon\n" + _CHAIN,
    "[scenario]\nseed = 340282366920938463463374607431768211456\n" + _CHAIN,
    "[chain a]\nalpha = half\n",
    "[scenario]\nassignment = random\n" + _CHAIN,
    "[chain a\n",
    "[chain]\n",
    _CHAIN + _CHAIN,
    _CHAIN + "[join]\n[join]\n",
    _CHAIN + "[leave]\n",
    "[chain a]\nvalidators 4\n",
    "validators = 4\n" + _CHAIN,
    _CHAIN + "validators = 5\n",
    _CHAIN + "[faults]\na-v000 = crash 1\na-v000 = crash 2\n",
    "[chain a]\nsize = 4\n",
    _CHAIN + "[faults]\na-v000 = sleep\n",
    _CHAIN + "[faults]\na-v000 = crash 1 2\n",
    _CHAIN + "[faults]\na-v000 = crash -1\n",
    _CHAIN + "[faults]\na-v000 = byzantine\n",
    "[scenario]\nseed = 1\n",
    "[scenario]\nd_min = 2\nd_max = 1\n" + _CHAIN,
    "[scenario]\nhorizon = -5\n" + _CHAIN,
    "[chain a]\nvalidators = 0\n",
    _CHAIN + "n_max = 1\n",
    _CHAIN + "faulty = 5\n",
    _CHAIN + "clients = -1\n",
    _CHAIN + "assets = 2\n",
    _CHAIN + "alpha = 2/3\n",
    _CHAIN + "[join]\narrivals = -1\n",
    _CHAIN + "[join]\narrivals = 1\ninterval = 0\n",
    _CHAIN + "[join]\narrivals = 1\nblock = 0\n",
    _CHAIN + "[join]\narrivals = 1\nbeta = 1/3\nblock = 10\n",
    _CHAIN + "[join]\narrivals = 1\nbeta = 2\n",
    _CHAIN + "[fuse]\nat = -3\nleft = a\nright = a\n",
    _CHAIN + "[fuse]\nleft = a\n",
    _CHAIN + "[fuse]\nleft = a\nright = z\n",
    _CHAIN + "[fuse]\nleft = a\nright = a\n",
    _CHAIN + "[chain b]\n[fuse]\nleft = a\nright = b\nmerged = a\n",
    _CHAIN + "[faults]\nnobody = crash 1\n",
    _CHAIN + "[faults]\na-v000 = byzantine lazy\n",
)

# argv templates; {figure1}, {out} and {xfer} are filled in by cli_runs().
CLI_RUNS = (
    # the README's quick start and documented options
    ("simulate", "--scenario", "{figure1}", "--seed", "0",
     "--out", "{out}/sim"),
    ("analyze", "--alpha", "1/2", "--n", "10,40", "--trials", "1000",
     "--out", "{out}/sweep.csv"),
    ("analyze", "--alpha", "1/3", "--n", "10"),
    # at n = 2, f = round(beta * n) reaches alpha * n: empty bound cells
    ("analyze", "--alpha", "1/2", "--n", "2", "--beta-steps", "5"),
    ("divide-demo", "--out", "{out}/divide"),
    ("divide-demo", "--validators", "6", "--scheme", "deterministic"),
    ("xfer-demo", "--out", "{xfer}"),
    ("verify-proof", "--proof", "{xfer}/lock_proof.bin",
     "--registry", "{xfer}/registry.json"),
    # verdict 0: exit 1
    ("verify-proof", "--proof", "{xfer}/lock_proof.bin",
     "--registry", "{xfer}/registry.json", "--height", "1000"),
    # exit 2: unusable input
    ("simulate", "--scenario", "{out}/missing.mit"),
    ("simulate", "--scenario", "{figure1}", "--out", "{out}/file"),
    ("simulate", "--scenario", "{figure1}", "--seed", "seven"),
    ("simulate", "--scenario", "{figure1}", "--seed", str(2**127)),
    ("analyze", "--alpha", "1/2", "--n", ","),
    ("analyze", "--alpha", "one", "--n", "10"),
    ("analyze", "--alpha", "1/2", "--n", "11"),
    ("analyze", "--alpha", "2/3", "--n", "10"),
    ("analyze", "--alpha", "1/2", "--n", "10", "--beta-steps", "0"),
    ("analyze", "--alpha", "1/2", "--n", "10", "--trials", "-1"),
    ("analyze", "--alpha", "1/2", "--n", "10",
     "--out", "{out}/missing/sweep.csv"),
    ("divide-demo", "--alpha", "one"),
    ("divide-demo", "--validators", "1"),
    ("divide-demo", "--out", "{out}/file"),
    ("xfer-demo", "--out", "{out}/file"),
    ("verify-proof", "--proof", "{out}/missing.bin",
     "--registry", "{xfer}/registry.json"),
    ("verify-proof", "--proof", "{xfer}/registry.json",
     "--registry", "{xfer}/registry.json"),
    ("verify-proof", "--proof", "{xfer}/lock_proof.bin",
     "--registry", "{xfer}/lock_proof.bin"),
    ("verify-proof", "--proof", "{xfer}/lock_proof.bin",
     "--registry", "{out}/twice.json"),
)


def trace(run) -> dict:
    """Run ``run()`` and return {file path: set of executed line numbers}
    for the files under the package."""
    tracer = Trace(count=1, trace=0)
    tracer.runfunc(run)
    hits = defaultdict(set)
    for path, line in tracer.results().counts:
        if path.startswith(str(PACKAGE)):
            hits[path].add(line)
    return hits


def _code_lines(code) -> set:
    """Every line that holds bytecode in ``code`` or its nested code."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _code_lines(const)
    return lines


def _own_lines(node) -> range:
    """A simple statement's lines, or a compound statement's header."""
    body = getattr(node, "body", None)
    first = min([node.lineno] + [d.lineno for d in
                                 getattr(node, "decorator_list", ())])
    if isinstance(body, list) and body and isinstance(body[0], ast.stmt):
        return range(first, max(node.lineno, body[0].lineno - 1) + 1)
    return range(first, node.end_lineno + 1)


def statements(path: Path) -> list:
    """(lines, line, function) of every statement inside a function that
    compiles to code, in source order."""
    source = path.read_text()
    executable = _code_lines(compile(source, str(path), "exec"))
    found = []

    def visit(node, scope, in_function):
        for child in ast.iter_child_nodes(node):
            if not isinstance(child, ast.stmt):
                visit(child, scope, in_function)
                continue
            if in_function:
                lines = _own_lines(child)
                if executable.intersection(lines):
                    found.append((lines, child.lineno, ".".join(scope)))
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                visit(child, scope + [child.name], in_function or
                      not isinstance(child, ast.ClassDef))
            else:
                visit(child, scope, in_function)

    visit(ast.parse(source), [], False)
    return found


def unreached(hits) -> dict:
    """{module name: (statement count, [(line, function), ...] unreached)}
    for every module of the package."""
    report = {}
    for path in sorted(PACKAGE.glob("*.py")):
        lines = hits.get(str(path), set())
        found = statements(path)
        report[path.stem] = (len(found), [
            (line, function) for own, line, function in found
            if not lines.intersection(own)])
    return report


def _workload_ops(ops: int):
    sys.path.insert(0, str(REPO / "bench"))
    try:
        from workloads import WORKLOADS as BENCH
    finally:
        sys.path.pop(0)
    for name in WORKLOADS:
        workload = BENCH[name]()
        workload.setup(0)
        entries = next(iter(workload.chunks()))[:ops]
        for entry in entries:
            workload.begin(entry)
            output, counts = workload.run(entry)
            workload.verdict(entry, output, counts)


def cli_runs(out: Path) -> list:
    """Every argv of the corpus, in order, with its paths under `out`: the
    scenarios are written there first."""
    xfer = out / "xfer"
    (out / "file").touch()  # an --out directory that cannot be made
    (out / "twice.json").write_text(
        '{"alpha": "1/2", "validators": [{"id": "00",'
        ' "verification_key": "00"}, {"id": "00", "verification_key": "00"}]}')
    runs = []
    for name, text in SCENARIOS.items():
        path = out / f"{name}.mit"
        path.write_text(text)
        runs.append(["simulate", "--scenario", str(path),
                     "--out", str(out / name)])
    for k, text in enumerate(BAD_SCENARIOS):
        path = out / f"bad-{k}.mit"
        path.write_text(text)
        runs.append(["simulate", "--scenario", str(path),
                     "--out", str(out / f"bad-{k}")])
    paths = {"figure1": FIGURE1, "out": out, "xfer": xfer}
    return [[arg.format(**paths) for arg in argv]
            for argv in CLI_RUNS] + runs


def _cli_commands(out: Path):
    from splitchain.cli import main
    for argv in cli_runs(out):
        try:
            main(argv)
        except SystemExit:  # argparse refuses a bad flag: exit 2
            pass


def _demos():
    for script in sorted((REPO / "demos").glob("*.py")):
        runpy.run_path(str(script), run_name="__main__")


def _module_bodies():
    """Run each module's body afresh, outside sys.modules, so a statement
    that runs inside a function at import (say, in scenario._one_of)
    counts as reached whether or not the package was imported before."""
    for path in sorted(PACKAGE.glob("*.py")):
        name = "splitchain" + ("" if path.stem == "__init__"
                               else "." + path.stem)
        exec(compile(path.read_text(), str(path), "exec"),
             {"__name__": name, "__package__": "splitchain",
              "__file__": str(path)})  # trace skips frames without it


def product_runs(ops: int, out: Path):
    from splitchain.scenario import ratio_text
    ratio_text.cache_clear()  # what earlier runs left there hides its body
    _module_bodies()
    _workload_ops(ops)
    _cli_commands(out)
    _demos()


def corpus_hits() -> dict:
    """trace() over the whole corpus, its output swallowed."""
    with tempfile.TemporaryDirectory() as out:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            return trace(lambda: product_runs(OPS, Path(out)))


def main() -> int:
    sys.path.insert(0, str(REPO / "src"))  # the package this traces
    hits = corpus_hits()
    sources = {}
    for module, (total, missing) in unreached(hits).items():
        print(f"{module}: {len(missing)} of {total} statements unreached")
        if missing:
            text = sources.setdefault(
                module, (PACKAGE / f"{module}.py").read_text().splitlines())
        for line, function in missing:
            print(f"  {line:4d}  {function}: {text[line - 1].strip()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
