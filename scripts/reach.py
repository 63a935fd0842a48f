"""List the statements of splitchain that no product run reaches.

    PYTHONPATH=src python3 scripts/reach.py

Line-traces ``src/splitchain`` with the stdlib ``trace`` module (which
runs on ``sys.settrace``) while it runs

* the first ``OPS`` ops of each of the benchmark's four workloads
  (``bench/workloads.py``) on seed 0;
* the five CLI subcommands: ``simulate`` on figure1.mit, ``analyze``,
  ``divide-demo``, ``xfer-demo`` and ``verify-proof`` of the transfer
  demo's proof, in a temporary directory;
* every script under ``demos/``;

then prints, per module, the statements inside functions that none of
these runs executed, each with its line and the function it sits in.
Module and class bodies run on import and are not listed. A statement
counts as reached when any line of it (for a compound statement, of its
header) executed; statements that compile to nothing, such as a
docstring, are not counted.
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


def _cli_commands(out: Path):
    from splitchain.cli import main
    xfer = out / "xfer"
    for argv in (
            ["simulate", "--scenario", str(FIGURE1), "--seed", "0",
             "--out", str(out / "sim")],
            ["analyze", "--alpha", "1/2", "--n", "10,40", "--trials", "1000",
             "--out", str(out / "sweep.csv")],
            ["divide-demo", "--out", str(out / "divide")],
            ["xfer-demo", "--out", str(xfer)],
            ["verify-proof", "--proof", str(xfer / "lock_proof.bin"),
             "--registry", str(xfer / "registry.json")]):
        main(argv)


def _demos():
    for script in sorted((REPO / "demos").glob("*.py")):
        runpy.run_path(str(script), run_name="__main__")


def product_runs(ops: int, out: Path):
    _workload_ops(ops)
    _cli_commands(out)
    _demos()


def main() -> int:
    with tempfile.TemporaryDirectory() as out:
        with contextlib.redirect_stdout(io.StringIO()):
            hits = trace(lambda: product_runs(OPS, Path(out)))
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
