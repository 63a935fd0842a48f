"""Sample where the growth workload spends its CPU time.

    python3 scripts/sample_profile.py

The script sets up WORKLOAD of ``bench/workloads.py`` on run seed SEED in
this process, runs its first OPS ops and, only while an op runs, samples
the Python stack every INTERVAL_S of the process's own CPU time
(``signal.setitimer`` with ``ITIMER_PROF``, which acts on this process
alone); it takes about 12 s on a 2-core x86_64 host. Unlike a deterministic profiler it adds no
cost per call, so it does not inflate call-heavy code.

It prints, per function, its self share (samples with the function on top
of the stack) and its inclusive share (samples with the function anywhere
on the stack), the top TOP functions by self share. The ``__init__`` a
frozen dataclass or a ``model.record`` generates (compiled from
``<string>``) is charged to its caller, so a constructor's cost shows where the value is built; the share
of samples inside such an ``__init__`` is printed on its own line.

Two limits of the method: the kernel checks a CPU timer at its scheduler
tick, so samples come at most once per tick (the report prints the CPU
time per sample it got); and Python runs a signal handler between
bytecodes, so the time of one long C call (hashing a large buffer,
formatting a long string) is charged to the Python line after it, which
may be in its caller.
"""

import signal
import sys
import time
from collections import Counter
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
GENERATED = "<string>"  # co_filename of a dataclass's generated methods
WORKLOAD = "growth"  # the paper's growth experiment, figure1.mit
SEED = 0
OPS = 1000
INTERVAL_S = 0.0005
TOP = 15


class Sampler:
    """Stack samples of this process, taken while an op runs (``run``)
    inside ``with sampler``."""

    def __init__(self, interval_s: float):
        self.interval_s = interval_s
        self.samples = 0
        self.self_counts = Counter()
        self.inclusive_counts = Counter()
        self.generated = 0  # samples inside a generated dataclass method
        self.cpu_s = 0.0  # CPU time while running
        self.running = False

    def _sample(self, signum, frame):
        if not self.running:
            return
        self.samples += 1
        seen = set()
        top = None
        inside_generated = False
        while frame is not None:
            code = frame.f_code
            if code.co_filename == GENERATED:
                inside_generated = True
            else:
                key = _label(code)
                if top is None:
                    top = key
                seen.add(key)
            frame = frame.f_back
        self.generated += inside_generated
        if top is not None:
            self.self_counts[top] += 1
        self.inclusive_counts.update(seen)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, self.interval_s, self.interval_s)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, self._previous)

    def run(self, op, *args):
        """``op(*args)``, sampled."""
        start = time.process_time()
        self.running = True
        try:
            return op(*args)
        finally:
            self.running = False
            self.cpu_s += time.process_time() - start

    def shares(self, counts: Counter) -> dict:
        return {key: count / self.samples for key, count in counts.items()}

    def report(self, top: int) -> str:
        if not self.samples:
            return "no samples: the ops ran shorter than one interval\n"
        inclusive = self.shares(self.inclusive_counts)
        lines = [f"{self.samples} samples in {self.cpu_s:.2f} s of CPU time"
                 f" (one per {self.cpu_s / self.samples * 1e3:.2f} ms;"
                 f" asked for one per {self.interval_s * 1e3:.2f} ms)",
                 f"{'self':>6} {'incl':>6}  function"]
        for key, count in self.self_counts.most_common(top):
            lines.append(f"{count / self.samples:6.1%} {inclusive[key]:6.1%}"
                         f"  {key}")
        lines.append(f"dataclass __init__ (charged to callers):"
                     f" {self.generated / self.samples:.1%} inclusive")
        return "\n".join(lines) + "\n"


def _label(code) -> str:
    module = Path(code.co_filename).stem
    return f"{module}.{code.co_qualname}:{code.co_firstlineno}"


def load_workload(name: str, seed: int):
    """A set-up workload of this tree's bench, on this tree's sources."""
    for path in (REPO / "src", REPO / "bench"):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    from workloads import WORKLOADS
    workload = WORKLOADS[name]()
    workload.setup(seed)
    return workload


def profile(ops: int) -> Sampler:
    """Sample the first ``ops`` ops of WORKLOAD on run seed SEED; the
    untimed ``begin`` of each op is not sampled."""
    workload = load_workload(WORKLOAD, SEED)
    entries = (entry for chunk in workload.chunks() for entry in chunk)
    with Sampler(INTERVAL_S) as sampler:
        for _, entry in zip(range(ops), entries):
            workload.begin(entry)
            sampler.run(workload.run, entry)
    return sampler


def main() -> None:
    start = time.process_time()
    sampler = profile(OPS)
    sys.stdout.write(f"{WORKLOAD}: {OPS} ops from seed {SEED},"
                     f" {time.process_time() - start:.2f} s CPU in all\n")
    sys.stdout.write(sampler.report(TOP))


if __name__ == "__main__":
    main()
