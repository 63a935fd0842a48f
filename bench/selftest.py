"""Self-test of the benchmark's correctness gate.

    python3 bench/selftest.py

For each workload it runs a few pooled ops three times: as they are, with
one op's output corrupted by a flipped byte, and with one op raising. The
clean run must count no failure; each faulty run must count exactly one.
Exits non-zero if the gate misses a fault or reports a false one.
"""

import json
import sys

from run import REFERENCE, run_list
from workloads import REPO_DIR, WORKLOADS


def flip_last_byte(output):
    return output[:-1] + bytes([output[-1] ^ 1])


def check(name):
    workload = WORKLOADS[name]()
    reference = json.loads(REFERENCE.read_text())[name]
    workload.setup(0)
    if name == "transfer":
        # a transfer op's output is checked through its epoch's hash, so
        # the corruption shows at the end of the epoch
        entries = workload.pool()[:workload.EPOCH]
        faulty_index = workload.EPOCH - 1
    else:
        entries, faulty_index = workload.pool()[:2], 0
    clean = run_list(workload, reference, entries)

    remaining = [1]

    def corrupt_once(output):
        remaining[0] -= 1
        return flip_last_byte(output) if remaining[0] == 0 else output

    corrupted = run_list(workload, reference, entries, corrupt=corrupt_once)

    run = workload.run

    def raise_on_first(entry):
        if entry == entries[0]:
            raise RuntimeError("injected fault")
        return run(entry)

    workload.run = raise_on_first
    raised = run_list(workload, reference, entries)
    workload.run = run

    outcome = {"clean": clean.problems, "corrupted": corrupted.problems,
               "raised": raised.problems}
    ok = (not clean.problems
          and list(corrupted.problems) == [faulty_index]
          and 0 in raised.problems)
    print(f"{name}: {'ok' if ok else 'FAILED'} {outcome}")
    return ok


def main():
    sys.path.insert(0, str(REPO_DIR / "src"))
    results = [check(name) for name in WORKLOADS]
    sys.exit(0 if all(results) else 1)


if __name__ == "__main__":
    main()
