"""Record reference.json: the SHA-256 of every pooled op's output.

    python3 bench/record_reference.py

Runs every entry of each workload's reference pool once (the inputs a run
on seed 0 visits first), refuses to record if any op fails its structural
checks, and writes reference.json from scratch. Re-record only in a change
that intends to alter outputs, and say so in CHANGES.md.
"""

import json
import sys
import time

from workloads import REPO_DIR, WORKLOADS


def record(name):
    workload = WORKLOADS[name]()
    workload.setup(0)
    digests = {}
    for entry in workload.pool():
        workload.begin(entry)
        output, counts = workload.run(entry)
        key, digest, problem = workload.verdict(entry, output, counts)
        if problem:
            raise SystemExit(f"{name} {entry!r}: {problem}")
        if key is not None:
            digests[key] = digest
    return digests


def main():
    from run import REFERENCE
    sys.path.insert(0, str(REPO_DIR / "src"))
    reference = {}
    for name in WORKLOADS:
        start = time.perf_counter()
        reference[name] = record(name)
        print(f"{name}: {len(reference[name])} hashes in"
              f" {time.perf_counter() - start:.1f} s")
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True)
                         + "\n")


if __name__ == "__main__":
    main()
