"""Regenerate perfbench/reference.json: the digest of every op the
benchmark can generate (every op template x every pool index).

    python3 perfbench/make_reference.py [workload ...]

Run it only on a commit whose outputs are trusted; the benchmark then
checks every later commit against these digests.  Ops that fail their
invariants are reported and nothing is written.
"""

from __future__ import annotations

import json
import os
import sys

import run  # pins BLAS threads before numpy is imported

workloads = run._import_package()


def generate(name: str) -> tuple:
    wl = workloads.WORKLOADS[name](0, os.path.join(run.WORK_DIR, "reference"))
    templates = list(dict.fromkeys(wl.slots))
    wl.slots = [t for t in templates for _ in range(workloads.POOL)]
    wl.pool_index = [k for _ in templates for k in range(workloads.POOL)]
    wl.setup()
    wl.prepare()
    wl.reset_outputs()
    digests, failures = {}, []
    for op in wl.ops():
        result = op.run()
        digest = json.loads(json.dumps(op.digest(result)))
        msgs = op.invariants(result, digest)
        if msgs:
            failures.append(f"{op.key}: {'; '.join(msgs)}")
        digests[op.key] = digest
    return digests, failures


def dumps(reference: dict) -> str:
    """JSON with one line per op, so that a regenerated file diffs by op."""
    blocks = []
    for name in sorted(reference):
        ops = [f"  {json.dumps(k)}: {json.dumps(v, sort_keys=True)}"
               for k, v in sorted(reference[name].items())]
        blocks.append(f" {json.dumps(name)}: {{\n" + ",\n".join(ops) + "\n }")
    return "{\n" + ",\n".join(blocks) + "\n}\n"


def main(names) -> int:
    try:
        with open(workloads.REFERENCE_PATH) as fh:
            reference = json.load(fh)
    except OSError:
        reference = {}
    failures = []
    for name in names or sorted(workloads.WORKLOADS):
        digests, bad = generate(name)
        failures += bad
        reference[name] = digests
        print(f"{name}: {len(digests)} ops, {len(bad)} failing")
    if failures:
        print("\n".join(failures), file=sys.stderr)
        return 1
    with open(workloads.REFERENCE_PATH, "w") as fh:
        fh.write(dumps(reference))
    print(f"wrote {os.path.relpath(workloads.REFERENCE_PATH)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
