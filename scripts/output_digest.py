#!/usr/bin/env python3
"""One sha256 per benchmark op template over the exact bytes of its outputs.

Runs every op of every perfbench workload, in-process, for each seed of a
range, and hashes per template, in seed and slot order:

  CLI ops      the exit code, stderr, and every file the command wrote, by
               relative path, byte for byte as written;
  library ops  the returned object, arrays through tobytes() with their dtype
               and shape, floats through their IEEE bytes, dataclasses field
               by field, less the fields marked compare=False (intermediate
               results kept for inspection, not outputs).

Two checkouts whose digests all match produce bit-identical outputs on the
benchmark's inputs.  The workloads come from perfbench/workloads.py of the
checkout the script lives in, which it imports and does not change; the
package is imported from that checkout's src/.

With --check FILE the digests are compared with FILE, the output of an
earlier run with the same --seeds and --workload (for example of another
checkout: --seeds 0-5 > before.txt); each template that differs, or is on
one side only, is named and the exit status is 1.

Usage: python scripts/output_digest.py [--seeds 0-5] [--workload NAME ...] [--check FILE]
"""

import argparse
import dataclasses
import hashlib
import os
import sys
import tempfile

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import workloads  # noqa: E402  (perfbench/workloads.py)


def feed(h, obj) -> None:
    """Hash obj's exact value into h, tagged by type so that distinct values differ."""
    if isinstance(obj, np.ndarray):
        h.update(f"A{obj.dtype.str}{obj.shape}".encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif isinstance(obj, (float, np.floating)):
        h.update(b"f" + np.float64(obj).tobytes())
    elif isinstance(obj, (bool, int, str, type(None), np.integer, np.bool_)):
        h.update(f"{type(obj).__name__}:{obj!r};".encode())
    elif isinstance(obj, workloads.CliResult):  # before dataclasses: not its out_dir
        feed(h, obj.code)
        feed(h, obj.stderr)
        for base, dirs, files in sorted(os.walk(obj.out_dir)):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(base, name)
                feed(h, os.path.relpath(path, obj.out_dir))
                with open(path, "rb") as fh:
                    data = fh.read()
                feed(h, len(data))
                h.update(data)
    elif dataclasses.is_dataclass(obj):
        h.update(f"D{type(obj).__name__}".encode())
        for field in (f for f in dataclasses.fields(obj) if f.compare):
            h.update(field.name.encode())
            feed(h, getattr(obj, field.name))
    elif isinstance(obj, dict):
        h.update(f"M{len(obj)}".encode())
        for key, value in obj.items():
            feed(h, key)
            feed(h, value)
    elif isinstance(obj, (list, tuple)):
        h.update(f"L{len(obj)}".encode())
        for item in obj:
            feed(h, item)
    else:
        raise TypeError(f"no exact digest for {type(obj).__name__}")


def seed_range(text: str) -> range:
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seeds", default="0-5", help="inclusive range, as 0-5 or 3")
    ap.add_argument("--workload", nargs="*", choices=sorted(workloads.WORKLOADS),
                    help="workloads to run (default: all)")
    ap.add_argument("--check", metavar="FILE",
                    help="compare with the digests an earlier run wrote to FILE")
    args = ap.parse_args(argv)

    digests = {}
    with tempfile.TemporaryDirectory() as work_dir:
        for name in args.workload or workloads.WORKLOADS:
            for seed in seed_range(args.seeds):
                wl = workloads.WORKLOADS[name](seed, work_dir)
                wl.setup()
                wl.prepare()
                wl.reset_outputs()
                for op in wl.ops():
                    template = op.key.split("/")[0]
                    h = digests.setdefault(f"{name}/{template}", hashlib.sha256())
                    feed(h, op.key)
                    feed(h, op.run())
    lines = {key: h.hexdigest() for key, h in digests.items()}
    if args.check is None:
        for key, digest in lines.items():
            print(f"{digest}  {key}")
        return 0
    with open(args.check) as fh:
        before = {key: digest for digest, key in (line.split() for line in fh if line.strip())}
    differ = [key for key in {**before, **lines} if before.get(key) != lines.get(key)]
    for key in differ:
        print(f"differs: {key}" if key in before and key in lines else
              f"only {'here' if key in lines else 'in ' + args.check}: {key}")
    print(f"{len(lines) - len(set(differ) & lines.keys())} of {len(lines)} template digests "
          f"match {args.check}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
