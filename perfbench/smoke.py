"""Smoke test for the benchmark: every workload at a tiny size.

    python3 perfbench/smoke.py

Runs each workload named in BENCHMARK.json once untraced and once traced
(one op per op kind, one round), and checks that the last output line is
the result object, that its metric names and units are exactly the ones
BENCHMARK.json lists, and that every op passed.  Then checks that the
benchmark refuses to run, without printing a result, in a directory that
holds only BENCHMARK.json and the benchmark's own files.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def run(cwd: str, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
           "--seconds", "0.2", "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def check_result(proc, expected: dict) -> list:
    if proc.returncode != 0:
        return [f"exit code {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    errors = []
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"result keys {sorted(res)}")
    if res.get("correct") is not True or res.get("failed") != 0:
        errors.append(f"correct={res.get('correct')} failed={res.get('failed')}: "
                      f"{proc.stderr.strip()[-500:]}")
    if not isinstance(res.get("attempted"), int) or res["attempted"] < 1:
        errors.append(f"attempted={res.get('attempted')}")
    got = {k: v.get("unit") for k, v in res.get("metrics", {}).items()}
    if got != expected:
        errors.append(f"metrics differ: missing {sorted(set(expected) - set(got))}, "
                      f"extra {sorted(set(got) - set(expected))}, units "
                      f"{sorted(k for k in got if k in expected and got[k] != expected[k])}")
    for k, v in res.get("metrics", {}).items():
        if not isinstance(v.get("value"), (int, float)):
            errors.append(f"{k}: value {v.get('value')!r} is not a number")
    return errors


def check_bare(spec: dict) -> list:
    """Only BENCHMARK.json and the benchmark's paths: must exit nonzero."""
    bare = os.path.join(ROOT, ".perfbench_out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for path in spec["paths"]:
        shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                        ignore=shutil.ignore_patterns("__pycache__"))
    try:
        proc = run(bare, spec["workloads"][0]["name"], 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        return [f"bare directory: exit code {proc.returncode}, stdout {proc.stdout[-200:]!r}"]
    return []


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    failures = 0
    for w in spec["workloads"]:
        for trace in (0, 1):
            errors = check_result(run(ROOT, w["name"], trace), expected[trace])
            status = "ok" if not errors else "FAIL"
            print(f"{status} {w['name']} trace={trace}")
            for e in errors:
                print(f"    {e}")
            failures += bool(errors)
    errors = check_bare(spec)
    print(f"{'ok' if not errors else 'FAIL'} refuses to run without the package")
    for e in errors:
        print(f"    {e}")
    failures += bool(errors)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
