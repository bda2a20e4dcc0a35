"""minimaxdyn benchmark: one workload per process, end to end or traced.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; the package is imported from
``src/``.  BLAS is pinned to one thread.  The workload's op list (one
round) is built from the seed, run once as warm-up, then repeated until
``--seconds`` of measured rounds have elapsed.  Every op's output is
checked.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Lines before it give run metadata and the same figures for a reader.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import functools  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK_DIR = os.path.join(ROOT, ".perfbench_out")
SETUP_PROBES = 10
TAIL_MIN_ABOVE = 10


def _fail(msg: str) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


def _import_package():
    """Import the package from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "minimaxdyn", "__init__.py")):
        raise ImportError(f"no minimaxdyn package under {SRC}")
    sys.path.insert(0, SRC)
    sys.path.insert(0, BENCH_DIR)
    import minimaxdyn
    import workloads

    if not os.path.abspath(minimaxdyn.__file__).startswith(SRC + os.sep):
        raise ImportError(f"minimaxdyn imported from {minimaxdyn.__file__}, not {SRC}")
    return workloads


# ---------------------------------------------------------------------------
# measurement


def measure_setup(args) -> float:
    """Seconds from a fresh interpreter to imported modules and built
    problem objects, measured on one probe process."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed), "--size", args.size]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=60, cwd=ROOT)
    dt = time.perf_counter() - t0
    if proc.returncode != 0 or proc.stdout.strip() != "ready":
        raise RuntimeError(f"setup probe failed: {proc.stderr.strip()[-500:]}")
    return dt


def setup_probe(args, workloads) -> int:
    wl = workloads.WORKLOADS[args.workload](args.seed, WORK_DIR, args.size)
    wl.setup()
    sys.stdout.write("ready\n")
    sys.stdout.flush()
    os._exit(0)  # skip interpreter teardown so the parent times set-up only


def _mismatch_count() -> int:
    from minimaxdyn import stability

    counter = getattr(stability, "mismatch_count", None)
    return counter() if counter else 0


class Round:
    def __init__(self):
        self.op_times: list[float] = []
        self.wall = 0.0
        self.failures: list[tuple] = []   # (op key, messages)
        self.trips = 0
        self.out_bytes = 0
        self.csv_bytes = 0


def run_round(wl, ops, check, tracer=None) -> Round:
    rnd = Round()
    wl.reset_outputs()
    outcomes = []
    if tracer is not None:
        tracer.install()
        wl.instrument(tracer)
    try:
        clock = time.perf_counter
        t_round = clock()
        for i, op in enumerate(ops):
            if tracer is not None:
                tracer.op = i
            before = _mismatch_count()
            t0 = clock()
            try:
                result, error = op.run(), None
            except Exception as exc:  # an op that raises counts as failed
                result, error = None, exc
            t1 = clock()
            outcomes.append((result, error, _mismatch_count() - before))
            rnd.op_times.append(t1 - t0)
        rnd.wall = clock() - t_round
    finally:
        if tracer is not None:
            tracer.restore()
            wl.uninstrument()
    for op, (result, error, trips) in zip(ops, outcomes):
        rnd.trips += trips
        if error is not None:
            msgs = [f"raised {type(error).__name__}: {error}"]
        else:
            msgs = check(op, result)
        if trips:
            msgs.append(f"{trips} dual-criterion self-test trip(s)")
        if msgs:
            rnd.failures.append((op.key, msgs))
        out_dir = getattr(result, "out_dir", None)
        if tracer is not None and out_dir and os.path.isdir(out_dir):
            for fname in os.listdir(out_dir):
                size = os.path.getsize(os.path.join(out_dir, fname))
                rnd.out_bytes += size
                if fname.startswith("traj_") and fname.endswith(".csv"):
                    rnd.csv_bytes += size
    return rnd


def run_rounds(wl, ops, check, seconds: float, tracer=None, probe=None,
               n_probes: int = 0) -> tuple:
    """Rounds back to back until `seconds` of round time; `n_probes` set-up
    probes are spread evenly over the same window.  Successive rounds run
    on successive CPUs of this process's affinity set: on a shared host one
    CPU can stay slowed for tens of seconds while another is not."""
    cpus = sorted(os.sched_getaffinity(0))
    rounds, probes, spent = [], [], 0.0
    while not rounds or spent < seconds:
        os.sched_setaffinity(0, {cpus[len(rounds) % len(cpus)]})
        rnd = run_round(wl, ops, check, tracer)
        rounds.append(rnd)
        spent += rnd.wall
        if tracer is not None:
            tracer.recording = False  # keep the spans of the first traced round
        while len(probes) < n_probes and spent >= len(probes) * seconds / n_probes:
            probes.append(probe())
    while len(probes) < n_probes:
        probes.append(probe())
    os.sched_setaffinity(0, cpus)
    return rounds, probes


def best_op_times(rounds: list) -> list:
    """Each op's fastest time over the rounds of a run.  The host is
    shared and its speed drifts by tens of percent over seconds;
    interference only adds time, so the best of many repetitions measures
    the program rather than its neighbours."""
    return [min(times) for times in zip(*(r.op_times for r in rounds))]


def tail(times: list) -> tuple:
    """(percentile, value): the highest whole percentile that leaves at
    least TAIL_MIN_ABOVE ops above it (nearest rank); the maximum when
    there are too few ops."""
    xs = sorted(times)
    n = len(xs)
    if n <= TAIL_MIN_ABOVE:
        return 100, xs[-1]
    q = math.floor(100.0 * (n - TAIL_MIN_ABOVE) / n)
    rank = max(1, math.ceil(q * n / 100.0))
    return q, xs[rank - 1]


# ---------------------------------------------------------------------------
# metadata


def _git_commit() -> str:
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        path = os.path.join(ROOT, ".git", ref[5:])
        if os.path.isfile(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.strip().endswith(ref[5:]):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def metadata(args, wl, ops: list, n_rounds: int) -> dict:
    import numpy
    import scipy

    blas = "unknown"
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except (TypeError, KeyError):  # older numpy without dict mode
        pass
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "thread_env": {v: os.environ.get(v) for v in ("OMP_NUM_THREADS",
                                                       "OPENBLAS_NUM_THREADS",
                                                       "MKL_NUM_THREADS")},
        "commit": _git_commit(),
        "ops_per_round": len(ops),
        "op_kinds": {k: [op.kind for op in ops].count(k) for k in sorted({op.kind for op in ops})},
        "rounds_timed": n_rounds,
        "pool_index": wl.pool_index,
    }


# ---------------------------------------------------------------------------
# metrics


def end_to_end(setup_samples, rounds, n_ops) -> tuple:
    best = best_op_times(rounds)
    q, tail_value = tail(best)
    metrics = {
        "setup_s": (min(setup_samples), "s"),
        "wall_s": (sum(best), "s"),
        "op_p50_s": (statistics.median(best), "s"),
        "op_tail_s": (tail_value, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    notes = {
        "setup_s": f"best of {len(setup_samples)} fresh interpreters",
        "wall_s": f"sum over the {n_ops} ops of each op's best of {len(rounds)} rounds",
        "op_p50_s": f"median over the {n_ops} ops of each op's best time",
        "op_tail_s": f"p{q} over the {n_ops} ops of each op's best time",
        "peak_rss_mb": "ru_maxrss of this process",
    }
    return metrics, notes


def per_layer(tracer, traced, untraced, spectral_ops) -> dict:
    from tracer import RK4_CHILDREN, TARGETS, label

    n = len(traced)
    m = {}
    for module, name in TARGETS:
        lbl = label(module, name)
        calls, _, self_s = tracer.stats.get(lbl, [0, 0.0, 0.0])
        m[f"{lbl}.calls"] = (calls / n, "count")
        m[f"{lbl}.self_s"] = (self_s / n, "s")
    m["problems.user_grad.calls"] = (tracer.stats.get("problems.user_grad", [0])[0] / n,
                                     "count")
    m["dynamics.steps"] = (tracer.steps / n, "count")
    for reason in ("converged", "diverged", "max_iters", "t_end"):
        m[f"dynamics.term.{reason}"] = (tracer.terms.get(reason, 0) / n, "count")
    m["dynamics.converged_ratio"] = (
        tracer.terms.get("converged", 0) / tracer.members if tracer.members else 0.0, "ratio")
    m["dynamics.csv_bytes"] = (statistics.mean(r.csv_bytes for r in traced), "B")
    per_step = tracer.rk4_per_step()
    for child in RK4_CHILDREN:
        m[f"dynamics.rk4_step.{child.split('.')[-1]}.calls"] = (per_step[child], "count")
    ode_total = tracer.stats.get("dynamics.ode_field", [0, 0.0])[1]
    m["dynamics.ode_field.jacobian_F_share"] = (
        tracer.jacobian_in_ode_field_s / ode_total if ode_total else 0.0, "ratio")
    eig_calls = tracer.stats.get("numpy.linalg.eigvals", [0])[0]
    m["numpy.linalg.eigvals.calls_per_spectral_op"] = (
        eig_calls / (spectral_ops * n) if spectral_ops else 0.0, "count")
    m["stability.selftest_trips"] = (sum(r.trips for r in traced) / n, "count")
    m["cli.out_bytes"] = (statistics.mean(r.out_bytes for r in traced), "B")
    m["trace.overhead_s"] = (sum(best_op_times(traced)) - sum(best_op_times(untraced)), "s")
    return m


def write_spans(tracer, wl, seed: int) -> str:
    path = os.path.join(wl.work_dir, f"trace_seed{seed}.json")
    with open(path, "w") as fh:
        json.dump({"fields": ["id", "parent", "name", "start", "end", "op"],
                   "spans": tracer.spans, "dropped": tracer.dropped}, fh)
    return path


# ---------------------------------------------------------------------------


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny: one op per op kind, one setup probe (smoke test)")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        workloads = _import_package()
    except ImportError as exc:
        return _fail(f"cannot import the package: {exc}")
    if args.workload not in workloads.WORKLOADS:
        return _fail(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(workloads.WORKLOADS)}")
    if args.setup_probe:
        return setup_probe(args, workloads)
    try:
        reference = workloads.load_reference()[args.workload]
    except (OSError, KeyError) as exc:
        return _fail(f"no reference outputs for {args.workload}: {exc!r}")
    check = functools.partial(workloads.check_op, reference=reference)

    wl = workloads.WORKLOADS[args.workload](args.seed, WORK_DIR, args.size)
    wl.setup()
    wl.prepare()
    ops = wl.ops()
    warm = run_round(wl, ops, check)  # lazy set-up happens here, untimed
    if args.trace == 0:
        n_probes = 1 if args.size == "tiny" else SETUP_PROBES
        rounds, setup_samples = run_rounds(wl, ops, check, args.seconds,
                                           probe=lambda: measure_setup(args),
                                           n_probes=n_probes)
        untraced, traced, tracer = rounds, [], None
    else:
        from tracer import Tracer

        untraced, _ = run_rounds(wl, ops, check, args.seconds / 2.0)
        tracer = Tracer()
        traced, _ = run_rounds(wl, ops, check, args.seconds / 2.0, tracer)
        rounds = untraced + traced

    checked = [warm] + rounds
    attempted = len(ops) * len(checked)
    failed = sum(len(r.failures) for r in checked)
    for r in checked:
        for key, msgs in r.failures[:5]:
            print(f"FAILED {key}: {'; '.join(msgs)}", file=sys.stderr)

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}")
    print("meta " + json.dumps(metadata(args, wl, ops, len(rounds)), sort_keys=True))
    print(f"  failed_frac = {failed / attempted:.6g} ratio ({failed} of {attempted} ops)")
    if args.trace == 0:
        metrics, notes = end_to_end(setup_samples, rounds, len(ops))
        for name, (value, unit) in metrics.items():
            print(f"  {name} = {value:.6g} {unit} ({notes[name]})")
    else:
        spectral_ops = sum(op.kind in ("cli.classify", "cli.sweep") for op in ops)
        metrics = per_layer(tracer, traced, untraced, spectral_ops)
        if tracer.missing:
            print(f"  not in this version of the package: {', '.join(tracer.missing)}")
        print(f"  traced rounds: {len(traced)}, untraced rounds: {len(untraced)}; "
              f"spans in {os.path.relpath(write_spans(tracer, wl, args.seed), ROOT)}")
        for name, (value, unit) in metrics.items():
            if value:
                print(f"  {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
