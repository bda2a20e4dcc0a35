"""Span tracer installed from outside the package.

``install`` wraps the public functions of each minimaxdyn module and the
``numpy.linalg`` kernels they call.  A function can be reachable under
several names (``dynamics`` imports ``saddle_gradient`` by name,
``stability`` imports from ``spectral``, ``cli`` imports ``run_discrete``,
and ``stability._VERDICT_FUNCS`` holds the verdict routines in a dict), so
every module-level name and every module-level dict entry that refers to
the original function is replaced, and ``restore`` puts each one back.

Self time of a span is its duration minus the time covered by its child
spans.  Spans are kept in memory (up to ``SPAN_CAP``) and written out by
the caller after the run.
"""

from __future__ import annotations

import functools
import sys
import time
from fractions import Fraction

SPAN_CAP = 200_000

# (home module, function name); the metric label is "<short module>.<name>"
TARGETS = (
    ("minimaxdyn.problems", "saddle_gradient"),
    ("minimaxdyn.problems", "jacobian_F"),
    ("minimaxdyn.problems", "hessian_blocks_at"),
    ("minimaxdyn.dynamics", "run_discrete"),
    ("minimaxdyn.dynamics", "integrate"),
    ("minimaxdyn.dynamics", "ode_field"),
    ("minimaxdyn.dynamics", "find_stationary"),
    ("minimaxdyn.dynamics", "write_trajectory_csv"),
    ("minimaxdyn.spectral", "canonicalize"),
    ("minimaxdyn.spectral", "restricted_schur"),
    ("minimaxdyn.spectral", "eigencurves"),
    ("minimaxdyn.spectral", "hemicurvature"),
    ("minimaxdyn.stability", "characterize_equilibrium"),
    ("minimaxdyn.stability", "infinity_eg_verdict"),
    ("minimaxdyn.stability", "stability_continuous"),
    ("minimaxdyn.stability", "stability_discrete"),
    ("minimaxdyn.stability", "gda_stability"),
    ("numpy.linalg", "eigvals"),
    ("numpy.linalg", "cond"),
    ("numpy.linalg", "solve"),
    ("numpy.linalg", "svd"),
    ("minimaxdyn.cli", "cmd_classify"),
    ("minimaxdyn.cli", "cmd_simulate"),
    ("minimaxdyn.cli", "cmd_avoidance"),
    ("minimaxdyn.cli", "cmd_sweep"),
)

RK4_CHILDREN = ("problems.saddle_gradient", "problems.jacobian_F",
                "numpy.linalg.cond", "numpy.linalg.solve")


def label(module: str, name: str) -> str:
    short = module if module == "numpy.linalg" else module.rsplit(".", 1)[-1]
    return f"{short}.{name}"


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}      # label -> [calls, total_s, self_s]
        self.spans: list[tuple] = []          # (id, parent, label, start, end, op)
        self.dropped = 0
        self.op = -1
        self.recording = True
        self.steps = 0
        self.terms: dict[str, int] = {}
        self.members = 0
        # (steps, child-call deltas) of each RK4 run on a quadratic EG field
        self.rk4_runs: list[tuple] = []
        self.jacobian_in_ode_field_s = 0.0
        self._stack: list[list] = []          # [span id, child time]
        self._next_id = 0
        self._undo: list[tuple] = []
        self.missing: list[str] = []

    def wrap(self, name: str, fn, on_call=None, on_return=None):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            token = on_call(args, kwargs) if on_call else None
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [span_id, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dt = t1 - t0
                stats[0] += 1
                stats[1] += dt
                stats[2] += dt - frame[1]
                if stack:
                    stack[-1][1] += dt
                if self.recording:
                    if len(self.spans) < SPAN_CAP:
                        self.spans.append((span_id, parent, name, t0, t1, self.op))
                    else:
                        self.dropped += 1
            if on_return:
                on_return(token, result)
            return result
        return traced

    # -- trajectory hooks ---------------------------------------------------

    def _count_member(self, _token, traj):
        from minimaxdyn import dynamics

        reason = traj.termination.reason
        self.terms[reason] = self.terms.get(reason, 0) + 1
        self.members += 1
        if traj.params.method in dynamics.DISCRETE_METHODS:
            self.steps += int(traj.times[-1])
        else:
            self.steps += len(traj.times) - 1

    def _integrate_call(self, args, kwargs):
        problem = args[0] if args else kwargs.get("problem")
        kind = args[1] if len(args) > 1 else kwargs.get("kind")
        if getattr(problem, "quadratic", None) is None or kind not in ("eg", "eg_tt"):
            return None
        return tuple(self.stats.get(n, [0])[0] for n in RK4_CHILDREN)

    def _integrate_return(self, token, traj):
        self._count_member(None, traj)
        if token is not None:
            now = tuple(self.stats.get(n, [0])[0] for n in RK4_CHILDREN)
            self.rk4_runs.append((len(traj.times) - 1,
                                  tuple(b - a for a, b in zip(token, now))))

    def _jacobian_time(self, *_):
        return self.stats.get("problems.jacobian_F", [0, 0.0])[1]

    def _ode_field_return(self, before, _):
        self.jacobian_in_ode_field_s += self._jacobian_time() - before

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Wrap every target under every name that holds it; targets that
        do not exist in this version of the package go to self.missing."""
        namespaces = [m for n, m in sorted(sys.modules.items())
                      if m is not None and (n == "minimaxdyn" or n.startswith("minimaxdyn."))]
        namespaces.append(sys.modules["numpy.linalg"])
        self.missing = []
        for module, name in TARGETS:
            home = sys.modules.get(module)
            orig = getattr(home, name, None) if home is not None else None
            if orig is None:
                self.missing.append(label(module, name))
                continue
            hooks = {}
            if name == "run_discrete":
                hooks = {"on_return": self._count_member}
            elif name == "integrate":
                hooks = {"on_call": self._integrate_call, "on_return": self._integrate_return}
            elif name == "ode_field":
                hooks = {"on_call": self._jacobian_time, "on_return": self._ode_field_return}
            wrapper = self.wrap(label(module, name), orig, **hooks)
            for ns in namespaces:
                for attr, value in list(vars(ns).items()):
                    if value is orig:
                        setattr(ns, attr, wrapper)
                        self._undo.append((ns, attr, orig, False))
                    elif isinstance(value, dict):
                        for key, entry in list(value.items()):
                            if entry is orig:
                                value[key] = wrapper
                                self._undo.append((value, key, orig, True))

    def restore(self) -> None:
        for container, key, orig, is_dict in reversed(self._undo):
            if is_dict:
                container[key] = orig
            else:
                setattr(container, key, orig)
        self._undo.clear()

    # -- results ------------------------------------------------------------

    def rk4_per_step(self) -> dict:
        """Child calls per RK4 step: the slope of calls against steps over
        all quadratic EG integrations (per-run set-up calls fall into the
        intercept); calls/steps when every run has the same length."""
        if not self.rk4_runs:
            return {n: 0.0 for n in RK4_CHILDREN}
        steps = [Fraction(s) for s, _ in self.rk4_runs]
        mean_s = sum(steps) / len(steps)
        var = sum((s - mean_s) ** 2 for s in steps)
        out = {}
        for i, n in enumerate(RK4_CHILDREN):
            calls = [Fraction(d[i]) for _, d in self.rk4_runs]
            if var > 0:
                mean_c = sum(calls) / len(calls)
                slope = sum((s - mean_s) * (c - mean_c) for s, c in zip(steps, calls)) / var
            else:
                slope = sum(calls) / max(sum(steps), 1)
            out[n] = float(slope)
        return out
