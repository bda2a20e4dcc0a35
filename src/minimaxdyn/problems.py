"""Minimax problem instances.

A problem bundles a smooth objective f(x, y) for min_x max_y, its gradient,
and (optionally) the second-derivative blocks (A, B, C) that assemble into
the Jacobian of the saddle-gradient field

    H = [[ A,    C ],
         [ -C^T, -B ]],   A = d2f/dx2,  B = d2f/dy2,  C = d2f/dxdy.

Quadratic instances carry exact constant blocks; everything else falls back
to central finite differences.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

SYMMETRY_TOL = 1e-8
_CBRT_EPS = float(np.cbrt(np.finfo(float).eps))  # scale of the finite-difference step

BUILTIN_NAMES = (
    "bilinear",
    "scalar_degenerate",
    "strict_nonminimax_demo",
)


def _integer(v) -> bool:
    """Whether v is a Python or numpy integer; a bool is none.  The one test of a count."""
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


def _as_matrix(M, name: str) -> np.ndarray:
    M = np.asarray(M, dtype=float)
    if M.ndim != 2:
        raise ValueError(f"{name} must be a 2-d matrix, got shape {M.shape}")
    if not np.all(np.isfinite(M)):
        raise ValueError(f"{name} contains non-finite entries")
    return M


def symmetrize(M: np.ndarray, name: str = "matrix") -> np.ndarray:
    """Return (M + M^T)/2, rejecting asymmetry beyond SYMMETRY_TOL."""
    M = _as_matrix(M, name)
    if M.shape[0] != M.shape[1]:
        raise ValueError(f"{name} must be square, got shape {M.shape}")
    if M.size:
        scale = max(1.0, float(np.max(np.abs(M))))
        asym = float(np.max(np.abs(M - M.T)))
        if asym > SYMMETRY_TOL * scale:
            raise ValueError(f"{name} is asymmetric beyond tolerance: {asym:.3e}")
    return (M + M.T) / 2.0


def block_hessian(A, B, C) -> np.ndarray:
    """The saddle Jacobian H = [[A, C], [-C', -B]] assembled from its blocks."""
    return np.block([[A, C], [-C.T, -B]])


@dataclass(frozen=True)
class MinimaxProblem:
    """Evaluator bundle for one min-max objective.

    grad returns the plain gradient (df/dx, df/dy); the saddle-gradient
    F = (df/dx, -df/dy) is obtained through :func:`saddle_gradient`.
    lipschitz_bound is an upper bound on ||DF(z)|| over the working region;
    for non-quadratic problems it is supplied by the caller and never
    inferred.
    """

    d1: int
    d2: int
    value: Callable[[np.ndarray], float]
    grad: Callable[[np.ndarray], np.ndarray]
    lipschitz_bound: float
    hessian_blocks: Callable[[np.ndarray], tuple] | None = None
    name: str = ""
    quadratic: "QuadraticSpec | None" = None

    def __post_init__(self):
        if not all(_integer(d) and d >= 1 for d in (self.d1, self.d2)):
            raise ValueError(f"d1 and d2 must be integers >= 1, got {self.d1!r} and {self.d2!r}")
        if not 0.0 < self.lipschitz_bound < math.inf:
            raise ValueError(f"lipschitz_bound must be finite and > 0, got {self.lipschitz_bound}")

    @property
    def dim(self) -> int:
        return self.d1 + self.d2


@dataclass(frozen=True)
class QuadraticSpec:
    """Quadratic objective f(x, y) = x'Ax/2 + x'Cy + y'By/2.

    The Hessian blocks are constant and equal (A, B, C) exactly, and the
    Lipschitz bound is the spectral norm of H.  H is built once, at
    construction, and hessian() returns that one read-only array.
    """

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray

    def __post_init__(self):
        with np.errstate(over="ignore"):  # an entry that overflows leaves H non-finite
            object.__setattr__(self, "A", symmetrize(self.A, "A"))
            object.__setattr__(self, "B", symmetrize(self.B, "B"))
        object.__setattr__(self, "C", _as_matrix(self.C, "C"))
        if self.C.shape != (self.d1, self.d2):
            raise ValueError(
                f"C must be {self.d1}x{self.d2}, got {self.C.shape}"
            )
        H = block_hessian(self.A, self.B, self.C)
        if not np.isfinite(H).all():
            raise ValueError("H must be finite, but A or B overflows when symmetrized")
        H.flags.writeable = False
        object.__setattr__(self, "_H", H)

    @property
    def d1(self) -> int:
        return self.A.shape[0]

    @property
    def d2(self) -> int:
        return self.B.shape[0]

    def hessian(self) -> np.ndarray:
        """The saddle Jacobian H = [[A, C], [-C', -B]] (shared, read-only)."""
        return self._H

    def to_problem(self, name: str = "") -> MinimaxProblem:
        A, B, C = self.A, self.B, self.C
        G = np.block([[A, C], [C.T, B]])  # grad f(z) = G z

        def value(z):
            z = np.asarray(z, dtype=float)
            return 0.5 * float(z @ (G @ z))

        def grad(z):
            return G @ np.asarray(z, dtype=float)

        def blocks(z):
            return A, B, C

        return MinimaxProblem(
            d1=self.d1,
            d2=self.d2,
            value=value,
            grad=grad,
            hessian_blocks=blocks,
            lipschitz_bound=float(np.linalg.norm(self._H, 2)),
            name=name,
            quadratic=self,
        )


def _point(problem: MinimaxProblem, z) -> np.ndarray:
    z = np.asarray(z, dtype=float)
    if z.shape != (problem.dim,):
        raise ValueError(f"z must have length {problem.dim}, got shape {z.shape}")
    return z


def _finite_point(z, name: str) -> np.ndarray:
    """z as a new float array; a ValueError naming it if an entry is NaN or inf."""
    z = np.array(z, dtype=float)
    if not np.isfinite(z).all():
        raise ValueError(f"{name} must be finite, got {z.tolist()}")
    return z


def _saddle_rows(problem: MinimaxProblem):
    """Evaluator rows(Z, out=None) of F on the rows of Z: the one loop over grad,
    each result checked and copied before the next call."""
    grad, d1, shape = problem.grad, problem.d1, (problem.dim,)

    def rows(Z, out=None):
        out = np.empty_like(Z) if out is None else out
        for i in range(len(Z)):
            g = np.asarray(grad(Z[i]), dtype=float)
            if g.shape != shape:
                raise ValueError(f"grad must return shape {shape}, got {g.shape}")
            out[i] = g
        Fy = out[:, d1:]
        np.negative(Fy, Fy)
        return out
    return rows


def saddle_gradient(problem: MinimaxProblem, z) -> np.ndarray:
    """F(z) = (grad_x f, -grad_y f) at z."""
    z = _point(problem, z)
    return _saddle_rows(problem)(z[None])[0]


def default_fd_step(z) -> float:
    """Central-difference step: cbrt(machine eps) scaled to ||z||."""
    z = np.asarray(z, dtype=float)
    return _CBRT_EPS * max(1.0, math.sqrt(z.dot(z)))  # the bits of np.linalg.norm


def _jacobian(problem: MinimaxProblem):
    """Evaluator jac(z, out) of H(z) = DF(z), z unchecked.  With analytic blocks it
    returns a new array; else it writes into out, C-contiguous (d, d), column by column
    (F(z + h e_i) - F(z - h e_i)) / 2h, with buffers made once per evaluator."""
    if problem.hessian_blocks is not None:
        return lambda z, out: block_hessian(*_blocks(problem, z))
    d = problem.dim
    rows = _saddle_rows(problem)
    E = np.zeros((d, d))
    diagonal = E.reshape(-1)[::d + 1]
    # rows 2i and 2i + 1 of W and G: z + h e_i, then z - h e_i, and F there;
    # G is column-major, so its y columns are contiguous for the negation
    W = np.empty((2 * d, d))
    W_rows = list(W)
    W_plus, W_minus = W[0::2], W[1::2]
    G = np.empty((2 * d, d), order="F")
    G_plus, G_minus = G[0::2].T, G[1::2].T

    def fd(z, out):
        h = default_fd_step(z)
        diagonal[...] = h  # exact zeros off the diagonal, unlike eye * inf
        np.add(z, E, W_plus)  # out= as a keyword costs more than the add, on a few rows
        np.subtract(z, E, W_minus)
        rows(W_rows, G)  # negates before subtracting: signed zeros
        np.subtract(G_plus, G_minus, out)
        return np.divide(out, 2 * h, out)
    return fd


def jacobian_F(problem: MinimaxProblem, z) -> np.ndarray:
    """The saddle Jacobian H(z) = DF(z), as a new array on every call.

    Uses analytic Hessian blocks when the problem carries them, otherwise
    central finite differences of the saddle gradient (see _jacobian).  A z
    of the wrong length or with a NaN or inf entry raises a ValueError.
    """
    z = _point(problem, _finite_point(z, "z"))
    return _jacobian(problem)(z, np.empty((problem.dim, problem.dim)))


def _blocks(problem: MinimaxProblem, z):
    A, B, C = problem.hessian_blocks(z)
    return symmetrize(A, "A"), symmetrize(B, "B"), _as_matrix(C, "C")


def hessian_blocks_at(problem: MinimaxProblem, z):
    """(A, B, C) at z, from the analytic evaluator or finite differences; z as in jacobian_F."""
    z = _point(problem, _finite_point(z, "z"))
    if problem.hessian_blocks is not None:
        return _blocks(problem, z)
    H = jacobian_F(problem, z)
    d1 = problem.d1
    A = (H[:d1, :d1] + H[:d1, :d1].T) / 2.0
    B = -(H[d1:, d1:] + H[d1:, d1:].T) / 2.0
    # C appears twice in H; average the two copies
    C = (H[:d1, d1:] - H[d1:, :d1].T) / 2.0
    return A, B, C


def _builtin_blocks(name: str, params: dict) -> list:
    """[A, B, C] of a builtin as nested lists, its parameters popped from params."""
    if name == "bilinear":
        return [[[0.0]], [[0.0]], [[1.0]]]
    if name == "scalar_degenerate":
        return [[[float(params.pop("a", 2.0))]], [[0.0]], [[float(params.pop("c", 1.0))]]]
    if name == "strict_nonminimax_demo":
        return [[[-2.0, 0.0], [0.0, 1.0]], [[-1.0, 0.0], [0.0, 0.0]], [[1.0, 0.0], [0.0, 1.0]]]
    raise ValueError(f"unknown builtin problem {name!r}")


def builtin_problem(name: str, **params) -> MinimaxProblem:
    """Named instances used throughout the test families.

    bilinear                 f(x, y) = x y
    scalar_degenerate(a, c)  d1 = d2 = 1 with A = [a], B = [0], C = [c]
    strict_nonminimax_demo   stationary origin whose restricted Schur
                             complement has a negative eigenvalue
    """
    A, B, C = _builtin_blocks(name, params)
    if params:
        raise ValueError(f"unused parameters for {name!r}: {sorted(params)}")
    return QuadraticSpec(A=A, B=B, C=C).to_problem(name=name)


def problem_to_json_dict(problem: MinimaxProblem) -> dict:
    """JSON form of a quadratic problem: a builtin's name (and parameters) when
    the problem bears that name and has that builtin's blocks, else its blocks."""
    q = problem.quadratic
    if q is None:
        raise ValueError("only quadratic or builtin problems have a JSON form")
    blocks = {"A": q.A.tolist(), "B": q.B.tolist(), "C": q.C.tolist()}
    if problem.name in BUILTIN_NAMES:
        params = ({"a": blocks["A"][0][0], "c": blocks["C"][0][0]}
                  if problem.name == "scalar_degenerate" else {})
        if _builtin_blocks(problem.name, dict(params)) == list(blocks.values()):
            return {"kind": "builtin", "name": problem.name, **params}
    return {"kind": "quadratic", **blocks}


def _non_numbers(value):
    """The leaves of value, nested lists, that are not finite JSON numbers
    (a bool is not one, nor an int that no float holds)."""
    if isinstance(value, list):
        return [bad for v in value for bad in _non_numbers(v)]
    return [] if type(value) in (int, float) and abs(value) <= sys.float_info.max else [value]


def problem_from_json_dict(data) -> MinimaxProblem:
    """The problem of a JSON form: an object of a known kind with that kind's keys
    (a quadratic's and no other), whose parameters hold finite JSON numbers only.
    QuadraticSpec and MinimaxProblem then require a finite H and a finite,
    positive Lipschitz bound."""
    if not isinstance(data, dict):
        raise ValueError(f"a problem must be a JSON object, got {type(data).__name__}")
    kind = data.get("kind")
    if kind not in ("quadratic", "builtin"):
        raise ValueError(f"unknown problem kind {kind!r}")
    keys = ("A", "B", "C") if kind == "quadratic" else ("name",)
    for key in keys:
        if key not in data:
            raise ValueError(f"a {kind} problem needs the key {key!r}")
    params = {k: v for k, v in data.items() if k != "kind"}
    if kind == "builtin":
        del params["name"]
    elif params.keys() != set(keys):  # a superset: every key was checked present
        raise ValueError(f"unused parameters for {kind!r}: {sorted(params.keys() - set(keys))}")
    for key, value in params.items():
        bad = _non_numbers(value)
        if bad:
            raise ValueError(f"{key} must hold finite JSON numbers only, got {json.dumps(bad[0])}")
    if kind == "quadratic":
        return QuadraticSpec(**params).to_problem(name="quadratic")
    return builtin_problem(data["name"], **params)


def load_problem(path) -> MinimaxProblem:
    with open(path) as fh:
        return problem_from_json_dict(json.load(fh))
