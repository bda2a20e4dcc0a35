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
from dataclasses import dataclass
from typing import Callable

import numpy as np

SYMMETRY_TOL = 1e-8
_CBRT_EPS = np.cbrt(np.finfo(float).eps)  # scale of the finite-difference step

BUILTIN_NAMES = (
    "bilinear",
    "scalar_degenerate",
    "nondegenerate_quadratic",
    "strict_nonminimax_demo",
)


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
        if self.d1 < 1 or self.d2 < 1:
            raise ValueError("dimensions d1, d2 must be positive")
        if not (self.lipschitz_bound > 0):
            raise ValueError("lipschitz_bound must be positive")

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
        object.__setattr__(self, "A", symmetrize(self.A, "A"))
        object.__setattr__(self, "B", symmetrize(self.B, "B"))
        object.__setattr__(self, "C", _as_matrix(self.C, "C"))
        if self.C.shape != (self.d1, self.d2):
            raise ValueError(
                f"C must be {self.d1}x{self.d2}, got {self.C.shape}"
            )
        H = np.block([[self.A, self.C], [-self.C.T, -self.B]])
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

    def gradient_matrix(self) -> np.ndarray:
        """G with grad f(z) = G z, i.e. [[A, C], [C', B]]."""
        return np.block([[self.A, self.C], [self.C.T, self.B]])

    def lipschitz(self) -> float:
        return float(np.linalg.norm(self.hessian(), 2))

    def to_problem(self, name: str = "") -> MinimaxProblem:
        G = self.gradient_matrix()
        A, B, C = self.A, self.B, self.C

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
            lipschitz_bound=self.lipschitz(),
            name=name,
            quadratic=self,
        )


def _grad(problem: MinimaxProblem, z) -> np.ndarray:
    """problem.grad(z) as a float array, checked to have the shape (d,) of z."""
    g = np.asarray(problem.grad(z), dtype=float)
    if g.shape != z.shape:
        raise ValueError(f"grad must return shape {z.shape}, got {g.shape}")
    return g


def _point(problem: MinimaxProblem, z) -> np.ndarray:
    z = np.asarray(z, dtype=float)
    if z.shape != (problem.dim,):
        raise ValueError(f"z must have length {problem.dim}, got shape {z.shape}")
    return z


def saddle_gradient(problem: MinimaxProblem, z) -> np.ndarray:
    """F(z) = (grad_x f, -grad_y f) at z."""
    F = _grad(problem, _point(problem, z)).copy()
    F[problem.d1:] = -F[problem.d1:]
    return F


def default_fd_step(z) -> float:
    """Central-difference step: cbrt(machine eps) scaled to ||z||."""
    z = np.asarray(z, dtype=float)
    return float(_CBRT_EPS * max(1.0, np.linalg.norm(z)))


def jacobian_F(problem: MinimaxProblem, z, h_fd: float | None = None) -> np.ndarray:
    """The saddle Jacobian H(z) = DF(z).

    Uses analytic Hessian blocks when the problem carries them, otherwise
    central finite differences of the saddle gradient.
    """
    z = np.asarray(z, dtype=float)
    if problem.hessian_blocks is not None:
        A, B, C = problem.hessian_blocks(z)
        A = symmetrize(A, "A")
        B = symmetrize(B, "B")
        C = _as_matrix(C, "C")
        return np.block([[A, C], [-C.T, -B]])
    z = _point(problem, z)
    h = default_fd_step(z) if h_fd is None else float(h_fd)
    if h_fd is not None and not 0.0 < h < np.inf:
        raise ValueError(f"h_fd must be finite and > 0, got {h_fd}")
    E = np.diag(np.full(len(z), h))  # exact zeros off the diagonal, unlike eye * inf
    # columns 2i and 2i + 1 of G: grad at z + h e_i, then at z - h e_i
    G = np.array([_grad(problem, w) for pair in zip(z + E, z - E) for w in pair]).T
    G[problem.d1:] = -G[problem.d1:]  # negate before subtracting: keeps signed zeros
    return np.subtract(G[:, 0::2], G[:, 1::2], order="C") / (2 * h)


def hessian_blocks_at(problem: MinimaxProblem, z, h_fd: float | None = None):
    """(A, B, C) at z, from the analytic evaluator or finite differences."""
    z = np.asarray(z, dtype=float)
    if problem.hessian_blocks is not None:
        A, B, C = problem.hessian_blocks(z)
        return symmetrize(A, "A"), symmetrize(B, "B"), _as_matrix(C, "C")
    H = jacobian_F(problem, z, h_fd=h_fd)
    d1 = problem.d1
    A = (H[:d1, :d1] + H[:d1, :d1].T) / 2.0
    B = -(H[d1:, d1:] + H[d1:, d1:].T) / 2.0
    # C appears twice in H; average the two copies
    C = (H[:d1, d1:] - H[d1:, :d1].T) / 2.0
    return A, B, C


def builtin_problem(name: str, **params) -> MinimaxProblem:
    """Named instances used throughout the test families.

    bilinear                 f(x, y) = x y
    scalar_degenerate(a, c)  d1 = d2 = 1 with A = [a], B = [0], C = [c]
    nondegenerate_quadratic  quadratic with caller-supplied (A, B, C)
    strict_nonminimax_demo   stationary origin whose restricted Schur
                             complement has a negative eigenvalue
    """
    if name == "bilinear":
        spec = QuadraticSpec(A=[[0.0]], B=[[0.0]], C=[[1.0]])
    elif name == "scalar_degenerate":
        a = float(params.pop("a", 2.0))
        c = float(params.pop("c", 1.0))
        spec = QuadraticSpec(A=[[a]], B=[[0.0]], C=[[c]])
    elif name == "nondegenerate_quadratic":
        try:
            spec = QuadraticSpec(A=params.pop("A"), B=params.pop("B"), C=params.pop("C"))
        except KeyError as exc:
            raise ValueError("nondegenerate_quadratic requires A, B, C") from exc
    elif name == "strict_nonminimax_demo":
        spec = QuadraticSpec(
            A=[[-2.0, 0.0], [0.0, 1.0]],
            B=[[-1.0, 0.0], [0.0, 0.0]],
            C=[[1.0, 0.0], [0.0, 1.0]],
        )
    else:
        raise ValueError(f"unknown builtin problem {name!r}")
    if params:
        raise ValueError(f"unused parameters for {name!r}: {sorted(params)}")
    return spec.to_problem(name=name)


def problem_to_json_dict(problem: MinimaxProblem) -> dict:
    """JSON form of a quadratic or builtin problem."""
    if problem.name in BUILTIN_NAMES and problem.name != "nondegenerate_quadratic":
        out = {"kind": "builtin", "name": problem.name}
        if problem.name == "scalar_degenerate" and problem.quadratic is not None:
            out["a"] = float(problem.quadratic.A[0, 0])
            out["c"] = float(problem.quadratic.C[0, 0])
        return out
    if problem.quadratic is None:
        raise ValueError("only quadratic or builtin problems have a JSON form")
    q = problem.quadratic
    return {
        "kind": "quadratic",
        "A": q.A.tolist(),
        "B": q.B.tolist(),
        "C": q.C.tolist(),
    }


def problem_from_json_dict(data: dict) -> MinimaxProblem:
    kind = data.get("kind")
    if kind == "quadratic":
        spec = QuadraticSpec(A=data["A"], B=data["B"], C=data["C"])
        return spec.to_problem(name="quadratic")
    if kind == "builtin":
        params = {k: v for k, v in data.items() if k not in ("kind", "name")}
        return builtin_problem(data["name"], **params)
    raise ValueError(f"unknown problem kind {kind!r}")


def load_problem(path) -> MinimaxProblem:
    with open(path) as fh:
        return problem_from_json_dict(json.load(fh))


def save_problem(problem: MinimaxProblem, path) -> None:
    with open(path, "w") as fh:
        json.dump(problem_to_json_dict(problem), fh, indent=2, sort_keys=True)
        fh.write("\n")
