"""Problem model for quasi-variational inequalities with a translated set.

A problem asks for x* with 0 in f(x*) + N_{K(x*)}(x*) where the constraint
set moves by translation, K(x) = C + v(x). Pulling the translation out turns
it into a fixed-set variational inequality in y = x - v(x):

    0 in T(y*) + N_C(y*),  T = f o (Id - v)^{-1},  x* = (Id - v)^{-1}(y*).

Types here are immutable values; all operations are pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import expr as edsl
from .errors import ConfigError, EvalError
from .analysis import _norm
from .inverse import invert


def as_vector(values, dim=None):
    """Coerce to a finite 1-D float array, optionally checking the length."""
    x = np.atleast_1d(np.asarray(values, float))
    if x.ndim != 1:
        raise ValueError(f"expected a vector, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError("vector entries must be finite")
    if dim is not None and x.size != dim:
        raise ValueError(f"expected dimension {dim}, got {x.size}")
    return x


@dataclass(frozen=True)
class WholeSpace:
    dim: int


@dataclass(frozen=True)
class NonnegativeOrthant:
    dim: int


@dataclass(frozen=True, eq=False)
class Box:
    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "lower", as_vector(self.lower))
        object.__setattr__(self, "upper", as_vector(self.upper))
        if self.lower.size != self.upper.size:
            raise ValueError("box bounds must share a dimension")
        if not np.all(self.lower <= self.upper):
            raise ValueError("box needs lower <= upper componentwise")

    @property
    def dim(self):
        return self.lower.size


ConvexSet = WholeSpace | NonnegativeOrthant | Box


def project(cset, z):
    """Euclidean projection onto the set; exact for all three variants."""
    z = np.asarray(z, float)
    if z.shape != (cset.dim,):
        raise ValueError(f"dimension mismatch: point {z.shape} vs set ({cset.dim},)")
    if isinstance(cset, WholeSpace):
        return z.copy()
    if isinstance(cset, NonnegativeOrthant):
        return np.maximum(z, 0.0)
    # np.clip(z, lower, upper) bit for bit, signed zeros included, for less.
    return np.minimum(np.maximum(z, cset.lower), cset.upper)


@dataclass(frozen=True, eq=False)
class VectorField:
    """Map R^n -> R^n evaluated as matrix @ x + remainder(x).

    Either part may be absent, not both; the remainder is n expression ASTs,
    which a point evaluation computes with one generated function that the
    field keeps (pickling leaves it out). The matrix, a read-only copy, makes
    spectral analysis possible; fields without one fall back to sampling.
    """

    dim: int
    matrix: np.ndarray | None = None
    remainder: tuple | None = None

    def __post_init__(self):
        if self.matrix is None and self.remainder is None:
            raise ValueError("give a matrix, a remainder, or both")
        if self.remainder is not None and len(self.remainder) != self.dim:
            raise ValueError(f"need {self.dim} expressions, got {len(self.remainder)}")
        if self.matrix is not None:
            M = np.array(self.matrix, float)
            if M.shape != (self.dim, self.dim):
                raise ValueError(f"matrix must be {self.dim}x{self.dim}")
            if not np.all(np.isfinite(M)):
                raise ValueError("matrix entries must be finite")
            M.flags.writeable = False
            object.__setattr__(self, "matrix", M)

    @classmethod
    def from_exprs(cls, texts, dim):
        return cls(dim, remainder=tuple(edsl.parse(t, dim) for t in texts))

    @classmethod
    def from_matrix(cls, M, remainder_texts=None):
        M = np.asarray(M, float)
        dim = M.shape[0]
        rem = None
        if remainder_texts is not None:
            rem = tuple(edsl.parse(t, dim) for t in remainder_texts)
        return cls(dim, matrix=M, remainder=rem)

    @classmethod
    def zero(cls, dim):
        return cls.from_matrix(np.zeros((dim, dim)))

    def _eval_asts(self, asts, x, out):
        for i, ast in enumerate(asts):
            try:
                out[i] = edsl.eval_expr(ast, x)
            except EvalError as exc:
                raise EvalError(f"component {i + 1}: {exc}") from exc
        return out

    def __reduce__(self):
        return type(self), (self.dim, self.matrix, self.remainder)

    def evaluate(self, x):
        """The field at a float vector ``x`` of length ``dim``, unchecked.

        For inner loops whose caller checked the point once; everything else
        calls the field, which checks every point.
        """
        if self.remainder is None:
            return self.matrix.dot(x)
        fn = self.__dict__.get("_function")
        if fn is None:
            fn = edsl.field_function(tuple(self.remainder), "point")
            object.__setattr__(self, "_function", fn)
        try:
            rest = np.array(fn(x.tolist()))
        except EvalError:
            rest = None
        if rest is None:
            # Tree by tree, the same error again, named by its component and,
            # outside the handler, chained as if raised first.
            rest = self._eval_asts(self.remainder, x, np.empty(self.dim))
        # A remainder alone is returned as is, not as 0 + rest: signed zeros
        # keep their bits.
        return rest if self.matrix is None else self.matrix.dot(x) + rest

    def __call__(self, x):
        x = np.asarray(x, float)
        if x.shape != (self.dim,):
            raise ValueError(f"dimension mismatch: {x.shape} vs ({self.dim},)")
        return self.evaluate(x)

    def evaluate_batch(self, X):
        """Values at the N columns of a float array ``X`` of shape (dim, N),
        and per column the sum of the magnitudes of the terms behind them.

        Batched and point values differ by rounding of that magnitude: the
        matrix product sums in another order. Raises EvalError wherever a
        point evaluation would (see expr.eval_expr).
        """
        if self.remainder is None:
            return self.matrix @ X, (np.abs(self.matrix) @ np.abs(X)).sum(0)
        rest = self._eval_asts(self.remainder, X, np.empty(X.shape))
        magnitude = np.abs(rest).sum(0)
        if self.matrix is None:
            return rest, magnitude
        return (self.matrix @ X + rest,
                (np.abs(self.matrix) @ np.abs(X)).sum(0) + magnitude)


@dataclass(frozen=True, eq=False)
class IdMinus:
    """The field x - v(x): Id - v, the second map of the pair (f, Id - v)."""

    v: object  # a VectorField, or any field callable at a point

    @property
    def dim(self):
        return self.v.dim

    def __call__(self, x):
        x = np.asarray(x, float)
        return x - self.v(x)

    def evaluate_batch(self, X):
        """As VectorField.evaluate_batch; None if ``v`` has no batch form."""
        batch = getattr(self.v, "evaluate_batch", None)
        v = None if batch is None else batch(X)
        if v is None:
            return None
        return X - v[0], v[1] + np.abs(X).sum(0)


@dataclass(frozen=True)
class FuncField:
    """Callable adapter so composed maps fit wherever a field is expected.

    ``fn`` is any callable, so a FuncField evaluates one point at a time.
    """

    dim: int
    fn: object

    def __call__(self, x):
        return np.asarray(self.fn(np.asarray(x, float)), float)


@dataclass(frozen=True)
class Constant:
    """A named constant with its provenance: declared, spectral, or sampled."""

    value: float
    source: str

    def __post_init__(self):
        if not self.value > 0:
            raise ValueError("stored constants must be strictly positive")
        if self.source not in ("declared", "spectral", "sampled"):
            raise ValueError(f"unknown source {self.source!r}")


@dataclass(frozen=True)
class ProblemConstants:
    """Optional Lipschitz/monotonicity constants attached to a problem.

    L: Lipschitz constant of f; l: of v; l_tilde: of (Id-v)^{-1};
    gamma: strong pair-monotonicity modulus of (f, Id-v); mu: strong
    monotonicity modulus of f alone.
    """

    L: Constant | None = None
    l: Constant | None = None
    l_tilde: Constant | None = None
    gamma: Constant | None = None
    mu: Constant | None = None

    def require(self, name):
        c = getattr(self, name)
        if c is None:
            raise ConfigError(
                f"constant {name!r} is not available: declare it on the problem "
                "or allow sampling"
            )
        return c.value


@dataclass(frozen=True, eq=False)
class QviProblem:
    name: str
    dim: int
    f: VectorField
    v: VectorField
    inverse: object  # InverseSpec matching v
    set: ConvexSet
    constants: ProblemConstants = ProblemConstants()

    def __post_init__(self):
        dims = {self.dim, self.f.dim, self.v.dim, self.set.dim}
        if dims != {self.dim}:
            raise ValueError(f"dimension mismatch across problem parts: {dims}")

    @cached_property
    def w(self):
        """Id - v, one field per problem, so batch values the sampling
        estimators keep for it serve each later screen of the same draw."""
        return IdMinus(self.v)


def project_moving(problem, base, z):
    """Projection onto the moved set K(base) = C + v(base).

    Uses proj_{C+t}(z) = t + proj_C(z - t) with t = v(base).
    """
    t = problem.v(np.asarray(base, float))
    return t + project(problem.set, np.asarray(z, float) - t)


def to_vi(problem):
    """Fixed-set variational-inequality form: the map T = f o (Id-v)^{-1} and C."""
    T = FuncField(problem.dim,
                  lambda y: problem.f(invert(problem.inverse, y)))
    return T, problem.set


def _natural_residual_parts(problem, x, fx, h):
    """``(|y - p|, y, p)`` for ``y = x - v(x)``, ``p = proj_C(y - h fx)`` and
    ``fx = f(x)``: the natural residual and the parts solvers step from."""
    y = x - problem.v(x)
    p = project(problem.set, y - h * fx)
    return _norm(y - p), y, p


def natural_residual(problem, x, h):
    """Fixed-point residual |y - proj_C(y - h f(x))| with y = x - v(x).

    Zero exactly at solutions, for any fixed h > 0; this is the stopping
    quantity all solvers report.
    """
    if not h > 0:
        raise ValueError("h must be positive")
    x = np.asarray(x, float)
    return _natural_residual_parts(problem, x, problem.f(x), h)[0]
