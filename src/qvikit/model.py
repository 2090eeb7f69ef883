"""Problem model for quasi-variational inequalities with a translated set.

A problem asks for x* with 0 in f(x*) + N_{K(x*)}(x*) where the constraint
set moves by translation, K(x) = C + v(x). Pulling the translation out turns
it into a fixed-set variational inequality in y = x - v(x):

    0 in T(y*) + N_C(y*),  T = f o (Id - v)^{-1},  x* = (Id - v)^{-1}(y*).

Types here are immutable values; all operations are pure. A problem's own
``inverse`` strategy (qvikit.inverse, not imported here) holds v and inverts Id - v.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import expr as edsl
from .errors import EvalError
from .analysis import _norm


def as_vector(values):
    """Coerce to a finite 1-D float array."""
    x = np.atleast_1d(np.asarray(values, float))
    if x.ndim != 1:
        raise ValueError(f"expected a vector, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError("vector entries must be finite")
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

    @cached_property
    def _bounds(self):
        """The bounds' floats: the lists of ``lower`` and ``upper``."""
        return self.lower.tolist(), self.upper.tolist()


ConvexSet = WholeSpace | NonnegativeOrthant | Box


def project(cset, z):
    """Euclidean projection onto the set, exact: ``project_floats`` on ``z``'s floats."""
    z = np.asarray(z, float)
    if z.shape != (cset.dim,):
        raise ValueError(f"dimension mismatch: point {z.shape} vs set ({cset.dim},)")
    return np.array(project_floats(cset, z.tolist()))


def project_floats(cset, z):
    """The projection of a list of floats, as a list, with the bits of numpy's max and min
    (np.clip on a box): past the bound or NaN a coordinate stays, so on x86-64 a tie of
    signed zeros gives the bound (CI prints numpy's rule)."""
    if len(z) != cset.dim:
        raise ValueError(f"dimension mismatch: point ({len(z)},) vs set ({cset.dim},)")
    if isinstance(cset, Box):
        return [m if (m := t if t > lo or t != t else lo) < hi or m != m else hi
                for t, lo, hi in zip(z, *cset._bounds)]
    if isinstance(cset, NonnegativeOrthant):
        return [t if t > 0.0 or t != t else 0.0 for t in z]
    return list(z)


@dataclass(frozen=True, eq=False)
class VectorField:
    """Map R^n -> R^n evaluated as matrix @ x + remainder(x).

    Either part may be absent, not both; the remainder is n expression ASTs,
    which a point evaluation computes with one generated function kept as a
    cached property (pickling drops it). The matrix, a read-only copy, makes
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

    @cached_property
    def _function(self):
        """The generated point function of the remainder's trees."""
        return edsl.field_function(tuple(self.remainder), "point")

    def _rest(self, xl):
        """The remainder's values, a tuple, at the list ``xl`` of a point's floats."""
        try:
            return self._function(xl)
        except EvalError:
            pass
        # Tree by tree, the same error again, named by its component and,
        # outside the handler, chained as if raised first.
        return self._eval_asts(self.remainder, xl, np.empty(self.dim))

    def evaluate(self, x):
        """The field at a float vector ``x`` of length ``dim``, unchecked.

        For inner loops whose caller checked the point once; everything else
        calls the field, which checks every point.
        """
        if self.remainder is None:
            return self.matrix.dot(x)
        rest = np.array(self._rest(x.tolist()))
        # A remainder alone is returned as is, not as 0 + rest: signed zeros
        # keep their bits.
        return rest if self.matrix is None else self.matrix.dot(x) + rest

    def __call__(self, x):
        x = np.asarray(x, float)
        if x.shape != (self.dim,):
            raise ValueError(f"dimension mismatch: {x.shape} vs ({self.dim},)")
        return self.evaluate(x)

    def floats(self, x):
        """``self(x).tolist()``: the same checks and bits, the sum taken on floats."""
        x = np.asarray(x, float)
        if x.shape != (self.dim,):
            raise ValueError(f"dimension mismatch: {x.shape} vs ({self.dim},)")
        if self.remainder is None:
            return self.matrix.dot(x).tolist()
        rest = self._rest(x.tolist())
        if self.matrix is None:
            return list(rest)
        return list(map(operator.add, self.matrix.dot(x).tolist(), rest))

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
        if not 0 < self.value < np.inf:
            raise ValueError(f"stored constants must be positive and finite, got {self.value!r}")
        if self.source not in ("declared", "spectral", "sampled"):
            raise ValueError(f"unknown source {self.source!r}")


@dataclass(frozen=True)
class ProblemConstants:
    """Optional Lipschitz/monotonicity constants attached to a problem.

    L: Lipschitz constant of f; l: of v; l_tilde: of (Id-v)^{-1};
    gamma: strong pair-monotonicity modulus of (f, Id-v). A value stored
    here is what a file or builtin declares; solvers.resolve_constant
    derives the others.
    """

    L: Constant | None = None
    l: Constant | None = None
    l_tilde: Constant | None = None
    gamma: Constant | None = None


@dataclass(frozen=True, eq=False)
class QviProblem:
    name: str
    dim: int
    f: VectorField
    inverse: object  # the strategy that inverts Id - v (qvikit.inverse): v is its v_map
    set: ConvexSet
    constants: ProblemConstants = ProblemConstants()

    def __post_init__(self):
        dims = {self.dim, self.f.dim, getattr(self.v, "dim", None), self.set.dim}
        if dims != {self.dim}:
            raise ValueError(f"dimension mismatch across problem parts: {dims}")

    @property
    def v(self):
        return self.inverse.v_map

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
                  lambda y: problem.f(problem.inverse.invert(y)))
    return T, problem.set


def _floats(field, x):
    """The field at the float array ``x``, a list: a VectorField's ``floats``, else its value
    broadcast to x's shape as numpy does (a 0-d value fills it; a misfit raises ValueError)."""
    if isinstance(field, VectorField):
        return field.floats(x)
    return np.broadcast_to(np.asarray(field(x), float), x.shape).tolist()


def _y_and_p(problem, x, h, y=None):
    """``y = x - v(x)``, ``p = proj_C(y - h f(x))`` and ``f(x)`` at the float array ``x``, as
    lists of floats with numpy's bits; a ``y`` given is that x - v(x) (an array), computed."""
    fx = _floats(problem.f, x)  # evaluated before v: f's error comes first
    y = (x - problem.v(x) if y is None else y).tolist()
    return y, project_floats(problem.set, [a - h * b for a, b in zip(y, fx)]), fx


def _residual(y, p):
    """|y - p| for lists of floats: the natural residual of a ``_y_and_p``."""
    return _norm(np.array([a - b for a, b in zip(y, p)]))


def natural_residual(problem, x, h):
    """Fixed-point residual |y - proj_C(y - h f(x))| with y = x - v(x).

    Zero exactly at solutions, for any fixed h > 0; this is the stopping
    quantity all solvers report.
    """
    if not h > 0:
        raise ValueError("h must be positive")
    y, p, _ = _y_and_p(problem, np.asarray(x, float), h)
    return _residual(y, p)
