"""Strategies for applying (Id - v)^{-1}.

The moving-set iteration needs x = (Id - v)^{-1}(y) once per step, so the
inverse is a first-class object built ahead of time. Four strategies cover
the shapes of v that actually occur:

  LinearExact        v(x) = V x, solve (I - V) x = y by LU factorization
  PicardContraction  any v with Lipschitz constant l < 1, iterate x <- y + v(x)
  Semilinear         v(x) = A x + g(x), iterate x <- (I-A)^{-1}(y + g(x));
                     works when |(I-A)^{-1}| L_g < 1 even if |A| is huge
  ScalarBracket      dim 1, x - v(x) monotone, bisection on a bracket

Every invert call verifies |x - v(x) - y| <= inner_tol a posteriori, which
turns the well-definedness of the inverse from a hypothesis into a runtime
contract; the check records ``spec.checked = (x, x - v(x))``, which a solver
steps on from where ``inverts_v`` holds. Each strategy's ``lipschitz()`` bounds
the Lipschitz constant of the inverse: exactly for LinearExact, by 1/(1-l) and
|(I-A)^{-1}|/(1 - |(I-A)^{-1}| L_g) for the contractions, and by a seeded
sampled estimate (a lower bound) for ScalarBracket.

PicardContraction writes each step ``y + v(x)`` into the next row of a buffer
the spec keeps (same bits; a pure-matrix step allocates nothing) and tests a
chunk of rows in one stacked matmul, which takes each step norm with ``_norm``'s
``ddot``. Its first chunk is as long as the previous invert's loop on the same
spec, so in a solve one chunk mostly suffices; a field's iterate that repeats
the iterate one or two steps back bit for bit (an overflow to inf, or to inf
and -inf in turn) ends the loop at once. Semilinear sums each ``y + g(x)`` on
the floats a remainder-only ``g`` reads, hands that list to LAPACK, screens
each step with ``math.dist`` and checks with ``g`` at those floats. An
``inner_log`` only observes: it gets the step norms the loop measured.
LinearExact and Semilinear also take ``y`` as the list of floats the solvers
hand them (same bits and errors); the check screens with ``math.dist`` too.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import operator
import os
import sys
from dataclasses import dataclass, field

import numpy as np
import scipy

from .analysis import (
    _MARGIN,
    SamplingPlan,
    _candidates,
    _norm,
    power_lambda_max,
    sample_pairs,
)
from .errors import (
    BracketingFailure,
    ConfigError,
    NoConvergence,
    SingularLinearPart,
)
from .model import VectorField


def _flapack():
    """scipy's LAPACK extension module, without the scipy.linalg package.

    ``import scipy.linalg`` loads some 300 modules; the two routines used
    here live in one extension behind it, loaded here from its file. It is
    the module scipy.linalg.lapack wraps, so the Fortran calls and their
    bits are the same.
    """
    name = "scipy.linalg._flapack"
    if name in sys.modules:  # scipy.linalg is already loaded
        return sys.modules[name]
    spec = importlib.machinery.PathFinder.find_spec(
        name, [os.path.join(scipy.__path__[0], "linalg")])
    if spec is None:
        return importlib.import_module(name)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    # The extension registers itself under its name. Drop that entry, so a
    # later ``import scipy.linalg`` builds its package as usual; it gets the
    # same function objects.
    sys.modules.pop(name, None)
    return module


_LAPACK = _flapack()
dgetrf, dgetrs = _LAPACK.dgetrf, _LAPACK.dgetrs


def _all_finite(a):
    """``np.isfinite(a).all()`` for an array of any shape or a list of floats, at half
    its cost: only a sum that is not finite (a non-finite entry, or overflow) tests each."""
    values = a if type(a) is list else a.ravel().tolist()
    return math.isfinite(sum(values)) or all(map(math.isfinite, values))


class _LU:
    """LU factors of a square matrix, checked for singularity, and its solves."""

    def __init__(self, A, what):
        """The LAPACK call of scipy.linalg.lu_factor, bit for bit. Its
        contract holds: a non-finite A raises ValueError, and so does an
        illegal argument. An exact zero pivot (info > 0) fails the
        singularity check below."""
        lu, piv, info = dgetrf(np.asarray_chkfinite(A))
        if info < 0:
            raise ValueError(f"illegal value in argument {-info} of LAPACK getrf")
        d = np.abs(np.diag(lu))
        if not np.all(np.isfinite(lu)) or d.min() <= A.shape[0] * np.finfo(float).eps * d.max():
            raise SingularLinearPart(f"{what} is numerically singular")
        self.A, self.lu, self.piv = A, lu, piv

    def solve(self, b, trans=0):
        """A^{-1} b (A^{-T} b for trans=1) for a float vector b (or list of floats).

        The LAPACK call of scipy.linalg.lu_solve, bit for bit, without its
        wrapper's overhead. Its contract holds: a non-finite b raises
        ValueError, and so does a nonzero LAPACK info.
        """
        if not _all_finite(b):
            raise ValueError("array must not contain infs or NaNs")
        return self._solve(b, trans)

    def _solve(self, b, trans=0):
        """``solve`` without its finiteness check, for a caller that checked
        ``b`` itself. L and U are finite, so a non-finite b gives a
        non-finite result, never a finite one; a nonzero info still raises."""
        x, info = dgetrs(self.lu, self.piv, b, trans)  # positional: f2py parses faster
        if info != 0:
            raise ValueError(f"illegal value in argument {-info} of LAPACK getrs")
        return x

    def refined_solve(self, b):
        """A^{-1} b plus one iterative-refinement pass, which keeps the
        residual at rounding level even for an ill-scaled A."""
        x = self.solve(b)
        return x + self.solve(b - self.A.dot(x))

    def inverse_norm(self):
        """Spectral norm of A^{-1}: the root of the top eigenvalue of A^{-T} A^{-1}."""
        def matvec(u):
            return self.solve(self.solve(u), trans=1)

        return float(np.sqrt(power_lambda_max(matvec, self.A.shape[0])))


def _point(y, dim):
    """``y`` as a float vector of length ``dim``, checked once per invert call
    so that inner loops can evaluate fields without checks.

    No inverse can reach a non-finite ``y``, so it raises NoConvergence at
    once instead of after ``max_inner`` steps.
    """
    y = np.asarray(y, float)
    if dim is not None and y.shape != (dim,):
        raise ValueError(f"dimension mismatch: {y.shape} vs ({dim},)")
    if not _all_finite(y):
        raise NoConvergence("cannot invert at a non-finite point", math.nan)
    return y


def _floats(y, dim):
    """``_point(y, dim).tolist()``: a list of ``dim`` floats with a finite sum is kept."""
    if (type(y) is list and len(y) == dim and all(type(t) is float for t in y)
            and math.isfinite(sum(y))):
        return y
    return _point(y, dim).tolist()


def _unchecked(fn):
    """Evaluator of a displacement for inner loops.

    A VectorField's ``evaluate`` skips the point checks that ``fn(x)`` makes;
    for a field with no remainder that is its matrix's ``dot``, returned
    itself. Any other callable is called as is, its result made a float array.
    """
    if isinstance(fn, VectorField):
        return fn.matrix.dot if fn.remainder is None else fn.evaluate
    return lambda x: np.asarray(fn(x), float)


def _verify(spec, x, vx, y):
    """Check ``_norm(w - y) <= inner_tol`` for ``w = x - vx``; record ``(x, w)``. A ``math.dist``
    of 0, or well inside where squares stay normal, passes; elsewhere ``_norm`` decides."""
    w = x - vx
    tol = spec.inner_tol
    d = math.dist(w.tolist(), y)
    if not (0.0 == d <= tol or 1e-150 < d < min(tol * (1.0 - 1e-6), 1e150)):
        res = _norm(w - np.asarray(y))
        if not res <= tol:
            raise NoConvergence(f"inverse residual {res:.3e} exceeds inner_tol {tol:.1e}", res)
    spec.checked = (x, w)
    return x


def inverts_v(spec, v):
    """Whether ``spec``'s check evaluates the field ``v`` bit for bit (a matrix
    of ``v.matrix``'s bytes and layout), so its record holds ``x - v(x)``."""
    if isinstance(spec, PicardContraction):
        return spec.v_map is v
    semi = (isinstance(spec, Semilinear) and isinstance(spec.g, VectorField)
            and spec.g.matrix is None)
    if not (semi or isinstance(spec, LinearExact)):
        return False
    M, rest = (spec.A, spec.g.remainder) if semi else (spec.V, None)
    return (isinstance(v, VectorField) and v.matrix is not None and v.remainder == rest
            and M.strides == v.matrix.strides and M.tobytes() == v.matrix.tobytes())


@dataclass(eq=False)
class LinearExact:
    """Inverse of Id - v for linear v(x) = V x."""

    V: np.ndarray
    inner_tol: float = 1e-12
    max_inner: int = 100_000

    def __post_init__(self):
        self.V = np.asarray(self.V, float)
        n = self.V.shape[0]
        if self.V.shape != (n, n):
            raise ValueError("V must be square")
        self._lu = _LU(np.eye(n) - self.V, "I - V")

    def v(self, x):
        return self.V.dot(x)

    def invert(self, y, inner_log=None):
        y = _floats(y, self.V.shape[0])
        # _LU.refined_solve on floats; y is checked, the refinement's right side is not yet.
        lu = self._lu
        x = lu._solve(y)
        x = x + lu.solve(list(map(operator.sub, y, lu.A.dot(x).tolist())))
        return _verify(self, x, self.V.dot(x), y)

    def lipschitz(self):
        return self._lu.inverse_norm()


# Steps in the first Picard chunk, and in the longest.
_FIRST_CHUNK, _MAX_CHUNK = 8, 512


def _first_stop(X, tol, inner_log):
    """The index of the first row of ``X`` (a 2-D array of iterates) whose
    step from the row before passes ``_norm(step) <= tol``, or None; and the
    steps' squared norms.

    A stacked matmul of the steps runs, row by row, the ``ddot`` of
    ``_norm``'s ``u.dot(u)``, so every norm is ``_norm``'s, bit for bit. With
    ``inner_log``, every step up to the stop is logged.
    """
    D = X[1:] - X[:-1]
    squares = np.matmul(D[:, None, :], D[:, :, None]).ravel()
    norms = np.sqrt(squares)
    stop = next((i + 1 for i in np.flatnonzero(norms <= tol).tolist()), None)
    if inner_log is not None:
        inner_log.extend(norms[:stop].tolist())
    return stop, squares


def _next_chunk(squares, tol, k):
    """Length of the next chunk: enough steps for the squared steps, at their
    decay over the second half of this chunk, to reach tol^2, plus one;
    double ``k`` where the chunk shows no decay. A wrong guess costs time."""
    half = len(squares) // 2
    first, last = squares[half], squares[-1]
    if 0.0 < last <= first < np.inf and half < len(squares) - 1:
        rate = (math.log(last) - math.log(first)) / (len(squares) - 1 - half)
        if rate < 0.0:
            need = (math.log(max(tol * tol, 1e-300)) - math.log(last)) / rate
            return math.ceil(min(max(need, 0.0), _MAX_CHUNK - 1)) + 1
    return min(_MAX_CHUNK, 2 * k)


@dataclass(eq=False)
class PicardContraction:
    """Inverse via the fixed-point iteration x <- y + v(x), for l < 1.

    The loop stops on the first step with _norm(step) <= inner_tol, or after
    max_inner steps. It iterates in chunks, never past max_inner, and tests
    each chunk with _first_stop. The first chunk is as long as the previous
    invert's loop on this spec (8 steps at first, at most 512), so the inverts
    of a solve mostly run one chunk; later ones are sized from the decay of
    the steps. For a model field v_map, a pure function, a chunk that ends on
    the iterate one or two steps back (bit for bit: inf, or inf after -inf
    after inf) ends the loop, as every later step repeats that cycle. The
    result, the inner_log values and an error are those of a loop that tests
    every step; iterates past the stop are dropped.

    Each step writes into the next row of one buffer, made on first use and
    regrown for a longer chunk (at most 513 rows), in place for a matrix with
    no remainder. A v_map that raises ends the chunk on the row its step read.
    The result, its check record and the iterate a chunk ends on are copies.
    """

    v_map: object  # callable displacement, Lipschitz constant l
    l: float
    inner_tol: float = 1e-12
    max_inner: int = 100_000
    _steps = _FIRST_CHUNK  # steps of the last invert that stopped

    def __post_init__(self):
        if not 0.0 <= self.l < 1.0:
            raise ConfigError(f"declared contraction l={self.l} must be < 1")
        self._v = _unchecked(self.v_map)
        self._pure = isinstance(self.v_map, VectorField)
        self._matrix = self._pure and self.v_map.remainder is None
        self._rows = []  # row views of the step buffer, made on first use

    def __getstate__(self):
        # A copy makes its own buffer: copied row views would not be its rows.
        return {**vars(self), "_buffer": None, "_rows": []}

    def v(self, x):
        return np.asarray(self.v_map(x), float)

    def invert(self, y, inner_log=None):
        y = _point(y, getattr(self.v_map, "dim", None))
        v, add, tol = self._v, np.add, self.inner_tol
        x, left, k = y.copy(), self.max_inner, min(max(self._steps, 1), _MAX_CHUNK)
        with np.errstate(all="ignore"):
            while left > 0:
                n, failure = min(k, left), None
                if len(self._rows) <= n:
                    self._buffer = np.empty((n + 1, len(y)))
                    self._rows = list(self._buffer)
                rows = self._rows
                rows[0][:] = x
                if self._matrix:
                    for a, b in zip(rows, rows[1:n + 1]):
                        v(a, b)  # matrix.dot(a, out=b), then b = y + b
                        add(y, b, b)
                else:
                    try:
                        for m, (a, b) in enumerate(zip(rows, rows[1:n + 1])):
                            add(y, v(a), b)
                    except Exception as exc:
                        n, failure = m, exc
                xs = self._buffer[:n + 1]
                stop, squares = _first_stop(xs, tol, inner_log)
                if stop is not None:
                    x = xs[stop].copy()
                    self._steps = self.max_inner - left + stop
                    break
                if failure is not None:
                    raise failure  # no step before the failing one stopped the loop
                left -= len(xs) - 1
                x = xs[-1].copy()
                same = [x.tobytes() == z.tobytes() for z in xs[-2:-4:-1]] \
                    if self._pure else []
                if any(same):
                    # A pure v repeats the last one or two iterates to the end
                    # of the loop: every later step has the last one's norm,
                    # and the loop ends on x or, after an odd count, xs[-2].
                    if inner_log is not None:
                        inner_log.extend([_norm(x - xs[-2])] * left)
                    if not same[0] and left % 2:
                        x = xs[-2].copy()
                    break
                k = _next_chunk(squares, tol, k)
            return _verify(self, x, v(x), y)

    def lipschitz(self):
        return 1.0 / (1.0 - self.l)


@dataclass(eq=False)
class Semilinear:
    """Inverse for v(x) = A x + g(x), preconditioned by (I - A)^{-1}.

    The plain Picard iteration diverges when |A| >= 1, but the equivalent
    fixed point x = (I-A)^{-1}(y + g(x)) contracts with factor
    |(I-A)^{-1}| L_g, checked against the declared Lipschitz bound l_g.
    """

    A: np.ndarray
    g: object  # callable remainder
    l_g: float
    inner_tol: float = 1e-12
    max_inner: int = 100_000
    inv_norm: float = field(init=False)

    def __post_init__(self):
        self.A = np.asarray(self.A, float)
        self._lu = _LU(np.eye(self.A.shape[0]) - self.A, "I - A")
        self._g = _unchecked(self.g)
        # g on a point's floats if a remainder-only field of A's size, else on arrays.
        pure = (isinstance(self.g, VectorField) and self.g.matrix is None
                and self.g.dim == self.A.shape[0])
        self._rest = self.g._rest if pure else None
        self.inv_norm = self._lu.inverse_norm()
        self.contraction = self.inv_norm * self.l_g
        if self.contraction >= 1.0:
            raise ConfigError(
                f"semilinear contraction factor {self.contraction:.3f} is not < 1"
            )

    def v(self, x):
        return self.A.dot(x) + self._g(x)

    def invert(self, y, inner_log=None):
        """Iterate to a step of _norm <= step_tol; math.dist screens each step, _norm
        decides where it cannot. ``inner_log`` gets each step's norm as measured."""
        yl = _floats(y, self.A.shape[0])
        lu, rest = self._lu, self._rest
        # Stop on a step small enough that the g-increment bound keeps the
        # final residual under inner_tol even when l_g > 1.
        step_tol = 0.5 * self.inner_tol / max(1.0, self.l_g)
        # A finite step over this bound fails that test: math.dist and _norm differ
        # by far less than 1e-6, and the floor keeps underflowing squares in.
        bound = max(step_tol * (1.0 + 1e-6), 1e-150)
        x = lu._solve(yl)
        xl = x.tolist()
        for _ in range(self.max_inner):
            # y + g(x) (on floats, numpy's bits), handed to dgetrs as _solve does.
            b = (list(map(operator.add, yl, rest(xl))) if rest
                 else np.add(yl, self._g(np.array(xl))))
            x_old, (x, info) = x, dgetrs(lu.lu, lu.piv, b)
            if info != 0:
                lu._solve(b)  # raises _solve's error
            xl_old, xl = xl, x.tolist()
            step = math.dist(xl, xl_old)
            if not bound < step < math.inf:
                step = _norm(x - x_old)
                if not step < math.inf:
                    # Every non-finite b lands here; the checked solve raises on it.
                    lu.solve(b)
            if inner_log is not None:
                inner_log.append(step)
            if step <= step_tol:
                break
        return _verify(self, x, self.A.dot(x) + (np.array(rest(xl)) if rest else self._g(x)), yl)

    def lipschitz(self):
        return self.inv_norm / (1.0 - self.contraction)


@dataclass(eq=False)
class ScalarBracket:
    """Bisection inverse for one-dimensional v with x - v(x) increasing or
    decreasing: each midpoint's sign is compared with the left end's."""

    v_map: object
    bracket: tuple
    inner_tol: float = 1e-12
    max_inner: int = 100_000

    def __post_init__(self):
        a, b = self.bracket
        if not a < b:
            raise ValueError("bracket must satisfy a < b")
        self._v = _unchecked(self.v_map)

    def v(self, x):
        return np.asarray(self.v_map(np.atleast_1d(np.asarray(x, float))), float)

    def _w(self, t):
        return t - float(self._v(np.array([t]))[0])

    def invert(self, y, inner_log=None):
        target = float(_point(y, None).ravel()[0])
        a, b = float(self.bracket[0]), float(self.bracket[1])
        ga = self._w(a) - target
        gb = self._w(b) - target
        if ga == 0.0:
            return np.array([a])
        if gb == 0.0:
            return np.array([b])
        if np.sign(ga) == np.sign(gb):
            raise BracketingFailure(
                f"x - v(x) - y has no sign change on [{a}, {b}]: "
                f"endpoints {ga:.3e}, {gb:.3e}"
            )
        gm = np.inf
        mid = a
        for _ in range(self.max_inner):
            mid = 0.5 * (a + b)
            if mid == a or mid == b:
                break  # interval cannot shrink further in floats
            gm = self._w(mid) - target
            if inner_log is not None:
                inner_log.append(abs(gm))
            if abs(gm) <= self.inner_tol:
                return np.array([mid])
            if np.sign(gm) == np.sign(ga):
                a, ga = mid, gm
            else:
                b = mid
        raise NoConvergence(
            f"bisection stalled at residual {abs(gm):.3e} "
            f"(inner_tol {self.inner_tol:.1e})",
            abs(gm),
        )

    def lipschitz(self, seed=0, count=10_000):
        """Sampled Lipschitz constant of the inverse, a lower bound: the
        largest |x1 - x2| / |w(x1) - w(x2)|, w = Id - v, over a plan's pairs
        in the bracket. A batch of v screens the pairs, as the analysis
        estimators do."""
        a, b = float(self.bracket[0]), float(self.bracket[1])
        plan = SamplingPlan(seed=seed, count=count, lo=a, hi=b)
        pairs = sample_pairs(plan, 1)
        best = 0.0
        for x1, x2 in _candidates((self.v_map,), pairs, _inverse_ratio_bounds):
            dw = self._w(float(x1[0])) - self._w(float(x2[0]))
            if abs(dw) < 1e-12:
                continue
            best = max(best, abs(float(x1[0]) - float(x2[0])) / abs(dw))
        return best


def _inverse_ratio_bounds(X, Y, values):
    """Per pair in 1-D, bounds on |dx| / |dw| for w = Id - v; 0 to -inf for
    a pair that is surely skipped."""
    ((VX, VY, ex, ey),) = values
    dw = np.abs((X - VX) - (Y - VY))[0]
    err = ex + ey + _MARGIN * (np.abs(X) + np.abs(Y))[0]
    dx = np.abs(X - Y)[0]
    # A pair is skipped when |dw| < 1e-12: surely, perhaps, or surely not.
    low = np.where(dw - err >= 1e-12, dx / (dw + err) * (1 - _MARGIN), 0.0)
    high = np.where(dw + err < 1e-12, -np.inf,
                    dx / np.maximum(dw - err, 0.0) * (1 + _MARGIN))
    return low, high


def invert(spec, y, inner_log=None):
    """Apply (Id - v)^{-1} to y under the given strategy.

    The result always satisfies |x - v(x) - y| <= spec.inner_tol; failure to
    reach that raises NoConvergence with the achieved residual.
    """
    return spec.invert(y, inner_log=inner_log)
