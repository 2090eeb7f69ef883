"""Strategies for applying (Id - v)^{-1}.

The moving-set iteration needs x = (Id - v)^{-1}(y) once per step, so the
inverse is a first-class object built ahead of time from the field v it
inverts, its first argument. Four strategies cover the shapes of v:

  LinearExact(v)             v(x) = V x, solve (I - V) x = y by LU factorization
  PicardContraction(v, l)    any v with Lipschitz constant l < 1, x <- y + v(x)
  Semilinear(v, l_g)         v(x) = A x + g(x), x <- (I-A)^{-1}(y + g(x));
                             works when |(I-A)^{-1}| L_g < 1 even if |A| is huge
  ScalarBracket(v, bracket)  dim 1, x - v(x) monotone, bisection on a bracket

A constructor refuses a v of the wrong form or a bad declaration with a
ConfigError that starts with the name at fault (``strategy: ``, ``l: ``,
``l_g: ``, ``bracket: ``, ``inner_tol: `` or ``max_inner: ``), and a singular
linear part with SingularLinearPart. Every invert call verifies
|x - v(x) - y| <= inner_tol a posteriori, which turns the well-definedness
of the inverse from a hypothesis into a runtime contract; the check records
``spec.checked = (x, x - v(x))``, which a solver steps on: a problem holds
its v only as ``spec.v_map`` (``QviProblem.v``), so the record is its own. Each
``lipschitz()`` bounds the Lipschitz constant of the inverse: exactly for
LinearExact, by 1/(1-l) and |(I-A)^{-1}|/(1 - |(I-A)^{-1}| L_g) for the
contractions, and by a seeded sampled estimate (a lower bound) for ScalarBracket.

PicardContraction writes each step ``y + v(x)`` into the next row of a buffer
the spec keeps (same bits; a pure-matrix step allocates nothing) and tests a
chunk of rows in one stacked matmul, which takes each step norm with ``_norm``'s
``ddot``. Its first chunk is as long as the previous invert's loop on the same
spec, so in a solve one chunk mostly suffices; later chunks double from 8 steps.
Semilinear sums each ``y + g(x)`` on the floats its remainder reads, hands that
list to LAPACK, screens each step with ``math.dist`` and checks with ``g`` at
those floats. An ``inner_log`` only observes: it gets the step norms the loop
measured. All but Picard work on ``y`` as the list of floats the solvers
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
    operator_norm,
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


@dataclass(eq=False)
class _Strategy:
    """The field a strategy inverts and its inner loop's stop: a step or
    residual of at most ``inner_tol``, or ``max_inner`` steps."""

    v_map: object
    inner_tol: float = field(default=1e-12, kw_only=True)
    max_inner: int = field(default=100_000, kw_only=True)

    def __post_init__(self):
        if not 0.0 < self.inner_tol < math.inf:
            raise ConfigError(f"inner_tol: {self.inner_tol!r} is not positive and finite")
        if not self.max_inner >= 1:
            raise ConfigError(f"max_inner: {self.max_inner!r} is below 1")


@dataclass(eq=False)
class LinearExact(_Strategy):
    """Inverse of Id - v for a field v(x) = V x, a matrix V alone."""

    def __post_init__(self):
        super().__post_init__()
        v = self.v_map
        if not (isinstance(v, VectorField) and v.remainder is None):
            raise ConfigError("strategy: linear_exact needs v in pure matrix form")
        self._lu = _LU(np.eye(v.dim) - v.matrix, "I - V")

    def invert(self, y, inner_log=None):
        V = self.v_map.matrix
        y = _floats(y, V.shape[0])
        # _LU.refined_solve on floats; y is checked, the refinement's right side is not yet.
        lu = self._lu
        x = lu._solve(y)
        x = x + lu.solve(list(map(operator.sub, y, lu.A.dot(x).tolist())))
        return _verify(self, x, V.dot(x), y)

    def lipschitz(self):
        return self._lu.inverse_norm()


# Steps in a fresh spec's first Picard chunk and in the chunk after a first
# chunk that missed the stop; and in the longest chunk.
_FIRST_CHUNK, _MAX_CHUNK = 8, 512


def _first_stop(X, tol, inner_log):
    """The index of the first row of ``X`` (a 2-D array of iterates) whose
    step from the row before passes ``_norm(step) <= tol``, or None.

    A stacked matmul of the steps runs, row by row, the ``ddot`` of
    ``_norm``'s ``u.dot(u)``, so every norm is ``_norm``'s, bit for bit. With
    ``inner_log``, every step up to the stop is logged.
    """
    D = X[1:] - X[:-1]
    norms = np.sqrt(np.matmul(D[:, None, :], D[:, :, None]).ravel())
    stop = next((i + 1 for i in np.flatnonzero(norms <= tol).tolist()), None)
    if inner_log is not None:
        inner_log.extend(norms[:stop].tolist())
    return stop


@dataclass(eq=False)
class PicardContraction(_Strategy):
    """Inverse via the fixed-point iteration x <- y + v(x), for l < 1.

    The loop stops on the first step with _norm(step) <= inner_tol, or after
    max_inner steps. It iterates in chunks, never past max_inner, and tests
    each chunk with _first_stop. The first chunk is as long as the previous
    invert's loop on this spec (8 steps at first, at most 512), so the inverts
    of a solve mostly run one chunk; the next one is 8 steps, and each later
    one doubles, up to 512. The result, the inner_log values and an error are
    those of a loop that tests every step; iterates past the stop are dropped.
    A v_map that is a matrix alone must declare l at least its operator norm,
    less 1e-9 relative (ConfigError), so its iterates stay within |y| / (1 - l).
    Another may hide a false l: a chunk that ends on a row that is not finite
    ends the loop, and the check raises NoConvergence as after max_inner steps.

    Each step writes into the next row of one buffer, made on first use and
    regrown for a longer chunk (at most 513 rows), in place for a matrix with
    no remainder. A v_map that raises ends the chunk on the row its step read.
    The result, its check record and the iterate a chunk ends on are copies.
    """

    l: float  # the Lipschitz constant of v_map, any callable displacement
    _steps = _FIRST_CHUNK  # steps of the last invert that stopped

    def __post_init__(self):
        super().__post_init__()
        if not 0.0 <= self.l < 1.0:
            raise ConfigError(f"l: declared contraction l={self.l} must be < 1")
        self._matrix = isinstance(self.v_map, VectorField) and self.v_map.remainder is None
        # operator_norm rises to the norm, within rounding: a refusal is never false.
        if self._matrix and self.l < (norm := operator_norm(self.v_map.matrix)) * (1 - 1e-9):
            raise ConfigError(f"l: {self.l!r} is below v's operator norm {norm!r}")
        self._v = _unchecked(self.v_map)
        self._rows = []  # row views of the step buffer, made on first use

    def __getstate__(self):
        # A copy makes its own buffer: copied row views would not be its rows.
        return {**vars(self), "_buffer": None, "_rows": []}

    def invert(self, y, inner_log=None):
        y = _point(y, getattr(self.v_map, "dim", None))
        v, add, tol = self._v, np.add, self.inner_tol
        x, left, k = y.copy(), self.max_inner, min(max(self._steps, 1), _MAX_CHUNK)
        later = _FIRST_CHUNK  # the chunk after a first one that missed the stop
        with np.errstate(all="ignore"):
            while left > 0 and _all_finite(x):  # a non-finite x goes to the check
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
                stop = _first_stop(xs, tol, inner_log)
                if stop is not None:
                    x = xs[stop].copy()
                    self._steps = self.max_inner - left + stop
                    break
                if failure is not None:
                    raise failure  # no step before the failing one stopped the loop
                left -= len(xs) - 1
                x = xs[-1].copy()
                k, later = later, min(2 * later, _MAX_CHUNK)
            return _verify(self, x, v(x), y)

    def lipschitz(self):
        return 1.0 / (1.0 - self.l)


@dataclass(eq=False)
class Semilinear(_Strategy):
    """Inverse for a field v(x) = A x + g(x), a matrix A and a remainder g,
    preconditioned by (I - A)^{-1}.

    The plain Picard iteration diverges when |A| >= 1, but the equivalent
    fixed point x = (I-A)^{-1}(y + g(x)) contracts with factor
    |(I-A)^{-1}| L_g, checked against the declared Lipschitz bound l_g of g.
    """

    l_g: float
    inv_norm: float = field(init=False)

    def __post_init__(self):
        super().__post_init__()
        v = self.v_map
        if not (isinstance(v, VectorField) and v.matrix is not None and v.remainder is not None):
            raise ConfigError("strategy: semilinear needs v in {matrix, remainder} form")
        if not 0.0 < self.l_g < math.inf:
            raise ConfigError(f"l_g: {self.l_g!r} is not positive and finite")
        self._lu = _LU(np.eye(v.dim) - v.matrix, "I - A")
        self.inv_norm = self._lu.inverse_norm()
        self.contraction = self.inv_norm * self.l_g
        if self.contraction >= 1.0:
            raise ConfigError(
                f"l_g: semilinear contraction factor {self.contraction:.3f} is not < 1"
            )

    def invert(self, y, inner_log=None):
        """Iterate to a step of _norm <= step_tol; math.dist screens each step, _norm
        decides where it cannot. ``inner_log`` gets each step's norm as measured."""
        v = self.v_map
        yl = _floats(y, v.dim)
        lu, rest = self._lu, v._rest
        # Stop on a step small enough that the g-increment bound keeps the
        # final residual under inner_tol even when l_g > 1.
        step_tol = 0.5 * self.inner_tol / max(1.0, self.l_g)
        # A finite step over this bound fails that test: math.dist and _norm differ
        # by far less than 1e-6, and the floor keeps underflowing squares in.
        bound = max(step_tol * (1.0 + 1e-6), 1e-150)
        x = lu._solve(yl)
        xl = x.tolist()
        for _ in range(self.max_inner):
            # y + g(x) on floats, numpy's bits, handed to dgetrs as _solve does.
            b = list(map(operator.add, yl, rest(xl)))
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
        return _verify(self, x, v.matrix.dot(x) + np.array(rest(xl)), yl)

    def lipschitz(self):
        return self.inv_norm / (1.0 - self.contraction)


@dataclass(eq=False)
class ScalarBracket(_Strategy):
    """Bisection inverse for a v of dimension 1 with x - v(x) increasing or
    decreasing on the bracket a < b: each midpoint's sign is compared with
    the left end's."""

    bracket: tuple

    def __post_init__(self):
        super().__post_init__()
        if getattr(self.v_map, "dim", 1) != 1:
            raise ConfigError("strategy: scalar_bracket only applies in dimension 1")
        a, b = self.bracket
        # |a| + |b| finite keeps the width b - a and the midpoints finite.
        if not (a < b and math.isfinite(abs(a) + abs(b))):
            raise ConfigError("bracket: expected finite a < b with |a| + |b| finite, "
                              f"got {self.bracket!r}")
        self.bracket = (float(a), float(b))
        self._v = _unchecked(self.v_map)

    def _w(self, t):
        return t - float(self._v(np.array([t]))[0])

    def invert(self, y, inner_log=None):
        y = _floats(y, 1)
        (target,), (a, b) = y, self.bracket

        def checked(t):
            x = np.array([t])
            return _verify(self, x, self._v(x), y)

        ga = self._w(a) - target
        gb = self._w(b) - target
        if ga == 0.0 or gb == 0.0:
            return checked(a if ga == 0.0 else b)
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
                return checked(mid)
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
        plan = SamplingPlan(seed=seed, count=count, lo=self.bracket[0], hi=self.bracket[1])
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
