"""Constant estimation and monotonicity checks.

Two computation styles live here. Linear maps get spectral answers
(operator norms by power iteration, pair-monotonicity moduli by a symmetric
eigenvalue solve). Everything else is estimated by seeded sampling, and the
estimators are one-sided by construction: a sampled Lipschitz constant is a
lower bound on the true one, a sampled pair modulus is an upper bound on the
true infimum. Callers that need safe step sizes must apply safety factors,
which is what the solvers module does.

The estimators evaluate fields that have a batch form (``evaluate_batch``)
on batches of sampled points, but only to screen: batched values differ
from point values by rounding, so every pair whose exact ratio could be the
extremum (or whose test could go either way) is computed by point, as it
would be in a loop over all pairs. The results are the point loop's, bit
for bit; a batch that hits a zero divisor or a non-finite value sends the
estimator to that loop, which raises the point error. A plan keeps its draw
in each dimension, and each field's batch values on it, for the next screen
of its rows.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass

import numpy as np

from .errors import EvalError, SamplingError

# Batched values lie within this factor of the magnitude of the terms behind
# them from the point values: far more than the rounding of another
# summation order (matrix products, norms). Expressions run the same IEEE
# operations either way, and NumPy's sin and cos are math's here (a test
# checks it), so an ulp there is not amplified past the margin.
_MARGIN = 1e-9
# Screens evaluate at most this many pairs at once, and the sampler draws
# this many before it joins its small arrays.
_CHUNK = 1024
# Power iteration stops once the Rayleigh quotient moves by at most this
# relative amount, or after this many steps from each start.
_POWER_TOL = 1e-10
_POWER_MAX_ITER = 100_000
# A plan's draw in one dimension is (X, Y, kept); kept maps a chunk start to
# {id(field): (field, values)}, at most _KEPT fields, held so no id is reused.
_KEPT = 4


class _Pairs(list):
    """sample_pairs' rows; ``draw`` is their draw, (X, Y, kept), and the rows as drawn."""


def _norm(u):
    """Euclidean norm of a float vector, computed as np.linalg.norm does.

    Without numpy's dispatch it costs a third as much; NaN or inf entries
    still give a NaN or inf norm.
    """
    return math.sqrt(u.dot(u))


@dataclass(frozen=True)
class SamplingPlan:
    """Seeded plan for pair-sampling estimators.

    Pairs are drawn in the box [lo, hi]^n: roughly half with both points
    uniform (captures global behaviour), half with the second point a small
    offset of the first (captures local slopes). Pairs closer than
    ``min_separation`` are rejected. The plan keeps its draws, which are
    not part of its value: it compares, hashes, prints and pickles by its
    five fields.
    """

    seed: int
    count: int = 10_000
    lo: float = -10.0
    hi: float = 10.0
    min_separation: float = 1e-6

    def __post_init__(self):
        if isinstance(self.count, bool) or not hasattr(self.count, "__index__"):
            raise ValueError(f"count must be an integer, got {self.count!r}")
        if self.count < 2:
            raise ValueError("count must be at least 2")
        for name in ("lo", "hi"):
            bound = getattr(self, name)
            if isinstance(bound, bool) or not isinstance(bound, numbers.Real):
                raise ValueError(f"{name} must be a real number, got {bound!r}")
        if not math.isfinite(float(self.hi) - float(self.lo)):
            raise ValueError("need finite lo, hi and hi - lo")
        if not self.lo < self.hi:
            raise ValueError("need lo < hi")
        # A Generator is refused: its state moves with each draw.
        seeds = self.seed if isinstance(self.seed, (list, tuple)) else [self.seed]
        if not isinstance(self.seed, np.random.SeedSequence) and not all(
                not isinstance(s, bool) and hasattr(s, "__index__") and s >= 0 for s in seeds):
            raise ValueError(f"seed {self.seed!r}: need ints >= 0 or a SeedSequence")
        ms = self.min_separation
        if isinstance(ms, bool) or not isinstance(ms, numbers.Real) or not 0 <= ms < math.inf:
            raise ValueError(f"min_separation must be a finite real >= 0, got {ms!r}")
        object.__setattr__(self, "_draws", {})  # dim -> sample_pairs' (X, Y, kept)

    def __reduce__(self):
        return type(self), (self.seed, self.count, self.lo, self.hi, self.min_separation)


def sample_pairs(plan, dim):
    """The plan's point pairs in dimension ``dim``, a fresh list of read-only
    ``(x, y)`` arrays.

    The plan draws once per dimension and keeps the draw: asking it again,
    as ``auto_step`` does for gamma and L, returns the same pairs undrawn.
    """
    draw = plan._draws.get(dim)
    if draw is None:
        draw = plan._draws[dim] = (*_draw(plan, dim), {})
    pairs = _Pairs(zip(draw[0], draw[1]))
    pairs.draw = draw, tuple(pairs)
    return pairs


def _draw(plan, dim):
    """The plan's pairs in dimension ``dim`` as two read-only (N, dim) arrays.

    They are a fixed function of ``(plan, dim)``: the pairs of a loop on
    ``rng = np.random.default_rng(plan.seed)`` that per pair draws
    ``x = rng.uniform(lo, hi, dim)``, then, if ``rng.uniform() < 0.5``,
    ``y = rng.uniform(lo, hi, dim)``, else ``u = rng.normal(size=dim)`` and
    ``y = clip(x + 1e-3 (hi - lo) u / _norm(u), lo, hi)``, and keeps those
    with ``_norm(x - y) >= min_separation``. Here consecutive uniforms come
    from one ``rng.random`` call, and the rest is done on the whole plan.
    """
    rng = np.random.default_rng(plan.seed)
    lo, hi = float(plan.lo), float(plan.hi)
    # Per pair: x and its coin, then a uniform y together with the next
    # pair's x and coin. Each block's small arrays are joined.
    draws, normals, uniform, norms = [rng.random(dim + 1)], [np.empty(0)], [], []
    for start in range(0, plan.count, _CHUNK):
        for _ in range(min(_CHUNK, plan.count - start)):
            uniform.append(draws[-1][-1] < 0.5)
            if uniform[-1]:
                draws.append(rng.random(2 * dim + 1))
            else:
                normals.append(rng.normal(size=dim))
                norms.append(_norm(normals[-1]))
                draws.append(rng.random(dim + 1))
        draws, normals = [np.concatenate(draws)], [np.concatenate(normals)]
    U, uniform = draws[0], np.array(uniform)
    width = dim + 1 + dim * uniform
    at = (np.cumsum(width) - width)[:, None] + np.arange(dim)
    X = lo + (hi - lo) * U[at]
    Y = np.empty_like(X)
    Y[uniform] = lo + (hi - lo) * U[at[uniform] + dim + 1]
    step = 1e-3 * (plan.hi - plan.lo)
    # A zero u gives a NaN y, which the test below drops; a wide box
    # overflows |x - y|^2 to inf, which it keeps.
    with np.errstate(all="ignore"):
        u, nu = normals[0].reshape(-1, dim), np.array(norms)[:, None]
        Y[~uniform] = np.minimum(np.maximum(X[~uniform] + step * u / nu, lo), hi)
        D = X - Y
        d, ms = np.sqrt((D * D).sum(1)), plan.min_separation
    # The separation test by row sums, and by _norm where their rounding
    # (or an underflow) could decide it.
    keep = d >= ms
    unsure = np.flatnonzero((np.abs(d - ms) <= _MARGIN * ms) | (d < 1e-145))
    keep[unsure] = [_norm(D[i]) >= ms for i in unsure]
    if not keep.any():
        raise SamplingError("sampling plan produced no usable pairs")
    X, Y = X[keep], Y[keep]
    X.flags.writeable = Y.flags.writeable = False
    return X, Y


def _batched(fields, pairs, X, Y, kept):
    """The pairs' points, and each field's values at them, for a screen.

    ``X`` and ``Y`` hold the points as rows, ``kept`` fields' batch values on
    them, to which it adds. Returns ``(X, Y, values)``: the points as the
    columns of two (dim, N) arrays, and per field ``(FX, FY, ex, ey)``, its
    values there and bounds on their distance from the point values; a field
    without a batch form is called point by point, in the order of the point
    loops, with zero bounds. None when no field has a batch form or a batch
    raises EvalError: the caller then runs its point loop.
    """
    X, Y = np.ascontiguousarray(X.T), np.ascontiguousarray(Y.T)
    values = [None] * len(fields)
    try:
        for i, field in enumerate(fields):
            values[i] = kept.get(id(field), (None, None))[1]
            batch = getattr(field, "evaluate_batch", None)
            at_x = None if batch is None or values[i] is not None else batch(X)
            if at_x is not None:
                at_y = batch(Y)
                values[i] = (at_x[0], at_y[0], _MARGIN * at_x[1], _MARGIN * at_y[1])
                if len(kept) < _KEPT:
                    kept[id(field)] = field, values[i]
    except EvalError:
        return None
    if all(v is None for v in values):
        return None
    zero = np.zeros(len(pairs))
    for i, field in enumerate(fields):
        if values[i] is None:
            V = np.array([np.asarray(field(p), float) for pair in pairs for p in pair])
            if V.shape != (2 * len(pairs), X.shape[0]):
                return None
            values[i] = (V[0::2].T, V[1::2].T, zero, zero)
    return X, Y, values


def _screen(fields, pairs, bounds):
    """``bounds(X, Y, values)`` over ``pairs`` on batches of at most _CHUNK
    pairs (bounding a screen's memory), joined; None if a batch is unusable
    (see _batched). Pairs not one draw's rows, in order, are stacked afresh."""
    (X, Y, kept), rows = getattr(pairs, "draw", ((None,) * 3, ()))
    if len(pairs) != len(rows) or not all(map(operator.is_, pairs, rows)):
        P = np.array(pairs).reshape(len(pairs), 2, -1)
        X, Y, kept = P[:, 0], P[:, 1], {}
    parts = []
    # A batch that overflows or divides by zero only makes the screen give up.
    with np.errstate(all="ignore"):
        for start in range(0, len(pairs), _CHUNK):
            part = slice(start, start + _CHUNK)
            batched = _batched(fields, pairs[part], X[part], Y[part], kept.setdefault(start, {}))
            if batched is None:
                return None
            parts.append(bounds(*batched))
    return [np.concatenate(part) for part in zip(*parts)]


def _candidates(fields, pairs, bounds):
    """The pairs whose quantity may be the largest, in order, when
    ``bounds`` gives per pair a (low, high) around it; all pairs if the
    screen gives up or the bounds are unusable (NaN, or an infinite low)."""
    screened = _screen(fields, pairs, bounds)
    if screened is None:
        return pairs
    low, high = screened
    if not np.isfinite(low).all() or np.isnan(high).any():
        return pairs
    return [pairs[i] for i in np.flatnonzero(high >= low.max())]


def _col_norm(A):
    return np.sqrt((A * A).sum(0))


def power_lambda_max(matvec, n):
    """Largest eigenvalue of a symmetric PSD operator given as a matvec.

    Runs power iteration from two deterministic starts (all ones, and
    1..n) and keeps the larger Rayleigh quotient; the second start covers
    the unlucky case of the first being orthogonal to the top eigenvector.
    """
    best = 0.0
    for start in (np.ones(n), np.arange(1.0, n + 1.0)):
        u = start / _norm(start)
        lam = 0.0
        for _ in range(_POWER_MAX_ITER):
            w = np.asarray(matvec(u), float)
            lam_new = float(u @ w)
            nw = _norm(w)
            if nw == 0.0:
                lam_new = 0.0
                break
            u = w / nw
            if abs(lam_new - lam) <= _POWER_TOL * max(abs(lam_new), 1e-300):
                lam = lam_new
                break
            lam = lam_new
        best = max(best, lam)
    return best


def operator_norm(M):
    """Largest singular value of a square matrix, relative accuracy 1e-10."""
    M = np.asarray(M, float)
    lam = power_lambda_max(lambda u: M.T @ (M @ u), M.shape[0])
    return float(np.sqrt(max(lam, 0.0)))


def pair_modulus_linear(A1, A2):
    """Strong-monotonicity modulus of the linear pair (A1, A2).

    This is the smallest eigenvalue of the symmetric part of A1^T A2; a
    positive result certifies <A1 x - A1 y, A2 x - A2 y> >= gamma |x - y|^2.
    """
    A1 = np.asarray(A1, float)
    A2 = np.asarray(A2, float)
    if A1.shape != A2.shape or A1.shape[0] != A1.shape[1]:
        raise ValueError("matrices must be square and share a dimension")
    S = (A1.T @ A2 + A2.T @ A1) / 2.0
    return float(np.linalg.eigvalsh(S)[0])


def sample_pair_modulus(f, w, plan):
    """Sampled pair modulus: min over pairs of <df, dw> / |dx|^2.

    Upper bound on the true infimum (every sampled ratio is at least it),
    deterministic given the plan's seed.
    """
    pairs = sample_pairs(plan, f.dim)
    best = np.inf
    for x, y in _candidates((f, w), pairs, _modulus_bounds):
        num = float(np.dot(np.asarray(f(x)) - np.asarray(f(y)),
                           np.asarray(w(x)) - np.asarray(w(y))))
        # A NumPy quotient, as in sample_lipschitz: a pair at distance 0 gives NaN.
        best = min(best, float(np.divide(num, np.dot(x - y, x - y))))
    return best


def _modulus_bounds(X, Y, values):
    """Per pair, bounds on -<df, dw> / |dx|^2 (the smallest ratio is the
    largest of these)."""
    (FX, FY, efx, efy), (WX, WY, ewx, ewy) = values
    D, df, dw = X - Y, FX - FY, WX - WY
    ef, ew = efx + efy, ewx + ewy
    a, b = _col_norm(df) + ef, _col_norm(dw) + ew
    dd = (D * D).sum(0)
    q = (df * dw).sum(0) / dd
    err = (a * ew + b * ef + _MARGIN * a * b) / dd
    return -q - err, -q + err


def sample_lipschitz(f, plan):
    """Sampled Lipschitz constant: max over pairs of |df| / |dx|.

    Lower bound on the true constant, deterministic given the seed.
    """
    pairs = sample_pairs(plan, f.dim)
    best = 0.0
    for x, y in _candidates((f,), pairs, _lipschitz_bounds):
        # A NumPy quotient: a pair at distance 0, which min_separation 0 keeps,
        # gives NaN (never the largest) and not an error.
        ratio = float(np.divide(_norm(np.asarray(f(x), float) - np.asarray(f(y), float)),
                                _norm(x - y)))
        best = max(best, ratio)
    return best


def _lipschitz_bounds(X, Y, values):
    """Per pair, bounds on |df| / |dx|."""
    ((FX, FY, ex, ey),) = values
    dx = _col_norm(X - Y)
    ratio = _col_norm(FX - FY) / dx
    err = (ex + ey) / dx + _MARGIN * ratio
    return ratio - err, ratio + err


@dataclass(frozen=True)
class PseudoReport:
    checked: int
    violations: int
    witnesses: tuple

    @property
    def ok(self):
        return self.violations == 0


def check_pseudo_pair(f, w, plan, slack=1e-12):
    """Sampled pseudo-monotonicity check for the pair (f, w).

    For each ordered pair (a, b): if <f(a), w(b)-w(a)> >= -slack then
    <f(b), w(b)-w(a)> >= -slack must hold too. Zero violations is evidence,
    not proof. Up to ten witness pairs are kept for inspection.
    """
    pairs = sample_pairs(plan, f.dim)
    flags = _screen((f, w), pairs, lambda X, Y, values: _pseudo_flags(values, slack))
    # Per pair, its two violation flags if the batch decides them, else None.
    known = [None] * len(pairs) if flags is None else [
        (u, v) if ok else None for ok, u, v in zip(*(a.tolist() for a in flags))]
    violations = 0
    witnesses = []
    for (x, y), found in zip(pairs, known):
        if found is None:
            found = _pseudo_violations(f, w, x, y, slack)
        for (a, b), bad in zip(((x, y), (y, x)), found):
            if bad:
                violations += 1
                if len(witnesses) < 10:
                    witnesses.append((a.copy(), b.copy()))
    return PseudoReport(2 * len(pairs), violations, tuple(witnesses))


def _pseudo_violations(f, w, x, y, slack):
    """Whether the ordered pairs (x, y) and (y, x) violate the test."""
    fx, fy = np.asarray(f(x), float), np.asarray(f(y), float)
    wx, wy = np.asarray(w(x), float), np.asarray(w(y), float)
    found = []
    for fa, fb, wa, wb in ((fx, fy, wx, wy), (fy, fx, wy, wx)):
        d = wb - wa
        found.append(float(np.dot(fa, d)) >= -slack and float(np.dot(fb, d)) < -slack)
    return found


def _pseudo_flags(values, slack):
    """Per pair, whether the batch decides it (neither <f(x), d> nor <f(y), d>,
    d = w(y) - w(x), lies within its error of -slack or slack), and its two
    violation flags."""
    (FX, FY, efx, efy), (WX, WY, ewx, ewy) = values
    D, ed = WY - WX, ewx + ewy
    b = _col_norm(D) + ed
    decided = np.ones(D.shape[1], bool)
    products = []
    for F, e in ((FX, efx), (FY, efy)):
        a = _col_norm(F) + e
        p = (F * D).sum(0)
        err = a * ed + b * e + _MARGIN * a * b
        decided &= (np.abs(p + slack) > err) & (np.abs(p - slack) > err)
        products.append(p)
    px, py = products
    # (x, y) tests <f(x), d> and <f(y), d>; (y, x) tests -<f(y), d> and -<f(x), d>.
    return decided, (px >= -slack) & (py < -slack), (py <= slack) & (px > slack)


def composition_modulus_bound(gamma, l):
    """Strong-monotonicity modulus gamma/(1+l)^2 inherited by f o (Id-v)^{-1}."""
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    if l < 0:
        raise ValueError("l must be nonnegative")
    return gamma / (1.0 + l) ** 2
