"""Iterative solvers and convergence diagnostics.

The workhorse is the moving-set projection step with the translation pulled
back through the inverse,

    x_{n+1} = (Id - v)^{-1}( proj_C( x_n - v(x_n) - h f(x_n) ) ),

which converges linearly for strongly monotone pairs (f, Id - v). The plain
projection step onto the moved set,

    x_{n+1} = v(x_n) + proj_C( x_n - h f(x_n) - v(x_n) ),

is kept as a baseline; it needs v to be a strict contraction and fails
loudly otherwise. A forward-backward-forward (Tseng-type) variant handles
merely monotone pairs, and a derivative-free zero finder

    x_{n+1} = w^{-1}( w(x_n) - h f(x_n) )

covers root problems for strongly monotone pairs (f, w). All solves stop on
the natural residual (or |f| for the zero finder), report instead of raise
on non-convergence, and run in one engine that keeps each residual once; the
sweep is that engine run for a fixed number of steps with no residual.

The constants behind the automatic step sizes come from resolve_constant,
in one order: stored on the problem, else spectral, else sampled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analysis import (
    SamplingPlan,
    _norm,
    composition_modulus_bound,
    operator_norm,
    pair_modulus_linear,
    sample_lipschitz,
    sample_pair_modulus,
)
from .errors import BracketingFailure, ConfigError, DiagnosticsError, NoConvergence
from .inverse import _LU, ScalarBracket, invert
from .model import _floats, _residual, _y_and_p, natural_residual, project_floats, project_moving

# Safety factors compensating the one-sided bias of sampled estimates:
# gamma-hat is an upper bound (shrink it), L-hat a lower bound (grow it).
GAMMA_SAFETY = 0.9
LIP_SAFETY = 1.1
# Iterates whose norm passes this (or is not finite) count as diverged.
_DIVERGENCE_GUARD = 1e12
_MAX_SWEEP_STEPS = 10**6  # a sweep peaks at about 40 B a step in 2-D: 40 MB


@dataclass(frozen=True)
class SolverConfig:
    h: float | None = None  # None means the auto step rule
    tol: float = 1e-8
    max_iter: int = 10_000

    def __post_init__(self):
        if self.h is not None and not 0 < self.h < math.inf:
            raise ValueError(f"h must be positive and finite, got {self.h}")
        if not 0 < self.tol < math.inf:
            raise ValueError(f"tol must be positive and finite, got {self.tol}")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")


@dataclass
class SolveReport:
    x_final: np.ndarray
    converged: bool
    diverged: bool
    iterations: int
    h_used: float
    residual_final: float
    displacement_final: float
    residuals: list

    @property
    def rate_estimate(self):
        """Rate fitted to the residuals when read; None if fewer than five fit."""
        try:
            return fit_linear_rate(self.residuals)
        except DiagnosticsError:
            return None


def _run(state0, probe, config, h, on_step=None):
    """The one iteration engine: stop on residual, cap, or divergence.

    ``probe(state)`` returns ``(x, r, advance)``: the iterate of ``state``, the
    stopping residual at it (None for a run with no residual, which goes on to
    ``config.max_iter``) and a thunk that takes the next state from the evaluations
    ``r`` made. A run diverges on an ``r`` not finite or over 10x the one 100 steps back.
    ``on_step(x)`` sees each iterate itself, not a copy: x0 first, the final last.
    """
    residuals = []
    converged = diverged = False
    x_before = None  # the iterate the last step started from
    n = 0
    x, r, advance = probe(state0)
    while True:  # once per iterate
        if on_step is not None:
            on_step(x)
        if r is not None:
            residuals.append(r)
            if r <= config.tol:
                converged = True
                break
            if not math.isfinite(r) or (len(residuals) > 100
                                        and r > 10.0 * residuals[-101]):
                diverged = True
                break
        # NaN or inf norms too; well below the guard math.hypot decides as _norm would.
        if not (math.hypot(*x.ravel().tolist()) < 0.999 * _DIVERGENCE_GUARD
                or _norm(x) <= _DIVERGENCE_GUARD):
            diverged = True
            break
        if n >= config.max_iter:
            break
        try:
            state = advance()
        except (NoConvergence, BracketingFailure):
            # The inverse gave up, which only happens on runaway iterates.
            diverged = True
            break
        x_before = x
        n += 1
        x, r, advance = probe(state)

    x_final = x.copy()
    displacement = np.inf if x_before is None else _norm(x_final - x_before)
    return SolveReport(
        x_final=x_final,
        converged=converged,
        diverged=diverged,
        iterations=n,
        h_used=h,
        residual_final=math.nan if r is None else float(r),
        displacement_final=float(displacement),
        residuals=residuals,
    )


def _linear_part(field):
    """The matrix of a pure-linear field (no remainder), else None."""
    pure = getattr(field, "remainder", None) is None
    return getattr(field, "matrix", None) if pure else None


def resolve_constant(problem, name, plan=None, safety=1.0, stored=True):
    """Value and source of constant L, l, gamma or l_tilde, in the one order:

    1. the value stored on ``problem.constants`` (unless not ``stored``);
    2. spectral: the operator norm of a pure-linear f (L) or v (l), the pair
       modulus of pure-linear f and Id - v (gamma), the inverse's bound
       (l_tilde; a sampled one for ScalarBracket);
    3. sampled with ``plan``, times the ``safety`` factor against the
       estimate's one-sided bias; with no plan, (None, None).
    """
    if name not in ("L", "l", "gamma", "l_tilde"):
        raise ValueError(f"no rule resolves constant {name!r}")
    constant = getattr(problem.constants, name) if stored else None
    if constant is not None:
        return constant.value, constant.source
    F, V = _linear_part(problem.f), _linear_part(problem.v)
    if name == "L" and F is not None:
        return operator_norm(F), "spectral"
    if name == "l" and V is not None:
        return operator_norm(V), "spectral"
    if name == "gamma" and F is not None and V is not None:
        return pair_modulus_linear(F, np.eye(problem.dim) - V), "spectral"
    if name == "l_tilde":
        sampled = isinstance(problem.inverse, ScalarBracket)
        return problem.inverse.lipschitz(), "sampled" if sampled else "spectral"
    if plan is None:
        return None, None
    if name == "gamma":
        modulus = sample_pair_modulus(problem.f, problem.w, plan)
        return safety * modulus, "sampled"
    field = problem.f if name == "L" else problem.v
    return safety * sample_lipschitz(field, plan), "sampled"


def auto_step(problem, plan=None):
    """Step size h = gamma / L^2, the rule whose rate does not involve l_tilde.

    gamma and L come from resolve_constant; a sampled estimate is
    safety-factored (0.9 gamma-hat, 1.1 L-hat).
    """
    plan = plan or SamplingPlan(seed=0)
    gamma, _ = resolve_constant(problem, "gamma", plan, GAMMA_SAFETY)
    L, _ = resolve_constant(problem, "L", plan, LIP_SAFETY)
    return _auto_h(lambda: gamma / L**2, "gamma / L^2", f"gamma = {gamma!r}, L = {L!r}")


def _auto_h(formula, rule, at):
    """The auto step ``formula()`` if positive and finite, else a ConfigError naming both."""
    try:
        if 0.0 < (h := formula()) < math.inf:
            return h
    except ArithmeticError:  # the formula overflows, or divides by zero
        pass
    raise ConfigError(f"h: the auto step {rule} is not positive and finite at {at}")


def rate_bounds(gamma, L, l, l_tilde):
    """Per-iteration contraction factors (rho, kappa) of the two step rules.

    rho = sqrt(1 - gamma^2/(L^2 (1+l)^2)) belongs to h = gamma/L^2;
    kappa = sqrt(1 - alpha^2/(L^2 l_tilde^2)), alpha = gamma/(1+l)^2,
    belongs to h = alpha/(L^2 l_tilde^2). rho <= kappa whenever
    l_tilde (1+l)^2 >= 1. A gamma <= 0 or an l < 0 raises ValueError.
    """
    alpha = composition_modulus_bound(gamma, l)
    q_rho = gamma**2 / (L**2 * (1.0 + l) ** 2)
    q_kappa = alpha**2 / (L**2 * l_tilde**2)
    if not 0 < q_rho <= 1 or not 0 < q_kappa <= 1:
        raise ValueError("constants are inconsistent with a linear rate")
    return float(np.sqrt(1.0 - q_rho)), float(np.sqrt(1.0 - q_kappa))


def alg1_step(problem, x, h, *, y=None):
    """One modified projection step: invert after projecting in y-space. ``y``, if
    given, is x - v(x) as a float array (an inverse's check records it): v is not called."""
    if not h > 0:
        raise ValueError("h must be positive")
    return invert(problem.inverse, _y_and_p(problem, np.asarray(x, float), h, y)[1])


def catching_up_step(problem, x, h):
    """One baseline step: project onto the moved set K(x_n) directly."""
    if not h > 0:
        raise ValueError("h must be positive")
    x = np.asarray(x, float)
    return project_moving(problem, x, x - h * problem.f(x))


def solve_alg1(problem, x0, config=SolverConfig(), *, on_step=None):
    """Iterate the modified projection step until the natural residual drops.

    Each iterate evaluates f, the projection and v once, v in the inverse's
    check: the step inverts the p = proj_C(y - h f(x)) the residual |y - p|
    used, and the check's x - v(x) is the next y; y, p on floats.
    """
    h = config.h if config.h is not None else auto_step(problem)
    spec = problem.inverse

    def probe(state):
        y, p, _ = _y_and_p(problem, state[0], h, state[1])
        return state[0], _residual(y, p), lambda: (invert(spec, p), spec.checked[1])

    return _run((np.asarray(x0, float), None), probe, config, h, on_step=on_step)


def solve_catchup(problem, x0, config=SolverConfig(), *, on_step=None):
    """Iterate the baseline moved-set projection step (may diverge; reported)."""
    h = config.h if config.h is not None else auto_step(problem)

    def probe(x):
        return x, natural_residual(problem, x, h), lambda: catching_up_step(problem, x, h)

    return _run(np.asarray(x0, float), probe, config, h, on_step=on_step)


def tseng_auto_step(problem, plan=None):
    """Step 0.9 / (L l_tilde), safe for the forward-backward-forward scheme.

    The composed map T = f o (Id-v)^{-1} is (L l_tilde)-Lipschitz, and the
    scheme needs h strictly below 1/Lip(T).
    """
    L, _ = resolve_constant(problem, "L", plan or SamplingPlan(seed=0), LIP_SAFETY)
    l_tilde, _ = resolve_constant(problem, "l_tilde")
    return _auto_h(lambda: 0.9 / (L * l_tilde), "0.9 / (L l_tilde)",
                   f"L = {L!r}, l_tilde = {l_tilde!r}")


def solve_tseng(problem, x0, config=SolverConfig(), literal=False, *, on_step=None):
    """Forward-backward-forward solve in y-space for (pseudo) monotone pairs.

    Standard update: ybar = proj_C(y - h T(y)); y+ = ybar - h (T(ybar) - T(y)).
    With literal=True the correction is taken at y instead of ybar
    (y+ = y - h (T(ybar) - T(y))), kept only for side-by-side comparison;
    its outcome is reported, never relied on. It steps as solve_alg1 does: on
    floats with numpy's bits, v in the inverse's check.
    """
    h = config.h if config.h is not None else tseng_auto_step(problem)
    f, spec, cset = problem.f, problem.inverse, problem.set

    def probe(state):
        x, w, y = state  # w: the x - v(x) of x's check (None at x0); y: the iterate's floats
        y_of_x, p, fx = _y_and_p(problem, x, h, w)  # f(x) is T(y): x = (Id-v)^{-1}(y)
        y = y_of_x if y is None else y  # the start: y0 = x0 - v(x0)

        def advance():
            ybar = project_floats(cset, [a - h * b for a, b in zip(y, fx)])
            fz = _floats(f, invert(spec, ybar))
            yn = ([a + h * (b - c) for a, b, c in zip(y, fx, fz)] if literal
                  else [a - h * (c - b) for a, b, c in zip(ybar, fx, fz)])
            return invert(spec, yn), spec.checked[1], yn

        return x, _residual(y_of_x, p), advance

    return _run((np.asarray(x0, float), None, None), probe, config, h, on_step=on_step)


@dataclass(eq=False)
class ZeroMap:
    """The strictly increasing scaffold w(x) = A x of a zero problem, with
    the LU solve of A."""

    matrix: np.ndarray
    solve: object

    @classmethod
    def from_matrix(cls, A):
        A = np.asarray(A, float)
        return cls(A, _LU(A, "w matrix").refined_solve)


def zero_step(f, w, x, h, *, fx=None):
    """One zero-finder step w^{-1}(w(x) - h f(x)) = x - h A^{-1} f(x). ``fx``, if
    given, is f(x), evaluated already: f is not called."""
    x = np.asarray(x, float)
    return x - h * w.solve(f(x) if fx is None else fx)


def solve_zero(f, w, x0, config=SolverConfig(), *, on_step=None):
    """Drive |f(x_n)| below tol with the w-scaffold iteration; h is 1 by default."""
    h = config.h if config.h is not None else 1.0

    def probe(x):
        fx = f(x)  # |f(x)| and the step's f(x): one evaluation per iterate
        return x, _norm(fx), lambda: zero_step(f, w, x, h, fx=fx)

    return _run(np.asarray(x0, float), probe, config, h, on_step=on_step)


@dataclass(frozen=True)
class SweepResult:
    ts: np.ndarray
    xs: np.ndarray
    diverged: bool

    @property
    def speeds(self):
        """Difference quotients |x_{k+1} - x_k| / h, one per step taken."""
        dt = np.diff(self.ts)
        return np.linalg.norm(np.diff(self.xs, axis=0), axis=1) / dt


def sweep_trajectory(problem, x0, h, t_end):
    """Time-stamped trajectory of the discretized sweeping dynamics.

    States are reported at t_k = k h, for at most 10^6 steps, and generated by
    the modified projection step, the discretization that is convergent for
    every bundled problem (the baseline moved-set step needs contractive v).
    Each step is ``alg1_step`` given the check's x - v(x), as in solve_alg1.
    """
    if not h > 0:
        raise ValueError("h must be positive")
    if t_end < h:
        raise ValueError("t_end must be at least h")
    if not math.isfinite(t_end / h):
        raise ValueError(f"t_end / h must be finite, got t_end={t_end} and h={h}")
    steps = round(t_end / h)
    if steps > _MAX_SWEEP_STEPS:
        raise ValueError(f"a sweep of {steps} steps (t_end / h) exceeds the cap of "
                         f"{_MAX_SWEEP_STEPS} steps")
    xs = np.empty((steps + 1, *np.shape(x0)))
    rows = iter(xs)  # one row per state, x0's first

    def probe(state):
        x, y = state
        return x, None, lambda: (alg1_step(problem, x, h, y=y), problem.inverse.checked[1])

    report = _run((np.asarray(x0, float), None), probe, SolverConfig(h=h, max_iter=steps), h,
                  on_step=lambda x: np.copyto(next(rows), x))
    xs = xs[:report.iterations + 1]
    return SweepResult(ts=h * np.arange(len(xs)), xs=xs, diverged=report.diverged)


def loglinear_fit(values):
    """Least-squares fit of log(values) vs index: (slope, r_squared, n_used).

    Trailing values below 100x machine epsilon are discarded (floor effects
    corrupt the regression); at least 5 positive values must remain.
    """
    r = np.asarray(values, float)
    floor = 100.0 * np.finfo(float).eps
    keep = len(r)
    while keep > 0 and r[keep - 1] < floor:
        keep -= 1
    r = r[:keep]
    idx = np.arange(len(r), dtype=float)
    mask = (r > 0) & np.isfinite(r)
    r, idx = r[mask], idx[mask]
    if len(r) < 5:
        raise DiagnosticsError(
            f"need at least 5 positive residuals for a rate fit, got {len(r)}"
        )
    logs = np.log(r)
    slope, intercept = np.polyfit(idx, logs, 1)
    fitted = slope * idx + intercept
    ss_res = float(np.sum((logs - fitted) ** 2))
    ss_tot = float(np.sum((logs - logs.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return float(slope), r2, len(r)


def fit_linear_rate(residuals):
    """Per-iteration contraction factor in (0, 1] fitted from a residual run."""
    slope, _, _ = loglinear_fit(residuals)
    return min(float(np.exp(slope)), 1.0)
