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
on non-convergence, and run in one engine with one divergence guard; the
sweep is that engine run for a fixed number of steps with no residual.

The constants behind the automatic step sizes come from resolve_constant,
in one order: stored on the problem, else spectral, else sampled.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .analysis import (
    SamplingPlan,
    _norm,
    operator_norm,
    pair_modulus_linear,
    sample_lipschitz,
    sample_pair_modulus,
)
from .errors import BracketingFailure, ConfigError, DiagnosticsError, NoConvergence
from .inverse import _LU, ScalarBracket, invert
from .model import (
    _natural_residual_parts,
    natural_residual,
    project,
    project_moving,
)

# Safety factors compensating the one-sided bias of sampled estimates:
# gamma-hat is an upper bound (shrink it), L-hat a lower bound (grow it).
GAMMA_SAFETY = 0.9
LIP_SAFETY = 1.1
# Iterates whose norm passes this (or is not finite) count as diverged.
_DIVERGENCE_GUARD = 1e12


@dataclass(frozen=True)
class SolverConfig:
    h: float | None = None  # None means the auto step rule
    tol: float = 1e-8
    max_iter: int = 10_000
    record: str = "none"  # none | residuals | full

    def __post_init__(self):
        if self.h is not None and not self.h > 0:
            raise ValueError("h must be positive")
        if not self.tol > 0:
            raise ValueError("tol must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")
        if self.record not in ("none", "residuals", "full"):
            raise ValueError(f"unknown record mode {self.record!r}")


@dataclass
class SolveReport:
    x_final: np.ndarray
    converged: bool
    diverged: bool
    iterations: int
    h_used: float
    residual_final: float
    displacement_final: float
    residuals: list | None = None
    iterates: list | None = None
    rate_estimate: float | None = None


def _run(state0, probe, config, h, x_of=lambda state: state):
    """The one iteration engine: stop on residual, cap, or divergence.

    ``probe(state)`` returns the stopping residual at ``state`` (None for a
    run with no residual, which goes on to ``config.max_iter``) and a thunk
    that takes the next step from the evaluations the residual made.
    """
    state = state0
    record = config.record != "none"
    residuals = [] if record else None
    iterates = [x_of(state).copy()] if config.record == "full" else None
    window = deque(maxlen=101)
    converged = diverged = False
    x_before = None  # the iterate the last step started from
    n = 0
    r, advance = probe(state)
    while True:
        if r is not None:
            if record:
                residuals.append(r)
            if r <= config.tol:
                converged = True
                break
            window.append(r)
            if not math.isfinite(r) or (len(window) == window.maxlen
                                        and window[-1] > 10.0 * window[0]):
                diverged = True
                break
        x = x_of(state)
        if not _norm(x) <= _DIVERGENCE_GUARD:  # NaN or inf norms too
            diverged = True
            break
        if n >= config.max_iter:
            break
        try:
            new_state = advance()
        except (NoConvergence, BracketingFailure):
            # The inverse gave up, which only happens on runaway iterates.
            diverged = True
            break
        x_before, state = x, new_state
        n += 1
        if iterates is not None:
            iterates.append(x_of(state).copy())
        r, advance = probe(state)

    x_final = x_of(state).copy()
    displacement = np.inf if x_before is None else _norm(x_final - x_before)
    rate = None
    if residuals is not None and len(residuals) >= 5:
        try:
            rate = fit_linear_rate(residuals)
        except DiagnosticsError:
            rate = None
    return SolveReport(
        x_final=x_final,
        converged=converged,
        diverged=diverged,
        iterations=n,
        h_used=h,
        residual_final=math.nan if r is None else float(r),
        displacement_final=float(displacement),
        residuals=residuals,
        iterates=iterates,
        rate_estimate=rate,
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
    if gamma <= 0:
        raise ConfigError(f"auto step needs a positive gamma, got {gamma:.3e}")
    return gamma / L**2


def rate_bounds(gamma, L, l, l_tilde):
    """Per-iteration contraction factors (rho, kappa) of the two step rules.

    rho = sqrt(1 - gamma^2/(L^2 (1+l)^2)) belongs to h = gamma/L^2;
    kappa = sqrt(1 - alpha^2/(L^2 l_tilde^2)), alpha = gamma/(1+l)^2,
    belongs to h = alpha/(L^2 l_tilde^2). rho <= kappa whenever
    l_tilde (1+l)^2 >= 1.
    """
    q_rho = gamma**2 / (L**2 * (1.0 + l) ** 2)
    alpha = gamma / (1.0 + l) ** 2
    q_kappa = alpha**2 / (L**2 * l_tilde**2)
    if not 0 < q_rho <= 1 or not 0 < q_kappa <= 1:
        raise ValueError("constants are inconsistent with a linear rate")
    return float(np.sqrt(1.0 - q_rho)), float(np.sqrt(1.0 - q_kappa))


def alg1_step(problem, x, h):
    """One modified projection step: invert after projecting in y-space."""
    if not h > 0:
        raise ValueError("h must be positive")
    x = np.asarray(x, float)
    _, _, p = _natural_residual_parts(problem, x, problem.f(x), h)
    return invert(problem.inverse, p)


def catching_up_step(problem, x, h):
    """One baseline step: project onto the moved set K(x_n) directly."""
    if not h > 0:
        raise ValueError("h must be positive")
    x = np.asarray(x, float)
    return project_moving(problem, x, x - h * problem.f(x))


def solve_alg1(problem, x0, config=SolverConfig()):
    """Iterate the modified projection step until the natural residual drops.

    Each iterate evaluates f, v and the projection once: the step inverts
    the p = proj_C(y - h f(x)) that the residual |y - p| was measured with.
    """
    h = config.h if config.h is not None else auto_step(problem)
    spec = problem.inverse

    def probe(x):
        r, _, p = _natural_residual_parts(problem, x, problem.f(x), h)
        return r, lambda: invert(spec, p)

    return _run(np.asarray(x0, float), probe, config, h)


def solve_catchup(problem, x0, config=SolverConfig()):
    """Iterate the baseline moved-set projection step (may diverge; reported)."""
    h = config.h if config.h is not None else auto_step(problem)

    def probe(x):
        return natural_residual(problem, x, h), lambda: catching_up_step(problem, x, h)

    return _run(np.asarray(x0, float), probe, config, h)


def tseng_auto_step(problem, plan=None):
    """Step 0.9 / (L l_tilde), safe for the forward-backward-forward scheme.

    The composed map T = f o (Id-v)^{-1} is (L l_tilde)-Lipschitz, and the
    scheme needs h strictly below 1/Lip(T).
    """
    L, _ = resolve_constant(problem, "L", plan or SamplingPlan(seed=0), LIP_SAFETY)
    l_tilde, _ = resolve_constant(problem, "l_tilde")
    if L * l_tilde <= 0:
        raise ConfigError(f"tseng auto step needs a positive L * l_tilde, got {L * l_tilde:.3e}")
    return 0.9 / (L * l_tilde)


def solve_tseng(problem, x0, config=SolverConfig(), literal=False):
    """Forward-backward-forward solve in y-space for (pseudo) monotone pairs.

    Standard update: ybar = proj_C(y - h T(y)); y+ = ybar - h (T(ybar) - T(y)).
    With literal=True the correction is taken at y instead of ybar
    (y+ = y - h (T(ybar) - T(y))), kept only for side-by-side comparison;
    its outcome is reported, never relied on.
    """
    h = config.h if config.h is not None else tseng_auto_step(problem)
    f, spec, cset = problem.f, problem.inverse, problem.set

    def probe(state):
        x, y = state
        fx = f(x)  # equals T(y) since x = (Id-v)^{-1}(y)
        r, y_of_x, _ = _natural_residual_parts(problem, x, fx, h)
        if y is None:  # the start: y0 = x0 - v(x0)
            y = y_of_x

        def advance():
            ybar = project(cset, y - h * fx)
            z = invert(spec, ybar)
            if literal:
                yn = y + h * (fx - f(z))
            else:
                yn = ybar - h * (f(z) - fx)
            return invert(spec, yn), yn

        return r, advance

    return _run((np.asarray(x0, float), None), probe, config, h,
                x_of=lambda state: state[0])


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


def zero_step(f, w, x, h):
    """One zero-finder step w^{-1}(w(x) - h f(x)) = x - h A^{-1} f(x)."""
    x = np.asarray(x, float)
    return x - h * w.solve(f(x))


def solve_zero(f, w, x0, config=SolverConfig()):
    """Drive |f(x_n)| below tol with the w-scaffold iteration; h is 1 by default."""
    h = config.h if config.h is not None else 1.0
    return _run(np.asarray(x0, float),
                lambda x: (_norm(f(x)), lambda: zero_step(f, w, x, h)), config, h)


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

    States are reported at t_k = k h and generated by the modified
    projection step, the discretization that is convergent for every
    bundled problem (the baseline moved-set step needs contractive v).
    """
    if not h > 0:
        raise ValueError("h must be positive")
    if t_end < h:
        raise ValueError("t_end must be at least h")
    config = SolverConfig(h=h, max_iter=int(round(t_end / h)), record="full")
    report = _run(np.asarray(x0, float),
                  lambda x: (None, lambda: alg1_step(problem, x, h)), config, h)
    xs = np.asarray(report.iterates)
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
