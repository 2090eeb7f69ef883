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
on non-convergence, and share one divergence guard.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .analysis import SamplingPlan, sample_lipschitz, sample_pair_modulus
from .errors import (
    BracketingFailure,
    ConfigError,
    DiagnosticsError,
    NoConvergence,
    SingularLinearPart,
)
from .inverse import _LU, LinearExact, _norm, invert, lipschitz_of_inverse
from .model import FuncField, natural_residual, project, project_moving

# Safety factors compensating the one-sided bias of sampled estimates:
# gamma-hat is an upper bound (shrink it), L-hat a lower bound (grow it).
GAMMA_SAFETY = 0.9
LIP_SAFETY = 1.1


@dataclass(frozen=True)
class SolverConfig:
    h: float | None = None  # None means the auto step rule
    tol: float = 1e-8
    max_iter: int = 10_000
    record: str = "none"  # none | residuals | full
    divergence_guard: float = 1e12

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


def _run(state0, step, x_of, residual_of, config, h):
    """Shared iteration engine: stop on residual, cap, or divergence."""
    state = state0
    record = config.record != "none"
    residuals = [] if record else None
    iterates = [x_of(state).copy()] if config.record == "full" else None
    window = deque(maxlen=101)
    converged = diverged = False
    displacement = np.inf
    n = 0
    r = residual_of(state)
    while True:
        if record:
            residuals.append(r)
        if r <= config.tol:
            converged = True
            break
        x = x_of(state)
        norm_x = _norm(x)  # NaN or inf when x is not finite
        if not (math.isfinite(r) and math.isfinite(norm_x)) \
                or norm_x > config.divergence_guard:
            diverged = True
            break
        window.append(r)
        if len(window) == window.maxlen and window[-1] > 10.0 * window[0]:
            diverged = True
            break
        if n >= config.max_iter:
            break
        try:
            new_state = step(state)
        except (NoConvergence, BracketingFailure):
            # The inverse gave up, which only happens on runaway iterates.
            diverged = True
            break
        displacement = _norm(x_of(new_state) - x)
        state = new_state
        n += 1
        if iterates is not None:
            iterates.append(x_of(state).copy())
        r = residual_of(state)

    rate = None
    if residuals is not None and len(residuals) >= 5:
        try:
            rate = fit_linear_rate(residuals)
        except DiagnosticsError:
            rate = None
    return SolveReport(
        x_final=x_of(state).copy(),
        converged=converged,
        diverged=diverged,
        iterations=n,
        h_used=h,
        residual_final=float(r),
        displacement_final=float(displacement),
        residuals=residuals,
        iterates=iterates,
        rate_estimate=rate,
    )


def auto_step(problem, plan=None, allow_sampling=True):
    """Step size h = gamma / L^2, the rule whose rate does not involve l_tilde.

    Uses declared or spectral constants from the problem when present and
    falls back to safety-factored sampled estimates (0.9 gamma-hat,
    1.1 L-hat) otherwise.
    """
    c = problem.constants
    gamma = c.get("gamma")
    L = c.get("L")
    if gamma is None or L is None:
        if not allow_sampling:
            missing = [n for n, val in (("gamma", gamma), ("L", L)) if val is None]
            raise ConfigError(
                f"auto step needs {' and '.join(missing)}: declare them on the "
                "problem or allow sampling"
            )
        plan = plan or SamplingPlan(seed=0)
        if gamma is None:
            w = FuncField(problem.dim, lambda x: x - problem.v(x))
            gamma = GAMMA_SAFETY * sample_pair_modulus(problem.f, w, plan)
        if L is None:
            L = LIP_SAFETY * sample_lipschitz(problem.f, plan)
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
    y = x - problem.v(x) - h * problem.f(x)
    return invert(problem.inverse, project(problem.set, y))


def catching_up_step(problem, x, h):
    """One baseline step: project onto the moved set K(x_n) directly."""
    if not h > 0:
        raise ValueError("h must be positive")
    x = np.asarray(x, float)
    return project_moving(problem, x, x - h * problem.f(x))


def _solve_fixed_point(problem, x0, config, step_fn):
    h = config.h if config.h is not None else auto_step(problem)
    return _run(
        np.asarray(x0, float),
        lambda x: step_fn(problem, x, h),
        lambda x: x,
        lambda x: natural_residual(problem, x, h),
        config,
        h,
    )


def solve_alg1(problem, x0, config=SolverConfig()):
    """Iterate the modified projection step until the natural residual drops."""
    return _solve_fixed_point(problem, x0, config, alg1_step)


def solve_catchup(problem, x0, config=SolverConfig()):
    """Iterate the baseline moved-set projection step (may diverge; reported)."""
    return _solve_fixed_point(problem, x0, config, catching_up_step)


def tseng_auto_step(problem, plan=None):
    """Step 0.9 / (L l_tilde), safe for the forward-backward-forward scheme.

    The composed map T = f o (Id-v)^{-1} is (L l_tilde)-Lipschitz, and the
    scheme needs h strictly below 1/Lip(T).
    """
    c = problem.constants
    L = c.get("L")
    if L is None:
        plan = plan or SamplingPlan(seed=0)
        L = LIP_SAFETY * sample_lipschitz(problem.f, plan)
    l_tilde = c.get("l_tilde")
    if l_tilde is None:
        l_tilde = lipschitz_of_inverse(problem.inverse)
    return 0.9 / (L * l_tilde)


def solve_tseng(problem, x0, config=SolverConfig(), literal=False):
    """Forward-backward-forward solve in y-space for (pseudo) monotone pairs.

    Standard update: ybar = proj_C(y - h T(y)); y+ = ybar - h (T(ybar) - T(y)).
    With literal=True the correction is taken at y instead of ybar
    (y+ = y - h (T(ybar) - T(y))), kept only for side-by-side comparison;
    its outcome is reported, never relied on.
    """
    h = config.h if config.h is not None else tseng_auto_step(problem)
    f, v, spec, cset = problem.f, problem.v, problem.inverse, problem.set

    x0 = np.asarray(x0, float)
    state0 = (x0, x0 - v(x0))

    def step(state):
        x, y = state
        fx = f(x)  # equals T(y) since x = (Id-v)^{-1}(y)
        ybar = project(cset, y - h * fx)
        z = invert(spec, ybar)
        if literal:
            yn = y + h * (fx - f(z))
        else:
            yn = ybar - h * (f(z) - fx)
        return invert(spec, yn), yn

    return _run(
        state0,
        step,
        lambda state: state[0],
        lambda state: natural_residual(problem, state[0], h),
        config,
        h,
    )


@dataclass(eq=False)
class ZeroMap:
    """The strictly increasing scaffold w of a zero problem, with its inverse.

    Matrix scaffolds get a fast path (one LU solve per step); general
    scaffolds carry an inverse strategy for w = Id - (Id - w).
    """

    apply: object
    solve: object
    matrix: np.ndarray | None = None

    @classmethod
    def from_matrix(cls, A):
        A = np.asarray(A, float)
        return cls(apply=A.dot, solve=_LU(A, "w matrix").refined_solve, matrix=A)

    @classmethod
    def from_field(cls, w_field, inverse_spec):
        return cls(apply=w_field, solve=lambda u: invert(inverse_spec, u))


def zero_step(f, w, x, h):
    """One zero-finder step x - h A^{-1} f(x), or w^{-1}(w(x) - h f(x))."""
    x = np.asarray(x, float)
    if w.matrix is not None:
        return x - h * w.solve(f(x))
    return w.solve(np.asarray(w.apply(x), float) - h * f(x))


def solve_zero(f, w, x0, config=SolverConfig(h=1.0)):
    """Drive |f(x_n)| below tol with the derivative-free w-scaffold iteration."""
    h = config.h if config.h is not None else 1.0
    return _run(
        np.asarray(x0, float),
        lambda x: zero_step(f, w, x, h),
        lambda x: x,
        lambda x: _norm(f(x)),
        config,
        h,
    )


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


def sweep_trajectory(problem, x0, h, t_end, divergence_guard=1e12):
    """Time-stamped trajectory of the discretized sweeping dynamics.

    States are reported at t_k = k h and generated by the modified
    projection step, the discretization that is convergent for every
    bundled problem (the baseline moved-set step needs contractive v).
    """
    if not h > 0:
        raise ValueError("h must be positive")
    if t_end < h:
        raise ValueError("t_end must be at least h")
    steps = int(round(t_end / h))
    x = np.asarray(x0, float)
    xs = [x.copy()]
    diverged = False
    for _ in range(steps):
        try:
            x = alg1_step(problem, x, h)
        except (NoConvergence, BracketingFailure):
            diverged = True
            break
        xs.append(x.copy())
        norm_x = _norm(x)  # NaN or inf when x is not finite
        if not math.isfinite(norm_x) or norm_x > divergence_guard:
            diverged = True
            break
    xs = np.asarray(xs)
    ts = h * np.arange(len(xs))
    return SweepResult(ts=ts, xs=xs, diverged=diverged)


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


def fit_decay_rate(residuals, h):
    """Continuous-time decay exponent: minus the fitted slope divided by h."""
    if not h > 0:
        raise ValueError("h must be positive")
    slope, _, _ = loglinear_fit(residuals)
    return -slope / h
