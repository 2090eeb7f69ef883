import dataclasses
import json
import math
import re
import tracemalloc
from collections import deque
from pathlib import Path

import numpy as np
import pytest
from numpy.linalg import norm

from qvikit import analysis, inverse, solvers
from qvikit.errors import ConfigError, DiagnosticsError, SingularLinearPart
from qvikit.inverse import LinearExact, Semilinear
from qvikit.model import (
    Box,
    Constant,
    IdMinus,
    ProblemConstants,
    QviProblem,
    VectorField,
    WholeSpace,
    natural_residual,
    project,
)
from qvikit.solvers import (
    GAMMA_SAFETY,
    LIP_SAFETY,
    SolverConfig,
    ZeroMap,
    alg1_step,
    auto_step,
    catching_up_step,
    fit_linear_rate,
    loglinear_fit,
    rate_bounds,
    resolve_constant,
    solve_alg1,
    solve_catchup,
    solve_tseng,
    solve_zero,
    sweep_trajectory,
    tseng_auto_step,
    zero_step,
)
from qvikit.analysis import (
    SamplingPlan,
    operator_norm,
    pair_modulus_linear,
    sample_lipschitz,
    sample_pair_modulus,
)
from qvikit.model import FuncField
from qvikit.problems import dumps_problem, get_builtin, loads_problem


def _declared(dim, gamma, L):
    v = VectorField.zero(dim)
    return QviProblem(
        "t", dim, VectorField.zero(dim), LinearExact(v), WholeSpace(dim),
        ProblemConstants(gamma=Constant(gamma, "declared"),
                         L=Constant(L, "declared")),
    )


def _zero_v_problem(f, cset):
    v = VectorField.zero(cset.dim)
    return QviProblem("t", cset.dim, f, LinearExact(v), cset)


ROTATION = _zero_v_problem(VectorField.from_exprs(["-x2", "x1"], 2),
                           Box([-1.0, -1.0], [1.0, 1.0]))


def test_auto_step_from_declared_constants():
    assert auto_step(_declared(1, 1.0, 1.0)) == 1.0
    assert auto_step(_declared(1, 2.0, 2.0)) == 0.5


def test_auto_step_sampled_regression(ex1):
    assert auto_step(ex1) == pytest.approx(0.031025305967294112, rel=1e-9)


def test_auto_step_matches_safety_factored_estimates(ex1):
    plan = SamplingPlan(seed=0)
    w = FuncField(2, lambda x: x - ex1.v(x))
    want = (GAMMA_SAFETY * sample_pair_modulus(ex1.f, w, plan)) \
        / (LIP_SAFETY * sample_lipschitz(ex1.f, plan)) ** 2
    assert auto_step(ex1, plan) == want


def test_auto_step_rejects_nonmonotone():
    # The rotation's sampled gamma is 0 up to rounding.
    with pytest.raises(ConfigError, match=r"^h: the auto step gamma / L\^2 is not positive and "
                       r"finite at gamma = -?[0-9.e-]+, L = 1\.1[0-9]*$"):
        auto_step(ROTATION)


def test_an_auto_step_that_overflows_or_is_not_positive_is_refused(ex1):
    # One rule for both steps: h names its formula and constants, whether the
    # formula overflows (L**2), divides by zero, or rounds to 0.
    huge = ProblemConstants(L=Constant(1e200, "declared"), l_tilde=Constant(1e200, "declared"))
    problem = dataclasses.replace(ex1, constants=huge)
    with pytest.raises(ConfigError, match=r"^h: the auto step gamma / L\^2 is not positive and "
                       r"finite at gamma = [0-9.e-]+, L = 1e\+200$"):
        auto_step(problem)
    with pytest.raises(ConfigError, match=r"^h: the auto step 0\.9 / \(L l_tilde\) is not "
                       r"positive and finite at L = 1e\+200, l_tilde = 1e\+200$"):
        tseng_auto_step(problem)
    zero = _zero_v_problem(VectorField.zero(2), WholeSpace(2))  # gamma = L = 0
    with pytest.raises(ConfigError, match=r"at gamma = 0\.0, L = 0\.0$"):
        auto_step(zero)


def test_rate_bounds_closed_form():
    assert rate_bounds(1.0, 1.0, 0.0, 1.0) == (0.0, 0.0)
    rho, kappa = rate_bounds(2.0 / 9.0, 4.0 / 3.0, 7.0 / 3.0, 1.5)
    assert rho == pytest.approx(np.sqrt(1.0 - 1.0 / 400.0), abs=1e-15)
    assert rho <= kappa


@pytest.mark.parametrize("gamma,l,needle", [
    (-1.0, 0.0, "gamma must be positive"), (-0.5, 0.0, "gamma must be positive"),
    (0.0, 0.0, "gamma must be positive"), (1.0, -0.5, "l must be nonnegative")])
def test_rate_bounds_reject_a_pair_that_is_not_strongly_monotone(gamma, l, needle):
    # A gamma <= 0 once gave a rate, (0.0, 0.0) for gamma = -1: instant
    # convergence for a pair that is not monotone.
    with pytest.raises(ValueError, match=needle):
        rate_bounds(gamma, 1.0, l, 1.0)


def test_rate_bounds_ordering(ex1):
    plan = SamplingPlan(seed=0)
    w = FuncField(2, lambda x: x - ex1.v(x))
    gamma = GAMMA_SAFETY * sample_pair_modulus(ex1.f, w, plan)
    L = LIP_SAFETY * sample_lipschitz(ex1.f, plan)
    l, _ = resolve_constant(ex1, "l")
    lt, _ = resolve_constant(ex1, "l_tilde")
    rho, kappa = rate_bounds(gamma, L, l, lt)
    assert 0.0 < rho < 1.0 and 0.0 < kappa < 1.0
    assert lt * (1.0 + l) ** 2 >= 1.0
    assert rho <= kappa


def test_rate_bounds_rejects_inconsistent_constants():
    with pytest.raises(ValueError):
        rate_bounds(2.0, 1.0, 0.0, 1.0)


def test_alg1_step_scalar_hand_value(r5):
    # f vanishes at 0, so the step from 0 does not depend on h.
    steps = [alg1_step(r5, np.zeros(1), h) for h in (0.01, 0.5, 1.0)]
    for s in steps:
        assert s[0] == pytest.approx(-0.3168, abs=1e-3)
        assert s[0] == steps[0][0]


def test_alg1_step_fixed_points(ex1, ex2, ex3, r5,
                                ex1_solution, ex2_solution, ex3_solution,
                                r5_solution):
    cases = [(ex1, ex1_solution), (ex2, ex2_solution),
             (ex3, ex3_solution), (r5, r5_solution)]
    for problem, xstar in cases:
        for h in (0.01, 0.1, 1.0):
            assert norm(alg1_step(problem, xstar, h) - xstar) <= 1e-8


def test_alg1_step_reduces_to_explicit_update():
    f = VectorField.from_matrix([[1.0, 0.0], [0.0, 2.0]])
    p = _zero_v_problem(f, WholeSpace(2))
    x = np.array([0.5, 1.5])
    assert np.array_equal(alg1_step(p, x, 0.25), x - 0.25 * f(x))


def test_alg1_step_rejects_bad_h(r5):
    with pytest.raises(ValueError):
        alg1_step(r5, np.zeros(1), 0.0)


def test_solve_example1(ex1):
    report = solve_alg1(ex1, np.array([6.0, 2.0]), SolverConfig(h=0.01))
    assert report.converged and not report.diverged
    assert report.residual_final <= 1e-8
    assert report.h_used == 0.01
    assert np.allclose(report.x_final, [-0.3785, 0.1870], atol=1e-3)
    assert report.iterations <= 700


def test_solve_example2(ex2):
    report = solve_alg1(ex2, np.array([43.0, 22.0, 55.0]), SolverConfig(h=0.3))
    assert report.converged
    assert np.allclose(report.x_final, [-0.1249, 0.1025, -0.0469], atol=1e-3)
    assert report.iterations <= 166


def test_solve_example3_settles_at_interior_zero(ex3):
    report = solve_alg1(ex3, np.array([5.0, 4.0, 2.0]), SolverConfig(h=0.3))
    assert report.converged
    assert report.iterations <= 220
    # The endpoint is the zero of f, interior to the moved set.
    assert np.allclose(report.x_final,
                       [-0.09306408, 0.08156094, -0.05545808], atol=1e-5)
    assert norm(ex3.f(report.x_final)) <= 1e-6


def test_solve_hits_iteration_cap(ex1):
    report = solve_alg1(ex1, np.array([6.0, 2.0]),
                        SolverConfig(h=0.01, max_iter=5))
    assert not report.converged and not report.diverged
    assert report.iterations == 5


def test_solve_report_recording(ex2):
    config, iterates = SolverConfig(h=0.3), []
    report = solve_alg1(ex2, np.array([43.0, 22.0, 55.0]), config,
                        on_step=iterates.append)
    assert len(report.residuals) == report.iterations + 1
    assert len(iterates) == report.iterations + 1
    assert np.array_equal(iterates[-1], report.x_final)
    assert report.residuals[-1] == report.residual_final
    assert 0.0 < report.rate_estimate < 1.0
    assert report.converged and report.residual_final <= config.tol


def test_a_solve_keeps_every_residual_and_no_iterate_by_default(ex2):
    report = solve_alg1(ex2, np.array([43.0, 22.0, 55.0]), SolverConfig(h=0.3))
    kept = solve_alg1(ex2, np.array([43.0, 22.0, 55.0]), SolverConfig(h=0.3),
                      on_step=[].append)
    assert not hasattr(report, "iterates")
    assert report.residuals == kept.residuals
    assert len(report.residuals) == report.iterations + 1
    assert report.rate_estimate.hex() == fit_linear_rate(report.residuals).hex()


def reference_stop(residuals, tol, max_iter):
    """The engine's residual tests as they ran on a 101-slot window, for a
    run whose iterates stay bounded: (converged, diverged, iterations)."""
    window = deque(maxlen=101)
    for n, r in enumerate(residuals):
        if r <= tol:
            return True, False, n
        window.append(r)
        if not math.isfinite(r) or (len(window) == window.maxlen
                                    and window[-1] > 10.0 * window[0]):
            return False, True, n
        if n >= max_iter:
            return False, False, n
    raise AssertionError("the scripted residuals ran out")


_TENFOLD = 10.0 * 0.3
_DECAY = [0.9 ** k for k in range(150)]
STOP_CASES = {
    "tenfold": ([0.3] * 100 + [_TENFOLD, 0.2, 0.0], (True, False, 102)),
    "one-ulp-above": ([0.3] * 100 + [math.nextafter(_TENFOLD, math.inf), 0.0],
                      (False, True, 100)),
    "cap-before-an-inf": ([0.3] * 99 + [math.inf], (False, False, 98)),
    "later-tenfold": (_DECAY + [10.0 * _DECAY[50], 0.0], (True, False, 151)),
    "later-one-ulp-above": (_DECAY + [math.nextafter(10.0 * _DECAY[50], math.inf)],
                            (False, True, 150)),
    "nan": ([0.3, math.nan], (False, True, 1)),
}


@pytest.mark.parametrize("case", STOP_CASES)
def test_the_divergence_test_reads_the_residual_history_as_the_window_did(case):
    residuals, expected = STOP_CASES[case]
    max_iter = 98 if case == "cap-before-an-inf" else 10_000

    def probe(x):
        return x, residuals[int(x[0])], lambda: x + 1.0
    report = solvers._run(np.zeros(1), probe,
                          SolverConfig(h=1.0, tol=1e-12, max_iter=max_iter), 1.0)
    got = (report.converged, report.diverged, report.iterations)
    assert got == reference_stop(residuals, 1e-12, max_iter) == expected
    assert report.residuals == residuals[:report.iterations + 1]


def test_the_divergence_guard_decides_by_the_exact_norm():
    # A thousand squares of about half an ulp of a^2 each round the dot product
    # up: math.hypot reads this iterate below the guard and _norm above it.
    x = np.array([999999999999.9434] + [math.sqrt(0.51) * 2.0 ** -26 * 1e12] * 999)
    assert math.hypot(*x) < solvers._DIVERGENCE_GUARD < math.sqrt(x.dot(x))
    report = solvers._run(x, lambda x: (x, None, lambda: x), SolverConfig(h=1.0, max_iter=1), 1.0)
    assert report.diverged and report.iterations == 0


def test_the_readme_library_block_runs():
    # Every python block of the section, each in a fresh namespace.
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    library = readme.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", library, re.S)
    assert len(blocks) == 2
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})


def test_catching_up_step_agrees_without_displacement():
    f = VectorField.from_matrix([[1.0, 0.0], [0.0, 2.0]])
    p = _zero_v_problem(f, Box([0.0, 0.0], [1.0, 1.0]))
    x = np.array([0.5, 0.9])
    assert np.array_equal(catching_up_step(p, x, 0.3), alg1_step(p, x, 0.3))


def test_catchup_diverges_on_expansive_displacement(ex2):
    report = solve_catchup(ex2, np.array([43.0, 22.0, 55.0]),
                           SolverConfig(h=0.3, max_iter=10_000))
    assert report.diverged and not report.converged
    assert report.iterations < 10_000


def test_catchup_stationary_at_solution(r5, r5_solution):
    moved = catching_up_step(r5, r5_solution, 0.5)
    assert norm(moved - r5_solution) <= 1e-10


def test_tseng_rotation_field():
    report = solve_tseng(ROTATION, np.array([1.0, 1.0]), SolverConfig(h=0.3))
    assert report.converged
    assert norm(report.x_final) <= 1e-6
    assert report.iterations <= 1000


def test_tseng_agrees_with_alg1(ex1, ex2, ex3, r5,
                                ex1_solution, ex2_solution, ex3_solution,
                                r5_solution):
    cases = [
        (ex1, [6.0, 2.0], ex1_solution),
        (ex2, [43.0, 22.0, 55.0], ex2_solution),
        (ex3, [5.0, 4.0, 2.0], ex3_solution),
        (r5, [0.5], r5_solution),
    ]
    for problem, x0, xstar in cases:
        report = solve_tseng(problem, np.array(x0))
        assert report.converged
        assert norm(report.x_final - xstar) <= 1e-6


@pytest.mark.parametrize("literal", [False, True])
@pytest.mark.parametrize("case", ["example1", "example2", "example3", "remark5"])
def test_tseng_residuals_are_the_natural_residual_bit_for_bit(case, literal, request):
    # Tseng stops on |y - proj_C(y - h f(x))| at y = x - v(x) of its iterate
    # x, not at its own y-space iterate: natural_residual's bits each time.
    problem, x0, h = {"example1": ("ex1", [6.0, 2.0], 0.01),
                      "example2": ("ex2", [43.0, 22.0, 55.0], 0.01),
                      "example3": ("ex3", [5.0, 4.0, 2.0], 0.01),
                      "remark5": ("r5", [-7.0], 0.2)}[case]
    problem = request.getfixturevalue(problem)
    iterates = []
    report = solve_tseng(problem, x0, SolverConfig(h=h, max_iter=300), literal=literal,
                         on_step=lambda x: iterates.append(x.copy()))
    assert len(report.residuals) == len(iterates) >= 10
    assert list(map(float.hex, report.residuals)) == \
        [float.hex(natural_residual(problem, x, h)) for x in iterates]


def test_tseng_zero_iterations_at_solution(r5, r5_solution):
    report = solve_tseng(r5, r5_solution)
    assert report.converged
    assert report.iterations == 0


def test_tseng_literal_variant_reports(ex1):
    report = solve_tseng(ex1, np.array([6.0, 2.0]),
                         SolverConfig(h=0.01, max_iter=2000), literal=True)
    assert report.iterations >= 1
    assert isinstance(report.diverged, bool)


def test_tseng_auto_step_uses_declared_constants(r5):
    # L is declared; l_tilde is sampled on demand.
    want = 0.9 / (resolve_constant(r5, "L")[0] * resolve_constant(r5, "l_tilde")[0])
    assert tseng_auto_step(r5) == want


def test_zero_solver_bundled_problem(ex4):
    report = solve_zero(ex4.f, ex4.w, np.array([1e4, 2e4, 3e4]),
                        SolverConfig(h=1.0, tol=1e-10, max_iter=36))
    assert report.converged
    assert report.iterations <= 36
    assert norm(ex4.f(report.x_final)) <= 1e-10
    assert np.allclose(report.x_final, [-0.0931, 0.0816, -0.0555], atol=1e-3)


def test_zero_solver_evaluates_f_once_per_iterate(ex4):
    # The step takes the f(x) whose norm the stopping test measured; a step
    # given no value evaluates f itself, with the same bits.
    f = _Counting(ex4.f)
    x0 = np.array([1e4, 2e4, 3e4])
    report = solve_zero(f, ex4.w, x0, SolverConfig(h=1.0, tol=1e-10))
    assert report.converged and report.iterations == 13
    assert f.calls == report.iterations + 1
    assert zero_step(f, ex4.w, x0, 1.0, fx=ex4.f(x0)).tobytes() == \
        zero_step(ex4.f, ex4.w, x0, 1.0).tobytes()
    assert f.calls == report.iterations + 1


def test_zero_solver_identity_one_step():
    f = VectorField.from_matrix(np.eye(1))
    w = ZeroMap.from_matrix(np.eye(1))
    report = solve_zero(f, w, np.array([7.5]))
    assert report.converged
    assert report.iterations == 1
    assert report.x_final[0] == 0.0


def test_zero_step_fast_path_matches_generic(ex4):
    # The generic step w^{-1}(w(x) - h f(x)) for w(x) = A x.
    A = ex4.w.matrix
    rng = np.random.default_rng(9)
    for _ in range(200):
        x = rng.uniform(-10, 10, 3)
        generic = np.linalg.solve(A, A @ x - 0.7 * ex4.f(x))
        assert norm(zero_step(ex4.f, ex4.w, x, 0.7) - generic) <= 1e-12


def test_zero_solver_contraction_ratios(ex4, ex4_solution):
    a_inv = 1.0 / np.linalg.svd(ex4.w.matrix, compute_uv=False).min()
    g = VectorField(3, remainder=ex4.f.remainder)
    lg_hat = sample_lipschitz(g, SamplingPlan(seed=0))
    alpha = a_inv * lg_hat
    assert alpha < 1.0
    iterates = []
    solve_zero(ex4.f, ex4.w, np.array([1e4, 2e4, 3e4]),
               SolverConfig(h=1.0, tol=1e-10), on_step=iterates.append)
    errs = [norm(x - ex4_solution) for x in iterates]
    for prev, cur in zip(errs, errs[1:]):
        if prev > 1e-13:
            assert cur / prev <= 1.0 - 1.0 * (1.0 - alpha) + 1e-9


def test_zero_map_rejects_singular_matrix():
    with pytest.raises(SingularLinearPart):
        ZeroMap.from_matrix([[1.0, 1.0], [1.0, 1.0]])


def test_y_space_domination_and_monotonicity(ex1, ex1_solution):
    h, iterates = auto_step(ex1), []
    report = solve_alg1(ex1, np.array([6.0, 2.0]), SolverConfig(h=h),
                        on_step=iterates.append)
    assert report.converged
    plan = SamplingPlan(seed=0)
    w = FuncField(2, lambda x: x - ex1.v(x))
    gamma = GAMMA_SAFETY * sample_pair_modulus(ex1.f, w, plan)
    L = LIP_SAFETY * sample_lipschitz(ex1.f, plan)
    l, _ = resolve_constant(ex1, "l")
    lt, _ = resolve_constant(ex1, "l_tilde")
    rho, _ = rate_bounds(gamma, L, l, lt)
    ystar = ex1_solution - ex1.v(ex1_solution)
    errs = np.array([norm(x - ex1.v(x) - ystar) for x in iterates])
    bound = lt * (1.0 + l) * errs[0] * rho ** np.arange(len(errs))
    assert np.all(errs <= bound * (1.0 + 1e-6))
    assert np.all(errs[1:] <= errs[:-1] * (1.0 + 1e-15))


def test_two_starts_agree(ex1):
    config = SolverConfig(h=0.01)
    a = solve_alg1(ex1, np.array([6.0, 2.0]), config)
    b = solve_alg1(ex1, np.array([-1.0, 1.0]), config)
    assert a.converged and b.converged
    assert norm(a.x_final - b.x_final) <= 1e-6


def test_sweep_scalar_terminal_state(r5):
    result = sweep_trajectory(r5, np.array([0.5]), 0.01, 20.0)
    assert not result.diverged
    assert len(result.ts) == 2001
    assert result.ts[1] == 0.01 and result.ts[-1] == pytest.approx(20.0)
    assert abs(result.xs[-1, 0] - (-0.3168)) <= 1e-2
    assert len(result.speeds) == len(result.ts) - 1


def test_sweep_terminal_state_example1(ex1, ex1_solution):
    result = sweep_trajectory(ex1, np.array([6.0, 2.0]), 0.01, 10.0)
    assert not result.diverged
    assert norm(result.xs[-1] - ex1_solution) <= 1e-2


def test_sweep_constant_for_zero_field():
    p = _zero_v_problem(VectorField.zero(2), Box([-1.0, -1.0], [1.0, 1.0]))
    x0 = np.array([0.25, -0.5])
    result = sweep_trajectory(p, x0, 0.1, 1.0)
    assert all(np.array_equal(row, x0) for row in result.xs)
    assert np.all(result.speeds == 0.0)


def test_a_sweep_over_the_step_cap_is_refused_before_it_runs(ex1, monkeypatch):
    class Ran(Exception):
        pass

    def run(state0, probe, config, h, on_step):  # records the step count, runs nothing
        raise Ran(config.max_iter)
    monkeypatch.setattr(solvers, "_run", run)
    with pytest.raises(ValueError) as info:
        sweep_trajectory(ex1, [6.0, 2.0], 1.0, 10**6 + 1)
    assert str(info.value) == ("a sweep of 1000001 steps (t_end / h) exceeds the cap "
                               "of 1000000 steps")
    with pytest.raises(Ran) as ran:  # at the cap, the sweep would run
        sweep_trajectory(ex1, [6.0, 2.0], 1.0, 10**6)
    assert ran.value.args == (10**6,)


def test_a_sweep_keeps_its_states_in_one_float_array(ex1):
    sweep_trajectory(ex1, [6.0, 2.0], 0.01, 1.0)  # one-time caches fill here, not below
    tracemalloc.start()
    try:
        result = sweep_trajectory(ex1, (6.0, 2.0), 0.01, 100.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.xs.shape == (10_001, 2) and not result.diverged
    assert peak / 10_000 <= 64  # bytes per step; the states alone take 16


def test_a_sweep_steps_by_alg1_step_row_by_row(ex1):
    result = sweep_trajectory(ex1, [6.0, 2.0], 0.01, 0.5)
    x = np.array([6.0, 2.0])
    for row in result.xs:
        assert row.tobytes() == x.tobytes()
        x = alg1_step(ex1, x, 0.01)
    assert result.ts.tobytes() == (0.01 * np.arange(51)).tobytes()


def test_a_diverged_sweep_keeps_the_states_it_reached():
    p = _zero_v_problem(VectorField.from_matrix([[-1.0]]), WholeSpace(1))
    result = sweep_trajectory(p, [1.0], 1.0, 100.0)  # x doubles each step
    assert result.diverged
    assert result.xs.shape == (41, 1)
    assert result.xs[:, 0].tolist() == [2.0**k for k in range(41)]
    assert len(result.ts) == 41


def _report_bits(report):
    return {name: value.tobytes() if isinstance(value, np.ndarray) else repr(value)
            for name, value in vars(report).items()}


OBSERVED_RUNS = {  # case: (run, x0)
    "alg1.example1": (lambda p, x0, **kw: solve_alg1(p["ex1"], x0, SolverConfig(h=0.01), **kw),
                      [6.0, 2.0]),
    "alg1.example1-max-iter": (lambda p, x0, **kw: solve_alg1(
        p["ex1"], x0, SolverConfig(h=0.01, max_iter=5), **kw), [6.0, 2.0]),
    "alg1.example3": (lambda p, x0, **kw: solve_alg1(p["ex3"], x0, SolverConfig(h=0.3), **kw),
                      [5.0, 4.0, 2.0]),
    "alg1.remark5": (lambda p, x0, **kw: solve_alg1(p["r5"], x0, SolverConfig(h=0.5), **kw),
                     [0.5]),
    "catchup.example2-diverged": (lambda p, x0, **kw: solve_catchup(
        p["ex2"], x0, SolverConfig(h=0.3), **kw), [43.0, 22.0, 55.0]),
    "tseng.example1": (lambda p, x0, **kw: solve_tseng(p["ex1"], x0, SolverConfig(h=0.01), **kw),
                       [6.0, 2.0]),
    "tseng.example1-literal": (lambda p, x0, **kw: solve_tseng(
        p["ex1"], x0, SolverConfig(h=0.01), literal=True, **kw), [6.0, 2.0]),
    "zero.example4": (lambda p, x0, **kw: solve_zero(
        p["ex4"].f, p["ex4"].w, x0, SolverConfig(h=1.0, tol=1e-10), **kw), [1e4, 2e4, 3e4]),
}


@pytest.mark.parametrize("case", OBSERVED_RUNS)
def test_on_step_sees_each_iterate_once_and_changes_no_bit(case, ex1, ex2, ex3, ex4, r5):
    problems = {"ex1": ex1, "ex2": ex2, "ex3": ex3, "ex4": ex4, "r5": r5}
    run, x0 = OBSERVED_RUNS[case][0], np.array(OBSERVED_RUNS[case][1])
    seen, copies = [], []

    def on_step(x):
        seen.append(x)
        copies.append(x.copy())
    report = run(problems, x0, on_step=on_step)
    plain = run(problems, x0.copy())
    assert _report_bits(report) == _report_bits(plain)
    assert "iterates" not in vars(report)
    assert len(seen) == report.iterations + 1
    assert seen[0] is x0  # the iterates themselves, x0 first
    assert seen[-1].tobytes() == report.x_final.tobytes()
    # Nothing changes an iterate after the hook has seen it.
    assert all(x.tobytes() == c.tobytes() for x, c in zip(seen, copies))


def test_sweep_decay_rate_scalar(r5):
    # From 0.5 the very first step lands on the solution, leaving nothing to
    # fit; a start further out decays gradually enough for a rate estimate.
    result = sweep_trajectory(r5, np.array([-2.0]), 0.01, 20.0)
    speeds = result.speeds
    slope, r2, _ = loglinear_fit(speeds)
    assert slope < 0.0
    assert r2 >= 0.9


def test_sweep_decay_rate_example1(ex1):
    result = sweep_trajectory(ex1, np.array([6.0, 2.0]), 0.01, 10.0)
    slope, r2, _ = loglinear_fit(result.speeds)
    assert r2 >= 0.9
    assert -slope / 0.01 > 0.0


def test_sweep_validation(r5):
    with pytest.raises(ValueError):
        sweep_trajectory(r5, np.zeros(1), 0.0, 1.0)
    with pytest.raises(ValueError):
        sweep_trajectory(r5, np.zeros(1), 0.5, 0.25)


def test_loglinear_fit_exact_geometric():
    values = 0.5 ** np.arange(30)
    slope, r2, n_used = loglinear_fit(values)
    assert np.exp(slope) == pytest.approx(0.5, abs=1e-12)
    assert r2 >= 1.0 - 1e-9
    assert n_used == 30
    assert fit_linear_rate(values) == pytest.approx(0.5, abs=1e-12)


def test_loglinear_fit_discards_floor_tail():
    values = 10.0 ** -np.arange(20.0)
    _, _, n_used = loglinear_fit(values)
    assert n_used == 14


def test_loglinear_fit_needs_five_points():
    with pytest.raises(DiagnosticsError):
        loglinear_fit([1.0, 0.5, 0.25])
    with pytest.raises(DiagnosticsError):
        loglinear_fit(np.full(10, 1e-20))


def test_fit_linear_rate_capped_at_one():
    values = 2.0 ** np.arange(10)
    assert fit_linear_rate(values) == 1.0


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(h=0.0)
    with pytest.raises(ValueError):
        SolverConfig(tol=0.0)
    with pytest.raises(ValueError):
        SolverConfig(max_iter=0)
    for kwargs in ({"h": math.inf}, {"tol": math.inf}, {"h": math.nan},
                   {"tol": math.nan}, {"h": -math.inf}):
        with pytest.raises(ValueError, match="must be positive and finite"):
            SolverConfig(**kwargs)
    assert [f.name for f in dataclasses.fields(SolverConfig)] == ["h", "tol", "max_iter"]


def test_natural_residual_consistent_with_reports(ex2):
    report = solve_alg1(ex2, np.array([43.0, 22.0, 55.0]), SolverConfig(h=0.3))
    assert report.residual_final == pytest.approx(
        natural_residual(ex2, report.x_final, 0.3), abs=1e-15)


# Iteration counts and endpoints (float.hex) from the README start points,
# recorded before the solver hot path was rewritten. Any change to the order
# of floating-point operations in a step moves at least one of these bits.
BIT_PINS = {
    "alg1.example1": (687, ("-0x1.839fdb19d15a2p-2", "0x1.7f07574d675dcp-3")),
    "alg1.example1-picard": (687, ("-0x1.839fdb1998c0ep-2", "0x1.7f07574dcd6a6p-3")),
    "alg1.example2": (144, ("-0x1.ffc183b667e81p-4", "0x1.a3b38349c0519p-4",
                            "-0x1.80639b12ba1a4p-5")),
    "alg1.example3": (143, ("-0x1.7d30c2e45161bp-4", "0x1.4e12d8a89a628p-4",
                            "-0x1.c6500297cf105p-5")),
    "alg1.remark5": (1, ("-0x1.445a544a3a000p-2",)),
    "tseng.example1": (705, ("-0x1.839fda04d7d56p-2", "0x1.7f07533b84411p-3")),
    # The literal variant diverges here; where it stops still pins its update's bits.
    "tseng-literal.example1": (2696, ("0x1.6576a94042138p+5", "0x1.3cad66b36b7f1p+3")),
    "zero.example4": (13, ("-0x1.7d30c20d22419p-4", "0x1.4e12d88b6738cp-4",
                           "-0x1.c65007085b4a1p-5")),
    "sweep.example1": (1000, ("-0x1.839fc5ab00958p-2", "0x1.7f074e99d61a4p-3")),
}


def _picard_example1(ex1):
    doc = json.loads(dumps_problem(ex1))
    doc["inverse"].update(strategy="picard", l=0.85)
    return loads_problem(json.dumps(doc))


def _bit_pin_run(case, ex1, ex2, ex3, ex4, r5):
    if case == "tseng.example1":
        r = solve_tseng(ex1, [6.0, 2.0], SolverConfig(h=0.01))
    elif case == "tseng-literal.example1":
        r = solve_tseng(ex1, [6.0, 2.0], SolverConfig(h=0.01), literal=True)
    elif case == "zero.example4":
        r = solve_zero(ex4.f, ex4.w, [1e4, 2e4, 3e4], SolverConfig(h=1.0, tol=1e-10))
    elif case == "sweep.example1":
        s = sweep_trajectory(ex1, [6.0, 2.0], 0.01, 10.0)
        return len(s.xs) - 1, s.xs[-1]
    else:
        problem, x0, h = {
            "alg1.example1": (ex1, [6.0, 2.0], 0.01),
            "alg1.example1-picard": (_picard_example1(ex1), [6.0, 2.0], 0.01),
            "alg1.example2": (ex2, [43.0, 22.0, 55.0], 0.3),
            "alg1.example3": (ex3, [5.0, 4.0, 2.0], 0.3),
            "alg1.remark5": (r5, [0.5], 0.5),
        }[case]
        r = solve_alg1(problem, x0, SolverConfig(h=h))
    return r.iterations, r.x_final


@pytest.mark.parametrize("case", sorted(BIT_PINS))
def test_solver_results_bit_for_bit(case, ex1, ex2, ex3, ex4, r5):
    iterations, x_final = _bit_pin_run(case, ex1, ex2, ex3, ex4, r5)
    assert (iterations, tuple(float(v).hex() for v in x_final)) == BIT_PINS[case]


def test_picard_inverts_of_a_solve_screen_once_each(ex1, monkeypatch):
    # Each invert's first chunk is as long as the previous invert's loop, so
    # it mostly holds the stop: one screen, not a probe chunk and a second.
    problem = _picard_example1(ex1)
    spec, calls, screens = problem.inverse, [], []
    first_stop, invert = inverse._first_stop, type(problem.inverse).invert

    def counted(*args):
        screens.append(args)
        return first_stop(*args)

    def logged(y, inner_log=None):
        calls.append(y)
        return invert(spec, y, inner_log)
    monkeypatch.setattr(inverse, "_first_stop", counted)
    monkeypatch.setattr(spec, "invert", logged, raising=False)
    report = solve_alg1(problem, [6.0, 2.0], SolverConfig(h=0.01))
    assert report.iterations == BIT_PINS["alg1.example1-picard"][0]
    assert len(calls) > 600
    assert len(screens) <= 1.1 * len(calls)


@pytest.mark.parametrize("case", ["example1-picard", "remainder"])
def test_picard_chunks_of_a_solve_compute_few_rows_past_the_stops(case, ex1, monkeypatch):
    # Rows every chunk computes, against the steps the loops needed (their
    # logs): a missed first chunk costs at most a short chunk past the stop.
    # Doubling from the missed chunk's length instead computes some 4 % and
    # 11 % more than the steps.
    if case == "remainder":
        problem = loads_problem(
            Path(__file__).with_name("example1-picard-remainder.json").read_text(encoding="utf-8"))
    else:
        problem = _picard_example1(ex1)
    spec, rows, steps = problem.inverse, [], []
    first_stop, invert = inverse._first_stop, type(problem.inverse).invert

    def counted(X, tol, inner_log):
        rows.append(len(X) - 1)
        return first_stop(X, tol, inner_log)

    def logged(y, inner_log=None):
        log = []
        x = invert(spec, y, log)
        steps.append(len(log))
        return x
    monkeypatch.setattr(inverse, "_first_stop", counted)
    monkeypatch.setattr(spec, "invert", logged, raising=False)
    report = solve_alg1(problem, [6.0, 2.0], SolverConfig(h=0.01))
    assert report.converged and len(steps) > 600
    assert sum(rows) <= 1.01 * sum(steps)


class _Counting:
    """A field that counts its calls."""

    def __init__(self, field):
        self.field, self.dim, self.calls = field, field.dim, 0

    def __call__(self, x):
        self.calls += 1
        return self.field(x)


def _counted(problem):
    """``problem`` with its f counted; its v is the inverse's, counted by _v_evaluations."""
    return dataclasses.replace(problem, f=_Counting(problem.f))


def _v_evaluations(target, run, monkeypatch):
    """``run()``'s report, the calls of the field ``target`` and the checks of
    an inverse, each of which evaluates v at the x it returns."""
    calls, checks = [], []
    call, verify = VectorField.__call__, inverse._verify
    monkeypatch.setattr(VectorField, "__call__", lambda field, x: (
        calls.append(1) if field is target else None) or call(field, x))
    monkeypatch.setattr(inverse, "_verify", lambda *args: checks.append(1) or verify(*args))
    report = run()
    monkeypatch.undo()
    return report, len(calls), len(checks)


def test_alg1_evaluates_f_and_v_once_per_iterate(ex1, monkeypatch):
    problem = _counted(ex1)
    report, calls, checks = _v_evaluations(
        problem.v, lambda: solve_alg1(problem, [6.0, 2.0], SolverConfig(h=0.01)), monkeypatch)
    assert report.converged and report.iterations == 687
    assert problem.f.calls == calls + checks == report.iterations + 1


def test_tseng_evaluates_v_once_per_iterate(ex1, monkeypatch):
    # Once at x0, then in the check of each of a step's two inverts.
    problem = _counted(ex1)
    report, calls, checks = _v_evaluations(
        problem.v, lambda: solve_tseng(problem, [6.0, 2.0], SolverConfig(h=0.01)), monkeypatch)
    assert report.converged
    assert (calls, checks) == (1, 2 * report.iterations)
    assert problem.f.calls == 2 * report.iterations + 1


def _bits(report):
    return (report.iterations, report.x_final.tobytes(),
            [float.hex(r) for r in report.residuals])


def _reference_bits(name, problem, x0, h, max_iter=10_000, tol=1e-8):
    """The ``_bits`` of a solve written out as a loop that evaluates v afresh at
    every iterate: ``alg1_step`` with no ``y``, or Tseng's update in numpy."""
    x, residuals = np.asarray(x0, float), []
    y = x - problem.v(x)
    while True:
        residuals.append(natural_residual(problem, x, h))
        if residuals[-1] <= tol or len(residuals) > max_iter:
            break
        if name == "alg1":
            x = alg1_step(problem, x, h)
            continue
        fx = problem.f(x)
        ybar = project(problem.set, y - h * fx)
        y = ybar - h * (problem.f(inverse.invert(problem.inverse, ybar)) - fx)
        x = inverse.invert(problem.inverse, y)
    return len(residuals) - 1, x.tobytes(), [float.hex(r) for r in residuals]


@pytest.mark.parametrize("case", ["alg1.example1", "alg1.example1-picard", "alg1.example3",
                                  "tseng.example1", "tseng.example1-picard",
                                  "tseng.example3"])
def test_solves_evaluate_v_once_per_accepted_iterate(case, ex1, ex3, monkeypatch):
    # The problem's v is called once, at x0; each later x - v(x) is the one
    # the check of the inverse that returned x computed, with the same bits.
    name, builtin = case.split(".")
    problem, x0, h = {"example1": (ex1, [6.0, 2.0], 0.01),
                      "example1-picard": (_picard_example1(ex1), [6.0, 2.0], 0.01),
                      "example3": (ex3, [5.0, 4.0, 2.0], 0.3)}[builtin]
    solve = {"alg1": solve_alg1, "tseng": solve_tseng}[name]
    report, calls, checks = _v_evaluations(
        problem.v, lambda: solve(problem, x0, SolverConfig(h=h)), monkeypatch)
    assert report.converged
    assert (calls, checks) == (1, (2 if name == "tseng" else 1) * report.iterations)
    # A loop that evaluates v at every iterate gives the same bits.
    assert _bits(report) == _reference_bits(name, problem, x0, h)
    if case in BIT_PINS:
        assert (report.iterations, tuple(map(float.hex, report.x_final.tolist()))) \
            == BIT_PINS[case]


def _other_field(case, ex1, ex3):
    """A builtin rebuilt over another v: half example1's matrix, or example3's
    remainder plus 0.001. The field the inverse inverts is the problem's v."""
    if case == "other-matrix":
        return (QviProblem("other", 2, ex1.f, LinearExact(
            VectorField.from_matrix(0.5 * ex1.v.matrix)), ex1.set), [6.0, 2.0], 0.01)
    return (QviProblem("other", 3, ex3.f, Semilinear(VectorField.from_matrix(
        ex3.v.matrix, ["0.6*cos(x2)^2", "0.5*sin(x1)", "0.7*sin(x3)^2 + 0.001"]), 1.05),
        ex3.set), [5.0, 4.0, 2.0], 0.3)


@pytest.mark.parametrize("case", ["example1", "example1-picard", "example3", "other-matrix"])
def test_a_sweep_evaluates_v_once_where_its_inverse_checks_v(case, ex1, ex3, monkeypatch):
    # Each step after the first takes its x - v(x) from the check of the
    # inverse that returned x, with the rows of alg1_step evaluating v afresh.
    problem, x0, h = {
        "example1": (ex1, [6.0, 2.0], 0.01),
        "example1-picard": (_picard_example1(ex1), [6.0, 2.0], 0.01),
        "example3": (ex3, [5.0, 4.0, 2.0], 0.3),
    }.get(case) or _other_field(case, ex1, ex3)
    result, calls, checks = _v_evaluations(
        problem.v, lambda: sweep_trajectory(problem, x0, h, 100 * h), monkeypatch)
    assert len(result.xs) == 101 and not result.diverged
    assert (calls, checks) == (1, 100)
    rows = [np.asarray(x0, float)]
    for _ in range(100):
        rows.append(alg1_step(problem, rows[-1], h))
    assert np.array(rows).tobytes() == result.xs.tobytes()


@pytest.mark.parametrize("value", [np.ones(3), np.ones((2, 1)), np.ones((2, 2))])
def test_an_f_of_the_wrong_shape_raises_in_each_alg1_path(ex1, value):
    # An f that is not a VectorField forms y - h f(x) in numpy: a value that
    # does not broadcast to the point, or broadcasts past it, raises.
    problem = dataclasses.replace(ex1, f=FuncField(2, lambda x: value))
    for run in (lambda: alg1_step(problem, [6.0, 2.0], 0.01),
                lambda: solve_alg1(problem, [6.0, 2.0], SolverConfig(h=0.01)),
                lambda: natural_residual(problem, [6.0, 2.0], 0.01),
                lambda: sweep_trajectory(problem, [6.0, 2.0], 0.01, 0.1),
                lambda: solve_tseng(problem, [6.0, 2.0], SolverConfig(h=0.01))):
        with pytest.raises(ValueError):
            run()


def test_a_scalar_f_broadcasts_in_each_alg1_path(ex1):
    # A 0-d value of f acts as that value in every coordinate, bit for bit.
    scalar, full = (dataclasses.replace(ex1, f=FuncField(2, fn))
                    for fn in (lambda x: 0.5 * x[0], lambda x: np.full(2, 0.5 * x[0])))
    for run in (lambda p: alg1_step(p, [6.0, 2.0], 0.01).tobytes(),
                lambda p: _report_bits(solve_alg1(p, [6.0, 2.0], SolverConfig(h=0.01))),
                lambda p: float.hex(natural_residual(p, [6.0, 2.0], 0.01)),
                lambda p: sweep_trajectory(p, [6.0, 2.0], 0.01, 0.1).xs.tobytes(),
                lambda p: _report_bits(solve_tseng(p, [6.0, 2.0], SolverConfig(h=0.01))),
                lambda p: _report_bits(solve_tseng(p, [6.0, 2.0], SolverConfig(h=0.01),
                                                   literal=True))):
        assert run(scalar) == run(full)


# Iterations, endpoint and last residual (float.hex) of 60-step runs that
# evaluated v at every iterate: recorded before each check's x - v(x) was
# reused, and before remark5's bracket had a check.
GUARD_PINS = {
    ("example3", "alg1"): (60, ("-0x1.7d10013864506p-4", "0x1.4ed4f9eb47bd4p-4",
                                "-0x1.bfa453290ded9p-5"), "0x1.409563dcdc116p-10"),
    ("example3", "tseng"): (60, ("-0x1.79d24b2e6f6a0p-4", "0x1.51a7d033a6e1ep-4",
                                 "-0x1.b2a3d57023148p-5"), "0x1.8d4c975d5f31ap-8"),
    ("remark5", "alg1"): (21, ("-0x1.445a544a3a000p-2",), "0x1.e4a8000000000p-41"),
    ("remark5", "tseng"): (31, ("-0x1.445a54b89e000p-2",), "0x1.e777bd0000000p-28"),
}


def _guard_bits(report):
    return (report.iterations, tuple(map(float.hex, report.x_final.tolist())),
            float.hex(report.residual_final))


@pytest.mark.parametrize("case,name", sorted(GUARD_PINS))
def test_a_guarded_solve_evaluates_v_once_with_the_bits_it_had(case, name, ex3, r5,
                                                               monkeypatch):
    # The solve steps on each check's x - v(x): v is called once, at x0, and
    # the results are the pinned ones of a loop that evaluates v afresh.
    problem, x0, h = {"example3": (ex3, [5.0, 4.0, 2.0], 0.3),
                      "remark5": (r5, [-7.0], 0.2)}[case]
    solve = {"alg1": solve_alg1, "tseng": solve_tseng}[name]
    report, calls, checks = _v_evaluations(
        problem.v, lambda: solve(problem, x0, SolverConfig(h=h, max_iter=60)), monkeypatch)
    assert (calls, checks) == (1, (2 if name == "tseng" else 1) * report.iterations)
    assert _guard_bits(report) == GUARD_PINS[case, name]
    assert _bits(report) == _reference_bits(name, problem, x0, h, max_iter=60)


@pytest.mark.parametrize("case", ["other-matrix", "other-remainder"])
@pytest.mark.parametrize("name", ["alg1", "tseng"])
def test_a_problem_over_another_field_solves_and_reloads_as_itself(case, name, ex1, ex3,
                                                                   monkeypatch):
    # A problem states v once, in its inverse, so one over another field steps
    # on its own checks with the bits of a loop evaluating v afresh, and its
    # dump reloads as the same problem: the same bits again.
    problem, x0, h = _other_field(case, ex1, ex3)
    assert problem.v is problem.inverse.v_map
    solve = {"alg1": solve_alg1, "tseng": solve_tseng}[name]
    config = SolverConfig(h=h, max_iter=60)
    report, calls, checks = _v_evaluations(
        problem.v, lambda: solve(problem, x0, config), monkeypatch)
    assert (calls, checks) == (1, (2 if name == "tseng" else 1) * report.iterations)
    assert _bits(report) == _reference_bits(name, problem, x0, h, max_iter=60)
    assert _bits(solve(loads_problem(dumps_problem(problem)), x0, config)) == _bits(report)


@pytest.mark.parametrize("builtin,name,source", [
    ("ex1", "l", "spectral"),
    ("ex1", "L", "sampled"),
    ("r5", "gamma", "declared"),
    ("r5", "l_tilde", "sampled"),
])
def test_resolve_constant_source_of_builtin_constants(builtin, name, source, request):
    problem = request.getfixturevalue(builtin)
    value, got = resolve_constant(problem, name, SamplingPlan(seed=0, count=200))
    assert got == source
    assert value > 0


def test_resolve_constant_without_a_plan_samples_nothing(ex1):
    assert resolve_constant(ex1, "L") == (None, None)
    assert resolve_constant(ex1, "l", stored=False) == (
        operator_norm(ex1.v.matrix), "spectral")


def test_pure_linear_f_takes_spectral_constants(monkeypatch):
    draws = []
    sample_pairs = analysis.sample_pairs
    monkeypatch.setattr(analysis, "sample_pairs",
                        lambda *args: draws.append(args) or sample_pairs(*args))
    F = np.array([[3.0, 1.0], [1.0, 4.0]])
    problem = _zero_v_problem(VectorField.from_matrix(F), WholeSpace(2))
    assert resolve_constant(problem, "L") == (operator_norm(F), "spectral")
    gamma = pair_modulus_linear(F, np.eye(2))
    assert resolve_constant(problem, "gamma") == (gamma, "spectral")
    assert auto_step(problem) == gamma / operator_norm(F) ** 2
    l_tilde = problem.inverse.lipschitz()
    assert tseng_auto_step(problem) == 0.9 / (operator_norm(F) * l_tilde)
    assert draws == []


def test_a_second_auto_step_reuses_the_kept_values_of_w(monkeypatch):
    # gamma screens the pair (f, Id - v): one Id - v per problem, so a second
    # auto_step on the plan evaluates no batch of f or of it and keeps nothing more.
    problem, batches = get_builtin("example1"), []
    for cls in (IdMinus, VectorField):
        monkeypatch.setattr(cls, "evaluate_batch", lambda field, X, batch=cls.evaluate_batch:
                            batches.append(field) or batch(field, X))
    plan = SamplingPlan(seed=21, count=2500)
    h = auto_step(problem, plan)
    kept = plan._draws[problem.dim][2]
    sizes = {start: len(fields) for start, fields in kept.items()}
    assert set(map(id, batches)) == {id(problem.f), id(problem.w), id(problem.v)}
    assert all(id(problem.w) in fields for fields in kept.values())
    del batches[:]
    assert auto_step(problem, plan) == h
    assert plan._draws[problem.dim][2] is kept and batches == []
    assert {start: len(fields) for start, fields in kept.items()} == sizes
