import json

import numpy as np
import pytest
from numpy.linalg import norm

from qvikit import analysis, inverse
from qvikit.errors import ConfigError, DiagnosticsError, SingularLinearPart
from qvikit.inverse import LinearExact
from qvikit.model import (
    Box,
    Constant,
    IdMinus,
    ProblemConstants,
    QviProblem,
    VectorField,
    WholeSpace,
    natural_residual,
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
    return QviProblem(
        "t", dim, VectorField.zero(dim), VectorField.zero(dim),
        LinearExact(np.zeros((dim, dim))), WholeSpace(dim),
        ProblemConstants(gamma=Constant(gamma, "declared"),
                         L=Constant(L, "declared")),
    )


def _zero_v_problem(f, cset):
    dim = cset.dim
    return QviProblem("t", dim, f, VectorField.zero(dim),
                      LinearExact(np.zeros((dim, dim))), cset)


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
    with pytest.raises(ConfigError, match="positive gamma"):
        auto_step(ROTATION)


def test_rate_bounds_closed_form():
    assert rate_bounds(1.0, 1.0, 0.0, 1.0) == (0.0, 0.0)
    rho, kappa = rate_bounds(2.0 / 9.0, 4.0 / 3.0, 7.0 / 3.0, 1.5)
    assert rho == pytest.approx(np.sqrt(1.0 - 1.0 / 400.0), abs=1e-15)
    assert rho <= kappa


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
    config = SolverConfig(h=0.3, record="full")
    report = solve_alg1(ex2, np.array([43.0, 22.0, 55.0]), config)
    assert len(report.residuals) == report.iterations + 1
    assert len(report.iterates) == report.iterations + 1
    assert np.array_equal(report.iterates[-1], report.x_final)
    assert report.residuals[-1] == report.residual_final
    assert 0.0 < report.rate_estimate < 1.0
    assert report.converged and report.residual_final <= config.tol


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
    report = solve_zero(ex4.f, ex4.w, np.array([1e4, 2e4, 3e4]),
                        SolverConfig(h=1.0, tol=1e-10, record="full"))
    errs = [norm(x - ex4_solution) for x in report.iterates]
    for prev, cur in zip(errs, errs[1:]):
        if prev > 1e-13:
            assert cur / prev <= 1.0 - 1.0 * (1.0 - alpha) + 1e-9


def test_zero_map_rejects_singular_matrix():
    with pytest.raises(SingularLinearPart):
        ZeroMap.from_matrix([[1.0, 1.0], [1.0, 1.0]])


def test_y_space_domination_and_monotonicity(ex1, ex1_solution):
    h = auto_step(ex1)
    report = solve_alg1(ex1, np.array([6.0, 2.0]),
                        SolverConfig(h=h, record="full"))
    assert report.converged
    plan = SamplingPlan(seed=0)
    w = FuncField(2, lambda x: x - ex1.v(x))
    gamma = GAMMA_SAFETY * sample_pair_modulus(ex1.f, w, plan)
    L = LIP_SAFETY * sample_lipschitz(ex1.f, plan)
    l, _ = resolve_constant(ex1, "l")
    lt, _ = resolve_constant(ex1, "l_tilde")
    rho, _ = rate_bounds(gamma, L, l, lt)
    ystar = ex1_solution - ex1.v(ex1_solution)
    errs = np.array([norm(x - ex1.v(x) - ystar) for x in report.iterates])
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
    with pytest.raises(ValueError):
        SolverConfig(record="sometimes")


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


class _Counting:
    """A field that counts its calls."""

    def __init__(self, field):
        self.field, self.dim, self.calls = field, field.dim, 0

    def __call__(self, x):
        self.calls += 1
        return self.field(x)


def _counted(problem):
    return QviProblem(problem.name, problem.dim, _Counting(problem.f),
                      _Counting(problem.v), problem.inverse, problem.set,
                      problem.constants)


def test_alg1_evaluates_f_and_v_once_per_iterate(ex1):
    problem = _counted(ex1)
    report = solve_alg1(problem, [6.0, 2.0], SolverConfig(h=0.01))
    assert report.converged and report.iterations == 687
    assert problem.f.calls == problem.v.calls == report.iterations + 1


def test_tseng_evaluates_v_once_per_iterate(ex1):
    problem = _counted(ex1)
    report = solve_tseng(problem, [6.0, 2.0], SolverConfig(h=0.01))
    assert report.converged
    assert problem.v.calls == report.iterations + 1
    assert problem.f.calls == 2 * report.iterations + 1


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
