"""End-to-end acceptance battery: one test per advertised behaviour.

Each test prints a single "criterion NN: PASS/FAIL (detail)" line and then
asserts, so a verbose run reads as a checklist. Tolerances are part of the
contract and must not be loosened here.
"""

import numpy as np
from numpy.linalg import norm

from qvikit.analysis import (
    SamplingPlan,
    operator_norm,
    pair_modulus_linear,
    sample_lipschitz,
    sample_pair_modulus,
)
from qvikit.inverse import LinearExact, PicardContraction, invert
from qvikit.model import (
    Box,
    FuncField,
    QviProblem,
    VectorField,
    WholeSpace,
    natural_residual,
)
from qvikit.solvers import (
    GAMMA_SAFETY,
    LIP_SAFETY,
    SolverConfig,
    auto_step,
    loglinear_fit,
    rate_bounds,
    resolve_constant,
    solve_alg1,
    solve_catchup,
    solve_tseng,
    solve_zero,
    sweep_trajectory,
)


def _line(num, ok, detail):
    print(f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num:02d}: {detail}"


def test_criterion_01_example1_two_starts(ex1):
    config = SolverConfig(h=0.01, tol=1e-8)
    a = solve_alg1(ex1, np.array([6.0, 2.0]), config)
    b = solve_alg1(ex1, np.array([-1.0, 1.0]), config)
    target = np.array([-0.3785, 0.1870])
    gap = norm(a.x_final - b.x_final)
    ok = (a.converged and b.converged
          and norm(a.x_final - target, np.inf) <= 1e-3
          and norm(b.x_final - target, np.inf) <= 1e-3
          and gap <= 1e-6)
    _line(1, ok, f"endpoints {a.x_final} / {b.x_final}, gap {gap:.2e}")


def test_criterion_02_example2_and_baseline(ex2):
    x0 = np.array([43.0, 22.0, 55.0])
    report = solve_alg1(ex2, x0, SolverConfig(h=0.3))
    target = np.array([-0.1249, 0.1025, -0.0469])
    baseline = solve_catchup(ex2, x0, SolverConfig(h=0.3, max_iter=10_000))
    ok = (report.converged
          and norm(report.x_final - target, np.inf) <= 1e-3
          and report.iterations <= 166
          and not baseline.converged
          and (baseline.diverged or baseline.iterations >= 10_000))
    _line(2, ok, f"{report.iterations} iterations; baseline "
                 f"{'diverged' if baseline.diverged else 'capped'} after "
                 f"{baseline.iterations}")


def test_criterion_03_example3(ex3):
    """Algorithm 1 on example3 reaches the problem's unique solution.

    The paper prints (-0.0868, 0.6040, 0.6839) as the endpoint of this run.
    That point is not stationary for example3 as bundled: f there is
    (5.42, -0.145, 1.73) and the natural residual at h = 0.3 is 1.707
    (0.057 at h = 0.01, 5.69 at h = 1). Its y = x - v(x) = (9.92, -1.13,
    2.28) lies deep inside C = [-400, 500]^3, where the normal cone is {0},
    so a solution there would need f = 0.

    The solution is unique. Here I - V = 2M with M the linear part of f,
    sigma_min(M) = 3.8236, and the remainders of f and v have slope bounds
    1.685 and 1.049. With d = x - x' and w = Id - v this gives
    <f(x) - f(x'), w(x) - w(x')> >= (2 s^2 - s (1.049 + 2 * 1.685)
    - 1.685 * 1.049) |d|^2 = 10.58 |d|^2 for s = 3.8236, so
    f o (Id - v)^{-1} is strongly monotone and the y-space problem has
    exactly one solution: the interior zero of f. That zero is the one
    criterion 04 pins for the same f, and it is the target here.

    The printed point stays checked: if example3's data ever makes it
    stationary, this test fails and the target must be revisited against
    the paper's data.
    """
    config = SolverConfig(h=0.3)
    report = solve_alg1(ex3, np.array([5.0, 4.0, 2.0]), config)
    target = np.array([-0.0931, 0.0816, -0.0555])
    err = norm(report.x_final - target, np.inf)
    residual = natural_residual(ex3, report.x_final, config.h)
    fnorm = norm(ex3.f(report.x_final))
    printed = np.array([-0.0868, 0.6040, 0.6839])
    printed_residual = natural_residual(ex3, printed, config.h)
    ok = (report.converged and report.iterations <= 220 and err <= 1e-3
          and residual <= config.tol and fnorm <= 1e-6
          and printed_residual >= 1.0)
    _line(3, ok, f"{report.iterations} iterations, target missed by "
                 f"{err:.1e}, residual {residual:.1e}, |f| = {fnorm:.1e}; "
                 f"paper's printed point has residual {printed_residual:.3f}")


def test_criterion_04_example4(ex4):
    report = solve_zero(ex4.f, ex4.w, np.array([1e4, 2e4, 3e4]),
                        SolverConfig(h=1.0, tol=1e-10, max_iter=10_000))
    target = np.array([-0.0931, 0.0816, -0.0555])
    fnorm = norm(ex4.f(report.x_final))
    ok = (report.converged
          and norm(report.x_final - target, np.inf) <= 1e-3
          and fnorm <= 1e-10
          and report.iterations <= 36)
    _line(4, ok, f"{report.iterations} iterations, |f| = {fnorm:.2e}")


def test_criterion_05_scalar_problem(r5):
    report = solve_alg1(r5, np.array([0.5]), SolverConfig(h=0.5))
    sol_err = abs(report.x_final[0] - (-0.3168))
    sweep = sweep_trajectory(r5, np.array([0.5]), 0.01, 20.0)
    sweep_err = abs(sweep.xs[-1, 0] - (-0.3168))
    x = report.x_final
    comp = norm(np.maximum(x - r5.v(x) - r5.f(x), 0.0) - (x - r5.v(x)))
    ok = (report.converged and sol_err <= 1e-3
          and not sweep.diverged and sweep_err <= 1e-2
          and comp <= 1e-6)
    _line(5, ok, f"solution err {sol_err:.2e}, sweep err {sweep_err:.2e}, "
                 f"complementarity gap {comp:.2e}")


def test_criterion_06_pair_modulus_checks():
    got = pair_modulus_linear([[2.0, 1.0], [1.0, 2.0]], [[3.0, 1.0], [1.0, 3.0]])
    f = VectorField.from_exprs(["-x1^2", "0"], 2)
    w = VectorField.from_exprs(["0", "x2^2"], 2)
    orth = sample_pair_modulus(f, w, SamplingPlan(seed=0, count=2000))
    ok = abs(got - 2.0) <= 1e-9 and abs(orth) <= 1e-12
    _line(6, ok, f"hand pair {got!r}, orthogonal pair {orth!r}")


def test_criterion_07_constants(ex1, ex2, r5):
    n1 = operator_norm(ex1.v.matrix)
    n2 = operator_norm(ex2.v.matrix)
    w = FuncField(1, lambda x: x - r5.v(x))
    moduli = [sample_pair_modulus(r5.f, w, SamplingPlan(seed=s))
              for s in range(1, 11)]
    ok = (abs(n1 - 0.85) <= 0.01 and abs(n2 - 23.12) <= 0.01
          and all(m >= 2.0 / 9.0 for m in moduli))
    _line(7, ok, f"norms {n1:.4f} / {n2:.4f}, "
                 f"scalar modulus min {min(moduli):.4f} over seeds 1..10")


def test_criterion_08_rate_domination(ex1, ex1_solution):
    plan = SamplingPlan(seed=0)
    w = FuncField(2, lambda x: x - ex1.v(x))
    gamma = GAMMA_SAFETY * sample_pair_modulus(ex1.f, w, plan)
    L = LIP_SAFETY * sample_lipschitz(ex1.f, plan)
    l, _ = resolve_constant(ex1, "l")
    lt, _ = resolve_constant(ex1, "l_tilde")
    rho, _ = rate_bounds(gamma, L, l, lt)
    h = gamma / L**2
    iterates = []
    report = solve_alg1(ex1, np.array([6.0, 2.0]), SolverConfig(h=h),
                        on_step=iterates.append)
    ystar = ex1_solution - ex1.v(ex1_solution)
    errs = np.array([norm(x - ex1.v(x) - ystar) for x in iterates])
    bound = lt * (1.0 + l) * errs[0] * rho ** np.arange(len(errs))
    dominated = bool(np.all(errs <= bound * (1.0 + 1e-6)))
    monotone = bool(np.all(errs[1:] <= errs[:-1]))
    ok = report.converged and dominated and monotone
    _line(8, ok, f"h {h:.4f}, rho {rho:.6f}, "
                 f"worst bound ratio {np.max(errs / bound):.3f}, "
                 f"monotone {monotone}")


def test_criterion_09_zero_finder_contraction(ex4, ex4_solution):
    a_inv = operator_norm(np.linalg.inv(ex4.w.matrix))
    g = VectorField(3, remainder=ex4.f.remainder)
    alpha = a_inv * sample_lipschitz(g, SamplingPlan(seed=0))
    iterates = []
    solve_zero(ex4.f, ex4.w, np.array([1e4, 2e4, 3e4]),
               SolverConfig(h=1.0, tol=1e-10), on_step=iterates.append)
    errs = [norm(x - ex4_solution) for x in iterates]
    ratios = [cur / prev for prev, cur in zip(errs, errs[1:]) if prev > 1e-13]
    worst = max(ratios)
    ok = alpha < 1.0 and worst <= 1.0 - 1.0 * (1.0 - alpha) + 1e-9
    _line(9, ok, f"alpha {alpha:.4f}, worst step ratio {worst:.4f}")


def test_criterion_10_tseng(ex1):
    v = VectorField.zero(2)
    rotation = QviProblem("rotation", 2, VectorField.from_exprs(["-x2", "x1"], 2),
                          LinearExact(v), Box([-1.0, -1.0], [1.0, 1.0]))
    rot = solve_tseng(rotation, np.array([1.0, 1.0]), SolverConfig(h=0.3))
    agree = solve_tseng(ex1, np.array([6.0, 2.0]))
    ref = solve_alg1(ex1, np.array([6.0, 2.0]), SolverConfig(h=0.01))
    gap = norm(agree.x_final - ref.x_final)
    literal = solve_tseng(ex1, np.array([6.0, 2.0]),
                          SolverConfig(h=0.01, max_iter=2000), literal=True)
    literal_note = ("diverged" if literal.diverged
                    else "converged" if literal.converged else "capped")
    ok = (rot.converged and norm(rot.x_final) <= 1e-6
          and agree.converged and ref.converged and gap <= 1e-6)
    _line(10, ok, f"rotation endpoint norm {norm(rot.x_final):.2e}, "
                  f"agreement gap {gap:.2e}; literal variant {literal_note} "
                  f"after {literal.iterations} iterations (recorded only)")


def test_criterion_11_inverse_round_trips(ex1, ex3, r5):
    picard = PicardContraction(VectorField.from_exprs(["0.5*sin(x1)"], 1), 0.5)
    cases = [
        ("linear", ex1.inverse, ex1.v, 2, 50.0),
        ("semilinear", ex3.inverse, ex3.v, 3, 50.0),
        ("picard", picard, picard.v_map, 1, 50.0),
        ("bracket", r5.inverse, r5.v, 1, 15.0),
    ]
    worst = {}
    for name, spec, v, dim, scale in cases:
        rng = np.random.default_rng(1)
        gap = 0.0
        for _ in range(1000):
            x = rng.uniform(-scale, scale, dim)
            gap = max(gap, norm(invert(spec, x - v(x)) - x))
        worst[name] = gap
    ok = all(gap <= 1e-10 for gap in worst.values())
    _line(11, ok, "worst gaps " + ", ".join(
        f"{name} {gap:.1e}" for name, gap in worst.items()))


def test_criterion_12_decay_fit(ex1):
    result = sweep_trajectory(ex1, np.array([6.0, 2.0]), 0.01, 10.0)
    slope, r2, used = loglinear_fit(result.speeds)
    alpha = -slope / 0.01
    ok = (not result.diverged) and r2 >= 0.9 and alpha > 0.0
    _line(12, ok, f"alpha_hat {alpha:.3f}, r2 {r2:.4f}, {used} points")
