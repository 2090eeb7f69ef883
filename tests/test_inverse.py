import warnings

import numpy as np
import pytest
from numpy.linalg import norm
from scipy.linalg import lu_factor, lu_solve

from qvikit.errors import (
    BracketingFailure,
    ConfigError,
    NoConvergence,
    SingularLinearPart,
)
from qvikit.inverse import (
    _LU,
    LinearExact,
    PicardContraction,
    ScalarBracket,
    Semilinear,
    _norm,
    invert,
    lipschitz_of_inverse,
)
from qvikit.model import FuncField, QviProblem, VectorField, WholeSpace
from qvikit.solvers import SolverConfig, solve_alg1, sweep_trajectory


def _sine_picard(l=0.5):
    v = VectorField.from_exprs([f"{l}*sin(x1)"], 1)
    return PicardContraction(v, l)


def test_scalar_bracket_example(r5):
    x = invert(r5.inverse, np.zeros(1))
    assert x[0] == pytest.approx(-0.3168, abs=1e-3)
    assert abs(x[0] - r5.v(x)[0]) <= 1e-12


def test_linear_exact_zero_maps_to_zero(ex1):
    assert np.array_equal(invert(ex1.inverse, np.zeros(2)), np.zeros(2))


def test_linear_exact_multiply_back(ex2):
    e1 = np.array([1.0, 0.0, 0.0])
    x = invert(ex2.inverse, e1)
    assert norm(x - ex2.v(x) - e1) <= 1e-12


def test_picard_lipschitz_closed_form():
    assert lipschitz_of_inverse(_sine_picard(0.5)) == 2.0


def test_linear_exact_identity_lipschitz():
    assert lipschitz_of_inverse(LinearExact(np.zeros((3, 3)))) == 1.0


def test_linear_exact_lipschitz_matches_svd(ex2):
    want = 1.0 / np.linalg.svd(np.eye(3) - ex2.inverse.V, compute_uv=False).min()
    got = lipschitz_of_inverse(ex2.inverse)
    assert got == pytest.approx(want, rel=1e-8)


@pytest.mark.parametrize("which", ["linear1", "linear2", "semilinear", "picard", "bracket"])
def test_round_trip_recovers_x(which, ex1, ex2, ex3, r5):
    spec = {
        "linear1": ex1.inverse,
        "linear2": ex2.inverse,
        "semilinear": ex3.inverse,
        "picard": _sine_picard(),
        "bracket": r5.inverse,
    }[which]
    dim = {"linear1": 2, "linear2": 3, "semilinear": 3,
           "picard": 1, "bracket": 1}[which]
    rng = np.random.default_rng(6)
    for _ in range(1000):
        x = rng.uniform(-10, 10, dim)
        y = x - spec.v(x)
        got = invert(spec, y)
        assert norm(got - x) <= 10.0 * spec.inner_tol
        # A-posteriori contract held on every call.
        assert norm(got - spec.v(got) - y) <= spec.inner_tol


def test_inverse_is_lipschitz_exact_strategies(ex1, ex3):
    rng = np.random.default_rng(8)
    for spec, dim, scale in [(ex1.inverse, 2, 100.0),
                             (ex3.inverse, 3, 100.0),
                             (_sine_picard(), 1, 20.0)]:
        bound = lipschitz_of_inverse(spec) + 1e-6
        for _ in range(300):
            y1 = rng.uniform(-scale, scale, dim)
            y2 = rng.uniform(-scale, scale, dim)
            d = norm(y1 - y2)
            if d < 1e-9:
                continue
            assert norm(invert(spec, y1) - invert(spec, y2)) <= bound * d


def test_inverse_is_lipschitz_sampled_bracket(r5):
    # The bracket constant is sampled, so only well-separated pairs are
    # checked: mean-value averaging keeps far ratios strictly below the
    # near-pair supremum the estimate approaches.
    spec = r5.inverse
    bound = lipschitz_of_inverse(spec) + 1e-6
    rng = np.random.default_rng(11)
    checked = 0
    for _ in range(500):
        y1 = rng.uniform(-15, 15, 1)
        y2 = rng.uniform(-15, 15, 1)
        d = norm(y1 - y2)
        if d < 2.0:
            continue
        checked += 1
        assert norm(invert(spec, y1) - invert(spec, y2)) <= bound * d
    assert checked > 300


def test_picard_inner_contraction_rate():
    spec = _sine_picard(0.5)
    log = []
    invert(spec, np.array([0.3]), inner_log=log)
    assert len(log) >= 5
    for prev, cur in zip(log, log[1:]):
        if prev > 1e-14:
            assert cur <= 0.5 * prev * (1 + 1e-9)


def test_singular_linear_part_rejected():
    with pytest.raises(SingularLinearPart):
        LinearExact(np.eye(2))


def test_picard_requires_contraction():
    with pytest.raises(ConfigError):
        _sine_picard(1.0)


def test_semilinear_requires_contraction():
    g = VectorField.from_exprs(["sin(x1)"], 1)
    with pytest.raises(ConfigError, match="not < 1"):
        Semilinear(np.zeros((1, 1)), g, l_g=1.0)


def test_bracket_failure_outside_range(r5):
    with pytest.raises(BracketingFailure):
        invert(r5.inverse, np.array([100.0]))


def test_bracket_validation(r5):
    with pytest.raises(ValueError):
        ScalarBracket(r5.v, (2.0, 1.0))
    with pytest.raises(ValueError):
        ScalarBracket(r5.v, (-1.0, 1.0), "sideways")


def test_no_convergence_reports_achieved_residual():
    spec = PicardContraction(lambda x: 0.9 * x, 0.9, max_inner=3)
    with pytest.raises(NoConvergence) as exc:
        invert(spec, np.array([1.0]))
    assert exc.value.achieved > 0.0


@pytest.mark.parametrize("trans", [0, 1])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_lu_solve_helper_matches_scipy_bit_for_bit(n, trans):
    rng = np.random.default_rng(100 * n + trans)
    for _ in range(50):
        A = rng.standard_normal((n, n)) + n * np.eye(n)
        b = rng.standard_normal(n) * 10.0 ** rng.integers(-8, 9)
        want = lu_solve(lu_factor(A), b, trans=trans)
        assert _LU(A, "A").solve(b, trans=trans).tobytes() == want.tobytes()


def test_lu_solve_helper_rejects_non_finite_rhs():
    lu = _LU(np.array([[2.0, 1.0], [1.0, 3.0]]), "A")
    for bad in ([np.nan, 1.0], [1.0, np.inf], [-np.inf, np.inf]):
        with pytest.raises(ValueError, match="infs or NaNs"):
            lu.solve(np.array(bad))
    # Finite entries whose squares overflow are a valid right-hand side.
    huge = np.array([1e200, -3e200])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert lu.solve(huge).tobytes() == lu_solve((lu.lu, lu.piv), huge).tobytes()


@pytest.mark.parametrize("u", [
    [3.0, 4.0], [0.0], [-0.0, 0.0], [1e-200, 1e-200], [1e200, 1e200],
    [1.0, np.inf], [-np.inf, 2.0], [np.nan, 1.0], [np.inf, np.nan],
    list(np.random.default_rng(3).standard_normal(7)),
])
@pytest.mark.filterwarnings("ignore:overflow encountered in dot:RuntimeWarning")
def test_norm_helper_matches_numpy(u):
    u = np.array(u)
    got, want = _norm(u), float(np.linalg.norm(u))
    assert np.array_equal(got, want, equal_nan=True)


def test_invert_checks_the_dimension_once_on_entry(ex1, ex3):
    for spec in (ex1.inverse, ex3.inverse, _sine_picard()):
        with pytest.raises(ValueError, match="dimension mismatch"):
            invert(spec, np.zeros(4))


def _nan_strip_problem():
    # f is the identity outside the strip |x1| <= 1 and NaN inside it.
    f = FuncField(2, lambda x: x if abs(x[0]) > 1.0 else np.full(2, np.nan))
    return QviProblem("nan", 2, f, VectorField.zero(2),
                      LinearExact(np.zeros((2, 2))), WholeSpace(2))


def test_run_reports_divergence_when_a_field_returns_nan():
    problem = _nan_strip_problem()
    report = solve_alg1(problem, [4.0, 4.0], SolverConfig(h=0.5))
    assert report.diverged and not report.converged
    assert report.iterations == 2  # x: 4 -> 2 -> 1, where f is NaN
    assert np.isnan(report.residual_final)


def test_sweep_reports_divergence_when_a_field_returns_nan():
    result = sweep_trajectory(_nan_strip_problem(), [4.0, 4.0], 0.5, 5.0)
    assert result.diverged
    assert result.xs.tolist() == [[4.0, 4.0], [2.0, 2.0], [1.0, 1.0]]
    assert result.ts.tolist() == [0.0, 0.5, 1.0]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_picard_on_a_non_finite_point_stops_at_once(bad):
    spec = PicardContraction(VectorField.from_matrix([[0.5, 0.0], [0.0, 0.5]]), 0.5)
    log = []
    with pytest.raises(NoConvergence) as info:
        spec.invert([bad, 1.0], inner_log=log)
    assert len(log) <= 1
    assert np.isnan(info.value.achieved)


def test_every_strategy_rejects_a_non_finite_point(ex1, ex3, r5):
    g = VectorField.from_exprs(["0.1*sin(x1)"], 1)
    for spec, dim in ((ex1.inverse, 2), (ex3.inverse, 3), (r5.inverse, 1),
                      (_sine_picard(), 1), (Semilinear(np.zeros((1, 1)), g, 0.1), 1)):
        y = np.zeros(dim)
        y[-1] = np.nan
        with pytest.raises(NoConvergence, match="non-finite"):
            invert(spec, y)
