import copy
import pickle

import numpy as np
import pytest
from numpy.linalg import norm

import qvikit as qk
from qvikit.errors import ConfigError, EvalError
from qvikit.model import (
    Box,
    Constant,
    FuncField,
    IdMinus,
    NonnegativeOrthant,
    QviProblem,
    VectorField,
    WholeSpace,
    as_vector,
    natural_residual,
    project,
    project_moving,
    to_vi,
)

BOX = Box([-30.0, -30.0], [40.0, 40.0])


def _sets(dim=3):
    return [
        WholeSpace(dim),
        NonnegativeOrthant(dim),
        Box(-np.arange(1.0, dim + 1.0), np.arange(1.0, dim + 1.0)),
    ]


def test_project_box_clamps():
    assert np.array_equal(project(BOX, [50.0, -50.0]), [40.0, -30.0])


def test_project_box_matches_clip_bit_for_bit():
    box = Box([0.0, -0.0, -1.0, -1.0, 0.0, -2.0], [1.0, 1.0, 0.0, -0.0, 0.0, 2.0])
    rng = np.random.default_rng(4)
    points = [np.array([-0.0, 0.0, 0.0, -0.0, -0.0, 0.0]),
              np.array([np.nan, np.inf, -np.inf, 5.0, -5.0, 1.5])]
    points += [rng.uniform(-3.0, 3.0, 6) for _ in range(100)]
    for z in points:
        got = project(box, z)
        assert got.tobytes() == np.clip(z, box.lower, box.upper).tobytes()


def test_project_orthant():
    assert np.array_equal(project(NonnegativeOrthant(1), [-3.0]), [0.0])


def test_project_interior_point_fixed():
    assert np.array_equal(project(BOX, [6.0, 2.0]), [6.0, 2.0])


def test_project_whole_space_identity():
    z = np.array([1.5, -2.5])
    assert np.array_equal(project(WholeSpace(2), z), z)


def test_project_dimension_mismatch():
    with pytest.raises(ValueError):
        project(BOX, [1.0, 2.0, 3.0])


def test_projection_idempotent_exactly():
    rng = np.random.default_rng(0)
    for cset in _sets():
        for _ in range(1000):
            z = rng.uniform(-20, 20, 3)
            p = project(cset, z)
            assert np.array_equal(project(cset, p), p)


def test_projection_nonexpansive():
    rng = np.random.default_rng(1)
    for cset in _sets():
        for _ in range(1000):
            z1 = rng.uniform(-20, 20, 3)
            z2 = rng.uniform(-20, 20, 3)
            assert norm(project(cset, z1) - project(cset, z2)) <= norm(z1 - z2) * (1 + 1e-15)


def test_projection_variational_characterization():
    rng = np.random.default_rng(2)
    lo, hi = -np.arange(1.0, 4.0), np.arange(1.0, 4.0)
    for cset in [NonnegativeOrthant(3), Box(lo, hi)]:
        for _ in range(100):
            z = rng.uniform(-20, 20, 3)
            p = project(cset, z)
            for _ in range(100):
                c = rng.uniform(0, 20, 3) if isinstance(cset, NonnegativeOrthant) \
                    else rng.uniform(lo, hi)
                assert np.dot(z - p, c - p) <= 0.0


def test_project_moving_zero_displacement():
    dim = 2
    p = QviProblem("t", dim, VectorField.zero(dim), VectorField.zero(dim),
                   qk.LinearExact(np.zeros((dim, dim))), BOX)
    z = np.array([50.0, -50.0])
    assert np.array_equal(project_moving(p, [1.0, 1.0], z), project(BOX, z))


def test_project_moving_hand_value(r5):
    # base 0: v(0) = 1/3, z - v = -2/3 projects to 0, result 1/3.
    out = project_moving(r5, np.zeros(1), np.array([-1.0 / 3.0]))
    assert out[0] == pytest.approx(1.0 / 3.0, abs=1e-15)


def test_project_moving_constant_translate():
    v = VectorField.from_exprs(["0.25"], 1)
    p = QviProblem("t", 1, VectorField.zero(1), v,
                   qk.PicardContraction(v, 0.0), Box([0.0], [1.0]))
    z = np.array([0.8])  # interior of the shifted interval [0.25, 1.25]
    assert np.array_equal(project_moving(p, [5.0], z), z)


def test_moving_set_identity_bit_exact(r5):
    # The identity is bitwise only when v(base) + q rounds exactly, so it is
    # checked on dyadic data and on the hand example where the sums are exact.
    v = VectorField.from_matrix([[0.5, 0.0], [0.0, 0.25]])
    p = QviProblem("t", 2, VectorField.zero(2), v, qk.LinearExact(v.matrix),
                   Box([-0.5, -0.5], [1.5, 1.5]))
    rng = np.random.default_rng(3)
    for _ in range(200):
        base = np.round(rng.uniform(-4, 4, 2) * 16) / 16
        z = np.round(rng.uniform(-4, 4, 2) * 16) / 16
        t = v(base)
        assert np.array_equal(project_moving(p, base, z) - t,
                              project(p.set, z - t))
    t5 = r5.v(np.zeros(1))
    assert np.array_equal(project_moving(r5, np.zeros(1), np.array([-1.0 / 3.0])) - t5,
                          project(r5.set, np.array([-1.0 / 3.0]) - t5))


def test_eval_split_field_at_origin():
    # Split form: matrix part vanishes at 0, remainder gives (0.5, 0).
    f = VectorField.from_matrix([[3.0, 1.0], [1.0, 4.0]],
                                ["0.5*cos(x2)^3", "0.7*sin(x1)"])
    assert np.array_equal(f(np.zeros(2)), [0.5, 0.0])


def test_eval_zero_field():
    assert np.array_equal(VectorField.zero(3)(np.ones(3)), np.zeros(3))


def test_eval_origin_fixed(r5):
    assert np.array_equal(r5.f(np.zeros(1)), [0.0])


def test_split_form_bit_identical_to_composition(ex2):
    rng = np.random.default_rng(4)
    remainder = VectorField(3, remainder=ex2.f.remainder)
    for _ in range(100):
        x = rng.uniform(-10, 10, 3)
        assert np.array_equal(ex2.f(x), ex2.f.matrix @ x + remainder(x))


def test_eval_error_names_component():
    f = VectorField.from_exprs(["x1", "x1 / x2"], 2)
    with pytest.raises(EvalError, match="component 2"):
        f(np.array([1.0, 0.0]))


def test_field_dimension_mismatch():
    f = VectorField.from_exprs(["x1"], 1)
    with pytest.raises(ValueError):
        f(np.ones(2))


def test_to_vi_zero_displacement_is_identity_reduction():
    f = VectorField.from_exprs(["x1 + 1", "x2"], 2)
    p = QviProblem("t", 2, f, VectorField.zero(2),
                   qk.LinearExact(np.zeros((2, 2))), BOX)
    T, cset = to_vi(p)
    assert cset is p.set
    y = np.array([0.3, -0.8])
    assert np.allclose(T(y), f(y), atol=1e-12)


def test_to_vi_bundled_scalar_problem(r5):
    T, _ = to_vi(r5)
    x = qk.invert(r5.inverse, np.zeros(1))
    assert x[0] == pytest.approx(-0.3168, abs=1e-3)
    # y* = 0 solves the transformed problem: T points into the orthant there.
    assert T(np.zeros(1))[0] >= -1e-9


def test_to_vi_inequality_sampled(ex2, ex2_solution):
    T, cset = to_vi(ex2)
    ystar = ex2_solution - ex2.v(ex2_solution)
    Ty = T(ystar)
    rng = np.random.default_rng(3)
    for _ in range(1000):
        c = rng.uniform(cset.lower, cset.upper)
        assert float(Ty @ (c - ystar)) >= -1e-6


def test_natural_residual_zero_at_solution(r5, r5_solution):
    assert natural_residual(r5, r5_solution, 1.0) <= 1e-8


def test_natural_residual_published_point(ex1):
    assert natural_residual(ex1, np.array([-0.3785, 0.1870]), 0.01) <= 1e-3


def test_natural_residual_zero_field_measures_distance():
    p = QviProblem("t", 2, VectorField.zero(2), VectorField.zero(2),
                   qk.LinearExact(np.zeros((2, 2))), BOX)
    x = np.array([50.0, 2.0])
    assert natural_residual(p, x, 0.7) == pytest.approx(10.0, abs=1e-12)


def test_natural_residual_needs_positive_h(ex1):
    with pytest.raises(ValueError):
        natural_residual(ex1, np.zeros(2), 0.0)


def test_natural_residual_continuity(ex1, ex2, r5):
    rng = np.random.default_rng(5)
    for p in (ex1, ex2, r5):
        for _ in range(50):
            x = rng.uniform(-5, 5, p.dim)
            d = rng.normal(size=p.dim)
            d *= 1e-9 / norm(d)
            base = natural_residual(p, x, 0.1)
            assert abs(natural_residual(p, x + d, 0.1) - base) <= 1e-6


def test_orthant_complementarity_constant(r5, r5_solution):
    eps = natural_residual(r5, r5_solution, 1.0)
    lhs = np.maximum(r5_solution - r5.v(r5_solution) - r5.f(r5_solution), 0.0)
    rhs = r5_solution - r5.v(r5_solution)
    assert norm(lhs - rhs) <= 2.0 * eps


def test_as_vector_rejects_non_finite():
    with pytest.raises(ValueError):
        as_vector([1.0, np.nan])
    with pytest.raises(ValueError):
        as_vector([np.inf])


def test_box_validation():
    with pytest.raises(ValueError):
        Box([1.0], [0.0])
    with pytest.raises(ValueError):
        Box([0.0], [np.inf])


def test_vector_field_needs_exactly_one_form():
    # The one form is matrix @ x + remainder(x); either part may be absent.
    with pytest.raises(ValueError):
        VectorField(2)
    remainder = (qk.parse("x1", 2), qk.parse("x2^2", 2))
    x = np.array([3.0, -2.0])
    assert np.array_equal(VectorField(2, matrix=np.eye(2))(x), [3.0, -2.0])
    assert np.array_equal(VectorField(2, remainder=remainder)(x), [3.0, 4.0])
    both = VectorField(2, matrix=np.eye(2), remainder=remainder)
    assert np.array_equal(both(x), [6.0, 2.0])
    with pytest.raises(ValueError, match="need 2 expressions, got 1"):
        VectorField(2, matrix=np.eye(2), remainder=remainder[:1])


def test_a_fields_matrix_is_a_read_only_copy():
    M = np.array([[1.0, 2.0], [3.0, 4.0]])
    fields = [VectorField(2, matrix=M), VectorField.from_matrix(M, ["sin(x1)", "x2"])]
    M[0, 0] = 9.0
    for f in fields:
        assert f.matrix.tolist() == [[1.0, 2.0], [3.0, 4.0]]
    assert fields[0](np.ones(2)).tolist() == [3.0, 7.0]
    # Copies keep it read-only.
    for f in fields + [pickle.loads(pickle.dumps(fields[0])), copy.deepcopy(fields[1])]:
        assert not f.matrix.flags.writeable
        with pytest.raises(ValueError):
            f.matrix[0, 0] = 5.0


def test_vector_field_checks_the_expression_count():
    # A short remainder once left np.empty garbage in the missing entries,
    # and a long one raised a raw IndexError at evaluation.
    two = (qk.parse("x1", 3), qk.parse("x2", 3))
    for remainder in (two, two + two):
        with pytest.raises(ValueError, match=f"need 3 expressions, got {len(remainder)}"):
            VectorField(3, remainder=remainder)
        with pytest.raises(ValueError, match=f"need 3 expressions, got {len(remainder)}"):
            VectorField(3, matrix=np.eye(3), remainder=remainder)
    with pytest.raises(ValueError, match="need 3 expressions"):
        VectorField.from_exprs(["x1", "x2"], 3)
    with pytest.raises(ValueError, match="need 3 expressions"):
        VectorField.from_matrix(np.eye(3), ["x1", "x2", "x3", "x1"])


def test_a_remainder_alone_keeps_signed_zeros():
    f = VectorField.from_exprs(["-x1", "x2"], 2)
    assert np.signbit(f(np.array([0.0, -0.0]))).tolist() == [True, True]
    values, magnitude = f.evaluate_batch(np.array([[0.0, 1.0], [-0.0, 2.0]]))
    assert np.signbit(values[:, 0]).tolist() == [True, True]
    assert magnitude.tolist() == [0.0, 3.0]


def test_constant_validation():
    with pytest.raises(ValueError):
        Constant(-1.0, "declared")
    with pytest.raises(ValueError):
        Constant(1.0, "guessed")


def test_constants_require_names_missing(ex2):
    with pytest.raises(ConfigError, match="gamma"):
        ex2.constants.require("gamma")


def test_problem_dimension_agreement():
    with pytest.raises(ValueError):
        QviProblem("t", 2, VectorField.zero(2), VectorField.zero(3),
                   qk.LinearExact(np.zeros((3, 3))), BOX)


def test_func_field_adapter():
    g = FuncField(2, lambda x: x * 2.0)
    assert np.array_equal(g(np.array([1.0, -2.0])), [2.0, -4.0])


@pytest.mark.parametrize("name", ["example1", "example2", "example3", "remark5"])
def test_batch_field_values_and_bounds(name):
    problem = qk.get_builtin(name)
    X = np.random.default_rng(1).uniform(-10.0, 10.0, (problem.dim, 50))
    for field in (problem.f, problem.v, IdMinus(problem.v)):
        values, magnitude = field.evaluate_batch(X)
        assert values.shape == X.shape and magnitude.shape == (50,)
        for j in range(50):
            point = field(X[:, j])
            assert np.abs(values[:, j] - point).sum() <= 1e-15 * magnitude[j]
            assert np.abs(point).sum() <= magnitude[j] * (1 + 1e-12)


def test_batch_field_raises_where_a_point_raises():
    f = VectorField.from_matrix([[1.0, 0.0], [0.0, 1.0]], ["0", "1 / (x1 - 2)"])
    X = np.array([[0.0, 1.0, 2.0], [0.0, 0.0, 0.0]])
    with pytest.raises(EvalError, match="component 2"):
        f(X[:, 2])
    with pytest.raises(EvalError, match="component 2"):
        f.evaluate_batch(X)
    f.evaluate_batch(X[:, :2])


def test_id_minus_is_the_point_map_x_minus_v(ex3):
    w, lam = IdMinus(ex3.v), FuncField(3, lambda x: x - ex3.v(x))
    assert w.dim == 3
    for x in np.random.default_rng(2).uniform(-10.0, 10.0, (20, 3)):
        assert np.array_equal(w(x), lam(x))
    # Over a field with no batch form, Id - v has none either.
    assert IdMinus(FuncField(3, ex3.v)).evaluate_batch(np.zeros((3, 2))) is None
    assert not hasattr(FuncField(3, ex3.v), "evaluate_batch")


@pytest.mark.parametrize("name", ["example1", "example2", "example3", "remark5"])
def test_evaluated_problem_pickles_and_its_copy_evaluates_alike(name):
    problem = qk.get_builtin(name)
    x = np.full(problem.dim, 0.7)
    before = [problem.f(x), problem.v(x), qk.invert(problem.inverse, x)]
    copy = pickle.loads(pickle.dumps(problem))
    after = [copy.f(x), copy.v(x), qk.invert(copy.inverse, x)]
    assert [a.tobytes() for a in after] == [b.tobytes() for b in before]
