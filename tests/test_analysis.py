import json
import math
from pathlib import Path

import numpy as np
import pytest

from qvikit.analysis import (
    _MARGIN,
    SamplingPlan,
    check_pseudo_pair,
    composition_modulus_bound,
    operator_norm,
    pair_modulus_linear,
    power_lambda_max,
    sample_lipschitz,
    sample_pair_modulus,
    sample_pairs,
)
from estimator_pins import record
from qvikit.errors import EvalError, SamplingError
from qvikit.inverse import ScalarBracket
from qvikit.model import FuncField, IdMinus, VectorField, to_vi

PLAN0 = SamplingPlan(seed=0)


def test_operator_norm_example_displacements(ex1, ex2):
    n1 = operator_norm(ex1.v.matrix)
    n2 = operator_norm(ex2.v.matrix)
    assert n1 == pytest.approx(0.85, abs=0.01)
    assert n2 == pytest.approx(23.12, abs=0.01)
    for M, got in ((ex1.v.matrix, n1), (ex2.v.matrix, n2)):
        want = np.linalg.svd(M, compute_uv=False).max()
        assert got == pytest.approx(want, rel=1e-8)


def test_power_lambda_max_diagonal():
    M = np.diag([4.0, 1.0])
    assert power_lambda_max(lambda u: M @ u, 2) == pytest.approx(4.0, rel=1e-9)


def test_power_lambda_max_survives_orthogonal_first_start():
    # The all-ones start is an eigenvector of the zero eigenvalue here; the
    # second start has to find lambda = 2.
    M = np.array([[1.0, -1.0], [-1.0, 1.0]])
    assert power_lambda_max(lambda u: M @ u, 2) == pytest.approx(2.0, rel=1e-9)


def test_pair_modulus_hand_pair():
    got = pair_modulus_linear([[2.0, 1.0], [1.0, 2.0]], [[3.0, 1.0], [1.0, 3.0]])
    assert got == pytest.approx(2.0, abs=1e-9)


def test_pair_modulus_identity_pair():
    assert pair_modulus_linear(np.eye(3), np.eye(3)) == pytest.approx(1.0, abs=1e-12)


def test_pair_modulus_example2_regression(ex2):
    W = np.eye(3) - ex2.v.matrix
    got = pair_modulus_linear(ex2.f.matrix, W)
    assert got == pytest.approx(29.23949760584933, abs=1e-9)


def test_pair_modulus_validation():
    with pytest.raises(ValueError):
        pair_modulus_linear(np.eye(2), np.eye(3))
    with pytest.raises(ValueError):
        pair_modulus_linear(np.ones((2, 3)), np.ones((2, 3)))


def test_pair_modulus_reduction_to_identity_pair(ex2):
    # <Fx - Fy, Wx - Wy> = <(W^T F)x - (W^T F)y, x - y>; both sides build the
    # same symmetric matrix entry for entry, so the eigenvalues match bitwise.
    F = ex2.f.matrix
    W = np.eye(3) - ex2.v.matrix
    assert pair_modulus_linear(F, W) == pair_modulus_linear(W.T @ F, np.eye(3))


def test_sample_pair_modulus_identity_is_one():
    ident = FuncField(2, lambda x: x)
    plan = SamplingPlan(seed=2, count=500)
    assert sample_pair_modulus(ident, ident, plan) == 1.0


def test_sample_pair_modulus_orthogonal_components_zero():
    f = VectorField.from_exprs(["-x1^2", "0"], 2)
    w = VectorField.from_exprs(["0", "x2^2"], 2)
    plan = SamplingPlan(seed=3, count=500)
    assert sample_pair_modulus(f, w, plan) == 0.0


def test_sample_pair_modulus_scalar_builtin(r5):
    w = FuncField(1, lambda x: x - r5.v(x))
    assert sample_pair_modulus(r5.f, w, PLAN0) >= 2.0 / 9.0


def test_sample_lipschitz_linear_two_sided(ex2):
    f = VectorField.from_matrix(ex2.f.matrix)
    want = operator_norm(ex2.f.matrix)
    got = sample_lipschitz(f, PLAN0)
    assert got <= want + 1e-9
    assert got >= 0.95 * want


def test_sample_gamma_never_below_spectral(ex2):
    f = VectorField.from_matrix(ex2.f.matrix)
    W = np.eye(3) - ex2.v.matrix
    w = VectorField.from_matrix(W)
    assert sample_pair_modulus(f, w, PLAN0) >= pair_modulus_linear(ex2.f.matrix, W) - 1e-9


def test_sample_lipschitz_local_trig_field():
    f = VectorField.from_matrix([[3.0, 1.0], [1.0, 4.0]],
                                ["0.5*cos(x2)^3", "0.7*sin(x1)"])
    assert sample_lipschitz(f, PLAN0) <= 5.32 + 0.05


def test_sample_lipschitz_builtin_regression(ex1):
    assert sample_lipschitz(ex1.f, PLAN0) == pytest.approx(5.624515124638683, abs=1e-9)


def test_sample_gamma_builtin_regression(ex1):
    w = FuncField(2, lambda x: x - ex1.v(x))
    assert sample_pair_modulus(ex1.f, w, PLAN0) == pytest.approx(
        1.3195599079085454, abs=1e-9)


def test_sampled_estimates_deterministic(ex1):
    a = sample_lipschitz(ex1.f, PLAN0)
    b = sample_lipschitz(ex1.f, PLAN0)
    assert a == b


def test_modulus_pattern_relation(ex1):
    # The advertised lower bound mu - l L is vacuous here (negative), and the
    # sampled modulus sits comfortably above it.
    w = FuncField(2, lambda x: x - ex1.v(x))
    assert sample_pair_modulus(ex1.f, w, PLAN0) >= 1.68 - 0.85 * 5.32


def test_check_pseudo_pair_accepts_monotone(r5):
    ident = FuncField(1, lambda x: x)
    plan = SamplingPlan(seed=4, count=2000)
    assert check_pseudo_pair(ident, ident, plan).ok
    w = FuncField(1, lambda x: x - r5.v(x))
    assert check_pseudo_pair(r5.f, w, plan).ok


def test_check_pseudo_pair_flags_reversed_field():
    f = FuncField(1, lambda x: -x)
    w = FuncField(1, lambda x: x)
    report = check_pseudo_pair(f, w, PLAN0)
    assert not report.ok
    assert report.violations > 1000
    assert len(report.witnesses) == 10
    assert report.checked == 2 * len(sample_pairs(PLAN0, 1))


def test_composition_modulus_bound_values():
    assert composition_modulus_bound(1.0, 0.0) == 1.0
    assert composition_modulus_bound(2.0 / 9.0, 7.0 / 3.0) == pytest.approx(0.02, abs=1e-15)
    with pytest.raises(ValueError):
        composition_modulus_bound(0.0, 1.0)
    with pytest.raises(ValueError):
        composition_modulus_bound(1.0, -0.5)


def test_transformed_map_keeps_modulus_bound(r5):
    # Composing with the inverse divides the modulus by (1+l)^2 at worst.
    T, _ = to_vi(r5)
    ident = FuncField(1, lambda y: y)
    plan = SamplingPlan(seed=0, count=2000, lo=-15.0, hi=15.0)
    bound = composition_modulus_bound(r5.constants.require("gamma"),
                                      r5.constants.require("l"))
    assert sample_pair_modulus(T, ident, plan) >= bound - 1e-6


def test_sample_pairs_properties():
    plan = SamplingPlan(seed=5, count=300, lo=-2.0, hi=3.0)
    pairs = sample_pairs(plan, 3)
    assert pairs
    for x, y in pairs:
        assert np.all(x >= -2.0) and np.all(x <= 3.0)
        assert np.all(y >= -2.0) and np.all(y <= 3.0)
        assert np.linalg.norm(x - y) >= plan.min_separation
    again = sample_pairs(plan, 3)
    assert all(np.array_equal(x, x2) and np.array_equal(y, y2)
               for (x, y), (x2, y2) in zip(pairs, again))


def test_sampling_plan_validation():
    with pytest.raises(ValueError):
        SamplingPlan(seed=0, count=1)
    with pytest.raises(ValueError):
        SamplingPlan(seed=0, lo=1.0, hi=1.0)


def test_degenerate_plan_raises():
    plan = SamplingPlan(seed=0, count=5, lo=0.0, hi=1e-9)
    with pytest.raises(SamplingError):
        sample_pairs(plan, 2)


PINS = json.loads((Path(__file__).parent / "estimator_pins.json").read_text())


@pytest.mark.parametrize("id_minus,seeds", [(IdMinus, range(32)), (None, range(8))],
                         ids=["IdMinus", "FuncField"])
def test_every_estimator_returns_its_pinned_bits(id_minus, seeds):
    # Every plan seed with w = IdMinus(v), where f and w both batch; the
    # first eight with w a FuncField, where only f batches.
    got = record(id_minus, seeds) if id_minus else record(seeds=seeds)
    assert got["sample_pairs"] == PINS["sample_pairs"]
    assert got["remark5_l_tilde"] == PINS["remark5_l_tilde"]
    for name, rows in PINS["estimators"].items():
        for estimator, values in rows.items():
            assert got["estimators"][name][estimator] == values[:len(seeds)], \
                (name, estimator)


class _Counted:
    """A batch-capable field that counts its point evaluations."""

    def __init__(self, field):
        self.field, self.dim, self.calls = field, field.dim, 0

    def __call__(self, x):
        self.calls += 1
        return self.field(x)

    def evaluate_batch(self, X):
        return self.field.evaluate_batch(X)


def test_screens_evaluate_few_pairs_by_point(ex2, r5):
    f, w = _Counted(ex2.f), _Counted(IdMinus(ex2.v))
    plan = SamplingPlan(seed=3, count=2000)
    assert sample_lipschitz(f, plan) == sample_lipschitz(FuncField(3, ex2.f), plan)
    assert f.calls <= 20
    f.calls = 0
    point = sample_pair_modulus(FuncField(3, ex2.f), FuncField(3, w.field), plan)
    assert sample_pair_modulus(f, w, plan) == point
    assert f.calls <= 20 and w.calls <= 20
    # remark5's l_tilde was pinned with the point loop over all 10k pairs.
    v = _Counted(r5.v)
    bracket = ScalarBracket(v, r5.inverse.bracket, r5.inverse.direction)
    assert bracket.lipschitz().hex() == "0x1.7ffcb904063c4p+0"
    assert v.calls <= 40  # two per pair evaluated by point


def _one_sampled_x(plan, index):
    return float(sample_pairs(plan, 1)[index][0][0])


@pytest.mark.parametrize("make", [
    lambda c: VectorField.from_exprs([f"1 / (x1 - {c!r})"], 1),
    lambda c: VectorField.from_matrix([[2.0]], [f"sin(x1) / (x1 - {c!r})"]),
    lambda c: VectorField.from_exprs([f"sqrt(x1 - {c!r}) + x1"], 1),
], ids=["division", "split-division", "sqrt"])
def test_a_point_error_still_raises_from_the_estimators(make):
    plan = SamplingPlan(seed=4, count=300)
    c = _one_sampled_x(plan, 150)
    f = make(c)
    with pytest.raises(EvalError) as point:
        sample_lipschitz(FuncField(1, f), plan)
    for estimate in (lambda: sample_lipschitz(f, plan),
                     lambda: sample_pair_modulus(f, VectorField.from_exprs(["x1"], 1), plan),
                     lambda: check_pseudo_pair(f, FuncField(1, lambda x: x), plan)):
        with pytest.raises(EvalError) as batched:
            estimate()
        assert str(batched.value) == str(point.value)


def test_an_overflow_at_one_point_still_raises():
    plan = SamplingPlan(seed=5, count=300)
    f = VectorField.from_exprs(["x1^400", "x2"], 2)
    with pytest.raises(EvalError, match="component 1: non-finite value from '\\^'"):
        sample_lipschitz(f, plan)


def test_pseudo_screen_keeps_the_point_loops_witnesses():
    f = VectorField.from_exprs(["-x1 + 0.5*sin(3*x1)"], 1)
    w = VectorField.from_exprs(["x1 + 0.2*cos(x1)"], 1)
    plan = SamplingPlan(seed=6, count=3000)
    batched = check_pseudo_pair(f, w, plan)
    point = check_pseudo_pair(FuncField(1, f), FuncField(1, w), plan)
    assert batched.violations == point.violations > 10
    assert batched.checked == point.checked
    assert len(batched.witnesses) == 10
    for (a, b), (c, d) in zip(batched.witnesses, point.witnesses):
        assert np.array_equal(a, c) and np.array_equal(b, d)


class _Perturbed:
    """A field whose batch values are off by up to a tenth of the bound that
    batch evaluation promises: the screens must still find the point result."""

    def __init__(self, field, seed):
        self.field, self.dim = field, field.dim
        self.rng = np.random.default_rng(seed)

    def __call__(self, x):
        return self.field(x)

    def evaluate_batch(self, X):
        values, magnitude = self.field.evaluate_batch(X)
        noise = self.rng.uniform(-1.0, 1.0, values.shape) / values.shape[0]
        return values + 0.1 * _MARGIN * magnitude * noise, magnitude


@pytest.mark.parametrize("seed", range(4))
def test_screens_survive_batch_values_off_by_their_bound(seed):
    # Every pair's ratio is the same up to rounding (|A d| = 5 |d| and
    # <A d, B d> = 6 |d|^2), so a screen that trusted the batch's ranking
    # would pick the wrong pair.
    plan = SamplingPlan(seed=seed, count=400)
    A = VectorField.from_matrix([[3.0, -4.0], [4.0, 3.0]])
    B = VectorField.from_matrix([[2.0, 0.0], [0.0, 2.0]])
    point_a, point_b = FuncField(2, A), FuncField(2, B)
    a, b = _Perturbed(A, seed), _Perturbed(B, seed + 10)
    assert sample_lipschitz(a, plan) == sample_lipschitz(point_a, plan)
    assert sample_pair_modulus(a, b, plan) == sample_pair_modulus(point_a, point_b, plan)
    assert sample_pair_modulus(a, point_b, plan) == \
        sample_pair_modulus(point_a, point_b, plan)
    v = VectorField.from_exprs(["-0.5*x1"], 1)
    batched = ScalarBracket(_Perturbed(v, seed), (-20.0, 20.0), "increasing")
    point = ScalarBracket(FuncField(1, v), (-20.0, 20.0), "increasing")
    assert batched.lipschitz(seed, 400) == point.lipschitz(seed, 400)


@pytest.mark.parametrize("seed", range(4))
def test_pseudo_screen_recomputes_products_at_the_threshold(seed):
    # f(x) = x - x is exactly zero by point, so every inner product sits on
    # the threshold; perturbed batch values must not decide any pair.
    zero = VectorField.from_matrix(np.eye(2), ["-x1", "-x2"])
    w = VectorField.from_matrix(np.eye(2))
    plan = SamplingPlan(seed=seed, count=300)
    report = check_pseudo_pair(_Perturbed(zero, seed), _Perturbed(w, seed + 1), plan,
                               slack=0.0)
    assert report.violations == 0 and report.checked == 600


@pytest.mark.parametrize("w_bad,f_bad,first", [
    ((7, 40), None, "early"),
    ((7, 2100), None, "early"),
    ((7,), 2100, "early"),
    ((2100,), 7, "division by zero"),
], ids=["one-batch", "two-batches", "w-first", "f-first"])
def test_the_first_error_in_pair_order_is_raised(ex1, w_bad, f_bad, first):
    # A point-only w raises at the pairs w_bad (the first "early"), a
    # batch-capable f divides by zero at pair f_bad; 2500 pairs span three
    # screening batches.
    plan = SamplingPlan(seed=8, count=2500)
    pairs = sample_pairs(plan, 2)
    bad = {pairs[i][1].tobytes(): name for i, name in zip(w_bad, ("early", "late"))}
    f = ex1.f
    if f_bad is not None:
        c = float(pairs[f_bad][0][0])
        f = VectorField.from_matrix(ex1.f.matrix, ["cos(x2)^3", f"1 / (x1 - ({c!r}))"])

    def w(x):
        if x.tobytes() in bad:
            raise EvalError(bad[x.tobytes()])
        return x - ex1.v(x)

    for field in (f, FuncField(2, f)):
        with pytest.raises(EvalError, match=first):
            sample_pair_modulus(field, FuncField(2, w), plan)
        with pytest.raises(EvalError, match=first):
            check_pseudo_pair(field, FuncField(2, w), plan)


def test_numpy_sin_and_cos_are_the_math_functions_here():
    # Batched expression values equal point values bit for bit when they do;
    # the screens' margin covers an ulp, not a cancellation that amplifies one.
    x = np.random.default_rng(9).uniform(-1e3, 1e3, 20_000)
    assert np.array_equal(np.sin(x), [math.sin(t) for t in x.tolist()])
    assert np.array_equal(np.cos(x), [math.cos(t) for t in x.tolist()])
