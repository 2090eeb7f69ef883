import dataclasses
import gc
import json
import math
import pickle
import weakref
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qvikit.analysis import (
    _MARGIN,
    SamplingPlan,
    _norm,
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
from qvikit import analysis
from qvikit.errors import EvalError, SamplingError
from qvikit.inverse import ScalarBracket
from qvikit.model import FuncField, IdMinus, VectorField, to_vi
from qvikit.problems import get_builtin
from qvikit.solvers import auto_step, resolve_constant, tseng_auto_step

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
    bound = composition_modulus_bound(resolve_constant(r5, "gamma")[0],
                                      resolve_constant(r5, "l")[0])
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
    # A box the draw cannot scale into (inf, or an inf hi - lo) is refused.
    for lo, hi in ((-np.inf, 1.0), (0.0, np.inf), (np.nan, 1.0), (-1e308, 1e308)):
        with pytest.raises(ValueError, match="finite"):
            SamplingPlan(seed=0, lo=lo, hi=hi)


@pytest.mark.parametrize("count", [2.5, 3.0, np.float64(3.0), True, False, np.True_,
                                   "3", None])
def test_sampling_plan_count_must_be_an_integer(count):
    with pytest.raises(ValueError, match="count must be an integer"):
        SamplingPlan(seed=0, count=count)


@pytest.mark.parametrize("field,value", [
    ("seed", 2.5), ("seed", -1), ("seed", True), ("seed", np.True_), ("seed", "3"),
    ("seed", None), ("seed", [1, -2]), ("seed", [1, 2.0]), ("seed", (True,)),
    ("seed", np.random.default_rng(5)),
    ("min_separation", None), ("min_separation", math.nan), ("min_separation", -1.0),
    ("min_separation", math.inf), ("min_separation", True), ("min_separation", "1e-6"),
    ("min_separation", 1j)])
def test_sampling_plan_rejects_a_bad_seed_or_min_separation(field, value):
    with pytest.raises(ValueError, match=field):
        SamplingPlan(**{"seed": 0, field: value})


@pytest.mark.parametrize("field,value", [
    ("lo", False), ("hi", True), ("lo", np.True_), ("hi", "3"), ("lo", "-1"), ("lo", None),
    ("hi", 1j), ("hi", np.complex128(3)), ("lo", [0.0]), ("hi", np.array(3.0))])
def test_sampling_plan_rejects_a_bool_or_non_real_bound(field, value):
    with pytest.raises(ValueError, match=f"{field} must be a real number"):
        SamplingPlan(**{"seed": 0, field: value})


@pytest.mark.parametrize("lo,hi", [(-1, 3), (np.int64(-1), np.float32(2.5)),
                                   (Fraction(-1, 2), 0.5), (np.float64(0.0), 2**70)])
def test_sampling_plan_takes_real_bounds(lo, hi):
    pairs = sample_pairs(SamplingPlan(seed=0, count=20, lo=lo, hi=hi), 2)
    assert all(lo <= min(p.min() for p in pair) and max(p.max() for p in pair) <= hi
               for pair in pairs)


@pytest.mark.parametrize("seed", [np.int64(3), np.uint8(3), 2**70, [1, 2], (3, np.int32(4)), [],
                                  np.random.SeedSequence(5)])
@pytest.mark.parametrize("min_separation", [0, 0.0, np.float32(1e-3), np.int64(1)])
def test_sampling_plan_takes_every_kind_of_seed(seed, min_separation):
    plan = SamplingPlan(seed=seed, count=20, min_separation=min_separation)
    assert sample_pairs(plan, 2)


@pytest.mark.parametrize("count", [np.int64(3), np.int32(3), np.uint8(3)])
def test_sampling_plan_takes_numpy_integer_counts(count):
    plan = SamplingPlan(seed=0, count=count)
    assert _pairs_or_error(sample_pairs, plan, 2) \
        == _pairs_or_error(reference_pairs, SamplingPlan(seed=0, count=3), 2)


def test_degenerate_plan_raises():
    plan = SamplingPlan(seed=0, count=5, lo=0.0, hi=1e-9)
    with pytest.raises(SamplingError):
        sample_pairs(plan, 2)


def reference_pairs(plan, dim):
    """The per-pair loop that drew the plans before the fused draw: the
    reference for the pairs of sample_pairs, bit for bit."""
    rng = np.random.default_rng(plan.seed)
    lo, hi = plan.lo, plan.hi
    step = 1e-3 * (hi - lo)
    pairs = []
    for _ in range(plan.count):
        x = rng.uniform(lo, hi, dim)
        if rng.uniform() < 0.5:
            y = rng.uniform(lo, hi, dim)
        else:
            u = rng.normal(size=dim)
            nu = _norm(u)
            if nu == 0.0:
                continue
            # np.clip(..., lo, hi) bit for bit, for less.
            y = np.minimum(np.maximum(x + step * u / nu, lo), hi)
        if _norm(x - y) >= plan.min_separation:
            pairs.append((x, y))
    if not pairs:
        raise SamplingError("sampling plan produced no usable pairs")
    return pairs


def _pairs_or_error(draw, plan, dim):
    try:
        # The widest boxes overflow |x - y|^2 to inf, which keeps the pair.
        with np.errstate(over="ignore"):
            return [(x.tobytes(), y.tobytes()) for x, y in draw(plan, dim)]
    except SamplingError as exc:
        return str(exc)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 4),
       count=st.integers(2, 600), lo=st.floats(-1e3, 1e3),
       width=st.sampled_from([1e-12, 1e-9, 1e-5, 1.0, 20.0, 1e6, 1e150, 1e300])
       | st.floats(1e-12, 1e3),
       min_separation=st.sampled_from([0.0, 1e-12, 1e-8, 1e-6, 1e-3, 1.0])
       | st.floats(0.0, 1e4))
def test_sample_pairs_is_the_reference_loop(seed, dim, count, lo, width, min_separation):
    assume(lo + width > lo)
    plan = SamplingPlan(seed=seed, count=count, lo=lo, hi=lo + width,
                        min_separation=min_separation)
    assert _pairs_or_error(sample_pairs, plan, dim) \
        == _pairs_or_error(reference_pairs, plan, dim)


@pytest.mark.parametrize("seed", range(4))
def test_a_min_separation_at_a_pair_distance_is_decided_as_the_reference(seed):
    # Row sums of squares and _norm differ in the last bit for about one
    # pair in ten in 3-D; a threshold at such a pair's distance is decided
    # by _norm, as the reference loop decides it.
    base = SamplingPlan(seed=seed, count=200, min_separation=0.0)
    split = [_norm(x - y) for x, y in reference_pairs(base, 3)
             if np.sqrt(((x - y) ** 2).sum()) != _norm(x - y)]
    assert split
    for d in split[:5]:
        for ms in (d, math.nextafter(d, 0.0), math.nextafter(d, math.inf)):
            plan = SamplingPlan(seed=seed, count=200, min_separation=ms)
            assert _pairs_or_error(sample_pairs, plan, 3) \
                == _pairs_or_error(reference_pairs, plan, 3)


def test_sampled_pairs_are_read_only():
    pairs = sample_pairs(SamplingPlan(seed=4, count=50), 2)
    assert all(not x.flags.writeable and not y.flags.writeable for x, y in pairs)
    with pytest.raises(ValueError):
        pairs[0][0][0] = 1.0


def _counted_draws(monkeypatch):
    """The list of the (plan, dim) of every fresh draw from now on."""
    draws, draw = [], analysis._draw

    def counted(plan, dim):
        draws.append((plan, dim))
        return draw(plan, dim)
    monkeypatch.setattr(analysis, "_draw", counted)
    return draws


@pytest.mark.parametrize("name,step,calls", [
    ("example1", auto_step, 2), ("example2", auto_step, 2),
    ("example3", auto_step, 2), ("example3", tseng_auto_step, 1)])
def test_a_sampled_step_draws_once(monkeypatch, name, step, calls):
    problem, asked = get_builtin(name), []

    def logged(plan, dim):
        asked.append((plan, dim))
        return sample_pairs(plan, dim)
    monkeypatch.setattr(analysis, "sample_pairs", logged)
    draws = _counted_draws(monkeypatch)
    plan = SamplingPlan(seed=11, count=500)
    h = step(problem, plan)
    assert (len(asked), len(draws)) == (calls, 1)
    # The plan keeps its draw; an equal plan draws the same bits anew.
    assert step(problem, plan) == h and len(draws) == 1
    assert step(problem, SamplingPlan(seed=np.int64(11), count=500)) == h
    assert len(draws) == 2


def _chunk_sizes(plan, dim):
    n = len(sample_pairs(plan, dim))
    return [min(analysis._CHUNK, n - start) for start in range(0, n, analysis._CHUNK)]


@pytest.mark.parametrize("name", ["example1", "example2", "example3"])
def test_a_sampled_step_evaluates_f_once_per_chunk(monkeypatch, name):
    # gamma and L screen f on the same draw: each chunk's X and Y once.
    problem, sizes = get_builtin(name), []
    batch = VectorField.evaluate_batch

    def counted(field, X):
        if field is problem.f:
            sizes.append(X.shape[1])
        return batch(field, X)
    monkeypatch.setattr(VectorField, "evaluate_batch", counted)
    _counted_draws(monkeypatch)
    plan = SamplingPlan(seed=12, count=2500)
    auto_step(problem, plan)
    chunks = _chunk_sizes(plan, problem.dim)
    assert len(chunks) == 3
    assert sizes == [n for n in chunks for _ in "XY"]


@pytest.mark.parametrize("edit", [
    lambda pairs: pairs.__setitem__(slice(None), [(x / 2 + 1.0, y / 2) for x, y in pairs]),
    lambda pairs: pairs.reverse(),
    lambda pairs: pairs.__setitem__(slice(1, -1), pairs[-2:0:-1]),
    lambda pairs: list(reversed(pairs)),
], ids=["hand-built", "reversed", "reversed-inside", "reversed-copy"])
def test_screens_of_pairs_other_than_the_draws_rows_give_the_point_bits(monkeypatch, ex3,
                                                                        edit):
    # The estimators get sample_pairs' list edited in place (or a copy), as
    # many pairs as the draw: a screen that read the draw's arrays for them
    # would keep the wrong pairs.
    draw = sample_pairs

    def edited(plan, dim):
        pairs = draw(plan, dim)
        return edit(pairs) or pairs
    monkeypatch.setattr(analysis, "sample_pairs", edited)
    plan = SamplingPlan(seed=7, count=2500)
    f, w = ex3.f, IdMinus(ex3.v)
    point_f, point_w = FuncField(3, f), FuncField(3, w)
    assert sample_lipschitz(f, plan) == sample_lipschitz(point_f, plan)
    assert sample_pair_modulus(f, w, plan) == sample_pair_modulus(point_f, point_w, plan)
    # A pair with hundreds of violations, so the witnesses tell pairs apart.
    w = VectorField.from_exprs(["-x1 + 0.5*sin(3*x2)", "x2", "x3*cos(x1)"], 3)
    batched = check_pseudo_pair(f, w, plan)
    point = check_pseudo_pair(point_f, FuncField(3, w), plan)
    assert batched.violations == point.violations > 100
    assert [a.tobytes() + b.tobytes() for a, b in batched.witnesses] == \
        [a.tobytes() + b.tobytes() for a, b in point.witnesses]


def test_a_plan_draws_once_per_dimension(monkeypatch):
    draws = _counted_draws(monkeypatch)
    a, b = SamplingPlan(seed=21, count=300), SamplingPlan(seed=[22], count=300)
    for plan, dim in [(a, 2), (a, 3), (b, 2), (a, 2), (b, 3), (a, 3)]:
        want = _pairs_or_error(reference_pairs, plan, dim)
        for _ in range(2):
            assert _pairs_or_error(sample_pairs, plan, dim) == want
    assert draws == [(a, 2), (a, 3), (b, 2), (b, 3)]


def test_each_plan_draws_its_own_bits(monkeypatch):
    draws = _counted_draws(monkeypatch)
    # Equal but distinct plans draw separately, with the same bits.
    twins = [SamplingPlan(seed=seed, count=300) for seed in (3, 3, np.int64(3))]
    got = [_pairs_or_error(sample_pairs, plan, 2) for plan in twins]
    assert got == [_pairs_or_error(reference_pairs, twins[0], 2)] * 3
    assert draws == [(plan, 2) for plan in twins]
    # Equal plans whose signed zeros draw different bits.
    plus, minus = (SamplingPlan(seed=3, count=4000, lo=lo, hi=1.0) for lo in (0.0, -0.0))
    assert plus == minus
    got = [_pairs_or_error(sample_pairs, plan, 2) for plan in (plus, minus)]
    assert got[0] != got[1]
    assert got == [_pairs_or_error(reference_pairs, plan, 2) for plan in (plus, minus)]
    # float32 bounds draw other bits than the floats they equal.
    single = SamplingPlan(seed=1, count=300, lo=np.float32(0.1), hi=np.float32(0.7))
    double = SamplingPlan(seed=1, count=300, lo=float(single.lo), hi=float(single.hi))
    got = [_pairs_or_error(sample_pairs, plan, 2) for plan in (double, single)]
    assert got[0] != got[1]
    assert got == [_pairs_or_error(reference_pairs, plan, 2) for plan in (double, single)]
    # A Generator moves on with each draw, so no plan takes one.
    with pytest.raises(ValueError, match=r"seed Generator\(PCG64\)"):
        SamplingPlan(seed=np.random.default_rng(5))


class _BatchedFuncField(FuncField):
    """A FuncField with a batch form, so the screens keep its values."""

    def evaluate_batch(self, X):
        return np.column_stack([self(x) for x in X.T]), np.zeros(X.shape[1])


def test_a_plan_is_its_five_fields():
    plan, twin = SamplingPlan(seed=5, count=300), SamplingPlan(seed=5, count=300)
    f = _BatchedFuncField(2, lambda x: 2.0 * x)
    assert sample_lipschitz(f, plan) == 2.0
    assert all(id(f) in fields for fields in sample_pairs(plan, 2).draw[0][2].values())
    with pytest.raises((AttributeError, pickle.PicklingError)):
        pickle.dumps(f)
    # The draws and the values kept on them are not part of the plan's value.
    assert (plan, hash(plan), repr(plan)) == (twin, hash(twin), repr(twin))
    assert repr(plan) == ("SamplingPlan(seed=5, count=300, lo=-10.0, hi=10.0, "
                          "min_separation=1e-06)")
    copy = pickle.loads(pickle.dumps(plan))
    assert copy == plan and copy._draws == {}
    assert _pairs_or_error(sample_pairs, copy, 2) == _pairs_or_error(sample_pairs, plan, 2)


def test_a_returned_list_is_the_callers_own(monkeypatch):
    draws = _counted_draws(monkeypatch)
    plan = SamplingPlan(seed=4, count=50)
    want = _pairs_or_error(reference_pairs, plan, 2)
    pairs = sample_pairs(plan, 2)
    pairs.append(pairs[0])
    pairs[1] = (np.zeros(2), np.zeros(2))
    sample_pairs(plan, 2).clear()
    again = sample_pairs(plan, 2)
    assert [(x.tobytes(), y.tobytes()) for x, y in again] == want
    assert len(draws) == 1
    assert all(not x.flags.writeable and not y.flags.writeable for x, y in again)
    with pytest.raises(ValueError):
        again[0][0][0] = 1.0
    with pytest.raises(ValueError):
        again[0][1].flags.writeable = True


def test_the_memo_keeps_no_rows_of_a_dropped_list():
    # It keeps the draw's arrays and batch values, not the row objects: a
    # 10k-pair list's would hold about 3 MB for the life of the process.
    pairs = sample_pairs(SamplingPlan(seed=4, count=50), 2)
    row = weakref.ref(pairs[0][0])
    del pairs
    gc.collect()
    assert row() is None


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
    bracket = ScalarBracket(v, r5.inverse.bracket)
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
        self.field, self.dim, self.batches = field, field.dim, 0
        self.rng = np.random.default_rng(seed)

    def __call__(self, x):
        return self.field(x)

    def evaluate_batch(self, X):
        self.batches += 1
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
    batched = ScalarBracket(_Perturbed(v, seed), (-20.0, 20.0))
    point = ScalarBracket(FuncField(1, v), (-20.0, 20.0))
    assert batched.lipschitz(seed, 400) == point.lipschitz(seed, 400)


@pytest.mark.parametrize("seed", range(4))
def test_batch_values_kept_for_gamma_serve_l(monkeypatch, seed):
    # auto_step screens f for gamma, then for L, on one draw: a perturbed
    # f is batch-evaluated once per chunk and still gives the point step.
    _counted_draws(monkeypatch)
    problem = get_builtin("example2")
    f = _Perturbed(problem.f, seed)
    plan = SamplingPlan(seed=seed, count=2500)
    h = auto_step(dataclasses.replace(problem, f=f), plan)
    assert h == auto_step(dataclasses.replace(problem, f=FuncField(3, problem.f)), plan)
    assert f.batches == 2 * len(_chunk_sizes(plan, 3)) == 6


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
