import importlib.machinery
import math
import os
import pickle
import subprocess
import sys
import time
import types
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.linalg import norm
from scipy.linalg import LinAlgWarning, lu_factor, lu_solve

import qvikit.inverse as inverse

from qvikit.errors import (
    BracketingFailure,
    ConfigError,
    EvalError,
    NoConvergence,
    SingularLinearPart,
)
from qvikit.inverse import (
    _FIRST_CHUNK,
    _LU,
    LinearExact,
    PicardContraction,
    ScalarBracket,
    Semilinear,
    _all_finite,
    _norm,
    _verify,
    invert,
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
    assert _sine_picard(0.5).lipschitz() == 2.0


def test_linear_exact_identity_lipschitz():
    assert LinearExact(np.zeros((3, 3))).lipschitz() == 1.0


def test_linear_exact_lipschitz_matches_svd(ex2):
    want = 1.0 / np.linalg.svd(np.eye(3) - ex2.inverse.V, compute_uv=False).min()
    got = ex2.inverse.lipschitz()
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
        bound = spec.lipschitz() + 1e-6
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
    bound = spec.lipschitz() + 1e-6
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
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for bad in ([np.nan, 1.0], [1.0, np.inf], [-np.inf, np.inf]):
            with pytest.raises(ValueError, match="infs or NaNs"):
                lu.solve(np.array(bad))
        # Finite entries whose squares overflow are a valid right-hand side.
        huge = np.array([1e200, -3e200])
        assert lu.solve(huge).tobytes() == lu_solve((lu.lu, lu.piv), huge).tobytes()


@pytest.mark.parametrize("a", [
    np.empty(0), np.empty((0, 3)), np.array(2.0), np.array(np.nan), np.array([1e308, -1e308]),
    np.array([1.0, np.nan]), np.array([-np.inf]), np.zeros((2, 3)),
    np.array([[1.0, 2.0], [np.inf, 0.0]]), np.array([[np.nan]]).T,
], ids=lambda a: f"{a.shape}-{a.tolist()}")
def test_all_finite_gives_numpys_verdict_without_warnings(a):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _all_finite(a) is bool(np.isfinite(a).all())


# Entries that stress a sum screen or a squared norm: non-finite values,
# signed zeros, subnormals and magnitudes whose sums or squares overflow.
_SPECIALS = [np.inf, -np.inf, np.nan, 0.0, -0.0, 5e-324, -2.5e-310, 1e-160,
             1e154, -1e154, 1.7e308, -1.7e308]
_ENTRY = st.one_of(st.floats(-10.0, 10.0), st.sampled_from(_SPECIALS))


@settings(max_examples=200, deadline=None)
@given(shape=st.sampled_from([(0,), (1,), (3,), (8,), (0, 3), (2, 3), (3, 1), (2, 2, 2)]),
       entries=st.lists(_ENTRY, min_size=8, max_size=8))
def test_all_finite_by_its_sum_is_numpys_verdict(shape, entries):
    a = np.array(entries[:math.prod(shape)]).reshape(shape)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _all_finite(a) is bool(np.isfinite(a).all())


def _regular_matrices():
    """Random and ill-scaled square matrices, none numerically singular."""
    rng = np.random.default_rng(7)
    for n in range(1, 7):
        for _ in range(20):
            A = rng.standard_normal((n, n))
            yield A
            rows = 10.0 ** rng.integers(-3, 4, size=(n, 1))
            yield A * rows * 10.0 ** rng.integers(-290, 291)


_SINGULAR = [
    np.zeros((1, 1)),
    np.zeros((3, 3)),
    np.array([[1.0, 2.0], [2.0, 4.0]]),
    np.outer([1.0, -2.0, 3.0], [4.0, 5.0, -6.0]),
    np.array([[2.0, 1.0, 0.0], [4.0, 2.0, 0.0], [1.0, 1.0, 0.0]]),
]


def _assert_lu_matches_scipy():
    for A in _regular_matrices():
        lu, piv = lu_factor(A)
        got = _LU(A, "A")
        assert got.lu.tobytes() == lu.tobytes()
        assert got.piv.tobytes() == piv.tobytes()
    for A in _SINGULAR:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", LinAlgWarning)
            lu, piv = lu_factor(A)
        got_lu, got_piv, info = inverse.dgetrf(A)
        assert info > 0
        assert got_lu.tobytes() == lu.tobytes() and got_piv.tobytes() == piv.tobytes()
        with pytest.raises(SingularLinearPart, match="A is numerically singular"):
            _LU(A, "A")


def test_lu_factors_match_scipy_bit_for_bit():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _assert_lu_matches_scipy()


def test_lu_factorization_rejects_non_finite_matrices():
    for bad in ([[np.nan]], [[1.0, np.inf], [0.0, 1.0]]):
        with pytest.raises(ValueError, match="infs or NaNs"):
            _LU(np.array(bad), "A")


def test_lapack_fallback_import_gives_the_same_routines(monkeypatch):
    name = "scipy.linalg._flapack"
    searched = []

    def find_spec(fullname, path=None, target=None):
        searched.append((fullname, path))
        return None

    # The import system keeps its own PathFinder; only the direct load misses.
    monkeypatch.setattr(importlib.machinery, "PathFinder",
                        types.SimpleNamespace(find_spec=find_spec))
    monkeypatch.delitem(sys.modules, name)
    monkeypatch.setattr(scipy.linalg, "_flapack", scipy.linalg._flapack)
    module = inverse._flapack()
    assert searched and searched[0][0] == name
    assert sys.modules[name] is module
    monkeypatch.setattr(inverse, "dgetrf", module.dgetrf)
    monkeypatch.setattr(inverse, "dgetrs", module.dgetrs)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _assert_lu_matches_scipy()
    A = np.array([[4.0, 1.0, 0.5], [2.0, 3.0, -1.0], [0.0, 1e-3, 2.0]])
    b = np.array([1.0, -2.0, 3e5])
    assert _LU(A, "A").solve(b).tobytes() == lu_solve(lu_factor(A), b).tobytes()


def _run_fresh(code):
    src = str(Path(inverse.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
    run = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr


def test_import_loads_lapack_without_scipy_linalg():
    _run_fresh("""
import sys
import numpy as np
import qvikit
import qvikit.inverse as inverse
for name in qvikit.BUILTINS:
    qvikit.get_builtin(name)
assert "scipy.linalg" not in sys.modules, "scipy.linalg was imported"
assert "scipy.linalg._flapack" not in sys.modules, "stray extension entry"
import scipy.linalg
from scipy.linalg import lapack
assert lapack.dgetrf is inverse.dgetrf and lapack.dgetrs is inverse.dgetrs
A = np.array([[4.0, 1.0], [2.0, 3.0]])
lu, piv = scipy.linalg.lu_factor(A)
assert lu.tobytes() == inverse._LU(A, "A").lu.tobytes()
assert np.allclose(A @ scipy.linalg.lu_solve((lu, piv), [1.0, 2.0]), [1.0, 2.0])
""")


def test_import_after_scipy_linalg_takes_its_lapack_module():
    _run_fresh("""
import sys
import scipy.linalg
import qvikit.inverse as inverse
assert sys.modules["scipy.linalg._flapack"] is scipy.linalg._flapack
assert inverse.dgetrf is scipy.linalg.lapack.dgetrf
""")


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


@pytest.mark.parametrize("builtin,strategy", [
    ("ex1", LinearExact), ("ex2", LinearExact), ("ex3", Semilinear)])
def test_a_list_and_an_array_invert_alike(builtin, strategy, request):
    # The solvers hand LinearExact and Semilinear a list of floats: it gives
    # the array's result bits, check record and errors.
    spec = request.getfixturevalue(builtin).inverse
    assert type(spec) is strategy
    dim = spec.V.shape[0] if strategy is LinearExact else spec.A.shape[0]

    def outcome(y):
        got = _outcome(type(spec).invert, spec, y, False)[0]
        return got, got[0] == "x" and tuple(a.tobytes() for a in spec.checked)

    rng = np.random.default_rng(13)
    points = [rng.uniform(-60.0, 60.0, dim) for _ in range(200)]
    points += [np.full(dim, 1e308)]  # finite, but its float sum overflows
    for bad in (np.nan, -np.inf):
        point = rng.uniform(-1.0, 1.0, dim)
        point[-1] = bad
        points.append(point)
    for y in points:
        assert outcome(y.tolist()) == outcome(y)
    for bad in points[-2:]:
        assert outcome(bad.tolist())[0][0] == "NoConvergence"
    long = np.zeros(dim + 1)
    assert outcome(long.tolist()) == outcome(long) == (
        ("ValueError", f"dimension mismatch: ({dim + 1},) vs ({dim},)"), False)


def reference_picard(spec, y, inner_log=None):
    """The loop that tested every Picard step before the chunked test: the
    reference for PicardContraction.invert, bit for bit."""
    y = inverse._point(y, getattr(spec.v_map, "dim", None))
    # The evaluator the loop had: a field's evaluate, else the call itself.
    v = (getattr(spec.v_map, "evaluate", None)
         or (lambda x: np.asarray(spec.v_map(x), float)))
    x = y.copy()
    for _ in range(spec.max_inner):
        xn = y + v(x)
        step = _norm(xn - x)
        if inner_log is not None:
            inner_log.append(step)
        x = xn
        if step <= spec.inner_tol:
            break
    return _verify(spec, x, v(x), y)


def _outcome(fn, spec, y, traced):
    """(x or the raised error, the inner_log) of one invert, as bit strings."""
    log = [] if traced else None
    with np.errstate(all="ignore"):
        try:
            got = ("x", np.asarray(fn(spec, y, log)).tobytes())
        except NoConvergence as exc:
            got = ("NoConvergence", float.hex(exc.achieved), str(exc))
        except Exception as exc:  # any other error must match as well
            got = (type(exc).__name__, str(exc))
    return got, None if log is None else [float.hex(s) for s in log]


def _picard_field(kind, dim, entries, scale, offsets):
    M = np.reshape(entries[:dim * dim], (dim, dim))
    M = M * (scale / max(np.linalg.norm(M, 2), 1e-300))
    if kind == "linear":
        return VectorField.from_matrix(M)
    if kind == "callable":
        return lambda x: M @ x
    # A remainder of slope at most scale * 0.3 / dim per component, or, for
    # "explode", a square that raises EvalError once it overflows.
    term = ("{c!r}*x{j}*x{j}" if kind == "explode" else "{c!r}*sin(x{j} + {o!r})")
    texts = [term.format(c=0.3 * scale / dim, j=i % dim + 1, o=offsets[i])
             for i in range(dim)]
    return VectorField.from_matrix(0.7 * M, texts)


_STEPS = st.sampled_from([1, 2, _FIRST_CHUNK - 1, _FIRST_CHUNK, _FIRST_CHUNK + 1,
                          3 * _FIRST_CHUNK, 100])


@settings(max_examples=400, deadline=None)
@given(dim=st.integers(1, 4),
       kind=st.sampled_from(["linear", "callable", "expression", "explode"]),
       entries=st.lists(st.floats(-1, 1), min_size=16, max_size=16),
       offsets=st.lists(st.floats(-3, 3), min_size=4, max_size=4),
       scale=st.sampled_from([0.0, 0.3, 0.85, 0.99, 1.5, 1e3]),
       y=st.lists(st.floats(-10, 10), min_size=4, max_size=4),
       y_scale=st.sampled_from([1.0, 1e-150, 1e-170, 1e150]),
       tol=st.sampled_from([1e-160, 1e-12, 1e-3]),
       max_inner=_STEPS, near_stop=st.sampled_from([None, -1, 0, 1]),
       hint=st.sampled_from([0, 1, 7, 8, 9, "stop-1", "stop", "stop+1", "max_inner", 10**6]))
def test_picard_invert_matches_the_reference_loop(dim, kind, entries, offsets, scale,
                                                   y, y_scale, tol, max_inner, near_stop,
                                                   hint):
    spec = PicardContraction(_picard_field(kind, dim, entries, scale, offsets), 0.5,
                             inner_tol=tol, max_inner=2000)
    point = np.array(y[:dim]) * y_scale
    if near_stop is not None:
        # max_inner just below, at or just above the step the loop stops on.
        max_inner = max(1, len(_outcome(reference_picard, spec, point, True)[1])
                        + near_stop)
    spec.max_inner = max_inner
    want = _outcome(reference_picard, spec, point, True)
    # The step count a previous invert left on the spec, the first chunk's
    # length: near the stop, at max_inner or far past both.
    stop = len(want[1])
    if isinstance(hint, str):
        hint = {"stop-1": stop - 1, "stop": stop, "stop+1": stop + 1,
                "max_inner": max_inner}[hint]
    for traced in (True, False):
        spec._steps = hint
        got = _outcome(PicardContraction.invert, spec, point, traced)
        assert got == (want if traced else (want[0], None))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(dim=st.integers(1, 4), kind=st.sampled_from(["linear", "expression", "callable"]),
       entries=st.lists(st.floats(-1, 1), min_size=16, max_size=16),
       offsets=st.lists(st.floats(-3, 3), min_size=4, max_size=4),
       scale=st.sampled_from([0.0, 0.3, 0.85, 0.99, 1.5, 1e3]),
       tol=st.sampled_from([1e-160, 1e-12, 1e-3]),
       runs=st.lists(st.tuples(st.lists(st.floats(-10, 10), min_size=4, max_size=4),
                               st.sampled_from([1.0, 1e-150, 1e150]),
                               st.sampled_from([1, 2, 7, 8, 9, 24, 100, 1000, "stop-1"]),
                               st.sampled_from([0, 1, 7, 9, 100, 600, 10**6])),
                     min_size=2, max_size=3))
# Two inverts that end a step short of their stop, in the same rows: each
# passes its check on the last row the chunk wrote.
@example(dim=2, kind="linear", entries=[0.3, 0.1, 0.0, 0.2] + [0.0] * 12,
         offsets=[0.0] * 4, scale=0.3, tol=1e-12,
         runs=[([1.0, 2.0, 0.0, 0.0], 1.0, "stop-1", 10**6),
               ([2.0, 1.0, 0.0, 0.0], 1.0, "stop-1", 10**6)])
def test_picard_inverts_in_a_row_keep_their_results(dim, kind, entries, offsets, scale, tol,
                                                     runs):
    # Inverts on one spec step in the rows of one buffer, whatever the kind
    # of v, which grows to the longest chunk: each matches the reference
    # loop, and a later invert changes no byte of an earlier one's x or
    # check record. A pickled copy of the spec, buffer and all, inverts
    # alike; a callable (a lambda) does not pickle.
    spec = PicardContraction(_picard_field(kind, dim, entries, scale, offsets), 0.5,
                             inner_tol=tol)
    cases, kept = [], []
    for y, y_scale, max_inner, hint in runs:
        point = np.array(y[:dim]) * y_scale
        if max_inner == "stop-1":  # ends a step short of the stop, and may pass the check
            spec.max_inner = 2000
            max_inner = max(1, len(_outcome(reference_picard, spec, point, True)[1]) - 1)
        spec.max_inner = max_inner
        cases.append((point, max_inner, hint, _outcome(reference_picard, spec, point, True)))

    def keeping(spec, y, log):
        x = PicardContraction.invert(spec, y, log)
        kept.append((x, x.tobytes(), spec.checked, [a.tobytes() for a in spec.checked]))
        return x

    for copy in (False, True) if kind != "callable" else (False,):
        if copy:
            spec = pickle.loads(pickle.dumps(spec))
        for point, max_inner, hint, want in cases:
            spec.max_inner = max_inner
            for traced in (True, False):
                spec._steps = hint
                got = _outcome(keeping, spec, point, traced)
                assert got == (want if traced else (want[0], None))
    for x, x_bytes, checked, checked_bytes in kept:
        assert x.tobytes() == x_bytes
        assert [a.tobytes() for a in checked] == checked_bytes


def test_picard_screen_leaves_few_exact_norms(monkeypatch):
    spec = PicardContraction(VectorField.from_matrix([[-0.2, -0.4], [-0.4, -0.6]]), 0.85)
    y = np.array([5.0, -3.0])
    log = []
    want = invert(spec, y, inner_log=log)
    calls = []

    def counting_norm(u):
        calls.append(1)
        return _norm(u)

    monkeypatch.setattr(inverse, "_norm", counting_norm)
    assert invert(spec, y).tobytes() == want.tobytes()
    assert len(log) > 100
    assert len(calls) <= 5  # the exact test at the stop, then _verify


@settings(max_examples=200, deadline=None)
@given(dim=st.integers(1, 8), seed=st.integers(0, 2**32 - 1),
       special=st.sampled_from([0.0, 0.05, 0.3]),
       tol=st.sampled_from([-1.0, 0.0, 1e-160, 1e-12, 1.0, 1e200]))
def test_stacked_step_norms_are_the_norm_helpers_row_by_row(dim, seed, special, tol):
    # _first_stop takes every step norm from one stacked matmul over the
    # rows of the iterates: each must be _norm's bits, or a NumPy release
    # that breaks it fails here.
    rng = np.random.default_rng(seed)
    with np.errstate(all="ignore"):
        X = rng.standard_normal((60, dim)) * 10.0 ** rng.integers(-320, 309, (60, 1))
        mask = rng.random(X.shape) < special
        X[mask] = rng.choice(_SPECIALS, mask.sum())
        norms = [_norm(b - a) for a, b in zip(X, X[1:])]
        log = []
        stop, squares = inverse._first_stop(X, tol, log)
    want = next((i + 1 for i, n in enumerate(norms) if n <= tol), None)
    assert (stop, list(map(float.hex, log))) == (want, list(map(float.hex, norms[:want])))
    assert squares.shape == (59,)
    assert [float.hex(math.sqrt(q)) for q in squares.tolist()] == list(map(float.hex, norms))


@pytest.mark.parametrize("tol", [1e-3, 1e-12, 1e-160, 1e-162])
@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_picard_step_at_the_tolerance_stops_as_the_reference_does(dim, tol):
    # From y = 0 under a constant v = c, the first step is c itself and the
    # second is 0: the loop stops after one step exactly when _norm(c) <= tol.
    rng = np.random.default_rng(dim)
    stops = set()
    for _ in range(300):
        u = rng.standard_normal(dim)
        # Within a few ulps of tol, or a few subnormal ulps of tol^2.
        spread = rng.choice([2.0 ** -52, 1e-3, 0.3])
        c = u * (tol / _norm(u)) * (1.0 + rng.integers(-3, 4) * spread)
        spec = PicardContraction(lambda x, c=c: c, 0.0, inner_tol=tol)
        want = _outcome(reference_picard, spec, np.zeros(dim), True)
        assert _outcome(PicardContraction.invert, spec, np.zeros(dim), True) == want
        stops.add(len(want[1]))
    assert stops == {1, 2}


@pytest.mark.parametrize("j", range(1, 10))
def test_picard_error_past_the_stop_is_not_raised(j):
    # Steps 1, 1/2, 1/4, ... toward 2, and v fails past 2 - 2^-5: the loop
    # returns when a step of at most 2^-j comes before that, and raises the
    # error otherwise, though the chunk evaluates v past the stop.
    def v(x):
        if x[0] > 2.0 - 2.0 ** -5:
            raise ValueError("outside the domain")
        return x / 2.0 + 1.0

    spec = PicardContraction(v, 0.5, inner_tol=2.0 ** -j)
    want = _outcome(reference_picard, spec, np.zeros(1), True)
    assert want[0][0] == ("x" if j <= 5 else "ValueError")
    assert _outcome(PicardContraction.invert, spec, np.zeros(1), True) == want
    assert _outcome(PicardContraction.invert, spec, np.zeros(1), False)[0] == want[0]


def _stationary_picard():
    # x <- 1 + 3x overflows to inf within about 650 steps, then repeats.
    return PicardContraction(VectorField.from_matrix([[3.0]]), 0.5)


@pytest.mark.parametrize("traced", [True, False])
def test_picard_stops_on_a_repeated_non_finite_iterate(traced):
    spec = _stationary_picard()
    want = _outcome(reference_picard, spec, [1.0], traced)
    assert want[0][:2] == ("NoConvergence", "nan")
    assert want[1] is None or len(want[1]) == spec.max_inner
    assert _outcome(PicardContraction.invert, spec, [1.0], traced) == want
    seconds = []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for _ in range(3):
            start = time.perf_counter()
            with pytest.raises(NoConvergence):
                spec.invert([1.0], inner_log=[] if traced else None)
            seconds.append(time.perf_counter() - start)
    assert min(seconds) < 0.05


@pytest.mark.parametrize("max_inner", [100_000, 99_999])
@pytest.mark.parametrize("traced", [True, False])
def test_picard_stops_on_a_period_two_cycle(traced, max_inner, monkeypatch):
    # x <- 1 - 3x overflows into inf, -inf, inf, ...: the iterate two steps
    # back repeats. The loop ends there on the iterate the full loop ends
    # on, which the parity of max_inner picks, with its error and log.
    spec = PicardContraction(VectorField.from_matrix([[-3.0]]), 0.5,
                             max_inner=max_inner)
    checked, verify = [], _verify

    def checking(spec, x, vx, y):
        checked.append(x.tobytes())
        return verify(spec, x, vx, y)

    monkeypatch.setitem(globals(), "_verify", checking)
    want = _outcome(reference_picard, spec, [1.0], traced)
    assert want[0][:2] == ("NoConvergence", "inf")
    assert want[1] is None or len(want[1]) == max_inner
    monkeypatch.setattr(inverse, "_verify", checking)
    # A matrix product writes into a row of the spec's buffer (x, out) or,
    # in the check, returns a new array (x): count both.
    calls, dot = [], spec._v
    spec._v = lambda x, *out: calls.append(len(out)) or dot(x, *out)
    assert _outcome(PicardContraction.invert, spec, [1.0], traced) == want
    last = np.inf if max_inner % 2 == 0 else -np.inf
    assert checked[1] == checked[0] == np.array([last]).tobytes()
    assert 0 < calls.count(1) == len(calls) - 1 < max_inner / 50


def test_picard_runs_on_through_a_repeated_iterate_of_a_callable():
    # Only a model field is known to be a pure function: a callable whose
    # iterate repeats still runs every step, as the reference loop does.
    calls = []

    def v(x):
        calls.append(1)
        return 3.0 * x

    spec = PicardContraction(v, 0.5, max_inner=2000)
    want = _outcome(reference_picard, spec, [1.0], True)
    del calls[:]
    assert _outcome(PicardContraction.invert, spec, [1.0], True) == want
    assert len(calls) == 2000 + 1


def reference_semilinear(spec, y, inner_log=None):
    """Semilinear.invert as it was, each inner right-hand side checked by
    _LU.solve: the reference for Semilinear.invert, bit for bit."""
    y = inverse._point(y, spec.A.shape[0])
    solve, g = spec._lu.solve, spec._g
    step_tol = 0.5 * spec.inner_tol / max(1.0, spec.l_g)
    x = solve(y)
    for _ in range(spec.max_inner):
        xn = solve(y + g(x))
        step = _norm(xn - x)
        if inner_log is not None:
            inner_log.append(step)
        x = xn
        if step <= step_tol:
            break
    return _verify(spec, x, spec.v(x), y)


def _as_the_reference(got, want):
    """Whether a Semilinear invert's outcome is the reference's: the same
    result bits or error, and a log as long (the same stop). The loop logs
    math.dist where its screen decides and _norm where it defers, so each
    logged norm has the reference's bits or, where that norm is finite and
    above 1e-150, lies within the screen's 1e-6 relative margin of it. Where
    _norm's square overflows to inf, math.dist measures a finite step of at
    least sqrt(max float), about 1.34e154."""
    def close(g, w):
        g, w = float.fromhex(g), float.fromhex(w)
        if w == math.inf:
            return 1.34e154 < g < math.inf
        return 1e-150 < w < math.inf and abs(g - w) <= 1e-6 * w

    return (got[0] == want[0] and len(got[1]) == len(want[1])
            and all(g == w or close(g, w) for g, w in zip(got[1], want[1])))


def _semilinear_remainder(kind, dim, amplitude, offsets):
    if kind == "callable":
        return lambda x: amplitude * np.sin(x + np.array(offsets[:dim]))
    if kind == "huge":
        # Finite values whose sum with a large y overflows to inf.
        return lambda x: np.full(dim, 1.5e308) + amplitude * np.sin(x)
    # A sine remainder, or for "explode" a square that raises EvalError
    # once it overflows.
    term = "{c!r}*x{j}*x{j}" if kind == "explode" else "{c!r}*sin(x{j} + {o!r})"
    return VectorField.from_exprs(
        [term.format(c=amplitude, j=i + 1, o=offsets[i]) for i in range(dim)], dim)


@settings(max_examples=300, deadline=None)
@given(dim=st.integers(1, 3),
       kind=st.sampled_from(["expression", "callable", "explode", "huge"]),
       entries=st.lists(st.floats(-1, 1), min_size=9, max_size=9),
       scale=st.sampled_from([0.0, 0.5, 3.0, 100.0]),
       offsets=st.lists(st.floats(-3, 3), min_size=3, max_size=3),
       contraction=st.sampled_from([0.0, 0.3, 0.9]),
       y=st.lists(st.floats(-10, 10), min_size=3, max_size=3),
       y_scale=st.sampled_from([1.0, 1e-170, 1e150, 1e307]),
       tol=st.sampled_from([1e-160, 1e-12, 1e-3]),
       max_inner=st.sampled_from([1, 2, 3, 10, 100]))
# A step of about 1e299: its _norm overflows to inf, math.dist measures it.
@example(dim=1, kind="explode", entries=[0.0] * 9, scale=0.0, offsets=[0.0] * 3,
         contraction=0.3, y=[1.0, 0.0, 0.0], y_scale=1e150, tol=1e-160, max_inner=1)
def test_semilinear_invert_matches_the_reference_loop(dim, kind, entries, scale, offsets,
                                                      contraction, y, y_scale, tol,
                                                      max_inner):
    A = np.reshape(entries[:dim * dim], (dim, dim)) * scale
    try:
        lu = _LU(np.eye(dim) - A, "I - A")
    except SingularLinearPart:
        return
    l_g = contraction / lu.inverse_norm()
    spec = Semilinear(A, _semilinear_remainder(kind, dim, l_g / dim, offsets),
                      l_g, inner_tol=tol, max_inner=max_inner)
    point = np.array(y[:dim]) * y_scale
    want = _outcome(reference_semilinear, spec, point, True)
    assert _as_the_reference(_outcome(Semilinear.invert, spec, point, True), want)
    assert _outcome(Semilinear.invert, spec, point, False)[0] == want[0]


@pytest.mark.parametrize("g", [
    lambda x: 0.01, lambda x: np.array([0.01]), lambda x: np.zeros(2), lambda x: np.zeros(4),
    VectorField.from_exprs(["0.1*sin(x1)"], 1), VectorField.from_exprs(["x1", "x2"], 2),
], ids=["scalar", "one", "two", "four", "field-of-dim-1", "field-of-dim-2"])
def test_semilinear_with_a_remainder_of_another_size_broadcasts_as_numpy_does(g):
    # Only a remainder-only field of A's size is summed on floats; any other
    # g keeps numpy's broadcasting, and its results and errors.
    spec = Semilinear(np.diag([2.0, 3.0, 4.0]), g, 0.1)
    want = _outcome(reference_semilinear, spec, np.array([1.0, 2.0, 3.0]), True)
    assert _as_the_reference(_outcome(Semilinear.invert, spec, np.array([1.0, 2.0, 3.0]), True),
                             want)


def test_semilinear_rejects_an_overflowing_right_hand_side_as_the_solve_does():
    g = lambda x: np.full(2, 1.5e308)  # noqa: E731
    spec = Semilinear(np.zeros((2, 2)), g, 0.1)
    point = np.array([1e308, 0.0])
    want = _outcome(reference_semilinear, spec, point, True)
    assert want == (("ValueError", "array must not contain infs or NaNs"), [])
    assert _outcome(Semilinear.invert, spec, point, True) == want


def test_semilinear_screen_leaves_few_exact_norms(ex3, monkeypatch):
    # The point the README solve of example3 (h 0.3) inverts first.
    x = np.array([5.0, 4.0, 2.0])
    y = x - ex3.v(x)
    y = np.clip(y - 0.3 * ex3.f(x), ex3.set.lower, ex3.set.upper)
    want = invert(ex3.inverse, y)
    counts = []

    def counting_norm(u):
        counts[-1] += 1
        return _norm(u)

    # A log observes the loop: the logged invert makes the same few exact norms.
    monkeypatch.setattr(inverse, "_norm", counting_norm)
    for log in (None, []):
        counts.append(0)
        assert invert(ex3.inverse, y, inner_log=log).tobytes() == want.tobytes()
    assert len(log) > 5
    assert counts[0] == counts[1] <= 2  # the exact test at the stop, then _verify


@pytest.mark.parametrize("kind", ["callable", "expression"])
@pytest.mark.parametrize("tol", [1e-3, 1e-12, 1e-160, 1e-162])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_semilinear_step_at_the_tolerance_stops_as_the_reference_does(dim, tol, kind):
    # From y = 0 with A = 0 and g(x) = c + x/2, the steps are |c|, |c|/2, ...
    # toward 2c: the loop stops after one step exactly when _norm(c) <=
    # step_tol, and returns c then, else 1.5c or later.
    rng = np.random.default_rng(dim)
    step_tol = 0.5 * tol
    stops = set()
    for _ in range(100):
        u = rng.standard_normal(dim)
        # Within a few ulps of step_tol, or well above it.
        spread = rng.choice([2.0 ** -52, 1e-3, 0.3])
        c = u * (step_tol / _norm(u)) * (1.0 + rng.integers(-3, 4) * spread)
        texts = [f"{float(ci)!r} + 0.5*x{i + 1}" for i, ci in enumerate(c)]
        g = (VectorField.from_exprs(texts, dim) if kind == "expression"
             else lambda x, c=c: c + 0.5 * x)
        spec = Semilinear(np.zeros((dim, dim)), g, 0.5, inner_tol=tol)
        want = _outcome(reference_semilinear, spec, np.zeros(dim), True)
        assert _as_the_reference(_outcome(Semilinear.invert, spec, np.zeros(dim), True), want)
        assert _outcome(Semilinear.invert, spec, np.zeros(dim), False)[0] == want[0]
        stops.add(min(len(want[1]), 2))
    # At 1e-162 every square underflows to 0: each first step stops.
    assert stops == ({1} if tol == 1e-162 else {1, 2})


@pytest.mark.parametrize("traced", [True, False])
def test_semilinear_error_mid_loop_is_the_references(traced):
    # x1 runs 1, 1.5, 1.75, 1.875, 1.9375: the sqrt of component 2 fails there.
    g = VectorField.from_exprs(["0.5*x1 + 1", "0.5*x2 + 0*sqrt(1.9 - x1)"], 2)
    spec = Semilinear(np.zeros((2, 2)), g, 0.6)
    chains = []
    for fn in (reference_semilinear, Semilinear.invert):
        with pytest.raises(EvalError) as info:
            fn(spec, np.zeros(2), [] if traced else None)
        exc, chain = info.value, []
        while exc is not None:  # each error, what it was raised from and in
            chain.append((repr(exc), repr(exc.__cause__), exc.__context__ is exc.__cause__))
            exc = exc.__context__
        chains.append(chain)
    assert chains[0] == chains[1]
    assert chains[0][:2] == [
        ("EvalError('component 2: sqrt: math domain error')",
         "EvalError('sqrt: math domain error')", True),
        ("EvalError('sqrt: math domain error')", "ValueError('math domain error')", True)]


def _exact_check(spec, x, vx, y):
    """The check before its math.dist screen: the reference for _verify."""
    w = x - vx
    res = _norm(w - np.asarray(y))
    if not res <= spec.inner_tol:
        raise NoConvergence(
            f"inverse residual {res:.3e} exceeds inner_tol {spec.inner_tol:.1e}", res)
    spec.checked = (x, w)
    return x


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(dim=st.integers(1, 4), seed=st.integers(0, 2**32 - 1),
       tol=st.sampled_from([1e-12, 1e-150, 1e-160, 1e-310, 1.0, 1e150, 1e200, 0.0, -1.0]),
       ratio=st.sampled_from([0.0, 0.5, 1 - 1e-6, 1 - 1e-9, 1 - 1e-15, 1.0, 1 + 1e-15,
                              1 + 1e-9, 2.0, math.inf, math.nan]),
       as_list=st.booleans())
def test_the_screened_check_decides_as_the_exact_norm(dim, seed, tol, ratio, as_list):
    # Residuals at, just inside and just outside inner_tol, also where their
    # squares underflow or overflow: the same verdict, error and record.
    rng = np.random.default_rng(seed)
    y = rng.uniform(-1.0, 1.0, dim) * 10.0 ** rng.integers(-3, 4)
    step = rng.standard_normal(dim)
    outcomes = []
    with np.errstate(all="ignore"):
        x = y + step / np.linalg.norm(step) * abs(tol) * ratio
        for check in (_verify, _exact_check):
            spec = types.SimpleNamespace(inner_tol=tol, checked=None)
            try:
                got = check(spec, x, np.zeros(dim), y.tolist() if as_list else y).tobytes()
            except NoConvergence as exc:
                got = (str(exc), float.hex(exc.achieved))
            outcomes.append((got, spec.checked and tuple(a.tobytes() for a in spec.checked)))
    assert outcomes[0] == outcomes[1]


@pytest.mark.parametrize("dim", [3, 1000])
def test_the_screened_check_leaves_to_the_exact_norm_where_math_dist_reads_less(dim):
    # Squares of entries near 1e-161 round as subnormals, and a thousand squares
    # of half an ulp of 1 each round the dot product up: either way _norm exceeds
    # math.dist, by more than 1e-6 or by a few ulps, and a tolerance between fails.
    rng = np.random.default_rng(3)
    ws = ([rng.standard_normal(3) * 1e-161 for _ in range(200)] if dim == 3
          else [np.array([1.0] + [math.sqrt(0.51 * 2.0 ** -52)] * (dim - 1))])
    cases = 0
    for w in ws:
        dist, exact = math.dist(w.tolist(), [0.0] * dim), _norm(w)
        tol = (dist + exact) / 2
        if not dist < tol < exact:
            continue
        cases += 1
        spec = types.SimpleNamespace(inner_tol=tol, checked=None)
        with pytest.raises(NoConvergence):
            _verify(spec, w, np.zeros(dim), [0.0] * dim)
    assert cases > (50 if dim == 3 else 0)


def test_linear_exact_refinement_that_overflows_raises_as_before():
    # I - V = 2^-52: the first solve of y = 1e300 overflows to inf, so the
    # refinement's right-hand side is not finite.
    spec = LinearExact(np.array([[1.0 - 2.0 ** -52]]))
    point = np.array([1e300])

    def reference(spec, y, inner_log=None):
        y = inverse._point(y, spec.V.shape[0])
        x = spec._lu.refined_solve(y)
        return _verify(spec, x, spec.V.dot(x), y)

    want = _outcome(reference, spec, point, False)
    assert want[0] == ("ValueError", "array must not contain infs or NaNs")
    assert _outcome(LinearExact.invert, spec, point, False) == want
    assert _outcome(LinearExact.invert, spec, np.array([1.0]), False) == \
        _outcome(reference, spec, np.array([1.0]), False)
