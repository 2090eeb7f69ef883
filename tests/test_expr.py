import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qvikit.errors import EvalError, ParseError
from qvikit.expr import (
    FUNCTIONS,
    Binary,
    Call,
    Number,
    Unary,
    Var,
    eval_expr,
    parse,
    print_expr,
)


def ev(text, dim, x=()):
    return eval_expr(parse(text, dim), x)


def reference_eval(ast, x):
    """The tree walk that evaluated expressions before they were compiled:
    the reference for values and EvalError messages."""
    if isinstance(ast, Number):
        return ast.value
    if isinstance(ast, Var):
        return float(x[ast.index - 1])
    if isinstance(ast, Unary):
        return -reference_eval(ast.child, x)
    if isinstance(ast, Binary):
        left = reference_eval(ast.left, x)
        if ast.op == "^":
            out = 1.0
            for _ in range(int(ast.right.value)):
                out *= left
        else:
            right = reference_eval(ast.right, x)
            if ast.op == "+":
                out = left + right
            elif ast.op == "-":
                out = left - right
            elif ast.op == "*":
                out = left * right
            else:
                if right == 0.0:
                    raise EvalError("division by zero")
                out = left / right
        if not math.isfinite(out):
            raise EvalError(f"non-finite value from {ast.op!r}")
        return out
    if isinstance(ast, Call):
        args = [reference_eval(a, x) for a in ast.args]
        try:
            if ast.name == "sin":
                out = math.sin(args[0])
            elif ast.name == "cos":
                out = math.cos(args[0])
            elif ast.name == "abs":
                out = abs(args[0])
            elif ast.name == "sqrt":
                out = math.sqrt(args[0])
            elif ast.name == "min":
                out = min(args)
            else:
                out = max(args)
        except ValueError as exc:
            raise EvalError(f"{ast.name}: {exc}") from exc
        if not math.isfinite(out):
            raise EvalError(f"non-finite value from {ast.name}")
        return out
    raise TypeError(f"not an expression node: {ast!r}")


def outcome(evaluate, ast, x):
    """("value", bits) or ("error", message) of one evaluation."""
    try:
        return "value", float(evaluate(ast, x)).hex()
    except EvalError as exc:
        return "error", str(exc)


def test_precedence_pins():
    assert ev("2+3*4", 1, [0.0]) == 14.0
    assert ev("2*3^2", 1, [0.0]) == 18.0
    assert ev("-2^2", 1, [0.0]) == -4.0


def test_unary_minus_binds_looser_than_power():
    ast = parse("-2^2", 1)
    assert isinstance(ast, Unary)
    assert isinstance(ast.child, Binary) and ast.child.op == "^"


def test_left_associativity():
    assert ev("10-3-2", 1, [0.0]) == 5.0
    assert ev("12/3/2", 1, [0.0]) == 2.0


def test_power_chain_folds_right_associatively():
    # 2^2^3 means 2^(2^3); the chain folds into one integer exponent.
    ast = parse("2^2^3", 1)
    assert isinstance(ast, Binary) and ast.op == "^"
    assert ast.right == Number(8.0)
    assert eval_expr(ast, [0.0]) == 256.0


def test_linear_plus_trig_example():
    assert ev("3*x1 + 1*x2 + 0.5*cos(x2)^3", 2, [0.0, 0.0]) == 0.5


def test_zero_at_origin_example():
    assert ev("-x1 + (1/3)*sin(x1)", 1, [0.0]) == 0.0


def test_fixed_point_of_displacement_map():
    # v(x) = 2x + cos(x)/3 has its fixed point near -0.3168.
    x = -0.3168
    assert abs(ev("2*x1 + (1/3)*cos(x1)", 1, [x]) - x) <= 1e-3


def test_abs_sin_at_pi():
    assert ev("abs(sin(x1))", 1, [math.pi]) <= 1e-15


def test_min_max():
    assert ev("min(x1, x2)", 2, [3.0, -1.0]) == -1.0
    assert ev("max(x1, x2)", 2, [3.0, -1.0]) == 3.0


def test_sqrt():
    assert ev("sqrt(x1)", 1, [9.0]) == 3.0


def test_integer_power_by_repeated_multiplication():
    x = 1.7
    assert ev("x1^3", 1, [x]) == x * x * x


def test_variables_one_based():
    assert ev("x2", 3, [1.0, 2.0, 3.0]) == 2.0


@pytest.mark.parametrize("text", [
    "3*x1 + 1*x2 + 0.5*cos(x2)^3",
    "-x1 + (1/3)*sin(x1)",
    "2*x1 + (1/3)*cos(x1)",
    "abs(sin(x1)) * min(x1, 1e-3) - max(x1, x2)^5",
    "1.2*abs(sin(x2)^3)",
    "cos(abs(x1)+x3)^3",
    "-(-x1)",
    "x1 / (x2 + 2.5e0)",
])
def test_print_parse_round_trip(text):
    ast = parse(text, 3)
    printed = print_expr(ast)
    assert parse(printed, 3) == ast
    # Printing is deterministic, so reprinting is a fixpoint.
    assert print_expr(parse(printed, 3)) == printed


def test_eval_deterministic():
    ast = parse("sin(x1)*cos(x2)^3 - x1/x2", 2, )
    a = eval_expr(ast, [0.3, 0.7])
    b = eval_expr(ast, [0.3, 0.7])
    assert a == b


def _offset_of(text, dim):
    with pytest.raises(ParseError) as info:
        parse(text, dim)
    return info.value.offset, str(info.value)


def test_parse_error_unknown_identifier():
    offset, msg = _offset_of("x1 + y", 2)
    assert offset == 5
    assert "y" in msg


def test_parse_error_variable_out_of_range():
    offset, msg = _offset_of("x3 + x1", 2)
    assert offset == 0
    assert "x3" in msg and "dimension" in msg


def test_parse_error_arity():
    offset, msg = _offset_of("1 + min(x1)", 1)
    assert offset == 4
    assert "2 argument" in msg


def test_parse_error_non_integer_exponent():
    for bad in ("x1^2.5", "x1^0", "x1^(-2)", "x1^x1"):
        with pytest.raises(ParseError, match="integer"):
            parse(bad, 1)


def test_parse_error_trailing_tokens():
    offset, msg = _offset_of("x1 x1", 1)
    assert offset == 3
    assert "trailing" in msg


def test_parse_error_unexpected_character():
    offset, _ = _offset_of("x1 + $", 1)
    assert offset == 5


def test_parse_error_empty():
    with pytest.raises(ParseError):
        parse("   ", 1)


@pytest.mark.parametrize("text", [42, None, ["x1"]])
def test_parse_error_not_a_string(text):
    with pytest.raises(ParseError, match="expected an expression string"):
        parse(text, 1)


def test_parse_error_unbalanced_paren():
    with pytest.raises(ParseError):
        parse("(x1 + 1", 1)


def test_exponent_chain_cap():
    with pytest.raises(ParseError, match="limit"):
        parse("2^9^9^9", 1)


@pytest.mark.parametrize("text,offset", [
    ("(" * 5000 + "x1" + ")" * 5000, 64),
    ("-" * 5000 + "x1", 64),
    ("sin(" * 5000 + "x1" + ")" * 5000, 4 * 64),
    ("max(1, " * 5000 + "x1" + ")" * 5000, 7 * 64),
    # The first "^" of a chain opens no level; the 66th opens the 65th.
    ("x1" + "^1" * 5000, 2 + 2 * 65),
], ids=["parens", "minus", "calls", "call-args", "exponents"])
def test_parse_error_nesting_limit(text, offset):
    with pytest.raises(ParseError, match="nests deeper than 64") as exc:
        parse(text, 1)
    assert exc.value.offset == offset


def test_nesting_limit_admits_64_levels():
    assert parse("(" * 64 + "x1" + ")" * 64, 1) == Var(1)
    assert eval_expr(parse("-" * 64 + "x1", 1), [2.0]) == 2.0
    assert eval_expr(parse("sin(" * 64 + "x1" + ")" * 64, 1), [0.0]) == 0.0
    assert eval_expr(parse("-(sin(" * 21 + "x1" + "))" * 21 + "+1", 1), [0.0]) == 1.0


def test_eval_division_by_zero():
    with pytest.raises(EvalError, match="division"):
        ev("x1 / x2", 2, [1.0, 0.0])


def test_eval_sqrt_negative():
    with pytest.raises(EvalError, match="sqrt"):
        ev("sqrt(x1)", 1, [-1.0])


def test_eval_overflow_is_an_error():
    with pytest.raises(EvalError, match="non-finite"):
        ev("x1^99 * x1^99 * x1^99", 1, [1e300])


def test_var_node_shape():
    assert parse("x2", 2) == Var(2)


# Everything parse accepts evaluates, prints, and parses back to the same
# tree: the printer nests no deeper than the text it came from, and trees are
# at most 256 levels high.
@pytest.mark.parametrize("text", [
    "+".join(["x1"] * 257),
    "*".join(["x1"] * 257),
    "+".join(["x1"] * 66),
    "-" * 33 + "x1",
    "-" * 64 + "x1",
    "(" * 64 + "+".join(["x1"] * 200) + ")" * 64,
    "sin(" * 63 + "+".join(["x1"] * 194) + ")" * 63,
    "(" * 63 + "x1-" * 200 + "(x1+x1" + ")" * 64,
], ids=["sum-257", "product-257", "sum-66", "minus-33", "minus-64",
        "parenthesized-sum", "calls-over-sum", "right-nested"])
def test_everything_parsed_evaluates_and_prints_to_the_same_tree(text):
    ast = parse(text, 1)
    assert math.isfinite(eval_expr(ast, [1.0]))
    assert parse(print_expr(ast), 1) == ast


@pytest.mark.parametrize("text,offset", [
    ("+".join(["x1"] * 258), 3 * 256 + 2),
    ("x1" + "*x1" * 300, 3 * 256 + 2),
    ("x1*x1" + "+x1*x1" * 256, 5 + 6 * 255),
    ("-" * 60 + "+".join(["x1"] * 200), None),
], ids=["sum", "product", "sum-of-products", "minus-over-sum"])
def test_parse_error_tree_height_limit(text, offset):
    with pytest.raises(ParseError, match="deeper than 256 levels") as exc:
        parse(text, 1)
    if offset is not None:
        assert exc.value.offset == offset
    assert text[exc.value.offset] in "+-*/"


def test_printing_keeps_only_needed_parentheses():
    assert print_expr(parse("-x1 + (1/3)*sin(x1)", 1)) == "-x1 + 1 / 3 * sin(x1)"
    assert print_expr(parse("(x1 - (x1 - x1)) * (x1 / (x1 * x1))", 1)) == \
        "(x1 - (x1 - x1)) * (x1 / (x1 * x1))"
    assert print_expr(parse("(-x1)^2 - -x1^2", 1)) == "(-x1) ^ 2 - -x1 ^ 2"
    assert print_expr(parse("((x1^2)^3)", 1)) == "(x1 ^ 2) ^ 3"


_numbers = st.floats(min_value=0.0, allow_nan=False, allow_infinity=False)
_leaves = st.one_of(st.builds(Number, _numbers),
                    st.builds(Var, st.integers(min_value=1, max_value=3)))


def _nodes(children):
    calls = st.sampled_from(sorted(FUNCTIONS)).flatmap(
        lambda name: st.tuples(*[children] * FUNCTIONS[name]).map(
            lambda args, name=name: Call(name, args)))
    return st.one_of(
        st.builds(Unary, children),
        st.builds(Binary, st.sampled_from("+-*/"), children, children),
        st.builds(lambda base, k: Binary("^", base, Number(float(k))),
                  children, st.integers(min_value=1, max_value=1_000_000)),
        calls,
    )


@settings(max_examples=300, deadline=None)
@given(st.recursive(_leaves, _nodes, max_leaves=40))
def test_print_parse_round_trip_property(ast):
    assert parse(print_expr(ast), 3) == ast


# -- compiled evaluation against the tree-walking reference --------------------

_small_numbers = st.one_of(st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0]),
                           st.floats(min_value=0.0, max_value=1e308))
_small_leaves = st.one_of(st.builds(Number, _small_numbers),
                          st.builds(Var, st.integers(min_value=1, max_value=3)))


def _small_nodes(children):
    calls = st.sampled_from(sorted(FUNCTIONS)).flatmap(
        lambda name: st.tuples(*[children] * FUNCTIONS[name]).map(
            lambda args, name=name: Call(name, args)))
    return st.one_of(
        st.builds(Unary, children),
        st.builds(Binary, st.sampled_from("+-*/"), children, children),
        st.builds(lambda base, k: Binary("^", base, Number(float(k))),
                  children, st.integers(min_value=1, max_value=40)),
        calls,
    )


_trees = st.recursive(_small_leaves, _small_nodes, max_leaves=30)
_coordinates = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0, -3.0]),
                         st.floats(min_value=-1e3, max_value=1e3))
_points = st.lists(_coordinates, min_size=3, max_size=3)


@settings(max_examples=400, deadline=None)
@given(_trees, _points)
def test_compiled_point_evaluation_matches_the_tree_walk(ast, x):
    assert outcome(eval_expr, ast, x) == outcome(reference_eval, ast, x)


@settings(max_examples=300, deadline=None)
@given(_trees, st.lists(_points, min_size=1, max_size=6))
def test_batch_evaluation_matches_the_tree_walk_or_signals(ast, points):
    X = np.array(points).T
    reference = [outcome(reference_eval, ast, x) for x in points]
    if any(kind == "error" for kind, _ in reference):
        with pytest.raises(EvalError):
            eval_expr(ast, X)
        return
    got = eval_expr(ast, X)
    assert got.shape == (len(points),)
    for value, (_, bits) in zip(got, reference):
        assert math.isclose(value, float.fromhex(bits), rel_tol=1e-12)


@pytest.mark.parametrize("text,x", [
    ("x1 / x2", [1.0, 0.0]),
    ("x1 / (x2 - x2)", [1.0, 5.0]),
    ("sqrt(x1)", [-1.0]),
    ("sqrt(x1 - 3)", [2.0]),
    ("x1^99 * x1^99 * x1^99", [1e300]),
    ("x1 * 1e308 + 1e308", [10.0]),
    ("min(1e308*10, 1)", [0.0]),
    ("max(x1, 1/(x1 - 2))", [2.0]),
    ("cos(x1)^3 / sin(x1 - x1)", [0.5]),
    ("min(x1, 1)", [float("nan")]),
    ("x1 + 1", [float("inf")]),
    ("sin(x1)", [float("inf")]),
])
def test_compiled_errors_match_the_tree_walk(text, x):
    ast = parse(text, len(x))
    assert outcome(eval_expr, ast, x) == outcome(reference_eval, ast, x)


def test_intermediate_inf_that_vanishes_still_raises():
    # 1e308*10 overflows inside min(), whose result would be finite again.
    with pytest.raises(EvalError, match="non-finite value from '\\*'"):
        ev("min(1e308*10, 1)", 1, [0.0])
    with pytest.raises(EvalError):
        eval_expr(parse("min(x1*1e308*10, 1)", 1), np.array([[1.0, 0.0]]))
    with pytest.raises(EvalError):
        eval_expr(parse("1 / (1 / (x1 - 1))", 1), np.array([[3.0, 1.0]]))


def test_batch_evaluation_returns_one_value_per_column():
    X = np.array([[0.0, 1.0, 2.0], [3.0, 4.0, 5.0]])
    assert eval_expr(parse("x2 - x1", 2), X).tolist() == [3.0, 3.0, 3.0]
    assert eval_expr(parse("2^3", 2), X).tolist() == [8.0, 8.0, 8.0]
    with pytest.raises(EvalError, match="non-finite entry"):
        eval_expr(parse("x1", 2), np.array([[1.0], [np.inf]]))


def test_deep_trees_and_large_powers_still_evaluate():
    deep = parse("+".join(["x1"] * 257), 1)
    assert eval_expr(deep, [1.0]) == 257.0
    assert eval_expr(deep, np.ones((1, 4))).tolist() == [257.0] * 4
    power = parse("x1^1000000", 1)
    assert eval_expr(power, [1.0]) == 1.0
    assert eval_expr(power, [-1.0]) == 1.0
    assert eval_expr(power, [0.5]) == 0.0
    with pytest.raises(EvalError, match="non-finite value from '\\^'"):
        eval_expr(power, [1.5])


def test_compiled_tree_pickles_and_compares_as_before():
    import pickle

    ast = parse("-x1 + (1/3)*sin(x1)", 1)
    eval_expr(ast, [0.5])
    again = pickle.loads(pickle.dumps(ast))
    assert again == ast and hash(again) == hash(ast)
    assert eval_expr(again, [0.5]) == eval_expr(ast, [0.5])
