import io
import math
import re
import tokenize

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qvikit.expr as edsl

from qvikit.errors import EvalError, ParseError
from qvikit.expr import (
    _CACHE_SIZE,
    _INLINE_POWER,
    FUNCTIONS,
    Binary,
    Call,
    Number,
    Unary,
    Var,
    _emit,
    _ipow,
    eval_expr,
    field_function,
    parse,
    print_expr,
)
from qvikit.model import VectorField


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


def test_deep_nesting_stops_tokenizing_where_the_parser_stops(monkeypatch):
    # The parser asks for tokens as it goes: on 5,000 parentheses it reads 65
    # and the rest is only scanned for a character no token matches.
    tokenize, counted = edsl._tokenize, []

    def counting(text):
        for token in tokenize(text):
            counted.append(token)
            yield token

    monkeypatch.setattr(edsl, "_tokenize", counting)
    text = "(" * 5000 + "x1" + ")" * 5000
    with pytest.raises(ParseError, match="nests deeper than 64") as exc:
        parse(text, 1)
    assert exc.value.offset == 64 and len(text) == 10_002
    assert len(counted) < 200


@pytest.mark.parametrize("text,offset", [
    ("(" * 100 + "x1 $", 103),
    ("(" * 100 + "x1" + ")" * 99 + "é", 201),
    ("-" * 100 + "x1 + @", 105),
    ("x1 x2 ?", 6),
    ("sin(x1 # x2", 7),
])
def test_an_unexpected_character_past_a_parse_error_is_the_error(text, offset):
    # Tokenizing every character first made this error win over any the
    # parser raises earlier in the text; it still does.
    with pytest.raises(ParseError, match="unexpected character") as exc:
        parse(text, 2)
    assert exc.value.offset == offset


def eager_parse(text, dim):
    """``parse`` as it was, the whole text tokenized before the parser ran:
    the reference for its trees and errors."""
    list(edsl._tokenize(text))
    return parse(text, dim)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.lists(st.sampled_from(["(", ")", "x1", "x3", "2", "1.5e3", "-", "+", "*", "^",
                                 ",", " ", "sin(", "max(", "$", "é", "#"]),
                max_size=30).map("".join))
def test_parse_on_demand_gives_the_eager_tokenizers_outcome(text):
    def outcome(fn):
        try:
            return print_expr(fn(text, 2))
        except ParseError as exc:
            return str(exc), exc.offset

    assert outcome(parse) == outcome(eager_parse)


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


@pytest.mark.parametrize("k", range(1, _INLINE_POWER + 2))
def test_small_powers_multiply_inline_with_the_bits_of_ipow(k):
    ast = parse(f"x1^{k}", 1)
    assert ("ipow(" in _emit((ast,), "point")[0]) == (k > _INLINE_POWER)
    assert "ipow(" in _emit((ast,), "batch")[0]
    for t in [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324, 2.2e-308,
              -1e-310, 1e-160, -1e-80, 1.5, -2.0, 1e78, -1e103, 1e154, 1e308]:
        want = outcome(reference_eval, ast, [t])
        assert outcome(eval_expr, ast, [t]) == want
        power = _ipow(t, k)
        assert want == (("value", power.hex()) if math.isfinite(power)
                        else ("error", "non-finite value from '^'"))


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
    eval_expr(ast, np.array([[0.5, 1.5]]))
    again = pickle.loads(pickle.dumps(ast))
    assert again == ast and hash(again) == hash(ast)
    assert not any(name.endswith("_function") for name in vars(again))
    assert eval_expr(again, [0.5]) == eval_expr(ast, [0.5])


# -- generated field functions --------------------------------------------------

def _field_trees(dim):
    leaves = st.one_of(st.builds(Number, _small_numbers),
                       st.builds(Var, st.integers(min_value=1, max_value=dim)))
    return st.recursive(leaves, _small_nodes, max_leaves=20)


_fields = st.one_of([st.tuples(
    st.lists(_field_trees(dim), min_size=dim, max_size=dim).map(tuple),
    st.lists(_coordinates, min_size=dim, max_size=dim)) for dim in (1, 2, 3)])


def reference_field(asts, x):
    """The field's values tree by tree, or the first error with the prefix
    VectorField gives it."""
    values = []
    for i, ast in enumerate(asts):
        kind, result = outcome(reference_eval, ast, x)
        if kind == "error":
            return "error", f"component {i + 1}: {result}"
        values.append(result)
    return "value", values


@settings(max_examples=300, deadline=None)
@given(_fields)
def test_field_function_matches_the_tree_walk(field):
    asts, x = field
    vf = VectorField(len(asts), remainder=asts)
    try:
        got = "value", [v.hex() for v in vf.evaluate(np.array(x)).tolist()]
    except EvalError as exc:
        got = "error", str(exc)
        # Chained from the message without the prefix, as eval_expr raises it.
        assert str(exc.__cause__) == str(exc).split(": ", 1)[1]
    assert got == reference_field(asts, x)


_SOURCE_WORDS = {"def", "return", "try", "except", "as", "raise", "from", "if", "not",
                 "fn", "x", "e", "float", "str", "isfinite", "all", "ipow", "EvalError",
                 "ValueError",
                 *FUNCTIONS}


@settings(max_examples=200, deadline=None)
@given(_fields, st.sampled_from(["point", "batch"]))
def test_emitted_source_holds_only_generated_names(field, backend):
    source, bound = _emit(field[0], backend)
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type == tokenize.NAME:
            assert token.string in _SOURCE_WORDS or \
                re.fullmatch(r"t\d+", token.string) or token.string in bound
        elif token.type == tokenize.NUMBER:
            assert re.fullmatch(r"\d+", token.string)
        elif token.type == tokenize.OP:
            assert token.string in set("+-*/=()[],:.")
        else:
            assert token.type in (tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
                                  tokenize.ENDMARKER)
    assert all(re.fullmatch(r"k\d+", name) for name in bound)


def test_field_function_cache_stays_at_its_bound():
    def field(k):
        return tuple(parse(t, 2) for t in (f"{k} * x1 + sin(x2)", f"x2 / {k + 1}"))

    x = np.array([0.3, -1.7])
    count = _CACHE_SIZE + 20
    for k in range(count):
        asts = field(k)
        want = [float.fromhex(bits) for bits in reference_field(asts, x)[1]]
        assert VectorField(2, remainder=asts).evaluate(x).tolist() == want
        assert field_function.cache_info().currsize <= _CACHE_SIZE
    assert field_function.cache_info().currsize == _CACHE_SIZE
    # The first fields left the cache; built again, they compile again.
    again = VectorField(2, remainder=field(0)).evaluate(x)
    assert again.tolist() == [float.fromhex(b) for b in reference_field(field(0), x)[1]]


def test_equal_trees_share_one_generated_function():
    first = VectorField.from_exprs(["0.8*sin(x2)^2", "x1 / 3"], 2)
    second = VectorField.from_exprs(["0.8 * sin(x2) ^ 2", "x1/3"], 2)
    x = np.array([1.0, 2.0])
    assert first.evaluate(x).tobytes() == second.evaluate(x).tobytes()
    assert first._function is second._function


@pytest.mark.parametrize("first,second", [(0.0, -0.0), (-0.0, 0.0)])
def test_signed_zero_constants_give_the_same_bits_in_either_order(first, second):
    # The cache keys trees by value, and 0.0 == -0.0; a zero constant is
    # stored as +0.0, so what ran first cannot decide the sign of the result.
    field_function.cache_clear()
    values = [eval_expr(Binary("+", Number(z), Number(z)), []) for z in (first, second)]
    assert [v.hex() for v in values] == ["0x0.0p+0", "0x0.0p+0"]
    assert Number(-0.0) == Number(0.0) and math.copysign(1.0, Number(-0.0).value) == 1.0
