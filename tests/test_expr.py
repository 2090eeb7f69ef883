import math

import pytest

from qvikit.errors import EvalError, ParseError
from qvikit.expr import Binary, Number, Unary, Var, eval_expr, parse, print_expr


def ev(text, dim, x=()):
    return eval_expr(parse(text, dim), x)


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
    # Printing is fully parenthesized, so reprinting is a fixpoint.
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
