"""Scalar expression DSL over variables x1..xn.

Problems are defined in text files, so every vector-field component is a small
arithmetic expression. The grammar (normative copy in docs/expression-grammar.md):

    expr     = term { ("+" | "-") term }
    term     = unary { ("*" | "/") unary }
    unary    = "-" unary | power
    power    = atom [ "^" exponent ]
    exponent = INT [ "^" exponent ]
    atom     = NUMBER | VARIABLE | FUNC "(" expr { "," expr } ")" | "(" expr ")"

Binary +, -, *, / are left-associative; "^" binds tighter than unary minus
(so -2^2 == -4) and is right-associative, with the exponent restricted to
positive integer literals. Variables are named x1..x<dim>. The function
catalog is fixed: sin, cos, abs, sqrt (one argument), min, max (two).

Trees evaluate through generated Python functions (field_function), cached
by value and kept on each evaluated root as a cached property; the generated
source holds no text from the expression, only made-up names, integers,
operators and catalog names. Point code multiplies a small power out inline
(x^3 as t * t * t), which gives _ipow's bits: its first product is 1.0 * t.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass

import numpy as np

from .errors import EvalError, ParseError

FUNCTIONS = {"sin": 1, "cos": 1, "abs": 1, "sqrt": 1, "min": 2, "max": 2}

# Guard against absurd folded exponent chains like 9^9^9.
_MAX_EXPONENT = 1_000_000
_INLINE_POWER = 4  # point code writes x^k as a product up to this k, then _ipow
# Parentheses, unary minus, call arguments and exponent chains nest at most
# this deep together, which keeps the recursive descent (up to eight Python
# frames a level) far below the interpreter's recursion limit.
_MAX_NESTING = 64
# Trees are at most this high, so that evaluating, printing and comparing
# them recursively (a frame or two a level) stays below that limit too. A
# sum or product of n terms is a tree n - 1 levels high.
_MAX_HEIGHT = 256


class _Node:
    """Base of the tree nodes. A root evaluated once keeps its generated
    functions as cached properties (see eval_expr); pickling leaves them out."""

    @functools.cached_property
    def _point_function(self):
        return field_function((self,), "point")

    @functools.cached_property
    def _batch_function(self):
        return field_function((self,), "batch")

    def __getstate__(self):
        return {k: v for k, v in vars(self).items() if not k.endswith("_function")}


@dataclass(frozen=True)
class Number(_Node):
    value: float

    def __post_init__(self):
        # +0.0, as parsed: trees equal as values then compute equal bits.
        if self.value == 0:
            object.__setattr__(self, "value", 0.0)


@dataclass(frozen=True)
class Var(_Node):
    index: int  # 1-based


@dataclass(frozen=True)
class Unary(_Node):
    child: "Expr"


@dataclass(frozen=True)
class Binary(_Node):
    op: str
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Call(_Node):
    name: str
    args: tuple


Expr = Number | Var | Unary | Binary | Call

_NUMBER, _IDENT = r"(\d+(\.\d*)?|\.\d+)([eE][+-]?\d+)?", r"[A-Za-z_][A-Za-z_0-9]*"
_TOKEN = re.compile(
    rf"(?P<ws>\s+)|(?P<number>{_NUMBER})|(?P<ident>{_IDENT})|(?P<op>[-+*/^(),])")
# Tokens up to the first character no token matches, where _tokenize raises;
# a token's first character picks its kind, so a run of ops and spaces is one.
_TOKENS = re.compile(rf"(?:[\s()+*/^,-]+|{_NUMBER}|{_IDENT})*")


def _tokenize(text):
    """Yield the tokens of ``text`` as the parser asks for them, then "end"."""
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        if m.lastgroup == "number":
            yield ("number", float(m.group()), pos)
        elif m.lastgroup == "ident":
            yield ("ident", m.group(), pos)
        elif m.lastgroup == "op":
            yield (m.group(), m.group(), pos)
        pos = m.end()
    yield ("end", None, len(text))


class _Parser:
    def __init__(self, tokens, dim):
        self.tokens = tokens
        self.dim = dim
        self.token = next(tokens)
        self.depth = 0

    def peek(self):
        return self.token

    def advance(self):
        tok, self.token = self.token, next(self.tokens)  # never past "end"
        return tok

    def nested(self, parse, offset):
        """Run the sub-parser ``parse`` one nesting level deeper."""
        if self.depth == _MAX_NESTING:
            raise ParseError(f"expression nests deeper than {_MAX_NESTING} levels",
                             offset)
        self.depth += 1
        node = parse()
        self.depth -= 1
        return node

    def taller(self, height, offset):
        """Height of a node over a subtree ``height`` levels high."""
        if height == _MAX_HEIGHT:
            raise ParseError(f"expression tree is deeper than {_MAX_HEIGHT} levels",
                             offset)
        return height + 1

    def expect(self, kind):
        tok = self.peek()
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[1]!r}", tok[2])
        return self.advance()

    # Each sub-parser returns a node and the height of its tree.

    def chain(self, ops, operand):
        """A left-associative chain of ``operand``s joined by ``ops``."""
        node, height = operand()
        while self.peek()[0] in ops:
            op, _, offset = self.advance()
            right, right_height = operand()
            node = Binary(op, node, right)
            height = self.taller(max(height, right_height), offset)
        return node, height

    def expr(self):
        return self.chain(("+", "-"), self.term)

    def term(self):
        return self.chain(("*", "/"), self.unary)

    def unary(self):
        if self.peek()[0] == "-":
            offset = self.advance()[2]
            child, height = self.nested(self.unary, offset)
            return Unary(child), self.taller(height, offset)
        return self.power()

    def power(self):
        node, height = self.atom()
        if self.peek()[0] == "^":
            offset = self.advance()[2]
            node = Binary("^", node, Number(float(self.exponent())))
            height = self.taller(height, offset)
        return node, height

    def exponent(self):
        # Right-associative chains of integer literals fold at parse time,
        # so a "^" node always stores a plain positive integer.
        tok = self.peek()
        if tok[0] != "number":
            raise ParseError("exponent must be a positive integer literal", tok[2])
        value = self.advance()[1]
        if value != int(value) or value <= 0:
            raise ParseError("exponent must be a positive integer literal", tok[2])
        base = int(value)
        if self.peek()[0] == "^":
            base = base ** self.nested(self.exponent, self.advance()[2])
        if base > _MAX_EXPONENT:
            raise ParseError(f"exponent {base} exceeds limit {_MAX_EXPONENT}", tok[2])
        return base

    def atom(self):
        tok = self.peek()
        if tok[0] == "number":
            self.advance()
            return Number(tok[1]), 0
        if tok[0] == "(":
            self.advance()
            node = self.nested(self.expr, tok[2])
            self.expect(")")
            return node
        if tok[0] == "ident":
            self.advance()
            name = tok[1]
            if name in FUNCTIONS:
                return self.nested(lambda: self.call(name, tok[2]), tok[2])
            m = re.fullmatch(r"x(\d+)", name)
            if m is None:
                raise ParseError(f"unknown identifier {name!r}", tok[2])
            index = int(m.group(1))
            if not 1 <= index <= self.dim:
                raise ParseError(
                    f"variable {name!r} out of range for dimension {self.dim}", tok[2]
                )
            return Var(index), 0
        raise ParseError(f"unexpected token {tok[1]!r}", tok[2])

    def call(self, name, offset):
        self.expect("(")
        args = [self.expr()]
        while self.peek()[0] == ",":
            self.advance()
            args.append(self.expr())
        self.expect(")")
        arity = FUNCTIONS[name]
        if len(args) != arity:
            raise ParseError(
                f"{name} takes {arity} argument(s), got {len(args)}", offset
            )
        return Call(name, tuple(a for a, _ in args)), \
            self.taller(max(h for _, h in args), offset)


def parse(text, dim):
    """Parse expression ``text`` over variables x1..x<dim> into an AST."""
    if not isinstance(text, str):
        raise ParseError(f"expected an expression string, got {text!r}", 0)
    if not text.strip():
        raise ParseError("empty expression", 0)
    parser = _Parser(_tokenize(text), dim)
    try:
        node, _ = parser.expr()
        trailing = parser.peek()
        if trailing[0] != "end":
            raise ParseError(f"trailing input {trailing[1]!r}", trailing[2])
    except ParseError:
        # A character no token matches is the error, wherever the parser stopped.
        pos = _TOKENS.match(text, parser.peek()[2]).end()
        if pos < len(text):
            raise ParseError(f"unexpected character {text[pos]!r}", pos) from None
        raise
    return node


def _ipow(base, k):
    # Integer powers by repeated multiplication, per the evaluation contract.
    # For a batch the first product is a new array, multiplied in place after.
    out = 1.0
    for _ in range(k):
        out *= base
    return out


# How generated code computes: on one point, with Python floats and math, or
# on a batch of points, with NumPy arrays. Per backend: the source reading
# variable i, the tests that a value is not finite and that a divisor has a
# zero, and the functions that source calls by name.
_BACKENDS = {
    "point": ("float(x[{}])", "not isfinite({})", "not {}",
              {"isfinite": math.isfinite, "sin": math.sin, "cos": math.cos,
               "abs": abs, "sqrt": math.sqrt, "min": min, "max": max}),
    "batch": ("x[{}]", "not isfinite({}).all()", "not all({})",
              {"isfinite": np.isfinite, "all": np.all, "sin": np.sin, "cos": np.cos,
               "abs": np.abs, "sqrt": np.sqrt, "min": np.minimum, "max": np.maximum}),
}
# The source text of each operator and catalog function: a tree's operator
# or function name reaches the source only as one of these strings.
_SOURCE = {"+": "+", "-": "-", "*": "*", "/": "/", **{name: name for name in FUNCTIONS}}
# Generated functions kept by trees and backend, so that a problem rebuilt
# from its file reuses its fields' functions instead of compiling them again.
_CACHE_SIZE = 256


def _emit(asts, backend):
    """The source of ``fn(x)``, returning the values of the trees ``asts`` in
    order on ``backend``, and the values of the global names it binds.

    Each operation is one statement on generated names, left operand before
    right and arguments in order, its result checked as the grammar says.
    Constants and messages are bound by name, so the source holds only
    generated names, integers, operators and catalog names.
    """
    read, nonfinite, has_zero, _ = _BACKENDS[backend]
    lines, bound, reads = [], {}, {}

    def bind(value):
        name = f"k{len(bound)}"
        bound[name] = value
        return name

    def store(expression, message=None, call=None):
        """A new name for ``expression``, checked finite when a ``message``
        is given; math's domain errors in a ``call`` become EvalError."""
        t = f"t{len(lines)}"
        if call is None:
            lines.append(f"{t} = {expression}")
        else:
            prefix = bind(call + ": ")
            lines.extend([f"try: {t} = {expression}",
                          f"except ValueError as e: raise EvalError({prefix} + str(e)) from e"])
        if message is not None:
            lines.append(f"if {nonfinite.format(t)}: raise EvalError({bind(message)})")
        return t

    def emit(ast):
        if isinstance(ast, Number):
            return bind(ast.value)
        if isinstance(ast, Var):
            if ast.index not in reads:
                reads[ast.index] = store(read.format(int(ast.index) - 1))
            return reads[ast.index]
        if isinstance(ast, Unary):
            return store(f"-{emit(ast.child)}")
        if isinstance(ast, Binary) and ast.op == "^":
            base, k = emit(ast.left), int(ast.right.value)
            inline = backend == "point" and k <= _INLINE_POWER
            return store(" * ".join([base] * k) if inline else f"ipow({base}, {k})",
                         "non-finite value from '^'")
        if isinstance(ast, Binary) and ast.op in ("+", "-", "*", "/"):
            left, right = emit(ast.left), emit(ast.right)
            if ast.op == "/":
                lines.append(f"if {has_zero.format(right)}: "
                             f"raise EvalError({bind('division by zero')})")
            return store(f"{left} {_SOURCE[ast.op]} {right}",
                         f"non-finite value from {ast.op!r}")
        if isinstance(ast, Call) and len(ast.args) == FUNCTIONS.get(ast.name):
            args = ", ".join([emit(a) for a in ast.args])
            return store(f"{_SOURCE[ast.name]}({args})",
                         f"non-finite value from {ast.name}", ast.name)
        raise TypeError(f"not an expression node: {ast!r}")

    values = "".join(f"{emit(ast)}, " for ast in asts)
    body = "".join(f"    {line}\n" for line in lines)
    return f"def fn(x):\n{body}    return ({values})\n", bound


@functools.lru_cache(maxsize=_CACHE_SIZE)
def field_function(asts, backend):
    """The function of the tuple of trees ``asts`` on ``backend``, "point" or
    "batch": it returns a tuple of their values at one point (or at each
    column of an (n, N) array), raising EvalError as eval_expr says.

    Compiled from generated source on first request and cached: trees equal
    as values compute the same bits, since a Number constant carries no sign.
    """
    source, bound = _emit(asts, backend)
    namespace = {**_BACKENDS[backend][3], **bound, "EvalError": EvalError, "ipow": _ipow}
    exec(compile(source, "<expression>", "exec"), namespace)
    return namespace["fn"]


def eval_expr(ast, x):
    """Evaluate ``ast`` as IEEE doubles at the point ``x`` (indexable,
    0-based), or at each column of a 2-D array ``x`` of shape (n, N).

    A point evaluation raises EvalError on a zero divisor, a domain error or
    a non-finite result of any operation. A batch returns N values; it
    raises EvalError if any of its points would (with a message that need
    not be that point's) or if ``x`` holds a non-finite entry, and its
    values agree with the point values to rounding.
    """
    if not (isinstance(x, np.ndarray) and x.ndim == 2):
        return ast._point_function(x)[0]
    X = np.asarray(x, float)
    if not np.isfinite(X).all():
        raise EvalError("non-finite entry in the batch of points")
    with np.errstate(all="ignore"):
        (out,) = ast._batch_function(X)
    if np.ndim(out) == 0:  # no variable in the tree
        return np.full(X.shape[1], out)
    return out if out.base is None else out.copy()  # a bare variable: a row of X


def _format_number(value):
    if value == int(value) and abs(value) < 1e16:
        return str(int(value))
    return repr(value)


# Grammar levels, loosest first: expr, term, unary, power, atom. A node
# printed where the grammar wants a tighter level gets parentheses.
_EXPR, _TERM, _UNARY, _POWER, _ATOM = range(5)
_OP_LEVEL = {"+": _EXPR, "-": _EXPR, "*": _TERM, "/": _TERM}


def _print(ast, need):
    if isinstance(ast, Number):
        return _format_number(ast.value)
    if isinstance(ast, Var):
        return f"x{ast.index}"
    if isinstance(ast, Call):
        return f"{ast.name}({', '.join(_print(a, _EXPR) for a in ast.args)})"
    if isinstance(ast, Unary):
        level, text = _UNARY, f"-{_print(ast.child, _UNARY)}"
    elif isinstance(ast, Binary) and ast.op == "^":
        level = _POWER
        text = f"{_print(ast.left, _ATOM)} ^ {_format_number(ast.right.value)}"
    elif isinstance(ast, Binary):
        # Left associativity: the right operand binds one level tighter.
        level = _OP_LEVEL[ast.op]
        text = f"{_print(ast.left, level)} {ast.op} {_print(ast.right, level + 1)}"
    else:
        raise TypeError(f"not an expression node: {ast!r}")
    return f"({text})" if level < need else text


def print_expr(ast):
    """Render ``ast`` with only the parentheses the grammar needs.

    parse(print_expr(a), dim) == a, and the text nests no deeper than any
    text that parses to ``a``, so whatever parses prints to text that parses.
    """
    return _print(ast, _EXPR)
