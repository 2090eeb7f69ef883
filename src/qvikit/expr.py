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
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import EvalError, ParseError

FUNCTIONS = {"sin": 1, "cos": 1, "abs": 1, "sqrt": 1, "min": 2, "max": 2}

# Guard against absurd folded exponent chains like 9^9^9.
_MAX_EXPONENT = 1_000_000
# Parentheses, unary minus, call arguments and exponent chains nest at most
# this deep together, which keeps the recursive descent (up to eight Python
# frames a level) far below the interpreter's recursion limit.
_MAX_NESTING = 64
# Trees are at most this high, so that evaluating, printing and comparing
# them recursively (a frame or two a level) stays below that limit too. A
# sum or product of n terms is a tree n - 1 levels high.
_MAX_HEIGHT = 256


class _Node:
    """Base of the tree nodes. A root evaluated once keeps its compiled
    closures as private attributes (see eval_expr); pickling leaves them out."""

    def __getstate__(self):
        return {k: v for k, v in vars(self).items() if not k.endswith("_closure")}


@dataclass(frozen=True)
class Number(_Node):
    value: float


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

_TOKEN = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<number>(\d+(\.\d*)?|\.\d+)([eE][+-]?\d+)?)
  | (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<op>[-+*/^(),])
    """,
    re.VERBOSE,
)


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        if m.lastgroup == "number":
            tokens.append(("number", float(m.group()), pos))
        elif m.lastgroup == "ident":
            tokens.append(("ident", m.group(), pos))
        elif m.lastgroup == "op":
            tokens.append((m.group(), m.group(), pos))
        pos = m.end()
    tokens.append(("end", None, len(text)))
    return tokens


class _Parser:
    def __init__(self, tokens, dim):
        self.tokens = tokens
        self.dim = dim
        self.i = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
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
    node, _ = parser.expr()
    trailing = parser.peek()
    if trailing[0] != "end":
        raise ParseError(f"trailing input {trailing[1]!r}", trailing[2])
    return node


def _ipow(base, k):
    # Integer powers by repeated multiplication, per the evaluation contract.
    # For a batch the first product is a new array, multiplied in place after.
    out = 1.0
    for _ in range(k):
        out *= base
    return out


class _Backend(NamedTuple):
    """How compiled closures compute: on one point or on a batch of points."""

    attr: str           # where a compiled root keeps its closure
    var: object         # 0-based index -> closure reading that variable
    finite: object      # value -> every entry is finite
    has_zero: object    # value -> some entry is zero
    arithmetic: dict
    functions: dict


_POINT = _Backend(
    "_point_closure", lambda i: lambda x: float(x[i]), math.isfinite, operator.not_,
    {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv},
    {"sin": math.sin, "cos": math.cos, "abs": abs, "sqrt": math.sqrt,
     "min": min, "max": max})
_BATCH = _Backend(
    "_batch_closure", lambda i: lambda X: X[i], lambda a: np.isfinite(a).all(),
    lambda a: not np.all(a),
    {"+": np.add, "-": np.subtract, "*": np.multiply, "/": np.divide},
    {"sin": np.sin, "cos": np.cos, "abs": np.abs, "sqrt": np.sqrt,
     "min": np.minimum, "max": np.maximum})


def _compile(ast, b):
    """Nested closures computing ``ast`` with backend ``b``: left operand
    before right, arguments in order, every operation's result checked."""
    if isinstance(ast, Number):
        value = ast.value
        return lambda x: value
    if isinstance(ast, Var):
        return b.var(ast.index - 1)
    if isinstance(ast, Unary):
        child = _compile(ast.child, b)
        return lambda x: -child(x)
    finite = b.finite
    if isinstance(ast, Binary):
        left = _compile(ast.left, b)
        message = f"non-finite value from {ast.op!r}"
        if ast.op == "^":
            k = int(ast.right.value)

            def node(x):
                out = _ipow(left(x), k)
                if not finite(out):
                    raise EvalError(message)
                return out
            return node
        if ast.op not in b.arithmetic:
            raise TypeError(f"not an expression node: {ast!r}")
        right, apply = _compile(ast.right, b), b.arithmetic[ast.op]
        if ast.op == "/":
            has_zero = b.has_zero

            def node(x):
                num = left(x)
                den = right(x)
                if has_zero(den):
                    raise EvalError("division by zero")
                out = apply(num, den)
                if not finite(out):
                    raise EvalError(message)
                return out
            return node

        def node(x):
            out = apply(left(x), right(x))
            if not finite(out):
                raise EvalError(message)
            return out
        return node
    if isinstance(ast, Call):
        if len(ast.args) != FUNCTIONS.get(ast.name):
            raise TypeError(f"not an expression node: {ast!r}")
        args = [_compile(a, b) for a in ast.args]
        fn, name = b.functions[ast.name], ast.name

        def node(x):
            values = [a(x) for a in args]
            try:
                out = fn(*values)
            except ValueError as exc:  # math's domain errors
                raise EvalError(f"{name}: {exc}") from exc
            if not finite(out):
                raise EvalError(f"non-finite value from {name}")
            return out
        return node
    raise TypeError(f"not an expression node: {ast!r}")


def _compiled(ast, b):
    """The closure for ``ast`` on backend ``b``, compiled on first use and
    kept on the (frozen) root node."""
    closure = getattr(ast, b.attr, None)
    if closure is None:
        closure = _compile(ast, b)
        object.__setattr__(ast, b.attr, closure)
    return closure


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
        try:
            point = ast._point_closure
        except AttributeError:
            point = _compiled(ast, _POINT)
        return point(x)
    X = np.asarray(x, float)
    if not np.isfinite(X).all():
        raise EvalError("non-finite entry in the batch of points")
    batch = _compiled(ast, _BATCH)
    with np.errstate(all="ignore"):
        out = batch(X)
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
