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
import re
from dataclasses import dataclass

from .errors import EvalError, ParseError

FUNCTIONS = {"sin": 1, "cos": 1, "abs": 1, "sqrt": 1, "min": 2, "max": 2}

# Guard against absurd folded exponent chains like 9^9^9.
_MAX_EXPONENT = 1_000_000
# Parentheses, unary minus, call arguments and exponent chains nest at most
# this deep together, which keeps the recursive descent (up to eight Python
# frames a level) far below the interpreter's recursion limit.
_MAX_NESTING = 64


@dataclass(frozen=True)
class Number:
    value: float


@dataclass(frozen=True)
class Var:
    index: int  # 1-based


@dataclass(frozen=True)
class Unary:
    child: "Expr"


@dataclass(frozen=True)
class Binary:
    op: str
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Call:
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

    def expect(self, kind):
        tok = self.peek()
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[1]!r}", tok[2])
        return self.advance()

    def expr(self):
        node = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.advance()[0]
            node = Binary(op, node, self.term())
        return node

    def term(self):
        node = self.unary()
        while self.peek()[0] in ("*", "/"):
            op = self.advance()[0]
            node = Binary(op, node, self.unary())
        return node

    def unary(self):
        if self.peek()[0] == "-":
            return Unary(self.nested(self.unary, self.advance()[2]))
        return self.power()

    def power(self):
        node = self.atom()
        if self.peek()[0] == "^":
            self.advance()
            node = Binary("^", node, Number(float(self.exponent())))
        return node

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
            return Number(tok[1])
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
            return Var(index)
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
        return Call(name, tuple(args))


def parse(text, dim):
    """Parse expression ``text`` over variables x1..x<dim> into an AST."""
    if not isinstance(text, str):
        raise ParseError(f"expected an expression string, got {text!r}", 0)
    if not text.strip():
        raise ParseError("empty expression", 0)
    parser = _Parser(_tokenize(text), dim)
    node = parser.expr()
    trailing = parser.peek()
    if trailing[0] != "end":
        raise ParseError(f"trailing input {trailing[1]!r}", trailing[2])
    return node


def _ipow(base, k):
    # Integer powers by repeated multiplication, per the evaluation contract.
    out = 1.0
    for _ in range(k):
        out *= base
    return out


def eval_expr(ast, x):
    """Evaluate ``ast`` at the point ``x`` (indexable, 0-based) as IEEE doubles."""
    if isinstance(ast, Number):
        return ast.value
    if isinstance(ast, Var):
        return float(x[ast.index - 1])
    if isinstance(ast, Unary):
        return -eval_expr(ast.child, x)
    if isinstance(ast, Binary):
        left = eval_expr(ast.left, x)
        if ast.op == "^":
            out = _ipow(left, int(ast.right.value))
        else:
            right = eval_expr(ast.right, x)
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
        args = [eval_expr(a, x) for a in ast.args]
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


def _format_number(value):
    if value == int(value) and abs(value) < 1e16:
        return str(int(value))
    return repr(value)


def print_expr(ast):
    """Render ``ast`` fully parenthesized; parse(print_expr(a), dim) == a."""
    if isinstance(ast, Number):
        return _format_number(ast.value)
    if isinstance(ast, Var):
        return f"x{ast.index}"
    if isinstance(ast, Unary):
        return f"(-{print_expr(ast.child)})"
    if isinstance(ast, Binary):
        return f"({print_expr(ast.left)} {ast.op} {print_expr(ast.right)})"
    if isinstance(ast, Call):
        return f"{ast.name}({', '.join(print_expr(a) for a in ast.args)})"
    raise TypeError(f"not an expression node: {ast!r}")
