"""Bundled benchmark problems and the JSON problem-file format.

Problem files are plain JSON, checked against the schema shipped beside
this module (src/qvikit/problem.schema.json) before anything is built. Vector
fields are lists of expression strings or a {matrix, remainder} split; the
inverse strategy is named explicitly so a file is self-contained. The same
format round-trips: dumping a bundled problem and loading it back yields a
problem that solves bit-identically.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, SingularLinearPart
from .expr import parse, print_expr
from .inverse import (
    LinearExact,
    PicardContraction,
    ScalarBracket,
    Semilinear,
)
from .model import (
    Box,
    Constant,
    NonnegativeOrthant,
    ProblemConstants,
    QviProblem,
    VectorField,
    WholeSpace,
)
from .solvers import ZeroMap


@dataclass(frozen=True, eq=False)
class ZeroProblem:
    """Root problem f(x) = 0 solved through a strictly monotone scaffold w."""

    name: str
    dim: int
    f: VectorField
    w: ZeroMap


# Example 2 and 3 share both the linear part of f and the linear part of v.
_SHARED_F_MATRIX = [[5.0, 7.0, 2.0], [4.0, 3.0, -3.0], [8.0, 1.0, 2.0]]
_SHARED_V_MATRIX = [[-9.0, -14.0, -4.0], [-8.0, -5.0, 6.0], [-16.0, -2.0, -3.0]]


def _example3_f():
    """The f of example 3, which example 4 shares."""
    return VectorField.from_matrix(
        _SHARED_F_MATRIX, ["0.8*sin(x2)^2", "0.7*sin(x3)", "0.8*cos(x1+x3)^3"])


def example1():
    f = VectorField.from_matrix([[3.0, 1.0], [1.0, 4.0]],
                                ["cos(x2)^3", "sin(x1)"])
    v = VectorField.from_matrix([[-0.2, -0.4], [-0.4, -0.6]])
    return QviProblem("example1", 2, f, v, LinearExact(v.matrix),
                      Box([-30.0, -30.0], [40.0, 40.0]))


def example2():
    f = VectorField.from_matrix(
        _SHARED_F_MATRIX,
        ["1.2*abs(sin(x2)^3)", "1.1*abs(sin(x3))", "cos(abs(x1)+x3)^3"],
    )
    v = VectorField.from_matrix(_SHARED_V_MATRIX)
    return QviProblem("example2", 3, f, v, LinearExact(v.matrix),
                      Box([-400.0] * 3, [500.0] * 3))


def example3():
    v = VectorField.from_matrix(
        _SHARED_V_MATRIX,
        ["0.6*cos(x2)^2", "0.5*sin(x1)", "0.7*sin(x3)^2"],
    )
    g = VectorField(3, remainder=v.remainder)
    # Componentwise slope bounds 0.6, 0.5, 0.7 give |g'| <= sqrt(1.10).
    inv = Semilinear(v.matrix, g, l_g=1.05)
    return QviProblem("example3", 3, _example3_f(), v, inv,
                      Box([-400.0] * 3, [500.0] * 3))


def example4():
    return ZeroProblem("example4", 3, _example3_f(), ZeroMap.from_matrix(_SHARED_F_MATRIX))


def remark5():
    f = VectorField.from_exprs(["-x1 + (1/3)*sin(x1)"], 1)
    v = VectorField.from_exprs(["2*x1 + (1/3)*cos(x1)"], 1)
    constants = ProblemConstants(
        # Exact slope bounds: |f'| <= 4/3, |v'| <= 7/3; the pair modulus
        # 2/9 follows from expanding <f(x)-f(y), (x-v(x))-(y-v(y))>.
        L=Constant(4.0 / 3.0, "declared"),
        l=Constant(7.0 / 3.0, "declared"),
        gamma=Constant(2.0 / 9.0, "declared"),
    )
    return QviProblem("remark5", 1, f, v, ScalarBracket(v, (-20.0, 20.0)),
                      NonnegativeOrthant(1), constants)


BUILTINS = {
    "example1": example1,
    "example2": example2,
    "example3": example3,
    "example4": example4,
    "remark5": remark5,
}


def get_builtin(name):
    try:
        return BUILTINS[name]()
    except KeyError:
        raise ConfigError(
            f"unknown builtin {name!r}; available: {', '.join(sorted(BUILTINS))}"
        ) from None


_SCHEMA = json.loads(Path(__file__).with_name("problem.schema.json")
                     .read_text(encoding="utf-8"))
_NAMES = {"object": "a JSON object", "array": "an array", "string": "a string",
          "number": "a number", "integer": "an integer"}
_BOUNDS = (("minimum", "of at least", operator.ge), ("exclusiveMinimum", "above", operator.gt),
           ("exclusiveMaximum", "below", operator.lt))
_SIZES = (("minLength", "at least", operator.ge), ("minItems", "at least", operator.ge),
          ("maxItems", "at most", operator.le))


def _is(value, kind):
    """Whether ``value`` has the schema type ``kind``. A number is finite
    (``json`` parses NaN and Infinity), and JSON ``true`` and ``false`` are
    no numbers."""
    if kind not in ("number", "integer"):
        return isinstance(value, {"object": dict, "array": list, "string": str}[kind])
    try:
        return (isinstance(value, (int, float)) and not isinstance(value, bool)
                and math.isfinite(value) and (kind == "number" or value == int(value)))
    except OverflowError:  # an integer beyond the floats
        return False


def _deref(schema):
    """``schema``, or the definition its local ``$ref`` names."""
    return _SCHEMA["$defs"][schema["$ref"].rsplit("/", 1)[1]] if "$ref" in schema else schema


def _fail(path, expected, value):
    got = type(value).__name__ if isinstance(value, (list, dict)) else repr(value)
    return ConfigError(f"{path or 'problem file'}: expected {expected}, got {got}")


def _validate(value, schema=_SCHEMA, path=""):
    """Raise a ConfigError naming the JSON path where ``value`` first breaks
    ``schema``, a node of problem.schema.json. Only the keywords that file
    uses are read; each ``$ref`` there stands alone, and the branches of each
    ``oneOf`` have distinct types, so the branch of the value's type decides.
    A branch's ``title`` names it when no branch has that type."""
    schema = _deref(schema)
    if "oneOf" in schema:
        branches = [_deref(branch) for branch in schema["oneOf"]]
        fits = [branch for branch in branches if _is(value, branch["type"])]
        if not fits:
            names = [branch.get("title", _NAMES[branch["type"]]) for branch in branches]
            raise _fail(path, f"{', '.join(names[:-1])} or {names[-1]}", value)
        _validate(value, fits[0], path)
    kind = schema.get("type")
    if kind is not None and not _is(value, kind):
        raise _fail(path, "a finite number" if kind == "number" and type(value) is float
                    else _NAMES[kind], value)
    if "const" in schema and value != schema["const"]:
        raise _fail(path, repr(schema["const"]), value)
    if "enum" in schema and value not in schema["enum"]:
        raise ConfigError(f"{path}: unknown {path.rsplit('.', 1)[-1]} {value!r}; expected "
                          f"one of {', '.join(map(repr, schema['enum']))}")
    for key, words, holds in _BOUNDS if kind in ("number", "integer") else ():
        if key in schema and not holds(value, schema[key]):
            raise _fail(path, f"{_NAMES[kind]} {words} {schema[key]}", value)
    for key, words, holds in _SIZES if kind in ("string", "array") else ():
        if key in schema and not holds(len(value), schema[key]):
            unit = "characters" if kind == "string" else "entries"
            raise _fail(path, f"{words} {schema[key]} {unit}", len(value))
    if "items" in schema:
        for i, item in enumerate(value):
            _validate(item, schema["items"], f"{path}[{i}]")
    if isinstance(value, dict):
        owner, prefix = path or "a problem file", f"{path}." if path else ""
        for key in schema.get("required", ()):
            if key not in value:
                raise ConfigError(f"{prefix}{key}: missing; {owner} needs {key!r}")
        known = schema.get("properties", {})
        for key, item in value.items():
            if key in known:
                _validate(item, known[key], prefix + key)
            elif schema.get("additionalProperties") is False:
                raise ConfigError(f"{prefix}{key}: unknown key; {owner} has {', '.join(known)}")
    for part in schema.get("allOf", ()):
        _validate(value, part, path)
    if "if" in schema:
        try:
            _validate(value, schema["if"], path)
            then = schema.get("then")
        except ConfigError:
            then = schema.get("else")
        if then is not None:
            _validate(value, then, path)


def _at(path, build, *args, **kwargs):
    """``build(*args, **kwargs)``; a ConfigError it raises, of the same type
    and ``offset``, names the JSON ``path`` at fault."""
    try:
        return build(*args, **kwargs)
    except ConfigError as exc:
        exc.args = (f"{path}: {exc}",)
        raise


def _field_to_json(field):
    """A bare expression list for a remainder alone, else {matrix[, remainder]}."""
    if field.matrix is None:
        return [print_expr(a) for a in field.remainder]
    out = {"matrix": [[float(v) for v in row] for row in field.matrix]}
    if field.remainder is not None:
        out["remainder"] = [print_expr(a) for a in field.remainder]
    return out


def _matrix(rows, dim, what):
    """``rows`` as a (dim, dim) array; any other shape is a ConfigError."""
    if len(rows) != dim or any(len(row) != dim for row in rows):
        raise ConfigError(f"{what}: expected a {dim}x{dim} matrix of finite numbers")
    return np.array(rows, float)


def _expressions(texts, dim, what):
    """The trees of ``texts`` if it holds ``dim`` expressions; else a
    ConfigError, for a parse error one naming the expression's path."""
    if len(texts) != dim:
        raise ConfigError(f"{what}: expected an expression list of length {dim}")
    return tuple(_at(f"{what}[{i}]", parse, text, dim) for i, text in enumerate(texts))


def _field_from_json(spec, dim, what):
    if spec == "zero":
        return VectorField.zero(dim)
    if isinstance(spec, list):
        return VectorField(dim, remainder=_expressions(spec, dim, what))
    remainder = spec.get("remainder")
    return VectorField(dim, _matrix(spec["matrix"], dim, f"{what}.matrix"),
                       remainder and _expressions(remainder, dim, f"{what}.remainder"))


def _set_to_json(cset):
    if isinstance(cset, WholeSpace):
        return {"type": "whole_space"}
    if isinstance(cset, NonnegativeOrthant):
        return {"type": "orthant"}
    return {"type": "box",
            "lower": [float(v) for v in cset.lower],
            "upper": [float(v) for v in cset.upper]}


def _set_from_json(spec, dim):
    if spec["type"] == "whole_space":
        return WholeSpace(dim)
    if spec["type"] == "orthant":
        return NonnegativeOrthant(dim)
    for key in ("lower", "upper"):
        if len(spec[key]) != dim:
            raise ConfigError(f"set.{key}: expected dimension {dim}, got {len(spec[key])}")
    lower, upper = np.array(spec["lower"], float), np.array(spec["upper"], float)
    if not np.all(lower <= upper):
        raise ConfigError("set.lower: must not exceed set.upper in any component")
    return Box(lower, upper)


def _inverse_to_json(spec):
    base = {"inner_tol": spec.inner_tol, "max_inner": spec.max_inner}
    if isinstance(spec, LinearExact):
        return {"strategy": "linear_exact", **base}
    if isinstance(spec, PicardContraction):
        return {"strategy": "picard", "l": spec.l, **base}
    if isinstance(spec, Semilinear):
        return {"strategy": "semilinear", "l_g": spec.l_g, **base}
    return {"strategy": "scalar_bracket",
            "bracket": [float(spec.bracket[0]), float(spec.bracket[1])], **base}


def _inverse_from_json(spec, v, dim):
    strategy, kwargs = spec["strategy"], {}
    if "inner_tol" in spec:
        kwargs["inner_tol"] = float(spec["inner_tol"])
    if "max_inner" in spec:
        kwargs["max_inner"] = int(spec["max_inner"])
    if strategy == "linear_exact":
        if v.matrix is None or v.remainder is not None:
            raise ConfigError("inverse.strategy: linear_exact needs v in pure matrix form")
        return _at("v.matrix", LinearExact, v.matrix, **kwargs)
    if strategy == "picard":
        return _at("inverse.l", PicardContraction, v, float(spec["l"]), **kwargs)
    if strategy == "semilinear":
        if v.matrix is None or v.remainder is None:
            raise ConfigError("inverse.strategy: semilinear needs v in {matrix, remainder} form")
        g = VectorField(dim, remainder=v.remainder)
        try:
            return Semilinear(v.matrix, g, float(spec["l_g"]), **kwargs)
        except ConfigError as exc:  # a singular I - A, else the contraction factor
            at = "v.matrix" if isinstance(exc, SingularLinearPart) else "inverse.l_g"
            exc.args = (f"{at}: {exc}",)
            raise
    if dim != 1:  # scalar_bracket, the schema's last strategy
        raise ConfigError("inverse.strategy: scalar_bracket only applies in dimension 1")
    try:
        return ScalarBracket(v, tuple(map(float, spec["bracket"])), **kwargs)
    except ValueError:  # the bracket's rule
        raise ConfigError("inverse.bracket: expected finite a < b with |a| + |b| "
                          f"finite, got {spec['bracket']!r}") from None


def _constants_to_json(constants):
    out = {}
    for name in ("L", "l", "l_tilde", "gamma"):
        c = getattr(constants, name)
        if c is not None:
            out[name] = {"value": c.value, "source": c.source}
    return out


def _constants_from_json(spec):
    return ProblemConstants(**{
        name: Constant(float(c["value"]), c.get("source", "declared")) if isinstance(c, dict)
        else Constant(float(c), "declared") for name, c in spec.items()})


def problem_to_dict(problem):
    """Serialize a problem to the JSON document structure."""
    zero = isinstance(problem, ZeroProblem)
    doc = {"meta": {"name": problem.name}, "kind": "zero" if zero else "qvi",
           "dim": problem.dim, "f": _field_to_json(problem.f)}
    if zero:
        return {**doc, "w": {"matrix": [[float(v) for v in row] for row in problem.w.matrix]}}
    return {**doc, "v": _field_to_json(problem.v), "inverse": _inverse_to_json(problem.inverse),
            "set": _set_to_json(problem.set), "constants": _constants_to_json(problem.constants)}


def problem_from_dict(doc):
    """Build a problem from a parsed JSON document. The document is checked
    against problem.schema.json first; only the rules that depend on ``dim``
    or on another field are checked here."""
    _validate(doc)
    dim, name = int(doc["dim"]), doc.get("meta", {}).get("name", "unnamed")
    f = _field_from_json(doc["f"], dim, "f")
    if doc.get("kind") == "zero":
        w = _at("w.matrix", ZeroMap.from_matrix, _matrix(doc["w"]["matrix"], dim, "w.matrix"))
        return ZeroProblem(name, dim, f, w)
    v = _field_from_json(doc["v"], dim, "v")
    return QviProblem(name, dim, f, v, _inverse_from_json(doc["inverse"], v, dim),
                      _set_from_json(doc["set"], dim),
                      _constants_from_json(doc.get("constants", {})))


def dumps_problem(problem):
    return json.dumps(problem_to_dict(problem), indent=2) + "\n"


def loads_problem(text):
    return problem_from_dict(json.loads(text))


def load_problem(path):
    with open(path, "r", encoding="utf-8") as fh:
        return problem_from_dict(json.load(fh))


def dump_problem(problem, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_problem(problem))
