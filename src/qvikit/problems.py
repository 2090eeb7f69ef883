"""Bundled benchmark problems and the JSON problem-file format.

Problem files are plain JSON (schema in docs/problem.schema.json). Vector
fields are lists of expression strings or a {matrix, remainder} split; the
inverse strategy is named explicitly so a file is self-contained. The same
format round-trips: dumping a bundled problem and loading it back yields a
problem that solves bit-identically.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .expr import print_expr
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
    as_vector,
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
    f = VectorField.from_matrix(
        _SHARED_F_MATRIX,
        ["0.8*sin(x2)^2", "0.7*sin(x3)", "0.8*cos(x1+x3)^3"],
    )
    v = VectorField.from_matrix(
        _SHARED_V_MATRIX,
        ["0.6*cos(x2)^2", "0.5*sin(x1)", "0.7*sin(x3)^2"],
    )
    g = VectorField(3, remainder=v.remainder)
    # Componentwise slope bounds 0.6, 0.5, 0.7 give |g'| <= sqrt(1.10).
    inv = Semilinear(v.matrix, g, l_g=1.05)
    return QviProblem("example3", 3, f, v, inv,
                      Box([-400.0] * 3, [500.0] * 3))


def example4():
    f = VectorField.from_matrix(
        _SHARED_F_MATRIX,
        ["0.8*sin(x2)^2", "0.7*sin(x3)", "0.8*cos(x1+x3)^3"],
    )
    return ZeroProblem("example4", 3, f, ZeroMap.from_matrix(_SHARED_F_MATRIX))


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


def _object(spec, path):
    """``spec`` if it is a JSON object; otherwise a ConfigError naming ``path``."""
    if not isinstance(spec, dict):
        raise ConfigError(f"{path}: expected a JSON object, got {type(spec).__name__}")
    return spec


def _known(spec, keys, path):
    """``spec`` if it holds no key outside ``keys``; otherwise a ConfigError
    naming the unknown key's path (``path`` "" is the document itself)."""
    for key in spec:
        if key not in keys:
            raise ConfigError(f"{path + '.' if path else ''}{key}: unknown key; "
                              f"{path or 'a problem file'} has {', '.join(keys)}")
    return spec


def _member(spec, key, path):
    """``spec[key]``; a missing key is a ConfigError naming ``path.key``."""
    if key not in spec:
        raise ConfigError(f"{path}.{key} is required")
    return spec[key]


def _number(spec, key, path, kind=float, positive=False):
    """``kind(spec[key])``; a missing or non-numeric value (JSON ``true``
    included), one that ``kind`` would change (2.7 as an int), or with
    ``positive`` one that is not finite and positive, is a ConfigError."""
    value = _member(spec, key, path)
    try:
        number = kind(value)
    except (TypeError, ValueError, OverflowError):
        number = None
    if number is None or isinstance(value, bool):
        raise ConfigError(f"{path}.{key}: expected a number, got {value!r}")
    if kind is int and number != value:
        raise ConfigError(f"{path}.{key}: expected an integer, got {value!r}")
    if positive and not 0 < number < np.inf:
        raise ConfigError(f"{path}.{key}: expected a finite positive number, got {value!r}")
    return number


def _holds_boolean(value):
    """Whether a JSON value is ``true`` or ``false``, or a list holding one
    at any depth: ``float`` takes them as numbers, the schema does not."""
    return isinstance(value, bool) or (isinstance(value, list)
                                       and any(map(_holds_boolean, value)))


def _field_to_json(field):
    """A bare expression list for a remainder alone, else {matrix[, remainder]}."""
    if field.matrix is None:
        return [print_expr(a) for a in field.remainder]
    out = {"matrix": [[float(v) for v in row] for row in field.matrix]}
    if field.remainder is not None:
        out["remainder"] = [print_expr(a) for a in field.remainder]
    return out


def _matrix(spec, dim, what):
    """``spec["matrix"]`` as a finite (dim, dim) array; else a ConfigError
    naming ``what.matrix``."""
    try:
        M = np.asarray(spec["matrix"], float)
    except (TypeError, ValueError, OverflowError):
        M = None
    if (M is None or M.shape != (dim, dim) or not np.isfinite(M).all()
            or _holds_boolean(spec["matrix"])):
        raise ConfigError(f"{what}.matrix: expected a {dim}x{dim} matrix of finite numbers")
    return M


def _expressions(texts, dim, what):
    """``texts`` if it is a list of ``dim`` entries; else a ConfigError."""
    if not isinstance(texts, list) or len(texts) != dim:
        raise ConfigError(f"{what}: expected an expression list of length {dim}")
    return texts


def _field_from_json(spec, dim, what):
    if spec == "zero":
        return VectorField.zero(dim)
    if isinstance(spec, list):
        return VectorField.from_exprs(_expressions(spec, dim, what), dim)
    if isinstance(spec, dict) and "matrix" in spec:
        _known(spec, ("matrix", "remainder"), what)
        remainder = None
        if "remainder" in spec:  # null included: the schema has no such form
            remainder = _expressions(spec["remainder"], dim, f"{what}.remainder")
        return VectorField.from_matrix(_matrix(spec, dim, what), remainder)
    raise ConfigError(f"{what}: expected an expression list, "
                      "a {matrix, remainder} object, or \"zero\"")


def _set_to_json(cset):
    if isinstance(cset, WholeSpace):
        return {"type": "whole_space"}
    if isinstance(cset, NonnegativeOrthant):
        return {"type": "orthant"}
    return {"type": "box",
            "lower": [float(v) for v in cset.lower],
            "upper": [float(v) for v in cset.upper]}


def _set_from_json(spec, dim):
    kind = _known(_object(spec, "set"), ("type", "lower", "upper"), "set").get("type")
    if kind == "whole_space":
        return WholeSpace(dim)
    if kind == "orthant":
        return NonnegativeOrthant(dim)
    if kind == "box":
        bounds = {}
        for key in ("lower", "upper"):
            value = _member(spec, key, "set")
            if _holds_boolean(value):
                raise ConfigError(f"set.{key}: expected numbers, got {value!r}")
            try:
                bounds[key] = as_vector(value, dim)
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"set.{key}: {exc}") from None
        if not np.all(bounds["lower"] <= bounds["upper"]):
            raise ConfigError("set.lower: must not exceed set.upper in any component")
        return Box(**bounds)
    raise ConfigError(f"set: unknown type {kind!r}")


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


_INVERSE_KEYS = ("strategy", "l", "l_g", "bracket", "inner_tol", "max_inner")


def _inverse_from_json(spec, v, dim):
    strategy = _known(_object(spec, "inverse"), _INVERSE_KEYS, "inverse").get("strategy")
    kwargs = {}
    if "inner_tol" in spec:
        kwargs["inner_tol"] = _number(spec, "inner_tol", "inverse", positive=True)
    if "max_inner" in spec:
        kwargs["max_inner"] = _number(spec, "max_inner", "inverse", int, positive=True)
    if strategy == "linear_exact":
        if v.matrix is None or v.remainder is not None:
            raise ConfigError("linear_exact needs v in pure matrix form")
        return LinearExact(v.matrix, **kwargs)
    if strategy == "picard":
        if "l" not in spec:
            raise ConfigError("picard needs the declared contraction 'l'")
        return PicardContraction(v, _number(spec, "l", "inverse"), **kwargs)
    if strategy == "semilinear":
        if v.matrix is None or v.remainder is None:
            raise ConfigError("semilinear needs v in {matrix, remainder} form")
        if "l_g" not in spec:
            raise ConfigError("semilinear needs the remainder bound 'l_g'")
        g = VectorField(dim, remainder=v.remainder)
        return Semilinear(v.matrix, g, _number(spec, "l_g", "inverse", positive=True),
                          **kwargs)
    if strategy == "scalar_bracket":
        if dim != 1:
            raise ConfigError("scalar_bracket only applies in dimension 1")
        bracket = _member(spec, "bracket", "inverse")
        try:
            a, b = (float(t) for t in bracket)
        except (TypeError, ValueError):
            a = None
        if a is None or _holds_boolean(bracket):
            raise ConfigError(f"inverse.bracket: expected [a, b], got {bracket!r}")
        # |a| + |b| finite keeps the width b - a and the midpoints finite.
        if not (a < b and np.isfinite(abs(a) + abs(b))):
            raise ConfigError("inverse.bracket: expected finite a < b with |a| + |b| "
                              f"finite, got {bracket!r}")
        return ScalarBracket(v, (a, b), **kwargs)
    raise ConfigError(f"inverse: unknown strategy {strategy!r}")


def _constants_to_json(constants):
    out = {}
    for name in ("L", "l", "l_tilde", "gamma"):
        c = getattr(constants, name)
        if c is not None:
            out[name] = {"value": c.value, "source": c.source}
    return out


def _constants_from_json(spec):
    kwargs = {}
    for name, value in _object(spec, "constants").items():
        if name not in ("L", "l", "l_tilde", "gamma"):
            raise ConfigError(f"constants: unknown name {name!r}")
        if isinstance(value, dict):
            _known(value, ("value", "source"), f"constants.{name}")
            number = _number(value, "value", f"constants.{name}", positive=True)
            source = value.get("source", "declared")
        else:
            number, source = _number(spec, name, "constants", positive=True), "declared"
        try:
            kwargs[name] = Constant(number, source)
        except ValueError as exc:  # the value is positive: the source is unknown
            raise ConfigError(f"constants.{name}.source: {exc}") from None
    return ProblemConstants(**kwargs)


def problem_to_dict(problem):
    """Serialize a problem to the JSON document structure."""
    if isinstance(problem, ZeroProblem):
        return {
            "meta": {"name": problem.name},
            "kind": "zero",
            "dim": problem.dim,
            "f": _field_to_json(problem.f),
            "w": {"matrix": [[float(v) for v in row] for row in problem.w.matrix]},
        }
    return {
        "meta": {"name": problem.name},
        "kind": "qvi",
        "dim": problem.dim,
        "f": _field_to_json(problem.f),
        "v": _field_to_json(problem.v),
        "inverse": _inverse_to_json(problem.inverse),
        "set": _set_to_json(problem.set),
        "constants": _constants_to_json(problem.constants),
    }


_KEYS = ("meta", "kind", "dim", "f", "v", "w", "inverse", "set", "constants")


def problem_from_dict(doc):
    """Build a problem from a parsed JSON document."""
    if not isinstance(doc, dict):
        raise ConfigError("problem file must hold a JSON object")
    _known(doc, _KEYS, "")
    if "dim" not in doc:
        raise ConfigError("problem file needs 'dim'")
    try:
        dim = _number(doc, "dim", "problem", int, positive=True)
    except ConfigError:
        raise ConfigError(f"dim must be an integer of at least 1, got {doc['dim']!r}") from None
    meta = _object(doc.get("meta", {}), "meta")
    for key in ("name", "description"):
        if not isinstance(meta.get(key, ""), str):
            raise ConfigError(f"meta.{key}: expected a string, got {meta[key]!r}")
    name = meta.get("name", "unnamed")
    kind = doc.get("kind", "qvi")
    if "f" not in doc:
        raise ConfigError("problem file needs 'f'")
    f = _field_from_json(doc["f"], dim, "f")

    if kind == "zero":
        w_spec = doc.get("w")
        if not isinstance(w_spec, dict) or "matrix" not in w_spec:
            raise ConfigError("zero problems need 'w' with a matrix")
        _known(w_spec, ("matrix",), "w")
        return ZeroProblem(name, dim, f, ZeroMap.from_matrix(_matrix(w_spec, dim, "w")))
    if kind != "qvi":
        raise ConfigError(f"unknown problem kind {kind!r}")

    for key in ("v", "inverse", "set"):
        if key not in doc:
            raise ConfigError(f"problem file needs {key!r}")
    v = _field_from_json(doc["v"], dim, "v")
    inverse = _inverse_from_json(doc["inverse"], v, dim)
    cset = _set_from_json(doc["set"], dim)
    constants = _constants_from_json(doc.get("constants", {}))
    return QviProblem(name, dim, f, v, inverse, cset, constants)


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
