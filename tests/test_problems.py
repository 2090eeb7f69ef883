import json
import math
from pathlib import Path

import numpy as np
import pytest

from qvikit.errors import ConfigError
from qvikit.inverse import LinearExact, PicardContraction, ScalarBracket, Semilinear
from qvikit.model import Box, NonnegativeOrthant, QviProblem, VectorField, WholeSpace
from qvikit.problems import (
    BUILTINS,
    ZeroProblem,
    dump_problem,
    dumps_problem,
    get_builtin,
    load_problem,
    loads_problem,
    problem_from_dict,
    problem_to_dict,
)
from qvikit import analysis, problems
from qvikit.solvers import SolverConfig, resolve_constant, solve_alg1, solve_zero

SCHEMA_PATH = Path(problems.__file__).with_name("problem.schema.json")


def _minimal_doc():
    return {
        "kind": "qvi",
        "dim": 1,
        "f": ["-x1"],
        "v": {"matrix": [[0.5]]},
        "inverse": {"strategy": "linear_exact"},
        "set": {"type": "orthant"},
    }


def test_builtin_catalog():
    assert set(BUILTINS) == {"example1", "example2", "example3",
                             "example4", "remark5"}
    dims = {"example1": 2, "example2": 3, "example3": 3,
            "example4": 3, "remark5": 1}
    for name, dim in dims.items():
        p = get_builtin(name)
        assert p.dim == dim
        assert p.name == name
    assert isinstance(get_builtin("example4"), ZeroProblem)
    assert isinstance(get_builtin("remark5"), QviProblem)


def test_builtin_inverse_strategies(ex1, ex3, r5):
    assert isinstance(ex1.inverse, LinearExact)
    assert isinstance(ex3.inverse, Semilinear)
    assert isinstance(r5.inverse, ScalarBracket)


def test_get_builtin_unknown_lists_available():
    with pytest.raises(ConfigError, match="example1"):
        get_builtin("example9")


def test_declared_scalar_constants(r5):
    assert r5.constants.L.value == 4.0 / 3.0
    assert r5.constants.l.value == 7.0 / 3.0
    assert r5.constants.gamma.value == 2.0 / 9.0
    assert r5.constants.L.source == "declared"
    assert r5.constants.l_tilde is None
    assert resolve_constant(r5, "l_tilde")[1] == "sampled"


def test_remark5_sampled_l_tilde_bits(r5):
    # Recorded with the point-loop estimator; the batched screen keeps it.
    assert resolve_constant(r5, "l_tilde")[0].hex() == "0x1.7ffcb904063c4p+0"


# The constants the builtins once stored, as resolve_constant derives them.
@pytest.mark.parametrize("name,constant,bits,source", [
    ("example1", "l", "0x1.b1c5fafacc3bap-1", "spectral"),
    ("example1", "l_tilde", "0x1.0caf84645649cp+0", "spectral"),
    ("example2", "l", "0x1.71e579b3f4f82p+4", "spectral"),
    ("example2", "l_tilde", "0x1.0bcfddf5e2a1cp-3", "spectral"),
    ("example3", "l_tilde", "0x1.366fd214e745dp-3", "spectral"),
    ("remark5", "l_tilde", "0x1.7ffcb904063c4p+0", "sampled"),
])
def test_builtin_constants_are_derived_not_stored(name, constant, bits, source):
    problem = get_builtin(name)
    assert getattr(problem.constants, constant) is None
    value, got = resolve_constant(problem, constant)
    assert (value.hex(), got) == (bits, source)


@pytest.mark.parametrize("name", sorted(BUILTINS))
def test_builtin_dump_holds_only_declared_constants(name):
    doc = problem_to_dict(get_builtin(name))
    assert {c["source"] for c in doc.get("constants", {}).values()} <= {"declared"}


@pytest.mark.parametrize("name", sorted(BUILTINS))
def test_building_a_builtin_draws_no_sample(name, monkeypatch):
    draws, draw = [], analysis._draw
    monkeypatch.setattr(analysis, "_draw",
                        lambda *args: draws.append(args) or draw(*args))
    get_builtin(name)
    assert draws == []


@pytest.mark.parametrize("name,x0,h", [
    ("example1", [6.0, 2.0], 0.01),
    ("example2", [43.0, 22.0, 55.0], 0.3),
    ("example3", [5.0, 4.0, 2.0], 0.3),
    ("remark5", [0.5], 0.5),
])
def test_round_trip_solves_bit_identical(name, x0, h):
    original = get_builtin(name)
    restored = loads_problem(dumps_problem(original))
    config = SolverConfig(h=h)
    a = solve_alg1(original, np.array(x0), config)
    b = solve_alg1(restored, np.array(x0), config)
    assert np.array_equal(a.x_final, b.x_final)
    assert a.iterations == b.iterations
    assert a.residual_final == b.residual_final
    assert a.converged == b.converged


def test_round_trip_zero_problem_bit_identical(ex4):
    restored = loads_problem(dumps_problem(ex4))
    config = SolverConfig(h=1.0, tol=1e-10)
    x0 = np.array([1e4, 2e4, 3e4])
    a = solve_zero(ex4.f, ex4.w, x0, config)
    b = solve_zero(restored.f, restored.w, x0, config)
    assert np.array_equal(a.x_final, b.x_final)
    assert a.iterations == b.iterations


def test_dump_and_load_file(tmp_path, r5):
    path = tmp_path / "problem.json"
    dump_problem(r5, path)
    text = path.read_text(encoding="utf-8")
    assert text.endswith("\n")
    restored = load_problem(path)
    assert restored.name == "remark5"
    assert restored.constants.gamma.value == 2.0 / 9.0


def test_builtin_documents_match_schema():
    jsonschema = pytest.importorskip("jsonschema")
    schema = json.loads(SCHEMA_PATH.read_text(encoding="utf-8"))
    for name in BUILTINS:
        jsonschema.validate(problem_to_dict(get_builtin(name)), schema)


def test_zero_field_shorthand():
    doc = _minimal_doc()
    doc["v"] = "zero"
    doc["inverse"] = {"strategy": "picard", "l": 0.0}
    p = problem_from_dict(doc)
    assert np.array_equal(p.v(np.array([3.0])), [0.0])


def test_bare_number_constant_is_declared():
    doc = _minimal_doc()
    doc["constants"] = {"L": 2.5, "gamma": {"value": 0.5, "source": "sampled"}}
    p = problem_from_dict(doc)
    assert p.constants.L.value == 2.5
    assert p.constants.L.source == "declared"
    assert p.constants.gamma.source == "sampled"


def test_set_variants_round_trip():
    for cset in (WholeSpace(2), NonnegativeOrthant(2),
                 Box([-1.0, 0.0], [1.0, 2.0])):
        p = QviProblem("t", 2, VectorField.zero(2), VectorField.zero(2),
                       LinearExact(np.zeros((2, 2))), cset)
        restored = loads_problem(dumps_problem(p))
        assert type(restored.set) is type(cset)


def test_inverse_parameters_round_trip(ex3, r5):
    doc3 = problem_to_dict(ex3)
    assert doc3["inverse"]["strategy"] == "semilinear"
    assert doc3["inverse"]["l_g"] == 1.05
    assert doc3["inverse"]["inner_tol"] == 1e-12
    doc5 = problem_to_dict(r5)
    assert doc5["inverse"] == {
        "strategy": "scalar_bracket",
        "bracket": [-20.0, 20.0],
        "inner_tol": 1e-12,
        "max_inner": 100_000,
    }
    restored = problem_from_dict(doc5)
    assert isinstance(restored.inverse, ScalarBracket)
    assert restored.inverse.bracket == (-20.0, 20.0)


def test_picard_strategy_from_json():
    doc = _minimal_doc()
    doc["v"] = ["0.3*sin(x1)"]
    doc["inverse"] = {"strategy": "picard", "l": 0.3, "max_inner": 500}
    p = problem_from_dict(doc)
    assert isinstance(p.inverse, PicardContraction)
    assert p.inverse.max_inner == 500


# Documents the schema rejects and the loader once took: JSON true and false
# for numbers, an unknown top-level key, a null remainder, a meta.name that
# is no string, and a null or non-object meta or constants.
_SCHEMA_REJECTS = [
    (lambda d: d.update(f={"matrix": [[True]]}),
     r"f\.matrix\[0\]\[0\]: expected a number, got True"),
    (lambda d: d.update(v={"matrix": [[False]]}),
     r"v\.matrix\[0\]\[0\]: expected a number, got False"),
    (lambda d: d.update(kind="zero", w={"matrix": [[True]]}),
     r"w\.matrix\[0\]\[0\]: expected a number, got True"),
    (lambda d: d.update(set={"type": "box", "lower": [False], "upper": [1]}),
     r"set\.lower\[0\]: expected a number, got False"),
    (lambda d: d.update(set={"type": "box", "lower": [0], "upper": [True]}),
     r"set\.upper\[0\]: expected a number, got True"),
    (lambda d: d.update(set={"type": "box", "lower": 0, "upper": True}),
     r"set\.lower: expected an array, got 0"),
    (lambda d: d.update(v=["-2*x1"], inverse={"strategy": "scalar_bracket",
                                              "bracket": [False, True]}),
     r"inverse\.bracket\[0\]: expected a number, got False"),
    (lambda d: d.update(v=["-2*x1"], inverse={"strategy": "scalar_bracket",
                                              "bracket": [-1, True]}),
     r"inverse\.bracket\[1\]: expected a number, got True"),
    (lambda d: d.update(name="ex"), r"name: unknown key; a problem file has meta, kind"),
    (lambda d: d.update(comment=None), r"comment: unknown key"),
    (lambda d: d.update(f={"matrix": [[1.0]], "remainder": None}),
     r"f\.remainder: expected an array, got None"),
    (lambda d: d.update(v={"matrix": [[0.5]], "remainder": None}),
     r"v\.remainder: expected an array, got None"),
    (lambda d: d.update(meta={"name": 5}), r"meta\.name: expected a string, got 5"),
    (lambda d: d.update(meta={"name": None}), r"meta\.name: expected a string, got None"),
    (lambda d: d.update(meta=None), "meta: expected a JSON object, got None"),
    (lambda d: d.update(meta=[]), "meta: expected a JSON object, got list"),
    (lambda d: d.update(constants=None), "constants: expected a JSON object, got None"),
    # Unknown keys inside the objects the schema closes, and a description
    # that is no string.
    (lambda d: d["inverse"].update(tolerance=1e-9),
     r"inverse\.tolerance: unknown key; inverse has strategy, l, l_g"),
    (lambda d: d["set"].update(radius=1.0), r"set\.radius: unknown key; set has type"),
    (lambda d: d.update(set={"type": "box", "lower": [0], "upper": [1], "closed": True}),
     r"set\.closed: unknown key"),
    (lambda d: d.update(constants={"L": {"value": 2.0, "note": "slope"}}),
     r"constants\.L\.note: unknown key; constants\.L has value, source"),
    (lambda d: d.update(f={"matrix": [[1.0]], "scale": 2}),
     r"f\.scale: unknown key; f has matrix, remainder"),
    (lambda d: d["v"].update(remainder=["0"], shift=[0]), r"v\.shift: unknown key"),
    (lambda d: d.update(kind="zero", w={"matrix": [[1.0]], "remainder": ["0"]}),
     r"w\.remainder: unknown key; w has matrix"),
    (lambda d: d.update(meta={"name": "ex", "description": 5}),
     r"meta\.description: expected a string, got 5"),
    (lambda d: d.update(meta={"description": None}),
     r"meta\.description: expected a string, got None"),
    # Keys that files once held: a bisection direction, which the bisection
    # never read, and mu, which no solver read.
    (lambda d: d.update(v=["-2*x1"], inverse={"strategy": "scalar_bracket",
                                              "bracket": [-1, 1], "direction": "decreasing"}),
     r"inverse\.direction: unknown key; inverse has strategy, l, l_g, bracket, inner_tol"),
    (lambda d: d.update(constants={"mu": {"value": 1.0, "source": "declared"}}),
     r"constants\.mu: unknown key; constants has L, l, l_tilde, gamma"),
    # Each strategy's own key, which the schema once left optional and the
    # loader required with a message that named no path.
    (lambda d: d.update(v=["0.3*sin(x1)"], inverse={"strategy": "picard"}),
     r"inverse\.l: missing; inverse needs 'l'"),
    (lambda d: d.update(v={"matrix": [[0.5]], "remainder": ["0.1*sin(x1)"]},
                        inverse={"strategy": "semilinear"}),
     r"inverse\.l_g: missing; inverse needs 'l_g'"),
    (lambda d: d.update(v=["-2*x1"], inverse={"strategy": "scalar_bracket"}),
     r"inverse\.bracket: missing; inverse needs 'bracket'"),
]


_ERROR_CATALOG = [
    (lambda d: d.pop("dim"), "dim"),
    (lambda d: d.update(dim=0), "at least 1"),
    (lambda d: d.pop("f"), "'f'"),
    (lambda d: d.update(f=42), "expression list"),
    (lambda d: d.pop("v"), "'v'"),
    (lambda d: d.pop("inverse"), "'inverse'"),
    (lambda d: d.pop("set"), "'set'"),
    (lambda d: d.update(kind="lcp"), "kind: unknown kind 'lcp'"),
    (lambda d: d.update(v=["0.5*x1"]), "pure matrix form"),
    (lambda d: d.update(inverse={"strategy": "picard"}), "'l'"),
    (lambda d: d.update(v=["0.3*sin(x1)"], inverse={"strategy": "picard", "l": 1.0}),
     r"inverse\.l: expected a number below 1, got 1\.0"),
    (lambda d: d.update(v=["0.3*sin(x1)"], inverse={"strategy": "picard", "l": -0.1}),
     r"inverse\.l: expected a number of at least 0, got -0\.1"),
    (lambda d: d.update(inverse={"strategy": "warp"}), "unknown strategy"),
    (lambda d: d.update(set={"type": "ball"}), "unknown type"),
    (lambda d: d.update(set={"type": "box", "lower": [0, 0], "upper": [1, 1]}),
     "dimension"),
    (lambda d: d.update(constants={"beta": 1.0}), r"constants\.beta: unknown key"),
    (lambda d: d.update(set={"type": "box", "upper": [1]}), r"set\.lower"),
    (lambda d: d.update(set={"type": "box", "lower": [0]}), r"set\.upper"),
    (lambda d: d.update(set={"type": "box"}), r"set\.lower"),
    (lambda d: d.update(set="box"), "set: expected a JSON object"),
    (lambda d: d.update(set=["box"]), "set: expected a JSON object"),
    (lambda d: d.update(inverse={"strategy": "scalar_bracket"}), r"inverse\.bracket"),
    (lambda d: d.update(inverse={"strategy": "scalar_bracket", "bracket": 5}),
     r"inverse\.bracket"),
    (lambda d: d.update(inverse="picard"), "inverse: expected a JSON object"),
    (lambda d: d.update(constants=[1.0]), "constants: expected a JSON object"),
    (lambda d: d.update(constants={"L": {"source": "declared"}}),
     r"constants\.L\.value"),
    (lambda d: d.update(meta="ex"), "meta: expected a JSON object"),
    (lambda d: d.update(dim=None), "dim: expected an integer, got None"),
    (lambda d: d.update(inverse={"strategy": "scalar_bracket", "bracket": [0, None]}),
     r"inverse\.bracket"),
    (lambda d: d.update(v=["0.3*sin(x1)"], inverse={"strategy": "picard", "l": None}),
     r"inverse\.l: expected a number"),
    (lambda d: d.update(inverse={"strategy": "linear_exact", "max_inner": "many"}),
     r"inverse\.max_inner"),
    (lambda d: d.update(constants={"L": None}), r"constants\.L: expected a number"),
    (lambda d: d.update(f={"matrix": [[1.0]], "remainder": 5}), r"f\.remainder"),
    (lambda d: d.update(v=42),
     r"v: expected an expression list, a \{matrix, remainder\} object"),
    (lambda d: d.update(set={"type": "box", "lower": [1], "upper": [0]}),
     r"set\.lower: must not exceed set\.upper"),
    (lambda d: d.update(set={"type": "box", "lower": [0], "upper": [1, 2]}),
     r"set\.upper: expected dimension 1, got 2"),
    (lambda d: d.update(set={"type": "box", "lower": [float("nan")], "upper": [1]}),
     r"set\.lower\[0\]: expected a finite number, got nan"),
    (lambda d: d.update(set={"type": "box", "lower": [0], "upper": [float("inf")]}),
     r"set\.upper\[0\]: expected a finite number, got inf"),
    (lambda d: d.update(constants={"l": {"value": -1.0}}),
     r"constants\.l\.value: expected a number above 0, got -1\.0"),
    (lambda d: d.update(constants={"L": 0.0}),
     r"constants\.L: expected a number above 0, got 0\.0"),
    (lambda d: d.update(constants={"l": {"value": 1.0, "source": "guessed"}}),
     r"constants\.l\.source: unknown source 'guessed'"),
    (lambda d: d.update(inverse={"strategy": "linear_exact", "inner_tol": float("nan")}),
     r"inverse\.inner_tol: expected a finite number, got nan"),
    (lambda d: d.update(inverse={"strategy": "linear_exact", "inner_tol": -1e-12}),
     r"inverse\.inner_tol: expected a number above 0, got -1e-12"),
    (lambda d: d.update(inverse={"strategy": "linear_exact", "max_inner": 0}),
     r"inverse\.max_inner: expected an integer of at least 1, got 0"),
    (lambda d: d.update(inverse={"strategy": "linear_exact", "max_inner": float("inf")}),
     r"inverse\.max_inner: expected an integer, got inf"),
    (lambda d: d.update(inverse={"strategy": "linear_exact", "max_inner": 2.7}),
     r"inverse\.max_inner: expected an integer, got 2\.7"),
    (lambda d: d.update(inverse={"strategy": "linear_exact", "max_inner": "3"}),
     r"inverse\.max_inner: expected an integer"),
    (lambda d: d.update(v={"matrix": [[0.5]], "remainder": ["0.1*sin(x1)"]},
                        inverse={"strategy": "semilinear", "l_g": -1.0}),
     r"inverse\.l_g: expected a number above 0, got -1\.0"),
    (lambda d: d.update(v={"matrix": [[0.5]], "remainder": ["0.1*sin(x1)"]},
                        inverse={"strategy": "semilinear", "l_g": 0}),
     r"inverse\.l_g: expected a number above 0, got 0"),
    (lambda d: d.update(f={"matrix": 5}), r"f\.matrix: expected an array, got 5"),
    (lambda d: d.update(f={"matrix": [[1.0, 2.0]]}), r"f\.matrix: expected a 1x1 matrix"),
    (lambda d: d.update(f={"matrix": [[1.0], [2.0, 3.0]]}), r"f\.matrix"),
    (lambda d: d.update(f={"matrix": [["one"]]}), r"f\.matrix"),
    (lambda d: d.update(v={"matrix": [[0.5, 0.0], [0.0, 0.5]]}),
     r"v\.matrix: expected a 1x1 matrix"),
    (lambda d: d.update(v={"matrix": [[float("nan")]]}),
     r"v\.matrix\[0\]\[0\]: expected a finite number, got nan"),
    (lambda d: d.update(kind="zero", w={"matrix": [[1.0, 0.0]]}),
     r"w\.matrix: expected a 1x1 matrix"),
    (lambda d: d.update(kind="zero", w={"matrix": 2.0}), r"w\.matrix"),
    (lambda d: d.update(f=["-x1", "-x1"]), r"f: expected an expression list of length 1"),
    (lambda d: d.update(v={"matrix": [[0.5]], "remainder": []}),
     r"v\.remainder: expected at least 1 entries, got 0"),
    (lambda d: d.update(inverse={"strategy": "linear_exact", "max_inner": True}),
     r"inverse\.max_inner: expected an integer, got True"),
    (lambda d: d.update(inverse={"strategy": "linear_exact", "inner_tol": True}),
     r"inverse\.inner_tol: expected a number, got True"),
    (lambda d: d.update(constants={"L": True}),
     r"constants\.L: expected a number or a \{value, source\} object, got True"),
    (lambda d: d.update(constants={"gamma": {"value": False}}),
     r"constants\.gamma\.value: expected a number, got False"),
    (lambda d: d.update(dim=2.7), r"dim: expected an integer, got 2\.7"),
    (lambda d: d.update(dim=True), r"dim: expected an integer, got True"),
    (lambda d: d.update(dim="1"), r"dim: expected an integer, got '1'"),
    (lambda d: d.update(v=["-2*x1"], inverse={"strategy": "scalar_bracket",
                                              "bracket": [0, float("inf")]}),
     r"inverse\.bracket\[1\]: expected a finite number, got inf"),
    (lambda d: d.update(v=["-2*x1"], inverse={"strategy": "scalar_bracket",
                                              "bracket": [float("nan"), 1]}),
     r"inverse\.bracket\[0\]: expected a finite number, got nan"),
    (lambda d: d.update(v=["-2*x1"], inverse={"strategy": "scalar_bracket",
                                              "bracket": [1, 0]}),
     r"inverse\.bracket: expected finite a < b .* got \[1, 0\]"),
    (lambda d: d.update(v=["-2*x1"], inverse={"strategy": "scalar_bracket",
                                              "bracket": [1, 1]}),
     r"inverse\.bracket: expected finite a < b .* got \[1, 1\]"),
    (lambda d: d.update(v=["-2*x1"], inverse={"strategy": "scalar_bracket",
                                              "bracket": [-1e308, 1e308]}),
     r"inverse\.bracket: expected finite a < b .* got \[-1e\+308, 1e\+308\]"),
    (lambda d: d.update(v=["-2*x1"], inverse={"strategy": "scalar_bracket",
                                              "bracket": [1e308, 1.5e308]}),
     r"inverse\.bracket: expected finite a < b .* got \[1e\+308, 1\.5e\+308\]"),
    # Rejections by the strategy or map built, which name their JSON path.
    (lambda d: d.update(v={"matrix": [[0.5]], "remainder": ["0.1*sin(x1)"]},
                        inverse={"strategy": "semilinear", "l_g": 5.0}),
     r"^inverse\.l_g: semilinear contraction factor 10\.000 is not < 1$"),
    (lambda d: d.update(v={"matrix": [[1.0]]}),
     r"^v\.matrix: I - V is numerically singular$"),
    (lambda d: d.update(v={"matrix": [[1.0]], "remainder": ["0.1*sin(x1)"]},
                        inverse={"strategy": "semilinear", "l_g": 0.1}),
     r"^v\.matrix: I - A is numerically singular$"),
    (lambda d: d.update(kind="zero", w={"matrix": [[0.0]]}),
     r"^w\.matrix: w matrix is numerically singular$"),
] + _SCHEMA_REJECTS


@pytest.mark.parametrize("mutate,needle", _ERROR_CATALOG)
def test_problem_from_dict_error_catalog(mutate, needle):
    doc = _minimal_doc()
    mutate(doc)
    with pytest.raises(ConfigError, match=needle):
        problem_from_dict(doc)


@pytest.mark.parametrize("mutate,needle", _SCHEMA_REJECTS)
def test_schema_rejects_the_documents_the_loader_now_rejects(mutate, needle):
    jsonschema = pytest.importorskip("jsonschema")
    schema = json.loads(SCHEMA_PATH.read_text(encoding="utf-8"))
    doc = _minimal_doc()
    jsonschema.validate(doc, schema)
    mutate(doc)
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(doc, schema)


def test_schema_and_loader_accept_a_picard_contraction_of_zero():
    # PicardContraction takes 0 <= l < 1, and the schema agrees.
    jsonschema = pytest.importorskip("jsonschema")
    doc = _minimal_doc()
    doc["inverse"] = {"strategy": "picard", "l": 0}
    jsonschema.validate(doc, json.loads(SCHEMA_PATH.read_text(encoding="utf-8")))
    assert problem_from_dict(doc).inverse.l == 0.0


# -- one JSON path of a dumped builtin changed at a time ----------------------

_SOLVE_FROM = {"example1": ([6.0, 2.0], 0.01), "example2": ([43.0, 22.0, 55.0], 0.3),
               "example3": ([5.0, 4.0, 2.0], 0.3), "example4": ([1e4, 2e4, 3e4], 1.0),
               "remark5": ([0.0], 0.5)}
_VALUES = [True, None, "x", -1, 0, [], {}]


def _json_paths(node, path=()):
    yield path
    items = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from _json_paths(child, path + (key,))


def _at(node, path):
    for key in path:
        node = node[key]
    return node


def _mutants(doc):
    """Copies of ``doc`` with one path changed: an unknown key added to an
    object, a key deleted, or a value replaced by each of _VALUES."""
    for path in _json_paths(doc):
        if isinstance(_at(doc, path), dict):
            changed = json.loads(json.dumps(doc))
            _at(changed, path)["unknown"] = 1
            yield path, "add a key", changed
        if not path:
            continue
        if isinstance(_at(doc, path[:-1]), dict):
            changed = json.loads(json.dumps(doc))
            del _at(changed, path[:-1])[path[-1]]
            yield path, "delete", changed
        for value in _VALUES:
            changed = json.loads(json.dumps(doc))
            _at(changed, path[:-1])[path[-1]] = value
            yield path, f"set {value!r}", changed


def _solve_outcome(problem, name):
    """The bits of a short solve from the builtin's start, or its error."""
    x0, h = _SOLVE_FROM[name]
    config = SolverConfig(h=h, max_iter=10)
    try:
        if isinstance(problem, ZeroProblem):
            report = solve_zero(problem.f, problem.w, x0, config)
        else:
            report = solve_alg1(problem, x0, config)
    except Exception as exc:  # any outcome must repeat after the round trip
        return type(exc).__name__, str(exc)
    return report.x_final.tobytes(), report.iterations, repr(report.residual_final)


@pytest.mark.parametrize("name", sorted(BUILTINS))
def test_changed_documents_load_or_raise_config_error(name):
    """Every one-path change of a dumped builtin loads or raises ConfigError,
    and what loads solves bit-identically after a dump and reload."""
    wrong = []
    for path, change, doc in _mutants(problem_to_dict(get_builtin(name))):
        try:
            problem = problem_from_dict(doc)
        except ConfigError:
            continue
        except Exception as exc:  # the property under test: no other error
            wrong.append((path, change, repr(exc)))
            continue
        again = loads_problem(dumps_problem(problem))
        if _solve_outcome(again, name) != _solve_outcome(problem, name):
            wrong.append((path, change, "round trip solves differently"))
    assert wrong == []


@pytest.mark.parametrize("name", sorted(BUILTINS))
def test_changed_documents_the_schema_rejects_raise_config_error(name):
    jsonschema = pytest.importorskip("jsonschema")
    validator = jsonschema.Draft202012Validator(
        json.loads(SCHEMA_PATH.read_text(encoding="utf-8")))
    loaded = []
    for path, change, doc in _mutants(problem_to_dict(get_builtin(name))):
        if validator.is_valid(doc):
            continue
        try:
            problem_from_dict(doc)
        except ConfigError:
            continue
        loaded.append((path, change))
    assert loaded == []


def _reference_validator():
    """jsonschema's Draft 2020-12 validator of the packaged schema, with the
    loader's numbers: finite ones only (json parses NaN and Infinity), and
    neither JSON true nor false."""
    jsonschema = pytest.importorskip("jsonschema")
    base = jsonschema.Draft202012Validator
    checker = base.TYPE_CHECKER.redefine_many({
        kind: lambda checker, value, kind=kind:
            base.TYPE_CHECKER.is_type(value, kind) and math.isfinite(value)
        for kind in ("number", "integer")})
    return jsonschema.validators.extend(base, type_checker=checker)(
        json.loads(SCHEMA_PATH.read_text(encoding="utf-8")))


def _loader_accepts(doc):
    try:
        problems._validate(doc)
    except ConfigError:
        return False
    return True


def test_loader_validator_agrees_with_jsonschema():
    """The same verdict on every one-path change of every builtin's dump and
    on every document of the error catalog."""
    reference = _reference_validator()
    docs = [doc for name in sorted(BUILTINS)
            for _, _, doc in _mutants(problem_to_dict(get_builtin(name)))]
    for mutate, _ in _ERROR_CATALOG:
        docs.append(_minimal_doc())
        mutate(docs[-1])
    disagree = [doc for doc in docs if reference.is_valid(doc) != _loader_accepts(doc)]
    assert disagree == []


@pytest.mark.parametrize("name", sorted(BUILTINS))
def test_builtin_dump_reloads_byte_identical(name):
    text = dumps_problem(get_builtin(name))
    assert dumps_problem(loads_problem(text)) == text


def test_problem_from_dict_rejects_non_object():
    with pytest.raises(ConfigError, match="JSON object"):
        problem_from_dict([1, 2, 3])


def test_semilinear_requirements():
    doc = _minimal_doc()
    doc["v"] = {"matrix": [[0.5]], "remainder": ["0.1*sin(x1)"]}
    doc["inverse"] = {"strategy": "semilinear"}
    with pytest.raises(ConfigError, match="l_g"):
        problem_from_dict(doc)
    doc["v"] = {"matrix": [[0.5]]}
    doc["inverse"] = {"strategy": "semilinear", "l_g": 0.1}
    with pytest.raises(ConfigError, match="remainder"):
        problem_from_dict(doc)


def test_scalar_bracket_needs_dimension_one():
    doc = {
        "kind": "qvi",
        "dim": 2,
        "f": ["-x1", "-x2"],
        "v": ["0", "0"],
        "inverse": {"strategy": "scalar_bracket", "bracket": [-1, 1]},
        "set": {"type": "orthant"},
    }
    with pytest.raises(ConfigError, match="dimension 1"):
        problem_from_dict(doc)


def test_zero_problem_needs_matrix_w(ex4):
    doc = problem_to_dict(ex4)
    del doc["w"]
    with pytest.raises(ConfigError, match="'w'"):
        problem_from_dict(doc)
