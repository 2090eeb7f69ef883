import json
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
from qvikit.solvers import SolverConfig, ZeroMap, solve_alg1, solve_zero

SCHEMA_PATH = Path(__file__).resolve().parent.parent / "docs" / "problem.schema.json"


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
    assert r5.constants.l_tilde.source == "sampled"


def test_remark5_sampled_l_tilde_bits(r5):
    # Recorded with the point-loop estimator; the batched screen keeps it.
    assert r5.constants.l_tilde.value.hex() == "0x1.7ffcb904063c4p+0"


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
        "direction": "decreasing",
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


def test_field_backed_scaffold_refuses_json(ex4):
    bad = ZeroProblem("t", 3, ex4.f,
                      ZeroMap.from_field(ex4.f, LinearExact(np.zeros((3, 3)))))
    with pytest.raises(ConfigError, match="matrix-backed"):
        problem_to_dict(bad)


@pytest.mark.parametrize("mutate,needle", [
    (lambda d: d.pop("dim"), "dim"),
    (lambda d: d.update(dim=0), "at least 1"),
    (lambda d: d.pop("f"), "'f'"),
    (lambda d: d.update(f=42), "expression list"),
    (lambda d: d.pop("v"), "'v'"),
    (lambda d: d.pop("inverse"), "'inverse'"),
    (lambda d: d.pop("set"), "'set'"),
    (lambda d: d.update(kind="lcp"), "unknown problem kind"),
    (lambda d: d.update(v=["0.5*x1"]), "pure matrix form"),
    (lambda d: d.update(inverse={"strategy": "picard"}), "'l'"),
    (lambda d: d.update(inverse={"strategy": "warp"}), "unknown strategy"),
    (lambda d: d.update(set={"type": "ball"}), "unknown type"),
    (lambda d: d.update(set={"type": "box", "lower": [0, 0], "upper": [1, 1]}),
     "dimension"),
    (lambda d: d.update(constants={"beta": 1.0}), "unknown name"),
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
    (lambda d: d.update(dim=None), "dim must be an integer"),
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
     r"set\.lower: vector entries must be finite"),
    (lambda d: d.update(set={"type": "box", "lower": [0], "upper": [float("inf")]}),
     r"set\.upper: vector entries must be finite"),
    (lambda d: d.update(constants={"l": {"value": -1.0}}),
     r"constants\.l\.value: expected a finite positive number"),
    (lambda d: d.update(constants={"L": 0.0}),
     r"constants\.L: expected a finite positive number"),
    (lambda d: d.update(constants={"l": {"value": 1.0, "source": "guessed"}}),
     r"constants\.l\.source: unknown source 'guessed'"),
    (lambda d: d.update(inverse={"strategy": "linear_exact", "inner_tol": float("nan")}),
     r"inverse\.inner_tol: expected a finite positive number"),
    (lambda d: d.update(inverse={"strategy": "linear_exact", "inner_tol": -1e-12}),
     r"inverse\.inner_tol: expected a finite positive number"),
    (lambda d: d.update(inverse={"strategy": "linear_exact", "max_inner": 0}),
     r"inverse\.max_inner: expected a finite positive number"),
    (lambda d: d.update(inverse={"strategy": "linear_exact", "max_inner": float("inf")}),
     r"inverse\.max_inner: expected a number"),
])
def test_problem_from_dict_error_catalog(mutate, needle):
    doc = _minimal_doc()
    mutate(doc)
    with pytest.raises(ConfigError, match=needle):
        problem_from_dict(doc)


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
