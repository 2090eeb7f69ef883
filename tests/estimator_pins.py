"""Pinned sampling results: the pairs of sample_pairs and every estimator.

    python tests/estimator_pins.py > tests/estimator_pins.json

writes the pins from the qvikit on the import path. The file in the repo was
written by the point-loop estimators that the batched screens replaced, and
``test_analysis.py`` checks that ``record()`` still reproduces it exactly:
floats are compared as ``float.hex``.
"""

import hashlib
import json
import sys

import qvikit as qk

SEEDS = range(32)
COUNT = 200
PAIR_PLANS = [dict(seed=0, count=300), dict(seed=7, count=500, lo=-2.0, hi=3.0),
              dict(seed=11, count=400, lo=0.0, hi=1e-3)]
# Pairs with pseudo-monotonicity violations: (f remainder, f matrix, w).
SYNTHETIC = {
    "synthetic1": (["-x1 + 0.5*sin(3*x1)"], None, ["x1 + 0.2*cos(x1)"]),
    "synthetic2": (["0.3*sin(x2)", "0.1*x1^2"], [[0.0, -1.0], [1.0, 0.0]],
                   ["x1 + 0.1*cos(x2)", "x2 - 0.2*sin(x1)/(1 + x2^2)"]),
}


def _digest(pairs):
    h = hashlib.sha256()
    for x, y in pairs:
        h.update(x.tobytes())
        h.update(y.tobytes())
    return h.hexdigest()[:32]


def _func_id_minus(v):
    return qk.FuncField(v.dim, lambda x: x - v(x))


def _estimates(f, w, seeds, extra=()):
    rows = {"lipschitz_f": [], "lipschitz_w": [], "pair_modulus": [], "pseudo": []}
    rows.update({name: [] for name, _ in extra})
    for seed in seeds:
        plan = qk.SamplingPlan(seed=seed, count=COUNT)
        rows["lipschitz_f"].append(qk.sample_lipschitz(f, plan).hex())
        rows["lipschitz_w"].append(qk.sample_lipschitz(w, plan).hex())
        rows["pair_modulus"].append(qk.sample_pair_modulus(f, w, plan).hex())
        report = qk.check_pseudo_pair(f, w, plan)
        rows["pseudo"].append([report.checked, report.violations,
                               _digest(report.witnesses)])
        for name, estimate in extra:
            rows[name].append(estimate(plan).hex())
    return rows


def record(id_minus=_func_id_minus, seeds=SEEDS):
    """Every pin, for the plan ``seeds``; ``id_minus(v)`` builds the field
    x - v(x) of the pair."""
    out = {"sample_pairs": {}, "estimators": {}}
    for i, plan in enumerate(PAIR_PLANS):
        for dim in (1, 2, 3):
            pairs = qk.sample_pairs(qk.SamplingPlan(**plan), dim)
            out["sample_pairs"][f"{i}.{dim}"] = f"{len(pairs)}:{_digest(pairs)}"
    for name in ("example1", "example2", "example3", "remark5"):
        p = qk.get_builtin(name)
        extra = [("lipschitz_v", lambda plan, p=p: qk.sample_lipschitz(p.v, plan)),
                 ("auto_step", lambda plan, p=p: qk.auto_step(p, plan)),
                 ("tseng_auto_step", lambda plan, p=p: qk.tseng_auto_step(p, plan))]
        if name == "remark5":
            extra.append(("l_tilde", lambda plan, p=p: p.inverse.lipschitz(
                seed=plan.seed, count=plan.count)))
        out["estimators"][name] = _estimates(p.f, id_minus(p.v), seeds, extra)
    for name, (rest, matrix, w_texts) in SYNTHETIC.items():
        dim = len(rest)
        f = qk.VectorField.from_matrix(matrix, rest) if matrix is not None \
            else qk.VectorField.from_exprs(rest, dim)
        out["estimators"][name] = _estimates(f, qk.VectorField.from_exprs(w_texts, dim),
                                             seeds)
    f4 = qk.get_builtin("example4").f
    out["estimators"]["example4"] = {"lipschitz_f": [
        qk.sample_lipschitz(f4, qk.SamplingPlan(seed=s, count=COUNT)).hex()
        for s in seeds]}
    out["remark5_l_tilde"] = qk.resolve_constant(qk.get_builtin("remark5"), "l_tilde")[0].hex()
    return out


if __name__ == "__main__":
    json.dump(record(), sys.stdout, indent=1)
    sys.stdout.write("\n")
