"""The mutation catalog and its runner.

Each entry changes one text in one file of a temporary copy of the repository
and names the tests that must then fail. Run from anywhere:

    python tools/mutants.py

The selected tests must first pass on the unchanged copy. An entry whose old
text is not found exactly once fails by name, so a change that moves the code
updates its entry. An entry with a verdict is a known survivor: its tests must
pass, and the verdict says why that is accepted. Exit status 0 means every
entry is caught and every survivor survives.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

INV, SOLVERS, MODEL, ANALYSIS = (f"src/qvikit/{m}.py" for m in
                                 ("inverse", "solvers", "model", "analysis"))
T_INV, T_SOLVERS, T_MODEL, T_ANALYSIS = (f"tests/test_{m}.py" for m in
                                         ("inverse", "solvers", "model", "analysis"))
ROW_BY_ROW = f"{T_INV}::test_picard_inverts_in_a_row_keep_their_results"
SCREENED = f"{T_INV}::test_the_screened_check_leaves_to_the_exact_norm_where_math_dist_reads_less"
EXACT = f"{T_INV}::test_the_screened_check_decides_as_the_exact_norm"
PROJECTION = f"{T_MODEL}::test_float_projection_is_project_bit_for_bit"
PINS = f"{T_SOLVERS}::test_solver_results_bit_for_bit"
OTHER_MAP = (f"{T_SOLVERS}::"
             "test_a_solve_whose_inverse_checks_another_map_evaluates_v_at_every_iterate")

# (file, old text, new text, test selection, reason[, verdict])
CATALOG = [
    (INV, "k, later = later, min(2 * later, _MAX_CHUNK)", "k = min(2 * k, _MAX_CHUNK)",
     f"{T_SOLVERS}::test_picard_chunks_of_a_solve_compute_few_rows_past_the_stops",
     "a missed Picard chunk doubles from the first chunk"),
    (INV, "min(max(self._steps, 1), _MAX_CHUNK)", "_FIRST_CHUNK",
     f"{T_SOLVERS}::test_picard_inverts_of_a_solve_screen_once_each",
     "the first Picard chunk ignores _steps"),
    (ANALYSIS, "ratio = float(np.divide(", "ratio = float(operator.truediv(",
     f"{T_ANALYSIS}::test_sample_lipschitz_skips_a_pair_at_distance_zero",
     "sample_lipschitz divides on Python floats, which raise at distance zero"),
    (INV, "min(tol * (1.0 - 1e-6), 1e150)", "min(tol, 1e150)", f"{SCREENED}[1000]",
     "the screened check drops its 1e-6 margin"),
    (INV, "1e-150 < d <", "0.0 < d <", f"{SCREENED}[3]",
     "the screened check drops its 1e-150 floor"),
    (INV, "min(tol * (1.0 - 1e-6), 1e150)", "tol * (1.0 - 1e-6)", EXACT,
     "the screened check drops its 1e150 cap"),
    (INV, "0.0 == d <= tol or", "0.0 == d or", EXACT,
     "a zero distance passes the screened check whatever the tolerance"),
    (SOLVERS, "< 0.999 * _DIVERGENCE_GUARD", "< _DIVERGENCE_GUARD",
     f"{T_SOLVERS}::test_the_divergence_guard_decides_by_the_exact_norm",
     "the divergence guard's math.hypot test drops its 0.999 factor"),
    (MODEL, "t if t > 0.0 or t != t else 0.0", "t if t >= 0.0 or t != t else 0.0",
     f"{PROJECTION}[orthant]", "the orthant projection keeps -0.0 on a tie of zeros"),
    (MODEL, "< hi or m != m else hi", "<= hi or m != m else hi",
     f"{PROJECTION}[signed-zero-box]", "the box projection keeps its point on a tie at hi"),
    (INV, "x = xs[stop].copy()", "x = xs[stop]", ROW_BY_ROW,
     "Picard returns a row of its buffer at the stop"),
    (INV, "x = xs[-1].copy()", "x = xs[-1]", ROW_BY_ROW,
     "Picard goes on from a row of its buffer at a chunk's end"),
    (INV, "def __getstate__(self):\n        # A copy", "def _getstate(self):\n        # A copy",
     ROW_BY_ROW, "a copied Picard spec shares row views with its original"),
    (INV, "min(max(self._steps, 1), _MAX_CHUNK)", "max(self._steps, 1)", ROW_BY_ROW,
     "a first Picard chunk is as long as any hint, past _MAX_CHUNK"),
    (INV, "n, failure = m, exc", "n, failure = m + 1, exc",
     f"{T_INV}::test_picard_invert_matches_the_reference_loop",
     "a Picard chunk whose v raises ends one row late"),
    (INV, "if self._matrix and self.l < (norm", "if False and self.l < (norm",
     f"{T_INV}::test_a_picard_l_below_the_norm_of_a_matrix_v_is_refused_where_built",
     "a Picard spec takes an l below the norm of a matrix v"),
    (INV, "if not (a < b and math.isfinite(abs(a) + abs(b))):", "if not a < b:",
     f"{T_INV}::test_a_bracket_is_refused_where_built",
     "a ScalarBracket takes a bracket whose |a| + |b| overflows"),
    (ANALYSIS, "float(np.divide(num, np.dot(x - y, x - y)))", "num / float(np.dot(x - y, x - y))",
     f"{T_ANALYSIS}::test_sample_pair_modulus_skips_a_pair_at_distance_zero",
     "sample_pair_modulus divides on Python floats, which raise at distance zero"),
    (INV, "x = x + lu.solve(list(", "x = x + lu._solve(list(",
     f"{T_INV}::test_linear_exact_refinement_that_overflows_raises_as_before",
     "LinearExact's refinement solve goes unchecked"),
    (INV, " and M.tobytes() == v.matrix.tobytes())", ")", f"{OTHER_MAP}[other-matrix-alg1]",
     "inverts_v ignores LinearExact's matrix bytes"),
    (INV, "v.remainder == rest", "True", f"{OTHER_MAP}[other-remainder-alg1]",
     "inverts_v ignores Semilinear's remainder"),
    (INV, "math.isfinite(sum(values)) or all(map(math.isfinite, values))",
     "math.isfinite(sum(values))",
     f"{T_INV}::test_all_finite_gives_numpys_verdict_without_warnings",
     "_all_finite reads an overflowing sum as a non-finite entry"),
    (SOLVERS, "[a + h * (b - c) for a, b, c in zip(y, fx, fz)]",
     "[a + h * b - h * c for a, b, c in zip(y, fx, fz)]", f"{PINS}[tseng-literal.example1]",
     "the literal Tseng update leaves NumPy's operation order"),
    (SOLVERS, "[a - h * (c - b) for a, b, c in zip(ybar, fx, fz)]",
     "[a - h * c + h * b for a, b, c in zip(ybar, fx, fz)]", f"{PINS}[tseng.example1]",
     "the Tseng update leaves NumPy's operation order"),
]


def pytest(copy, env, selection):
    """pytest's exit status on the selection: 0 passed, 1 some test failed."""
    return subprocess.run([sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                           *selection], cwd=copy, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL).returncode


def main(entries):
    root, bad = Path(__file__).resolve().parent.parent, []
    with tempfile.TemporaryDirectory() as copy:
        for name in ("src", "tests"):
            shutil.copytree(root / name, Path(copy) / name)
        shutil.copy(root / "pyproject.toml", copy)
        # No bytecode: a mutant of the same size written within a second could
        # otherwise run from a stale cache.
        env = {**os.environ, "PYTHONPATH": str(Path(copy) / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        where = subprocess.run([sys.executable, "-c", "import qvikit; print(qvikit.__file__)"],
                               cwd=copy, env=env, capture_output=True, text=True).stdout
        if not Path(where.strip() or ".").resolve().is_relative_to(Path(copy).resolve()):
            return f"qvikit is imported from {where.strip()!r}, not the copy"
        if pytest(copy, env, sorted({e[3] for e in entries})) != 0:
            return "the selected tests fail on the unchanged copy"
        for file, old, new, selection, reason, *verdict in entries:
            path, start = Path(copy) / file, time.perf_counter()
            text = path.read_text(encoding="utf-8")
            if text.count(old) != 1:
                outcome = f"STALE (old text found {text.count(old)} times in {file})"
            else:
                path.write_text(text.replace(old, new), encoding="utf-8")
                code = pytest(copy, env, [selection])
                path.write_text(text, encoding="utf-8")
                outcome = {(1, False): "caught", (0, True): "survives, as its verdict says"}.get(
                    (code, bool(verdict)), f"NOT AS EXPECTED (pytest exit {code})")
            if not outcome.startswith(("caught", "survives")):
                bad.append(reason)
            print(f"{time.perf_counter() - start:6.1f} s  {reason}: {outcome}", flush=True)
    return f"{len(bad)} of {len(entries)} entries failed: {bad}" if bad else None


if __name__ == "__main__":
    sys.exit(main(CATALOG))
