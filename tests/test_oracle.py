"""Solvers against the exact solution of affine box QVIs (affine_oracle.py)."""

import math

import numpy as np
import pytest
from affine_oracle import HI, LO, affine_box_qvi, exact_solution
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qvikit.model import natural_residual
from qvikit.solvers import SolverConfig, solve_alg1, solve_tseng

TOL = 1e-8
# The stated count: an instance whose rho does not bound solve_alg1 below it is
# not kept, and each kept solve, Tseng's too, must converge within it.
MAX_ITER = 10_000


def _constants(F, V):
    """L, l, l_tilde and gamma of an affine instance, spectral."""
    W = np.eye(len(F)) - V
    gamma = np.linalg.eigvalsh((F.T @ W + W.T @ F) / 2.0)[0]
    return (np.linalg.norm(F, 2), np.linalg.norm(V, 2), np.linalg.norm(np.linalg.inv(W), 2),
            gamma)


@pytest.mark.parametrize("seed", range(12))
def test_the_oracle_meets_the_vi_conditions_and_a_long_plain_solve(seed):
    _, F, V, c = affine_box_qvi(seed, 1 + seed % 4)
    x = exact_solution(F, V, c)
    # The VI conditions, as the natural map at h = 1: y = clip(y - (F x + c)).
    y = x - V @ x
    assert np.abs(y - np.clip(y - (F @ x + c), LO, HI)).max() <= 1e-12
    # Plain projected steps on G = F (I - V)^{-1}, run until the floats stop moving.
    G = F @ np.linalg.inv(np.eye(len(c)) - V)
    h = np.linalg.eigvalsh((G + G.T) / 2.0)[0] / np.linalg.norm(G, 2) ** 2
    y = np.zeros(len(c))
    for _ in range(100_000):
        y, y_old = np.clip(y - h * (G @ y + c), LO, HI), y
        if np.array_equal(y, y_old):
            break
    assert np.abs(np.linalg.solve(np.eye(len(c)) - V, y) - x).max() <= 1e-10


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_alg1_and_tseng_end_within_the_error_bound_of_the_exact_solution(seed):
    n = 1 + seed % 4
    problem, F, V, c = affine_box_qvi(seed, n)
    L, l, l_tilde, gamma = _constants(F, V)
    assume(gamma > 0.0)
    x_star, x0 = exact_solution(F, V, c), np.random.default_rng(seed).uniform(-20.0, 20.0, n)
    # The package's residual at x*, through v and the box, reads rounding.
    assert natural_residual(problem, x_star, 1.0) <= 1e-12
    # At h = gamma / L^2 the y-iterates contract by rho, and the residual is at
    # most (1 + rho) |y - y*|: that bounds the iterations from |y0 - y*|.
    rho = max(math.sqrt(max(0.0, 1.0 - gamma**2 / (L**2 * (1.0 + l) ** 2))), 0.5)
    d0 = np.linalg.norm((x0 - V @ x0) - (x_star - V @ x_star)) + 1e-300
    count = max(0, math.ceil(math.log(TOL / ((1.0 + rho) * d0)) / math.log(rho)))
    assume(count <= MAX_ITER)
    mu = gamma / (1.0 + l) ** 2
    for solve, h in ((solve_alg1, gamma / L**2), (solve_tseng, 0.9 / (L * l_tilde))):
        report = solve(problem, x0, SolverConfig(h=h, tol=TOL, max_iter=MAX_ITER))
        assert report.converged
        assert solve is solve_tseng or report.iterations <= count
        # The natural-map error bound (Facchinei and Pang 2003, ch. 6) in y, times
        # l_tilde back in x; 1e-14 is x*'s own rounding, for a residual of 0.
        bound = l_tilde * (1.0 + h * L * l_tilde) / (h * mu) * report.residual_final
        assert np.linalg.norm(report.x_final - x_star) <= bound + 1e-14
