"""Ground truth for affine box QVIs: a seeded generator and an exact solution.

With f = F x + c, v = V x and C a box [lo, hi], the QVI in y = x - v(x) is the
affine variational inequality of G = F (I - V)^{-1}: for each i, y_i = lo_i and
(G y + c)_i >= 0, or y_i = hi_i and (G y + c)_i <= 0, or (G y + c)_i = 0
(Facchinei and Pang 2003, ch. 1 and 6). For n <= 4, trying the 3^n patterns
of active bounds finds its unique solution with one small solve each.
"""

import itertools

import numpy as np

from qvikit.inverse import LinearExact
from qvikit.model import Box, QviProblem, VectorField

LO, HI = -1.0, 2.0


def affine_box_qvi(seed, n):
    """(problem, F, V, c): F = M M^T/n + I/2 + (S - S^T)/2, so F + F^T >= I;
    |V| drawn from [0.1, 0.6]; c from [-5, 5]^n; the box [-1, 2]^n."""
    rng = np.random.default_rng(seed)
    M, S, V = (rng.standard_normal((n, n)) for _ in range(3))
    F = M @ M.T / n + np.eye(n) / 2 + (S - S.T) / 2
    V *= rng.uniform(0.1, 0.6) / np.linalg.norm(V, 2)
    c = rng.uniform(-5.0, 5.0, n)
    f = VectorField.from_matrix(F, [repr(t) for t in c.tolist()])
    v = LinearExact(VectorField.from_matrix(V))
    return QviProblem("affine", n, f, v, Box([LO] * n, [HI] * n)), F, V, c


def exact_solution(F, V, c):
    """x* = (I - V)^{-1} y*, y* from the pattern (0: at lo, 1: at hi, 2: free)
    whose conditions it breaks least; the exact y* breaks none."""
    n = len(c)
    W = np.linalg.inv(np.eye(n) - V)
    G, best = F @ W, (np.inf, None)
    for pattern in itertools.product((0, 1, 2), repeat=n):
        p = np.array(pattern)
        y, free = np.where(p == 0, LO, HI), p == 2
        if free.any():  # (G y + c)_i = 0 on the free rows, the others at their bounds
            rhs = -c[free] - G[free][:, ~free] @ y[~free]
            y[free] = np.linalg.solve(G[np.ix_(free, free)], rhs)
        t = G @ y + c
        broken = max(np.max(LO - y), np.max(y - HI), np.max(np.where(p == 0, -t, 0.0)),
                     np.max(np.where(p == 1, t, 0.0)))
        if broken < best[0]:
            best = (broken, y)
    return W @ best[1]
