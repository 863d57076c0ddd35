"""A path-based MILP as exact ground truth above the brute-force oracle's reach.

Each terminal t picks one directed source->t path (binary arc variables
with flow conservation), and every edge pays its weight times a flow at
least the demand of each terminal whose path crosses it in either
direction. That is the problem's definition written as constraints; it
shares no code with the subset DP. HiGHS solves it with a zero relative
gap, so its optimum is exact up to floating point.
"""

import numpy as np
import pytest

scipy = pytest.importorskip("scipy")
from scipy.optimize import Bounds, LinearConstraint, milp  # noqa: E402
from scipy.sparse import coo_matrix  # noqa: E402

from ostflow import GenConfig, generate_instance, solve_ost  # noqa: E402

from helpers import slow  # noqa: E402


def milp_optimum(inst) -> float:
    """Least sum of weight x flow over per-terminal source paths."""
    edges = inst.graph.edges
    n, m = inst.graph.node_count, len(edges)
    terminals = sorted(inst.terminals)
    k = len(terminals)
    # variables: p[t, a] for directed arc a (a < m is u->v, a >= m is v->u), then f[e]
    arcs = [(u, v) for u, v, _ in edges] + [(v, u) for u, v, _ in edges]
    path_vars = k * 2 * m

    def p(t: int, a: int) -> int:
        return t * 2 * m + a

    rows, cols, vals, lower, upper = [], [], [], [], []
    row = 0
    for t, terminal in enumerate(terminals):
        for x in range(n):
            for a, (tail, head) in enumerate(arcs):
                if tail == x:
                    rows.append(row), cols.append(p(t, a)), vals.append(1.0)
                elif head == x:
                    rows.append(row), cols.append(p(t, a)), vals.append(-1.0)
            net = 1.0 if x == inst.source else -1.0 if x == terminal else 0.0
            lower.append(net), upper.append(net)
            row += 1
    for t, terminal in enumerate(terminals):
        demand = inst.terminals[terminal]
        for e in range(m):
            # f[e] - d_t * (p[t, uv] + p[t, vu]) >= 0
            rows += [row, row, row]
            cols += [path_vars + e, p(t, e), p(t, m + e)]
            vals += [1.0, -demand, -demand]
            lower.append(0.0), upper.append(np.inf)
            row += 1
    a_matrix = coo_matrix((vals, (rows, cols)), shape=(row, path_vars + m)).tocsr()
    cost = np.concatenate([np.zeros(path_vars), [w for _, _, w in edges]])
    result = milp(
        cost,
        integrality=np.concatenate([np.ones(path_vars), np.zeros(m)]),
        bounds=Bounds(np.zeros(path_vars + m),
                      np.concatenate([np.ones(path_vars), np.full(m, np.inf)])),
        constraints=LinearConstraint(a_matrix, lower, upper),
        options={"mip_rel_gap": 0.0},
    )
    assert result.success, result.message
    return float(result.fun)


# (node_count, avg_degree, terminal_count, seed)
MILP_CASES = [
    (20, 3.0, 4, 1),
    (20, 4.0, 4, 2),
    (25, 3.0, 5, 3),
    (30, 3.0, 5, 4),
    (30, 4.0, 6, 5),
    (40, 3.0, 6, 6),
    (35, 3.5, 6, 7),
    (40, 4.0, 6, 8),
    (25, 5.0, 5, 9),
    # about 12 s each: the slow tier
    *(pytest.param(60, 4.0, 8, seed, marks=slow) for seed in (1, 2, 3)),
]


@pytest.mark.parametrize("n, degree, k, seed", MILP_CASES)
def test_ost_matches_milp_optimum(n, degree, k, seed):
    inst = generate_instance(
        GenConfig(node_count=n, avg_degree=degree, terminal_count=k, seed=seed)
    )
    exact = milp_optimum(inst)
    cost = solve_ost(inst).cost
    assert abs(cost - exact) <= 1e-9 * max(1.0, exact), (cost, exact)
