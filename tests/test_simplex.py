import numpy as np
import pytest

from dcra.simplex import LpProgram, LpStatus, solve_lp
from oracles import enumerate_lp_max


def bounded_random_program(rng, m, n, k=None):
    """Feasible bounded program: first row is sum(x) = K, b built from a point."""
    A = rng.normal(size=(m, n))
    A[0] = 1.0
    x0 = rng.random(n)
    x0[rng.random(n) < 0.3] = 0.0
    b = A @ x0
    c = rng.normal(size=n)
    return LpProgram(c, A, b), x0


def test_one_constraint_by_hand():
    prog = LpProgram([1.0, 2.0], [[1.0, 1.0]], [1.0])
    sol = solve_lp(prog)
    assert sol.status is LpStatus.OPTIMAL
    assert sol.objective == pytest.approx(2.0, abs=1e-12)
    assert sol.x == pytest.approx([0.0, 1.0], abs=1e-12)


def test_infeasible_negative_rhs():
    # x >= 0 cannot reach x = -1
    sol = solve_lp(LpProgram([0.0], [[1.0]], [-1.0]))
    assert sol.status is LpStatus.INFEASIBLE
    assert sol.x is None


def test_infeasible_zero_row():
    sol = solve_lp(LpProgram([1.0, 1.0], [[1.0, 1.0], [0.0, 0.0]], [1.0, 2.0]))
    assert sol.status is LpStatus.INFEASIBLE


def test_unbounded_ray():
    # x = (t, t) is feasible for every t and the objective grows with t
    sol = solve_lp(LpProgram([1.0, 1.0], [[1.0, -1.0]], [0.0]))
    assert sol.status is LpStatus.UNBOUNDED
    assert sol.objective is None


def test_matches_vertex_enumeration_small():
    rng = np.random.default_rng(11)
    for trial in range(40):
        m = int(rng.integers(2, 6))
        n = int(rng.integers(m + 1, 11))
        prog, x0 = bounded_random_program(rng, m, n)
        sol = solve_lp(prog)
        assert sol.status is LpStatus.OPTIMAL, f"trial {trial}"
        ref = enumerate_lp_max(prog.objective, prog.constraints, prog.rhs)
        assert ref is not None
        assert sol.objective == pytest.approx(ref[0], abs=1e-8), f"trial {trial}"


def test_larger_random_programs_invariants():
    rng = np.random.default_rng(7)
    for trial in range(10):
        prog, x0 = bounded_random_program(rng, 20, 40)
        sol = solve_lp(prog)
        assert sol.status is LpStatus.OPTIMAL
        x = sol.x
        assert (x >= 0.0).all()
        resid = np.abs(prog.constraints @ x - prog.rhs).max()
        assert resid <= 1e-9 * (1.0 + np.abs(prog.rhs).max())
        # the optimum can never fall below the known feasible point
        assert sol.objective >= float(prog.objective @ x0) - 1e-9


def test_value_invariant_under_column_permutation():
    rng = np.random.default_rng(3)
    prog, _ = bounded_random_program(rng, 12, 30)
    base = solve_lp(prog).require_optimal()
    base_value = float(prog.objective @ base)
    perm = rng.permutation(30)
    shuffled = LpProgram(
        prog.objective[perm], prog.constraints[:, perm], prog.rhs
    )
    sol = solve_lp(shuffled)
    assert sol.objective == pytest.approx(base_value, abs=1e-8)


def test_value_invariant_under_row_scaling():
    rng = np.random.default_rng(4)
    prog, _ = bounded_random_program(rng, 8, 20)
    value = solve_lp(prog).objective
    scale = rng.uniform(0.5, 4.0, size=8)
    scaled = LpProgram(
        prog.objective, prog.constraints * scale[:, None], prog.rhs * scale
    )
    assert solve_lp(scaled).objective == pytest.approx(value, abs=1e-8)


def test_beale_degenerate_instance_terminates():
    # classic cycling example (Beale 1955) in equality form with slacks;
    # optimum of the max form is +1/20 at x = (1/25, 0, 1, 0)
    A = [
        [0.25, -60.0, -0.04, 9.0, 1.0, 0.0, 0.0],
        [0.50, -90.0, -0.02, 3.0, 0.0, 1.0, 0.0],
        [0.00, 0.0, 1.00, 0.0, 0.0, 0.0, 1.0],
    ]
    b = [0.0, 0.0, 1.0]
    c = [0.75, -150.0, 0.02, -6.0, 0.0, 0.0, 0.0]
    sol = solve_lp(LpProgram(c, A, b))
    assert sol.status is LpStatus.OPTIMAL
    assert sol.objective == pytest.approx(0.05, abs=1e-10)


def test_redundant_row_handled():
    # second row is the first row doubled: phase 1 must shed it
    A = [[1.0, 1.0, 1.0], [2.0, 2.0, 2.0]]
    b = [1.0, 2.0]
    sol = solve_lp(LpProgram([1.0, 2.0, 3.0], A, b))
    assert sol.status is LpStatus.OPTIMAL
    assert sol.objective == pytest.approx(3.0, abs=1e-10)


def test_degenerate_rhs_zeros():
    # zero right-hand sides force degenerate pivots from the very first step
    rng = np.random.default_rng(5)
    A = rng.normal(size=(6, 14))
    A[0] = 1.0
    b = np.zeros(6)
    b[0] = 1.0
    x0 = np.zeros(14)
    # feasibility is not guaranteed by construction here, so accept either
    # outcome but require the solver to terminate and certify what it found
    sol = solve_lp(LpProgram(rng.normal(size=14), A, b))
    assert sol.status in (LpStatus.OPTIMAL, LpStatus.INFEASIBLE)
    if sol.status is LpStatus.OPTIMAL:
        assert np.abs(A @ sol.x - b).max() <= 1e-9 * 2


def test_program_validation():
    with pytest.raises(ValueError):
        LpProgram([1.0], [[1.0, 2.0]], [1.0])
    with pytest.raises(ValueError):
        LpProgram([1.0, 2.0], [[1.0, 2.0]], [1.0, 2.0])
    with pytest.raises(ValueError):
        LpProgram([np.inf, 2.0], [[1.0, 2.0]], [1.0])
    with pytest.raises(ValueError):
        LpProgram([1.0, 2.0], np.ones((2, 2, 1)), [1.0])


def test_require_optimal_raises_on_infeasible():
    sol = solve_lp(LpProgram([0.0], [[1.0]], [-1.0]))
    with pytest.raises(RuntimeError):
        sol.require_optimal()
