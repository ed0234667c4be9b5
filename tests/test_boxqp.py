import numpy as np
import pytest

import submodqp as sq
from submodqp import boxqp, lattice
from submodqp.exceptions import InputError, NumericalError


@pytest.fixture
def small_quad():
    return sq.QuadraticForm([[2, -1], [-1, 2]], [1, 0])


def test_interior_minimum(small_quad):
    sol = boxqp.solve(small_quad, np.zeros(2), np.full(2, 10.0))
    assert np.allclose(sol.x, [2.0 / 3.0, 1.0 / 3.0], atol=1e-12)
    assert sol.value == pytest.approx(-1.0 / 3.0, abs=1e-12)
    # both coordinates strictly inside the box
    assert np.all(sol.x > 0.0) and np.all(sol.x < 10.0)


def test_pinned_coordinate(small_quad):
    sol = boxqp.solve(small_quad, np.zeros(2), np.array([10.0, 0.0]))
    assert np.allclose(sol.x, [0.5, 0.0], atol=1e-12)
    assert sol.value == pytest.approx(-0.25, abs=1e-12)


def test_zero_linear_term_global_minimum():
    quad = sq.QuadraticForm([[3, -1], [-1, 4]], [0, 0])
    sol = boxqp.solve(quad, np.array([-2.0, -5.0]), np.array([4.0, 1.0]))
    assert np.allclose(sol.x, 0.0, atol=1e-14)
    assert sol.value == pytest.approx(0.0, abs=1e-14)


def test_infinite_bounds(small_quad):
    sol = boxqp.solve(small_quad, np.full(2, -np.inf), np.full(2, np.inf))
    assert np.allclose(sol.x, [2.0 / 3.0, 1.0 / 3.0], atol=1e-12)


def test_active_upper_bound(small_quad):
    sol = boxqp.solve(small_quad, np.zeros(2), np.array([0.25, 10.0]))
    # x1 clamps at 0.25; x2 solves -(-1)*0.25... gradient zero at x2 = 0.125
    assert sol.x[0] == 0.25
    assert sol.x[1] == pytest.approx(0.125, abs=1e-12)
    assert small_quad.grad(sol.x)[0] < 0.0  # the upper bound binds


def test_rejects_non_stieltjes():
    quad = sq.QuadraticForm([[2, 0.5], [0.5, 2]], [0, 0])
    with pytest.raises(InputError):
        boxqp.solve(quad, np.zeros(2), np.ones(2))


def test_rejects_indefinite():
    quad = sq.QuadraticForm([[1, -2], [-2, 1]], [0, 0])
    with pytest.raises(InputError):
        boxqp.solve(quad, np.zeros(2), np.ones(2))


def test_rejects_empty_box(small_quad):
    with pytest.raises(InputError):
        boxqp.solve(small_quad, np.array([1.0, 0.0]), np.array([0.5, 1.0]))


def test_kkt_audit_random_instances():
    for seed in range(25):
        prob = sq.InstanceSampler(n=8, regime="mixed", seed=seed).draw(0)
        sol = boxqp.solve(prob.quad, prob.lo, prob.up)
        tol = boxqp.KKT_TOL_FACTOR * (1.0 + float(np.abs(prob.quad.a).max()))
        assert sol.kkt_residual <= tol
        assert np.all(sol.x >= prob.lo - 1e-12) and np.all(sol.x <= prob.up + 1e-12)
        assert sol.value == pytest.approx(prob.quad.value(sol.x), abs=1e-12)


def test_uniqueness_under_permutation():
    rng = np.random.default_rng(7)
    for seed in range(10):
        prob = sq.InstanceSampler(n=7, regime="mixed", seed=30 + seed).draw(0)
        sol = boxqp.solve(prob.quad, prob.lo, prob.up)
        perm = rng.permutation(prob.n)
        qp = sq.QuadraticForm(prob.quad.Q[np.ix_(perm, perm)], prob.quad.a[perm])
        solp = boxqp.solve(qp, prob.lo[perm], prob.up[perm])
        back = np.empty(prob.n)
        back[perm] = solp.x
        assert np.max(np.abs(back - sol.x)) <= 1e-8


def test_isotone_in_linear_term():
    # raising a_i raises the minimizer componentwise (Topkis isotonicity)
    rng = np.random.default_rng(12)
    for seed in range(15):
        prob = sq.InstanceSampler(n=6, regime="mixed", seed=60 + seed).draw(0)
        base = boxqp.solve(prob.quad, prob.lo, prob.up).x
        i = int(rng.integers(prob.n))
        a2 = prob.quad.a.copy()
        a2[i] += float(rng.uniform(0.05, 2.0))
        bumped = boxqp.solve(sq.QuadraticForm(prob.quad.Q, a2), prob.lo, prob.up).x
        assert np.all(bumped >= base - 1e-10)


def test_degenerate_gradient_classifies_to_bound():
    # gradient is exactly 0 at the lower bound: the minimizer is the bound itself
    quad = sq.QuadraticForm([[2.0]], [0.0])
    sol = boxqp.solve(quad, np.zeros(1), np.ones(1))
    assert sol.x.tolist() == [0.0]


def test_value_function_four_corners(small_quad):
    smap, _ = lattice.split(np.zeros(2), np.full(2, 10.0))
    v = {}
    for z in ([0, 0], [1, 0], [0, 1], [1, 1]):
        v[tuple(z)] = boxqp.value_function(small_quad, np.zeros(2), np.full(2, 10.0), smap, z)
    assert v[0, 0] == pytest.approx(0.0, abs=1e-12)
    assert v[1, 0] == pytest.approx(-0.25, abs=1e-12)
    assert v[0, 1] == pytest.approx(0.0, abs=1e-12)
    assert v[1, 1] == pytest.approx(-1.0 / 3.0, abs=1e-12)
    # submodular inequality on the four corners
    assert v[1, 0] + v[0, 1] >= v[0, 0] + v[1, 1]


def test_value_function_all_off_is_constant_term():
    quad = sq.QuadraticForm([[2, -1], [-1, 2]], [1, 0], k0=3.5)
    smap, _ = lattice.split(np.zeros(2), np.full(2, 10.0))
    v0 = boxqp.value_function(quad, np.zeros(2), np.full(2, 10.0), smap, [0, 0])
    assert v0 == pytest.approx(3.5, abs=1e-12)


def test_finite_box_leaves_finite_bounds_alone(small_quad, monkeypatch):
    lo, up = np.array([-1.0, 0.0]), np.array([2.0, 3.0])
    monkeypatch.setattr(boxqp, "solve", None)  # finite input solves nothing
    got_lo, got_up = boxqp.finite_box(small_quad, lo, up)
    assert got_lo is lo and got_up is up


def test_finite_box_clamps_only_infinite_bounds(small_quad):
    lo, up = np.array([-np.inf, 0.0]), np.array([np.inf, np.inf])
    got_lo, got_up = boxqp.finite_box(small_quad, lo, up)
    assert np.all(np.isfinite(got_lo)) and np.all(np.isfinite(got_up))
    assert got_lo[0] < 0.0 and got_lo[1] == 0.0 and np.all(got_up > 0.0)
    # the clamped bounds do not bind on the unconstrained minimizer
    assert np.array_equal(
        boxqp.solve(small_quad, got_lo, got_up).x, boxqp.solve(small_quad, lo, up).x
    )


@pytest.mark.parametrize("bound", [(np.inf, np.inf), (-np.inf, -np.inf)])
def test_finite_box_rejects_bounds_that_leave_no_box(small_quad, bound):
    lo, up = np.array([bound[0], 0.0]), np.array([bound[1], 1.0])
    with pytest.raises(InputError, match="no finite point"):
        boxqp.finite_box(small_quad, lo, up)


def test_kkt_residual_propagates_nan(small_quad):
    x = np.array([np.nan, 0.5])
    assert np.isnan(boxqp.kkt_residual(small_quad, np.zeros(2), np.ones(2), x))


def test_kkt_residual_accepts_lists(small_quad):
    # the audit takes the same array-likes as solve
    ref = boxqp.kkt_residual(small_quad, np.zeros(2), np.ones(2), np.array([0.5, 0.5]))
    assert boxqp.kkt_residual(small_quad, [0, 0], [1, 1], [0.5, 0.5]) == ref == 0.5
    assert np.isnan(boxqp.kkt_residual(small_quad, [0, 0], [1, 1], [np.nan, 0.5]))


def test_solve_audit_rejects_a_nan_residual(small_quad, monkeypatch):
    monkeypatch.setattr(boxqp, "_kkt_violation", lambda *args: np.nan)
    with pytest.raises(NumericalError, match="KKT residual"):
        boxqp.solve(small_quad, np.zeros(2), np.ones(2))


@pytest.mark.parametrize("inf", [np.inf, -np.inf])
def test_solve_rejects_bounds_that_leave_no_box(small_quad, inf):
    # l = u = -inf used to come back as x = -inf with value NaN
    with pytest.raises(InputError, match="no finite point"):
        boxqp.solve(small_quad, np.full(2, inf), np.full(2, inf))
