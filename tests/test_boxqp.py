import itertools

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
    # no box QP can be posed on it: the form itself is refused
    with pytest.raises(InputError, match=r"not a Stieltjes matrix \(violation 5\.000e-01\)"):
        sq.QuadraticForm([[2, 0.5], [0.5, 2]], [0, 0])


def test_rejects_indefinite():
    # eigenvalues -1 and 3: the violation is the positive-definiteness defect
    with pytest.raises(InputError, match=r"not a Stieltjes matrix \(violation 1\.000e\+00\)"):
        sq.QuadraticForm([[1, -2], [-2, 1]], [0, 0])
    with pytest.raises(InputError, match="not a Stieltjes matrix"):
        sq.QuadraticForm([[1, -1], [-1, 1]], [0, 0])  # singular


def test_rejects_empty_box(small_quad):
    with pytest.raises(InputError):
        boxqp.solve(small_quad, np.array([1.0, 0.0]), np.array([0.5, 1.0]))


def test_kkt_audit_random_instances():
    for seed in range(25):
        prob = sq.InstanceSampler(n=8, regime="mixed", seed=seed).draw(0)
        sol = boxqp.solve(prob.quad, prob.lo, prob.up)
        tol = boxqp.kkt_tolerance(prob.quad)
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
    smap, _ = lattice.split(sq.IndicatorProblem(small_quad, np.ones(2), np.zeros(2), np.full(2, 10.0)))
    corners = [(0, 0), (1, 0), (0, 1), (1, 1)]
    sol = boxqp.solve_many(small_quad, *lattice.bounds_for_binary(smap, np.array(corners)))
    v = dict(zip(corners, sol.value.tolist()))
    assert v[0, 0] == pytest.approx(0.0, abs=1e-12)
    assert v[1, 0] == pytest.approx(-0.25, abs=1e-12)
    assert v[0, 1] == pytest.approx(0.0, abs=1e-12)
    assert v[1, 1] == pytest.approx(-1.0 / 3.0, abs=1e-12)
    # submodular inequality on the four corners
    assert v[1, 0] + v[0, 1] >= v[0, 0] + v[1, 1]


def test_value_function_all_off_is_constant_term():
    quad = sq.QuadraticForm([[2, -1], [-1, 2]], [1, 0], k0=3.5)
    smap, _ = lattice.split(sq.IndicatorProblem(quad, np.ones(2), np.zeros(2), np.full(2, 10.0)))
    v0 = boxqp.solve(quad, *lattice.bounds_for_binary(smap, [0, 0])).value
    assert v0 == pytest.approx(3.5, abs=1e-12)


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


def _row_stack(prob, rng, repeat=1, rows=40):
    """Boxes for solve_many: split assignments, zero-width and infinite rows,
    and for each k = 0..n two rows with k unbounded variables and the rest
    pinned, so that their Newton steps solve blocks of every size 1..n-1.
    The rows with n - 1 unbounded variables come ``repeat`` times each."""
    n = prob.n
    smap, _ = lattice.split(prob)
    z = rng.integers(0, 2, size=(rows, smap.binary_dim))
    lo, up = lattice.bounds_for_binary(smap, z)
    mid = 0.5 * (prob.lo + prob.up)
    pinned = rng.random(n) < 0.5
    extra_lo = [np.where(pinned, mid, prob.lo), mid,
                np.full(n, -np.inf), np.where(pinned, -np.inf, prob.lo)]
    extra_up = [np.where(pinned, mid, prob.up), mid,
                np.full(n, np.inf), np.where(pinned, prob.up, np.inf)]
    for k in range(n + 1):
        for _ in range(2):
            open_ = np.isin(np.arange(n), rng.choice(n, size=k, replace=False))
            times = repeat if k == n - 1 else 1
            extra_lo += [np.where(open_, -np.inf, mid)] * times
            extra_up += [np.where(open_, np.inf, mid)] * times
    return np.vstack([lo, extra_lo]), np.vstack([up, extra_up])


@pytest.mark.parametrize("regime", ["nonnegative", "mixed", "negative"])
def test_solve_many_matches_solve_row_by_row(regime, monkeypatch):
    stacks = []  # (rows, k) of every stacked free-block solve
    linalg_solve = np.linalg.solve

    def recording(A, b):
        stacks.append(A.shape[:2])
        return linalg_solve(A, b)

    monkeypatch.setattr(np.linalg, "solve", recording)
    rng = np.random.default_rng(9)
    for seed, density in itertools.product(range(8), (0.5, 1.0)):
        sampler = sq.InstanceSampler(n=3 + seed, density=density, regime=regime, seed=40 + seed)
        prob = sampler.draw(0)
        # enough rows with n - 1 unbounded variables to overflow one stack
        repeat = boxqp.STACK_ENTRIES // (prob.n - 1) ** 2 + 1 if density == 1.0 else 1
        lo, up = _row_stack(prob, rng, repeat)
        stacks.clear()
        many = boxqp.solve_many(prob.quad, lo, up)
        assert many.x.shape == lo.shape and many.value.shape == (lo.shape[0],)
        tol = boxqp.kkt_tolerance(prob.quad)
        assert np.all(many.kkt_residual <= tol)
        n = prob.n
        assert all(rows * k * k <= boxqp.STACK_ENTRIES for rows, k in stacks)
        if density == 1.0:
            # every pinned variable pulls on every unbounded one, so each
            # such row takes one Newton step on a block of its k unbounded
            # variables, and the rows with k = n - 1 fill a whole stack
            assert {k for _, k in stacks} >= set(range(1, n))
            assert (boxqp.STACK_ENTRIES // (n - 1) ** 2, n - 1) in stacks
        # a row solved in the mixed stack equals its box solved alone
        boxes = np.hstack([lo, up])
        _, first, inverse = np.unique(boxes, axis=0, return_index=True, return_inverse=True)
        for box, r in enumerate(first):
            one = boxqp.solve(prob.quad, lo[r], up[r])
            same = inverse.ravel() == box
            assert np.all(np.abs(many.x[same] - one.x) <= 1e-10 * (1.0 + np.abs(one.x)))
            assert np.all(np.abs(many.value[same] - one.value) <= 1e-12 * (1.0 + abs(one.value)))


def _exact_box_qp(quad, lo, up):
    """The box QP's minimizer found without projected Newton: every status
    pattern (each variable at its lower bound, at its upper bound or free;
    3^n patterns, none clamped at an infinite bound) fixes x by one solve of
    its free block, and the pattern kept is the one whose x violates
    feasibility and the KKT signs least.  Returns that x and its violation."""
    Q, a = quad.Q, quad.a
    S = np.array(list(itertools.product((0, 1, 2), repeat=quad.n)))  # lower, upper, free
    x = np.where(S == 0, lo, np.where(S == 1, up, 0.0))
    keep = np.isfinite(x).all(axis=1)
    S, x = S[keep], x[keep]
    free = S == 2
    for F in np.unique(free, axis=0):
        if F.any():
            rows, C = (free == F).all(axis=1), ~F
            rhs = a[F] - x[np.ix_(rows, C)] @ Q[np.ix_(C, F)]
            x[np.ix_(rows, F)] = np.linalg.solve(Q[np.ix_(F, F)], rhs.T).T
    g = x @ Q - a
    sign = np.where(S == 0, -g, np.where(S == 1, g, np.abs(g)))
    viol = np.hstack([lo - x, x - up, sign]).max(axis=1)
    best = viol.argmin()
    return x[best], viol[best]


@pytest.mark.parametrize("regime", ["nonnegative", "mixed", "negative"])
def test_solve_many_matches_an_exact_reference(regime):
    rng = np.random.default_rng(3)
    for seed, density in itertools.product(range(5), (0.5, 1.0)):
        prob = sq.InstanceSampler(n=2 + seed, density=density, regime=regime, seed=80 + seed).draw(0)
        lo, up = _row_stack(prob, rng, rows=6)  # infinite and zero-width rows too
        lo, up = np.vstack([prob.lo, lo]), np.vstack([prob.up, up])
        many = boxqp.solve_many(prob.quad, lo, up)
        for r in range(lo.shape[0]):
            ref, viol = _exact_box_qp(prob.quad, lo[r], up[r])
            assert viol <= 1e-12
            assert np.abs(many.x[r] - ref).max() <= 1e-10, (seed, density, r)


def test_a_quadratic_with_no_variables_has_its_constant_as_value():
    quad = sq.QuadraticForm(np.zeros((0, 0)), np.zeros(0), 1.5)
    many = boxqp.solve_many(quad, np.zeros((2, 0)), np.zeros((2, 0)))
    assert many.x.shape == (2, 0) and many.value.tolist() == [1.5, 1.5]
    assert many.kkt_residual.tolist() == [0.0, 0.0] and many.iterations.tolist() == [1, 1]
    one = boxqp.solve(quad, np.zeros(0), np.zeros(0))
    assert one.x.shape == (0,) and (one.value, one.kkt_residual, one.iterations) == (1.5, 0.0, 1)


def test_solve_many_rejects_an_empty_box(small_quad):
    lo = np.zeros((3, 2))
    up = np.ones((3, 2))
    up[2, 1] = -0.5
    with pytest.raises(InputError, match="row 2"):
        boxqp.solve_many(small_quad, lo, up)


@pytest.mark.parametrize("inf", [np.inf, -np.inf])
def test_solve_many_rejects_bounds_that_leave_no_box(small_quad, inf):
    lo, up = np.zeros((2, 2)), np.ones((2, 2))
    lo[1], up[1] = inf, inf
    with pytest.raises(InputError, match="row 1.*no finite point"):
        boxqp.solve_many(small_quad, lo, up)


@pytest.mark.parametrize("side", ["lo", "up"])
def test_solvers_reject_a_nan_bound(small_quad, side):
    # a NaN bound used to run on until the line search stalled
    box = {"lo": np.zeros(2), "up": np.ones(2)}
    box[side][0] = np.nan
    with pytest.raises(InputError, match="^variable 0: .*NaN"):
        boxqp.solve(small_quad, box["lo"], box["up"])
    with pytest.raises(InputError, match="^row 0, variable 0: .*NaN"):
        boxqp.solve_many(small_quad, box["lo"][None], box["up"][None])


def test_kkt_tolerance_scales_with_the_linear_term():
    quad = sq.QuadraticForm([[2.0, -1.0], [-1.0, 2.0]], [3.0, -5.0])
    assert boxqp.kkt_tolerance(quad) == boxqp.KKT_TOL_FACTOR * 6.0
    assert boxqp.kkt_tolerance(sq.QuadraticForm(np.zeros((0, 0)), [])) == boxqp.KKT_TOL_FACTOR


def test_solve_many_raises_at_the_iteration_cap(small_quad, monkeypatch):
    # from the clipped start (2/3, 0) the free first coordinate still needs
    # one Newton step, so one iteration is not enough, as in solve
    lo, up = np.zeros(2), np.array([10.0, 0.0])
    monkeypatch.setattr(boxqp, "MAX_ITER", 1)
    with pytest.raises(NumericalError, match="iteration cap"):
        boxqp.solve(small_quad, lo, up)
    with pytest.raises(NumericalError, match="row 1: projected Newton iteration cap 1"):
        boxqp.solve_many(small_quad, np.array([lo, lo]), np.array([[10.0, 10.0], up]))
    monkeypatch.setattr(boxqp, "MAX_ITER", 2)
    assert boxqp.solve_many(small_quad, lo[None], up[None]).iterations.tolist() == [2]


def test_solve_many_turns_a_failed_block_solve_into_a_numerical_error(small_quad, monkeypatch):
    def singular(*args):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, "solve", singular)
    # rows 0 and 2 start at the minimizer; only row 1 takes a Newton step
    lo, up = np.zeros((3, 2)), np.full((3, 2), 10.0)
    up[1, 1] = 0.0
    with pytest.raises(NumericalError, match=r"row 1: .*Singular matrix"):
        boxqp.solve_many(small_quad, lo, up)


def test_kkt_violation_of_a_stack_is_the_violation_of_each_row():
    rng = np.random.default_rng(5)
    values = np.array([0.0, -0.0, 1.0, -1.0, 1e-13, 0.5, np.inf, -np.inf])
    g, x = rng.normal(size=(2, 50, 4))
    lo, up = np.sort(rng.choice(values, size=(2, 50, 4)), axis=0)
    on_bound = np.nan_to_num(np.clip(x, lo, up), posinf=3.0, neginf=-3.0)
    x = np.where(rng.random((50, 4)) < 0.5, on_bound, x)
    g[7, 1] = np.nan
    stacked = boxqp._kkt_violation(g, lo, up, x)
    assert stacked.shape == (50,)
    single = [boxqp._kkt_violation(g[r], lo[r], up[r], x[r]) for r in range(50)]
    assert np.array_equal(stacked, single, equal_nan=True)
    assert np.isnan(stacked[7]) and not np.isnan(np.delete(stacked, 7)).any()
