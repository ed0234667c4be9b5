import itertools
import logging

import numpy as np
import pytest

import submodqp as sq
from submodqp import boxqp, lattice, pathtrace, sfm
from submodqp.exceptions import InputError, NumericalError


CORNER_QUAD = sq.QuadraticForm([[2, -1], [-1, 2]], [1, 0])


def _corner_problem(costs, up=(10.0, 10.0)):
    """Two variables with boxes [0, u] and the given costs."""
    return sq.IndicatorProblem(CORNER_QUAD, np.asarray(costs, dtype=float), np.zeros(2),
                               np.asarray(up, dtype=float))


def _cap_mnp(monkeypatch, cycles):
    """Let minimize_mnp run at most ``cycles`` major cycles, whatever m."""
    monkeypatch.setattr(sfm, "_CYCLES_PER_COORDINATE", 0)
    monkeypatch.setattr(sfm, "_CYCLES_SPARE", cycles)


@pytest.fixture
def corner_oracle():
    # v over [0,10]^2 boxes: values (0, -1/4, 0, -1/3) at the four corners
    return sq.IndicatorOracle(_corner_problem([0.1, 0.1]))


def test_greedy_subgradient_example(corner_oracle):
    # F's differences along the order (0, 1): v's (-1/4, -1/12) plus the costs
    f0, w = sq.greedy_subgradient(corner_oracle, np.array([0.9, 0.1]))
    assert f0 == 0.0  # v(∅) = 0 and no cost is paid at z = 0
    assert np.allclose(w, [-0.25 + 0.1, -1.0 / 12.0 + 0.1], atol=1e-10)
    # <w, z> + F(0) is the extension value
    assert w @ np.array([0.9, 0.1]) == pytest.approx(-0.9 / 4 - 0.1 / 12 + 0.1, abs=1e-10)


def test_lovasz_examples(corner_oracle):
    # v's extension at (0.5, 0.25) along the order (0, 1) is -7/48; the
    # costs add <c, z> = 0.1 * 0.75
    assert sq.lovasz(corner_oracle, np.array([0.5, 0.25])) == pytest.approx(
        -7.0 / 48.0 + 0.075, abs=1e-12)
    # the order (1, 0): F(∅) + 0.5 (F({1}) - F(∅)) + 0.25 (F({0, 1}) - F({1}))
    assert sq.lovasz(corner_oracle, np.array([0.25, 0.5])) == pytest.approx(
        0.5 * 0.1 + 0.25 * (-1.0 / 3.0 + 0.1), abs=1e-12)
    assert sq.lovasz(corner_oracle, np.ones(2)) == pytest.approx(-1.0 / 3.0 + 0.2, abs=1e-12)
    assert sq.lovasz(corner_oracle, np.zeros(2)) == 0.0


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_greedy_and_lovasz_reject_a_zfrac_that_is_not_finite(corner_oracle, bad):
    with pytest.raises(InputError, match="finite"):
        sq.greedy_subgradient(corner_oracle, np.array([0.5, bad]))
    with pytest.raises(InputError, match=r"\[0, 1\]"):
        sq.lovasz(corner_oracle, np.array([bad, 0.5]))
    assert corner_oracle.stats.chains == 0


def test_lovasz_rejects_entries_outside_the_unit_cube(corner_oracle):
    for zfrac in ([0.5, 1.5], [-0.25, 0.5], [1.0 + 1e-11, 0.0], [0.0, -1e-11]):
        with pytest.raises(InputError, match=r"\[0, 1\]"):
            sq.lovasz(corner_oracle, np.array(zfrac))
    # within the 1e-12 slack the entries count as 0 and 1
    assert sq.lovasz(corner_oracle, np.array([1.0 + 1e-13, -1e-13])) == pytest.approx(
        -0.25 + 0.1, abs=1e-12)
    # greedy only sorts zfrac, so any finite vector is fine there
    assert sq.greedy_subgradient(corner_oracle, np.array([7.0, -3.0]))[0] == 0.0


def _threshold_extension(oracle, zfrac):
    """F(∅) + Σ_k (z_(k) - z_(k+1)) (F(S_k) - F(∅)), z_(k) the k-th largest
    entry (z_(m+1) = 0) and S_k the coordinates of the k largest, each F by
    one :meth:`eval`: no chain."""
    order = np.argsort(-zfrac, kind="stable")
    zs = np.append(zfrac[order], 0.0)
    f0 = oracle.eval(np.zeros(oracle.m, dtype=int))
    total, z = f0, np.zeros(oracle.m, dtype=int)
    for k in range(1, oracle.m + 1):
        z[order[k - 1]] = 1
        total += (zs[k - 1] - zs[k]) * (oracle.eval(z) - f0)
    return total


def _cut_oracle():
    """The cut function of a weighted 5-cycle with a chord, plus a modular
    term: submodular, and F(∅) = 0.5."""
    edges = [(0, 1, 1.0), (1, 2, 0.5), (2, 3, 2.0), (3, 4, 0.7), (4, 0, 1.3), (1, 3, 0.4)]
    unary = np.array([-1.0, 0.3, -0.2, 0.8, -0.6])

    def cut(z):
        return 0.5 + float(unary @ z) + sum(w for i, j, w in edges if z[i] != z[j])

    return sq.FunctionOracle(cut, 5)


def _robust_oracle():
    inst, _ = sq.generate("chain", (6,), outlier_fraction=0.34, seed=2, mode="robust")
    return sq.IndicatorOracle(sq.compile_instance(inst))


@pytest.mark.parametrize("make", [
    _cut_oracle,
    lambda: sq.IndicatorOracle(sq.InstanceSampler(n=5, regime="mixed", seed=31).draw(0)),
    _robust_oracle,
], ids=["cut", "mixed", "robust_chain"])
def test_lovasz_matches_the_threshold_definition(make):
    oracle = make()
    rng = np.random.default_rng(17)
    points = [rng.random(oracle.m) for _ in range(5)]
    points.append(np.round(rng.random(oracle.m), 1))  # ties broken by index
    for zfrac in points:
        ref = _threshold_extension(oracle, zfrac)
        assert sq.lovasz(oracle, zfrac) == pytest.approx(ref, rel=1e-9, abs=1e-9)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_exhaustive_raises_on_a_set_value_that_is_not_finite(bad):
    with pytest.raises(NumericalError, match=rf"F is {bad} on the set \[\], not finite"):
        sq.minimize_exhaustive(sq.FunctionOracle(lambda z: bad, 3))
    # one value among finite ones, on the set {1, 2}
    oracle = sq.FunctionOracle(lambda z: bad if z.tolist() == [0, 1, 1] else float(z.sum()), 3)
    with pytest.raises(NumericalError, match=r"on the set \[1, 2\]"):
        sq.minimize_exhaustive(oracle)


@pytest.mark.parametrize("bad", [np.nan, -np.inf])
def test_mnp_raises_on_a_set_value_that_is_not_finite(bad):
    with pytest.raises(NumericalError, match=r"on the set \[\], not finite"):
        sq.minimize_mnp(sq.FunctionOracle(lambda z: bad, 3))
    # the set {0, 1} is a prefix of the first chain, {1, 2} of greedy's at zfrac
    oracle = sq.FunctionOracle(lambda z: bad if z.sum() == 2 else float(z.sum()), 3)
    with pytest.raises(NumericalError, match=r"on the set \[0, 1\]"):
        sq.minimize_mnp(oracle)
    with pytest.raises(NumericalError, match=r"on the set \[1, 2\]"):
        sq.greedy_subgradient(oracle, np.array([0.0, 1.0, 0.5]))


def test_greedy_ties_telescope(corner_oracle):
    _, w = sq.greedy_subgradient(corner_oracle, np.array([0.5, 0.5]))
    assert w.sum() == pytest.approx(-1.0 / 3.0 + 0.2, abs=1e-10)


def test_greedy_single_coordinate():
    oracle = sq.FunctionOracle(lambda z: -2.0 * float(z[0]), 1)
    for zf in (0.0, 0.3, 1.0):
        f0, w = sq.greedy_subgradient(oracle, np.array([zf]))
        assert f0 == 0.0
        assert w[0] == pytest.approx(-2.0)


def test_greedy_prefix_exactness():
    # the minorant is tight on every prefix of the sort order (telescoping)
    prob = sq.InstanceSampler(n=5, regime="mixed", seed=21).draw(0)
    oracle = sq.IndicatorOracle(prob)
    rng = np.random.default_rng(3)
    zf = rng.random(oracle.m)
    order = np.argsort(-zf, kind="stable")
    f0, w = sq.greedy_subgradient(oracle, zf)
    assert f0 == oracle.eval(np.zeros(oracle.m, dtype=int))
    z = np.zeros(oracle.m, dtype=int)
    for i in order:
        z[i] = 1
        assert f0 + w @ z == pytest.approx(oracle.eval(z), abs=1e-8)


def test_minimize_exhaustive_corner_instance(corner_oracle):
    res = sq.minimize_exhaustive(corner_oracle)
    assert np.array_equal(res.z, [1, 0])
    assert res.value == pytest.approx(-0.15, abs=1e-12)
    assert res.certificate == 0.0


def test_minimize_exhaustive_huge_costs():
    oracle = sq.IndicatorOracle(_corner_problem([100.0, 100.0]))
    res = sq.minimize_exhaustive(oracle)
    assert np.array_equal(res.z, [0, 0])
    assert res.value == pytest.approx(0.0, abs=1e-12)


def test_minimize_exhaustive_free_indicators():
    # free indicators on boxes that hold 0 are always open: no coordinate
    # is left, and the one evaluation is the full box
    oracle = sq.IndicatorOracle(_corner_problem([0.0, 0.0]))
    assert oracle.m == 0
    res = sq.minimize_exhaustive(oracle)
    v_full = boxqp.solve(CORNER_QUAD, np.zeros(2), np.full(2, 10.0)).value
    assert res.value == pytest.approx(v_full, abs=1e-12)


def test_minimize_exhaustive_guard():
    oracle = sq.FunctionOracle(lambda z: 0.0, 21)
    with pytest.raises(InputError, match="guarded at m <= 20"):
        sq.minimize_exhaustive(oracle)


def test_minimize_exhaustive_guard_acts_before_any_evaluation():
    # 2^21 codes would take about 40 s on a robust chain: refuse them unevaluated
    class Unevaluable(sq.FunctionOracle):
        def eval_many(self, zbins):
            raise AssertionError("the guard let an evaluation through")

    with pytest.raises(InputError, match="guarded at m <= 20, got 21"):
        sq.minimize_exhaustive(Unevaluable(lambda z: 0.0, 21))


def _scan_one_by_one(oracle):
    """The reference enumeration: one evaluation per vector, in lex order."""
    best_z, best = None, np.inf
    for bits in itertools.product((0, 1), repeat=oracle.m):
        z = np.array(bits, dtype=int)
        val = oracle.eval(z)
        if val < best - sfm.BRUTE_TIE_TOL:
            best_z, best = z, val
    return best_z, best


def _exhaustive_oracles():
    # a robust chain whose 2^12 codes span four chunks
    inst, _ = sq.generate("chain", (6,), signal_sparsity=0.0, outlier_fraction=0.2,
                          noise_sd=0.25, seed=3, mode="robust", cost=4.0)
    yield sq.IndicatorOracle(sq.compile_instance(inst))
    for seed in range(6):
        prob = sq.InstanceSampler(n=5, regime=("nonnegative", "mixed", "negative")[seed % 3],
                                  seed=970 + seed).draw(0)
        yield sq.IndicatorOracle(prob)
    # m = 0: every variable costs nothing and its box holds 0, so it is always open
    yield sq.IndicatorOracle(sq.IndicatorProblem(
        prob.quad, np.zeros(prob.n), np.minimum(prob.lo, 0.0), np.maximum(prob.up, 0.0)))


def test_minimize_exhaustive_matches_a_one_by_one_scan():
    ms = []
    for oracle in _exhaustive_oracles():
        ms.append(oracle.m)
        res = sq.minimize_exhaustive(oracle)
        z, value = _scan_one_by_one(oracle)
        assert res.z.dtype == z.dtype and np.array_equal(res.z, z)
        assert abs(res.value - value) <= 1e-12 * (1.0 + abs(value))
        assert np.array_equal(res.x, oracle.eval_x(z)[1])
    assert 2 ** ms[0] >= 4 * sfm.EXHAUSTIVE_CHUNK and ms[-1] == 0


def test_indicator_oracle_eval_many_matches_eval():
    prob = sq.InstanceSampler(n=6, regime="mixed", seed=33).draw(0)
    oracle = sq.IndicatorOracle(prob)
    zs = np.random.default_rng(1).integers(0, 2, size=(30, oracle.m))
    got = oracle.eval_many(zs)
    want = np.array([oracle.eval(z) for z in zs])
    assert got.shape == (30,)
    assert np.all(np.abs(got - want) <= 1e-12 * (1.0 + np.abs(want)))


def test_minimize_exhaustive_ties_follow_the_scan_across_chunks():
    # near-ties around the first chunk boundary: the scan keeps code k - 1
    # against code k (0.6 tol lower), moves to code k + 1 (1.2 tol lower) and
    # keeps it against code k + 2 (1.5 tol lower).  The argmin would be
    # k + 2, and the first code within tol of the minimum k.
    k = sfm.EXHAUSTIVE_CHUNK
    m = k.bit_length()
    tol = sfm.BRUTE_TIE_TOL
    levels = {k - 1: -1.0, k: -1.0 - 0.6 * tol, k + 1: -1.0 - 1.2 * tol, k + 2: -1.0 - 1.5 * tol}

    def fun(z):
        return levels.get(int("".join(map(str, z)), 2), 0.0)

    res = sq.minimize_exhaustive(sq.FunctionOracle(fun, m))
    assert int("".join(map(str, res.z)), 2) == k + 1
    assert res.value == levels[k + 1]


def test_minimize_mnp_matches_exhaustive(corner_oracle):
    res = sq.minimize_mnp(corner_oracle)
    assert res.converged
    assert res.value == pytest.approx(-0.15, abs=1e-9)
    assert np.array_equal(res.z, [1, 0])


def test_minimize_mnp_certificate_is_the_duality_gap(corner_oracle):
    res = sq.minimize_mnp(corner_oracle)
    assert res.certificate == pytest.approx(0.0, abs=1e-12)
    assert res.to_json_dict()["certificate"] == res.certificate


class FlatOracle(sq.FunctionOracle):
    """F = 0 with chains that cost no evaluation; counts evaluations."""

    def __init__(self, m):
        super().__init__(lambda z: 0.0, m)
        self.evals = 0

    def eval(self, zbin):
        self.evals += 1
        return super().eval(zbin)

    def chain(self, order):
        return np.zeros(self.m + 1)


@pytest.mark.parametrize("m", [8, 12])
def test_minimize_mnp_rounds_ties_from_the_chain(m):
    # every coordinate ties at x = 0: the rounding is the empty prefix,
    # valued by one evaluation (F(∅) comes from the first chain), not an
    # enumeration of the ties
    oracle = FlatOracle(m)
    res = sq.minimize_mnp(oracle)
    assert oracle.evals == 1
    assert np.array_equal(res.z, np.zeros(m, dtype=int))
    assert res.certificate == 0.0
    assert res.converged


def test_minimize_mnp_converged_means_certified(monkeypatch):
    # a capped run is converged exactly when its duality gap certifies it:
    # one cycle already certifies most of these instances, none cycles none
    tol = 1e-9
    seen = set()
    for cycles in (0, 1):
        _cap_mnp(monkeypatch, cycles)
        for seed in range(6):
            prob = sq.InstanceSampler(n=8, regime="mixed", seed=seed).draw(0)
            oracle = sq.IndicatorOracle(prob)
            res = sq.minimize_mnp(oracle, tol=tol)
            bound = sfm.gap_tolerance(res.value, tol)
            assert res.converged == (abs(res.certificate) <= bound)
            assert res.certificate >= -bound  # the bound never exceeds a value of F
            assert res.value == oracle.eval(res.z)
            seen.add((cycles, bool(res.converged)))
    assert seen == {(0, False), (1, False), (1, True)}


def test_gap_tolerance_follows_tol_down_to_the_tie_noise():
    assert sfm.gap_tolerance(-3.0, 1e-6) == 1e-6 * 4.0
    assert sfm.gap_tolerance(-3.0, 1e-12) == sfm.BRUTE_TIE_TOL * 4.0


def test_minimize_mnp_capped_gap_above_tol_is_not_converged(monkeypatch):
    # one cycle at tol=1e-6 leaves a duality gap of about 4.6e-5 on this
    # draw: a looser tolerance (1e3 * tol, relative) would certify it, but
    # the value is not known to tol
    prob = sq.InstanceSampler(n=6, regime="mixed", seed=38).draw(0)
    oracle = sq.IndicatorOracle(prob)
    tol = 1e-6
    with monkeypatch.context() as capped:
        _cap_mnp(capped, 1)
        res = sq.minimize_mnp(oracle, tol=tol)
    scale = 1.0 + abs(res.value)
    assert tol * scale < res.certificate <= 1e3 * tol * scale
    assert not res.converged
    # the capped run already holds the minimizer; only a full run proves it
    full = sq.minimize_mnp(oracle, tol=tol)
    assert full.converged and full.value == res.value


def test_minimize_mnp_modular():
    d = np.array([-1.0, 2.0, 0.5, -3.0, 0.4])
    c = np.array([0.5, 0.1, 0.2, 1.0, 0.1])
    oracle = sq.FunctionOracle(lambda z: float((d + c) @ z), 5)
    res = sq.minimize_mnp(oracle)
    assert np.array_equal(res.z, (d + c < 0).astype(int))
    assert res.value == pytest.approx(float(np.minimum(d + c, 0).sum()), abs=1e-9)


def test_minimize_mnp_zero_function():
    oracle = sq.FunctionOracle(lambda z: 0.0, 4)
    res = sq.minimize_mnp(oracle)
    assert res.value == pytest.approx(0.0, abs=1e-12)
    assert res.certificate == pytest.approx(0.0, abs=1e-9)


def test_minimize_mnp_stops_on_a_duplicate_atom():
    problem = sq.InstanceSampler(n=6, regime="mixed", seed=27).draw(0)
    oracle = sq.IndicatorOracle(problem)
    assert oracle.m == 8
    # the first two greedy atoms, as minimize_mnp draws them: the second is
    # one ulp from the first, so Wolfe's test at tol = 0 fails by that ulp
    # and the duplicate test stops the run
    _, x = sq.greedy_subgradient(oracle, np.full(oracle.m, 0.5))
    _, q = sq.greedy_subgradient(oracle, -x)
    scale = 1.0 + float(np.max(np.abs(x))) ** 2 + float(q @ q)
    assert x @ q < x @ x
    assert np.all(np.abs(x - q) <= 1e-12 * scale)
    res = sq.minimize_mnp(sq.IndicatorOracle(problem), tol=0.0)
    ref = sq.minimize_exhaustive(sq.IndicatorOracle(problem))
    assert res.converged and res.stats.chains == 2
    assert np.array_equal(res.z, ref.z)
    assert res.value == ref.value == -0.0832911804225116


@pytest.mark.parametrize("call, match", [
    (lambda o: sq.greedy_subgradient(o, np.full(o.m + 1, 0.5)), "zfrac must have length"),
    (lambda o: sq.minimize_mnp(sq.FunctionOracle(lambda z: 0.0, 0)), "empty ground set"),
    (lambda o: o.eval(np.zeros(o.m - 1, dtype=int)), "expected binary vector of length"),
    (lambda o: o.eval_many(np.zeros((2, o.m + 1), dtype=int)), "expected binary vector of length"),
], ids=["greedy_zfrac_length", "mnp_empty_ground_set", "eval_length", "eval_many_length"])
def test_inputs_of_the_wrong_size_raise_input_error(call, match):
    oracle = sq.IndicatorOracle(sq.InstanceSampler(n=4, regime="mixed", seed=0).draw(0))
    with pytest.raises(InputError, match=match):
        call(oracle)


def test_oracle_chain_endpoints_match_eval():
    for seed in range(5):
        prob = sq.InstanceSampler(n=4, regime="mixed", seed=400 + seed).draw(0)
        oracle = sq.IndicatorOracle(prob)
        rng = np.random.default_rng(seed)
        order = rng.permutation(oracle.m)
        values = oracle.chain(order)
        naive = oracle.chain_naive(order)
        assert np.max(np.abs(values - naive)) <= 1e-8


def test_oracle_traces_infinite_bounds(monkeypatch):
    problem = _corner_problem([0.1, 0.1], up=(np.inf, 10.0))
    oracle = sq.IndicatorOracle(problem)
    monkeypatch.setattr(oracle, "chain_naive", None)  # the oracle must trace
    values = oracle.chain(np.arange(2))
    assert values[-1] == pytest.approx(-1.0 / 3.0 + 0.2, abs=1e-10)
    # the m+1 prefix boxes over the (partly infinite) bounds, in one stack
    naive = sq.IndicatorOracle(problem).chain_naive(np.arange(2))
    assert np.max(np.abs(values - naive)) <= 1e-8


def _infinite_bound_draw(regime, seed, always_open):
    """A draw with a random half of its bounds made infinite.

    Only bounds that can go infinite without changing a variable's sign
    regime do.  With ``always_open``, a random half of the variables whose
    box holds 0 cost nothing, so :func:`sfm.solve_full` gives them no
    coordinate.
    """
    prob = sq.InstanceSampler(n=6, regime=regime, seed=500 + seed).draw(0)
    rng = np.random.default_rng(seed)
    up_inf = (prob.up > 0) & (rng.random(prob.n) < 0.5)
    lo_inf = (prob.lo < 0) & (rng.random(prob.n) < 0.5)
    if not (up_inf.any() or lo_inf.any()):
        (up_inf if regime == "nonnegative" else lo_inf)[0] = True
    lo = np.where(lo_inf, -np.inf, prob.lo)
    up = np.where(up_inf, np.inf, prob.up)
    costs = prob.costs.copy()
    if always_open:
        costs[(lo <= 0.0) & (up >= 0.0) & (rng.random(prob.n) < 0.5)] = 0.0
    return sq.IndicatorProblem(prob.quad, costs, lo, up)


@pytest.mark.parametrize("regime", ["nonnegative", "mixed", "negative"])
def test_infinite_bounds_are_traced_exactly(regime, monkeypatch):
    monkeypatch.setattr(sfm.IndicatorOracle, "chain_naive", None)  # no fallback
    opened = 0
    for seed, always_open in itertools.product(range(4), (False, True)):
        problem = _infinite_bound_draw(regime, seed, always_open)
        lo, up = problem.lo, problem.up
        mask = (problem.costs == 0.0) & (lo <= 0.0) & (up >= 0.0)
        assert always_open or not mask.any()
        opened += int(mask.sum())
        oracle = sq.IndicatorOracle(problem)
        # one coordinate per live variable, two per straddling one
        assert oracle.m == int(np.sum(~mask * (1 + ((lo < 0) & (up > 0)))))
        order = np.random.default_rng(seed).permutation(oracle.m)
        chain = pathtrace.chain_general(problem.quad, oracle.smap, order)
        boxes = lattice.bounds_for_binary(oracle.smap, sfm.prefix_sets(order, oracle.m))
        ref = boxqp.solve_many(problem.quad, *boxes).value
        assert np.all(np.abs(chain.values - ref) <= 1e-8 * (1.0 + np.abs(ref)))
        ref = sq.brute_force(problem)
        ex = sq.solve_full(problem, engine="exhaustive")
        mn = sq.solve_full(problem, engine="mnp")
        assert ex.value == pytest.approx(ref.value, abs=1e-6)
        assert mn.converged
        assert abs(mn.value - ex.value) <= 1e-9 * (1.0 + abs(ex.value))
    assert opened > 0


@pytest.mark.parametrize("bound", [(np.inf, np.inf), (-np.inf, -np.inf)])
def test_indicator_oracle_rejects_bounds_that_leave_no_box(bound, monkeypatch):
    quad = sq.QuadraticForm([[2, -1], [-1, 2]], [1, 0])
    lo, up = np.array([bound[0], 0.0]), np.array([bound[1], 1.0])
    monkeypatch.setattr(boxqp, "solve", None)  # rejected before any solve
    with pytest.raises(InputError, match="no finite point"):
        sq.IndicatorOracle(sq.IndicatorProblem(quad, np.ones(2), lo, up))


def test_robust_instance_with_no_finite_bound_matches_brute_force():
    # unbounded signals and free slacks: every bound of the problem is infinite
    for seed in range(3):
        inst, truth = sq.generate("chain", 4, mode="robust", outlier_fraction=0.25, seed=seed,
                                  bounds=(-np.inf, np.inf))
        problem = sq.compile_instance(inst)
        assert np.all(problem.lo == -np.inf) and np.all(problem.up == np.inf)
        ref = sq.brute_force(problem)
        for engine in ("exhaustive", "mnp"):
            res = sq.solve_full(problem, engine=engine)
            assert res.converged
            assert abs(res.value - ref.value) <= 1e-9 * (1.0 + abs(ref.value))
            assert np.array_equal(res.z, ref.z)
            assert res.discarded == truth["outliers"]


def test_solve_full_reports_the_oracles_work_counters():
    inst, _ = sq.generate("chain", 4, mode="robust", outlier_fraction=0.25, seed=3)
    problem = sq.compile_instance(inst)
    res = sq.solve_full(problem)
    assert res.stats == sfm.SolveStats(
        chains=8, stages_traced=39, stages_memo=25, boxqp_solves=2, boxqp_iterations=6,
    )
    # each chain's 8 stages are traced or read from the memo
    assert res.stats.stages_traced + res.stats.stages_memo == 8 * res.stats.chains
    assert res.to_json_dict()["stats"]["stages_memo"] == 25
    ex = sq.solve_full(problem, engine="exhaustive")
    # 2^8 stacked rows and the minimizer's x, with 568 + 2 iterations
    assert ex.stats == sfm.SolveStats(0, 0, 0, 257, 570)


def test_solve_full_robust_two_chain():
    inst = sq.ProblemInstance(
        sq.chain_graph(2, weight=1.0), a=[0, 10], node_weights=[1, 1],
        c=[1, 1], l=[-100, -100], u=[100, 100], mode="robust",
    )
    problem = sq.compile_instance(inst)
    for engine in ("exhaustive", "mnp"):
        res = sq.solve_full(problem, engine=engine)
        assert res.value == pytest.approx(1.0, abs=2e-6)  # plus ridge terms
        assert res.discarded == [1]
        # recovery audit: reported value is f(x*) + c^T z exactly
        recomputed = problem.quad.value(res.x) + float(problem.costs @ res.z)
        assert res.value == pytest.approx(recomputed, abs=1e-8)


def test_solve_full_zero_signal():
    inst, _ = sq.generate("chain", (4,), signal_sparsity=1.0, noise_sd=0.0, seed=0)
    res = sq.solve_full(sq.compile_instance(inst), engine="exhaustive")
    assert np.array_equal(res.z, np.zeros(4, dtype=int))
    assert np.allclose(res.x, 0.0)
    assert res.value == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("engine", ["exhaustive", "mnp"])
def test_solve_full_free_indicators_match_boxqp(engine):
    # every indicator is free, so every variable is always open and no
    # binary coordinate is left
    inst = sq.ProblemInstance(
        sq.chain_graph(3), a=[1.0, 0.5, 2.0], node_weights=[1, 1, 1],
        c=[0, 0, 0], l=[0, 0, 0], u=[5, 5, 5],
    )
    problem = sq.compile_instance(inst)
    res = sq.solve_full(problem, engine=engine)
    ref = boxqp.solve(problem.quad, problem.lo, problem.up)
    assert res.value == pytest.approx(ref.value, abs=1e-9)
    assert np.allclose(res.x, ref.x, atol=1e-8)


def test_solve_full_robust_free_discard_single_vertex_mnp():
    # c = 0 and a straddling box for both x and w: every variable is open
    inst = sq.ProblemInstance(
        sq.Graph(1), a=[7], node_weights=[1], c=[0], l=[-50], u=[50], mode="robust"
    )
    problem = sq.compile_instance(inst)
    res = sq.solve_full(problem, engine="mnp")
    assert res.value == pytest.approx(sq.brute_force(problem).value, abs=1e-9)
    assert res.value == pytest.approx(0.0, abs=1e-9)
    assert res.converged
    recomputed = problem.quad.value(res.x) + float(problem.costs @ res.z)
    assert res.value == pytest.approx(recomputed, abs=1e-12)


def test_solve_full_always_open_rule(monkeypatch):
    # variables: zero-cost nonnegative with l = 0 (open), zero-cost
    # semi-continuous with l > 0 (kept: {0} and [l, u] do not nest),
    # zero-cost straddling (open), zero-cost nonpositive with u = 0 (open),
    # priced straddling (two bits)
    lo = np.array([0.0, 0.5, -1.0, -2.0, -1.0])
    up = np.array([2.0, 2.0, 1.0, 0.0, 1.0])
    costs = np.array([0.0, 0.0, 0.0, 0.0, 0.3])
    quad = sq.InstanceSampler(n=5, regime="mixed", seed=3).draw(0).quad
    problem = sq.IndicatorProblem(quad, costs, lo, up)
    seen = []
    engine = sfm.minimize_exhaustive

    def spy(oracle):
        seen.append(oracle.smap)
        return engine(oracle)

    monkeypatch.setattr(sfm, "minimize_exhaustive", spy)
    res = sq.solve_full(problem, engine="exhaustive")
    (smap,) = seen
    assert smap.var.tolist() == [1, 4, 4]
    assert smap.plus.tolist() == [True, True, False]
    assert smap.lo_bit.tolist() == [3, 0, 3, 3, 2]
    assert smap.up_bit.tolist() == [3, 0, 3, 3, 1]
    assert res.z[[0, 2, 3]].tolist() == [1, 1, 1]
    assert res.value == pytest.approx(sq.brute_force(problem).value, abs=1e-9)


def test_solve_full_repairs_a_spurious_corner_without_a_second_solve(monkeypatch):
    # three priced straddling variables whose unconstrained minimizer
    # (1.2, -1.2, 0) lies inside [-2, 2]^3; the engine returns every
    # (z+, z-) = (1, 0), so repair closes l of the first, u of the second
    # and both bounds of the third
    quad = sq.QuadraticForm([[2.0, -0.5, 0.0], [-0.5, 2.0, 0.0], [0.0, 0.0, 1.0]], [3.0, -3.0, 0.0])
    problem = sq.IndicatorProblem(quad, np.full(3, 0.1), np.full(3, -2.0), np.full(3, 2.0))
    seen = []

    def spurious(oracle, tol):
        seen.append(oracle)
        z = oracle.smap.plus.astype(int)  # every z+ set, every z- clear
        return sfm.SfmResult(z, *oracle.eval_x(z), 0.0, "mnp")

    monkeypatch.setattr(sfm, "minimize_mnp", spurious)
    solves = []
    solve = boxqp.solve

    def counted(*args):
        solves.append(args)
        return solve(*args)

    monkeypatch.setattr(boxqp, "solve", counted)
    res = sq.solve_full(problem, engine="mnp")
    assert len(solves) == 1  # the engine's eval_x, no recovery solve

    (oracle,) = seen
    smap = oracle.smap
    zbin = np.array([1, 1, 0, 0, 0, 1])  # the repair, per variable (z+, z-)
    blo, bup = lattice.bounds_for_binary(smap, zbin)
    x = solve(quad, blo, bup).x  # the repaired box, solved again
    z = smap.indicators(zbin, res.x)
    assert res.z.tolist() == z.tolist() == [1, 1, 0]
    assert np.max(np.abs(res.x - x)) <= 1e-12
    assert res.value == pytest.approx(quad.value(x) + problem.costs @ z, rel=1e-12, abs=1e-12)


def _zero_half_the_costs(prob, rng):
    """Zero the costs of a random half of the variables, one of them
    semi-continuous (0 < l), which the open rule must leave live."""
    n = prob.n
    zero = rng.choice(n, size=n // 2, replace=False)
    costs, lo, up = prob.costs.copy(), prob.lo.copy(), prob.up.copy()
    costs[zero] = 0.0
    if not np.any(lo[zero] > 0):
        lo[zero[0]], up[zero[0]] = 0.25, 2.0
    return sq.IndicatorProblem(prob.quad, costs, lo, up)


def test_zero_cost_semicontinuous_variables_stay_live():
    rng = np.random.default_rng(2209)
    worst = {"exhaustive": 0.0, "mnp": 0.0}
    for trial in range(12):
        prob = sq.InstanceSampler(n=6 + trial % 3, regime="mixed", seed=4100 + trial).draw(0)
        prob = _zero_half_the_costs(prob, rng)
        assert np.any((prob.costs == 0) & (prob.lo > 0))
        bf = sq.brute_force(prob)
        for engine in worst:
            res = sq.solve_full(prob, engine=engine)
            worst[engine] = max(worst[engine], abs(res.value - bf.value))
    assert worst["exhaustive"] <= 1e-6
    assert worst["mnp"] <= 1e-6


def test_robust_engine_sees_only_the_slack_coordinates(monkeypatch):
    # the signal variables carry no indicator, so only the two split bits
    # of each slack reach the engine: 2n coordinates, not 4n
    inst, _ = sq.generate("chain", (6,), signal_sparsity=0.0, outlier_fraction=0.2,
                          noise_sd=0.25, seed=3, mode="robust", cost=4.0)
    problem = sq.compile_instance(inst)
    # with an indicator on every variable, each of the 2n would straddle
    every = sq.IndicatorProblem(problem.quad, np.ones(problem.n), problem.lo, problem.up)
    assert lattice.split(every)[0].binary_dim == 4 * inst.n
    seen = []
    engine = sfm.minimize_mnp

    def spy(oracle, **kwargs):
        seen.append(oracle.m)
        return engine(oracle, **kwargs)

    monkeypatch.setattr(sfm, "minimize_mnp", spy)
    res = sq.solve_full(problem, engine="mnp", tol=1e-6)
    assert seen == [2 * inst.n]
    assert res.value == pytest.approx(sq.brute_force(problem).value, abs=1e-6)


def test_solve_full_logs_the_reduction(caplog):
    inst, _ = sq.generate("chain", (3,), mode="robust", seed=0)
    with caplog.at_level(logging.DEBUG, logger="submodqp.sfm"):
        sq.solve_full(sq.compile_instance(inst), engine="exhaustive")
    assert "6 variables, 3 always open, 6 binary coordinates, engine exhaustive" in caplog.messages


def _coords(smap):
    """Each coordinate as (variable, True for z+)."""
    return list(zip(smap.var.tolist(), smap.plus.tolist()))


def _embed(full, smap, mask, z):
    """The full-cube vector for z over a split with always-open variables:
    z+ = 1 and z- = 0 for the open variables, z's bits for the others."""
    where = {c: k for k, c in enumerate(_coords(smap))}
    return np.array([plus if mask[i] else z[where[i, plus]]
                     for i, plus in _coords(full)], dtype=int)


def test_indicator_oracle_with_always_open_matches_full_cube():
    # the references evaluate the full split, where no variable is open: the
    # split of the same problem with the open variables priced.  Its costs
    # differ, so only v is compared; the binary cost of a split with open
    # variables is checked in test_lattice
    rng = np.random.default_rng(4)
    for trial in range(6):
        prob = sq.InstanceSampler(n=6, regime="mixed", seed=31 + trial).draw(0)
        costs = np.where(rng.random(prob.n) < 0.5, 0.0, prob.costs)
        prob = sq.IndicatorProblem(prob.quad, costs, prob.lo, prob.up)
        mask = (prob.costs == 0) & (prob.lo <= 0) & (prob.up >= 0)
        assert mask.any() and not mask.all()
        oracle = sq.IndicatorOracle(prob)
        priced = sq.IndicatorProblem(prob.quad, np.where(mask, 1.0, prob.costs), prob.lo, prob.up)
        full, _ = lattice.split(priced)
        assert oracle.m == sum(1 for i, _ in _coords(full) if not mask[i])
        order = rng.permutation(oracle.m)
        assert np.max(np.abs(oracle.chain(order) - oracle.chain_naive(order))) <= 1e-8
        for _ in range(4):
            z = rng.integers(0, 2, size=oracle.m)
            zfull = _embed(full, oracle.smap, mask, z)
            ref = boxqp.solve(prob.quad, *lattice.bounds_for_binary(full, zfull))
            assert oracle.eval(z) - oracle.bincost(z) == pytest.approx(ref.value, abs=1e-12)
            assert np.array_equal(oracle.eval_x(z)[1], ref.x)


def test_indicator_oracle_with_no_open_variable_is_the_full_cube():
    prob = sq.InstanceSampler(n=5, regime="nonnegative", seed=32).draw(0)
    oracle = sq.IndicatorOracle(prob)
    # the full cube of a nonnegative problem: one z+ bit per variable
    smap, identity = oracle.smap, np.arange(prob.n)
    assert np.array_equal(smap.var, identity) and smap.plus.all()
    assert np.array_equal(smap.lo_bit, identity) and np.array_equal(smap.up_bit, identity)
    assert smap.lo is prob.lo and smap.up is prob.up
    assert np.array_equal(oracle.bincost.linear, prob.costs) and oracle.bincost.constant == 0.0
    order = np.arange(oracle.m)[::-1]
    assert pathtrace.chain_general(prob.quad, smap, order).kind == "nonnegative"
    values = oracle.chain(order)
    z = sfm.prefix_sets(order, oracle.m)
    ref = boxqp.solve_many(prob.quad, *lattice.bounds_for_binary(smap, z)).value + z @ prob.costs
    assert np.all(np.abs(values - ref) <= 1e-8 * (1.0 + np.abs(ref)))


def test_solve_full_rejects_unknown_engine():
    inst, _ = sq.generate("chain", (3,), seed=0)
    with pytest.raises(InputError):
        sq.solve_full(sq.compile_instance(inst), engine="magic")


def test_mnp_matches_exhaustive_random_instances():
    mismatches = 0
    for seed in range(30):
        regime = ("nonnegative", "mixed", "negative")[seed % 3]
        prob = sq.InstanceSampler(n=4, regime=regime, seed=700 + seed).draw(0)
        ex = sq.solve_full(prob, engine="exhaustive")
        mn = sq.solve_full(prob, engine="mnp")
        if abs(ex.value - mn.value) > 1e-6:
            mismatches += 1
    assert mismatches == 0


def test_extension_convexity_probe():
    rng = np.random.default_rng(11)
    for seed in range(10):
        prob = sq.InstanceSampler(n=4, regime="mixed", seed=800 + seed).draw(0)
        oracle = sq.IndicatorOracle(prob)
        z1, z2 = rng.random(oracle.m), rng.random(oracle.m)
        lam = float(rng.uniform(0.05, 0.95))
        mid = sq.lovasz(oracle, lam * z1 + (1 - lam) * z2)
        assert mid <= lam * sq.lovasz(oracle, z1) + (1 - lam) * sq.lovasz(oracle, z2) + 1e-8


def _memo_oracle(seed=5):
    prob = sq.InstanceSampler(n=6, regime="mixed", seed=seed).draw(0)
    return prob, sq.IndicatorOracle(prob)


def test_chain_with_every_prefix_set_known_traces_no_stage(monkeypatch):
    _, oracle = _memo_oracle()
    order = np.random.default_rng(0).permutation(oracle.m)
    first = oracle.chain(order)
    assert oracle.stats == sfm.SolveStats(chains=1, stages_traced=oracle.m, boxqp_solves=1,
                                          boxqp_iterations=2)  # stage 0
    assert len(oracle.memo) == oracle.m + 1
    monkeypatch.setattr(sfm.pathtrace, "chain_general", None)  # tracing would fail
    assert np.array_equal(oracle.chain(order), first)
    assert np.array_equal(oracle.chain(order[: oracle.m // 2]), first[: oracle.m // 2 + 1])
    assert oracle.stats.stages_traced == oracle.m
    assert oracle.stats.stages_memo == oracle.m + oracle.m // 2


def test_chain_traces_up_to_its_last_unknown_prefix_set(monkeypatch):
    _, oracle = _memo_oracle()
    m = oracle.m
    traced = []
    chain_general = sfm.pathtrace.chain_general

    def drifting(quad, smap, order, stage0=None):
        # the second trace values every set one ulp higher
        traced.append(len(order))
        vc = chain_general(quad, smap, order, stage0=stage0)
        if len(traced) == 2:
            vc.values = np.nextafter(vc.values, np.inf)
        return vc

    monkeypatch.setattr(sfm.pathtrace, "chain_general", drifting)
    order = np.arange(m)
    first = oracle.chain(order)
    swapped = order.copy()
    swapped[[1, 2]] = swapped[[2, 1]]  # only the prefix set of stage 2 is new
    second = oracle.chain(swapped)
    assert traced == [m, 2]
    assert (oracle.stats.stages_traced, oracle.stats.stages_memo) == (m + 2, m - 2)
    assert len(oracle.memo) == m + 2
    same = np.arange(m + 1) != 2
    assert np.array_equal(second[same], first[same])  # the first value wins
    assert np.max(np.abs(second - oracle.chain_naive(swapped))) <= 1e-8


def test_oracle_chain_rejects_repeated_or_out_of_range_coordinates():
    _, oracle = _memo_oracle()
    oracle.chain(np.arange(oracle.m))  # every prefix set known
    for order in ([0, 1, 0], [0, oracle.m], [-1, 0]):
        with pytest.raises(InputError, match="distinct coordinates"):
            oracle.chain(order)


def test_orders_with_entries_that_are_not_integral_are_rejected():
    _, oracle = _memo_oracle()
    # True == 1, but a bool is no coordinate
    orders = ([0.7, 1.2], np.array([0.0, 1.5]), [0, np.nan], [np.inf],
              [True, False], np.array([True, False]))
    for order in orders:
        for trace in (oracle.chain, oracle.chain_naive):
            with pytest.raises(InputError, match="distinct coordinates"):
                trace(order)
    assert oracle.stats == sfm.SolveStats() and not oracle.memo  # nothing was solved
    for order in orders:
        with pytest.raises(InputError, match="distinct coordinates"):
            pathtrace.chain_general(oracle.quad, oracle.smap, order)
    # integral floats and numpy ints name their coordinates, as integers do
    assert np.array_equal(oracle.chain([1.0, 0.0]), oracle.chain(np.array([1, 0])))
    assert np.array_equal(oracle.chain([np.int64(1), 0]), oracle.chain([1, 0]))
    assert pathtrace.chain_general(oracle.quad, oracle.smap, np.array([2.0])).order == (2,)


def test_a_rejected_order_is_not_counted():
    oracle = sq.FunctionOracle(lambda z: float(z.sum()), 3)
    for order in ([0, 0], [True, False]):
        with pytest.raises(InputError, match="distinct coordinates"):
            oracle.chain(order)
    assert oracle.stats == sfm.SolveStats()


@pytest.mark.parametrize("order, m", [([3, 0, 4], 5), (np.array([1, 0]), 2), ([], 3), ([], 0)])
def test_row_k_of_prefix_sets_holds_exactly_the_first_k_coordinates(order, m):
    z = sfm.prefix_sets(order, m)
    assert z.shape == (len(order) + 1, m) and z.dtype == int
    for k, row in enumerate(z):
        assert set(np.flatnonzero(row).tolist()) == {int(c) for c in order[:k]}
        assert np.all((row == 0) | (row == 1))


def test_a_bad_order_raises_before_anything_is_solved(monkeypatch):
    _, oracle = _memo_oracle()
    monkeypatch.setattr(boxqp, "solve_many", None)  # solving would fail
    monkeypatch.setattr(boxqp, "solve", None)
    for order in ([0, 0], [0, oracle.m], [-1], [True], [0.5]):
        with pytest.raises(InputError, match="distinct coordinates"):
            sfm.prefix_sets(order, oracle.m)
        with pytest.raises(InputError, match="distinct coordinates"):
            oracle.chain_naive(order)
    assert oracle.stats == sfm.SolveStats()


def test_indicator_chain_naive_is_one_stacked_solve_of_the_prefix_boxes(monkeypatch):
    prob, oracle = _memo_oracle()
    order = np.random.default_rng(2).permutation(oracle.m)
    rows = []
    solve_many = boxqp.solve_many

    def counted(quad, lo, up):
        rows.append(len(lo))
        return solve_many(quad, lo, up)

    monkeypatch.setattr(boxqp, "solve_many", counted)
    monkeypatch.setattr(boxqp, "solve", None)  # no box is solved alone
    naive = oracle.chain_naive(order)
    monkeypatch.undo()
    assert oracle.m == 9 and rows == [oracle.m + 1]
    assert oracle.stats == sfm.SolveStats(boxqp_solves=oracle.m + 1, boxqp_iterations=18)
    assert np.max(np.abs(naive - sq.IndicatorOracle(prob).chain(order))) <= 1e-9


def test_function_oracle_chain_naive_calls_eval_once_per_prefix_set():
    seen = []
    oracle = sq.FunctionOracle(lambda z: seen.append(z.tolist()) or float(z @ [1, 2, 4]), 3)
    assert oracle.chain_naive([2, 0, 1]).tolist() == [0.0, 4.0, 5.0, 7.0]
    assert seen == [[0, 0, 0], [0, 0, 1], [1, 0, 1], [1, 1, 1]]
    assert oracle.stats == sfm.SolveStats()  # chain_naive is no chain


def test_bounded_memo_keeps_mnp_results(monkeypatch):
    problems = [
        sq.InstanceSampler(n=8, regime=regime, seed=900 + seed).draw(0)
        for seed, regime in enumerate(("nonnegative", "mixed", "negative"))
    ]
    inst, _ = sq.generate("chain", (10,), mode="robust", outlier_fraction=0.2, seed=3)
    problems.append(sq.compile_instance(inst))
    ref = [sq.solve_full(p) for p in problems]
    sizes = []
    chain = sfm.IndicatorOracle.chain

    def watched(self, order):
        values = chain(self, order)
        sizes.append(len(self.memo))
        return values

    monkeypatch.setattr(sfm, "MEMO_ENTRIES", 8)
    monkeypatch.setattr(sfm.IndicatorOracle, "chain", watched)
    for problem, expect in zip(problems, ref):
        got = sq.solve_full(problem)
        assert got.converged == expect.converged
        assert np.array_equal(got.z, expect.z)
        assert got.value == pytest.approx(expect.value, rel=1e-9, abs=1e-12)
    assert max(sizes) == 8


def _logged(caplog, prefix):
    return [r.getMessage() for r in caplog.records if r.getMessage().startswith(prefix)]


def test_mnp_logs_its_chain_counters(caplog):
    prob, _ = _memo_oracle(seed=6)
    with caplog.at_level(logging.DEBUG, logger="submodqp.sfm"):
        res = sq.solve_full(prob)
    assert _logged(caplog, "mnp: ") == [f"mnp: {res.stats}"]
    stats = res.stats
    assert stats.chains >= 2 and stats.stages_traced >= 1 and stats.stages_memo >= 1
    # stage 0, which is F(∅), and the rounded set's value with its x
    assert stats.boxqp_solves == 2 and stats.boxqp_iterations >= 2


def test_exhaustive_logs_its_box_qp_counters(caplog):
    prob = sq.InstanceSampler(n=6, regime="nonnegative", seed=3).draw(0)
    with caplog.at_level(logging.DEBUG, logger="submodqp.sfm"):
        res = sq.solve_full(prob, engine="exhaustive")
    assert _logged(caplog, "exhaustive: ") == [f"exhaustive: {2**6} codes, {res.stats}"]
    stats = res.stats
    # every code is one stacked row, and one more solve gives the minimizer's x
    assert (stats.boxqp_solves, stats.boxqp_iterations) == (2**6 + 1, 138 + 2)


def test_box_qp_solves_are_counted():
    prob, oracle = _memo_oracle(seed=6)
    assert oracle.stats == sfm.SolveStats()
    res = sq.minimize_mnp(oracle)
    # stage 0, which is F(∅), and the rounded set's value with its x;
    # chains solve none
    assert (oracle.stats.boxqp_solves, oracle.stats.boxqp_iterations) == (2, 4)
    assert res.stats == oracle.stats and res.stats is not oracle.stats
    oracle = sq.IndicatorOracle(prob)
    res = sq.minimize_exhaustive(oracle)
    # one stacked row per code (480 iterations), then the minimizer's x (1)
    assert oracle.m == 8
    assert (oracle.stats.boxqp_solves, oracle.stats.boxqp_iterations) == (2**8 + 1, 480 + 1)
    assert res.stats == oracle.stats and res.stats is not oracle.stats


def test_direct_engine_calls_return_the_oracles_counters():
    oracle = sq.FunctionOracle(lambda z: float(z.sum()) - 2.0 * z[0] * z[1], 3)
    res = sq.minimize_mnp(oracle)
    assert res.stats == oracle.stats and res.stats.chains >= 1
    assert res.stats.stages_traced == 3 * res.stats.chains
    oracle = sq.FunctionOracle(lambda z: float(z.sum()), 3)
    assert sq.minimize_exhaustive(oracle).stats == oracle.stats == sfm.SolveStats()


def _first_chain_values(oracle, monkeypatch):
    """The values of the first chain ``minimize_mnp`` asks ``oracle`` for."""
    chains = []
    chain = oracle.chain

    def recorded(order):
        chains.append((np.asarray(order).copy(), chain(order)))
        return chains[-1][1]

    monkeypatch.setattr(oracle, "chain", recorded)
    sq.minimize_mnp(oracle)
    order, values = chains[0]
    assert np.array_equal(order, np.arange(oracle.m))
    return values


def test_mnp_takes_f_empty_from_its_first_chain_bit_for_bit(monkeypatch):
    sparse = sq.InstanceSampler(n=6, regime="mixed", seed=5).draw(0)
    inst, _ = sq.generate("chain", 5, mode="robust", outlier_fraction=0.2, seed=1)
    robust = sq.compile_instance(inst)
    for make in (
        lambda: sq.IndicatorOracle(sparse),
        lambda: sq.IndicatorOracle(robust),
        lambda: sq.FunctionOracle(lambda z: float(z.sum()) - 1.5 * z[0] * z[2], 4),
    ):
        oracle = make()
        f_empty = make().eval(np.zeros(oracle.m, dtype=int))
        values = _first_chain_values(oracle, monkeypatch)
        assert values[0] == f_empty  # bit for bit


@pytest.mark.parametrize("tol", [np.nan, np.inf, -1e-9])
@pytest.mark.parametrize("engine", ["exhaustive", "mnp"])
def test_solve_full_rejects_a_meaningless_tol(engine, tol):
    # an infinite tol certifies any value, and a NaN one the noise floor
    inst, _ = sq.generate("chain", 4, mode="robust", outlier_fraction=0.25, seed=3)
    with pytest.raises(InputError, match="tol must be finite and nonnegative"):
        sq.solve_full(sq.compile_instance(inst), engine=engine, tol=tol)


@pytest.mark.parametrize("tol", [np.nan, np.inf, -1e-9])
def test_minimize_mnp_rejects_a_meaningless_tol(tol):
    oracle = sq.FunctionOracle(lambda z: float(z.sum()), 3)
    with pytest.raises(InputError, match="tol must be finite and nonnegative"):
        sq.minimize_mnp(oracle, tol=tol)


def test_a_singular_corral_is_a_numerical_error():
    # two equal atoms leave the affine hull's system singular
    with pytest.raises(NumericalError, match="corral of 2 atoms"):
        sfm._affine_minimizer(np.array([[1.0, 0.0], [1.0, 0.0]]))
