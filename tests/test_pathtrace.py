import collections
import dataclasses
import warnings

import numpy as np
import pytest

import submodqp as sq
from submodqp import boxqp, lattice, pathtrace
from submodqp.exceptions import InputError, NumericalError
from submodqp.pathtrace import PathState, chain_general, chain_nonnegative, trace_path


@pytest.fixture
def small_quad():
    return sq.QuadraticForm([[2, -1], [-1, 2]], [1, 0])


def _problem(quad, lo, up):
    """An indicator problem on ``quad`` and the bounds (lo, up) in which
    every indicator costs 1, so each variable has its coordinates."""
    return sq.IndicatorProblem(quad, np.ones(quad.n), lo, up)


def _with_open(prob, mask):
    """``prob`` with the indicators of ``mask`` free of cost: those whose box
    holds 0 are always open."""
    return dataclasses.replace(prob, costs=np.where(mask, 0.0, prob.costs))


def _chain(prob, order=None):
    """:func:`chain_general` over the split of ``prob``, in ``order`` (by
    default every coordinate, ascending)."""
    smap, _ = lattice.split(prob)
    return chain_general(prob.quad, smap, range(smap.binary_dim) if order is None else order)


def _state(quad, lo, up, y):
    """The stage-0 state at y, the minimizer over [lo, up].  Every indicator
    costs nothing and every box holds 0, so every variable is always open
    and the stage-0 box is [lo, up]."""
    smap, _ = lattice.split(sq.IndicatorProblem(quad, np.zeros(quad.n), lo, up))
    assert smap.binary_dim == 0
    return PathState(quad, smap, y, lo, up)


def test_trace_to_stationarity(small_quad):
    # free coordinate follows y0(x) = (1+x)/2; the stationarity root of the
    # parametric coordinate is x = 1/3, reached before any breakpoint
    st = _state(small_quad, np.zeros(2), np.array([10.0, 10.0]), np.array([0.5, 0.0]))
    st.stage = 2
    trace_path(st, 1, 0.0, 10.0)
    assert np.allclose(st.y, [2.0 / 3.0, 1.0 / 3.0], atol=1e-12)
    assert st.breakpoints == []
    # inside its box at the target, the coordinate settles in the factor
    assert st.status[1] == pathtrace._FREE
    assert sorted(st.chol.indices.tolist()) == [0, 1]


def test_trace_with_breakpoint(small_quad):
    # tighter u0 = 0.6: the free coordinate hits it at x = 0.2, pivots to the
    # upper set, and the trace continues on the new segment to x = 0.3
    st = _state(small_quad, np.zeros(2), np.array([0.6, 10.0]), np.array([0.5, 0.0]))
    st.stage = 2
    trace_path(st, 1, 0.0, 10.0)
    assert np.allclose(st.y, [0.6, 0.3], atol=1e-12)
    assert len(st.breakpoints) == 1
    bp = st.breakpoints[0]
    assert bp.index == 0
    assert bp.x == pytest.approx(0.2, abs=1e-12)
    assert bp.event == pathtrace.EVENT_HIT_UPPER
    assert st.status.tolist() == [pathtrace._HI, pathtrace._FREE]
    assert st.chol.indices.tolist() == [1]


def test_trace_segment_is_affine(small_quad):
    # between x=0 and the breakpoint, the free coordinate recomputed by an
    # independent pinned box-QP solve lies on the line (1+x)/2
    for xs in (0.05, 0.1, 0.15):
        sol = boxqp.solve(small_quad, np.array([0.0, xs]), np.array([0.6, xs]))
        assert sol.x[0] == pytest.approx((1.0 + xs) / 2.0, abs=1e-10)


def test_trace_empty_interval_is_identity(small_quad):
    # a stage pinned at the current value traces nothing
    st = _state(small_quad, np.zeros(2), np.array([10.0, 10.0]), np.array([0.5, 0.0]))
    before = st.y.copy()
    trace_path(st, 1, 0.0, 0.0)
    # the free block is refreshed from the factorization, so equality holds
    # at float resolution rather than bitwise
    assert np.allclose(st.y, before, rtol=0.0, atol=1e-15)
    assert st.y[1] == 0.0
    assert st.breakpoints == []
    # a point box settles the coordinate on its lower bound
    assert st.status[1] == pathtrace._LO


def test_backward_target_beyond_the_float_guard_raises(small_quad):
    args = (small_quad, np.zeros(2), np.array([10.0, 10.0]), np.array([0.5, 0.0]))
    st = _state(*args)
    with pytest.raises(NumericalError, match="retreats"):
        trace_path(st, 1, -10.0, -1.0)
    # a backward step within the guard is float noise: the trace stays put
    st = _state(*args)
    before = st.y.copy()
    trace_path(st, 1, -10.0, -1e-13)
    assert st.y[1] == 0.0
    assert np.allclose(st.y, before, rtol=0.0, atol=1e-15)
    assert st.breakpoints == []


def test_chain_natural_order(small_quad):
    chain = chain_nonnegative(_problem(small_quad, np.zeros(2), np.array([10.0, 10.0])))
    assert np.allclose(chain.values, [0.0, -0.25, -1.0 / 3.0], atol=1e-12)
    assert np.allclose(chain.minimizers[2], [2.0 / 3.0, 1.0 / 3.0], atol=1e-12)


def test_chain_reversed_order(small_quad):
    chain = _chain(_problem(small_quad, np.zeros(2), np.array([10.0, 10.0])), [1, 0])
    assert np.allclose(chain.values, [0.0, 0.0, -1.0 / 3.0], atol=1e-12)


def test_chain_scalar():
    quad = sq.QuadraticForm([[2.0]], [3.0])
    chain = chain_nonnegative(_problem(quad, np.zeros(1), np.array([10.0])))
    assert np.allclose(chain.values, [0.0, -2.25], atol=1e-12)
    assert chain.minimizers[1][0] == pytest.approx(1.5, abs=1e-12)


def test_chain_rejects_bad_inputs(small_quad):
    with pytest.raises(InputError, match="no finite point"):
        chain_nonnegative(_problem(small_quad, np.array([np.inf, 0.0]), np.array([np.inf, 1.0])))
    with pytest.raises(InputError):
        chain_nonnegative(_problem(small_quad, np.array([-0.5, 0.0]), np.ones(2)))
    with pytest.raises(InputError):
        _chain(_problem(small_quad, np.zeros(2), np.ones(2)), [0, 0])


def test_chain_general_scalar_negative_pull():
    # f = 3x + x^2 on [-5, 5]: all-off box [-5, 0] has its optimum at -3/2;
    # forcing the variable up to 0 (minus-bit) gives 0; opening the upper
    # range afterwards leaves it at 0 since the gradient is nonnegative
    quad = sq.QuadraticForm([[2.0]], [-3.0])
    chain = _chain(_problem(quad, np.array([-5.0]), np.array([5.0])), [1, 0])
    assert np.allclose(chain.values, [-2.25, 0.0, 0.0], atol=1e-12)


def test_chain_general_scalar_boundary_start():
    # f = -3x + x^2 on [-5, 0]: the all-off optimum sits on the boundary x=0
    quad = sq.QuadraticForm([[2.0]], [3.0])
    chain = _chain(_problem(quad, np.array([-5.0]), np.array([5.0])))
    assert chain.values[0] == pytest.approx(0.0, abs=1e-12)


def test_chain_general_endpoint_boxes():
    # all bits on raises every straddling lower bound to 0, so the chain ends
    # at the optimum over [0, u]; the full box [l, u] is the assignment with
    # plus-bits on and minus-bits off
    rng = np.random.default_rng(5)
    for seed in range(6):
        prob = sq.InstanceSampler(n=5, regime="mixed", seed=seed).draw(0)
        lo = -rng.uniform(0.3, 2.0, size=prob.n)
        up = rng.uniform(0.3, 2.0, size=prob.n)
        smap, _ = lattice.split(_problem(prob.quad, lo, up))
        chain = chain_general(prob.quad, smap, range(smap.binary_dim))
        nonneg = boxqp.solve(prob.quad, np.zeros(prob.n), up)
        assert chain.values[-1] == pytest.approx(nonneg.value, abs=1e-9)
        zfull = smap.plus.astype(int)
        full = boxqp.solve(prob.quad, lo, up)
        vfull = boxqp.solve(prob.quad, *lattice.bounds_for_binary(smap, zfull)).value
        assert vfull == pytest.approx(full.value, abs=1e-9)


def test_chain_general_with_always_open_matches_boxqp_prefixes():
    # always-open variables keep [l, u] at every stage; the reference boxes
    # come from the full split (every indicator costed) with their z+ bits
    # on and z- bits off
    rng = np.random.default_rng(8)
    for seed in range(6):
        prob = sq.InstanceSampler(n=6, regime="mixed", seed=60 + seed).draw(0)
        mask = (rng.random(prob.n) < 0.7) & (prob.lo <= 0.0) & (prob.up >= 0.0)
        mask[rng.integers(prob.n)] = False
        smap, _ = lattice.split(_with_open(prob, mask))
        full, _ = lattice.split(prob)
        order = rng.permutation(smap.binary_dim)
        chain = chain_general(prob.quad, smap, order)
        coords = list(zip(smap.var.tolist(), smap.plus.tolist()))
        full_coords = list(zip(full.var.tolist(), full.plus.tolist()))
        assert chain.m == sum(1 for i, _ in full_coords if not mask[i])
        base = np.array([mask[i] and plus for i, plus in full_coords], dtype=int)
        z = np.tile(base, (smap.binary_dim + 1, 1))
        z[:, [full_coords.index(c) for c in coords]] = lattice.prefix_sets(order, smap.binary_dim)
        ref = boxqp.solve_many(prob.quad, *lattice.bounds_for_binary(full, z)).value
        assert np.max(np.abs(chain.values - ref)) <= 1e-8


def test_chain_general_given_stage0_is_bit_identical():
    prob = sq.InstanceSampler(n=8, regime="mixed", seed=12).draw(0)
    smap, _ = lattice.split(prob)
    lo0, up0 = lattice.prefix_boxes(smap, [])
    stage0 = boxqp.solve(prob.quad, lo0[0], up0[0])
    order = np.random.default_rng(1).permutation(smap.binary_dim)
    ref = chain_general(prob.quad, smap, order)
    got = chain_general(prob.quad, smap, order, stage0=stage0)
    assert np.array_equal(got.values, ref.values)
    assert np.array_equal(got.minimizers, ref.minimizers)
    assert got.breakpoints == ref.breakpoints


@pytest.mark.parametrize("regime", ["nonnegative", "mixed", "negative"])
def test_chain_matches_boxqp_prefixes(regime):
    for seed in range(8):
        prob = sq.InstanceSampler(n=7, regime=regime, seed=40 + seed).draw(0)
        smap, _ = lattice.split(prob)
        chain = chain_general(prob.quad, smap, range(smap.binary_dim))
        assert chain.kind == ("nonnegative" if regime == "nonnegative" else "general")
        ref = boxqp.solve_many(prob.quad, *lattice.prefix_boxes(smap, range(smap.binary_dim))).value
        assert np.max(np.abs(chain.values - ref)) <= 1e-8


@pytest.mark.parametrize("regime", ["nonnegative", "mixed", "negative"])
@pytest.mark.parametrize("always_open", [False, True])
def test_prefix_order_gives_the_first_stages_bit_for_bit(regime, always_open):
    rng = np.random.default_rng(13)
    for seed in range(4):
        prob = sq.InstanceSampler(n=7, regime=regime, seed=90 + seed).draw(0)
        if always_open:
            prob = _with_open(prob, rng.random(prob.n) < 0.5)
        smap, _ = lattice.split(prob)
        order = rng.permutation(smap.binary_dim)
        full = chain_general(prob.quad, smap, order)
        for k in range(smap.binary_dim + 1):
            head = chain_general(prob.quad, smap, order[:k])
            assert head.m == k and head.order == tuple(order[:k].tolist())
            assert head.kind == full.kind
            assert np.array_equal(head.values, full.values[: k + 1])
            assert np.array_equal(head.minimizers, full.minimizers[: k + 1])
            n_bp = sum(1 for b in full.breakpoints if b.stage <= k)
            assert head.breakpoints == full.breakpoints[:n_bp]
            assert all(
                np.array_equal(p, q)
                for p, q in zip(head.breakpoint_points, full.breakpoint_points[:n_bp])
            )


def test_order_rejects_repeated_or_out_of_range_coordinates():
    prob = sq.InstanceSampler(n=4, regime="mixed", seed=3).draw(0)
    smap, _ = lattice.split(prob)
    m = smap.binary_dim
    for order in ([0, 1, 0], [0, m], [-1, 0], list(range(m)) + [0]):
        with pytest.raises(InputError, match="distinct coordinates"):
            chain_general(prob.quad, smap, order)


def test_chain_minimizers_pass_kkt_audit():
    prob = sq.InstanceSampler(n=6, regime="mixed", seed=77).draw(0)
    smap, _ = lattice.split(prob)
    chain = chain_general(prob.quad, smap, range(smap.binary_dim))
    z = np.zeros(smap.binary_dim, dtype=int)
    for k in range(smap.binary_dim + 1):
        if k:
            z[k - 1] = 1
        blo, bup = lattice.bounds_for_binary(smap, z)
        res = boxqp.kkt_residual(prob.quad, blo, bup, chain.minimizers[k])
        assert res <= 1e-8


def test_monotone_path_and_budget():
    for seed in range(10):
        prob = sq.InstanceSampler(n=8, regime="mixed", seed=300 + seed).draw(0)
        chain = _chain(prob)
        pts = chain.iterate_sequence()
        for t in range(1, len(pts)):
            assert np.all(pts[t] >= pts[t - 1] - 1e-10)
        assert len(chain.breakpoints) <= 4 * prob.n


def test_each_event_fires_at_most_once_per_variable():
    for seed in range(10):
        prob = sq.InstanceSampler(n=8, regime="mixed", seed=500 + seed).draw(0)
        chain = _chain(prob)
        seen = collections.Counter((b.index, b.event) for b in chain.breakpoints)
        assert all(v == 1 for v in seen.values())


def test_upper_bound_condition_persists_after_entering():
    # once a variable reaches its upper bound its gradient stays nonpositive
    # at every later breakpoint and stage end where it is still at that bound
    hits = (pathtrace.EVENT_HIT_UPPER, pathtrace.EVENT_HIT_ZERO)
    for regime in sq.oracle.REGIMES:
        draws_that_entered = 0
        for seed in range(900, 930):
            prob = sq.InstanceSampler(n=7, regime=regime, seed=seed).draw(0)
            chain = _chain(prob)
            entered = {}
            for k in range(1, chain.m + 1):
                path = chain.stage_path(k)
                events = [b for b in chain.breakpoints if b.stage == k]
                assert len(path) == len(events) + 2
                for p, b in zip(path[1:], [*events, None]):  # the stage end has no event
                    g = prob.quad.grad(p)
                    for i, level in entered.items():
                        if p[i] <= level + 1e-12:
                            assert g[i] <= 1e-8, (regime, seed, k, i)
                    if b is not None and b.event in hits:
                        entered[b.index] = p[b.index]
            draws_that_entered += bool(entered)
        # 1, 7 and 15 of the 30 draws (nonnegative, mixed, negative)
        assert draws_that_entered, regime


@pytest.mark.parametrize("order", [[0, 1], [1, 0]])
def test_a_stage_that_opens_a_zero_width_box_is_skipped(small_quad, order, monkeypatch):
    # variable 1 costs, so it has a coordinate, but its box is [0, 0]: the
    # stage that opens it leaves it pinned at 0.  In order (0, 1) variable 0
    # rises first and turns variable 1's gradient negative, so only the
    # pinned rule skips its stage.
    traced = []

    def recording(state, j, *bounds):
        traced.append(j)
        return trace_path(state, j, *bounds)

    monkeypatch.setattr(pathtrace, "trace_path", recording)
    prob = _problem(small_quad, np.zeros(2), np.array([10.0, 0.0]))
    chain = _chain(prob, order)
    k = order.index(1) + 1  # the stage that opens variable 1
    assert traced == [0]
    assert chain.values[k] == chain.values[k - 1]
    assert np.array_equal(chain.minimizers[k], chain.minimizers[k - 1])
    assert all(b.stage != k for b in chain.breakpoints)
    assert chain.values[-1] == pytest.approx(-0.25, abs=1e-12)  # x = (0.5, 0)


def _check_maintained_state(state, tracing):
    """The factor's indices are the free statuses; mid-trace, the masks
    trace_path maintains equal the ones built from the statuses."""
    free = state.status == pathtrace._FREE
    R = state.chol.indices
    assert sorted(R.tolist()) == np.flatnonzero(free).tolist()
    L = state.chol.L()
    assert np.allclose(L @ L.T, state.quad.Q[np.ix_(R, R)], atol=1e-9)
    if tracing:
        eligible = free | ((state.status == pathtrace._LO) & (state.lo < state.up))
        assert np.array_equal(state.free, free)
        assert np.array_equal(state.eligible, eligible)


def test_maintained_indices_and_masks_match_the_statuses(monkeypatch):
    seen = collections.Counter()

    class PivotLog(list):
        # trace_path logs every pivot here, right after making it
        def __init__(self, state):
            super().__init__(state.breakpoints)
            self.state = state

        def append(self, bp):
            super().append(bp)
            _check_maintained_state(self.state, tracing=True)
            seen[bp.event] += 1

    def checked_trace(state, *stage):
        if not isinstance(state.breakpoints, PivotLog):
            state.breakpoints = PivotLog(state)
        out = trace_path(state, *stage)
        _check_maintained_state(state, tracing=False)  # the stage has settled
        seen["stages"] += 1
        return out

    monkeypatch.setattr(pathtrace, "trace_path", checked_trace)
    for regime in ("nonnegative", "mixed", "negative"):
        for seed in range(6):
            prob = sq.InstanceSampler(n=16, regime=regime, seed=700 + seed).draw(0)
            rng = np.random.default_rng(seed)
            prob = _with_open(prob, rng.random(prob.n) < 0.3)
            smap, _ = lattice.split(prob)
            chain_general(prob.quad, smap, rng.permutation(smap.binary_dim))
    events = (pathtrace.EVENT_LEAVE_LOWER, pathtrace.EVENT_HIT_UPPER,
              pathtrace.EVENT_LEAVE_ZERO, pathtrace.EVENT_HIT_ZERO)
    assert all(seen[e] for e in events) and seen["stages"] > 100


def test_every_traced_stage_is_handed_the_box_of_its_prefix_set(monkeypatch):
    # the box trace_path works in, the state's bounds with the stage's new
    # bounds of j put in, is row k of lattice.prefix_boxes: on mixed sampler
    # draws, some with always-open variables, and on robust chains, along
    # random whole and prefix orders
    problems = []
    for seed in range(6):
        prob = sq.InstanceSampler(n=10, regime="mixed", seed=900 + seed).draw(0)
        problems.append(_with_open(prob, np.random.default_rng(seed).random(prob.n) < 0.3))
    for seed in range(4):
        inst, _ = sq.generate("chain", 8, signal_sparsity=0, outlier_fraction=0.25,
                              noise_sd=0.25, seed=seed, mode="robust")
        problems.append(sq.compile_instance(inst))
    handed = []

    def recording(state, j, lo_j, up_j):
        lo, up = state.lo.copy(), state.up.copy()
        lo[j], up[j] = lo_j, up_j
        handed.append((state.stage, lo, up))
        return trace_path(state, j, lo_j, up_j)

    monkeypatch.setattr(pathtrace, "trace_path", recording)
    traced = 0
    for i, prob in enumerate(problems):
        smap, _ = lattice.split(prob)
        rng = np.random.default_rng(i)
        m = smap.binary_dim
        for order in (rng.permutation(m), rng.permutation(m)[: m // 2]):
            handed.clear()
            chain_general(prob.quad, smap, order)
            blo, bup = lattice.prefix_boxes(smap, order)
            for k, lo, up in handed:
                assert np.array_equal(lo, blo[k]) and np.array_equal(up, bup[k]), (i, k)
            traced += len(handed)
    assert traced > 100


def test_chain_serialization(small_quad):
    chain = chain_nonnegative(_problem(small_quad, np.zeros(2), np.array([0.6, 10.0])))
    d = chain.to_json_dict()
    assert set(d) == {"kind", "order", "values", "breakpoints"}
    assert d["values"][0] == pytest.approx(0.0)
    assert len(d["breakpoints"]) == len(chain.breakpoints) >= 1
    for bp in d["breakpoints"]:
        assert set(bp) == {"stage", "x", "index", "event"}


def test_tiny_rate_does_not_overflow_ratio_test():
    # releasing coordinate 0 drives the free coordinate 1 upward at rate
    # 1e-300; its upper bound lies 1e10 away, so the naive ratio gap / rate
    # overflows.  Such a breakpoint lies far beyond the stage target and must
    # be screened out without a RuntimeWarning (the suite turns those into
    # errors).
    quad = sq.QuadraticForm([[1.0, -1e-300], [-1e-300, 1.0]], [1.0, 1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        chain = _chain(_problem(quad, np.zeros(2), np.array([1e10, 1e10])), [1, 0])
    assert chain.breakpoints == ()
    assert np.allclose(chain.values, [0.0, -0.5, -1.0], atol=1e-12)
    assert np.allclose(chain.minimizers[2], [1.0, 1.0], atol=1e-12)
