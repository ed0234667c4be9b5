import collections
import warnings

import numpy as np
import pytest

import submodqp as sq
from submodqp import boxqp, lattice, pathtrace
from submodqp.exceptions import InputError
from submodqp.pathtrace import PathState, chain_general, chain_nonnegative, lovasz, trace_path


@pytest.fixture
def small_quad():
    return sq.QuadraticForm([[2, -1], [-1, 2]], [1, 0])


def _stage_state(quad, lo, up, y, param):
    return PathState.from_point(quad, lo, up, y, param=param)


def test_trace_to_stationarity(small_quad):
    # free coordinate follows y0(x) = (1+x)/2; the stationarity root of the
    # parametric coordinate is x = 1/3, reached before any breakpoint
    st = _stage_state(small_quad, np.zeros(2), np.array([10.0, 10.0]), np.array([0.5, 0.0]), 1)
    st.stage = 2
    trace_path(st)
    assert np.allclose(st.y, [2.0 / 3.0, 1.0 / 3.0], atol=1e-12)
    assert st.breakpoints == []


def test_trace_with_breakpoint(small_quad):
    # tighter u0 = 0.6: the free coordinate hits it at x = 0.2, pivots to the
    # upper set, and the trace continues on the new segment to x = 0.3
    st = _stage_state(small_quad, np.zeros(2), np.array([0.6, 10.0]), np.array([0.5, 0.0]), 1)
    st.stage = 2
    trace_path(st)
    assert np.allclose(st.y, [0.6, 0.3], atol=1e-12)
    assert len(st.breakpoints) == 1
    bp = st.breakpoints[0]
    assert bp.index == 0
    assert bp.x == pytest.approx(0.2, abs=1e-12)
    assert bp.event == pathtrace.EVENT_HIT_UPPER


def test_trace_segment_is_affine(small_quad):
    # between x=0 and the breakpoint, the free coordinate recomputed by an
    # independent pinned box-QP solve lies on the line (1+x)/2
    for xs in (0.05, 0.1, 0.15):
        sol = boxqp.solve(small_quad, np.array([0.0, xs]), np.array([0.6, xs]))
        assert sol.x[0] == pytest.approx((1.0 + xs) / 2.0, abs=1e-10)


def test_trace_empty_interval_is_identity(small_quad):
    st = _stage_state(small_quad, np.zeros(2), np.array([10.0, 10.0]), np.array([0.5, 0.0]), 1)
    before = st.y.copy()
    trace_path(st, to=0.0)
    # the free block is refreshed from the factorization, so equality holds
    # at float resolution rather than bitwise
    assert np.allclose(st.y, before, rtol=0.0, atol=1e-15)
    assert st.x_param == 0.0
    assert st.breakpoints == []


def test_corrupted_state_rejected(small_quad):
    # interior coordinate with nonzero gradient fails the entry audit
    with pytest.raises(InputError, match="corrupted"):
        _stage_state(small_quad, np.zeros(2), np.array([10.0, 10.0]), np.array([0.2, 0.0]), 1)


def test_chain_natural_order(small_quad):
    chain = chain_nonnegative(small_quad, np.zeros(2), np.array([10.0, 10.0]))
    assert np.allclose(chain.values, [0.0, -0.25, -1.0 / 3.0], atol=1e-12)
    assert np.allclose(chain.minimizers[2], [2.0 / 3.0, 1.0 / 3.0], atol=1e-12)


def test_chain_reversed_order(small_quad):
    chain = chain_nonnegative(small_quad, np.zeros(2), np.array([10.0, 10.0]), order=[1, 0])
    assert np.allclose(chain.values, [0.0, 0.0, -1.0 / 3.0], atol=1e-12)


def test_chain_scalar():
    quad = sq.QuadraticForm([[2.0]], [3.0])
    chain = chain_nonnegative(quad, np.zeros(1), np.array([10.0]))
    assert np.allclose(chain.values, [0.0, -2.25], atol=1e-12)
    assert chain.minimizers[1][0] == pytest.approx(1.5, abs=1e-12)


def test_chain_rejects_bad_inputs(small_quad):
    with pytest.raises(InputError, match="clamp"):
        chain_nonnegative(small_quad, np.zeros(2), np.array([np.inf, 1.0]))
    with pytest.raises(InputError):
        chain_nonnegative(small_quad, np.array([-0.5, 0.0]), np.ones(2))
    with pytest.raises(InputError):
        chain_nonnegative(small_quad, np.zeros(2), np.ones(2), order=[0, 0])


def test_chain_general_scalar_negative_pull():
    # f = 3x + x^2 on [-5, 5]: all-off box [-5, 0] has its optimum at -3/2;
    # forcing the variable up to 0 (minus-bit) gives 0; opening the upper
    # range afterwards leaves it at 0 since the gradient is nonnegative
    quad = sq.QuadraticForm([[2.0]], [-3.0])
    smap, _ = lattice.split(np.array([-5.0]), np.array([5.0]))
    chain = chain_general(quad, np.array([-5.0]), np.array([5.0]), smap, order=[1, 0])
    assert np.allclose(chain.values, [-2.25, 0.0, 0.0], atol=1e-12)


def test_chain_general_scalar_boundary_start():
    # f = -3x + x^2 on [-5, 0]: the all-off optimum sits on the boundary x=0
    quad = sq.QuadraticForm([[2.0]], [3.0])
    chain = chain_general(quad, np.array([-5.0]), np.array([5.0]))
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
        smap, _ = lattice.split(lo, up)
        chain = chain_general(prob.quad, lo, up, smap)
        nonneg = boxqp.solve(prob.quad, np.zeros(prob.n), up)
        assert chain.values[-1] == pytest.approx(nonneg.value, abs=1e-9)
        zfull = np.zeros(smap.binary_dim, dtype=int)
        for p, m in smap.coord_of:
            zfull[p] = 1
        full = boxqp.solve(prob.quad, lo, up)
        vfull = boxqp.value_function(prob.quad, lo, up, smap, zfull)
        assert vfull == pytest.approx(full.value, abs=1e-9)


@pytest.mark.parametrize("regime", ["nonnegative", "mixed", "negative"])
def test_chain_matches_boxqp_prefixes(regime):
    for seed in range(8):
        prob = sq.InstanceSampler(n=7, regime=regime, seed=40 + seed).draw(0)
        smap, _ = lattice.split(prob.lo, prob.up)
        if regime == "nonnegative":
            chain = chain_nonnegative(prob.quad, prob.lo, prob.up)
            z = np.zeros(smap.binary_dim, dtype=int)
            for k in range(prob.n + 1):
                if k:
                    z[k - 1] = 1
                ref = boxqp.value_function(prob.quad, prob.lo, prob.up, smap, z)
                assert abs(chain.values[k] - ref) <= 1e-8
        else:
            chain = chain_general(prob.quad, prob.lo, prob.up, smap)
            z = np.zeros(smap.binary_dim, dtype=int)
            for k in range(smap.binary_dim + 1):
                if k:
                    z[k - 1] = 1
                ref = boxqp.value_function(prob.quad, prob.lo, prob.up, smap, z)
                assert abs(chain.values[k] - ref) <= 1e-8


def test_chain_minimizers_pass_kkt_audit():
    prob = sq.InstanceSampler(n=6, regime="mixed", seed=77).draw(0)
    smap, _ = lattice.split(prob.lo, prob.up)
    chain = chain_general(prob.quad, prob.lo, prob.up, smap)
    z = np.zeros(smap.binary_dim, dtype=int)
    for k in range(smap.binary_dim + 1):
        if k:
            z[k - 1] = 1
        blo, bup = lattice.bounds_for_binary(smap, z, prob.lo, prob.up)
        res = boxqp.kkt_residual(prob.quad, blo, bup, chain.minimizers[k])
        assert res <= 1e-8


def test_monotone_path_and_budget():
    for seed in range(10):
        prob = sq.InstanceSampler(n=8, regime="mixed", seed=300 + seed).draw(0)
        chain = chain_general(prob.quad, prob.lo, prob.up)
        pts = chain.iterate_sequence()
        for t in range(1, len(pts)):
            assert np.all(pts[t] >= pts[t - 1] - 1e-10)
        assert len(chain.breakpoints) <= 4 * prob.n


def test_each_event_fires_at_most_once_per_variable():
    for seed in range(10):
        prob = sq.InstanceSampler(n=8, regime="mixed", seed=500 + seed).draw(0)
        chain = chain_general(prob.quad, prob.lo, prob.up)
        seen = collections.Counter((b.index, b.event) for b in chain.breakpoints)
        assert all(v == 1 for v in seen.values())


def test_upper_bound_condition_persists_after_entering():
    # once a variable reaches its upper bound its gradient stays nonpositive
    # at every later breakpoint and stage end
    for seed in range(6):
        prob = sq.InstanceSampler(n=7, regime="mixed", seed=900 + seed).draw(0)
        chain = chain_general(prob.quad, prob.lo, prob.up)
        entered = {}
        pts = chain.iterate_sequence()
        for b, p in zip(chain.breakpoints, chain.breakpoint_points):
            if b.event in (pathtrace.EVENT_HIT_UPPER, pathtrace.EVENT_HIT_ZERO):
                entered[b.index] = p[b.index]
        if not entered:
            continue
        final = pts[-1]
        g = prob.quad.grad(final)
        for i, level in entered.items():
            if final[i] <= level + 1e-12:  # still at that bound
                assert g[i] <= 1e-8


def test_lovasz_examples(small_quad):
    chain = chain_nonnegative(small_quad, np.zeros(2), np.array([10.0, 10.0]))
    assert lovasz(chain, np.array([0.5, 0.25])) == pytest.approx(-7.0 / 48.0, abs=1e-12)
    assert lovasz(chain, np.ones(2)) == pytest.approx(chain.values[-1], abs=1e-12)
    assert lovasz(chain, np.zeros(2)) == pytest.approx(chain.values[0], abs=1e-12)


def test_lovasz_rejects_incompatible_order(small_quad):
    chain = chain_nonnegative(small_quad, np.zeros(2), np.array([10.0, 10.0]))
    with pytest.raises(InputError):
        lovasz(chain, np.array([0.25, 0.5]))
    with pytest.raises(InputError):
        lovasz(chain, np.array([0.5, 1.5]))


def test_chain_serialization(small_quad):
    chain = chain_nonnegative(small_quad, np.zeros(2), np.array([0.6, 10.0]), order=[0, 1])
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
        chain = chain_nonnegative(quad, np.zeros(2), np.array([1e10, 1e10]), order=[1, 0])
    assert chain.breakpoints == ()
    assert np.allclose(chain.values, [0.0, -0.5, -1.0], atol=1e-12)
    assert np.allclose(chain.minimizers[2], [1.0, 1.0], atol=1e-12)
