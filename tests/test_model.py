import dataclasses
import json
import math

import numpy as np
import pytest
from scipy.linalg.lapack import dpotrf, dpotrs

import submodqp as sq
from submodqp import model
from submodqp.exceptions import InputError


def test_sparse_compile_two_vertex_chain():
    # expand sum_i (x_i - a_i)^2 + 0.5 (x1 - x2)^2 and match coefficients
    inst = sq.ProblemInstance(
        sq.chain_graph(2, weight=0.5), a=[1, 0], node_weights=[1, 1],
        c=[0, 0], l=[0, 0], u=[10, 10],
    )
    p = sq.compile_instance(inst)
    assert np.allclose(p.quad.Q, [[3, -1], [-1, 3]])
    assert np.allclose(p.quad.a, [2, 0])
    assert p.quad.k0 == pytest.approx(1.0)


def test_sparse_compile_single_vertex():
    inst = sq.ProblemInstance(sq.Graph(1), a=[5], node_weights=[1], c=[0], l=[0], u=[10])
    p = sq.compile_instance(inst)
    assert np.allclose(p.quad.Q, [[2]])
    assert np.allclose(p.quad.a, [10])
    assert p.quad.k0 == pytest.approx(25.0)


def test_sparse_compile_zero_weight_edge():
    inst = sq.ProblemInstance(
        sq.chain_graph(2, weight=0.0), a=[1, 1], node_weights=[1, 1],
        c=[0, 0], l=[0, 0], u=[1, 1],
    )
    p = sq.compile_instance(inst)
    assert np.allclose(p.quad.Q, [[2, 0], [0, 2]])


def test_sparse_objective_matches_sum_form():
    rng = np.random.default_rng(0)
    inst, _ = model.generate("grid2d", (3, 4), signal_sparsity=0.4, noise_sd=0.3, seed=1)
    p = sq.compile_instance(inst)
    for _ in range(100):
        x = rng.normal(0, 2, size=inst.n)
        direct = inst.objective_terms(x)
        via_quad = p.quad.value(x)
        assert abs(direct - via_quad) <= 1e-10 * (1.0 + abs(direct))


def assert_stieltjes(Q):
    off = Q - np.diag(np.diag(Q))
    assert off.max(initial=0.0) <= 0.0  # second-order submodularity
    np.linalg.cholesky(Q)  # positive definite


def test_compiled_q_is_stieltjes():
    for seed in range(5):
        inst, _ = model.generate("chain", (7,), noise_sd=0.5, seed=seed)
        assert_stieltjes(sq.compile_instance(inst).quad.Q)


def test_from_json_rejects_a_non_stieltjes_problem():
    d = sq.InstanceSampler(n=3, seed=0).draw(0).to_json_dict()
    d["Q"][0][1] = d["Q"][1][0] = 0.5
    with pytest.raises(InputError, match="not a Stieltjes matrix"):
        sq.IndicatorProblem.from_json_dict(d)


def test_newton_point_is_one_factorization(monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[0].shape)
        return dpotrf(*args, **kwargs)

    monkeypatch.setattr(model, "dpotrf", counting)
    for seed in range(3):
        quad = sq.InstanceSampler(n=9, seed=seed).draw(0).quad
        x = quad.newton_point()
        assert x.tobytes() == dpotrs(dpotrf(quad.Q, lower=1)[0], quad.a, lower=1)[0].tobytes()
        assert not x.flags.writeable and x is quad.newton_point()
        # no factor is kept: Q is the only n x n array on the form
        squares = [v for v in vars(quad).values() if np.ndim(v) == 2]
        assert len(squares) == 1 and squares[0] is quad.Q
    assert calls == [(9, 9)] * 3


def test_empty_form_has_an_empty_newton_point():
    quad = sq.QuadraticForm(np.zeros((0, 0)), np.zeros(0), 1.5)
    assert quad.n == 0 and quad.newton_point().shape == (0,)
    assert quad.value(np.zeros(0)) == 1.5


def _robust_two_chain():
    inst = sq.ProblemInstance(
        sq.chain_graph(2, weight=1.0), a=[0, 10], node_weights=[1, 1],
        c=[1, 1], l=[-100, -100], u=[100, 100], mode="robust",
    )
    return inst, sq.compile_instance(inst)


def test_robust_compile_structure():
    _, p = _robust_two_chain()
    assert p.n == 4
    assert_stieltjes(p.quad.Q)
    # cross terms couple each x_i with its own slack only
    assert p.quad.Q[0, 2] == pytest.approx(-2.0)
    assert p.quad.Q[1, 3] == pytest.approx(-2.0)
    assert p.quad.Q[0, 3] == 0.0
    assert np.all(p.costs[:2] == 0.0) and np.all(p.costs[2:] == 1.0)
    assert p.indicated.tolist() == [False, False, True, True]
    # a discarded observation's slack is free: its box is the whole line
    assert np.all(p.lo[2:] == -np.inf) and np.all(p.up[2:] == np.inf)


def test_robust_no_discard_value():
    # with z = 0 the slacks are pinned to 0; the optimum over x alone is
    # 300/9 at (10/3, 20/3), exact since ridge * 0 = 0
    _, p = _robust_two_chain()
    lo = np.array([-100.0, -100.0, 0.0, 0.0])
    up = np.array([100.0, 100.0, 0.0, 0.0])
    sol = sq.solve_boxqp(p.quad, lo, up)
    assert sol.value == pytest.approx(300.0 / 9.0, abs=1e-8)
    assert np.allclose(sol.x[:2], [10.0 / 3.0, 20.0 / 3.0], atol=1e-8)


def test_robust_matches_sum_form_with_zero_slack():
    inst, p = _robust_two_chain()
    rng = np.random.default_rng(2)
    for _ in range(20):
        x = rng.normal(0, 3, size=2)
        xx = np.concatenate([x, np.zeros(2)])
        assert p.quad.value(xx) == pytest.approx(inst.objective_terms(x), rel=1e-12)


def test_robust_free_discard_single_vertex():
    inst = sq.ProblemInstance(
        sq.Graph(1), a=[7], node_weights=[1], c=[0], l=[-50], u=[50], mode="robust"
    )
    p = sq.compile_instance(inst)
    res = sq.brute_force(p)
    assert res.value == pytest.approx(0.0, abs=1e-9)


def test_robust_clean_observation_kept():
    inst = sq.ProblemInstance(
        sq.Graph(1), a=[7], node_weights=[1], c=[100], l=[-50], u=[50], mode="robust"
    )
    res = sq.solve_full(sq.compile_instance(inst), engine="exhaustive")
    assert res.value == pytest.approx(0.0, abs=1e-9)
    assert res.discarded == []
    assert res.x[0] == pytest.approx(7.0, abs=1e-8)


def test_robust_compile_extends_the_sparse_compile():
    # the x block, the signals' linear term and k0 are the sparse compile's, bit for bit
    rng = np.random.default_rng(4)
    for dims in ((5,), (3, 4)):
        n = math.prod(dims)
        inst = sq.ProblemInstance(
            model.grid_graph(dims, weight=0.7), rng.normal(0, 2, n), rng.uniform(0.5, 2.0, n),
            rng.uniform(0, 1, n), np.full(n, -5.0), np.full(n, 5.0), mode="robust",
        )
        robust = sq.compile_instance(inst)
        sparse = sq.compile_instance(dataclasses.replace(inst, mode="sparse"))
        assert np.array_equal(robust.quad.Q[:n, :n], sparse.quad.Q)
        assert np.array_equal(robust.quad.a[:n], sparse.quad.a)
        assert robust.quad.k0 == sparse.quad.k0
        assert np.array_equal(robust.quad.a[n:], -sparse.quad.a)
        assert np.array_equal(robust.quad.Q[:n, n:], -2.0 * np.diag(inst.node_weights))


def test_instance_validation_errors():
    g = sq.chain_graph(2)
    with pytest.raises(InputError):
        sq.Graph(2, ((0, 0, 1.0),))  # self loop
    with pytest.raises(InputError):
        sq.Graph(2, ((0, 1, 1.0), (1, 0, 2.0)))  # duplicate undirected edge
    with pytest.raises(InputError):
        sq.Graph(2, ((0, 1, -1.0),))  # negative weight
    with pytest.raises(InputError):
        sq.ProblemInstance(g, [0, 0], [1, 0], [0, 0], [0, 0], [1, 1])  # zero node weight
    with pytest.raises(InputError):
        sq.ProblemInstance(g, [0, 0], [1, 1], [-1, 0], [0, 0], [1, 1])  # negative cost
    with pytest.raises(InputError):
        sq.ProblemInstance(g, [0, 0], [1, 1], [0, 0], [2, 0], [1, 1])  # l > u
    with pytest.raises(InputError):
        sq.ProblemInstance(g, [0, 0], [1, 1], [0, 0], [0, 0], [1, 1], mode="other")


@pytest.mark.parametrize("n, edge", [
    (3.9, (0, 1, 1.0)), (True, (0, 1, 1.0)), ("3", (0, 1, 1.0)),
    (3, (0.7, 1.9, 1.0)), (3, (0, True, 1.0)), (3, (0, np.nan, 1.0)),
])
def test_graph_rejects_non_integral_counts_and_vertex_ids(n, edge):
    # int() would truncate 3.9 to 3 and the edge (0.7, 1.9) to (0, 1)
    with pytest.raises(InputError, match="must be an integer"):
        sq.Graph(n, (edge,))
    d = model.instance_to_json_dict(model.generate("chain", (3,), seed=0)[0])
    d["n"], d["edges"] = n, [list(edge)]
    with pytest.raises(InputError, match="must be an integer"):
        model.instance_from_json_dict(d)


@pytest.mark.parametrize("kwargs, name", [
    ({"cost": "0.5"}, "cost"),  # loaded as 0.5
    ({"edge_weight": True}, "edge_weight"),  # loaded as 1.0
    ({"noise_sd": True}, "noise_sd"),  # loaded as 1.0
    ({"signal_sparsity": "0.5"}, "signal_sparsity"),  # a raw TypeError
    ({"outlier_fraction": None}, "outlier_fraction"),  # a raw TypeError
])
def test_generate_rejects_scalars_that_are_not_real_numbers(kwargs, name):
    with pytest.raises(InputError, match=f"{name} must be a real number"):
        model.generate("chain", 3, **kwargs)


def test_generate_takes_scalars_of_any_real_number_type():
    ref, _ = model.generate("chain", 4, signal_sparsity=0.5, noise_sd=0.0, cost=2.0, edge_weight=1.0)
    for kwargs in ({"signal_sparsity": np.float64(0.5)}, {"noise_sd": 0}, {"cost": np.int64(2)},
                   {"edge_weight": 1}, {"outlier_fraction": np.float32(0.0)}):
        args = dict(signal_sparsity=0.5, noise_sd=0.0, cost=2.0, edge_weight=1.0) | kwargs
        inst, _ = model.generate("chain", 4, **args)
        assert inst.graph == ref.graph and np.array_equal(inst.a, ref.a) and np.array_equal(inst.c, ref.c)
    # NaN is a real number, and the range check refuses it
    with pytest.raises(InputError, match="fractions must lie in"):
        model.generate("chain", 3, signal_sparsity=float("nan"))


@pytest.mark.parametrize("edges, match", [
    ([(0, 1)], "three items"),  # a raw IndexError
    ([(0, 1, 1.0, 5.0)], "three items"),  # the fourth item was dropped
    ([(0, 1, "a")], "edge weight must be a real number"),  # a raw ValueError
    ([(0, 1, "0.5")], "edge weight must be a real number"),  # loaded as 0.5
    ([(0, 1, True)], "edge weight must be a real number"),  # loaded as 1.0
    (5, "edges must be a sequence"),  # a raw TypeError
])
def test_graph_rejects_edges_that_are_not_triples_with_a_real_weight(edges, match):
    with pytest.raises(InputError, match=match):
        sq.Graph(2, edges)


@pytest.mark.parametrize("k0", ["x", True, None])
def test_quadratic_form_rejects_a_k0_that_is_not_a_real_number(k0):
    # "x" raised a raw ValueError and True loaded as 1.0
    with pytest.raises(InputError, match="k0 must be a real number"):
        sq.QuadraticForm([[1.0]], [0.0], k0)


def test_graph_takes_integral_numbers_as_ints():
    g = sq.Graph(3.0, ((np.int64(0), 1.0, 2.0), (2, 1, 0.5)))
    assert g == sq.Graph(3, ((0, 1, 2.0), (1, 2, 0.5)))
    assert type(g.num_vertices) is int and all(type(i) is int for e in g.edges for i in e[:2])


@pytest.mark.parametrize("field", ["costs", "lo", "up"])
def test_indicator_problem_rejects_nan(field):
    # NaN is an input error (CLI exit 1), not a numerical failure of the
    # box-QP solver later on (exit 2)
    data = {"costs": [1.0, 1.0], "lo": [0.0, 0.0], "up": [1.0, 1.0]}
    data[field][0] = np.nan
    quad = sq.QuadraticForm([[2.0, -1.0], [-1.0, 2.0]], [1.0, 0.0])
    with pytest.raises(InputError, match="NaN"):
        sq.IndicatorProblem(quad, **data)


@pytest.mark.parametrize("lo, up, what", [
    ([0.0, np.nan], [1.0, 1.0], "has a NaN bound"),
    ([0.0, 0.0], [1.0, np.nan], "has a NaN bound"),
    ([0.0, 2.0], [1.0, 1.0], "is empty"),
    ([0.0, np.inf], [1.0, np.inf], "admits no finite point"),
    ([0.0, -np.inf], [1.0, -np.inf], "admits no finite point"),
])
def test_check_box_names_the_first_bad_variable_and_row(lo, up, what):
    lo, up = np.array(lo), np.array(up)
    with pytest.raises(InputError, match=f"^variable 1: the box .* {what}$"):
        model.check_box(lo, up)
    stack_lo, stack_up = np.zeros((3, 2)), np.ones((3, 2))
    stack_lo[2], stack_up[2] = lo, up
    with pytest.raises(InputError, match=f"^row 2, variable 1: the box .* {what}$"):
        model.check_box(stack_lo, stack_up)


def test_check_box_admits_infinite_bounds_that_hold_a_point():
    lo, up = np.array([-np.inf, 0.0, 1.0, -np.inf]), np.array([np.inf, 0.0, np.inf, -2.0])
    model.check_box(lo, up)
    model.check_box(np.stack([lo, lo]), np.stack([up, up]))


def test_a_bool_stack_is_binary_by_its_type_and_an_int_stack_is_scanned():
    # check_binary reads only the shape of a bool array, of any stack shape
    for shape in ((3,), (0, 3), (4, 3), (2, 5, 3)):
        model.check_binary(np.ones(shape, dtype=bool), 3)
        model.check_binary(np.zeros(shape, dtype=bool), 3)
    with pytest.raises(InputError, match="length 3"):
        model.check_binary(np.ones((4, 2), dtype=bool), 3)
    # an int or float stack still has every entry checked
    for dtype in (int, np.int8, float):
        z = np.zeros((4, 3), dtype=dtype)
        model.check_binary(z, 3)
        z[2, 1] = 2
        with pytest.raises(InputError, match="0 or 1"):
            model.check_binary(z, 3)


@pytest.mark.parametrize("lo, up", [([np.inf, 0.0], [np.inf, 1.0]), ([-np.inf, 0.0], [-np.inf, 1.0])])
def test_problems_reject_bounds_that_admit_no_finite_point(lo, up):
    quad = sq.QuadraticForm([[2.0, -1.0], [-1.0, 2.0]], [1.0, 0.0])
    with pytest.raises(InputError, match="no finite point"):
        sq.IndicatorProblem(quad, [1.0, 1.0], lo, up)
    for mode in model.MODES:
        with pytest.raises(InputError, match="no finite point"):
            sq.ProblemInstance(sq.chain_graph(2), [0, 0], [1, 1], [0, 0], lo, up, mode=mode)


def test_indicator_problem_rejects_infinite_cost():
    quad = sq.QuadraticForm([[2.0, -1.0], [-1.0, 2.0]], [1.0, 0.0])
    with pytest.raises(InputError, match="infinite indicator cost"):
        sq.IndicatorProblem(quad, [math.inf, 1.0], [0.0, 0.0], [1.0, 1.0])


@pytest.mark.parametrize("Q, a, k0", [
    ([[math.inf, 0.0], [0.0, 1.0]], [0.0, 0.0], 0.0),
    ([[1.0, 0.0], [0.0, 1.0]], [math.nan, 0.0], 0.0),
    ([[1.0, 0.0], [0.0, 1.0]], [0.0, 0.0], math.inf),
])
def test_quadratic_form_rejects_non_finite_entries(Q, a, k0):
    with pytest.raises(InputError, match="non-finite"):
        sq.QuadraticForm(Q, a, k0)


@pytest.mark.parametrize("mode", ["sparse", "robust"])
@pytest.mark.parametrize("field, value", [
    ("a", math.inf), ("a", -math.inf), ("a", 1e200), ("node_weights", math.inf),
    ("c", math.inf), ("edge", math.inf), ("edge", math.nan),
])
def test_non_finite_model_data_is_an_input_error(mode, field, value):
    # bounds alone may be infinite; a = 1e200 is finite but its square
    # overflows in compilation, which must not leak a RuntimeWarning
    data = {"a": [1.0, 0.5], "node_weights": [1.0, 1.0], "c": [0.5, 0.5],
            "l": [-2.0, -2.0], "u": [2.0, 2.0]}
    weight = value if field == "edge" else 1.0
    if field != "edge":
        data[field][0] = value
    with pytest.raises(InputError):
        inst = sq.ProblemInstance(sq.Graph(2, ((0, 1, weight),)), mode=mode, **data)
        sq.compile_instance(inst)


def test_discarded_lists_the_vertices_of_open_slacks():
    inst, _ = model.generate("chain", (3,), seed=0, mode="robust")
    z = np.array([1, 1, 1, 0, 1, 1])
    assert sq.compile_instance(inst).discarded(z) == [1, 2]
    sparse, _ = model.generate("chain", (3,), seed=0)
    assert sq.compile_instance(sparse).discarded(z[:3]) is None


def test_indicated_follows_the_mode():
    quad = sq.QuadraticForm(np.eye(4), np.zeros(4))
    box = (np.ones(4), -np.ones(4), np.ones(4))
    assert sq.IndicatorProblem(quad, *box).indicated.tolist() == [True] * 4
    robust = sq.IndicatorProblem(quad, *box, mode="robust")
    assert robust.indicated.tolist() == [False, False, True, True]
    assert not robust.indicated.flags.writeable
    with pytest.raises(AttributeError):
        robust.indicated = np.ones(4, dtype=bool)
    assert "roles" not in robust.to_json_dict()
    back = sq.IndicatorProblem.from_json_dict(robust.to_json_dict())
    assert back.indicated.tolist() == [False, False, True, True]
    odd = sq.QuadraticForm(np.eye(3), np.zeros(3))
    with pytest.raises(InputError, match="3 variables"):
        sq.IndicatorProblem(odd, np.ones(3), -np.ones(3), np.ones(3), mode="robust")
    with pytest.raises(InputError, match="mode"):
        sq.IndicatorProblem(quad, *box, mode="dense")


def test_box_is_l_z_u_z_for_one_vector_or_a_stack():
    quad = sq.QuadraticForm(np.eye(4), np.zeros(4))
    lo, up = np.array([-1.0, -np.inf, 0.5, -2.0]), np.array([1.0, 2.0, np.inf, -1.0])
    problem = sq.IndicatorProblem(quad, np.ones(4), lo, up)
    blo, bup = problem.box([0, 1, 0, 1])
    assert blo.tolist() == [0.0, -np.inf, 0.0, -2.0]
    assert bup.tolist() == [0.0, 2.0, 0.0, -1.0]  # 0 * inf = 0
    stack = np.array([[0, 1, 0, 1], [1, 1, 1, 1], [0, 0, 0, 0]])
    blo_all, bup_all = problem.box(stack.astype(bool))
    assert blo_all.tolist() == [blo.tolist(), lo.tolist(), [0.0] * 4]
    assert bup_all.tolist() == [bup.tolist(), up.tolist(), [0.0] * 4]
    for bad, match in (([0, 1, 0], "length 4"), ([0, 2, 0, 1], "0 or 1"), (1, "length 4")):
        with pytest.raises(InputError, match=match):
            problem.box(bad)
    robust = sq.IndicatorProblem(quad, np.ones(4), lo, up, mode="robust")
    assert robust.box([1, 1, 0, 0])[1].tolist() == [1.0, 2.0, 0.0, 0.0]
    with pytest.raises(InputError, match="no indicator"):
        robust.box(np.array([[1, 1, 0, 0], [1, 0, 1, 1]]))


def test_generate_fully_sparse_noiseless():
    inst, truth = model.generate("chain", (5,), signal_sparsity=1.0, noise_sd=0.0, seed=3)
    assert np.all(inst.a == 0.0)
    assert np.all(np.array(truth["x_true"]) == 0.0)


def test_generate_grid_edge_count():
    inst, _ = model.generate("grid2d", (3, 3), seed=0)
    assert len(inst.graph.edges) == 12


def test_grid_graph_lists_row_major_vertices_in_axis_order():
    # vertex (r, c) of a 2x3 grid is 3r + c; each vertex lists its axis-0
    # neighbour before its axis-1 neighbour
    g = model.grid_graph((2, 3), 0.5)
    assert g.num_vertices == 6
    assert g.edges == (
        (0, 3, 0.5), (0, 1, 0.5), (1, 4, 0.5), (1, 2, 0.5), (2, 5, 0.5), (3, 4, 0.5), (4, 5, 0.5),
    )
    assert model.chain_graph(4).edges == ((0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0))
    assert model.chain_graph(1).edges == ()
    cube = model.grid_graph((2, 3, 4))
    assert len(cube.edges) == 1 * 3 * 4 + 2 * 2 * 4 + 2 * 3 * 3
    assert cube.edges[:3] == ((0, 12, 1.0), (0, 4, 1.0), (0, 1, 1.0))


def test_generate_outlier_count_and_determinism():
    inst1, truth1 = model.generate("chain", (4,), outlier_fraction=0.25, seed=11)
    inst2, truth2 = model.generate("chain", (4,), outlier_fraction=0.25, seed=11)
    assert len(truth1["outliers"]) == 1
    assert truth1 == truth2
    assert np.array_equal(inst1.a, inst2.a)


def test_generate_rejects_bad_dims():
    with pytest.raises(InputError):
        model.generate("chain", (0,))
    with pytest.raises(InputError):
        model.generate("grid2d", (3,))
    with pytest.raises(InputError):
        model.generate("tube", (3,))


@pytest.mark.parametrize("topology, dims", [
    ("chain", 3.9), ("chain", True), ("chain", (np.True_,)), ("chain", "3"),
    ("grid2d", (2.5, 3)), ("grid2d", [True, 3]),
])
def test_generate_rejects_non_integral_dims(topology, dims):
    # truncating each with int() built 3, 1, 1, 3, 6 and 3 vertices
    with pytest.raises(InputError, match="a dimension must be an integer"):
        model.generate(topology, dims)


def test_generate_takes_integral_dims_of_any_number_type():
    for dims in (4, 4.0, (4,), [np.int64(4)], np.array([4])):
        assert model.generate("chain", dims)[0].n == 4
    assert model.generate("grid2d", (2.0, 3))[0].n == 6


@pytest.mark.parametrize("bounds", [(1,), ("x", 1), 5, (0, 1, 2), (True, 1), "ab"])
def test_generate_rejects_bounds_that_are_not_a_pair_of_numbers(bounds):
    # raw IndexError, ValueError and TypeError, or a silently dropped third
    # entry and True read as 1.0
    with pytest.raises(InputError, match="bounds must be a pair of real numbers"):
        model.generate("chain", 3, bounds=bounds)


def test_generate_takes_bounds_of_any_real_number_type():
    for bounds in ((-1, 2.5), [np.float64(-1), np.int64(2)], np.array([-1.0, 2.0])):
        inst, _ = model.generate("chain", 3, bounds=bounds)
        assert inst.l.tolist() == [-1.0] * 3 and inst.u.tolist() == [float(bounds[1])] * 3


def test_instance_json_round_trip(tmp_path):
    inst = sq.ProblemInstance(
        sq.chain_graph(3), a=[1, -2, 0.5], node_weights=[1, 2, 1],
        c=[0.1, 0.2, 0.3], l=[-math.inf, 0, -1], u=[math.inf, 2, 1],
    )
    path = tmp_path / "inst.json"
    sq.save_instance(inst, path)
    raw = json.loads(path.read_text())
    assert raw["l"][0] == "-inf" and raw["u"][0] == "inf"
    back = sq.load_instance(path)
    assert np.array_equal(back.a, inst.a)
    assert back.l[0] == -math.inf and back.u[0] == math.inf
    assert back.graph.edges == inst.graph.edges


def test_instance_json_rejects_unknown_key(tmp_path):
    inst, _ = model.generate("chain", (3,), seed=0)
    d = model.instance_to_json_dict(inst)
    d["extra_field"] = 1
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(d))
    with pytest.raises(InputError, match="extra_field"):
        sq.load_instance(path)


def _planted(d, key, index, value):
    """A JSON round trip of ``d`` with ``value`` at ``d[key][index...]``."""
    root = entries = json.loads(json.dumps(d))
    *outer, last = (key, *index)
    for k in outer:
        entries = entries[k]
    entries[last] = value
    return root


@pytest.mark.parametrize("key, index, value", [
    ("a", (0,), True), ("c", (1,), False), ("l", (0,), False), ("u", (2,), True),
    ("node_weights", (2,), True), ("edges", (1, 2), True),
])
def test_instance_json_rejects_a_boolean_in_a_numeric_field(key, index, value):
    # Python reads JSON's true and false as 1 and 0; neither is a number here
    d = model.instance_to_json_dict(model.generate("chain", (3,), seed=0)[0])
    model.instance_from_json_dict(_planted(d, key, index, 1))  # the number 1 is read
    with pytest.raises(InputError, match=f"'{key}' holds the boolean {json.dumps(value)}"):
        model.instance_from_json_dict(_planted(d, key, index, value))


@pytest.mark.parametrize("key, index, value", [
    ("k0", (), True), ("Q", (1, 1), True), ("a", (0,), False), ("c", (2,), True),
    ("l", (0,), False), ("u", (1,), True),
])
def test_problem_json_rejects_a_boolean_in_a_numeric_field(key, index, value):
    d = sq.InstanceSampler(n=3, regime="nonnegative", seed=0).draw(0).to_json_dict()
    with pytest.raises(InputError, match=f"'{key}' holds the boolean {json.dumps(value)}"):
        sq.IndicatorProblem.from_json_dict(_planted(d, key, index, value))


@pytest.mark.parametrize("key, index, value", [
    ("a", (0,), "0.09"), ("c", (1,), "1"), ("node_weights", (2,), " 2 "), ("edges", (1, 2), "1.0"),
    ("l", (0,), "-1"), ("u", (2,), "2.5"), ("a", (1,), "inf"),  # only l and u take inf strings
])
def test_instance_json_rejects_a_numeric_string(key, index, value):
    # a JSON string is not a number, even when it spells one
    d = model.instance_to_json_dict(model.generate("chain", (3,), seed=0)[0])
    with pytest.raises(InputError, match=f"'{key}' holds {value!r}, not a number"):
        model.instance_from_json_dict(_planted(d, key, index, value))


@pytest.mark.parametrize("key, index, value", [
    ("k0", (), "3.5"), ("Q", (1, 1), "2"), ("a", (0,), "0.5"), ("c", (2,), "1"),
    ("l", (1,), "0"), ("u", (0,), "1e3"),
])
def test_problem_json_rejects_a_numeric_string(key, index, value):
    d = sq.InstanceSampler(n=3, regime="nonnegative", seed=0).draw(0).to_json_dict()
    with pytest.raises(InputError, match=f"'{key}' holds {value!r}, not a number"):
        sq.IndicatorProblem.from_json_dict(_planted(d, key, index, value))


def test_instance_json_rejects_bad_literal():
    inst, _ = model.generate("chain", (2,), seed=0)
    d = model.instance_to_json_dict(inst)
    d["l"] = ["infinity", 0.0]
    with pytest.raises(InputError):
        model.instance_from_json_dict(d)
