import dataclasses
import hashlib
import json
from types import SimpleNamespace

import numpy as np
import pytest

import submodqp as sq
from submodqp import boxqp, oracle, pathtrace, sfm
from submodqp.bench import bench_rows
from submodqp.exceptions import InputError, NumericalError
from submodqp.lattice import split


def test_brute_force_matches_solver_on_corner_instance():
    quad = sq.QuadraticForm([[2, -1], [-1, 2]], [1, 0])
    problem = sq.IndicatorProblem(quad, np.array([0.1, 0.1]), np.zeros(2), np.full(2, 10.0))
    bf = sq.brute_force(problem)
    ex = sq.solve_full(problem, engine="exhaustive")
    assert bf.value == pytest.approx(-0.15, abs=1e-12)
    assert ex.value == pytest.approx(bf.value, abs=1e-9)
    assert np.array_equal(bf.z, [1, 0])


def test_brute_force_separable_closed_form():
    # diagonal Q decomposes: per coordinate, keep 0 or pay c_i for the 1-d min
    rng = np.random.default_rng(8)
    for _ in range(10):
        n = 5
        qd = rng.uniform(0.5, 3.0, size=n)
        a = rng.normal(0, 2, size=n)
        c = rng.uniform(0, 1, size=n)
        lo = -rng.uniform(0.5, 3.0, size=n)
        up = rng.uniform(0.5, 3.0, size=n)
        problem = sq.IndicatorProblem(sq.QuadraticForm(np.diag(qd), a), c, lo, up)
        expected = 0.0
        for i in range(n):
            xopt = np.clip(a[i] / qd[i], lo[i], up[i])
            expected += min(0.0, -a[i] * xopt + 0.5 * qd[i] * xopt**2 + c[i])
        assert sq.brute_force(problem).value == pytest.approx(expected, abs=1e-9)


def test_brute_force_free_indicators():
    # zero costs and l = 0: every indicator box nests inside [0, u], so the
    # optimum is the plain box solve over [0, u]
    prob = sq.InstanceSampler(n=5, regime="nonnegative", seed=2).draw(0)
    lo = np.zeros(5)
    problem = sq.IndicatorProblem(prob.quad, np.zeros(5), lo, prob.up)
    from submodqp import boxqp

    ref = boxqp.solve(prob.quad, lo, prob.up)
    assert sq.brute_force(problem).value == pytest.approx(ref.value, abs=1e-9)


def test_brute_force_guard():
    prob = sq.InstanceSampler(n=15, regime="mixed", seed=0).draw(0)
    with pytest.raises(InputError):
        sq.brute_force(prob)


def test_sampler_determinism():
    s1 = sq.InstanceSampler(n=6, regime="mixed", seed=42)
    s2 = sq.InstanceSampler(n=6, regime="mixed", seed=42)
    a, b = s1.draw(3), s2.draw(3)
    assert np.array_equal(a.quad.Q, b.quad.Q)
    assert np.array_equal(a.quad.a, b.quad.a)
    assert np.array_equal(a.lo, b.lo) and np.array_equal(a.up, b.up)
    c = s1.draw(4)
    assert not np.array_equal(a.quad.a, c.quad.a)


def test_sampler_regimes():
    nn = sq.InstanceSampler(n=6, regime="nonnegative", seed=1).draw(0)
    assert np.all(nn.lo >= 0)
    neg = sq.InstanceSampler(n=6, regime="negative", seed=1).draw(0)
    assert np.all(neg.up <= 0)
    with pytest.raises(InputError):
        sq.InstanceSampler(n=6, regime="sideways", seed=1)


def test_sampler_always_stieltjes():
    for t in range(20):
        Q = sq.InstanceSampler(n=7, regime="mixed", seed=9).draw(t).quad.Q
        assert (Q - np.diag(np.diag(Q))).max() <= 0.0
        np.linalg.cholesky(Q)  # positive definite


def test_property_suite_passes_on_clean_instances():
    report = sq.run_property_suite(sq.InstanceSampler(n=5, regime="mixed", seed=13), trials=4)
    assert report.ok
    assert report.checks["chain_matches_oracle"].passes == 4


def _robust_chain(vertices, seed):
    inst, _ = sq.generate("chain", vertices, mode="robust", outlier_fraction=0.34, seed=seed)
    return sq.compile_instance(inst)


@pytest.mark.parametrize("vertices", [3, 4, 5])
def test_every_check_passes_on_compiled_robust_chains(vertices):
    # the ridge leaves these Q conditioned near 1e8: x moves by up to ~1e-7
    # under a permutation, while the Q-norm of the move stays near 1e-10
    for seed in range(2):
        problem = _robust_chain(vertices, seed)
        for t, (name, check) in enumerate(oracle.CHECKS.items()):
            ok, detail = check(problem, np.random.default_rng([seed, t]))
            if name == "chain_dp_matches_brute_force":  # a robust problem is not sparse
                assert (ok, detail) == (None, None)
            else:
                assert ok, (name, seed, detail)


@pytest.mark.parametrize("vertices, m", [(4, 8), (5, 10)])
def test_size_limited_checks_use_the_ground_set_of_solve(vertices, m, monkeypatch):
    # the open signals get no coordinate, so the checks size these chains
    # at m, within their limits (12 and 10), not at the 2m of a split that
    # gives every variable coordinates
    problem = _robust_chain(vertices, 0)
    solves, rows = [], []
    solve_full, solve_many = sfm.solve_full, boxqp.solve_many

    def counted_solve(*args, **kwargs):
        solves.append(kwargs.get("engine"))
        return solve_full(*args, **kwargs)

    def counted_rows(quad, lo, up):
        rows.append(len(lo))
        return solve_many(quad, lo, up)

    monkeypatch.setattr(sfm, "solve_full", counted_solve)
    monkeypatch.setattr(boxqp, "solve_many", counted_rows)
    rng = np.random.default_rng(0)
    assert oracle.CHECKS["mnp_matches_exhaustive"](problem, rng) == (True, None)
    assert solves == ["exhaustive", "mnp"]
    rows.clear()
    assert oracle.CHECKS["value_function_submodular"](problem, rng) == (True, None)
    assert rows == [2**m]  # one stack of every box


def test_submodularity_check_reports_the_first_violating_pair(monkeypatch):
    problem = sq.InstanceSampler(n=4, regime="mixed", seed=1).draw(0)
    m = split(problem)[0].binary_dim
    check = oracle.CHECKS["value_function_submodular"]
    rng = np.random.default_rng(0)
    table = np.random.default_rng(5).random(2**m)  # planted: F(z) = table[code of z]

    def planted(quad, lo, up):  # 2^m <= sfm.EXHAUSTIVE_CHUNK: one stack, in code order
        assert len(lo) == 2**m
        return SimpleNamespace(value=table.copy())

    monkeypatch.setattr(boxqp, "solve_many", planted)
    first = next(
        (p, q)
        for p in range(2**m)
        for q in range(p + 1, 2**m)
        if table[p] + table[q] < table[p & q] + table[p | q] - 1e-8
    )
    ok, detail = check(problem, rng)
    assert not ok and detail["pair"] == list(first)
    p, q = first
    assert (detail["lhs"], detail["rhs"]) == (table[p] + table[q], table[p & q] + table[p | q])
    # a modular table passes, with noise below the 1e-8 tolerance
    weights = np.random.default_rng(6).random(m)
    bits = (np.arange(2**m)[:, None] >> np.arange(m - 1, -1, -1)) & 1
    table = bits @ weights + 2e-9 * np.random.default_rng(7).random(2**m)
    assert check(problem, rng) == (True, None)


@pytest.mark.parametrize("error", [NumericalError, InputError])
def test_a_check_that_raises_leaves_a_witness(error, monkeypatch):
    def broken(problem, rng):
        raise error("pivot budget exceeded inside one trace")

    monkeypatch.setitem(oracle.CHECKS, "monotone_path", broken)
    report = sq.run_property_suite(sq.InstanceSampler(n=4, seed=0), trials=2)
    failures = report.checks["monotone_path"].failures
    assert [w["trial"] for w in failures] == [0, 1]
    message = f"{error.__name__}: pivot budget exceeded inside one trace"
    assert all(w["detail"] == {"error": message} and "instance" in w for w in failures)
    assert report.checks["monotone_path"].passes == 0 and not report.ok
    others = [c for name, c in report.checks.items() if name != "monotone_path"]
    assert all(c.ok and c.passes + c.skipped == 2 for c in others)
    assert sq.replay_witness(json.loads(json.dumps(failures[1]))) == (False, {"error": message})


@pytest.mark.parametrize("payload", [{"check": "boxqp_kkt"}, ["boxqp_kkt"], "boxqp_kkt", None])
def test_witness_replay_rejects_a_payload_without_an_instance(payload):
    with pytest.raises(InputError, match="instance"):
        sq.replay_witness(payload)


def test_property_suite_and_solve_share_a_ground_set(monkeypatch):
    built = []
    init = sfm.IndicatorOracle.__init__

    def recorded(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    monkeypatch.setattr(sfm.IndicatorOracle, "__init__", recorded)
    # robust signals are always open, so only the 5 slacks' 10 bits are left
    problem = _robust_chain(5, 0)
    sq.solve_full(problem)
    suite = oracle._chain_for(problem)[0]
    assert built[0].m == suite.binary_dim == 10
    for table in ("var", "plus", "lo_bit", "up_bit"):
        assert np.array_equal(getattr(suite, table), getattr(built[0].smap, table))
    # a sparse draw prices every variable, so no variable is open
    prob = sq.InstanceSampler(n=6, regime="mixed", seed=0).draw(0)
    full, _ = split(prob)
    suite = oracle._chain_for(prob)[0]
    assert not np.any(suite.lo_bit == suite.binary_dim)
    for table in ("var", "plus", "lo_bit", "up_bit"):
        assert np.array_equal(getattr(suite, table), getattr(full, table))


def test_property_suite_rejects_zero_trials():
    with pytest.raises(InputError):
        sq.run_property_suite(sq.InstanceSampler(n=4, seed=0), trials=0)


def _witness_with(**fields):
    problem = sq.InstanceSampler(n=3, seed=0).draw(0)
    return {**oracle._witness(problem, check="boxqp_kkt", trial=0, seed=0), **fields}


@pytest.mark.parametrize("call", [
    lambda: sq.generate("chain", 3, seed=-3),
    lambda: sq.generate("chain", 3, seed=1.5),
    lambda: sq.InstanceSampler(n=2.5).draw(0),
    lambda: sq.InstanceSampler(n=0),
    lambda: sq.InstanceSampler().draw(-1),
    lambda: sq.InstanceSampler().draw(1.5),
    lambda: sq.InstanceSampler(seed=-1),
    lambda: sq.InstanceSampler(density=float("nan")),
    lambda: sq.InstanceSampler(density=1.5),
    lambda: sq.run_property_suite(sq.InstanceSampler(n=3), trials=1.5),
    lambda: oracle.replay_witness(_witness_with(seed="abc")),
    lambda: oracle.replay_witness(_witness_with(trial=-1)),
    lambda: bench_rows([8], reps=1, seed=-2),
    lambda: bench_rows([8], reps=1.5),
    lambda: bench_rows([8.5], reps=1),
])
def test_bad_seeds_counts_and_trials_are_input_errors(call):
    # numpy would raise a raw ValueError or TypeError, or draw with no edges
    with pytest.raises(InputError):
        call()


def test_sampler_takes_integral_numbers_as_ints():
    sampler = sq.InstanceSampler(n=4.0, seed=np.int64(2), density=1)
    assert (sampler.n, sampler.seed) == (4, 2) and type(sampler.n) is int
    assert oracle.replay_witness(_witness_with(seed=0.0, trial=np.int64(0))) == (True, None)


class _AdversarialSampler:
    """Returns a non-Stieltjes instance (positive off-diagonal)."""

    seed = 0

    def draw(self, trial):
        Q = np.array([[2.0, 0.5], [0.5, 2.0]])
        quad = sq.QuadraticForm(Q, np.array([1.0, 1.0]))
        return sq.IndicatorProblem(quad, np.zeros(2), np.zeros(2), np.ones(2))


def test_property_suite_raises_on_a_non_stieltjes_draw():
    # no check can see such a Q: the draw itself is refused
    with pytest.raises(InputError, match=r"not a Stieltjes matrix \(violation 5\.000e-01\)"):
        sq.run_property_suite(_AdversarialSampler(), trials=1)


def _perturb_chain_dp(monkeypatch):
    """Make ``oracle.chain_dp`` report its value 1e-6 too high."""
    chain_dp = oracle.chain_dp

    def perturbed(problem):
        res = chain_dp(problem)
        res.value += 1e-6
        return res

    monkeypatch.setattr(oracle, "chain_dp", perturbed)


def test_witness_replay_reproduces_failure(monkeypatch):
    _perturb_chain_dp(monkeypatch)
    report = sq.run_property_suite(sq.InstanceSampler(n=6, regime="mixed", seed=4), trials=1)
    assert not report.ok
    witness = report.checks["chain_dp_matches_brute_force"].failures[0]
    ok, detail = sq.replay_witness(json.loads(json.dumps(witness)))
    assert not ok
    assert detail == witness["detail"]


def test_witness_replay_rejects_unknown_check():
    with pytest.raises(InputError):
        sq.replay_witness({"check": "nope", "instance": {}})


@pytest.mark.parametrize("key, value", [("Q", None), ("l", [None, 0.0, 0.0]), ("roles", [["signal"]])])
def test_witness_replay_rejects_a_malformed_instance(key, value):
    d = sq.InstanceSampler(n=3, seed=0).draw(0).to_json_dict()
    if value is None:
        del d[key]
    else:
        d[key] = value
    with pytest.raises(InputError, match="indicator problem JSON"):
        sq.replay_witness({"check": "boxqp_kkt", "instance": d})


def test_robust_problem_round_trips_its_free_slacks():
    # a discarded observation's slack is free: the JSON spells its box as
    # "-inf"/"inf", and a witness on the problem replays from that JSON
    inst, _ = sq.generate("chain", 3, mode="robust", outlier_fraction=0.34, seed=2)
    problem = sq.compile_instance(inst)
    d = json.loads(json.dumps(problem.to_json_dict()))
    assert d["l"][3:] == ["-inf"] * 3 and d["u"][3:] == ["inf"] * 3
    back = sq.IndicatorProblem.from_json_dict(d)
    assert back.mode == "robust"
    assert np.array_equal(back.lo, problem.lo) and np.array_equal(back.up, problem.up)
    for check in ("boxqp_kkt", "chain_matches_oracle", "chain_memo_consistent",
                  "mnp_matches_exhaustive", "brute_matches_solver"):
        assert sq.replay_witness({"check": check, "instance": d}) == (True, None), check


def test_mnp_check_requires_a_certified_result(monkeypatch):
    prob = sq.InstanceSampler(n=4, regime="mixed", seed=1).draw(0)
    rng = np.random.default_rng(0)
    assert oracle.CHECKS["mnp_matches_exhaustive"](prob, rng) == (True, None)
    monkeypatch.setattr(sfm, "_CYCLES_PER_COORDINATE", 0)  # no major cycle
    monkeypatch.setattr(sfm, "_CYCLES_SPARE", 0)
    ok, detail = oracle.CHECKS["mnp_matches_exhaustive"](prob, rng)
    assert not ok and detail["mnp_certificate"] > 1e-6


def test_memo_check_catches_a_set_valued_twice(monkeypatch):
    prob = sq.InstanceSampler(n=5, regime="mixed", seed=2).draw(0)
    check = oracle.CHECKS["chain_memo_consistent"]
    assert check(prob, np.random.default_rng(0)) == (True, None)
    chain = sfm.IndicatorOracle.chain

    def drifting(self, order):  # the second chain revalues the full set by one ulp
        values = chain(self, order)
        if self.stats.chains == 2:
            values[-1] = np.nextafter(values[-1], np.inf)
        return values

    monkeypatch.setattr(sfm.IndicatorOracle, "chain", drifting)
    ok, detail = check(prob, np.random.default_rng(0))
    assert not ok and detail["stage"] == len(detail["order"]) and "first" in detail


def test_chain_dp_check_catches_a_perturbed_value(monkeypatch):
    prob = sq.InstanceSampler(n=6, regime="mixed", seed=4).draw(0)
    check = oracle.CHECKS["chain_dp_matches_brute_force"]
    assert check(prob, np.random.default_rng(0)) == (True, None)
    _perturb_chain_dp(monkeypatch)
    ok, detail = check(prob, np.random.default_rng(0))
    assert not ok and detail["chain_dp"] == pytest.approx(detail["brute_force"] + 1e-6, abs=1e-12)


def test_report_serialization():
    report = sq.run_property_suite(sq.InstanceSampler(n=4, regime="nonnegative", seed=5), trials=2)
    d = report.to_json_dict()
    assert d["ok"] is True
    assert d["trials"] == 2
    assert set(d["checks"]) == set(oracle.CHECKS)
    assert all(set(c) == {"passes", "skipped", "failures"} for c in d["checks"].values())


@pytest.mark.parametrize("regime", oracle.REGIMES)
def test_every_check_runs_at_the_verify_defaults(regime):
    # `submodqp verify`'s defaults: n = 6, 20 trials, seed 0
    report = sq.run_property_suite(sq.InstanceSampler(n=6, regime=regime, seed=0), trials=20)
    assert report.ok
    for name, c in report.checks.items():
        assert c.passes >= 1 and c.passes + c.skipped == 20, name
    assert report.checks["segment_affinity"].skipped == 0
    skips = {name: c.skipped for name, c in report.checks.items() if c.skipped}
    # the mixed draws 6 and 7 split into m = 11 > 10 coordinates
    assert skips == ({"value_function_submodular": 2} if regime == "mixed" else {})
    (line,) = [s for s in report.summary_lines() if s.startswith("segment_affinity")]
    assert " skipped=0 " in line


def test_size_gates_report_a_skip():
    problem = sq.InstanceSampler(n=11, regime="mixed", seed=0).draw(0)
    assert split(problem)[0].binary_dim > 12
    rng = np.random.default_rng(0)
    for name in ("value_function_submodular", "mnp_matches_exhaustive",
                 "brute_matches_solver", "chain_dp_matches_brute_force"):
        assert oracle.CHECKS[name](problem, rng) == (None, None), name
    witness = {"check": "brute_matches_solver", "instance": problem.to_json_dict()}
    assert sq.replay_witness(witness) == (None, None)


def test_kkt_check_audits_every_stage_end(monkeypatch):
    problem = sq.InstanceSampler(n=6, regime="mixed", seed=0).draw(4)
    check = oracle.CHECKS["boxqp_kkt"]
    assert check(problem, None) == (True, None)
    chain_general = pathtrace.chain_general

    def nudged(*args, **kwargs):  # the last stage end, 1e-6 off in one variable
        chain = chain_general(*args, **kwargs)
        minimizers = np.array(chain.minimizers)
        minimizers[-1, 0] += 1e-6
        return dataclasses.replace(chain, minimizers=minimizers)

    # the solver audits its own answer, so only the traced stage end can fail
    monkeypatch.setattr(pathtrace, "chain_general", nudged)
    ok, detail = check(problem, None)
    assert ok is False and detail["stage"] == oracle._chain_for(problem)[1].m
    assert detail["residual"] > detail["tol"] == boxqp.kkt_tolerance(problem.quad)


def test_segment_check_skips_a_chain_with_no_traced_segment():
    # every a_i < 0 keeps the all-off point optimal at every stage: no
    # coordinate rises, so there is no segment to sample
    quad = sq.QuadraticForm([[2, -1], [-1, 2]], [-1.0, -1.0])
    problem = sq.IndicatorProblem(quad, np.ones(2), np.zeros(2), np.ones(2))
    assert oracle.CHECKS["segment_affinity"](problem, None) == (None, None)


def test_segment_check_catches_breakpoints_moved_off_the_path(monkeypatch):
    problem = sq.InstanceSampler(n=6, regime="mixed", seed=0).draw(4)
    check = oracle.CHECKS["segment_affinity"]
    assert check(problem, None) == (True, None)
    _, vc = oracle._chain_for(problem)
    # a single breakpoint, so no stage has two: a check that sampled only
    # between two breakpoints of one stage would pass this draw
    (b,) = vc.breakpoints
    chain_general = pathtrace.chain_general

    def nudged(*args, **kwargs):
        chain = chain_general(*args, **kwargs)
        moved = tuple(p + 1e-6 for p in chain.breakpoint_points)
        return dataclasses.replace(chain, breakpoint_points=moved)

    monkeypatch.setattr(pathtrace, "chain_general", nudged)
    ok, detail = check(problem, None)
    assert ok is False and detail["stage"] == b.stage and detail["gap"] > 1e-8


# binding bounds in each regime: nonnegative, straddling, negative
_DP_BOUNDS = ((0.0, 1.0), (-3.0, 0.5), (-4.0, -0.5))


def _dp_chain(n, bounds, seed, flip=False):
    inst, _ = sq.generate("chain", n, signal_sparsity=0.6, cost=0.4, bounds=bounds, seed=seed)
    if flip:  # a negative signal, so that the negative regime opens variables
        inst = sq.ProblemInstance(inst.graph, -inst.a, inst.node_weights, inst.c, inst.l, inst.u)
    return sq.compile_instance(inst)


@pytest.mark.parametrize("bounds", _DP_BOUNDS)
def test_chain_dp_matches_brute_force(bounds):
    for seed, flip in ((0, False), (1, False), (2, True)):
        problem = _dp_chain(10, bounds, seed, flip)
        dp = oracle.chain_dp(problem)
        bf = sq.brute_force(problem)
        assert dp.engine == "chain_dp" and dp.discarded is None
        assert dp.value == pytest.approx(bf.value, abs=1e-9)
        # the recovered (z, x) is feasible and attains the value
        assert np.all(dp.x[dp.z == 0] == 0.0)
        assert np.all(dp.x >= problem.lo * dp.z) and np.all(dp.x <= problem.up * dp.z)
        attained = problem.quad.value(dp.x) + problem.costs @ dp.z
        assert attained == pytest.approx(dp.value, abs=1e-9)


@pytest.mark.parametrize(
    "n, bounds, flip",
    [
        (40, _DP_BOUNDS[0], False),
        (40, _DP_BOUNDS[1], False),
        (40, _DP_BOUNDS[2], True),
        (60, _DP_BOUNDS[1], False),
    ],
)
def test_chain_dp_matches_mnp(n, bounds, flip):
    problem = _dp_chain(n, bounds, 0, flip)
    dp = oracle.chain_dp(problem)
    mnp = sq.solve_full(problem, engine="mnp")
    assert mnp.converged
    assert 0 < dp.z.sum() < n  # the optimum opens some variables, not all
    assert dp.value == pytest.approx(mnp.value, rel=1e-9)


@pytest.mark.parametrize("seed", [0, 1])
def test_chain_dp_judges_mnp_at_m_200(seed):
    inst, _ = sq.generate("chain", 100, signal_sparsity=0.6, cost=0.4, seed=seed)
    problem = sq.compile_instance(inst)
    mnp = sq.solve_full(problem, engine="mnp")
    dp = oracle.chain_dp(problem)
    assert mnp.converged
    assert dp.value == pytest.approx(mnp.value, rel=1e-9)


@pytest.mark.parametrize("seed, bounds", [(0, None), (1, None), (2, (0.5, 4.0))])
def test_brute_force_judges_mnp_on_robust_chains_at_m_24(seed, bounds):
    # 12 vertices: brute force enumerates the 12 slack indicators, and MNP
    # splits each straddling slack into two coordinates; with the bounds
    # (0.5, 4.0) no signal may be 0
    inst, _ = sq.generate("chain", 12, mode="robust", outlier_fraction=0.2, bounds=bounds, seed=seed)
    problem = sq.compile_instance(inst)
    assert split(problem)[0].binary_dim == 24
    mnp = sq.solve_full(problem, engine="mnp")
    bf = sq.brute_force(problem)
    assert mnp.converged
    assert mnp.value == pytest.approx(bf.value, rel=1e-9)
    for res in (mnp, bf):
        assert np.all(res.x[:12] >= inst.l) and np.all(res.x[:12] <= inst.u)


def test_chain_dp_rejects_problems_that_do_not_decouple():
    robust, _ = sq.generate("chain", 6, mode="robust", outlier_fraction=0.2, seed=0)
    grid, _ = sq.generate("grid2d", (2, 3), seed=0)
    for inst in (robust, grid):
        with pytest.raises(InputError, match="tridiagonal"):
            oracle.chain_dp(sq.compile_instance(inst))


def test_witness_replay_reproduces_a_check_that_draws_random_numbers(monkeypatch):
    # a planted failure that depends on the check's own draws, run after a
    # check that draws from its generator too
    def planted(problem, rng):
        i, delta = int(rng.integers(problem.n)), float(rng.uniform(0.1, 1.0))
        return (True, None) if i else (False, {"i": i, "delta": delta})

    permutation = oracle.CHECKS["boxqp_permutation_invariance"]
    monkeypatch.setattr(
        oracle, "CHECKS",
        {"boxqp_permutation_invariance": permutation, "boxqp_isotonicity": planted},
    )
    report = sq.run_property_suite(sq.InstanceSampler(n=3, seed=0), trials=20)
    witnesses = report.checks["boxqp_isotonicity"].failures
    assert len(witnesses) >= 3
    for w in witnesses:
        assert sq.replay_witness(json.loads(json.dumps(w))) == (False, w["detail"])


@pytest.mark.parametrize("fields, match", [
    ({"check": ["boxqp_kkt"]}, r"""unknown check \['boxqp_kkt'\] in the witness's "check\""""),
    ({"instance": [1]}, r"""a witness must be a JSON object with an "instance" object"""),
])
def test_witness_replay_names_a_malformed_field(fields, match):
    with pytest.raises(InputError, match=match):
        sq.replay_witness(_witness_with(**fields))


def test_lovasz_vertex_check_catches_a_corrupted_tracer(monkeypatch):
    problem = sq.InstanceSampler(n=5, regime="mixed", seed=3).draw(0)
    check = oracle.CHECKS["lovasz_vertex_exactness"]
    assert check(problem, np.random.default_rng(0)) == (True, None)
    chain_general = pathtrace.chain_general

    def corrupted(*args, **kwargs):  # every value after F(empty set) 0.37 too high
        chain = chain_general(*args, **kwargs)
        values = chain.values + 0.37
        values[0] = chain.values[0]
        return dataclasses.replace(chain, values=values)

    monkeypatch.setattr(pathtrace, "chain_general", corrupted)
    ok, detail = check(problem, np.random.default_rng(0))
    assert ok is False and detail["gap"] == pytest.approx(0.37)
    assert detail["vertex"] == [1] * split(problem)[0].binary_dim  # the empty set passes


def test_sampler_draws_are_pinned():
    # every array of every draw, bit for bit, as the sampler drew them when
    # it built its Laplacian by hand
    digest = hashlib.sha256()
    for regime in oracle.REGIMES:
        for n in (1, 2, 6, 12):
            for density in (0.0, 0.5, 1.0):
                for seed in (0, 3):
                    sampler = sq.InstanceSampler(n=n, density=density, regime=regime, seed=seed)
                    for trial in (0, 1):
                        p = sampler.draw(trial)
                        for arr in (p.quad.Q, p.quad.a, p.costs, p.lo, p.up):
                            digest.update(arr.tobytes())
    assert digest.hexdigest() == "7aed208a804828e10062a90100d7ef22e7d66530394ca207bd35ae533263f3f6"
