"""End-to-end acceptance checks.

Each test prints one pass/fail line (visible with ``pytest -s`` or in the
captured output of a failing run) and asserts the criterion at its stated
tolerance:

1. exactness of both engines against brute-force enumeration,
2. submodularity of the split value function over all binary pairs,
3. traced chains match independent box-QP evaluations,
4. breakpoint budget (2n nonnegative / 4n general, exact counts),
5. monotone iterate sequence along the whole path,
6. cubic chain scaling vs. super-cubic naive evaluation,
7. extension exactness at vertices plus convexity probes,
8. recovery of planted gross outliers in robust mode.
"""

import itertools
import json
import time

import numpy as np
import pytest

import submodqp as sq
from submodqp import boxqp, model, pathtrace, sfm
from submodqp.bench import bench_rows
from submodqp.lattice import bounds_for_binary, split


def _report(num, name, ok, detail=""):
    print(f"criterion {num} [{name}]: {'PASS' if ok else 'FAIL'} {detail}")


def _model_instance(mode, regime, idx):
    """Seeded random instance; sizes keep the split dimension enumerable."""
    rng = np.random.default_rng([77, idx])
    if mode == "sparse":
        n = 2 + idx % 11 if regime != "mixed" else 2 + idx % 4
    else:
        n = 2 + idx % 2
    edges = [(i, i + 1, float(rng.uniform(0.2, 1.2))) for i in range(n - 1)]
    a = rng.normal(0, 2, n)
    nw = rng.uniform(0.5, 2.0, n)
    c = rng.uniform(0.0, 1.5, n)
    lo, up = np.empty(n), np.empty(n)
    for i in range(n):
        r = regime if regime != "mixed" else ("nonnegative", "negative", "straddle")[int(rng.integers(3))]
        if r == "nonnegative":
            lo[i] = float(rng.choice([0.0, rng.uniform(0.0, 0.3)]))
            up[i] = lo[i] + rng.uniform(0.5, 2.5)
        elif r == "negative":
            up[i] = -float(rng.choice([0.0, rng.uniform(0.0, 0.3)]))
            lo[i] = up[i] - rng.uniform(0.5, 2.5)
        else:
            lo[i] = -rng.uniform(0.3, 2.0)
            up[i] = rng.uniform(0.3, 2.0)
    return sq.ProblemInstance(sq.Graph(n, tuple(edges)), a, nw, c, lo, up, mode=mode)


def test_criterion_1_exactness_vs_oracle():
    t0 = time.time()
    worst_ex = worst_mnp = 0.0
    robust = outside = 0  # robust instances, and those with a signal outside [l, u]
    for idx in range(200):
        mode = ("sparse", "sparse", "robust")[idx % 3]
        regime = ("nonnegative", "mixed", "negative")[(idx // 3) % 3]
        inst = _model_instance(mode, regime, idx)
        problem = sq.compile_instance(inst)
        bf = sq.brute_force(problem)
        ex = sq.solve_full(problem, engine="exhaustive")
        mn = sq.solve_full(problem, engine="mnp")
        worst_ex = max(worst_ex, abs(ex.value - bf.value))
        worst_mnp = max(worst_mnp, abs(mn.value - bf.value))
        if mode == "robust":  # a robust signal has no indicator: it stays in [l, u]
            robust += 1
            signals = np.array([res.x[: inst.n] for res in (bf, ex, mn)])
            outside += bool(np.any((signals < inst.l) | (signals > inst.u)))
    elapsed = time.time() - t0
    ok = worst_ex <= 1e-6 and worst_mnp <= 1e-6 and outside == 0 and elapsed < 300.0
    _report(1, "exactness vs oracle", ok,
            f"(200 instances, worst gaps exhaustive {worst_ex:.2e} / mnp {worst_mnp:.2e}, "
            f"{outside} of {robust} robust answers leave [l, u], {elapsed:.0f}s)")
    assert worst_ex <= 1e-6
    assert worst_mnp <= 1e-6
    assert outside == 0
    assert elapsed < 300.0


def test_criterion_2_value_function_submodularity():
    violations = 0
    for seed in range(50):
        prob = sq.InstanceSampler(n=4, regime="mixed", seed=seed).draw(0)
        smap, _ = split(prob)
        m = smap.binary_dim
        assert m <= 8
        codes = np.arange(2**m)
        z = (codes[:, None] >> np.arange(m - 1, -1, -1)) & 1  # all 2^m codes in one stack
        vals = boxqp.solve_many(prob.quad, *bounds_for_binary(smap, z)).value
        p, q = np.meshgrid(codes, codes, indexing="ij")
        lhs = vals[p] + vals[q]
        rhs = vals[p & q] + vals[p | q]
        violations += int(np.sum(lhs < rhs - 1e-8))
    _report(2, "value-function submodularity", violations == 0,
            f"(50 seeds, all binary pairs, {violations} violations)")
    assert violations == 0


@pytest.fixture(scope="module")
def chain_runs():
    """50 seeded chain runs of each kind, shared by criteria 3-5."""
    runs = []
    for seed in range(50):
        n = 5 + (seed * 7) % 46
        prob = sq.InstanceSampler(n=n, regime="nonnegative", seed=seed, density=0.4).draw(0)
        smap, _ = split(prob)
        chain = pathtrace.chain_nonnegative(prob)
        runs.append((prob, smap, chain, "nonnegative"))

        ng = 3 + (seed * 5) % 23
        prob = sq.InstanceSampler(n=ng, regime="mixed", seed=1000 + seed, density=0.4).draw(0)
        smap, _ = split(prob)
        chain = pathtrace.chain_general(prob.quad, smap, range(smap.binary_dim))
        runs.append((prob, smap, chain, "general"))
    return runs


def test_criterion_3_chain_matches_oracle(chain_runs):
    worst = 0.0
    for prob, smap, chain, kind in chain_runs:
        z = sfm.prefix_sets(chain.order, smap.binary_dim)
        ref = boxqp.solve_many(prob.quad, *bounds_for_binary(smap, z)).value
        worst = max(worst, float(np.max(np.abs(ref - chain.values))))
    ok = worst <= 1e-8
    _report(3, "chain correctness", ok, f"(100 chains, n up to 50, worst gap {worst:.2e})")
    assert worst <= 1e-8


def test_criterion_4_breakpoint_budget(chain_runs):
    worst_ratio = 0.0
    ok = True
    for prob, smap, chain, kind in chain_runs:
        budget = (2 if kind == "nonnegative" else 4) * prob.n
        count = len(chain.breakpoints)
        worst_ratio = max(worst_ratio, count / budget)
        if count > budget:
            ok = False
    _report(4, "breakpoint budget", ok, f"(max count/budget ratio {worst_ratio:.2f})")
    assert ok


def test_criterion_5_monotone_path(chain_runs):
    worst_drop = 0.0
    for prob, smap, chain, kind in chain_runs:
        pts = chain.iterate_sequence()
        for t in range(1, len(pts)):
            worst_drop = max(worst_drop, float(np.max(pts[t - 1] - pts[t])))
    ok = worst_drop <= 1e-10
    _report(5, "monotone path", ok, f"(worst componentwise drop {worst_drop:.2e})")
    assert worst_drop <= 1e-10


def test_criterion_6_cubic_scaling():
    # the window applies to deterministic work counts: at n = 200 fixed
    # per-call overhead is most of a chain segment, so wall time shows the
    # cubic growth only unreliably; the timing ratios are reported alongside
    t0 = time.time()
    rows = bench_rows([100, 200, 400], reps=3, seed=0)
    elapsed = time.time() - t0
    chain_ratio = rows[2]["chain_work"] / rows[1]["chain_work"]
    naive_ratio = rows[2]["naive_work"] / rows[1]["naive_work"]
    chain_time = rows[2]["t_chain_ms"] / rows[1]["t_chain_ms"]
    naive_time = rows[2]["t_naive_ms"] / rows[1]["t_naive_ms"]
    ok = 4.0 <= chain_ratio <= 16.0 and naive_ratio > chain_ratio and elapsed < 120.0
    _report(6, "cubic scaling", ok,
            f"(work: chain x{chain_ratio:.2f}, naive x{naive_ratio:.2f}; "
            f"time: chain x{chain_time:.2f}, naive x{naive_time:.2f}; {elapsed:.0f}s)")
    for r in rows:
        assert r["breakpoints"] <= 2 * r["n"]
    assert 4.0 <= chain_ratio <= 16.0
    assert naive_ratio > chain_ratio
    assert elapsed < 120.0


def test_criterion_7_lovasz_probes():
    rng = np.random.default_rng(123)
    vertex_rng = np.random.default_rng(124)
    probes = 0
    vertex_probes = 0
    violations = 0
    seed = 0
    while probes < 1000:
        prob = sq.InstanceSampler(n=4, regime="mixed", seed=5000 + seed).draw(0)
        seed += 1
        oracle = sq.IndicatorOracle(prob)
        order = np.arange(oracle.m)
        values = oracle.chain(order)
        # exactness at the vertices the chain interpolates
        z = np.zeros(oracle.m)
        for k in range(oracle.m + 1):
            got = sq.lovasz(oracle, z)
            probes += 1
            if abs(got - values[k]) > 1e-12 * (1.0 + abs(values[k])):
                violations += 1
            if k < oracle.m:
                z[order[k]] = 1.0
        # exactness against F by stacked box QPs, which share no code with
        # the traced chain: the empty set, the full set and random vertices
        vertices = np.vstack([
            np.zeros(oracle.m), np.ones(oracle.m), vertex_rng.integers(2, size=(4, oracle.m)),
        ])
        for z, f in zip(vertices, oracle.eval_many(vertices).tolist()):
            vertex_probes += 1
            if abs(sq.lovasz(oracle, z) - f) > 1e-12 * (1.0 + abs(f)):
                violations += 1
        # convexity probes
        for _ in range(15):
            z1, z2 = rng.random(oracle.m), rng.random(oracle.m)
            lam = float(rng.uniform(0.05, 0.95))
            probes += 1
            mid = sq.lovasz(oracle, lam * z1 + (1 - lam) * z2)
            if mid > lam * sq.lovasz(oracle, z1) + (1 - lam) * sq.lovasz(oracle, z2) + 1e-8:
                violations += 1
    _report(7, "extension exactness and convexity", violations == 0,
            f"({probes} probes, {vertex_probes} vertex probes, {violations} violations)")
    assert violations == 0


def test_criterion_8_robust_recovery(tmp_path):
    hits = 0
    witnesses = []
    for seed in range(20):
        inst, truth = sq.generate(
            "chain", (30,), signal_sparsity=0.0, outlier_fraction=0.1,
            noise_sd=0.25, seed=9000 + seed, mode="robust", cost=4.0,
        )
        problem = sq.compile_instance(inst)
        res = sq.solve_full(problem, engine="mnp", tol=1e-6)
        planted = set(truth["outliers"])
        if planted.issubset(set(res.discarded)):
            hits += 1
        else:
            witness = {
                "check": "robust_recovery",
                "instance": model.instance_to_json_dict(inst),
                "truth": truth,
                "got_discarded": res.discarded,
                "replay": "submodqp solve <instance.json> --engine mnp",
            }
            path = tmp_path / f"witness_seed{9000 + seed}.json"
            path.write_text(json.dumps(witness, indent=2))
            witnesses.append(str(path))
    ok = hits >= 18
    _report(8, "robust outlier recovery", ok, f"({hits}/20 runs contained all planted outliers)")
    if witnesses:
        print("witnesses:", *witnesses, sep="\n  ")
    assert hits >= 18
