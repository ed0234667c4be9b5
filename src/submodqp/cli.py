"""Command-line entry point.

Subcommands: generate, solve, eval, trace, verify, bench.  Every subcommand
writes machine-readable JSON (or CSV, for bench) to --output and prints a
one-line summary.  Exit codes: 0 success, 1 input error, 2 numerical failure,
3 verification failure.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import boxqp, model, oracle, pathtrace, sfm
from .exceptions import InputError, NumericalError
from .lattice import split

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NUMERICAL = 2
EXIT_VERIFY = 3


def _write_json(path, payload):
    if path:
        Path(path).write_text(json.dumps(payload, indent=2) + "\n")


def _parse_int_list(text, what):
    try:
        return [int(v) for v in text.split(",") if v != ""]
    except ValueError as e:
        raise InputError(f"bad {what} list {text!r}: expected comma-separated integers") from e


def cmd_generate(args):
    dims = _parse_int_list(args.dims, "dims")
    inst, truth = model.generate(
        topology=args.topology,
        dims=dims,
        signal_sparsity=args.sparsity,
        outlier_fraction=args.outlier_fraction,
        noise_sd=args.noise_sd,
        seed=args.seed,
        mode=args.mode,
        cost=args.cost,
        edge_weight=args.edge_weight,
    )
    out = Path(args.output)
    model.save_instance(inst, out)
    truth_path = out.with_name(out.stem + "_truth.json")
    truth_path.write_text(json.dumps(truth, indent=2) + "\n")
    print(
        f"generated {args.topology} instance: n={inst.n} mode={inst.mode} "
        f"outliers={len(truth['outliers'])} -> {out} (+ {truth_path.name})"
    )
    return EXIT_OK


def cmd_solve(args):
    inst = model.load_instance(args.input)
    problem = model.compile_instance(inst, ridge=args.ridge)
    t0 = time.perf_counter()
    res = sfm.solve_full(problem, engine=args.engine, tol=args.tol)
    wall_ms = 1000.0 * (time.perf_counter() - t0)
    payload = res.to_json_dict()
    payload["wall_time_ms"] = wall_ms
    _write_json(args.output, payload)
    extra = f" discarded={res.discarded}" if res.discarded is not None else ""
    print(f"solve[{args.engine}] value={res.value:.6f} z={payload['z']}{extra}")
    if not res.converged:
        print("warning: engine hit its iteration cap; result is best-found", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


def cmd_eval(args):
    inst = model.load_instance(args.input)
    problem = model.compile_instance(inst, ridge=args.ridge)
    z = np.array(_parse_int_list(args.z, "z"), dtype=int)
    if z.shape != (problem.n,) or np.any((z != 0) & (z != 1)):
        raise InputError(f"z must be {problem.n} binary entries")
    blo = np.where(z == 1, problem.lo, 0.0)
    bup = np.where(z == 1, problem.up, 0.0)
    sol = boxqp.solve(problem.quad, blo, bup)
    payload = {"z": z.tolist(), "value": sol.value, "x": sol.x.tolist()}
    _write_json(args.output, payload)
    print(f"v(z) = {sol.value:.10g}")
    return EXIT_OK


def cmd_trace(args):
    inst = model.load_instance(args.input)
    problem = model.compile_instance(inst, ridge=args.ridge)
    smap, _ = split(problem.lo, problem.up, problem.costs)
    orl = sfm.IndicatorOracle(problem.quad, problem.lo, problem.up, problem.costs, smap=smap)
    order = None
    if args.order:
        order = _parse_int_list(args.order, "order")
    if order is None:
        order = list(range(smap.binary_dim))
    chain = orl.value_chain(order)
    payload = chain.to_json_dict()
    _write_json(args.output, payload)
    print(
        f"trace[{chain.kind}] m={chain.m} v(0)={chain.values[0]:.6f} "
        f"v(full)={chain.values[-1]:.6f} breakpoints={len(chain.breakpoints)}"
    )
    return EXIT_OK


def cmd_verify(args):
    sampler = oracle.InstanceSampler(n=args.n, regime=args.regime, seed=args.seed)
    report = oracle.run_property_suite(sampler, trials=args.trials)
    _write_json(args.output, report.to_json_dict())
    for line in report.summary_lines():
        print(line)
    if not report.ok:
        print("verification FAILED; witnesses recorded", file=sys.stderr)
        return EXIT_VERIFY
    print(f"verify: all checks passed over {args.trials} trials")
    return EXIT_OK


def _bench_problem(n, seed):
    rng = np.random.default_rng([seed, n])
    graph = model.chain_graph(n, weight=1.0)
    return model.compile_sparse(
        model.ProblemInstance(
            graph, rng.normal(0.0, 1.5, n), np.ones(n), np.ones(n),
            np.zeros(n), np.full(n, 1.0), mode="sparse",
        )
    )


# timings per size in each repetition; a chain costs a few % of a naive pass
_CHAIN_RUNS = 5
_NAIVE_RUNS = 2


def _time_chain(problem):
    t0 = time.perf_counter()
    chain = pathtrace.chain_nonnegative(problem.quad, problem.lo, problem.up)
    return time.perf_counter() - t0, len(chain.breakpoints)


def _time_naive(problem, smap):
    t0 = time.perf_counter()
    z = np.zeros(problem.n, dtype=int)
    boxqp.value_function(problem.quad, problem.lo, problem.up, smap, z)
    for j in range(problem.n):
        z[j] = 1
        boxqp.value_function(problem.quad, problem.lo, problem.up, smap, z)
    return time.perf_counter() - t0


def bench_rows(sizes, reps=3, seed=0):
    """Time one traced chain vs n+1 independent box-QP evaluations per size.

    Instances are chains with mixed-sign noise observations and binding
    upper bounds, so every prefix solve works a nontrivial active set.

    Every size is run once untimed first (first calls at a new size pay for
    allocation and library warm-up).  Each repetition then times every size
    in turn, so a drift in machine speed hits all sizes alike instead of
    skewing their ratios; within a repetition the naive pass is timed twice
    and the chain, which costs a few percent of it, five times.  The garbage
    collector is held off while the clock runs, as ``timeit`` does.  Rows
    report medians.
    """
    if reps < 1:
        raise InputError("reps must be >= 1")
    for n in sizes:
        if n < 2:
            raise InputError("bench sizes must be >= 2")
    cases = []
    for n in sizes:
        problem = _bench_problem(n, seed)
        smap, _ = split(problem.lo, problem.up, problem.costs)
        cases.append((problem, smap))
    t_chain = [[] for _ in sizes]
    t_naive = [[] for _ in sizes]
    bps = [0] * len(sizes)
    gc_was_enabled = gc.isenabled()
    try:
        for rep in range(reps + 1):
            for k, (problem, smap) in enumerate(cases):
                gc.collect()
                gc.disable()
                tc = []
                for _ in range(_CHAIN_RUNS):
                    t, bps[k] = _time_chain(problem)
                    tc.append(t)
                tn = [_time_naive(problem, smap) for _ in range(_NAIVE_RUNS)]
                if gc_was_enabled:
                    gc.enable()
                if rep:  # repetition 0 is the warm-up
                    t_chain[k].extend(tc)
                    t_naive[k].extend(tn)
    finally:
        if gc_was_enabled:
            gc.enable()
    return [
        {
            "n": n,
            "t_chain_ms": 1000.0 * float(np.median(t_chain[k])),
            "t_naive_ms": 1000.0 * float(np.median(t_naive[k])),
            "breakpoints": bps[k],
        }
        for k, n in enumerate(sizes)
    ]


def cmd_bench(args):
    sizes = _parse_int_list(args.sizes, "sizes")
    rows = bench_rows(sizes, reps=args.reps, seed=args.seed)
    lines = ["n,t_chain_ms,t_naive_ms,breakpoints"]
    for r in rows:
        lines.append(f"{r['n']},{r['t_chain_ms']:.3f},{r['t_naive_ms']:.3f},{r['breakpoints']}")
    csv = "\n".join(lines) + "\n"
    if args.output:
        Path(args.output).write_text(csv)
    else:
        sys.stdout.write(csv)
    for i in range(1, len(rows)):
        if rows[i]["n"] == 2 * rows[i - 1]["n"]:
            ratio = rows[i]["t_chain_ms"] / max(rows[i - 1]["t_chain_ms"], 1e-9)
            naive = rows[i]["t_naive_ms"] / max(rows[i - 1]["t_naive_ms"], 1e-9)
            print(
                f"bench: n {rows[i-1]['n']}->{rows[i]['n']} chain ratio {ratio:.2f} "
                f"naive ratio {naive:.2f}"
            )
    print(f"bench: {len(rows)} sizes, reps={args.reps}")
    return EXIT_OK


def build_parser():
    p = argparse.ArgumentParser(
        prog="submodqp",
        description="Exact sparse/robust MRF inference via submodular minimization",
    )
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="generate a synthetic instance + ground truth")
    g.add_argument("--topology", choices=model.TOPOLOGIES, default="chain")
    g.add_argument("--dims", required=True, help="comma-separated dimensions, e.g. 30 or 4,5")
    g.add_argument("--sparsity", type=float, default=0.5)
    g.add_argument("--outlier-fraction", type=float, default=0.0)
    g.add_argument("--noise-sd", type=float, default=0.1)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--mode", choices=model.MODES, default="sparse")
    g.add_argument("--cost", type=float, default=1.0)
    g.add_argument("--edge-weight", type=float, default=1.0)
    g.add_argument("--output", required=True)
    g.set_defaults(fn=cmd_generate)

    s = sub.add_parser("solve", help="solve an instance end to end")
    s.add_argument("input")
    s.add_argument("--engine", choices=("exhaustive", "mnp"), default="mnp")
    s.add_argument("--tol", type=float, default=1e-9)
    s.add_argument("--ridge", type=float, default=1e-8)
    s.add_argument("--output")
    s.set_defaults(fn=cmd_solve)

    e = sub.add_parser("eval", help="evaluate the value function at a binary z")
    e.add_argument("input")
    e.add_argument("--z", required=True, help="comma-separated binary entries")
    e.add_argument("--ridge", type=float, default=1e-8)
    e.add_argument("--output")
    e.set_defaults(fn=cmd_eval)

    t = sub.add_parser("trace", help="compute a full value chain by path tracing")
    t.add_argument("input")
    t.add_argument("--order", help="comma-separated coordinate order")
    t.add_argument("--ridge", type=float, default=1e-8)
    t.add_argument("--output")
    t.set_defaults(fn=cmd_trace)

    v = sub.add_parser("verify", help="run the randomized property suite")
    v.add_argument("--trials", type=int, default=20)
    v.add_argument("--n", type=int, default=6)
    v.add_argument("--regime", choices=oracle.REGIMES, default="mixed")
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--output")
    v.set_defaults(fn=cmd_verify)

    b = sub.add_parser("bench", help="chain vs naive evaluation scaling")
    b.add_argument("--sizes", default="100,200,400")
    b.add_argument("--reps", type=int, default=3)
    b.add_argument("--seed", type=int, default=0)
    b.add_argument("--output")
    b.set_defaults(fn=cmd_bench)
    return p


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_INPUT if e.code not in (0, None) else EXIT_OK
    try:
        return args.fn(args)
    except InputError as e:
        print(f"input error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except NumericalError as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
