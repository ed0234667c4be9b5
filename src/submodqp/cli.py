"""Command-line entry point.

Subcommands: generate, solve, eval, trace, verify, bench.  Every subcommand
writes machine-readable JSON (or CSV, for bench) to --output and prints a
one-line summary.  ``eval`` takes one z entry per compiled variable: on n
robust vertices, n signals (each 1), then n slacks.  Exit codes: 0 success,
1 input error, 2 numerical failure, 3 verification failure.  A file that
cannot be read or written (missing, a directory, not UTF-8, or an --output
in a missing directory) is an input error.

Run it with single-threaded BLAS (``OPENBLAS_NUM_THREADS=1``): its matrices
are small, so extra BLAS threads cost more than they save (one chain at
n = 400 on 2 vCPUs: 0.091 s with default threads, 0.054 s with one).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import boxqp, lattice, model, oracle, pathtrace, sfm
from .bench import bench_rows
from .exceptions import InputError, NumericalError

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NUMERICAL = 2
EXIT_VERIFY = 3


def _write_json(path, payload):
    if path:
        Path(path).write_text(json.dumps(payload, indent=2) + "\n")


def _parse_int_list(text, what):
    try:
        return [int(v) for v in text.split(",")]
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
    problem = model.compile_instance(model.load_instance(args.input))
    t0 = time.perf_counter()
    res = sfm.solve_full(problem, engine=args.engine, tol=args.tol)
    wall_ms = 1000.0 * (time.perf_counter() - t0)
    payload = res.to_json_dict()
    payload["wall_time_ms"] = wall_ms
    _write_json(args.output, payload)
    extra = f" discarded={res.discarded}" if res.discarded is not None else ""
    print(f"solve[{args.engine}] value={res.value:.6f} z={payload['z']}{extra}")
    if not res.converged:
        print(
            f"warning: result not certified: duality gap {res.certificate:.3g} above "
            f"{sfm.gap_tolerance(res.value, args.tol):.3g}",
            file=sys.stderr,
        )
        return EXIT_NUMERICAL
    return EXIT_OK


def cmd_eval(args):
    problem = model.compile_instance(model.load_instance(args.input))
    z = np.array(_parse_int_list(args.z, "z"), dtype=int)
    sol = boxqp.solve(problem.quad, *problem.box(z))
    payload = {"z": z.tolist(), "value": sol.value, "x": sol.x.tolist()}
    _write_json(args.output, payload)
    print(f"v(z) = {sol.value:.10g}")
    return EXIT_OK


def cmd_trace(args):
    problem = model.compile_instance(model.load_instance(args.input))
    smap, _ = lattice.split(problem)
    order = range(smap.binary_dim) if args.order is None else _parse_int_list(args.order, "order")
    chain = pathtrace.chain_general(problem.quad, smap, order)
    payload = chain.to_json_dict()
    _write_json(args.output, payload)
    print(
        f"trace[{chain.kind}] stages={chain.m} v(0)={chain.values[0]:.6f} "
        f"v(last)={chain.values[-1]:.6f} breakpoints={len(chain.breakpoints)}"
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
        description="Exact sparse/robust MRF inference via submodular minimization. "
        "Run with single-threaded BLAS (OPENBLAS_NUM_THREADS=1): the solver's "
        "matrices are small, and extra BLAS threads slow it down.",
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
    s.add_argument("--output")
    s.set_defaults(fn=cmd_solve)

    e = sub.add_parser("eval", help="evaluate the value function at a binary z")
    e.add_argument("input")
    e.add_argument("--z", required=True, help="comma-separated binary entries, one per "
                   "compiled variable (robust: n signals, each 1, then n slacks)")
    e.add_argument("--output")
    e.set_defaults(fn=cmd_eval)

    t = sub.add_parser("trace", help="compute a value chain by path tracing")
    t.add_argument("input")
    t.add_argument(
        "--order", help="comma-separated coordinate order, all coordinates or a prefix"
    )
    t.add_argument("--output")
    t.set_defaults(fn=cmd_trace)

    v = sub.add_parser("verify", help="run the randomized property suite")
    v.add_argument("--trials", type=int, default=20)
    v.add_argument("--n", type=int, default=6)
    v.add_argument("--regime", choices=oracle.REGIMES, default="mixed")
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--output")
    v.set_defaults(fn=cmd_verify)

    b = sub.add_parser("bench", help="one traced chain vs one stacked solve of n+1 prefix boxes")
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
    except (InputError, OSError) as e:
        print(f"input error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except NumericalError as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
