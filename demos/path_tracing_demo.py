"""Watch the parametric tracer compute a whole value chain in one sweep.

The chain v(1_[0]), ..., v(1_[m]) lists the optimal objective as indicators
switch on one at a time.  The naive route solves one box QP per prefix; the
tracer gets the entire chain by following piecewise-affine solution paths,
pivoting only at breakpoints.  This script prints the chain, the breakpoint
log, the agreement with the naive route, and the Lovász extension of F,
the value plus the indicator costs, at a point between F(∅) and F(all).
"""

import numpy as np

import submodqp as sq
from submodqp import boxqp, pathtrace
from submodqp.lattice import prefix_boxes, split


def main():
    inst, _ = sq.generate(
        "chain", (8,), signal_sparsity=0.2, noise_sd=0.3, seed=11, edge_weight=2.0
    )
    # tight upper bounds force pivots: variables saturate while others release
    problem = sq.compile_instance(
        sq.ProblemInstance(
            inst.graph, inst.a, inst.node_weights, inst.c,
            np.zeros(inst.n), np.full(inst.n, 0.9), mode="sparse",
        )
    )
    smap, _ = split(problem)

    chain = pathtrace.chain_nonnegative(problem)
    print("traced chain of optimal values:")
    for k, v in enumerate(chain.values):
        print(f"  v(first {k} on) = {v:10.5f}")

    print(f"\nbreakpoints ({len(chain.breakpoints)} total, budget 2n = {2 * problem.n}):")
    for bp in chain.breakpoints:
        print(f"  stage {bp.stage:2d}  x = {bp.x:8.5f}  variable {bp.index:2d}  {bp.event}")

    # the naive route: the n+1 prefix boxes, solved as one stack
    boxes = prefix_boxes(smap, range(problem.n))
    worst = np.max(np.abs(boxqp.solve_many(problem.quad, *boxes).value - chain.values))
    print(f"\nmax gap vs {problem.n + 1} independent box-QP solves: {worst:.2e}")

    # F = v + cost: one greedy chain gives F(∅) and the vertex w, and the
    # extension is F(∅) + <w, z>; on the diagonal z = t * 1 that is
    # F(∅) + t (F(all) - F(∅)), between F(∅) and F(all)
    oracle = sq.IndicatorOracle(problem)
    zfrac = np.full(oracle.m, 0.3)
    f0, w = sq.greedy_subgradient(oracle, zfrac)
    print(f"Lovász extension of F at z = 0.3 everywhere: {sq.lovasz(oracle, zfrac):.5f} "
          f"(0.3 of the way from F(∅) = {f0:.5f} to F(all) = {f0 + w.sum():.5f})")


if __name__ == "__main__":
    main()
