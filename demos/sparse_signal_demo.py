"""Recover a sparse signal on a chain graph with an exact L0-penalized fit.

Generates a noisy chain observation whose true signal is mostly zero, then
solves the penalized problem exactly: each vertex pays a fixed cost for being
nonzero, and the smoothing term ties neighbors together.  Compares the
recovered support against the planted one and against plain (unpenalized)
smoothing.
"""

import numpy as np

import submodqp as sq


def main():
    inst, truth = sq.generate(
        "chain", (24,), signal_sparsity=0.75, noise_sd=0.15, seed=7,
        cost=0.4, edge_weight=0.4,
    )
    problem = sq.compile_instance(inst)

    result = sq.solve_full(problem, engine="mnp")
    x_true = np.array(truth["x_true"])
    true_support = set(int(i) for i in np.flatnonzero(x_true != 0.0))
    found_support = set(int(i) for i in np.flatnonzero(result.z == 1))

    # reference: no sparsity penalty, just the smoothed least-squares fit
    smooth = sq.solve_boxqp(problem.quad, problem.lo, problem.up)

    print(f"n = {inst.n}, planted support {sorted(true_support)}")
    print(f"recovered support      {sorted(found_support)}")
    print(f"objective (penalized)  {result.value:.4f}")
    print(f"penalty-free fit keeps {int(np.sum(np.abs(smooth.x) > 1e-6))} nonzeros "
          f"vs {len(found_support)} with the L0 cost")
    both = true_support & found_support
    print(f"support overlap: {len(both)}/{len(true_support)}")
    print()
    print(" vertex   truth    observed  recovered")
    for i in range(inst.n):
        mark = "*" if i in found_support else " "
        print(f"  {i:4d}   {x_true[i]:7.3f}  {inst.a[i]:8.3f}  {result.x[i]:8.3f} {mark}")


if __name__ == "__main__":
    main()
