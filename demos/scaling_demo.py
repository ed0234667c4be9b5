"""Measure chain tracing against naive per-prefix evaluation as n grows.

One traced chain costs about as much as a single full solve (cubic in n),
while evaluating all n+1 prefixes independently costs an extra factor of n.
Doubling n multiplies the chain time by up to 8 (less at small n, where
fixed per-stage overhead still matters) and the naive time by noticeably more.
"""

from submodqp.bench import bench_rows


def main():
    sizes = [100, 200, 400]
    rows = bench_rows(sizes, reps=2, seed=0)
    print(f"{'n':>5s} {'chain ms':>10s} {'naive ms':>10s} {'breakpoints':>12s}")
    for r in rows:
        print(f"{r['n']:5d} {r['t_chain_ms']:10.2f} {r['t_naive_ms']:10.2f} {r['breakpoints']:12d}")
    for prev, cur in zip(rows, rows[1:]):
        print(
            f"n {prev['n']} -> {cur['n']}: chain x{cur['t_chain_ms'] / prev['t_chain_ms']:.2f}, "
            f"naive x{cur['t_naive_ms'] / prev['t_naive_ms']:.2f}"
        )


if __name__ == "__main__":
    main()
