"""Scaling benchmark: one traced value chain against one stacked solve of n+1 prefix boxes.

:func:`bench_rows` backs ``submodqp bench`` and the cubic-scaling acceptance
test.  It reports each pass twice: by wall time, and by a deterministic work
count that repeats exactly from run to run.
"""

from __future__ import annotations

import gc
import time

import numpy as np

from . import model, pathtrace
from .model import _as_int_at_least
from .sfm import IndicatorOracle


def _bench_problem(n, seed):
    rng = np.random.default_rng([seed, n])
    graph = model.chain_graph(n, weight=1.0)
    return model.compile_instance(
        model.ProblemInstance(
            graph, rng.normal(0.0, 1.5, n), np.ones(n), np.ones(n),
            np.zeros(n), np.full(n, 1.0), mode="sparse",
        )
    )


# timings per size in each repetition
_CHAIN_RUNS = 5
_NAIVE_RUNS = 2


def _time_chain(problem):
    t0 = time.perf_counter()
    chain = pathtrace.chain_nonnegative(problem)
    return time.perf_counter() - t0, chain


def _time_naive(problem):
    """Seconds and projected Newton iterations of the naive pass (one stacked solve)."""
    oracle = IndicatorOracle(problem)
    t0 = time.perf_counter()
    oracle.chain_naive(range(oracle.m))
    return time.perf_counter() - t0, oracle.stats.boxqp_iterations


def bench_rows(sizes, reps=3, seed=0):
    """Time one traced chain vs one stacked solve of the n+1 prefix boxes per size.

    Instances are chains with mixed-sign noise observations and binding
    upper bounds, so every prefix solve works a nontrivial active set.

    Every size is run once untimed first (first calls at a new size pay for
    allocation and library warm-up).  Each repetition then times every size
    in turn, so a drift in machine speed hits all sizes alike instead of
    skewing their ratios; within a repetition the naive pass is timed twice
    and the chain five times.  The garbage collector is held off while the
    clock runs, as ``timeit`` does.  Rows report medians, the breakpoints of
    the chain, and the work of each pass: ``chain_work`` is the chain's
    ``pivot_work`` (|R|^2 summed over its pivots) and ``naive_work`` sums
    n^3 over the Newton iterations of the naive pass, each of which factors
    a free block of up to n variables.
    """
    reps = _as_int_at_least(reps, "reps", 1)
    seed = _as_int_at_least(seed, "seed", 0)
    sizes = [_as_int_at_least(n, "a bench size", 2) for n in sizes]
    problems = [_bench_problem(n, seed) for n in sizes]
    t_chain = [[] for _ in sizes]
    t_naive = [[] for _ in sizes]
    chains = [None] * len(sizes)
    iterations = [0] * len(sizes)
    gc_was_enabled = gc.isenabled()
    try:
        for rep in range(reps + 1):
            for k, problem in enumerate(problems):
                gc.collect()
                gc.disable()
                tc, tn = [], []
                for _ in range(_CHAIN_RUNS):
                    t, chains[k] = _time_chain(problem)
                    tc.append(t)
                for _ in range(_NAIVE_RUNS):
                    t, iterations[k] = _time_naive(problem)
                    tn.append(t)
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
            "breakpoints": len(chains[k].breakpoints),
            "chain_work": chains[k].pivot_work,
            "naive_work": iterations[k] * n**3,
        }
        for k, n in enumerate(sizes)
    ]
