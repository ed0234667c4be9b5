"""One SHA-256 over the solver's answers and value chains, to show bit identity.

Run from the root of a checkout:

    python3 tools/answer_digest.py [--src DIR]

It prints two lines.  The first holds the digest, then the number of solves
and of chains it hashed; the second, the number of MNP chains on each
benchmark workload that MNP solves, which shows which way a changed digest
moved the chain count.  ``--src`` names the ``submodqp`` sources to hash
(default: this checkout's ``src``), so the same script hashes another tree
too, for example a parent commit unpacked with ``git archive``.  Equal
digests on both sides mean every hashed answer and every chain is the same
bit for bit.  The script calls only names whose signatures have not changed
(``solve_full``, ``IndicatorOracle(problem)`` and its ``quad``, ``smap``,
``m``, ``chain`` and ``eval_many``, ``pathtrace.chain_general`` and the
fields of the :class:`ValueChain` it returns, and the instance generators),
so it runs against older sources as well.

With BLAS pinned to one thread and RuntimeWarnings raised as errors, it
hashes, case by case:

* ``solve_full``'s z, x, value, certificate and ``converged`` under MNP, and
  under the exhaustive engine wherever the problem has m <= 20 binary
  coordinates;
* the order and values of every ``IndicatorOracle.chain`` call those solves
  make, in call order;
* every value ``IndicatorOracle.eval_many`` returns during those solves, in
  call order: the exhaustive engine keeps only its winner's z, so a value
  that moves without changing the winner shows only here;
* the whole traced chain ``pathtrace.chain_general`` gives over the
  oracle's split in ascending coordinate order: its values, its minimizers,
  each breakpoint's stage, x, index and event, and each breakpoint point.

The cases (:func:`cases`) are the instance sets of the three benchmark
workloads (``perfbench/harness.py``), acceptance criterion 1's 200 instances
and criterion 8's 20 (``tests/test_acceptance.py``), and small robust chains
and grids, some with signal bounds (-1, 3) and (0.5, 3).  A full run takes
about half a minute on one core.

``submodqp`` is imported only once ``main`` has put ``--src`` on the path,
so the functions below import it when they run.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# largest m solved by enumeration too; fixed here rather than read from
# sfm.EXHAUSTIVE_GUARD, so that both sources hash the same solves
EXHAUSTIVE_MAX_M = 20


def cases():
    """(label, compiled problem, tol) of every hashed instance, in a fixed order."""
    import harness  # perfbench/harness.py
    from test_acceptance import _model_instance

    from submodqp import model

    out = []
    for name, workload in harness.WORKLOADS.items():
        for seed in workload.seeds:
            inst = workload.instance(seed)
            out.append((f"{name}/{seed}", model.compile_instance(inst), workload.tol))
    for idx in range(200):  # criterion 1
        mode = ("sparse", "sparse", "robust")[idx % 3]
        regime = ("nonnegative", "mixed", "negative")[(idx // 3) % 3]
        problem = model.compile_instance(_model_instance(mode, regime, idx))
        out.append((f"criterion1/{idx}", problem, 1e-9))
    # criterion 8: the robust_chain workload's family on 30 vertices
    robust = harness.WORKLOADS["robust_chain"]
    for seed in range(9000, 9020):
        inst = robust.instance(seed, dims=(30,))
        out.append((f"criterion8/{seed}", model.compile_instance(inst), robust.tol))
    extra = [("chain", (v,), None, 0.34) for v in (3, 4, 5)]
    extra += [("chain", (8,), bounds, 0.25) for bounds in ((-1.0, 3.0), (0.5, 3.0))]
    extra += [("grid2d", (3, 3), None, 0.2)]
    for topology, dims, bounds, outliers in extra:
        for seed in range(2):
            inst, _ = model.generate(topology, dims, outlier_fraction=outliers, seed=seed,
                                     mode="robust", bounds=bounds)
            label = f"robust/{topology}{dims}/{bounds}/{seed}"
            out.append((label, model.compile_instance(inst), 1e-9))
    return out


def digest(cases):
    """Hash ``cases``, (label, problem, tol) triples; returns (hex digest, solves, chains).

    ``chains`` maps each label to the number of chains its solves asked for
    (MNP's: enumeration asks for none); the traced chain of each case is
    not counted.  ``IndicatorOracle.chain`` and ``IndicatorOracle.eval_many``
    are wrapped for the run and put back after it.
    """
    import numpy as np

    from submodqp import pathtrace, sfm

    h = hashlib.sha256()
    chains = {}
    chain, eval_many = sfm.IndicatorOracle.chain, sfm.IndicatorOracle.eval_many

    def recorded(self, order):
        values = chain(self, order)
        chains[label] += 1
        h.update(np.asarray(order, dtype=np.int64).tobytes())
        h.update(np.asarray(values, dtype=float).tobytes())
        return values

    def recorded_many(self, zbins):
        values = eval_many(self, zbins)
        h.update(np.asarray(values, dtype=float).tobytes())
        return values

    solves = 0
    sfm.IndicatorOracle.chain, sfm.IndicatorOracle.eval_many = recorded, recorded_many
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for label, problem, tol in cases:
                chains[label] = 0
                oracle = sfm.IndicatorOracle(problem)
                m = oracle.m
                engines = ("mnp", "exhaustive") if m <= EXHAUSTIVE_MAX_M else ("mnp",)
                for engine in engines:
                    h.update(f"{label} {engine}".encode())
                    res = sfm.solve_full(problem, engine=engine, tol=tol)
                    solves += 1
                    h.update(np.asarray(res.z, dtype=np.int64).tobytes())
                    h.update(np.asarray(res.x, dtype=float).tobytes())
                    h.update(np.array([res.value, res.certificate], dtype=float).tobytes())
                    h.update(b"converged" if res.converged else b"not converged")
                vc = pathtrace.chain_general(oracle.quad, oracle.smap, range(m))
                h.update(np.asarray(vc.values, dtype=float).tobytes())
                h.update(np.asarray(vc.minimizers, dtype=float).tobytes())
                for b, point in zip(vc.breakpoints, vc.breakpoint_points):
                    h.update(f"{b.stage} {b.x!r} {b.index} {b.event}".encode())
                    h.update(np.asarray(point, dtype=float).tobytes())
    finally:
        sfm.IndicatorOracle.chain, sfm.IndicatorOracle.eval_many = chain, eval_many
    return h.hexdigest(), solves, chains


def chains_per_workload(chains, names):
    """Chains per workload name, from :func:`digest`'s counts per label."""
    return {name: sum(n for label, n in chains.items() if label.startswith(f"{name}/"))
            for name in names}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--src", default=str(ROOT / "src"), help="the submodqp sources to hash")
    args = p.parse_args(argv)
    src = Path(args.src).resolve()
    sys.path[:0] = [str(src), str(ROOT / "perfbench"), str(ROOT / "tests")]
    from run import THREAD_VARS  # perfbench/run.py; imports no numpy

    for var in THREAD_VARS:
        os.environ[var] = "1"
    import submodqp

    if not Path(submodqp.__file__).resolve().is_relative_to(src):
        print(f"submodqp was imported from {submodqp.__file__}, not from {src}", file=sys.stderr)
        return 2
    import harness  # perfbench/harness.py

    hexdigest, solves, chains = digest(cases())
    print(f"{hexdigest}  solves={solves} chains={sum(chains.values())}")
    mnp = [w.name for w in harness.WORKLOADS.values() if w.engine == "mnp"]
    counts = chains_per_workload(chains, mnp)
    print("mnp chains: " + " ".join(f"{name}={n}" for name, n in counts.items()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
