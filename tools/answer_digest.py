"""One SHA-256 over the solver's answers and value chains, to show bit identity,
and a comparison by value for changes that move bits.

Run from the root of a checkout:

    python3 tools/answer_digest.py [--src DIR] [--dump FILE] [--compare FILE]

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
fields of the :class:`ValueChain` it returns, ``oracle.brute_force`` and
``oracle.chain_dp``, and the instance generators), so it runs against older
sources as well.

Once bits move, the digest says only "changed", so two options compare the
answers by value:

* ``--dump FILE`` writes every hashed solve's label, engine, z, value,
  certificate, ``converged`` and chain count to FILE as JSON, from the same
  run that prints the digest;
* ``--compare FILE`` reads another run's dump, typically the parent's, made
  with ``--src``, and prints after the two lines: the largest relative value
  difference (on the scale 1 + |value|), every case whose z changed, with
  both values and an independent judge's (:func:`judge`), every flip of
  ``converged``, the chains per family of cases on both sides and every
  solve whose chain count moved.  It exits 1 when a value moves by more
  than 1e-9 relative, when a z changes to a value the judge calls worse, or
  when a converged answer becomes unconverged.

For example, to judge a change against its parent:

    mkdir ../parent && git archive HEAD~1 src | tar -x -C ../parent
    python3 tools/answer_digest.py --src ../parent/src --dump parent.json
    python3 tools/answer_digest.py --compare parent.json

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
import json
import os
import sys
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# largest m solved by enumeration too; fixed here rather than read from
# sfm.EXHAUSTIVE_GUARD, so that both sources hash the same solves
EXHAUSTIVE_MAX_M = 20
BRUTE_MAX_K = 14  # the most indicators judge() enumerates, oracle.BRUTE_GUARD
VALUE_TOL = 1e-9  # the largest relative value move compare() lets pass


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
    """Hash ``cases``, (label, problem, tol) triples; returns (hex digest, answers).

    ``answers`` holds one record per hashed solve, in order: its label,
    engine, z, value, certificate, ``converged`` and the number of chains
    the solve asked for (MNP's: enumeration asks for none).  The traced
    chain of each case is not counted.  ``IndicatorOracle.chain`` and
    ``IndicatorOracle.eval_many`` are wrapped for the run and put back after
    it.
    """
    import numpy as np

    from submodqp import pathtrace, sfm

    h = hashlib.sha256()
    chains = 0
    chain, eval_many = sfm.IndicatorOracle.chain, sfm.IndicatorOracle.eval_many

    def recorded(self, order):
        nonlocal chains
        values = chain(self, order)
        chains += 1
        h.update(np.asarray(order, dtype=np.int64).tobytes())
        h.update(np.asarray(values, dtype=float).tobytes())
        return values

    def recorded_many(self, zbins):
        values = eval_many(self, zbins)
        h.update(np.asarray(values, dtype=float).tobytes())
        return values

    answers = []
    sfm.IndicatorOracle.chain, sfm.IndicatorOracle.eval_many = recorded, recorded_many
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for label, problem, tol in cases:
                oracle = sfm.IndicatorOracle(problem)
                m = oracle.m
                engines = ("mnp", "exhaustive") if m <= EXHAUSTIVE_MAX_M else ("mnp",)
                for engine in engines:
                    h.update(f"{label} {engine}".encode())
                    before = chains
                    res = sfm.solve_full(problem, engine=engine, tol=tol)
                    h.update(np.asarray(res.z, dtype=np.int64).tobytes())
                    h.update(np.asarray(res.x, dtype=float).tobytes())
                    h.update(np.array([res.value, res.certificate], dtype=float).tobytes())
                    h.update(b"converged" if res.converged else b"not converged")
                    answers.append({
                        "label": label,
                        "engine": engine,
                        "z": np.asarray(res.z, dtype=np.int64).tolist(),
                        "value": float(res.value),
                        "certificate": float(res.certificate),
                        "converged": bool(res.converged),
                        "chains": chains - before,
                    })
                vc = pathtrace.chain_general(oracle.quad, oracle.smap, range(m))
                h.update(np.asarray(vc.values, dtype=float).tobytes())
                h.update(np.asarray(vc.minimizers, dtype=float).tobytes())
                for b, point in zip(vc.breakpoints, vc.breakpoint_points):
                    h.update(f"{b.stage} {b.x!r} {b.index} {b.event}".encode())
                    h.update(np.asarray(point, dtype=float).tobytes())
    finally:
        sfm.IndicatorOracle.chain, sfm.IndicatorOracle.eval_many = chain, eval_many
    return h.hexdigest(), answers


def chains_per_workload(answers, names):
    """Chains per workload name, from :func:`digest`'s answers."""
    return {name: sum(a["chains"] for a in answers if a["label"].startswith(f"{name}/"))
            for name in names}


def judge(problem):
    """(name, value): the optimum of ``problem`` by the first exact judge that
    applies, or None: brute force over at most ``BRUTE_MAX_K`` indicators,
    the segment DP on a sparse problem with a tridiagonal Q, then
    enumeration at m <= ``EXHAUSTIVE_MAX_M`` (the exhaustive engine, so it
    judges only MNP independently)."""
    import numpy as np

    from submodqp import oracle, sfm

    if np.count_nonzero(problem.indicated) <= BRUTE_MAX_K:
        return "brute_force", oracle.brute_force(problem).value
    if problem.mode == "sparse" and not np.triu(problem.quad.Q, 2).any():
        return "chain_dp", oracle.chain_dp(problem).value
    if sfm.IndicatorOracle(problem).m <= EXHAUSTIVE_MAX_M:
        return "enumeration", sfm.solve_full(problem, engine="exhaustive").value
    return None


def _relative(new, old):
    """|new - old| on the scale 1 + |old|, the scale of the solver's gap tolerance."""
    return abs(new - old) / (1.0 + abs(old))


def compare(old, new, judge):
    """Compare two runs' answers by value; returns (report lines, ok).

    ``old`` and ``new`` are :func:`digest` answers, paired by label and
    engine; ``judge(label)`` gives an independent optimum for a case, as
    :func:`judge` does, or None.  It is asked only for the cases whose z
    changed.  ``ok`` is False when the two runs do not hold the same
    solves, when a value moves by more than ``VALUE_TOL`` relative
    (:func:`_relative`), when a changed z has a value worse than the
    judge's by more than that, or when a converged answer becomes
    unconverged.
    """
    before = {(a["label"], a["engine"]): a for a in old}
    after = {(a["label"], a["engine"]): a for a in new}
    lines, ok = [], True
    if before.keys() != after.keys():
        lines.append(f"solves differ: {len(before.keys() - after.keys())} only before,"
                     f" {len(after.keys() - before.keys())} only after")
        ok = False
    pairs = [(key, before[key], after[key]) for key in after if key in before]
    lines.append(f"compared {len(pairs)} solves")
    worst, at = 0.0, None
    changed, flips, moved = [], [], []
    for key, b, a in pairs:
        rel = _relative(a["value"], b["value"])
        if rel > worst or at is None:
            worst, at = rel, key
        if a["z"] != b["z"]:
            changed.append((key, b, a))
        if a["converged"] != b["converged"]:
            flips.append(f"converged flip: {' '.join(key)} {b['converged']} -> {a['converged']}")
            ok = ok and not b["converged"]
        if a["chains"] != b["chains"]:
            moved.append(f"chains moved: {' '.join(key)} {b['chains']} -> {a['chains']}")
    if at is not None:
        lines.append(f"largest relative value difference: {worst:.3g} ({' '.join(at)})")
    ok = ok and worst <= VALUE_TOL
    for key, b, a in changed:
        ref = judge(key[0])
        verdict = "no judge"
        if ref is not None:
            worse = a["value"] - ref[1] > VALUE_TOL * (1.0 + abs(ref[1]))
            verdict = f"{ref[0]} {ref[1]!r}, {'worse' if worse else 'not worse'}"
            ok = ok and not worse
        lines.append(f"changed z: {' '.join(key)} value {b['value']!r} -> {a['value']!r}; {verdict}")
    if not changed:
        lines.append("changed z: none")
    lines += flips or ["converged flips: none"]
    families = list(dict.fromkeys(label.split("/")[0] for label, _ in after))
    counts = chains_per_workload(old, families), chains_per_workload(new, families)
    lines.append("chains per family: "
                 + ", ".join(f"{f} {counts[0][f]} -> {counts[1][f]}" for f in families))
    lines += moved
    lines.append("ok" if ok else "FAIL")
    return lines, ok


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--src", default=str(ROOT / "src"), help="the submodqp sources to hash")
    p.add_argument("--dump", metavar="FILE", help="write every hashed answer to FILE as JSON")
    p.add_argument("--compare", metavar="FILE",
                   help="compare the answers by value with another run's --dump FILE")
    args = p.parse_args(argv)
    old = json.loads(Path(args.compare).read_text())["answers"] if args.compare else None
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

    hashed = cases()
    hexdigest, answers = digest(hashed)
    print(f"{hexdigest}  solves={len(answers)} chains={sum(a['chains'] for a in answers)}")
    mnp = [w.name for w in harness.WORKLOADS.values() if w.engine == "mnp"]
    counts = chains_per_workload(answers, mnp)
    print("mnp chains: " + " ".join(f"{name}={n}" for name, n in counts.items()))
    if args.dump:
        Path(args.dump).write_text(json.dumps({"digest": hexdigest, "answers": answers}))
    if old is None:
        return 0
    problems = {label: problem for label, problem, _ in hashed}
    lines, ok = compare(old, answers, lambda label: judge(problems[label]))
    print("\n".join(lines))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
