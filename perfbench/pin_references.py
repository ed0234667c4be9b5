"""Recompute references.json: the optimal value of every default instance.

Usage, from the root of a checkout: ``python3 perfbench/pin_references.py
[WORKLOAD ...]`` (all workloads by default).  Each value comes from
``solve_full`` and must pass the benchmark's own audit; on workloads with
``brute_force`` set it must also agree with ``oracle.brute_force``.  Pin
again only when a change is meant to alter the optimal values.
"""

import json
import sys

import run


def pin(names):
    import harness
    from submodqp import model, oracle, sfm

    table = json.loads(harness.REFERENCES.read_text())
    for name in names:
        w = harness.WORKLOADS[name]
        values = {}
        for seed in w.seeds:
            problem = model.compile_instance(w.instance(seed))
            res = sfm.solve_full(problem, engine=w.engine, tol=w.tol)
            failures = harness.audit(problem, res)
            if not res.converged:
                failures.append("converged=False")
            if w.brute_force:
                bv = oracle.brute_force(problem).value
                if not harness._rel_close(res.value, bv, harness.REFERENCE_RTOL):
                    failures.append(f"brute force gives {bv!r}")
            if failures:
                raise SystemExit(f"{name} seed {seed}: {'; '.join(failures)}")
            values[str(seed)] = res.value
            print(f"{name} seed {seed}: {res.value!r}", flush=True)
        table[name] = values
    harness.REFERENCES.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    run.prepare()
    import harness

    pin(sys.argv[1:] or sorted(harness.WORKLOADS))
