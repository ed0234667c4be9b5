"""End-to-end benchmark of ``sfm.solve_full`` on generated instances.

One run takes a workload, sets it up (generate and compile its instance set,
warm up), then solves the set in passes for about ``--seconds`` seconds,
verifies every result and prints one JSON line of metrics.  ``--trace 1``
instead solves the set once untraced and once under :class:`spans.Tracer`
and prints the per-layer metrics.  See README.md for the workloads and what
each metric should move.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import resource
import subprocess
import sys
import time
import traceback
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy
from scipy.linalg import cho_factor, cho_solve, solve_triangular

from submodqp import boxqp, model, oracle, sfm
from submodqp.exceptions import InputError, NumericalError

import spans
from run import THREAD_VARS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCES = HERE / "references.json"
DEFAULT_OUT = HERE / "out"

REFERENCE_RTOL = 1e-7
OBJECTIVE_RTOL = 1e-9
SETUP_REPEATS = 3
IMPORT_PROBES = 3
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t0 = time.perf_counter(); "
    "import submodqp; print(time.perf_counter() - t0)"
)
SOLVE_TIME_LIMIT_S = 60.0


class Yardstick:
    """Fixed numpy and scipy work, independent of ``submodqp``, timed around every solve.

    On a machine shared with other tenants, speed drifts by up to 1.5x over
    seconds and over minutes (README.md, Noise).  A solve's wall time divided
    by the yardstick's time around it drifts far less.  Times scaled by
    ``REF_S / yardstick time`` are *reference seconds*: wall seconds on the
    machine where ``REF_S``, the yardstick's median time, was measured.
    """

    REF_S = 0.0117

    def __init__(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((48, 48))
        self.S = a @ a.T + 48.0 * np.eye(48)
        self.L = np.linalg.cholesky(self.S)
        self.b = rng.standard_normal(48)
        self._last = None

    def around(self, fn, *args, **kwargs):
        """Call ``fn``, which returns a :class:`Solve`, and record the yardstick around it.

        The solve's ``yardstick_s`` is the mean of the measurements just
        before and just after it; consecutive solves share one measurement.
        """
        before = self.measure() if self._last is None else self._last
        rec = fn(*args, **kwargs)
        self._last = self.measure()
        rec.yardstick_s = 0.5 * (before + self._last)
        return rec

    def measure(self):
        t0 = time.perf_counter()
        acc = 0.0
        for _ in range(150):
            y = cho_solve(cho_factor(self.S, lower=True, check_finite=False), self.b, check_finite=False)
            z = solve_triangular(self.L, y, lower=True, check_finite=False)
            idx = np.flatnonzero(z > 0)
            acc += float(self.S[np.ix_(idx, idx)].sum()) + float(np.clip(z, -1.0, 1.0) @ self.b)
            for j in range(30):
                acc += 0.5 * j
        return time.perf_counter() - t0


@dataclass(frozen=True)
class Workload:
    """One family of generated instances and the engine that solves them.

    ``seeds`` is the default instance set; references.json pins its optimal
    values.  ``warmup_dims`` sizes the small instance solved during set-up.
    """

    name: str
    generate: dict
    engine: str
    tol: float
    seeds: tuple
    warmup_dims: tuple
    brute_force: bool = False

    def instance(self, seed, dims=None):
        kwargs = dict(self.generate)
        if dims is not None:
            kwargs["dims"] = dims
        inst, _ = model.generate(seed=int(seed), **kwargs)
        return inst


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="robust_chain",
            generate=dict(
                topology="chain", dims=(20,), mode="robust", signal_sparsity=0.0,
                outlier_fraction=0.1, noise_sd=0.25, cost=4.0,
            ),
            engine="mnp",
            tol=1e-6,
            seeds=tuple(range(9000, 9004)),
            warmup_dims=(4,),
        ),
        Workload(
            name="sparse_grid3d",
            generate=dict(
                topology="grid3d", dims=(5, 5, 5), mode="sparse", signal_sparsity=0.75,
                noise_sd=0.15, cost=0.4, edge_weight=0.4,
            ),
            engine="mnp",
            tol=1e-9,
            seeds=(0, 1),
            warmup_dims=(2, 2, 2),
        ),
        Workload(
            name="exhaustive_small",
            generate=dict(topology="grid2d", dims=(3, 4), bounds=(0.0, 4.0)),
            engine="exhaustive",
            tol=1e-9,
            seeds=tuple(range(8)),
            warmup_dims=(2, 2),
            brute_force=True,
        ),
    )
}


# ---------------------------------------------------------------------------
# environment record
# ---------------------------------------------------------------------------

def _git_commit(root):
    """Commit of a checkout, read from its .git directory (None outside git)."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _blas_info():
    try:
        import threadpoolctl
    except ImportError:
        blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
        return {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    return threadpoolctl.threadpool_info()


def environment():
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas_info(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "platform": platform.platform(),
        "git_commit": _git_commit(ROOT),
        "thread_vars": {v: os.environ.get(v) for v in THREAD_VARS},
    }


# ---------------------------------------------------------------------------
# solving and verification
# ---------------------------------------------------------------------------

def _where(tb):
    frame = traceback.extract_tb(tb)[-1]
    return f"{frame.filename}:{frame.lineno}"


@dataclass
class Solve:
    """One timed ``solve_full`` call and what verification found."""

    seed: int
    seconds: float
    result: sfm.SfmResult | None
    yardstick_s: float = Yardstick.REF_S
    error: str | None = None
    where: str | None = None
    warnings: list = dataclasses.field(default_factory=list)
    failures: list = dataclasses.field(default_factory=list)

    @property
    def ref_seconds(self):
        return self.seconds * Yardstick.REF_S / self.yardstick_s

    def record(self):
        return {
            "instance_seed": self.seed,
            "seconds": self.seconds,
            "yardstick_s": self.yardstick_s,
            "ref_seconds": self.ref_seconds,
            "value": None if self.result is None else self.result.value,
            "error": self.error,
            "where": self.where,
            "warnings": self.warnings,
            "failures": self.failures,
        }


def _call(fn, *args, **kwargs):
    return fn(*args, **kwargs)


def solve(workload, seed, problem, call=_call):
    """Time one ``solve_full`` call, catching the solver's typed errors and warnings.

    ``call`` makes the call; the traced run passes ``Tracer.solve``.
    """
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        t0 = time.perf_counter()
        try:
            res = call(sfm.solve_full, problem, engine=workload.engine, tol=workload.tol)
            error = where = None
        except (InputError, NumericalError) as e:
            res, error, where = None, f"{type(e).__name__}: {e}", _where(e.__traceback__)
        seconds = time.perf_counter() - t0
    numeric = [
        {"message": str(w.message), "where": f"{w.filename}:{w.lineno}"}
        for w in caught
        if issubclass(w.category, RuntimeWarning)
    ]
    return Solve(seed, seconds, res, error=error, where=where, warnings=numeric)


def _rel_close(value, ref, rtol):
    return abs(value - ref) <= rtol * max(1.0, abs(ref))


def audit(problem, res):
    """Checks that need no reference: KKT at the box z implies, and the objective."""
    failures = []
    z = np.asarray(res.z)
    blo = np.where(z == 1, problem.lo, 0.0)
    bup = np.where(z == 1, problem.up, 0.0)
    kkt = boxqp.kkt_residual(problem.quad, blo, bup, res.x)
    kkt_tol = boxqp.KKT_TOL_FACTOR * (1.0 + float(np.abs(problem.quad.a).max(initial=0.0)))
    if not kkt <= kkt_tol:
        failures.append(f"KKT residual {kkt:.3e} above {kkt_tol:.3e}")
    objective = problem.quad.value(res.x) + float(problem.costs @ z)
    if not _rel_close(res.value, objective, OBJECTIVE_RTOL):
        failures.append(f"returned value {res.value!r} but objective at (x, z) is {objective!r}")
    return failures


def verify(workload, solve_rec, problem, reference, brute_value):
    failures = []
    res = solve_rec.result
    if solve_rec.error is not None:
        failures.append(solve_rec.error)
    elif not res.converged:
        failures.append("converged=False")
    if solve_rec.seconds > SOLVE_TIME_LIMIT_S:
        failures.append(f"took {solve_rec.seconds:.1f} s, limit {SOLVE_TIME_LIMIT_S:.0f} s")
    if res is not None:
        if reference is not None and not _rel_close(res.value, reference, REFERENCE_RTOL):
            failures.append(f"value {res.value!r} differs from pinned reference {reference!r}")
        if brute_value is not None and not _rel_close(res.value, brute_value, REFERENCE_RTOL):
            failures.append(f"value {res.value!r} differs from brute force {brute_value!r}")
        failures.extend(audit(problem, res))
    solve_rec.failures = failures
    return not failures


def load_references(name):
    table = json.loads(REFERENCES.read_text())
    return {int(k): float(v) for k, v in table.get(name, {}).items()}


def write_witness(out_dir, workload, inst, solve_rec):
    """Write the instance and what went wrong, replayable with ``submodqp solve``."""
    stem = f"witness_{workload.name}_seed{solve_rec.seed}"
    inst_path = out_dir / f"{stem}.instance.json"
    model.save_instance(inst, inst_path)
    payload = {
        "workload": workload.name,
        "instance_seed": solve_rec.seed,
        "engine": workload.engine,
        "tol": workload.tol,
        "error": solve_rec.error,
        "where": solve_rec.where,
        "warnings": solve_rec.warnings,
        "failures": solve_rec.failures,
        "instance": model.instance_to_json_dict(inst),
        "replay": f"submodqp solve {inst_path.name} --engine {workload.engine} --tol {workload.tol!r}",
    }
    path = out_dir / f"{stem}.json"
    path.write_text(json.dumps(payload, indent=2) + "\n")
    return str(path)


# ---------------------------------------------------------------------------
# one run
# ---------------------------------------------------------------------------

def import_seconds(yard):
    """Reference seconds to import ``submodqp`` in a fresh interpreter.

    The median of ``IMPORT_PROBES`` child interpreters, each timed by itself
    and scaled by a yardstick measured right after it exits.
    """
    samples = []
    for _ in range(IMPORT_PROBES):
        probe = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, str(ROOT / "src")],
            capture_output=True, text=True, check=True, timeout=120,
        )
        samples.append(float(probe.stdout) * Yardstick.REF_S / yard.measure())
    return float(np.median(samples))


def setup(workload, seeds, warmup_seed):
    """Generate and compile the instance set and warm up on a small instance.

    Repeated ``SETUP_REPEATS`` times; returns the last instances, their
    compiled problems and the median set-up wall seconds.
    """
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        insts = [workload.instance(s) for s in seeds]
        problems = [model.compile_instance(inst) for inst in insts]
        warm = model.compile_instance(workload.instance(warmup_seed, dims=workload.warmup_dims))
        sfm.solve_full(warm, engine=workload.engine, tol=workload.tol)
        times.append(time.perf_counter() - t0)
    return insts, problems, float(np.median(times))


def _timed_loop(workload, seeds, insts, problems, seconds, rng, yard):
    """Solve the whole set in passes, each in a fresh seeded order.

    Whole passes keep every instance's share of the solves equal, whatever
    the seed.  Another pass starts while the loop's expected end, at the mean
    pass time so far, stays within ``seconds``: a run makes
    round(seconds / pass time) passes, and at least one.  Each pass after the
    first compiles fresh problems, so no solve sees state an earlier one left
    behind.
    """
    solves = []
    passes = 0
    loop_start = time.perf_counter()
    while True:
        if passes:
            problems = [model.compile_instance(inst) for inst in insts]
        for i in rng.permutation(len(seeds)):
            solves.append((i, problems[i], yard.around(solve, workload, seeds[i], problems[i])))
        passes += 1
        elapsed = time.perf_counter() - loop_start
        if elapsed * (1.0 + 0.5 / passes) >= seconds:
            return solves, passes, elapsed


def _instance_median_of_medians(seeds, solves, seconds_of):
    """Median over instances of each instance's median solve time."""
    per_instance = {}
    for i, _, rec in solves:
        per_instance.setdefault(seeds[i], []).append(seconds_of(rec))
    return float(np.median([np.median(t) for t in per_instance.values()]))


def _percentile_summary(values):
    q = np.percentile(values, [25, 50, 75, 90])
    return {"n": len(values), "p25": q[0], "p50": q[1], "p75": q[2], "p90": q[3]}


def _verify_all(workload, seeds, insts, solves, out_dir):
    refs = load_references(workload.name)
    brute = {}
    witnesses = []
    for i, problem, rec in solves:
        seed = seeds[i]
        ref, bv = refs.get(seed), None
        if workload.brute_force and ref is None and rec.result is not None:
            if seed not in brute:
                brute[seed] = oracle.brute_force(problem).value
            bv = brute[seed]
        ok = verify(workload, rec, problem, ref, bv)
        if not ok or rec.warnings:
            witnesses.append(write_witness(out_dir, workload, insts[i], rec))
    return witnesses, sorted(set(seeds) - set(refs))


def run(workload, seed=0, seconds=40.0, trace=False, instance_seeds=None, out_dir=DEFAULT_OUT):
    """Run one workload; returns (summary line dict, full result dict)."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    seeds = tuple(instance_seeds) if instance_seeds else workload.seeds
    rng = np.random.default_rng(seed)
    yard = Yardstick()
    fresh_import_s = import_seconds(yard)
    before = yard.measure()
    insts, problems, setup_wall_s = setup(workload, seeds, warmup_seed=seed)
    setup_s = fresh_import_s + setup_wall_s * Yardstick.REF_S / (0.5 * (before + yard.measure()))
    if trace:
        return _traced_run(workload, seed, seeds, insts, rng, out_dir, setup_s, yard)

    solves, passes, loop_s = _timed_loop(workload, seeds, insts, problems, seconds, rng, yard)
    witnesses, unpinned = _verify_all(workload, seeds, insts, solves, out_dir)
    attempted = len(solves)
    failed = sum(1 for _, _, rec in solves if rec.failures)
    warned = sum(1 for _, _, rec in solves if rec.warnings)
    ref_p50 = _instance_median_of_medians(seeds, solves, lambda rec: rec.ref_seconds)
    ref_solve_s = sum(rec.ref_seconds for _, _, rec in solves)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "solve_s_p50": (ref_p50, "s"),
        "instances_per_s": ((attempted - failed) / ref_solve_s, "1/s"),
        "setup_s": (setup_s, "s"),
        "verified_frac": ((attempted - failed) / attempted, "frac"),
        "warning_free_frac": ((attempted - warned) / attempted, "frac"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    detail = {
        "failed_frac": failed / attempted,
        "numeric_warnings": sum(len(rec.warnings) for _, _, rec in solves),
        "import_ref_s": fresh_import_s,
        "setup_wall_s": setup_wall_s,
        "passes": passes,
        "loop_s": loop_s,
        "wall_solve_s_p50": _instance_median_of_medians(seeds, solves, lambda rec: rec.seconds),
        "wall_instances_per_s": (attempted - failed) / loop_s,
        "wall_solve_s": _percentile_summary([rec.seconds for _, _, rec in solves]),
        "yardstick_s": _percentile_summary([rec.yardstick_s for _, _, rec in solves]),
    }
    return _finish(workload, seed, seeds, unpinned, False, metrics, detail, solves, witnesses, out_dir)


def _traced_run(workload, seed, seeds, insts, rng, out_dir, setup_s, yard):
    """One untraced and one traced solve per instance, in seeded order.

    The tracing overhead compares reference seconds, so that machine drift
    between the two solves cancels.
    """
    solves = []
    plain_s = traced_s = 0.0
    tracer = spans.Tracer()
    for i in rng.permutation(len(seeds)):
        problem = model.compile_instance(insts[i])
        rec = yard.around(solve, workload, seeds[i], problem)
        plain_s += rec.ref_seconds
        solves.append((i, problem, rec))
        with tracer:
            problem = model.compile_instance(insts[i])
            rec = yard.around(solve, workload, seeds[i], problem, call=tracer.solve)
        traced_s += rec.ref_seconds
        solves.append((i, problem, rec))
    witnesses, unpinned = _verify_all(workload, seeds, insts, solves, out_dir)
    summary = tracer.summary()
    layer_self = spans.layer_self_seconds(summary)
    counts = tracer.counts

    def calls(name):
        return summary[name]["calls"]

    def secs(name):
        return summary[name]["seconds"]

    chain_names = ("pathtrace.chain_general", "pathtrace.chain_nonnegative")
    chains = sum(calls(n) for n in chain_names)
    metrics = {
        "model.compile_s": (secs("model.compile_instance"), "s"),
        "lattice.split_s": (secs("lattice.split"), "s"),
        "lattice.binary_dim": (counts["lattice.binary_dim"], "count"),
        "lattice.zero_cost_frac": (
            counts["lattice.zero_cost_coords"] / max(counts["lattice.binary_dim"], 1), "frac"
        ),
        "sfm.self_s": (layer_self["sfm"], "s"),
        "sfm.chain_calls": (calls("sfm.IndicatorOracle.chain"), "count"),
        "sfm.greedy_calls": (calls("sfm.greedy_subgradient"), "count"),
        "sfm.oracle_evals": (calls("sfm.IndicatorOracle.eval"), "count"),
        "pathtrace.chains": (chains, "count"),
        "pathtrace.chain_s": (sum(secs(n) for n in chain_names), "s"),
        "pathtrace.self_s": (layer_self["pathtrace"], "s"),
        "pathtrace.stages_traced": (calls("pathtrace.trace_path"), "count"),
        "pathtrace.stages_skipped": (counts["pathtrace.stages"] - calls("pathtrace.trace_path"), "count"),
        "pathtrace.breakpoints": (counts["pathtrace.breakpoints"], "count"),
        "cholesky.inserts": (calls("cholesky.insert"), "count"),
        "cholesky.removes": (calls("cholesky.remove"), "count"),
        "cholesky.solves": (calls("cholesky.solve"), "count"),
        "cholesky.insert_s": (secs("cholesky.insert"), "s"),
        "cholesky.remove_s": (secs("cholesky.remove"), "s"),
        "cholesky.solve_s": (secs("cholesky.solve"), "s"),
        "boxqp.solves": (calls("boxqp.solve"), "count"),
        "boxqp.iterations": (counts["boxqp.iterations"], "count"),
        "boxqp.solve_s": (secs("boxqp.solve"), "s"),
        "bench.trace_overhead_frac": (traced_s / plain_s - 1.0, "frac"),
    }
    spans_path = out_dir / f"spans_{workload.name}_seed{seed}.npz"
    tracer.write(spans_path)
    detail = {
        "setup_s": setup_s,
        "untraced_ref_s": plain_s,
        "traced_ref_s": traced_s,
        "spans": str(spans_path),
        "span_summary": summary,
    }
    return _finish(workload, seed, seeds, unpinned, True, metrics, detail, solves, witnesses, out_dir)


def _finish(workload, seed, seeds, unpinned, trace, metrics, detail, solves, witnesses, out_dir):
    failed = sum(1 for _, _, rec in solves if rec.failures)
    line = {
        "correct": failed == 0,
        "attempted": len(solves),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    full = {
        "workload": workload.name,
        "seed": seed,
        "trace": trace,
        "instance_seeds": list(seeds),
        "unpinned_seeds": unpinned,
        "environment": environment(),
        "summary": line,
        "detail": detail,
        "solves": [rec.record() for _, _, rec in solves],
        "witnesses": witnesses,
    }
    path = out_dir / f"result_{workload.name}_seed{seed}_trace{int(trace)}.json"
    path.write_text(json.dumps(full, indent=2, default=float) + "\n")
    full["path"] = str(path)
    return line, full


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------

def _seed_list(text):
    try:
        return [int(v) for v in text.split(",") if v.strip()]
    except ValueError as e:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}") from e


def parse_args(argv):
    p = argparse.ArgumentParser(prog="perfbench", description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0, help="orders the solves and seeds the warm-up")
    p.add_argument("--seconds", type=float, default=40.0, help="length of the timed loop")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument(
        "--instance-seeds", type=_seed_list, default=None,
        help="solve these instance seeds instead of the pinned default set",
    )
    p.add_argument("--out", type=Path, default=DEFAULT_OUT, help="directory for results and witnesses")
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    workload = WORKLOADS[args.workload]
    line, full = run(
        workload, seed=args.seed, seconds=args.seconds, trace=bool(args.trace),
        instance_seeds=args.instance_seeds, out_dir=args.out,
    )
    print(
        f"perfbench {workload.name} seed={args.seed} trace={args.trace}: "
        f"{line['attempted']} solves, {line['failed']} failed -> {full['path']}"
    )
    print(json.dumps(line))
    return 0
