"""Independent verification: brute-force enumeration and a property harness.

:func:`brute_force` solves small indicator problems by enumerating every
original binary assignment and box-QP-solving them in stacks, and
:func:`chain_dp` solves sparse problems with a tridiagonal Q (chain graphs)
of any size by a segment recursion; neither shares a code path with the
chain/SFM machinery beyond the box oracle, so agreement is a real
cross-check.  The box oracle is judged by the KKT audit of every answer.
:func:`run_property_suite` samples random Stieltjes instances and executes
the package-wide invariants on them, reporting the first failing witness per
check as a replayable JSON payload (see :func:`replay_witness`); a draw
that a check's gate excludes counts as a skip, not as a pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import boxqp, pathtrace, sfm
from .exceptions import InputError, NumericalError
from .lattice import bounds_for_binary, prefix_boxes, split
from .model import Graph, IndicatorProblem, QuadraticForm, _as_int_at_least, _as_real
from .sfm import BRUTE_TIE_TOL, IndicatorOracle, SfmResult

BRUTE_GUARD = 14

REGIMES = ("nonnegative", "mixed", "negative")


def brute_force(problem):
    """Exact optimum by enumerating all 2^k assignments of the k indicators.

    Each fixes the box to [l*z, u*z] (z = 1 without an indicator).  The
    boxes are solved ``sfm.EXHAUSTIVE_CHUNK`` at a time by
    :func:`boxqp.solve_many`, in lexicographic order, and a later assignment
    wins only when it is lower by more than ``BRUTE_TIE_TOL``, so ties
    resolve to the lexicographically smallest vector.  Guarded at k <= 14.
    Of the engines' code it shares only the box-QP oracle: not the sign
    split, its open rule or the binary cost.
    """
    indicated = np.flatnonzero(problem.indicated)
    k = indicated.size
    if k > BRUTE_GUARD:
        raise InputError(f"brute force guarded at {BRUTE_GUARD} indicators, got {k}")
    shifts = np.arange(k - 1, -1, -1)
    best_z, best, best_x = None, np.inf, None
    for start in range(0, 1 << k, sfm.EXHAUSTIVE_CHUNK):
        codes = np.arange(start, min(start + sfm.EXHAUSTIVE_CHUNK, 1 << k))
        z = np.ones((codes.size, problem.n), dtype=int)
        z[:, indicated] = (codes[:, None] >> shifts) & 1
        sol = boxqp.solve_many(problem.quad, *problem.box(z))
        vals = sol.value + z @ problem.costs
        for i in (vals < best - BRUTE_TIE_TOL).nonzero()[0].tolist():
            if vals[i] < best - BRUTE_TIE_TOL:
                best_z, best, best_x = z[i], float(vals[i]), sol.x[i]
    return SfmResult(
        z=best_z,
        value=float(best),
        x=best_x,
        certificate=0.0,
        engine="brute_force",
        discarded=problem.discarded(best_z),
    )


def chain_dp(problem):
    """Exact optimum of a sparse problem with a tridiagonal Q, by segment DP.

    A closed variable (x_i = 0) cuts a tridiagonal Q in two, so the objective
    is k0 plus, over each maximal run of open variables, the run's box-QP
    value on [l, u] and its costs.  ``best[k]`` is the optimum over the
    variables before k - 1 with variable k - 1 closed (k = 0 and k = n + 1
    are sentinels); it is the least ``best[i] + run(i..k-2)`` over the
    previous closed position.  That is O(n^2) :func:`boxqp.solve` calls,
    one per run on its own diagonal block of Q, so, like :func:`brute_force`,
    the judge shares only the box oracle with the solver, at any n.  Every bound regime works
    as is: a straddling variable is simply open in the original z.
    """
    Q, a, lo, up = problem.quad.Q, problem.quad.a, problem.lo, problem.up
    if problem.mode != "sparse" or np.any(np.triu(Q, 2)):
        raise InputError("chain_dp needs a sparse-mode problem with a tridiagonal Q")
    n = problem.n
    best = np.full(n + 2, np.inf)
    best[0] = 0.0
    choice = [None] * (n + 2)  # (previous closed position, run minimizer)
    for k in range(1, n + 2):
        for i in range(k):
            run = slice(i, k - 1)
            val, x_run = best[i], np.zeros(0)
            if i < k - 1:
                sol = boxqp.solve(QuadraticForm(Q[run, run], a[run]), lo[run], up[run])
                val, x_run = val + sol.value + float(problem.costs[run].sum()), sol.x
            if val < best[k]:
                best[k], choice[k] = val, (i, x_run)
    z, x = np.zeros(n, dtype=int), np.zeros(n)
    k = n + 1
    while k:
        i, x_run = choice[k]
        z[i : k - 1], x[i : k - 1] = 1, x_run
        k = i
    return SfmResult(
        z=z,
        value=float(best[n + 1] + problem.quad.k0),
        x=x,
        certificate=0.0,
        engine="chain_dp",
        discarded=problem.discarded(z),
    )


@dataclass(frozen=True)
class InstanceSampler:
    """Reproducible random Stieltjes indicator problems.

    Q is the Laplacian of a random weighted graph (:meth:`Graph.laplacian`)
    plus a diagonal margin of at least 1e-3, so it is a Stieltjes matrix, as
    :class:`QuadraticForm` requires.  Regimes
    steer the bounds: ``nonnegative`` (0 <= l <= u), ``negative``
    (l <= u <= 0) and ``mixed`` (each variable draws one of the three
    patterns, exercising every split branch).  Draws are deterministic in
    (seed, trial).  ``n`` must be a positive integer, ``seed`` and each
    ``trial`` nonnegative ones, and ``density`` a real number in [0, 1];
    anything else raises :class:`InputError`.
    """

    n: int = 6
    density: float = 0.5
    regime: str = "mixed"
    seed: int = 0

    def __post_init__(self):
        if self.regime not in REGIMES:
            raise InputError(f"regime must be one of {REGIMES}")
        object.__setattr__(self, "n", _as_int_at_least(self.n, "n", 1))
        object.__setattr__(self, "seed", _as_int_at_least(self.seed, "seed", 0))
        object.__setattr__(self, "density", _as_real(self.density, "density"))
        if not 0.0 <= self.density <= 1.0:  # NaN fails both comparisons
            raise InputError(f"density must lie in [0, 1], got {self.density!r}")

    def draw(self, trial):
        rng = np.random.default_rng([self.seed, _as_int_at_least(trial, "trial", 0)])
        n = self.n
        edges = [(i, j, rng.uniform(0.1, 1.0)) for i in range(n) for j in range(i + 1, n)
                 if rng.random() < self.density]  # the test draws before the weight
        Q = Graph(n, edges).laplacian()
        Q[np.diag_indices(n)] += 1e-3 + rng.uniform(0.2, 2.0, size=n)
        a = rng.normal(0.0, 1.5, size=n)
        c = rng.uniform(0.0, 1.0, size=n)
        lo = np.empty(n)
        up = np.empty(n)
        for i in range(n):
            r = self.regime
            if r == "mixed":
                r = ("nonnegative", "negative", "straddle")[rng.integers(3)]
            if r == "nonnegative":
                lo[i] = rng.choice([0.0, rng.uniform(0.0, 0.4)])
                up[i] = lo[i] + rng.uniform(0.5, 2.5)
            elif r == "negative":
                up[i] = -rng.choice([0.0, rng.uniform(0.0, 0.4)])
                lo[i] = up[i] - rng.uniform(0.5, 2.5)
            else:
                lo[i] = -rng.uniform(0.3, 2.0)
                up[i] = rng.uniform(0.3, 2.0)
        return IndicatorProblem(QuadraticForm(Q, a), c, lo, up)


@dataclass
class CheckOutcome:
    name: str
    passes: int = 0
    skipped: int = 0
    failures: list = field(default_factory=list)

    @property
    def ok(self):
        return not self.failures


@dataclass
class PropertyReport:
    trials: int
    checks: dict

    @property
    def ok(self):
        return all(c.ok for c in self.checks.values())

    def summary_lines(self):
        lines = []
        for name, c in sorted(self.checks.items()):
            state = "ok" if c.ok else f"FAIL ({len(c.failures)} witnesses)"
            lines.append(f"{name:32s} passes={c.passes:<5d} skipped={c.skipped:<5d} {state}")
        return lines

    def to_json_dict(self):
        return {
            "trials": self.trials,
            "ok": self.ok,
            "checks": {
                name: {"passes": c.passes, "skipped": c.skipped, "failures": c.failures}
                for name, c in self.checks.items()
            },
        }


def _witness(problem, **extra):
    w = {"instance": problem.to_json_dict()}
    w.update(extra)
    return w


# --- individual checks: (ok, detail_or_None), or (None, None) on a skip -------

def _qnorm(Q, d):
    """sqrt(d^T Q d), the norm in which the objective sees a move d, and in
    which the checks measure gaps between minimizers: a robust problem's
    ridge leaves Q conditioned near 1 / ``model.RIDGE``, so roundoff alone
    moves x by far more than 1e-8 along its soft directions."""
    return math.sqrt(max(float(d @ Q @ d), 0.0))  # roundoff may dip below 0


def _check_boxqp_kkt(problem, rng):
    """The box QP's minimizer on the problem's box, and every stage end of
    the problem's chain (:func:`_chain_for`) in its stage box, pass the KKT
    audit within :func:`boxqp.kkt_tolerance`.  The solver audits its own
    answer, but no solver audits a traced stage end."""
    tol = boxqp.kkt_tolerance(problem.quad)
    sol = boxqp.solve(problem.quad, problem.lo, problem.up)
    res = boxqp.kkt_residual(problem.quad, problem.lo, problem.up, sol.x)
    if not res <= tol:
        return False, {"residual": res, "tol": tol}
    smap, vc = _chain_for(problem)
    for k, (x, lo, up) in enumerate(zip(vc.minimizers, *prefix_boxes(smap, vc.order))):
        res = boxqp.kkt_residual(problem.quad, lo, up, x)
        if not res <= tol:
            return False, {"stage": k, "residual": res, "tol": tol}
    return True, None


def _check_boxqp_permutation(problem, rng):
    """Solving a symmetrically permuted problem gives the permuted
    minimizer, to 1e-8 in the Q-norm (:func:`_qnorm`)."""
    n = problem.n
    perm = rng.permutation(n)
    sol = boxqp.solve(problem.quad, problem.lo, problem.up)
    qp = QuadraticForm(
        problem.quad.Q[np.ix_(perm, perm)], problem.quad.a[perm], problem.quad.k0
    )
    solp = boxqp.solve(qp, problem.lo[perm], problem.up[perm])
    back = np.empty(n)
    back[perm] = solp.x
    gap = _qnorm(problem.quad.Q, back - sol.x)
    return gap <= 1e-8, None if gap <= 1e-8 else {"gap": gap, "perm": perm.tolist()}


def _check_boxqp_isotone(problem, rng):
    i = int(rng.integers(problem.n))
    delta = float(rng.uniform(0.1, 1.0))
    base = boxqp.solve(problem.quad, problem.lo, problem.up).x
    a2 = problem.quad.a.copy()
    a2[i] += delta
    bumped = boxqp.solve(QuadraticForm(problem.quad.Q, a2, problem.quad.k0), problem.lo, problem.up).x
    drop = float(np.max(base - bumped))
    return drop <= 1e-10, None if drop <= 1e-10 else {"i": i, "delta": delta, "drop": drop}


def _chain_for(problem):
    """The sign split of ``problem`` and its chain in ascending coordinate order."""
    smap, _ = split(problem)
    return smap, pathtrace.chain_general(problem.quad, smap, range(smap.binary_dim))


def _check_chain_matches_oracle(problem, rng):
    """Every value of the problem's chain (:func:`_chain_for`) equals its
    prefix box's value, all solved in one stack, to 1e-8."""
    smap, vc = _chain_for(problem)
    gaps = np.abs(boxqp.solve_many(problem.quad, *prefix_boxes(smap, vc.order)).value - vc.values)
    at = int(gaps.argmax())
    worst = float(gaps[at])
    return worst <= 1e-8, None if worst <= 1e-8 else {"worst_gap": worst, "stage": at}


def _check_chain_memo(problem, rng):
    """Two chains of one oracle that share prefix sets: every value is F to
    1e-9 (:meth:`chain_naive`), and a set reached by both orders gets the same bits."""
    oracle = IndicatorOracle(problem)
    m = oracle.m
    first = rng.permutation(m)
    second = first.copy()
    half = min(m // 2, m - 2)
    if half >= 0:  # swap two positions in the second half
        i, j = rng.choice(np.arange(half, m), size=2, replace=False)
        second[[i, j]] = second[[j, i]]
    seen = {}
    for order in (first, second):
        values = oracle.chain(order)
        for k, (f, ref) in enumerate(zip(values.tolist(), oracle.chain_naive(order).tolist())):
            if abs(f - ref) > 1e-9 * (1.0 + abs(ref)):
                return False, {"order": order.tolist(), "stage": k, "value": f, "ref": ref}
            key = frozenset(order[:k].tolist())
            if seen.setdefault(key, f) != f:
                return False, {"order": order.tolist(), "stage": k, "value": f, "first": seen[key]}
    return True, None


def _check_monotone_path(problem, rng):
    _, vc = _chain_for(problem)
    pts = vc.iterate_sequence()
    for t in range(1, len(pts)):
        drop = float(np.max(pts[t - 1] - pts[t]))
        if drop > 1e-10:
            return False, {"step": t, "drop": drop}
    return True, None


def _check_breakpoint_budget(problem, rng):
    _, vc = _chain_for(problem)
    general = np.any(problem.lo < 0)  # a straddling variable has l < 0 too
    budget = (4 if general else 2) * problem.n
    count = len(vc.breakpoints)
    return count <= budget, None if count <= budget else {"count": count, "budget": budget}


def _check_value_submodular(problem, rng):
    smap, _ = split(problem)
    m = smap.binary_dim
    if m > 10:
        return None, None  # too large to enumerate here; covered at small dims
    codes = np.arange(2**m)  # at most sfm.EXHAUSTIVE_CHUNK, so one stack
    blo, bup = bounds_for_binary(smap, (codes[:, None] >> np.arange(m - 1, -1, -1)) & 1)
    vals = boxqp.solve_many(problem.quad, blo, bup).value
    p, q = codes[:, None], codes[None, :]
    lhs, rhs = vals[p] + vals[q], vals[p & q] + vals[p | q]
    bad = np.argwhere((lhs < rhs - 1e-8) & (p < q))  # row-major: the first p, then q
    if bad.size:
        p, q = bad[0].tolist()
        return False, {"pair": [p, q], "lhs": float(lhs[p, q]), "rhs": float(rhs[p, q])}
    return True, None


def _check_lovasz_vertices(problem, rng):
    """The Lovász extension equals F, to 1e-8, at the empty set, the full set
    and eight vertices drawn from ``rng``: F by :meth:`IndicatorOracle.eval_many`,
    stacked box QPs that share no code with the traced chain the extension
    reads."""
    oracle = IndicatorOracle(problem)
    m = oracle.m
    vertices = np.vstack([np.zeros(m), np.ones(m), rng.integers(2, size=(8, m))])
    for z, f in zip(vertices, oracle.eval_many(vertices).tolist()):
        gap = abs(sfm.lovasz(oracle, z) - f)
        if gap > 1e-8:
            return False, {"vertex": z.astype(int).tolist(), "gap": gap}
    return True, None


def _check_lovasz_convexity(problem, rng):
    oracle = IndicatorOracle(problem)
    z1 = rng.random(oracle.m)
    z2 = rng.random(oracle.m)
    lam = float(rng.uniform(0.1, 0.9))
    mid = sfm.lovasz(oracle, lam * z1 + (1 - lam) * z2)
    bound = lam * sfm.lovasz(oracle, z1) + (1 - lam) * sfm.lovasz(oracle, z2)
    ok = mid <= bound + 1e-8
    return ok, None if ok else {"mid": mid, "bound": bound, "lambda": lam}


def _check_mnp_matches_exhaustive(problem, rng):
    if split(problem)[0].binary_dim > 12:
        return None, None
    ex = sfm.solve_full(problem, engine="exhaustive")
    mn = sfm.solve_full(problem, engine="mnp")
    gap = abs(ex.value - mn.value)
    ok = gap <= 1e-6 and mn.converged
    detail = {"gap": gap, "exhaustive": ex.value, "mnp": mn.value, "mnp_certificate": mn.certificate}
    return ok, None if ok else detail


def _check_brute_matches_solver(problem, rng):
    if problem.n > 10:
        return None, None
    bf = brute_force(problem)
    ex = sfm.solve_full(problem, engine="exhaustive")
    gap = abs(bf.value - ex.value)
    return gap <= 1e-6, None if gap <= 1e-6 else {"gap": gap}


def _check_chain_dp(problem, rng):
    """The segment DP equals brute force on the tridiagonal part of Q.

    Zeroing the entries off the tridiagonal removes only nonpositive
    off-diagonal entries, so Q stays Stieltjes.
    """
    if problem.mode != "sparse" or problem.n > 10:
        return None, None
    quad = problem.quad
    tri = replace(problem, quad=QuadraticForm(np.triu(np.tril(quad.Q, 1), -1), quad.a, quad.k0))
    dp, bf = chain_dp(tri).value, brute_force(tri).value
    ok = abs(dp - bf) <= 1e-9 * (1.0 + abs(bf))
    return ok, None if ok else {"chain_dp": dp, "brute_force": bf}


def _check_segment_affine(problem, rng):
    """The path is affine between consecutive points of a stage's path: over
    each pair where the parametric coordinate rises, the stage's minimizer
    with it pinned 1/4, 1/2 and 3/4 of the way lies on the chord to 1e-8 in
    the Q-norm (:func:`_qnorm`).  A chain with no such pair is skipped."""
    smap, vc = _chain_for(problem)
    sampled = False
    blos, bups = prefix_boxes(smap, vc.order)
    for k, c in enumerate(vc.order, start=1):
        j = smap.var[c]
        blo, bup = blos[k], bups[k]  # stage k's box, pinned at j below
        path = vc.stage_path(k)
        for p0, p1 in zip(path, path[1:]):
            if p1[j] - p0[j] <= 1e-9:
                continue
            sampled = True
            for frac in (0.25, 0.5, 0.75):
                blo[j] = bup[j] = x = p0[j] + frac * (p1[j] - p0[j])
                mid = boxqp.solve(problem.quad, blo, bup).x
                gap = _qnorm(problem.quad.Q, mid - (p0 + frac * (p1 - p0)))
                if gap > 1e-8:
                    return False, {"stage": k, "x": x, "gap": gap}
    return (True, None) if sampled else (None, None)


CHECKS = {
    "boxqp_kkt": _check_boxqp_kkt,
    "boxqp_permutation_invariance": _check_boxqp_permutation,
    "boxqp_isotonicity": _check_boxqp_isotone,
    "chain_matches_oracle": _check_chain_matches_oracle,
    "chain_memo_consistent": _check_chain_memo,
    "monotone_path": _check_monotone_path,
    "breakpoint_budget": _check_breakpoint_budget,
    "value_function_submodular": _check_value_submodular,
    "lovasz_vertex_exactness": _check_lovasz_vertices,
    "lovasz_convexity": _check_lovasz_convexity,
    "mnp_matches_exhaustive": _check_mnp_matches_exhaustive,
    "brute_matches_solver": _check_brute_matches_solver,
    "chain_dp_matches_brute_force": _check_chain_dp,
    "segment_affinity": _check_segment_affine,
}


def _run_check(check, problem, rng):
    """``check``'s (ok, detail); a typed error fails it, its message the detail."""
    try:
        return check(problem, rng)
    except (InputError, NumericalError) as e:
        return False, {"error": f"{type(e).__name__}: {e}"}


def run_property_suite(sampler, trials):
    """Run every registered invariant on ``trials`` sampled instances.

    Failures never raise: each produces a replayable witness (instance JSON
    plus check name and detail) in the report.  Each check gets its own
    generator ``default_rng([seed, trial, 7])``, so a witness replays the
    exact probes that failed (:func:`replay_witness`).  A check that raises
    :class:`InputError` or :class:`NumericalError` fails with the detail
    ``{"error": "<type>: <message>"}``, and the remaining checks still run.
    A check that returns ``(None, None)`` counts in ``skipped``, not in
    ``passes``.  Every check runs on every draw: a drawn Q is Stieltjes
    because :class:`QuadraticForm` admits no other, and a sampler that draws
    one that is not raises :class:`InputError` at the draw.
    """
    trials = _as_int_at_least(trials, "trials", 1)
    report = PropertyReport(trials=trials, checks={n: CheckOutcome(n) for n in CHECKS})
    seed = _as_int_at_least(getattr(sampler, "seed", 0), "sampler seed", 0)
    for t in range(trials):
        problem = sampler.draw(t)
        for name, check in CHECKS.items():
            ok, detail = _run_check(check, problem, np.random.default_rng([seed, t, 7]))
            if ok is None:
                report.checks[name].skipped += 1
            elif ok:
                report.checks[name].passes += 1
            else:
                report.checks[name].failures.append(
                    _witness(problem, check=name, trial=t, seed=seed, detail=detail)
                )
    return report


def replay_witness(witness):
    """Re-run the named check on a witness payload; returns (ok, detail),
    ``(None, None)`` when the check skips the instance.

    A payload that is not a dict, whose ``"instance"`` is not a dict or
    whose ``"check"`` names no check, or whose ``"seed"`` or ``"trial"`` is
    not a nonnegative integer raises :class:`InputError`;
    a check that raises fails as it does in :func:`run_property_suite`.
    """
    if not (isinstance(witness, dict) and isinstance(witness.get("instance"), dict)):
        raise InputError("a witness must be a JSON object with an \"instance\" object")
    name = witness.get("check")
    if not (isinstance(name, str) and name in CHECKS):
        raise InputError(f"unknown check {name!r} in the witness's \"check\"")
    seed = _as_int_at_least(witness.get("seed", 0), "witness seed", 0)
    trial = _as_int_at_least(witness.get("trial", 0), "witness trial", 0)
    problem = IndicatorProblem.from_json_dict(witness["instance"])
    return _run_check(CHECKS[name], problem, np.random.default_rng([seed, trial, 7]))
