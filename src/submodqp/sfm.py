"""Binary submodular minimization over the reformulated indicator problem.

Two engines minimize ``F(z) = v(z) + cost(z)`` over the split hypercube:

* ``exhaustive`` enumerates every binary vector (small dimensions only).  It
  is not the judge of correctness: :func:`submodqp.oracle.brute_force` and
  :func:`submodqp.oracle.chain_dp` are, sharing with it only the box-QP
  oracle, which audits every answer it gives.  It walks the codes 0 ... 2^m - 1 in lexicographic order,
  ``EXHAUSTIVE_CHUNK`` at a time, and evaluates each chunk with one
  :meth:`SubmodularOracle.eval_many` call: for an indicator problem, one
  stacked box-QP solve (:func:`boxqp.solve_many`) whose Newton steps are
  solved in groups of equal free-block size; the chunk bounds its memory.
  A tie keeps the first vector found: a later one wins only when it is
  lower by more than ``BRUTE_TIE_TOL``, the rule of a one-by-one scan;
* ``mnp`` runs Wolfe's minimum-norm-point algorithm over the base polytope of
  F, using the greedy subgradient as its linear-optimization oracle.  Each
  greedy call needs one full value chain, which the path tracer delivers in
  the cost of a single evaluation; that is what makes the method practical.
  One chain gives both F(∅), its first value, and the greedy vertex w, its
  differences, so the Lovász extension F(∅) + <w, z> (:func:`lovasz`) is
  one chain too.  MNP takes F(∅) from its first greedy call, and one
  box-QP solve gives its answer's value and x.  :class:`IndicatorOracle`
  remembers F by prefix set (up to ``MEMO_ENTRIES`` sets, oldest dropped
  first), so a chain is traced only up to its last prefix set that no
  earlier chain reached, and the tail is read back.  The first value
  computed for a set is the one every later chain gets, which keeps F one
  set function across MNP's cycles.

:func:`solve_full` wires everything together for a compiled indicator
problem: oracle construction (with its sign split), minimization, and
recovery of the original indicator vector and continuous minimizer.
Variables with no indicator (the signals of a robust problem) and those
whose indicator cannot change the optimum get no binary coordinate (the
open rule of :func:`submodqp.lattice.split`).
"""

from __future__ import annotations

import itertools
import logging
from dataclasses import asdict, dataclass, replace
from functools import cached_property

import numpy as np

from . import boxqp, pathtrace
from .exceptions import InputError, NumericalError
from .lattice import bounds_for_binary, split

EXHAUSTIVE_GUARD = 20  # 2^20 codes take about 10 s on a 10-vertex robust chain
# codes per eval_many call of minimize_exhaustive, which bounds the rows of
# every stacked box-QP solve it makes; the judges in oracle stack as many
EXHAUSTIVE_CHUNK = 1 << 10
BRUTE_TIE_TOL = 1e-9
MEMO_ENTRIES = 1 << 16  # prefix sets an IndicatorOracle remembers F for
# major cycles allowed to minimize_mnp: 20m + 100 for m coordinates
_CYCLES_PER_COORDINATE, _CYCLES_SPARE = 20, 100

_log = logging.getLogger(__name__)


@dataclass(slots=True)
class SolveStats:
    """An oracle's work counters, its ``stats``: chains, their traced and
    memo-answered stages, and box QPs solved, one per row of a stack, with
    their projected Newton iterations."""

    chains: int = 0
    stages_traced: int = 0
    stages_memo: int = 0
    boxqp_solves: int = 0
    boxqp_iterations: int = 0


@dataclass
class SfmResult:
    """Outcome of one binary submodular minimization.

    ``certificate`` is the duality gap, ``value`` minus a lower bound on
    min F (0.0 for enumeration); ``converged`` means the gap certifies
    ``value`` as the minimum to within :func:`gap_tolerance`.  ``stats``
    holds the oracle's work counters as the engine returned.
    """

    z: np.ndarray
    value: float
    x: np.ndarray | None
    certificate: float
    engine: str
    converged: bool = True
    discarded: list | None = None
    stats: SolveStats | None = None

    def to_json_dict(self):
        return {
            "z": [int(v) for v in self.z],
            "x": None if self.x is None else [float(v) for v in self.x],
            "value": float(self.value),
            "certificate": float(self.certificate),
            "engine": self.engine,
            "converged": bool(self.converged),
            "discarded": self.discarded,
            "stats": None if self.stats is None else asdict(self.stats),
        }


def prefix_sets(order, m):
    """The ``(len(order) + 1, m)`` int matrix whose row k is the indicator of
    ``order[:k]``, for an ``order`` that :func:`pathtrace.check_order` admits."""
    order = pathtrace.check_order(order, m)
    z = np.zeros((len(order) + 1, m), dtype=int)
    z[:, order] = np.tri(len(order) + 1, len(order), -1, dtype=int)
    return z


class SubmodularOracle:
    """Evaluation contract for a submodular set function F on {0,1}^m.

    Subclasses implement :meth:`eval`.  :meth:`eval_many` evaluates the rows
    of a stack, :meth:`chain` returns the m+1 values of F along the prefixes
    of a permutation, F(∅) first, and :meth:`eval_x` F with the continuous
    minimizer behind it (None by default); the defaults make single
    evaluations, fast implementations override them.  :meth:`chain_naive`,
    the default :meth:`chain`, is one :meth:`eval_many` of the m+1 prefix
    sets (:func:`prefix_sets`): for an indicator problem, one stacked solve
    of the m+1 prefix boxes.  Each oracle counts its work in ``stats``.
    """

    def __init__(self, m):
        self.m = int(m)
        self.stats = SolveStats()

    def eval(self, zbin):
        raise NotImplementedError

    def eval_x(self, zbin):
        return self.eval(zbin), None

    def eval_many(self, zbins):
        return np.array([self.eval(z) for z in zbins], dtype=float)

    def chain(self, order):
        values = self.chain_naive(order)  # counted once its order is valid
        self.stats.chains += 1
        self.stats.stages_traced += len(values) - 1
        return values

    def chain_naive(self, order):
        return self.eval_many(prefix_sets(order, self.m))


class FunctionOracle(SubmodularOracle):
    """Wrap a plain callable on binary vectors."""

    def __init__(self, fun, m):
        super().__init__(m)
        self.fun = fun

    def eval(self, zbin):
        return float(self.fun(np.asarray(zbin)))


class IndicatorOracle(SubmodularOracle):
    """F(z) = v(z) + binary cost for a compiled indicator problem.

    ``v`` is evaluated by the box-QP oracle and every chain is traced by
    :func:`pathtrace.chain_general`, both on the bounds as given, infinite
    ones included: no box-QP minimizer or traced point reaches an infinite
    bound, and the problem admits no box without a finite point.  The ground
    set is the oracle's own sign split of ``problem`` (``smap``, which holds
    the bounds, with binary cost ``bincost``): the always-open variables of
    :func:`submodqp.lattice.split` get no coordinate and keep their box
    [l, u] under every assignment; every other variable has one or two
    coordinates.

    :meth:`chain` remembers F by prefix set.  ``memo`` maps each set, keyed
    exactly as the int bitmask of its coordinates (never a hash, whose
    collisions would hand MNP a wrong vertex), to the first F value computed
    for it, and every later chain reads that value: F stays one set
    function across chains, as Wolfe's method assumes.  A chain is traced
    only up to its last prefix set that ``memo`` does not hold, and the rest
    of it, the tail, is read from ``memo``.  ``memo`` holds at most
    ``MEMO_ENTRIES`` sets and drops the oldest first; a dropped set is
    valued afresh when it is next traced.  A chain reads all its prefix sets
    before it inserts the ones it lacked.  The memo lives as long as the
    oracle, which is one :func:`solve_full`.  :meth:`eval`, :meth:`eval_x`
    and :meth:`eval_many` do not use it.
    """

    def __init__(self, problem):
        self.quad = problem.quad
        self.smap, self.bincost = split(problem)
        super().__init__(self.smap.binary_dim)
        self.memo = {}

    def _solve(self, zbin):
        """The box QP under ``zbin``, solved alone and counted."""
        blo, bup = bounds_for_binary(self.smap, zbin)
        sol = boxqp.solve(self.quad, blo, bup)
        self.stats.boxqp_solves += 1
        self.stats.boxqp_iterations += sol.iterations
        return sol

    @cached_property
    def stage0(self):
        """Box-QP solution with every coordinate off: where chains start."""
        sol = self._solve(np.zeros(self.m, dtype=int))
        sol.x.flags.writeable = False  # shared by every chain
        return sol

    def eval(self, zbin):
        return self.eval_x(zbin)[0]

    def eval_x(self, zbin):
        sol = self._solve(zbin)
        return sol.value + self.bincost(zbin), sol.x

    def eval_many(self, zbins):
        """F on each row of ``zbins``, by one stacked box-QP solve."""
        zbins = np.asarray(zbins)
        blo, bup = bounds_for_binary(self.smap, zbins)
        sol = boxqp.solve_many(self.quad, blo, bup)
        self.stats.boxqp_solves += sol.iterations.size
        self.stats.boxqp_iterations += int(sol.iterations.sum())
        return sol.value + (zbins @ self.bincost.linear + self.bincost.constant)

    def chain(self, order):
        order = pathtrace.check_order(order, self.m)
        # prefix-set bitmasks: the bits are distinct, so the sums are unions
        keys = [0, *itertools.accumulate(1 << c for c in order)]
        memo = self.memo
        values = [memo.get(key) for key in keys]  # all read before any insertion
        missing = [k for k, f in enumerate(values) if f is None]
        traced = missing[-1] if missing else 0  # stages up to the last set memo lacks
        self.stats.chains += 1
        self.stats.stages_traced += traced
        self.stats.stages_memo += len(order) - traced
        if missing:
            head = order[:traced]
            costs = np.concatenate([[0.0], np.cumsum(self.bincost.linear[head])])
            vc = pathtrace.chain_general(self.quad, self.smap, head, stage0=self.stage0)
            fresh = (vc.values + costs + self.bincost.constant).tolist()
            for k in missing:
                if len(memo) >= MEMO_ENTRIES:
                    del memo[next(iter(memo))]
                memo[keys[k]] = values[k] = fresh[k]
        return np.array(values)


def _finite(values, subset):
    """``values`` of F, each checked finite (:class:`NumericalError` names the
    first set that fails); ``subset(k)`` lists the coordinates of ``values[k]``'s set."""
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        k = int(bad[0])
        raise NumericalError(f"F is {values[k]} on the set {sorted(subset(k))}, not finite")
    return values


def greedy_subgradient(oracle, zfrac):
    """F(∅) and the greedy vertex w of the base polytope at zfrac, from one chain.

    Sorts zfrac nonincreasing (stable, so ties keep ascending index order),
    asks for one chain along that order, and returns its first value, F(∅),
    with its consecutive differences scattered back to their coordinates as
    w.  Only the order of zfrac matters, and a zfrac that is not finite
    raises :class:`InputError`.  ``F(∅) + <w, z>`` equals the Lovász
    extension at every z in [0, 1]^m that this order sorts nonincreasing,
    zfrac among them (:func:`lovasz`); for a submodular F it lies below the
    extension everywhere else.
    """
    zfrac = np.asarray(zfrac, dtype=float)
    if zfrac.shape != (oracle.m,):
        raise InputError(f"zfrac must have length {oracle.m}")
    if not np.isfinite(zfrac).all():
        raise InputError("zfrac must be finite")
    order = np.argsort(-zfrac, kind="stable")
    values = _finite(oracle.chain(order), lambda k: order[:k].tolist())
    w = np.zeros(oracle.m)
    w[order] = np.diff(values)
    return float(values[0]), w


def lovasz(oracle, zfrac):
    """The Lovász extension of F at zfrac in [0, 1]^m: F(∅) + <w, zfrac>, with
    F(∅) and w from the one chain of :func:`greedy_subgradient`.  It equals F
    at every vertex of the cube; an entry outside [0, 1] by more than 1e-12
    raises :class:`InputError`."""
    zfrac = np.asarray(zfrac, dtype=float)
    if not np.all((zfrac >= -1e-12) & (zfrac <= 1.0 + 1e-12)):  # NaN fails too
        raise InputError("zfrac entries must lie in [0, 1]")
    f0, w = greedy_subgradient(oracle, zfrac)
    return f0 + float(w @ zfrac)


def minimize_exhaustive(oracle):
    """Enumerate every binary vector; ties resolve to the first in lex order.

    The codes 0 ... 2^m - 1 are read with the first coordinate as the most
    significant bit, which is lexicographic order, and evaluated
    ``EXHAUSTIVE_CHUNK`` at a time by :meth:`SubmodularOracle.eval_many`
    (for an indicator problem, one :func:`boxqp.solve_many` call per
    chunk).  The scan then keeps one-by-one semantics across chunks: a
    vector replaces the incumbent only when its value is below the
    incumbent's by more than ``BRUTE_TIE_TOL``.  (This is
    not the first vector within ``BRUTE_TIE_TOL`` of the minimum: a chain of
    near-ties can walk further.)  Only the codes of a chunk below the
    incumbent it started with, less ``BRUTE_TIE_TOL``, can replace it, so
    the scan visits just those, in order.  A value of F that is not finite
    raises :class:`NumericalError`.  The oracle's counters are logged at DEBUG.
    """
    m = oracle.m
    if m > EXHAUSTIVE_GUARD:
        raise InputError(f"exhaustive enumeration guarded at m <= {EXHAUSTIVE_GUARD}, got {m}")
    shifts = np.arange(m - 1, -1, -1)
    best_code, best = 0, np.inf
    for start in range(0, 1 << m, EXHAUSTIVE_CHUNK):
        codes = np.arange(start, min(start + EXHAUSTIVE_CHUNK, 1 << m))
        zbins = (codes[:, None] >> shifts) & 1
        values = _finite(oracle.eval_many(zbins), lambda k: np.flatnonzero(zbins[k]).tolist())
        for i in (values < best - BRUTE_TIE_TOL).nonzero()[0].tolist():
            if values[i] < best - BRUTE_TIE_TOL:
                best_code, best = start + i, float(values[i])
    best_z = (best_code >> shifts) & 1
    res = SfmResult(
        z=best_z,
        value=float(best),
        x=oracle.eval_x(best_z)[1],
        certificate=0.0,
        engine="exhaustive",
        stats=replace(oracle.stats),
    )
    _log.debug("exhaustive: %d codes, %s", 1 << m, res.stats)
    return res


def _affine_minimizer(S):
    """Minimum-norm point of the affine hull of the rows of S (plus coeffs)."""
    k = S.shape[0]
    M = np.empty((k + 1, k + 1))
    M[0, 0] = 0.0
    M[0, 1:] = M[1:, 0] = 1.0
    M[1:, 1:] = S @ S.T
    rhs = np.zeros(k + 1)
    rhs[0] = 1.0
    try:
        coeff = np.linalg.solve(M, rhs)[1:]
    except np.linalg.LinAlgError as e:
        raise NumericalError(f"affine minimizer of a corral of {k} atoms failed: {e}") from None
    return coeff, S.T @ coeff


def _require_tol(tol):
    if not 0.0 <= tol < np.inf:  # NaN fails both comparisons
        raise InputError(f"tol must be finite and nonnegative, got {tol!r}")


def gap_tolerance(value, tol):
    """Largest duality gap that certifies ``value`` as the minimum.

    It is ``tol`` relative to 1 + |value|, but never below
    ``BRUTE_TIE_TOL``, the noise floor at which enumeration already treats
    two values as tied.
    """
    return max(BRUTE_TIE_TOL, tol) * (1.0 + abs(value))


def minimize_mnp(oracle, tol=1e-9):
    """Wolfe's minimum-norm-point method over the base polytope of F.

    The greedy subgradient serves as the linear-optimization oracle (one
    value chain per major cycle); the first chain, greedy's at zfrac = 1/2,
    also gives F(∅).  The minimal minimizer of F is the level
    set {x* < 0} of the min-norm point x* (Fujishige's theorem), and level
    sets of an approximate x round well too (Chakrabarty, Jain & Kothari
    2014).  The loop stops after 20m + 100 major cycles at most.  The last
    chain ran along ascending x (the previous iterate's when that cap ends
    the loop), so it holds F on every level set: the result is its shortest
    prefix within ``BRUTE_TIE_TOL`` of its minimum, valued with its x by
    one :meth:`SubmodularOracle.eval_x`.  ``certificate`` is the duality gap
    value − F(∅) − Σ min(x_i, 0), and ``converged`` means it is at most
    :func:`gap_tolerance`.  ``tol`` must be finite and nonnegative
    (:class:`InputError` otherwise); a value of F that is not finite raises
    :class:`NumericalError`.
    """
    _require_tol(tol)
    m = oracle.m
    if m == 0:
        raise InputError("empty ground set")
    zfrac = np.full(m, 0.5)  # greedy's order for it is ascending index
    f0, q = greedy_subgradient(oracle, zfrac)
    x = q
    S = x.reshape(1, -1)
    coeff = np.array([1.0])
    eps_drop = 1e-11

    for _ in range(_CYCLES_PER_COORDINATE * m + _CYCLES_SPARE):
        zfrac = -x  # greedy's order, argsort(-zfrac), is then ascending x
        _, q = greedy_subgradient(oracle, zfrac)
        scale = 1.0 + float(np.max(np.abs(S))) ** 2 + float(q @ q)
        if x @ q >= x @ x - tol * scale:
            break
        if np.any(np.all(np.abs(S - q) <= 1e-12 * scale, axis=1)):
            break
        S = np.vstack([S, q])
        coeff = np.append(coeff, 0.0)
        while True:
            b, ypt = _affine_minimizer(S)
            if np.all(b >= -eps_drop):
                coeff, x = np.maximum(b, 0.0), ypt
                break
            shrink = coeff - b
            idx = np.flatnonzero(shrink > eps_drop)
            theta = float(np.min(coeff[idx] / shrink[idx]))
            coeff = theta * b + (1.0 - theta) * coeff
            keep = coeff > eps_drop
            if keep.all():
                keep[int(np.argmin(coeff))] = False
            S = S[keep]
            coeff = coeff[keep]
            coeff /= coeff.sum()
            x = S.T @ coeff

    order = np.argsort(-zfrac, kind="stable")  # the last chain's order
    prefix = f0 + np.concatenate([[0.0], np.cumsum(q[order])])
    k = int(np.argmax(prefix <= prefix.min() + BRUTE_TIE_TOL))
    z = np.zeros(m, dtype=int)
    z[order[:k]] = 1
    value, xmin = oracle.eval_x(z)
    gap = value - (f0 + float(np.minimum(x, 0.0).sum()))
    res = SfmResult(
        z=z,
        value=float(value),
        x=xmin,
        certificate=gap,
        engine="mnp",
        converged=abs(gap) <= gap_tolerance(value, tol),
        stats=replace(oracle.stats),
    )
    _log.debug("mnp: %s", res.stats)
    return res


def solve_full(problem, engine="mnp", tol=1e-9):
    """End-to-end minimization of f(x) + c^T z over the indicator feasible set.

    The oracle is ``IndicatorOracle(problem)``, so the always-open
    variables of :func:`submodqp.lattice.split` get no binary coordinate.  The requested engine
    minimizes the (submodular) value-plus-cost function over the remaining
    split coordinates; when none is left, one box-QP solve is the whole
    minimization.  Finally ``smap.indicators`` maps the result to the original
    z, repairing any spurious split corner: that closes only bounds the
    engine's minimizer x does not use, so x stays the minimizer.  A robust problem's
    result lists its discarded observations, and every result carries the
    oracle's work counters (:class:`SolveStats`).  ``tol`` must be finite and
    nonnegative, whatever the engine (:class:`InputError` otherwise).
    """
    _require_tol(tol)
    if engine not in ("exhaustive", "mnp"):
        raise InputError(f"unknown engine {engine!r} (use 'exhaustive' or 'mnp')")
    oracle = IndicatorOracle(problem)
    smap = oracle.smap
    _log.debug(
        "%d variables, %d always open, %d binary coordinates, engine %s",
        # an always-open variable's bits point at binary_dim
        smap.n, int(np.count_nonzero(smap.lo_bit == oracle.m)), oracle.m, engine,
    )
    if engine == "mnp" and oracle.m:
        res = minimize_mnp(oracle, tol=tol)
    else:  # with no coordinate, enumeration is one evaluation
        res = minimize_exhaustive(oracle)

    z = smap.indicators(res.z, res.x)
    value = problem.quad.value(res.x) + float(problem.costs @ z)
    if value > res.value + 1e-7 * (1.0 + abs(res.value)):
        raise NumericalError("the recovered (x, z) is worse than the engine's value")

    return SfmResult(
        z=z,
        value=value,
        x=res.x,
        certificate=res.certificate,
        engine=engine,
        converged=res.converged,
        discarded=problem.discarded(z),
        stats=res.stats,
    )
