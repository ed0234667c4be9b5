"""Binary submodular minimization over the reformulated indicator problem.

Two engines minimize ``F(z) = v(z) + cost(z)`` over the split hypercube:

* ``exhaustive`` enumerates every binary vector (small dimensions only) and is
  the reference for correctness;
* ``mnp`` runs Wolfe's minimum-norm-point algorithm over the base polytope of
  F, using the greedy subgradient as its linear-optimization oracle.  Each
  greedy call needs one full value chain, which the path tracer delivers in
  the cost of a single evaluation; that is what makes the method practical.

:func:`solve_full` wires everything together for a compiled indicator
problem: sign split, oracle construction, minimization, and recovery of the
original indicator vector and continuous minimizer.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import boxqp, pathtrace
from .exceptions import InputError, NumericalError
from .lattice import NBOTH, bounds_for_binary, split
from .model import ROLE_SLACK

EXHAUSTIVE_GUARD = 25
BRUTE_TIE_TOL = 1e-9


@dataclass
class SfmResult:
    """Outcome of one binary submodular minimization."""

    z: np.ndarray
    value: float
    x: np.ndarray | None
    certificate: object
    engine: str
    converged: bool = True
    discarded: list | None = None

    def to_json_dict(self):
        return {
            "z": [int(v) for v in self.z],
            "x": None if self.x is None else [float(v) for v in self.x],
            "value": float(self.value),
            "certificate": self.certificate
            if isinstance(self.certificate, str)
            else float(self.certificate),
            "engine": self.engine,
            "converged": bool(self.converged),
            "discarded": self.discarded,
        }


class SubmodularOracle:
    """Evaluation contract for a submodular set function F on {0,1}^m.

    Subclasses implement :meth:`eval`.  :meth:`chain` returns the m+1 values
    of F along the prefixes of a permutation; the default runs m+1 single
    evaluations, fast implementations override it.
    """

    m = 0

    def eval(self, zbin):
        raise NotImplementedError

    def chain(self, order):
        return self.chain_naive(order)

    def chain_naive(self, order):
        z = np.zeros(self.m, dtype=int)
        out = [self.eval(z)]
        for i in order:
            z[int(i)] = 1
            out.append(self.eval(z))
        return np.array(out)

    def recover_x(self, zbin):
        """Continuous minimizer behind F(zbin), when one exists."""
        return None


class FunctionOracle(SubmodularOracle):
    """Wrap a plain callable on binary vectors, plus an optional linear cost."""

    def __init__(self, fun, m, costs=None):
        self.fun = fun
        self.m = int(m)
        self.costs = None if costs is None else np.asarray(costs, dtype=float)

    def eval(self, zbin):
        zbin = np.asarray(zbin)
        val = float(self.fun(zbin))
        if self.costs is not None:
            val += float(self.costs @ zbin)
        return val


class IndicatorOracle(SubmodularOracle):
    """F(z) = v(z) + binary cost for a compiled indicator problem.

    ``v`` is evaluated by the box-QP oracle; chains go through the path
    tracer when every bound is finite, and fall back to m+1 box-QP solves
    otherwise (unbounded boxes cannot be traced).
    """

    def __init__(self, quad, lo, up, costs=None, smap=None, bincost=None):
        quad.require_stieltjes()
        self.quad = quad
        self.lo = np.asarray(lo, dtype=float)
        self.up = np.asarray(up, dtype=float)
        if smap is None or bincost is None:
            smap, bincost = split(self.lo, self.up, costs)
        self.smap = smap
        self.bincost = bincost
        self.m = smap.binary_dim
        self._traceable = bool(np.all(np.isfinite(self.lo)) and np.all(np.isfinite(self.up)))

    def eval(self, zbin):
        return boxqp.value_function(self.quad, self.lo, self.up, self.smap, zbin) + self.bincost(zbin)

    def chain(self, order):
        if not self._traceable:
            return self.chain_naive(order)
        vc = self.value_chain(order)
        costs = np.concatenate([[0.0], np.cumsum(self.bincost.linear[list(order)])])
        return vc.values + costs + self.bincost.constant

    def value_chain(self, order):
        """Raw v-chain (no costs) as a :class:`pathtrace.ValueChain`."""
        if all(r != NBOTH for r in self.smap.regimes) and np.all(self.lo >= 0):
            var_order = [self.smap.coords[int(c)][0] for c in order]
            return pathtrace.chain_nonnegative(self.quad, self.lo, self.up, var_order)
        return pathtrace.chain_general(self.quad, self.lo, self.up, self.smap, order)

    def recover_x(self, zbin):
        blo, bup = bounds_for_binary(self.smap, zbin, self.lo, self.up)
        return boxqp.solve(self.quad, blo, bup).x


def greedy_subgradient(oracle, zfrac):
    """Linear minorant of F at zfrac (a base-polytope point).

    Sorts zfrac nonincreasing (stable, so ties keep ascending index order),
    asks for one chain along that order, and scatters the consecutive
    differences back to original positions; then
    ``F(0) + <w, zfrac>`` equals the piecewise linear extension at zfrac.
    """
    zfrac = np.asarray(zfrac, dtype=float)
    if zfrac.shape != (oracle.m,):
        raise InputError(f"zfrac must have length {oracle.m}")
    order = np.argsort(-zfrac, kind="stable")
    values = oracle.chain(order)
    w = np.zeros(oracle.m)
    w[order] = np.diff(values)
    return w


def _lex_better(incumbent, value, best, tol):
    return incumbent is None or value < best - tol


def minimize_exhaustive(oracle, m=None, tie_tol=BRUTE_TIE_TOL):
    """Enumerate every binary vector; ties resolve to the first in lex order."""
    m = oracle.m if m is None else int(m)
    if m > EXHAUSTIVE_GUARD:
        raise InputError(f"exhaustive enumeration guarded at m <= {EXHAUSTIVE_GUARD}, got {m}")
    best_z, best = None, np.inf
    for bits in itertools.product((0, 1), repeat=m):
        z = np.array(bits, dtype=int)
        val = oracle.eval(z)
        if _lex_better(best_z, val, best, tie_tol):
            best_z, best = z, val
    return SfmResult(
        z=best_z,
        value=float(best),
        x=oracle.recover_x(best_z),
        certificate="exhaustive",
        engine="exhaustive",
    )


def _affine_minimizer(S):
    """Minimum-norm point of the affine hull of the rows of S (plus coeffs)."""
    k = S.shape[0]
    M = np.block([[np.zeros((1, 1)), np.ones((1, k))], [np.ones((k, 1)), S @ S.T]])
    rhs = np.concatenate([[1.0], np.zeros(k)])
    coeff = np.linalg.solve(M, rhs)[1:]
    return coeff, S.T @ coeff


def _rank_fractions(x):
    """Map a direction to (0,1]^m preserving ascending order of x."""
    m = x.shape[0]
    order = np.argsort(x, kind="stable")
    zfrac = np.empty(m)
    zfrac[order] = (m - np.arange(m)) / m
    return zfrac


def minimize_mnp(oracle, tol=1e-9, max_iter=None):
    """Wolfe's minimum-norm-point method over the base polytope of F.

    The greedy subgradient serves as the linear-optimization oracle (one
    value chain per major cycle).  The final point is rounded by thresholding
    at zero; coordinates within ``tol`` of zero are ambiguous and, when there
    are at most ten of them, resolved exactly by evaluating both completions.
    Hitting the iteration cap returns the best rounding found with
    ``converged=False``.
    """
    m = oracle.m
    if m == 0:
        raise InputError("empty ground set")
    if max_iter is None:
        max_iter = 20 * m + 100
    f0 = float(oracle.chain(np.arange(m))[0])

    x = greedy_subgradient(oracle, np.full(m, 0.5))
    S = x.reshape(1, -1)
    coeff = np.array([1.0])
    converged = False
    eps_drop = 1e-11

    for _ in range(max_iter):
        q = greedy_subgradient(oracle, _rank_fractions(x))
        scale = 1.0 + float(np.max(np.abs(S))) ** 2 + float(q @ q)
        if x @ q >= x @ x - tol * scale:
            converged = True
            break
        if np.any(np.all(np.abs(S - q) <= 1e-12 * scale, axis=1)):
            converged = True
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

    thr = max(tol, 1e-12)
    base = x < -thr
    ambiguous = np.flatnonzero(np.abs(x) <= thr)
    best_z, best = None, np.inf
    if ambiguous.size > 10:
        ambiguous = ambiguous[:0]  # too many ties: exclude them all
    for bits in itertools.product((0, 1), repeat=ambiguous.size):
        z = base.astype(int).copy()
        z[ambiguous] = bits
        val = oracle.eval(z)
        if _lex_better(best_z, val, best, BRUTE_TIE_TOL):
            best_z, best = z, val
    lower_bound = f0 + float(np.minimum(x, 0.0).sum())
    if best < lower_bound - max(1e-6, 1e3 * tol) * (1.0 + abs(best)):
        converged = False  # certificate disagrees with the rounding
    return SfmResult(
        z=best_z,
        value=float(best),
        x=oracle.recover_x(best_z),
        certificate=float(np.linalg.norm(x)),
        engine="mnp",
        converged=converged,
    )


def _repair_split_vector(smap, zbin, x):
    """Resolve spurious (z+, z-) = (1, 0) corners using the sign of x.

    The repaired assignment keeps the minimizer feasible, never increases the
    cost, and maps cleanly to an original binary indicator vector.
    """
    zbin = np.array(zbin, dtype=int)
    for i, (p, q) in enumerate(smap.coord_of):
        if smap.regimes[i] != NBOTH:
            continue
        if zbin[p] == 1 and zbin[q] == 0:
            if x[i] > 0:
                zbin[q] = 1
            elif x[i] < 0:
                zbin[p] = 0
            else:
                zbin[p], zbin[q] = 0, 1
    return zbin


def solve_full(problem, engine="mnp", tol=1e-9):
    """End-to-end minimization of f(x) + c^T z over the indicator feasible set.

    Splits signs, minimizes the (submodular) value-plus-cost function over the
    binary hypercube with the requested engine, then maps back: repairs any
    spurious split corner, recovers x with one box-QP solve, and reports the
    discarded-observation set for robust-mode problems.
    """
    smap, bincost = split(problem.lo, problem.up, problem.costs)
    oracle = IndicatorOracle(
        problem.quad, problem.lo, problem.up, smap=smap, bincost=bincost
    )
    if engine == "exhaustive":
        res = minimize_exhaustive(oracle)
    elif engine == "mnp":
        res = minimize_mnp(oracle, tol=tol)
    else:
        raise InputError(f"unknown engine {engine!r} (use 'exhaustive' or 'mnp')")

    zbin = _repair_split_vector(smap, res.z, res.x)
    blo, bup = bounds_for_binary(smap, zbin, problem.lo, problem.up)
    xstar = boxqp.solve(problem.quad, blo, bup).x
    z = smap.forward(zbin)
    value = problem.quad.value(xstar) + float(problem.costs @ z)
    if value > res.value + 1e-7 * (1.0 + abs(res.value)):
        raise NumericalError("split-corner repair changed the optimal value")

    discarded = None
    if problem.mode == "robust":
        slack = problem.slack_vertices()
        discarded = sorted(slack[k] for k in range(problem.n) if k in slack and z[k] == 1)
    return SfmResult(
        z=z,
        value=value,
        x=xstar,
        certificate=res.certificate,
        engine=engine,
        converged=res.converged,
        discarded=discarded,
    )
