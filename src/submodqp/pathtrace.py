"""Parametric path tracing for indicator-quadratic value chains.

Computes the whole chain ``v(1_[0]), v(1_[1]), ..., v(1_[m])`` of optimal
values as indicators switch on one at a time, in O(n^3) total (at most 2n
stages and 4n breakpoints, each costing O(n^2)).  Instead of re-solving a box
QP per prefix, each stage treats the newly released coordinate as a scalar
parameter ``x`` and follows the minimizers of the remaining coordinates,
which are piecewise-affine in ``x``:

    y_R(x) = Q_RR^{-1} (a_R - Q_RS l_S - Q_RT u_T) - (Q_RR^{-1} Q_R,j) x

For Stieltjes Q the path is componentwise nondecreasing, so every coordinate
leaves its lower bound at most once and reaches its upper bound at most once;
the stage advances by ratio tests (nearest breakpoint vs. the stationarity
root of the parametric coordinate, clamped to its box) and pivots a single
variable at each breakpoint while a maintained Cholesky factor of Q_RR is
updated in O(|R|^2) (see :mod:`submodqp.cholesky`).

Each segment (the stretch of the path between two breakpoints) costs one
solve with Q_RR for a two-column right-hand side, the offset
``a_R - Q_RA y_A`` and the direction ``Q_Rj``, plus three products with the
full Q instead of gathers of its blocks: with the zero-padded bound part of
y, with the zero-padded direction (giving the gradient's rate of change for
every coordinate at once), and with y itself for the gradient
``g = Q y - a``, which serves both the stationarity root and the ratio test
of the lower-bound variables.  A segment therefore costs O(|R|^2 + n^2)
arithmetic in a fixed number of numpy/LAPACK calls, plus the O(|R|^2)
factor update at its breakpoint.

Two drivers are provided: :func:`chain_nonnegative` for boxes with l >= 0
(one indicator per variable, at most 2n breakpoints) and
:func:`chain_general` for sign-split coordinates (variables may start
negative; at most 4n breakpoints).  :func:`lovasz` evaluates the piecewise
linear extension from a computed chain.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import boxqp
from .cholesky import UpdatableCholesky
from .exceptions import InputError, NumericalError
from .lattice import bounds_for_binary, split, variable_bounds

EVENT_LEAVE_LOWER = "leave_lower"
EVENT_HIT_UPPER = "hit_upper"
EVENT_LEAVE_ZERO = "leave_zero"
EVENT_HIT_ZERO = "hit_zero"

_FREE, _LO, _HI, _PARAM = 0, 1, 2, 3

_RETREAT_TOL = 1e-12
_EPS_256 = 256.0 * np.finfo(float).eps


@dataclass(frozen=True)
class Breakpoint:
    stage: int
    x: float
    index: int
    event: str


@dataclass
class ValueChain:
    """Chain of optimal values with per-stage minimizers and the pivot log."""

    values: np.ndarray
    minimizers: np.ndarray
    breakpoints: tuple
    breakpoint_points: tuple
    order: tuple
    kind: str

    @property
    def m(self):
        return len(self.values) - 1

    def iterate_sequence(self):
        """All recorded points in path order (stage ends and breakpoints)."""
        pts = [self.minimizers[0]]
        bp = iter(zip(self.breakpoints, self.breakpoint_points))
        pending = next(bp, None)
        for k in range(1, len(self.values)):
            while pending is not None and pending[0].stage <= k:
                pts.append(pending[1])
                pending = next(bp, None)
            pts.append(self.minimizers[k])
        return pts

    def to_json_dict(self):
        return {
            "kind": self.kind,
            "order": [int(i) for i in self.order],
            "values": [float(v) for v in self.values],
            "breakpoints": [
                {"stage": b.stage, "x": b.x, "index": b.index, "event": b.event}
                for b in self.breakpoints
            ],
        }


class PathState:
    """Mutable state of one parametric trace.

    Holds the current point ``y``, the per-variable effective bounds, the
    active-set statuses, the maintained factor over the free set and the
    parametric coordinate (``param``) with its current value ``x_param``.
    """

    def __init__(self, quad, lo, up, y, status, chol, param, orig_lo, orig_up):
        self.quad = quad
        self.lo = lo
        self.up = up
        self.y = y
        self.status = status
        self.chol = chol
        self.param = param
        self.orig_lo = orig_lo
        self.orig_up = orig_up
        self.stage = 0
        self.breakpoints = []
        self.points = []

    @property
    def x_param(self):
        return float(self.y[self.param]) if self.param is not None else None

    @classmethod
    def from_point(cls, quad, lo, up, y, param=None, orig_lo=None, orig_up=None, audit=True):
        """Build a state from a point, classifying the partition positionally.

        Variables sitting exactly on a bound go to the bound sets (never to
        the free set), matching the oracle's degenerate-KKT convention.  With
        ``audit`` the entry KKT system is checked and a corrupted state is
        rejected.
        """
        quad.require_stieltjes()
        n = quad.n
        lo = np.array(lo, dtype=float)
        up = np.array(up, dtype=float)
        y = np.array(y, dtype=float)
        status = np.full(n, _FREE, dtype=np.int8)
        status[y >= up] = _HI
        status[y <= lo] = _LO
        if param is not None:
            status[param] = _PARAM
        chol = UpdatableCholesky(quad.Q, np.flatnonzero(status == _FREE))
        state = cls(
            quad,
            lo,
            up,
            y,
            status,
            chol,
            param,
            lo.copy() if orig_lo is None else np.asarray(orig_lo, dtype=float),
            up.copy() if orig_up is None else np.asarray(orig_up, dtype=float),
        )
        if audit:
            res = state.kkt_residual()
            tol = 1e-8 * (1.0 + float(np.abs(quad.a).max(initial=0.0)))
            if res > tol:
                raise InputError(f"corrupted path state: KKT residual {res:.3e}")
        return state

    def kkt_residual(self):
        """Max KKT violation over the non-parametric coordinates."""
        g = self.quad.grad(self.y)
        res = 0.0
        for i in range(self.quad.n):
            if self.status[i] == _PARAM:
                continue
            res = max(res, self.lo[i] - self.y[i], self.y[i] - self.up[i])
            if self.lo[i] == self.up[i]:
                continue
            if self.status[i] == _LO:
                res = max(res, -g[i])
            elif self.status[i] == _HI:
                res = max(res, g[i])
            else:
                res = max(res, abs(g[i]))
        return float(res)

    # -- stage plumbing -----------------------------------------------------

    def begin_stage(self, j, lo_new, up_new):
        if self.param is not None:
            raise NumericalError("previous stage not closed")
        if self.status[j] == _FREE:
            self.chol.remove(j)
        self.status[j] = _PARAM
        self.param = j
        self.lo[j] = lo_new
        self.up[j] = up_new

    def end_stage(self):
        j = self.param
        x = self.y[j]
        if self.lo[j] == self.up[j] or x <= self.lo[j]:
            self.status[j] = _LO
        elif x >= self.up[j]:
            self.status[j] = _HI
        else:
            self.status[j] = _FREE
            self.chol.insert(j)
        self.param = None


def trace_path(state, to=None, max_pivots=None):
    """Advance the parametric coordinate along the solution path.

    ``to=None`` traces to the stage target min(max(lo_j, stationarity root),
    up_j); a numeric ``to`` traces to that parameter value (must not be below
    the current one).  Pivots are processed one at a time, smallest variable
    index first on ties; each is logged with its event type.  A backwards
    target beyond the 1e-12 float guard means the state is corrupted.
    """
    j = state.param
    if j is None:
        raise InputError("no parametric coordinate set")
    quad = state.quad
    Q, a = quad.Q, quad.a
    y, lo, up, status = state.y, state.lo, state.up, state.status
    x0 = float(y[j])
    if max_pivots is None:
        max_pivots = 6 * quad.n + 64

    Q_j = Q[:, j]
    abs_Q_j = np.abs(Q_j)
    can_leave = lo < up
    for _ in range(max_pivots + 1):
        R = np.array(state.chol.indices, dtype=int)
        free = status == _FREE
        at_lower = status == _LO
        d_full = np.zeros(quad.n)
        if R.size:
            # one solve with Q_RR for both columns: the offset h and the
            # direction d of y_R(x) = h - d x
            y_bound = np.where(at_lower | (status == _HI), y, 0.0)
            B = np.empty((R.size, 2), order="F")
            B[:, 0] = a[R] - (Q @ y_bound)[R]
            B[:, 1] = Q_j[R]
            h, d = state.chol.solve(B).T
            d_full[R] = d
            y[R] = h - d * x0
        # d(grad)/dx along the segment; its j entry is the Schur complement
        # Q_jj - Q_jR d of the parametric coordinate
        slope = Q_j - Q @ d_full
        slope_j = float(slope[j])
        if slope_j <= 0:
            raise NumericalError("nonpositive Schur complement on parametric coordinate")
        g = Q @ y - a
        g_j = float(g[j])
        if to is None:
            xbar = x0 - g_j / slope_j
            target = min(max(lo[j], xbar), up[j])
        else:
            target = float(to)
        # float noise in g_j is amplified by 1/slope_j (tiny Schur complements
        # happen, e.g. through the robust ridge), so the monotonicity guard
        # scales with the local conditioning
        g_scale = abs(a[j]) + float(abs_Q_j @ np.abs(y)) + 1.0
        retreat_tol = _RETREAT_TOL + _EPS_256 * g_scale / slope_j
        if target < x0 - retreat_tol:
            raise NumericalError(f"path target retreats from {x0} to {target}")
        target = max(target, x0)

        # ratio tests, each breakpoint at x0 + gap / rate: free variables
        # reaching their upper bound (gap u - y, rate -d) and lower-bound
        # variables whose gradient is driven to 0 (gap g, rate -slope).
        # Rates too small to get there within twice the remaining span are
        # screened out before dividing: such breakpoints lie beyond the
        # target anyway, and tiny rates would overflow the division.
        gap = np.where(free, up - y, g)
        rate = np.where(free, -d_full, -slope)
        reach = 2.0 * (target - x0) + 1.0
        cand = (free | (at_lower & can_leave)) & (rate > 0) & (gap <= rate * reach)
        ii = cand.nonzero()[0]
        rstar = np.inf
        istar = -1
        if ii.size:
            # exact arithmetic puts every breakpoint ahead of the path; noisy
            # ones slightly behind become zero-length pivots, which self-heal
            rr = np.maximum(x0 + gap[ii] / rate[ii], x0)
            k = int(rr.argmin())  # first minimum: smallest index on ties
            rstar, istar = float(rr[k]), int(ii[k])

        if istar >= 0 and rstar < target:
            x0 = rstar
            if R.size:
                y[R] = h - d * x0
            y[j] = x0
            if status[istar] == _FREE:
                y[istar] = up[istar]
                status[istar] = _HI
                state.chol.remove(istar)
                event = (
                    EVENT_HIT_ZERO
                    if up[istar] == 0.0 and state.orig_up[istar] > 0.0
                    else EVENT_HIT_UPPER
                )
            else:
                status[istar] = _FREE
                state.chol.insert(istar)
                event = (
                    EVENT_LEAVE_ZERO
                    if lo[istar] == 0.0 and state.orig_lo[istar] < 0.0
                    else EVENT_LEAVE_LOWER
                )
            state.breakpoints.append(Breakpoint(state.stage, x0, istar, event))
            state.points.append(y.copy())
            continue

        if R.size:
            y[R] = h - d * target
        y[j] = target
        return state

    raise NumericalError("pivot budget exceeded inside one trace")


def _stage_is_noop(state, j, lo_new, up_new):
    """True when the bound change keeps the current point optimal.

    Relaxations that leave the point inside the new box preserve every KKT
    condition: free variables stay stationary, lower-bound variables keep a
    nonnegative gradient.  Pinned variables opening upward and variables
    parked on an upper bound need a gradient look before skipping.
    """
    y_j = state.y[j]
    if lo_new > y_j:
        return False  # forced rise
    st = state.status[j]
    if st == _FREE:
        return up_new >= y_j
    if st == _LO:
        if state.lo[j] < state.up[j]:
            return True  # gradient >= 0 held and still applies
        if up_new == y_j:
            return True
        return float(state.quad.Q[j, :] @ state.y - state.quad.a[j]) >= 0.0
    if st == _HI:
        return up_new == y_j
    return False


def _run_chain(quad, stages, state, values0, kind, order):
    n = quad.n
    values = [values0]
    minimizers = [state.y.copy()]
    for k, (j, lo_j, up_j) in enumerate(stages, start=1):
        state.stage = k
        if _stage_is_noop(state, j, lo_j, up_j):
            state.lo[j] = lo_j
            state.up[j] = up_j
            values.append(values[-1])
            minimizers.append(minimizers[-1])
            continue
        state.begin_stage(j, lo_j, up_j)
        trace_path(state)
        state.end_stage()
        values.append(quad.value(state.y))
        minimizers.append(state.y.copy())
    return ValueChain(
        values=np.array(values),
        minimizers=np.array(minimizers),
        breakpoints=tuple(state.breakpoints),
        breakpoint_points=tuple(state.points),
        order=tuple(int(i) for i in order),
        kind=kind,
    )


def _check_order(order, m):
    order = list(range(m)) if order is None else [int(i) for i in order]
    if sorted(order) != list(range(m)):
        raise InputError(f"order must be a permutation of 0..{m - 1}")
    return order


def chain_nonnegative(quad, lo, up, order=None):
    """Value chain for nonnegative boxes: stage k releases order[k-1] to [l, u].

    Requires l >= 0 and finite u (clamp unbounded variables first, as the
    model compiler does for outlier slacks).  values[k] equals the optimum
    with the first k indicators of ``order`` switched on.
    """
    quad.require_stieltjes()
    n = quad.n
    lo = np.asarray(lo, dtype=float)
    up = np.asarray(up, dtype=float)
    if np.any(lo < 0):
        raise InputError("chain_nonnegative needs l >= 0 (use chain_general)")
    if not np.all(np.isfinite(up)):
        raise InputError(
            "chain_nonnegative needs finite upper bounds; clamp them first "
            "(see the model module's slack bound)"
        )
    if np.any(lo > up):
        raise InputError("empty box")
    order = _check_order(order, n)
    state = PathState.from_point(
        quad, np.zeros(n), np.zeros(n), np.zeros(n), orig_lo=lo, orig_up=up, audit=False
    )
    stages = [(j, lo[j], up[j]) for j in order]
    return _run_chain(quad, stages, state, quad.value(np.zeros(n)), "nonnegative", order)


def chain_general(quad, lo, up, smap=None, order=None):
    """Value chain over sign-split coordinates (lower bounds may be negative).

    Stage 0 solves the all-off box (negative variables may start strictly
    below zero) with the box-QP oracle; each following stage flips one split
    coordinate on.  Flipping a minus-coordinate raises the variable's lower
    bound to 0; flipping a plus-coordinate opens its upper range.  Both move
    the minimizer monotonically upward.
    """
    quad.require_stieltjes()
    n = quad.n
    lo = np.asarray(lo, dtype=float)
    up = np.asarray(up, dtype=float)
    if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(up))):
        raise InputError("chain_general needs finite bounds; clamp them first")
    if smap is None:
        smap, _ = split(lo, up)
    m = smap.binary_dim
    order = _check_order(order, m)

    zbin = np.zeros(m, dtype=int)
    lo0, up0 = bounds_for_binary(smap, zbin, lo, up)
    sol = boxqp.solve(quad, lo0, up0)
    state = PathState.from_point(quad, lo0, up0, sol.x, orig_lo=lo, orig_up=up, audit=False)

    stages = []
    for cidx in order:
        zbin[cidx] = 1
        j, _ = smap.coords[cidx]
        lo_j, up_j = variable_bounds(smap, j, zbin, lo, up)
        stages.append((j, lo_j, up_j))
    return _run_chain(quad, stages, state, sol.value, "general", order)


def lovasz(chain, zfrac):
    """Piecewise linear extension value at zfrac, from a compatible chain.

    The chain must have been computed for an order that sorts zfrac in
    nonincreasing fashion; then the extension is
    ``values[0] + sum_k (values[k] - values[k-1]) * zfrac[order[k-1]]``,
    which agrees with the chain at every hypercube vertex it interpolates.
    """
    zfrac = np.asarray(zfrac, dtype=float)
    if zfrac.shape != (chain.m,):
        raise InputError(f"zfrac must have length {chain.m}")
    if np.any(zfrac < -1e-12) or np.any(zfrac > 1.0 + 1e-12):
        raise InputError("zfrac entries must lie in [0, 1]")
    zs = zfrac[list(chain.order)]
    if np.any(zs[1:] > zs[:-1] + 1e-12):
        raise InputError("zfrac is not nonincreasing along the chain order")
    diffs = np.diff(chain.values)
    return float(chain.values[0] + diffs @ zs)
