"""Parametric path tracing for indicator-quadratic value chains.

Computes the whole chain ``v(1_[0]), v(1_[1]), ..., v(1_[m])`` of optimal
values as indicators switch on one at a time, in O(n^3) total (at most 2n
stages and 4n breakpoints, each costing O(n^2)).  Instead of re-solving a box
QP per prefix, each stage treats the newly released coordinate as a scalar
parameter ``x`` and follows the minimizers of the remaining coordinates,
which are piecewise-affine in ``x``:

    y_R(x) = Q_RR^{-1} (a_R - Q_RS l_S - Q_RT u_T) - (Q_RR^{-1} Q_R,j) x

Q is Stieltjes (every :class:`QuadraticForm` is), so the path is
componentwise nondecreasing: every coordinate leaves its lower bound at most
once and reaches its upper bound at most once.  The stage advances by ratio
tests (nearest breakpoint vs. the stationarity root of the parametric
coordinate, clamped to its box) and pivots a single variable at each
breakpoint while a maintained Cholesky factor of Q_RR is updated in
O(|R|^2) (see :mod:`submodqp.cholesky`).

Each segment (the stretch of the path between two breakpoints) costs one
solve with Q_RR for a two-column right-hand side, the offset
``a_R - Q_RA y_A`` and the direction ``Q_Rj``, plus three products with the
full Q instead of gathers of its blocks: with the zero-padded bound part of
y, with the zero-padded direction (giving the gradient's rate of change for
every coordinate at once), and with y itself for the gradient
``g = Q y - a``, which serves both the stationarity root and the ratio test
of the lower-bound variables.  A segment therefore costs O(|R|^2 + n^2)
arithmetic, plus the O(|R|^2) factor update at its breakpoint.  Nothing
else is rebuilt per segment: R is a view of the factor's index array, and
the free and ratio-test masks are built once per :func:`trace_path` call
and flip one entry per pivot.  What is left is a few dozen small numpy
calls around the two ``dtrtrs`` calls and the three matrix-vector
products; at n of a few dozen to a hundred they still cost more than that
arithmetic does.

One driver, :func:`chain_general`, traces every chain over the sign-split
coordinates: stage 0 is the box with every coordinate off (the zero box when
l >= 0, one indicator per variable and at most 2n breakpoints; variables
with l < 0 may start negative, at most 4n breakpoints; always-open
variables keep [l, u]), and each stage switches one coordinate on.  The
order may stop short of a permutation: a prefix order traces only its own
stages, which match the first stages of the full chain bit for bit, because
the trace is sequential.  It takes the sign-split map alone: the map holds
the unsplit bounds it opens.  :func:`chain_nonnegative` traces a problem
with l >= 0 over its own split, in ascending coordinate order.  Infinite
bounds are traced as given: an infinite bound is never a breakpoint,
because its ratio-test gap is infinite, and every stage target
min(max(l_j, root), u_j) is finite, because the stationarity root is.
:func:`check_order` validates an order for a chain.  The Lovász extension
is read from one costed chain by :func:`submodqp.sfm.lovasz`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import boxqp
from .cholesky import UpdatableCholesky
from .exceptions import InputError, NumericalError
from .lattice import bounds_for_binary, split

EVENT_LEAVE_LOWER = "leave_lower"
EVENT_HIT_UPPER = "hit_upper"
EVENT_LEAVE_ZERO = "leave_zero"
EVENT_HIT_ZERO = "hit_zero"

_FREE, _LO, _HI, _PARAM = 0, 1, 2, 3

_RETREAT_TOL = 1e-12
# pivots allowed inside one trace: 6n + 64, beyond the 4n breakpoints a whole
# chain can take, so exceeding it means the path is cycling
_PIVOTS_PER_VARIABLE, _PIVOTS_SPARE = 6, 64
_EPS_256 = 256.0 * np.finfo(float).eps


@dataclass(frozen=True)
class Breakpoint:
    stage: int
    x: float
    index: int
    event: str


@dataclass
class ValueChain:
    """Chain of optimal values with per-stage minimizers and the pivot log.

    ``pivot_work`` is the factor's ``update_work`` over the whole chain:
    |R|^2 summed over the pivots of the free set R, a deterministic count
    of the chain's O(|R|^2)-per-pivot arithmetic.
    """

    values: np.ndarray
    minimizers: np.ndarray
    breakpoints: tuple
    breakpoint_points: tuple
    order: tuple
    kind: str
    pivot_work: int

    @property
    def m(self):
        return len(self.values) - 1

    def stage_path(self, k):
        """Stage k's recorded points in path order (1 <= k <= m): its start
        ``minimizers[k-1]``, the points of its breakpoints and its end
        ``minimizers[k]``."""
        inner = [p for b, p in zip(self.breakpoints, self.breakpoint_points) if b.stage == k]
        return [self.minimizers[k - 1], *inner, self.minimizers[k]]

    def iterate_sequence(self):
        """All recorded points in path order (stage ends and breakpoints)."""
        pts = [self.minimizers[0]]
        for k in range(1, len(self.values)):
            pts += self.stage_path(k)[1:]
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
    """Mutable state of one chain's trace, built at its stage 0.

    Holds the sign-split map ``smap`` (whose unsplit bounds name the events
    that cross 0), the current point ``y``, the per-variable effective
    bounds, the active-set statuses and the maintained factor over the free
    set, whose index set is always the set of free statuses; ``free`` and
    ``eligible`` are the masks of the last :func:`trace_path` call.  The
    bounds start as ``smap``'s stage-0 box, every coordinate off, and ``y``
    must be its minimizer.  Variables sitting exactly on a bound go to the
    bound sets (never to the free set), matching the oracle's
    degenerate-KKT convention.
    """

    def __init__(self, quad, smap, y):
        self.quad = quad
        self.smap = smap
        self.lo, self.up = bounds_for_binary(smap, np.zeros(smap.binary_dim, dtype=int))
        self.y = np.array(y, dtype=float)
        self.status = np.full(quad.n, _FREE, dtype=np.int8)
        self.status[self.y >= self.up] = _HI
        self.status[self.y <= self.lo] = _LO
        self.chol = UpdatableCholesky(quad.Q, np.flatnonzero(self.status == _FREE))
        self.stage = 0
        self.free = self.eligible = None
        self.breakpoints = []
        self.points = []


def trace_path(state, j, lo_j, up_j):
    """Trace one stage of the chain: coordinate j's box becomes [lo_j, up_j].

    j takes its new box, leaves the factor if it is free, and becomes the
    parametric coordinate.  The path is traced to the stage target
    min(max(lo_j, stationarity root), up_j), which must not be below j's
    current value; there j settles on its lower bound (always when its box
    is a point), on its upper bound, or in the factor as a free variable.
    Pivots are processed one at a time, smallest variable index first on
    ties; each is logged with its event type under ``state.stage``.  A
    backwards target beyond the float guard (1e-12, widened by the local
    conditioning) means the state is corrupted.

    While it traces, ``state.free`` marks the free variables and
    ``state.eligible`` the variables the ratio test watches: free ones, and
    lower-bound ones whose box lets them leave.  Both are built once per
    call and change by one entry per pivot.
    """
    quad = state.quad
    n = quad.n
    Q, a = quad.Q, quad.a
    y, lo, up, status, chol = state.y, state.lo, state.up, state.status, state.chol
    if status[j] == _FREE:
        chol.remove(j)
    status[j] = _PARAM
    lo[j] = lo_j
    up[j] = up_j
    x0 = float(y[j])

    Q_j = Q[:, j]
    free = state.free = status == _FREE
    eligible = state.eligible = free | ((status == _LO) & (lo < up))
    for _ in range(_PIVOTS_PER_VARIABLE * n + _PIVOTS_SPARE + 1):
        R = chol.indices  # the free variables, in factor order
        d_full = np.zeros(n)
        if R.size:
            # one solve with Q_RR for both columns: the offset h and the
            # direction d of y_R(x) = h - d x; y_bound is y off R and j
            y_bound = y.copy()
            y_bound[R] = 0.0
            y_bound[j] = 0.0
            B = np.empty((R.size, 2), order="F")
            B[:, 0] = a[R] - (Q @ y_bound)[R]
            B[:, 1] = Q_j[R]
            hd = chol.solve(B)
            h, d = hd[:, 0], hd[:, 1]
            d_full[R] = d
            y[R] = h - d * x0
        # d(grad)/dx along the segment; its j entry is the Schur complement
        # Q_jj - Q_jR d of the parametric coordinate
        slope = Q_j - Q @ d_full
        slope_j = float(slope[j])
        if slope_j <= 0:
            raise NumericalError("nonpositive Schur complement on parametric coordinate")
        g = Q @ y - a
        xbar = x0 - float(g[j]) / slope_j
        target = min(max(lo[j], xbar), up[j])
        # float noise in g_j is amplified by 1/slope_j (tiny Schur complements
        # happen, e.g. through the robust ridge), so the monotonicity guard
        # scales with the local conditioning; its tolerance is never below
        # _RETREAT_TOL, so it needs computing only past that
        if target < x0 - _RETREAT_TOL:
            g_scale = abs(a[j]) + float(np.abs(Q_j) @ np.abs(y)) + 1.0
            retreat_tol = _RETREAT_TOL + _EPS_256 * g_scale / slope_j
            if target < x0 - retreat_tol:
                raise NumericalError(f"path target retreats from {x0} to {target}")
        target = max(target, x0)

        # ratio tests, each breakpoint at x0 + gap / rate: free variables
        # reaching their upper bound (gap u - y, rate -d) and lower-bound
        # variables whose gradient is driven to 0 (gap g, rate -slope).
        # Rates too small to get there within twice the remaining span are
        # screened out before dividing: such breakpoints lie beyond the
        # target anyway, and tiny rates would overflow the division.  An
        # infinite upper bound has an infinite gap, so it is never reached.
        gap = np.where(free, up - y, g)
        rate = -np.where(free, d_full, slope)
        reach = 2.0 * (target - x0) + 1.0
        ii = (eligible & (rate > 0) & (gap <= rate * reach)).nonzero()[0]
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
            if free[istar]:
                y[istar] = up[istar]
                status[istar] = _HI
                free[istar] = eligible[istar] = False
                chol.remove(istar)
                event = (
                    EVENT_HIT_ZERO
                    if up[istar] == 0.0 and state.smap.up[istar] > 0.0
                    else EVENT_HIT_UPPER
                )
            else:
                status[istar] = _FREE
                free[istar] = True  # still eligible, now as a free variable
                chol.insert(istar)
                event = (
                    EVENT_LEAVE_ZERO
                    if lo[istar] == 0.0 and state.smap.lo[istar] < 0.0
                    else EVENT_LEAVE_LOWER
                )
            state.breakpoints.append(Breakpoint(state.stage, x0, istar, event))
            state.points.append(y.copy())
            continue

        if R.size:
            y[R] = h - d * target
        y[j] = target
        if lo[j] == up[j] or target <= lo[j]:
            status[j] = _LO
        elif target >= up[j]:
            status[j] = _HI
        else:
            status[j] = _FREE
            chol.insert(j)
        return state

    raise NumericalError("pivot budget exceeded inside one trace")


def _stage_is_noop(state, j, lo_new, up_new):
    """True when the bound change keeps the current point optimal.

    Relaxations that leave the point inside the new box preserve every KKT
    condition: free variables stay stationary, lower-bound variables keep a
    nonnegative gradient.  Pinned variables opening upward need a gradient
    look before skipping, and a variable parked on an upper bound skips only
    when that bound stays put.  No stage starts with a parametric
    coordinate: :func:`trace_path` settles it before it returns.
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
    return up_new == y_j  # _HI


def check_order(order, m):
    """``order`` as a list of ints.  Its entries must be distinct coordinates
    of 0..m-1; an integral float passes, and anything else, a bool included,
    raises :class:`InputError`."""
    order = list(order)
    try:
        ints = [int(i) for i in order]
    except (TypeError, ValueError, OverflowError):  # NaN, inf, arrays
        ints = None
    if (
        ints != order
        or not {type(i) for i in order}.isdisjoint((bool, np.bool_))  # True == 1
        or len(set(ints)) != len(ints)
        or not all(0 <= i < m for i in ints)
    ):
        raise InputError(f"order must list distinct coordinates of 0..{m - 1}")
    return ints


def chain_nonnegative(problem):
    """:func:`chain_general` for a problem with l >= 0, over its own sign
    split in ascending coordinate order: stage k releases the variable of
    coordinate k-1 to [l, u]."""
    if np.any(problem.lo < 0):
        raise InputError("chain_nonnegative needs l >= 0 (use chain_general)")
    smap, _ = split(problem)
    return chain_general(problem.quad, smap, range(smap.binary_dim))


def chain_general(quad, smap, order, stage0=None):
    """Value chain over sign-split coordinates (lower bounds may be negative).

    Stage 0 solves the all-off box of ``smap`` (negative variables may
    start strictly below zero; with l >= 0 it is the zero box; always-open
    variables keep [l, u]) with the box-QP oracle; each following stage
    flips one split coordinate on, in the given ``order``.  ``order`` may be
    a prefix of a permutation, any distinct coordinates: the chain then has
    ``len(order) + 1`` values, and they, the minimizers and the breakpoints
    are bit for bit the first stages of the chain of any permutation that
    starts with it.  Repeated, out-of-range or non-integral coordinates
    raise :class:`InputError` (:func:`check_order`).
    Flipping a minus-coordinate raises the variable's lower bound to 0;
    flipping a plus-coordinate opens its upper range.  Both move the
    minimizer monotonically upward.  The chain's ``kind`` is
    ``"nonnegative"`` when every l of ``smap`` is >= 0 and ``"general"``
    otherwise.  ``stage0`` is the box-QP solution of the stage-0 box when
    the caller already has it; every chain of one minimization starts
    there, so the caller can solve it once.
    """
    order = check_order(order, smap.binary_dim)

    if stage0 is None:
        stage0 = boxqp.solve(quad, *bounds_for_binary(smap, np.zeros(smap.binary_dim, dtype=int)))
    state = PathState(quad, smap, stage0.x)

    values = [stage0.value]
    minimizers = [state.y.copy()]
    for k, (j, lo_j, up_j) in enumerate(smap.stage_bounds(order), start=1):
        state.stage = k
        if _stage_is_noop(state, j, lo_j, up_j):
            state.lo[j] = lo_j
            state.up[j] = up_j
            values.append(values[-1])
            minimizers.append(minimizers[-1])
            continue
        trace_path(state, j, lo_j, up_j)
        values.append(quad.value(state.y))
        minimizers.append(state.y.copy())
    return ValueChain(
        values=np.array(values),
        minimizers=np.array(minimizers),
        breakpoints=tuple(state.breakpoints),
        breakpoint_points=tuple(state.points),
        order=tuple(order),
        kind="nonnegative" if np.all(smap.lo >= 0) else "general",
        pivot_work=state.chol.update_work,
    )

