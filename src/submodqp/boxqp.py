"""Exact active-set solver for box-constrained Stieltjes quadratics.

Minimizes ``-a^T x + 0.5 x^T Q x + k0`` over ``l <= x <= u`` by projected
Newton on the clamped set.  Q is a Stieltjes matrix, symmetric positive
definite with nonpositive off-diagonal, because :class:`QuadraticForm`
admits no other; the solver takes that as given.

:func:`solve_many` solves a stack of boxes, one per row, and is the only
copy of the algorithm; :func:`solve` is its one row for a single box, and
callers with many boxes pass them in stacks.  No second implementation
judges this one: every returned solution is audited against the KKT system
before it leaves this module, and Q is positive definite, so a point that
passes is the unique minimizer to within the audit's tolerance.  KKT
conventions, with g = Qx - a:
  * variables at the lower bound need g_i >= 0,
  * variables at the upper bound need g_i <= 0,
  * free variables need g_i = 0,
all within :func:`kkt_tolerance`; a NaN anywhere makes the residual NaN,
which fails the audit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import InputError, NumericalError
from .model import check_box

KKT_TOL_FACTOR = 1e-10
# most entries (0.5 MB of floats) of one stack of k x k free blocks that
# solve_many solves together (systems x k x k); its rows x n temporaries are
# bounded by the caller's stack
STACK_ENTRIES = 1 << 16
MAX_ITER = 200  # projected Newton iterations allowed per box


@dataclass(frozen=True)
class BoxQpSolution:
    """One box's solution; from :func:`solve_many`, each field stacks the rows'."""

    x: np.ndarray
    value: float
    kkt_residual: float
    iterations: int


def kkt_tolerance(quad):
    """Largest KKT violation the audit of a solution over ``quad`` admits."""
    return KKT_TOL_FACTOR * (1.0 + float(np.abs(quad.a).max(initial=0.0)))


def kkt_residual(quad, lo, up, x):
    """Independent audit of the optimality system at x (max violation)."""
    x = np.asarray(x, dtype=float)
    lo, up = np.asarray(lo, dtype=float), np.asarray(up, dtype=float)
    return float(_kkt_violation(quad.grad(x), lo, up, x))


def _kkt_violation(g, lo, up, x):
    """Max KKT violation of each row (variables on the last axis)."""
    below = lo - x
    above = x - up
    atol = 1e-12 * (1.0 + np.abs(x))
    at_lo = (np.abs(below) <= atol) & np.isfinite(lo)
    at_up = (np.abs(above) <= atol) & np.isfinite(up)
    # a variable pinned at both bounds (l = u) has no gradient sign condition
    viol = np.where(at_lo & at_up, -np.inf, np.where(at_lo, -g, np.where(at_up, g, np.abs(g))))
    # one numpy max over every violation, so a NaN anywhere makes the result NaN
    return np.concatenate((below, above, viol), axis=-1).max(axis=-1, initial=0.0)


def solve(quad, lo, up):
    """Solve one box QP: row 0 of :func:`solve_many` on this box alone, with
    a float value and residual and an int iteration count.  A bad bound is
    named by its variable alone."""
    n = quad.n
    lo = np.asarray(lo, dtype=float)
    up = np.asarray(up, dtype=float)
    if lo.shape != (n,) or up.shape != (n,):
        raise InputError("bounds shape mismatch")
    check_box(lo, up)
    sol = solve_many(quad, lo[None], up[None])
    return BoxQpSolution(
        x=sol.x[0],
        value=float(sol.value[0]),
        kkt_residual=float(sol.kkt_residual[0]),
        iterations=int(sol.iterations[0]),
    )


def solve_many(quad, lo, up):
    """Solve a stack of box QPs over one quadratic: row r is the box
    [lo[r], up[r]].

    Each row starts from the clamped unconstrained minimizer.  Each
    iteration clamps the variables sitting on a bound with the matching
    gradient sign, solves the free block exactly and takes a projected
    (clipped) step with an Armijo backtrack; once the clamp set settles, the
    step lands on the exact KKT point.  Infinite bounds never activate.  The
    live rows are grouped by their number k of free variables, and each
    group solves its systems ``Q[F,F] x_F = a_F - Q[F,C] x_C`` as one stack
    of at most ``STACK_ENTRIES`` entries.  The other temporaries hold
    rows x n entries, so the caller bounds them by the size of the stack it
    passes (enumeration passes ``sfm.EXHAUSTIVE_CHUNK`` rows at a time).  A
    box that admits no finite point raises :class:`InputError`; the
    iteration cap ``MAX_ITER``, a stalled line search or a failed audit
    raise :class:`NumericalError`, naming the row.  Returns a
    :class:`BoxQpSolution` whose fields hold one entry per row.
    """
    n = quad.n
    lo = np.asarray(lo, dtype=float)
    up = np.asarray(up, dtype=float)
    if lo.ndim != 2 or lo.shape[1] != n or up.shape != lo.shape:
        raise InputError(f"bounds must be two stacks of shape (rows, {n})")
    check_box(lo, up)
    x = quad.newton_point().clip(lo, up)
    Q, a = quad.Q, quad.a
    rows = x.shape[0]
    tol_kkt = kkt_tolerance(quad)
    res = np.empty(rows)
    iters = np.zeros(rows, dtype=int)
    live = np.arange(rows)
    for it in range(1, MAX_ITER + 1):
        if not live.size:
            break
        xl, ll, ul = x[live], lo[live], up[live]
        g = xl @ Q - a
        clamped = ((xl <= ll) & (g >= 0)) | ((xl >= ul) & (g <= 0)) | (ll == ul)
        free = ~clamped
        # bounds hold by clipping and the clamp set has the right gradient
        # signs by construction, so a small free-set gradient is the whole
        # KKT certificate; initial=0 lets a quadratic with n = 0 through
        stop = np.abs(np.where(free, g, 0.0)).max(axis=1, initial=0.0) <= 0.5 * tol_kkt
        go = (~stop).nonzero()[0]
        if go.size:
            xg = xl[go]
            d = _newton_direction(Q, a, free[go], xg, live[go])
            small = np.abs(d).max(axis=1) <= 1e-13 * (1.0 + np.abs(xg).max(axis=1))
            stop[go[small]] = True
            go, d = go[~small], d[~small]
        if stop.any():
            done = live[stop]
            res[done] = _kkt_violation(g[stop], ll[stop], ul[stop], xl[stop])
            iters[done] = it
        if go.size:
            _newton_step(quad, x, lo, up, live[go], g[go], d)
        live = live[~stop]
    if live.size:
        raise NumericalError(f"row {live[0]}: projected Newton iteration cap {MAX_ITER} exceeded")

    bad = ~(res <= tol_kkt)
    if bad.any():
        row = int(bad.argmax())
        raise NumericalError(f"row {row}: KKT residual {res[row]:.3e} above tolerance {tol_kkt:.3e}")
    return BoxQpSolution(x=x, value=_values(quad, x), kkt_residual=res, iterations=iters)


def _values(quad, x):
    """f at each row of x."""
    return x @ -quad.a + 0.5 * np.einsum("ri,ri->r", x, x @ quad.Q) + quad.k0


def _newton_direction(Q, a, free, x, rows):
    """Newton step of each row of ``x`` on its free set F: the solution of
    ``Q[F,F] x_F = a_F - Q[F,C] x_C`` minus ``x_F``, and 0 on the clamped set
    C.  Rows with the same number k of free variables are solved together,
    as one stack of k x k systems of at most ``STACK_ENTRIES`` entries;
    ``rows`` holds the caller's number of each row, for error messages."""
    rhs = a - (x * ~free) @ Q
    d = np.zeros_like(x)
    counts = free.sum(axis=1)
    for k in np.unique(counts).tolist():
        group = (counts == k).nonzero()[0]
        size = max(1, STACK_ENTRIES // (k * k))
        for s in range(0, group.size, size):
            r = group[s : s + size]
            F = free[r].nonzero()[1].reshape(r.size, k)
            A = Q[F[:, :, None], F[:, None, :]]
            rF = (r[:, None], F)
            try:
                xF = np.linalg.solve(A, rhs[rF][:, :, None])[:, :, 0]
            except np.linalg.LinAlgError as e:
                raise NumericalError(
                    f"row {rows[r[0]]}: free block solve failed"
                    f" ({r.size} rows of {k} free variables solved together): {e}"
                ) from None
            d[rF] = xF - x[rF]
    return d


def _newton_step(quad, x, lo, up, rows, g, d):
    """Move ``x[rows]`` along the Newton steps ``d``: an unclipped step is
    the exact minimizer of the subspace that ``x`` already lies in, so it is
    taken whole, and a clipped one by Armijo backtracking on the projected
    arc.  Updates ``x`` in place."""
    xr, lr, ur = x[rows], lo[rows], up[rows]
    full = xr + d
    xc = full.clip(lr, ur)
    whole = (xc == full).all(axis=1)
    x[rows[whole]] = xc[whole]
    arc = (~whole).nonzero()[0]
    if not arc.size:
        return
    rows, xr, lr, ur, g, d = rows[arc], xr[arc], lr[arc], ur[arc], g[arc], d[arc]
    v = _values(quad, xr)
    # the noise term lets steps through when their true gain sits below the
    # float resolution of f
    noise = 8.0 * np.finfo(float).eps * (1.0 + np.abs(v))
    step = np.ones(arc.size)
    pend = np.arange(arc.size)
    while pend.size:
        xc = (xr[pend] + step[pend, None] * d[pend]).clip(lr[pend], ur[pend])
        vc = _values(quad, xc)
        gain = np.einsum("ri,ri->r", g[pend], xc - xr[pend])
        ok = (vc <= v[pend] + 0.1 * gain + noise[pend]) | (step[pend] < 1e-20)
        x[rows[pend[ok]]] = xc[ok]
        pend = pend[~ok]
        step[pend] *= 0.5
    stalled = step < 1e-20
    if stalled.any():
        raise NumericalError(f"row {rows[stalled.argmax()]}: projected Newton line search stalled")
