"""Exact active-set solver for box-constrained Stieltjes quadratics.

Minimizes ``-a^T x + 0.5 x^T Q x + k0`` over ``l <= x <= u`` by projected
Newton on the clamped set.  Q is a Stieltjes matrix, symmetric positive
definite with nonpositive off-diagonal, because :class:`QuadraticForm`
admits no other; the solvers take that as given.  There are two entry
points:

* :func:`solve` takes one box.  It is the slow, trusted value-function
  oracle: every active-set change triggers a fresh factorization (simplicity
  over speed; the O(n^2)-per-step incremental machinery lives in the path
  tracer).  Single solves (stage 0 of every chain, an engine's answer and
  its x) and the brute-force judge use it.  The free block goes
  straight to LAPACK ``potrf``/``potrs``, so a solve costs a constant
  handful of calls per iteration.
* :func:`solve_many` takes a stack of boxes, one per row, and runs the same
  algorithm on all of them at once.  Each iteration gathers the free block
  of every row still live and solves the blocks of each size k together, as
  one stack of k x k systems.  Enumeration uses it, one chunk of codes per
  call, where thousands of small solves would otherwise pay numpy's
  per-call overhead thousands of times.

Every returned solution, scalar or stacked, is audited against the KKT
system before it leaves this module.  KKT conventions, with g = Qx - a:
  * variables at the lower bound need g_i >= 0,
  * variables at the upper bound need g_i <= 0,
  * free variables need g_i = 0,
all within :func:`kkt_tolerance`; a NaN anywhere makes the residual NaN,
which fails the audit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._lapack import dpotrf, dpotrs
from .exceptions import InputError, NumericalError
from .lattice import bounds_for_binary
from .model import check_box

KKT_TOL_FACTOR = 1e-10
# most entries (0.5 MB of floats) of one stack of k x k free blocks that
# solve_many solves together (systems x k x k); its rows x n temporaries are
# bounded by the caller's stack
STACK_ENTRIES = 1 << 16
MAX_ITER = 200  # projected Newton iterations allowed per box, scalar or stacked


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


def _spd_solve(A, b):
    """Solve A x = b for a symmetric positive definite block (LAPACK potrf/potrs)."""
    c, info = dpotrf(A, lower=1, overwrite_a=1)
    if info == 0:
        x, info = dpotrs(c, b, lower=1)
    if info != 0:
        raise NumericalError(f"free block is not positive definite (LAPACK info={info})")
    return x


def solve(quad, lo, up):
    """Solve the box QP exactly via projected Newton on the clamped set.

    Starts from the clamped unconstrained minimizer.  Each iteration clamps
    the variables sitting on a bound with the matching gradient sign, solves
    the free block exactly, and takes a projected (clipped) step with an
    Armijo backtrack.  Once the clamp set settles, the free-block solve lands
    on the exact KKT point, so the final residual is at roundoff level.
    Strict convexity makes the minimizer unique; infinite bounds simply never
    activate, but a box that admits no finite point raises
    :class:`InputError`, and a solve that needs more than ``MAX_ITER``
    iterations raises :class:`NumericalError`.
    """
    n = quad.n
    lo = np.asarray(lo, dtype=float)
    up = np.asarray(up, dtype=float)
    if lo.shape != (n,) or up.shape != (n,):
        raise InputError("bounds shape mismatch")
    check_box(lo, up)

    Q, a = quad.Q, quad.a
    x = quad.newton_point().clip(lo, up)
    tol_kkt = kkt_tolerance(quad)

    zero_width = lo == up
    iters = 0
    while iters < MAX_ITER:
        iters += 1
        g = Q @ x - a
        clamped = ((x <= lo) & (g >= 0)) | ((x >= up) & (g <= 0)) | zero_width
        R = (~clamped).nonzero()[0]
        # bounds hold by clipping and the clamp set has the right gradient
        # signs by construction, so a small free-set gradient is the whole
        # KKT certificate
        if not R.size or np.abs(g[R]).max() <= 0.5 * tol_kkt:
            break
        C = clamped.nonzero()[0]
        Rc = R[:, None]
        rhs = a[R] - (Q[Rc, C] @ x[C] if C.size else 0.0)
        xstar = _spd_solve(Q[Rc, R], rhs)
        d = np.zeros(n)
        d[R] = xstar - x[R]
        if np.abs(d).max() <= 1e-13 * (1.0 + np.abs(x).max()):
            break
        full = x + d
        xc = full.clip(lo, up)
        if (xc == full).all():
            # unclipped: this is the exact subspace minimizer and x lies in
            # the same subspace, so the step can never increase f; accepting
            # it unconditionally also lands exactly on the computed solution,
            # whose gradient is backward-stable-small even for soft modes
            x = xc
            continue
        # clipped: Armijo on the projected arc; the noise term lets steps
        # through when their true gain sits below float resolution of f
        value = quad.value(x)
        noise = 8.0 * np.finfo(float).eps * (1.0 + abs(value))
        step = 1.0
        while True:
            xc = (x + step * d).clip(lo, up)
            vc = quad.value(xc)
            gain = float(g @ (xc - x))
            if vc <= value + 0.1 * gain + noise or step < 1e-20:
                break
            step *= 0.5
        if step < 1e-20:
            raise NumericalError("projected Newton line search stalled")
        x = xc
    else:
        raise NumericalError(f"projected Newton iteration cap {MAX_ITER} exceeded")

    # every exit above leaves g = Q x - a at the final x
    res = _kkt_violation(g, lo, up, x)
    if not res <= tol_kkt:
        raise NumericalError(f"KKT residual {res:.3e} above tolerance {tol_kkt:.3e}")
    return BoxQpSolution(x=x, value=quad.value(x), kkt_residual=res, iterations=iters)


def solve_many(quad, lo, up):
    """Solve a stack of box QPs over one quadratic: row r is the box
    [lo[r], up[r]].

    The algorithm is :func:`solve`'s, run on every row at once, with the
    same start, clamp rule, exits, Armijo constants and iteration cap.  The
    live rows that take a Newton step are grouped by their number k of free
    variables, and each group solves its gathered systems
    ``Q[F,F] x_F = a_F - Q[F,C] x_C`` as one stack, split so that no stack
    holds more than ``STACK_ENTRIES`` entries.  Rows leave the live set as
    they converge, and every row passes :func:`solve`'s KKT audit.  The
    other temporaries hold rows x n entries, so the caller bounds them by
    the size of the stack it passes (the exhaustive engine passes
    ``sfm.EXHAUSTIVE_CHUNK`` rows at a time).  Errors name the offending
    row.  Returns a :class:`BoxQpSolution` whose fields hold one entry per
    row.
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
    value = np.empty(rows)
    known = np.zeros(rows, dtype=bool)  # value holds f(x), from a line search
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
        stop = np.abs(np.where(free, g, 0.0)).max(axis=1) <= 0.5 * tol_kkt
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
            _newton_step(quad, x, lo, up, value, known, live[go], g[go], d)
        live = live[~stop]
    if live.size:
        raise NumericalError(f"row {live[0]}: projected Newton iteration cap {MAX_ITER} exceeded")

    bad = ~(res <= tol_kkt)
    if bad.any():
        row = int(bad.argmax())
        raise NumericalError(f"row {row}: KKT residual {res[row]:.3e} above tolerance {tol_kkt:.3e}")
    value[~known] = _values(quad, x[~known])
    return BoxQpSolution(x=x, value=value, kkt_residual=res, iterations=iters)


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


def _newton_step(quad, x, lo, up, value, known, rows, g, d):
    """Move ``x[rows]`` along the Newton steps ``d``, as :func:`solve` does:
    an unclipped step is taken whole, a clipped one by Armijo backtracking on
    the projected arc.  Updates ``x``, ``value`` and ``known`` in place."""
    xr, lr, ur = x[rows], lo[rows], up[rows]
    full = xr + d
    xc = full.clip(lr, ur)
    whole = (xc == full).all(axis=1)
    x[rows[whole]] = xc[whole]
    known[rows[whole]] = False
    arc = (~whole).nonzero()[0]
    if not arc.size:
        return
    rows, xr, lr, ur, g, d = rows[arc], xr[arc], lr[arc], ur[arc], g[arc], d[arc]
    v = value[rows]
    unknown = ~known[rows]
    v[unknown] = _values(quad, xr[unknown])
    noise = 8.0 * np.finfo(float).eps * (1.0 + np.abs(v))
    step = np.ones(arc.size)
    pend = np.arange(arc.size)
    while pend.size:
        xc = (xr[pend] + step[pend, None] * d[pend]).clip(lr[pend], ur[pend])
        vc = _values(quad, xc)
        gain = np.einsum("ri,ri->r", g[pend], xc - xr[pend])
        ok = (vc <= v[pend] + 0.1 * gain + noise[pend]) | (step[pend] < 1e-20)
        x[rows[pend[ok]]] = xc[ok]
        value[rows[pend[ok]]] = vc[ok]
        pend = pend[~ok]
        step[pend] *= 0.5
    stalled = step < 1e-20
    if stalled.any():
        raise NumericalError(f"row {rows[stalled.argmax()]}: projected Newton line search stalled")
    known[rows] = True


def value_function(quad, smap, zbin):
    """v(z): optimal objective under the split assignment zbin of ``smap``."""
    blo, bup = bounds_for_binary(smap, zbin)
    return solve(quad, blo, bup).value
