"""Exact active-set solver for box-constrained Stieltjes quadratics.

Minimizes ``-a^T x + 0.5 x^T Q x + k0`` over ``l <= x <= u`` with Q symmetric
positive definite and nonpositive off-diagonal.  This is the slow, trusted
value-function oracle: every active-set change triggers a fresh factorization
(simplicity over speed; the O(n^2)-per-step incremental machinery lives in
the path tracer), and every returned solution is audited against the KKT
system before it leaves this module.  The free block goes straight to LAPACK
``potrf``/``potrs`` and the audit is vectorised, so a solve costs a fixed
handful of calls per iteration rather than per-call wrapper overhead and
Python loops over the variables.

KKT conventions, with g = Qx - a:
  * variables at the lower bound need g_i >= 0,
  * variables at the upper bound need g_i <= 0,
  * free variables need g_i = 0,
all within ``KKT_TOL_FACTOR * (1 + max|a|)``.  Ties (g_i = 0 exactly at a
bound) classify into the bound sets, never into the free set, so partitions
are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs

from .exceptions import InputError, NumericalError
from .lattice import bounds_for_binary

KKT_TOL_FACTOR = 1e-10

_FREE, _LO, _HI = 0, 1, 2


@dataclass(frozen=True)
class ActiveSetPartition:
    """Final split of indices: S at lower bounds, T at upper bounds, R free."""

    lower: tuple
    upper: tuple
    free: tuple


@dataclass(frozen=True)
class BoxQpSolution:
    x: np.ndarray
    value: float
    partition: ActiveSetPartition
    kkt_residual: float
    iterations: int


def kkt_residual(quad, lo, up, x):
    """Independent audit of the optimality system at x (max violation)."""
    return _kkt_violation(quad.grad(x), lo, up, x)


def _kkt_violation(g, lo, up, x):
    below = lo - x
    above = x - up
    res = max(0.0, float(below.max(initial=0.0)), float(above.max(initial=0.0)))
    atol = 1e-12 * (1.0 + np.abs(x))
    at_lo = (np.abs(below) <= atol) & np.isfinite(lo)
    at_up = (np.abs(above) <= atol) & np.isfinite(up)
    viol = np.where(at_lo, -g, np.where(at_up, g, np.abs(g)))
    return max(res, float(viol[~(at_lo & at_up)].max(initial=0.0)))


def _spd_solve(A, b):
    """Solve A x = b for a symmetric positive definite block (LAPACK potrf/potrs)."""
    c, info = dpotrf(A, lower=1, overwrite_a=1)
    if info == 0:
        x, info = dpotrs(c, b, lower=1)
    if info != 0:
        raise NumericalError(f"free block is not positive definite (LAPACK info={info})")
    return x


def _classify(x, lo, up, g):
    status = np.full(x.shape[0], _FREE, dtype=np.int8)
    at_lo = (x <= lo) & np.isfinite(lo)
    at_up = (x >= up) & np.isfinite(up)
    pinned = at_lo & at_up
    status[at_lo] = _LO
    status[at_up & ~at_lo] = _HI
    # pinned variables: pick the side matching the gradient sign
    status[pinned & (g < 0)] = _HI
    return status


def solve(quad, lo, up, max_iter=200):
    """Solve the box QP exactly via projected Newton on the clamped set.

    Starts from the clamped unconstrained minimizer.  Each iteration clamps
    the variables sitting on a bound with the matching gradient sign, solves
    the free block exactly, and takes a projected (clipped) step with an
    Armijo backtrack.  Once the clamp set settles, the free-block solve lands
    on the exact KKT point, so the final residual is at roundoff level.
    Strict convexity makes the minimizer unique; infinite bounds simply never
    activate.
    """
    quad.require_stieltjes()
    n = quad.n
    lo = np.asarray(lo, dtype=float)
    up = np.asarray(up, dtype=float)
    if lo.shape != (n,) or up.shape != (n,):
        raise InputError("bounds shape mismatch")
    if (lo > up).any():
        bad = int(np.argmax(lo > up))
        raise InputError(f"empty box: lo[{bad}] > up[{bad}]")

    Q, a = quad.Q, quad.a
    x = np.clip(quad.newton_point(), lo, up)
    value = None  # f(x), computed once a line search needs it
    tol_kkt = KKT_TOL_FACTOR * (1.0 + float(np.abs(a).max(initial=0.0)))

    fixed = lo == up
    iters = 0
    while iters < max_iter:
        iters += 1
        g = Q @ x - a
        clamped = ((x <= lo) & (g >= 0)) | ((x >= up) & (g <= 0)) | fixed
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
            x, value = xc, None
            continue
        # clipped: Armijo on the projected arc; the noise term lets steps
        # through when their true gain sits below float resolution of f
        if value is None:
            value = quad.value(x)
        noise = 8.0 * np.finfo(float).eps * (1.0 + abs(value))
        step = 1.0
        while True:
            xc = np.clip(x + step * d, lo, up)
            vc = quad.value(xc)
            gain = float(g @ (xc - x))
            if vc <= value + 0.1 * gain + noise or step < 1e-20:
                break
            step *= 0.5
        if step < 1e-20:
            raise NumericalError("projected Newton line search stalled")
        x, value = xc, vc
    else:
        raise NumericalError(f"projected Newton iteration cap {max_iter} exceeded")

    # every exit above leaves g = Q x - a at the final x
    res = _kkt_violation(g, lo, up, x)
    if res > tol_kkt:
        raise NumericalError(f"KKT residual {res:.3e} above tolerance {tol_kkt:.3e}")
    status = _classify(x, lo, up, g)
    part = ActiveSetPartition(
        lower=tuple((status == _LO).nonzero()[0].tolist()),
        upper=tuple((status == _HI).nonzero()[0].tolist()),
        free=tuple((status == _FREE).nonzero()[0].tolist()),
    )
    if value is None:
        value = quad.value(x)
    return BoxQpSolution(x=x, value=value, partition=part, kkt_residual=res, iterations=iters)


def value_function(quad, lo, up, smap, zbin):
    """v(z): optimal objective with the indicator assignment fixed to zbin."""
    blo, bup = bounds_for_binary(smap, zbin, lo, up)
    return solve(quad, blo, bup).value
