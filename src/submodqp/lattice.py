"""Sign splitting and lattice/submodularity checkers.

When a variable's range straddles zero, a single indicator does not preserve
the lattice structure of the feasible set.  Splitting the indicator into a
pair ``(z_plus, z_minus)`` restores it:

* ``NPLUS``  (0 <= l <= u):  one bit, box [l*z, u*z]
* ``NMINUS`` (l <= u <= 0):  one bit, box [l*(1-z), u*(1-z)]
* ``NBOTH``  (l < 0 < u):    two bits, box [l*(1-z_minus), u*z_plus]
* ``NOPEN``  (always open):  no bit, box [l, u], z = 1 (marked by the caller,
  see :func:`submodqp.sfm.solve_full`)

The coupling constraint ``z_minus >= z_plus`` can be dropped because costs are
nonnegative: any optimum using the spurious corner (1, 0) can be repaired to a
feasible assignment without increasing the objective.  The binary problem is
therefore over the full hypercube of ``binary_dim`` coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .exceptions import InputError

NPLUS = "+"
NMINUS = "-"
NBOTH = "+-"
NOPEN = "open"

KIND_PLUS = "z+"
KIND_MINUS = "z-"


@dataclass(frozen=True)
class BinaryCost:
    """Affine realization of c^T z over the split coordinates."""

    linear: np.ndarray
    constant: float

    def __call__(self, zbin):
        return float(self.linear @ np.asarray(zbin, dtype=float) + self.constant)


@dataclass(frozen=True)
class SignSplitMap:
    """Partition of variables by sign regime plus the binary coordinate layout.

    ``coords[k] = (variable index, kind)`` where kind is ``"z+"`` or ``"z-"``.
    Coordinates are laid out per variable in ascending index order, with the
    ``z+`` bit before the ``z-`` bit for straddling variables; that order is
    the engine's canonical one (used for lexicographic tie-breaking).
    Always-open variables (``NOPEN``) have no coordinate.
    """

    regimes: tuple
    coords: tuple
    coord_of: tuple  # per variable: (plus index or None, minus index or None)

    @property
    def n(self):
        return len(self.regimes)

    @cached_property
    def _bit_layout(self):
        """Per variable: index of its z+ bit and of its z- bit (-1 if none),
        masks of the variables that have each bit, and the always-open mask
        (None when no variable is always open)."""
        plus = np.array([-1 if p is None else p for p, _ in self.coord_of], dtype=np.intp)
        minus = np.array([-1 if m is None else m for _, m in self.coord_of], dtype=np.intp)
        is_open = np.array([r == NOPEN for r in self.regimes], dtype=bool)
        return plus, minus, plus >= 0, minus >= 0, is_open if is_open.any() else None

    @property
    def binary_dim(self):
        return len(self.coords)

    @property
    def n_plus(self):
        return tuple(i for i, r in enumerate(self.regimes) if r == NPLUS)

    @property
    def n_minus(self):
        return tuple(i for i, r in enumerate(self.regimes) if r == NMINUS)

    @property
    def n_pm(self):
        return tuple(i for i, r in enumerate(self.regimes) if r == NBOTH)

    def forward(self, zbin):
        """Map a split binary vector to the original indicator vector.

        Uses z = z_plus + (1 - z_minus) per straddling variable; the spurious
        corner (1, 0) maps to 2 and is rejected here (repair it first).
        Always-open variables map to 1.
        """
        zbin = np.asarray(zbin)
        if zbin.shape != (self.binary_dim,):
            raise InputError(f"expected binary vector of length {self.binary_dim}")
        z = np.zeros(self.n, dtype=int)
        for i, (p, m) in enumerate(self.coord_of):
            if self.regimes[i] == NOPEN:
                z[i] = 1
            elif self.regimes[i] == NPLUS:
                z[i] = int(zbin[p])
            elif self.regimes[i] == NMINUS:
                z[i] = 1 - int(zbin[m])
            else:
                z[i] = int(zbin[p]) + 1 - int(zbin[m])
                if z[i] > 1:
                    raise InputError(
                        f"variable {i}: (z+, z-) = (1, 0) does not map to a binary z"
                    )
        return z

    def backward(self, z, x=None):
        """Map an original indicator vector to split coordinates.

        For straddling variables with z=1 the sign of ``x`` (default: positive)
        picks between the (1,1) and (0,0) encodings.
        """
        z = np.asarray(z)
        zbin = np.zeros(self.binary_dim, dtype=int)
        for i, (p, m) in enumerate(self.coord_of):
            r = self.regimes[i]
            if r == NPLUS:
                zbin[p] = int(z[i])
            elif r == NMINUS:
                zbin[m] = 1 - int(z[i])
            elif r == NBOTH:
                if z[i] == 0:
                    zbin[p], zbin[m] = 0, 1
                elif x is not None and x[i] < 0:
                    zbin[p], zbin[m] = 0, 0
                else:
                    zbin[p], zbin[m] = 1, 1
        return zbin


def classify_regime(lo, up):
    if lo > up:
        raise InputError("lo > up")
    if 0.0 <= lo:
        return NPLUS
    if up <= 0.0:
        return NMINUS
    return NBOTH


def split(lo, up, costs=None, always_open=None):
    """Build the sign-split map and the binary cost for bounds (lo, up).

    Boundary cases go to NPLUS whenever 0 <= lo (including lo = u = 0), and to
    NMINUS when up <= 0 < -lo; a variable is split only when l < 0 < u.
    Variables marked in the boolean mask ``always_open`` go to NOPEN: they
    get no coordinate, and their cost, paid at z = 1, joins the constant.
    """
    lo = np.asarray(lo, dtype=float)
    up = np.asarray(up, dtype=float)
    n = lo.shape[0]
    if up.shape != (n,):
        raise InputError("bounds shape mismatch")
    if costs is None:
        costs = np.zeros(n)
    costs = np.asarray(costs, dtype=float)
    if costs.shape != (n,):
        raise InputError("costs shape mismatch")
    always_open = np.zeros(n, dtype=bool) if always_open is None else np.asarray(always_open)
    if always_open.shape != (n,) or always_open.dtype != bool:
        raise InputError(f"always_open must be a boolean mask of {n} variables")

    regimes = []
    coords = []
    coord_of = []
    lin = []
    const = 0.0
    # scalar loop below
    lo, up, costs, always_open = lo.tolist(), up.tolist(), costs.tolist(), always_open.tolist()
    for i in range(n):
        r = classify_regime(lo[i], up[i])
        if always_open[i]:
            r = NOPEN
        regimes.append(r)
        if r == NOPEN:
            coord_of.append((None, None))
            const += costs[i]
        elif r == NPLUS:
            coord_of.append((len(coords), None))
            coords.append((i, KIND_PLUS))
            lin.append(costs[i])
        elif r == NMINUS:
            coord_of.append((None, len(coords)))
            coords.append((i, KIND_MINUS))
            lin.append(-costs[i])
            const += costs[i]
        else:
            coord_of.append((len(coords), len(coords) + 1))
            coords.append((i, KIND_PLUS))
            coords.append((i, KIND_MINUS))
            lin.extend([costs[i], -costs[i]])
            const += costs[i]
    smap = SignSplitMap(tuple(regimes), tuple(coords), tuple(coord_of))
    return smap, BinaryCost(np.array(lin), const)


def bounds_for_binary(smap, zbin, lo, up):
    """Per-variable box implied by a split binary assignment.

    NPLUS: [l*z, u*z]; NMINUS: [l*(1-z-), u*(1-z-)]; NBOTH: [l*(1-z-), u*z+];
    NOPEN: [l, u].  Infinite bounds multiplied by a zero indicator collapse to
    0 (the usual 0*inf = 0 convention).  Straddling boxes are never empty
    since l < 0 < u.
    """
    zbin = np.asarray(zbin)
    if zbin.shape != (smap.binary_dim,):
        raise InputError(f"expected binary vector of length {smap.binary_dim}")
    lo = np.asarray(lo, dtype=float)
    up = np.asarray(up, dtype=float)
    if not smap.binary_dim:  # every variable is always open
        return lo.copy(), up.copy()
    # the lower bound opens unless the z- bit is set (or, without one, the
    # z+ bit is clear); the upper bound opens when the z+ bit is set (or,
    # without one, the z- bit is clear); both open for always-open variables
    on = zbin != 0
    plus, minus, has_plus, has_minus, is_open = smap._bit_layout
    on_plus, off_minus = on[plus], ~on[minus]
    lo_open = np.where(has_minus, off_minus, on_plus)
    up_open = np.where(has_plus, on_plus, off_minus)
    if is_open is not None:
        lo_open |= is_open
        up_open |= is_open
    return np.where(lo_open, lo, 0.0), np.where(up_open, up, 0.0)


def variable_bounds(smap, i, zbin, lo, up):
    """Box of a single variable under a split assignment (scalar fast path)."""
    p, m = smap.coord_of[i]
    r = smap.regimes[i]
    if r == NPLUS:
        return (float(lo[i]), float(up[i])) if zbin[p] else (0.0, 0.0)
    if r == NMINUS:
        return (float(lo[i]), float(up[i])) if not zbin[m] else (0.0, 0.0)
    return (float(lo[i]) if not zbin[m] else 0.0, float(up[i]) if zbin[p] else 0.0)


@dataclass(frozen=True)
class CheckResult:
    ok: bool
    witness: dict | None = None

    def __bool__(self):
        return self.ok


def check_submodular_zeroth(fun, probes, increments, tol=1e-8):
    """Exhaustive zeroth-order submodularity test at the given probe points.

    For each probe y and each index pair (i, j), verifies
    ``f(y + c_i e_i) + f(y + c_j e_j) >= f(y) + f(y + c_i e_i + c_j e_j) - tol``.
    Returns the first violating witness if any.
    """
    increments = np.asarray(increments, dtype=float)
    if np.any(increments <= 0):
        raise InputError("increments must be positive")
    for y in probes:
        y = np.asarray(y, dtype=float)
        n = y.shape[0]
        base = fun(y)
        bumped = [fun(y + increments[i] * _unit(n, i)) for i in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                both = fun(y + increments[i] * _unit(n, i) + increments[j] * _unit(n, j))
                lhs = bumped[i] + bumped[j]
                rhs = base + both
                if lhs < rhs - tol:
                    return CheckResult(
                        False,
                        {
                            "y": y.tolist(),
                            "i": i,
                            "j": j,
                            "ci": float(increments[i]),
                            "cj": float(increments[j]),
                            "lhs": lhs,
                            "rhs": rhs,
                        },
                    )
    return CheckResult(True)


def _unit(n, i):
    e = np.zeros(n)
    e[i] = 1.0
    return e


LATTICE_KINDS = ("Lplus", "Lminus", "Lpm")


def _in_set(kind, lo, up, point, tol=0.0):
    if kind == "Lplus":
        x, z = point
        if z not in (0, 1):
            return False
        return lo * z - tol <= x <= up * z + tol
    if kind == "Lminus":
        x, z = point
        if z not in (0, 1):
            return False
        return lo * (1 - z) - tol <= x <= up * (1 - z) + tol
    if kind == "Lpm":
        x, zp, zm = point
        if zp not in (0, 1) or zm not in (0, 1):
            return False
        return lo * (1 - zm) - tol <= x <= up * zp + tol
    raise InputError(f"unknown lattice kind {kind!r} (use one of {LATTICE_KINDS})")


def check_lattice_membership(kind, lo, up, point_a, point_b):
    """Verify meet/join closure of a point pair in one of the indicator sets.

    Both points must be members (precondition, raised as :class:`InputError`);
    the check itself reports whether componentwise min and max stay inside the
    set.  With hypotheses violated (e.g. Lplus with a negative lower bound) the
    closure genuinely fails, which is what motivates sign splitting.
    """
    for name, p in (("first", point_a), ("second", point_b)):
        if not _in_set(kind, lo, up, p):
            raise InputError(f"{name} point {p} is not a member of {kind}")
    a = np.asarray(point_a, dtype=float)
    b = np.asarray(point_b, dtype=float)
    meet = np.minimum(a, b)
    join = np.maximum(a, b)
    meet_t = tuple(meet[:1]) + tuple(int(round(v)) for v in meet[1:])
    join_t = tuple(join[:1]) + tuple(int(round(v)) for v in join[1:])
    ok = _in_set(kind, lo, up, meet_t) and _in_set(kind, lo, up, join_t)
    if ok:
        return CheckResult(True)
    return CheckResult(
        False,
        {"meet": list(meet_t), "join": list(join_t), "kind": kind, "lo": lo, "up": up},
    )
