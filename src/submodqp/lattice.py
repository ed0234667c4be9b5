"""Sign splitting of the indicator variables.

When a variable's range straddles zero, a single indicator does not preserve
the lattice structure of the feasible set.  Splitting the indicator into a
pair ``(z_plus, z_minus)`` restores it.  By the signs of its bounds each
variable falls in one of four regimes:

* ``0 <= l <= u``:  one bit z+, box [l*z+, u*z+]
* ``l <= u <= 0``:  one bit z-, box [l*(1-z-), u*(1-z-)]
* ``l < 0 < u``:    two bits, box [l*(1-z-), u*z+]
* always open:      no bit, box [l, u], z = 1 (the open rule of
  :func:`split`)

Every bit opens or closes bounds of its variable: a z+ bit is open when set
and opens u (and, alone, l too); a z- bit is open when clear and opens l
(and, alone, u too); a closed bound is 0.  :class:`SignSplitMap` stores the
four regimes as one bound table.  Per coordinate k: ``var[k]``, its
variable, and ``plus[k]``, True for a z+ bit.  Per variable i: ``lo_bit[i]``
and ``up_bit[i]``, the coordinates whose open state opens l_i and u_i.  A
one-bit variable points both at its bit, a straddling one at its z- and its
z+ bit, and an always-open one at ``binary_dim``, which stands for "always
open".  The map also holds ``lo`` and ``up``, the problem's unsplit bounds
that the table opens, so every box it implies comes from the bounds it was
built from.

The coupling constraint ``z_minus >= z_plus`` can be dropped because costs are
nonnegative: any optimum using the spurious corner (1, 0), where both bounds
of a straddling variable are open, can be repaired to a feasible assignment
without increasing the objective: :meth:`SignSplitMap.indicators` closes the
bound the minimizer x_i does not use (both when x_i = 0).  The binary
problem is therefore over the full hypercube of ``binary_dim`` coordinates.

This module owns the split's coordinates and everything that indexes them:
the bound table, orders of coordinates (:func:`check_order`), the prefix
sets of an order (:func:`prefix_sets`) and the box of any set of
coordinates (:func:`bounds_for_binary`, one gather for a whole stack).
Every box a solver sees comes from that one rule: the judges' and the
engines' stacked solves, and the stage boxes of a traced chain, which are
the boxes of its order's prefix sets (:func:`prefix_boxes`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import InputError
from .model import check_binary


@dataclass(frozen=True)
class BinaryCost:
    """Affine realization of c^T z over the split coordinates."""

    linear: np.ndarray
    constant: float

    def __call__(self, zbin):
        return float(self.linear @ np.asarray(zbin, dtype=float) + self.constant)


@dataclass(frozen=True, eq=False)
class SignSplitMap:
    """The bound table of a sign split (see the module docstring).

    Coordinates are laid out per variable in ascending index order, with the
    z+ bit before the z- bit of a straddling variable; that order is the
    engine's canonical one (used for lexicographic tie-breaking).
    """

    var: np.ndarray  # per coordinate: its variable
    plus: np.ndarray  # per coordinate: True for z+ (open when set), False for z-
    lo_bit: np.ndarray  # per variable: coordinate opening l, binary_dim if always
    up_bit: np.ndarray  # per variable: coordinate opening u, binary_dim if always
    lo: np.ndarray  # per variable: the unsplit l the table opens (read-only)
    up: np.ndarray  # per variable: the unsplit u the table opens (read-only)

    @property
    def n(self):
        return self.lo_bit.shape[0]

    @property
    def binary_dim(self):
        return self.var.shape[0]

    def _open_bounds(self, zbin):
        """Per variable: whether ``zbin`` opens its lower and its upper bound.

        ``zbin`` may stack assignments on leading axes, with the coordinates
        on the last; the results stack the same way.  ``zbin`` must be binary
        (:func:`~submodqp.model.check_binary`).
        """
        zbin = np.asarray(zbin)
        m = self.binary_dim
        check_binary(zbin, m)
        is_open = np.empty(zbin.shape[:-1] + (m + 1,), dtype=bool)
        np.equal(zbin, self.plus, out=is_open[..., :m])
        is_open[..., m] = True
        return is_open[..., self.lo_bit], is_open[..., self.up_bit]

    @property
    def always_open(self):
        """Per variable: True when it has no coordinate (its bits point at
        ``binary_dim``), so its box is [l, u] under every assignment."""
        return self.lo_bit == self.binary_dim

    def indicators(self, zbin, x):
        """The original indicator vector of split assignment ``zbin`` and
        its box's minimizer ``x``: z_i = 1 when ``zbin`` opens either bound
        of variable i (always-open variables map to 1), except on a spurious
        corner (z+, z-) = (1, 0) with x_i neither < 0 nor > 0.  That repairs
        the corner: x > 0 closes l (sets z-), x < 0 closes u (clears z+) and
        x = 0 closes both, which keeps x feasible and never raises the cost.
        """
        lo_open, up_open = self._open_bounds(zbin)
        spurious = lo_open & up_open & (self.lo_bit != self.up_bit)
        x = np.asarray(x)
        return ((lo_open | up_open) & ~(spurious & ~(x < 0) & ~(x > 0))).astype(int)


def split(problem):
    """Build the sign-split map and the binary cost of an
    :class:`~submodqp.model.IndicatorProblem`.

    Boundary cases take one z+ bit whenever 0 <= lo (including lo = u = 0),
    and one z- bit when up <= 0 < -lo; a variable is split only when
    l < 0 < u.  Bounds may be infinite; the problem's box, checked when it
    was built, admits a finite point.

    The open rule: a variable is always open, with no coordinate and the
    box [l_i, u_i] under every assignment, when it has no indicator (see
    ``problem.indicated``), or when (a) it costs nothing and (b) 0 lies in
    [l_i, u_i].  Then its feasible set [l_i, u_i] ∪ {0} is [l_i, u_i]:
    opening a box never raises v and a zero cost never changes the cost
    term, so F with the indicator open is at most F with it closed, and the
    restriction of F to the open indicators is submodular with the same
    minimum (Bach 2013, *Learning with Submodular Functions*, on
    restriction).  Condition (b) matters: a zero-cost semi-continuous
    variable (0 < l_i) chooses between {0} and [l_i, u_i], which do not
    nest.  An always-open variable's cost, paid at z = 1, joins the
    constant.
    """
    lo, up, costs = problem.lo, problem.up, problem.costs
    always_open = ~problem.indicated | ((costs == 0.0) & (lo <= 0.0) & (up >= 0.0))

    n = lo.shape[0]
    nonneg = 0.0 <= lo
    minus = ~always_open & ~nonneg & (up <= 0.0)
    both = ~always_open & ~nonneg & ~(up <= 0.0)
    nbits = (~always_open).astype(np.intp) + both
    first = np.cumsum(nbits) - nbits
    m = int(nbits.sum())
    var = np.repeat(np.arange(n), nbits)
    plus = np.zeros(m, dtype=bool)
    plus[first[~always_open & ~minus]] = True
    lo_bit = np.where(always_open, m, first + both)
    up_bit = np.where(always_open, m, first)
    for arr in (var, plus, lo_bit, up_bit):
        arr.flags.writeable = False
    linear = np.where(plus, costs[var], -costs[var])
    # a closed z- bit and an open variable pay at zbin = 0; summed in
    # ascending variable order, one by one, which fixes F's last bits
    const = 0.0
    for c in costs[always_open | ~nonneg].tolist():
        const += c
    return SignSplitMap(var, plus, lo_bit, up_bit, lo, up), BinaryCost(linear, const)


def bounds_for_binary(smap, zbin):
    """Per-variable box implied by a split binary assignment.

    A bound is l_i or u_i (``smap.lo``, ``smap.up``) where the table opens
    it and 0 where it is closed (the usual 0*inf = 0 convention for
    infinite bounds).  Straddling boxes are never empty since l < 0 < u.  A
    stack of assignments (coordinates on the last axis) gives the stack of
    their boxes in one gather.
    """
    lo_open, up_open = smap._open_bounds(zbin)
    return np.where(lo_open, smap.lo, 0.0), np.where(up_open, smap.up, 0.0)


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


def prefix_sets(order, m):
    """The ``(len(order) + 1, m)`` bool matrix whose row k is the indicator
    of ``order[:k]``, for an ``order`` that :func:`check_order` admits."""
    order = check_order(order, m)
    # row r holds the ranks up to r: order[i] has rank i + 1 and the rest
    # k + 1, in the least integer type that holds them, for a cheap compare
    k = len(order)
    rank = np.full(m, k + 1, dtype=np.min_scalar_type(k + 1))
    rank[order] = np.arange(1, k + 1)
    return np.arange(k + 1, dtype=rank.dtype)[:, None] >= rank


def prefix_boxes(smap, order):
    """The boxes of the prefix sets of ``order`` (:func:`prefix_sets`) as two
    stacks: row k is the box once ``order[:k]`` is set, row 0 all clear."""
    return bounds_for_binary(smap, prefix_sets(order, smap.binary_dim))
