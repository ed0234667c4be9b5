import itertools
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import submodqp as sq
from submodqp import boxqp, lattice
from submodqp.exceptions import InputError

_bound_pairs = st.lists(
    st.tuples(
        st.floats(-5, 5, allow_nan=False, allow_infinity=False),
        st.floats(0, 5, allow_nan=False, allow_infinity=False),
    ),
    min_size=1,
    max_size=6,
)


def _problem(lo, up, costs=None, mode="sparse"):
    """An indicator problem on the bounds (lo, up), with Q the identity.
    Every indicator costs 1 unless ``costs`` says otherwise, so the open
    rule leaves none without a coordinate."""
    n = len(lo)
    costs = np.ones(n) if costs is None else costs
    return sq.IndicatorProblem(sq.QuadraticForm(np.eye(n), np.zeros(n)), costs, lo, up, mode)


# --- checkers of the lattice-closure and submodularity lemmas ----------------
#
# The sign split exists because these lemmas hold for the split sets and fail
# for a single indicator on a straddling range; the tests below check both.

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


@given(_bound_pairs)
@settings(max_examples=200, deadline=None)
def test_split_partitions_every_index(pairs):
    lo = np.array([a for a, _ in pairs])
    up = np.array([a + w for a, w in pairs])
    smap, _ = lattice.split(_problem(lo, up))
    # every variable owns one or two consecutive coordinates, ascending
    assert smap.n == len(pairs)
    assert np.all(np.diff(smap.var) >= 0)
    assert np.array_equal(np.unique(smap.var), np.arange(len(pairs)))
    straddle = (lo < 0) & (up > 0)
    assert np.array_equal(np.bincount(smap.var, minlength=len(pairs)), 1 + straddle)
    assert smap.binary_dim == len(pairs) + straddle.sum()


@given(_bound_pairs, st.integers(0, 2**12 - 1))
@settings(max_examples=200, deadline=None)
def test_bounds_for_binary_never_empty(pairs, code):
    lo = np.array([a for a, _ in pairs])
    up = np.array([a + w for a, w in pairs])
    smap, _ = lattice.split(_problem(lo, up))
    z = np.array([(code >> b) & 1 for b in range(smap.binary_dim)], dtype=int)
    blo, bup = lattice.bounds_for_binary(smap, z)
    assert np.all(blo <= bup)


def test_split_regimes_example():
    # a straddling variable (z+ then z-), a nonnegative one (z+) and a
    # nonpositive one (z-)
    smap, _ = lattice.split(_problem(np.array([-1.0, 0.0, -2.0]), np.array([2.0, 3.0, -1.0])))
    assert smap.var.tolist() == [0, 0, 1, 2]
    assert smap.plus.tolist() == [True, False, True, False]
    assert smap.lo_bit.tolist() == [1, 2, 3]
    assert smap.up_bit.tolist() == [0, 2, 3]
    assert smap.binary_dim == 4


def test_split_unit_box_is_identity():
    n = 5
    smap, cost = lattice.split(_problem(np.zeros(n), np.ones(n), np.arange(1.0, n + 1)))
    assert smap.var.tolist() == list(range(n)) and smap.plus.all()
    assert smap.binary_dim == n
    z = np.array([1, 0, 1, 0, 1])
    assert np.array_equal(smap.indicators(z, np.zeros(n)), z)
    assert cost(z) == pytest.approx(1 + 3 + 5)


def test_binary_cost_straddling_example():
    # cost 3 * (z+ + 1 - z-) evaluated at the three relevant corners
    _, cost = lattice.split(_problem(np.array([-1.0]), np.array([1.0]), np.array([3.0])))
    assert cost([1, 1]) == pytest.approx(3.0)
    assert cost([0, 0]) == pytest.approx(3.0)
    assert cost([0, 1]) == pytest.approx(0.0)


def test_bounds_for_binary_straddle():
    smap, _ = lattice.split(_problem(np.array([-1.0]), np.array([2.0])))
    lo, up = lattice.bounds_for_binary(smap, [0, 1])
    assert (lo[0], up[0]) == (0.0, 0.0)
    lo, up = lattice.bounds_for_binary(smap, [1, 0])
    assert (lo[0], up[0]) == (-1.0, 2.0)


def test_bounds_for_binary_positive_lower_bound():
    smap, _ = lattice.split(_problem(np.array([1.0]), np.array([3.0])))
    lo, up = lattice.bounds_for_binary(smap, [1])
    assert (lo[0], up[0]) == (1.0, 3.0)
    lo, up = lattice.bounds_for_binary(smap, [0])
    assert (lo[0], up[0]) == (0.0, 0.0)


def test_bounds_for_binary_infinite_upper():
    smap, _ = lattice.split(_problem(np.array([0.0]), np.array([np.inf])))
    lo, up = lattice.bounds_for_binary(smap, [0])
    assert (lo[0], up[0]) == (0.0, 0.0)  # 0 * inf = 0 convention
    lo, up = lattice.bounds_for_binary(smap, [1])
    assert up[0] == np.inf


def test_zeroth_order_checker_supermodular_witness():
    res = check_submodular_zeroth(
        lambda x: x[0] * x[1], [np.zeros(2)], [1.0, 1.0]
    )
    assert not res.ok
    assert res.witness["lhs"] < res.witness["rhs"]


def test_zeroth_order_checker_negative_cross_term():
    res = check_submodular_zeroth(
        lambda x: -x[0] * x[1], [np.zeros(2)], [1.0, 1.0]
    )
    assert res.ok


def test_zeroth_order_checker_stieltjes_quadratic():
    sampler = sq.InstanceSampler(n=4, regime="mixed", seed=9)
    prob = sampler.draw(0)
    rng = np.random.default_rng(9)
    probes = [rng.normal(0, 2, size=4) for _ in range(1000)]
    res = check_submodular_zeroth(prob.quad.value, probes, rng.uniform(0.2, 1.5, 4))
    assert res.ok


def test_zeroth_order_checker_rejects_bad_increments():
    with pytest.raises(InputError):
        check_submodular_zeroth(lambda x: 0.0, [np.zeros(2)], [1.0, 0.0])


def test_lattice_membership_lplus():
    res = check_lattice_membership("Lplus", 1.0, 2.0, (1.5, 1), (0.0, 0))
    assert res.ok


def test_lattice_membership_lpm():
    res = check_lattice_membership("Lpm", -1.0, 1.0, (-0.5, 1, 0), (0.7, 1, 1))
    assert res.ok


def test_lattice_membership_fails_for_negative_lower_bound():
    # Lplus with l < 0 is not a lattice: the meet (-1, 0) violates l*z <= x
    res = check_lattice_membership("Lplus", -1.0, 1.0, (-1.0, 1), (0.0, 0))
    assert not res.ok
    assert res.witness["meet"] == [-1.0, 0]


def test_lattice_membership_precondition_is_distinct():
    with pytest.raises(InputError):
        check_lattice_membership("Lplus", 1.0, 2.0, (5.0, 1), (0.0, 0))
    with pytest.raises(InputError):
        check_lattice_membership("Lwrong", 0.0, 1.0, (0.0, 0), (0.0, 0))


def _all_binary(m):
    return [np.array(b, dtype=int) for b in itertools.product((0, 1), repeat=m)]


def test_split_value_function_submodular_all_pairs():
    # v(z+, z-) over the split cube satisfies the lattice inequality everywhere
    for seed in range(6):
        prob = sq.InstanceSampler(n=3, regime="mixed", seed=seed).draw(0)
        smap, _ = lattice.split(prob)
        vecs = _all_binary(smap.binary_dim)
        sol = boxqp.solve_many(prob.quad, *lattice.bounds_for_binary(smap, np.array(vecs)))
        vals = dict(zip(map(tuple, vecs), sol.value.tolist()))
        for z1, z2 in itertools.combinations(vecs, 2):
            meet = np.minimum(z1, z2)
            join = np.maximum(z1, z2)
            lhs = vals[tuple(z1)] + vals[tuple(z2)]
            rhs = vals[tuple(meet)] + vals[tuple(join)]
            assert lhs >= rhs - 1e-8


def test_dropping_coupling_constraint_preserves_optimum():
    # enumerating the full cube vs. the cube restricted to z- >= z+ gives the
    # same optimal value (the spurious corners are never strictly better)
    for seed in range(8):
        prob = sq.InstanceSampler(n=3, regime="mixed", seed=100 + seed).draw(0)
        smap, bincost = lattice.split(prob)
        z = np.array(_all_binary(smap.binary_dim))
        vals = boxqp.solve_many(prob.quad, *lattice.bounds_for_binary(smap, z)).value
        vals = vals + z @ bincost.linear + bincost.constant
        coupled = np.all(z[:, smap.lo_bit] >= z[:, smap.up_bit], axis=1)  # z- >= z+
        assert vals.min() == pytest.approx(vals[coupled].min(), abs=1e-9)


def test_forward_map_and_cost():
    for seed in range(10):
        prob = sq.InstanceSampler(n=4, regime="mixed", seed=200 + seed).draw(0)
        smap, bincost = lattice.split(prob)
        for z in _all_binary(smap.binary_dim):
            coupled = np.all(z[smap.lo_bit] >= z[smap.up_bit])  # z- >= z+
            if not coupled:
                continue
            orig = smap.indicators(z, np.zeros(prob.n))
            assert set(np.unique(orig)).issubset({0, 1})
            assert bincost(z) == pytest.approx(float(prob.costs @ orig), abs=1e-12)


def test_a_split_vector_entry_that_is_not_0_or_1_is_rejected():
    # an entry of 2 would close the bound and still pay the cost: on this
    # chain F = 11.0157, neither F(∅) = 9.0157 nor F({0}) = 10.0116
    inst, _ = sq.generate("chain", 4, seed=1)
    oracle = sq.IndicatorOracle(sq.compile_instance(inst))
    for bad in (2, -1, 0.5, np.nan):
        z = np.zeros(oracle.m)
        z[0] = bad
        with pytest.raises(InputError, match="0 or 1"):
            oracle.eval(z)
        with pytest.raises(InputError, match="0 or 1"):
            oracle.eval_many(np.vstack([np.zeros(oracle.m), z]))
        with pytest.raises(InputError, match="0 or 1"):
            lattice.bounds_for_binary(oracle.smap, z)
    assert oracle.stats == sq.sfm.SolveStats()
    # bools and the floats 0.0 and 1.0 are binary
    z = np.zeros(oracle.m)
    z[0] = 1.0
    assert oracle.eval(z) == oracle.eval(z.astype(bool)) == oracle.eval(z.astype(int))


def test_indicators_map_a_spurious_corner_by_the_sign_of_x():
    # (z+, z-) = (1, 0) opens both bounds; a nonzero x keeps the one it
    # uses open, and x = 0 closes both
    smap, _ = lattice.split(_problem(np.array([-1.0]), np.array([1.0])))
    for x, z in ((0.5, 1), (-0.5, 1), (0.0, 0)):
        assert smap.indicators(np.array([1, 0]), np.array([x])).tolist() == [z]


def test_split_always_open_layout():
    # the zero-cost variables whose box holds 0 (0, 2, 3) get no coordinate
    # and keep [l, u]; variable 1 costs nothing too, but 0 < l (rule (b))
    lo = np.array([0.0, 0.5, -1.0, -2.0, -1.0])
    up = np.array([2.0, 2.0, 1.0, 0.0, 1.0])
    costs = np.array([0.0, 0.0, 0.0, 0.0, 0.3])
    mask = np.array([True, False, True, True, False])
    smap, cost = lattice.split(_problem(lo, up, costs))
    assert smap.var.tolist() == [1, 4, 4]
    assert smap.plus.tolist() == [True, True, False]
    assert smap.lo_bit.tolist() == [3, 0, 3, 3, 2]
    assert smap.up_bit.tolist() == [3, 0, 3, 3, 1]
    assert smap.binary_dim == 3
    for z in ([0, 0, 0], [1, 1, 1], [0, 1, 0]):
        blo, bup = lattice.bounds_for_binary(smap, z)
        assert np.array_equal(blo[mask], lo[mask]) and np.array_equal(bup[mask], up[mask])
    x = np.zeros(5)
    assert smap.indicators(np.array([0, 0, 1]), x).tolist() == [1, 0, 1, 1, 0]
    assert smap.indicators(np.array([1, 1, 1]), x).tolist() == [1, 1, 1, 1, 1]
    for z in _all_binary(3):
        if z[1] > z[2]:
            continue  # spurious corner
        orig = smap.indicators(z, x)
        assert cost(z) == pytest.approx(float(costs @ orig), abs=1e-12)


def test_split_with_every_variable_open():
    # robust mode: variables 0 and 1 carry no indicator, and 2 and 3 cost
    # nothing on a box that holds 0
    lo, up = np.array([-1.0, 0.0, -3.0, 0.0]), np.array([2.0, 1.0, 0.0, 0.5])
    problem = _problem(lo, up, np.array([0.0, 0.5, 0.0, 0.0]), mode="robust")
    smap, cost = lattice.split(problem)
    assert smap.binary_dim == 0
    assert smap.lo is problem.lo and smap.up is problem.up  # the problem's own bounds
    blo, bup = lattice.prefix_boxes(smap, [])
    assert np.array_equal(blo, [lo]) and np.array_equal(bup, [up])
    assert smap.indicators(np.zeros(0, dtype=int), np.zeros(4)).tolist() == [1, 1, 1, 1]
    assert cost(np.zeros(0)) == pytest.approx(0.5)  # an open variable pays at z = 1


def test_split_rejects_bounds_that_admit_no_point():
    # the problem refuses them when it is built, so split checks no bound
    for lo, up in (([np.inf], [np.inf]), ([-np.inf], [-np.inf])):
        with pytest.raises(InputError, match="admits no finite point"):
            lattice.split(_problem(np.array(lo), np.array(up)))


# --- the bound table against the four box formulas --------------------------

def _reference_layout(lo, up, always_open):
    """Per variable: regime and the coordinates of its z+ and z- bits (None
    when absent), laid out per variable in ascending order, z+ before z-."""
    layout, k = [], 0
    for lo_i, up_i, open_i in zip(lo, up, always_open):
        if open_i:
            layout.append(("open", None, None))
        elif lo_i >= 0:
            layout.append(("+", k, None))
            k += 1
        elif up_i <= 0:
            layout.append(("-", None, k))
            k += 1
        else:
            layout.append(("+-", k, k + 1))
            k += 2
    return layout, k


def _times(bound, bit):
    return bound if bit else 0.0  # 0 * inf = 0


def _reference_box(layout, z, lo, up):
    """[l z, u z], [l (1 - z-), u (1 - z-)], [l (1 - z-), u z+] and [l, u]."""
    box = []
    for (regime, p, m), lo_i, up_i in zip(layout, lo, up):
        if regime == "open":
            box.append((lo_i, up_i))
        elif regime == "+":
            box.append((_times(lo_i, z[p]), _times(up_i, z[p])))
        elif regime == "-":
            box.append((_times(lo_i, 1 - z[m]), _times(up_i, 1 - z[m])))
        else:
            box.append((_times(lo_i, 1 - z[m]), _times(up_i, z[p])))
    return box


def _reference_forward(layout, z):
    """z+, 1 - z-, z+ + 1 - z- (None on the spurious corner) and 1."""
    out = []
    for regime, p, m in layout:
        if regime == "open":
            zi = 1
        elif regime == "+":
            zi = z[p]
        elif regime == "-":
            zi = 1 - z[m]
        else:
            zi = z[p] + 1 - z[m]
            if zi > 1:
                return None
        out.append(int(zi))
    return out


def _reference_repair(layout, z, x):
    z = list(z)
    for i, (regime, p, m) in enumerate(layout):
        if regime == "+-" and z[p] == 1 and z[m] == 0:
            if x[i] > 0:
                z[m] = 1
            elif x[i] < 0:
                z[p] = 0
            else:
                z[p], z[m] = 0, 1
    return z


def test_bound_table_matches_the_four_box_formulas():
    rng = np.random.default_rng(2209)
    values = [-np.inf, -2.0, -0.5, 0.0, 0.5, 2.0, np.inf]
    for trial in range(150):
        n = int(rng.integers(1, 6))
        pairs = [sorted(rng.choice(values, 2)) for _ in range(n)]
        lo = np.array([min(a, 1.0) for a, _ in pairs])  # l < +inf
        up = np.array([max(b, -1.0) for _, b in pairs])  # u > -inf
        # on odd trials about 30 % of the indicators cost nothing, and those
        # whose box holds 0 are always open; one trial in four with an even
        # n is robust, so its first half carries no indicator, whatever its box
        costs = np.where(rng.random(n) < 0.3, 0.0, 1.0) if trial % 2 else np.ones(n)
        problem = _problem(lo, up, costs, "robust" if trial % 4 == 3 and n % 2 == 0 else "sparse")
        mask = ~problem.indicated | ((costs == 0.0) & (lo <= 0.0) & (up >= 0.0))
        smap, _ = lattice.split(problem)
        assert np.array_equal(smap.always_open, mask)
        layout, m = _reference_layout(lo, up, mask)
        assert smap.binary_dim == m
        # a stack of assignments gathers every box at once
        zs = np.array(_all_binary(m)).reshape(2**m, m)
        blo_all, bup_all = lattice.bounds_for_binary(smap, zs)
        for z, blo_row, bup_row in zip(zs, blo_all, bup_all):
            blo, bup = lattice.bounds_for_binary(smap, z)
            assert list(zip(blo.tolist(), bup.tolist())) == _reference_box(layout, z, lo, up)
            assert np.array_equal(blo_row, blo) and np.array_equal(bup_row, bup)
            x = rng.choice([-1.0, 0.0, 1.0], n)
            ref = _reference_forward(layout, _reference_repair(layout, z, x))
            assert ref is not None and smap.indicators(z, x).tolist() == ref
        # row k of a chain's prefix boxes is the box of the prefix set
        # order[:k], and it differs from row k-1 only at the variable j of
        # coordinate order[k-1]
        owner = {c: i for i, (_, p, q) in enumerate(layout) for c in (p, q) if c is not None}
        order = rng.permutation(m).tolist()
        blo, bup = lattice.prefix_boxes(smap, order)
        assert blo.shape == bup.shape == (m + 1, n)
        for k in range(m + 1):
            z = np.zeros(m, dtype=int)
            z[order[:k]] = 1
            assert list(zip(blo[k].tolist(), bup[k].tolist())) == _reference_box(layout, z, lo, up)
            if k:
                moved = (blo[k] != blo[k - 1]) | (bup[k] != bup[k - 1])
                assert set(np.flatnonzero(moved).tolist()) <= {owner[order[k - 1]]}
