import numpy as np
import pytest

from submodqp.cholesky import UpdatableCholesky
from submodqp.exceptions import InputError, NumericalError
from submodqp.oracle import InstanceSampler


def _reference(Q, idx):
    return np.linalg.cholesky(Q[np.ix_(idx, idx)])


def _spd(rng, n):
    A = rng.normal(size=(n, n))
    return A @ A.T + n * np.eye(n)


@pytest.mark.parametrize("k", [1, 2, 5, 40])
def test_remove_at_every_position_matches_refactorization(k):
    # removing position p repairs the trailing block with a rank-one update;
    # the first and last positions and a factor of size 1 are edge cases
    rng = np.random.default_rng(k)
    Q = _spd(rng, k + 3)
    order = [int(i) for i in rng.permutation(k + 3)[:k]]
    for p in range(k):
        fac = UpdatableCholesky(Q)
        for i in order:
            fac.insert(i)
        fac.remove(order[p])
        rest = order[:p] + order[p + 1 :]
        assert fac.indices.tolist() == rest
        L = fac.L()
        if rest:
            ref = _reference(Q, rest)
            assert np.abs(L - ref).max() <= 1e-12 * np.abs(ref).max()
        assert np.all(np.triu(L, 1) == 0.0)
        assert np.all(fac._L[len(rest):, :] == 0.0)


def test_insert_remove_random_walk():
    rng = np.random.default_rng(1)
    Q = InstanceSampler(n=12, regime="mixed", seed=5).draw(0).quad.Q
    fac = UpdatableCholesky(Q)
    active = []
    for step in range(200):
        if active and rng.random() < 0.4:
            j = int(rng.choice(active))
            fac.remove(j)
            active.remove(j)
        else:
            candidates = [j for j in range(12) if j not in active]
            if not candidates:
                continue
            j = int(rng.choice(candidates))
            fac.insert(j)
            active.append(j)
        if active:
            L = fac.L()
            assert np.allclose(L @ L.T, Q[np.ix_(fac.indices, fac.indices)], atol=1e-9)


def test_solve_matches_dense():
    rng = np.random.default_rng(2)
    Q = InstanceSampler(n=10, regime="nonnegative", seed=8).draw(0).quad.Q
    fac = UpdatableCholesky(Q)
    for j in (3, 7, 1, 9, 4):
        fac.insert(j)
    fac.remove(7)
    idx = fac.indices
    b = rng.normal(size=len(idx))
    got = fac.solve(b)
    ref = np.linalg.solve(Q[np.ix_(idx, idx)], b)
    assert np.allclose(got, ref, atol=1e-10)


def test_two_column_solve_matches_dense():
    rng = np.random.default_rng(3)
    Q = InstanceSampler(n=10, regime="mixed", seed=9).draw(0).quad.Q
    fac = UpdatableCholesky(Q)
    for j in (8, 2, 5, 0, 6, 9):
        fac.insert(j)
    fac.remove(2)
    idx = fac.indices
    B = rng.normal(size=(len(idx), 2))
    got = fac.solve(B)
    assert got.shape == B.shape
    assert np.allclose(got, np.linalg.solve(Q[np.ix_(idx, idx)], B), atol=1e-10)
    for c in range(2):
        assert np.allclose(got[:, c], fac.solve(B[:, c]), atol=1e-14)


def test_initial_index_set_matches_inserts():
    Q = InstanceSampler(n=9, regime="mixed", seed=4).draw(0).quad.Q
    idx = [6, 1, 4, 8]
    fac = UpdatableCholesky(Q, idx)
    assert fac.indices.tolist() == idx
    assert np.allclose(fac.L(), _reference(Q, idx), atol=1e-12)
    assert np.all(np.triu(fac.L(), 1) == 0.0)


def test_empty_factor_solve():
    Q = np.eye(3)
    fac = UpdatableCholesky(Q)
    assert fac.solve(np.zeros(0)).shape == (0,)
    assert fac.solve(np.zeros((0, 2))).shape == (0, 2)


def test_insert_into_non_pd_raises():
    fac = UpdatableCholesky(np.array([[1.0, 1.0], [1.0, 1.0]]))
    fac.insert(0)
    with pytest.raises(NumericalError):
        fac.insert(1)
    with pytest.raises(NumericalError):
        UpdatableCholesky(np.array([[1.0, 1.0], [1.0, 1.0]]), [0, 1])


def test_remove_of_an_absent_index_raises():
    fac = UpdatableCholesky(np.eye(4), [2, 0])
    with pytest.raises(InputError, match="not in the factor"):
        fac.remove(1)
    assert fac.indices.tolist() == [2, 0]


def test_update_work_sums_the_squared_size_before_each_update():
    fac = UpdatableCholesky(np.eye(4), [2, 0])
    assert fac.update_work == 0  # the initial factorization is not an update
    fac.insert(1)
    fac.insert(3)
    fac.remove(0)
    assert fac.update_work == 2**2 + 3**2 + 4**2
