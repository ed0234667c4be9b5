"""Maintained Cholesky factorization of a principal submatrix under pivots.

The path tracer repeatedly solves systems with ``Q[R, R]`` while single
indices enter and leave the free set R.  Refactorizing costs O(|R|^3) per
pivot; maintaining the lower factor L (``L L^T = Q[R, R]``) costs O(|R|^2).

Storage: L lives in the leading k x k block of a Fortran-ordered n x n
array, k = |R|.  The first k columns of that array are contiguous, so every
triangular solve hands them to LAPACK ``dtrtrs`` as they are (leading
dimension n): no copy and no argument-validation wrapper per call.  Each
operation is a handful of whole-array calls:

* solve: two ``dtrtrs`` calls (L, then L^T), for one right-hand side or for
  several columns at once; O(k^2) per column;
* insert: border the factor with one ``dtrtrs`` call and a square root;
  O(k^2);
* remove: delete row and column p.  The trailing block L22 (size r = k-p-1)
  must then absorb the deleted column v below the diagonal,
  ``Lt Lt^T = L22 L22^T + v v^T``.  This is the classical rank-one
  modification of Gill, Golub, Murray & Saunders (1974, *Methods for
  modifying matrix factorizations*, method C1), written without a loop:
  with ``q = L22^{-1} v`` (one ``dtrtrs``), ``t_j = 1 + sum_{i<=j} q_i^2``
  and ``t_{-1} = 1``,

      Lt[:, j] = sqrt(t_j / t_{j-1}) L22[:, j]
                 + q_j / sqrt(t_j t_{j-1}) (v - sum_{i<=j} q_i L22[:, i]),

  where the prefix sums are one ``cumsum`` over the columns of ``L22 * q``.
  The update only adds a positive semidefinite term, so it cannot fail;
  it costs O(r^2).

A LAPACK error or a nonpositive pivot while inserting raises
:class:`NumericalError`.  Indices are stored in insertion order; callers
index right-hand sides with :attr:`UpdatableCholesky.indices`.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg.lapack import dpotrf, dtrtrs

from .exceptions import NumericalError


def _trsolve(A, b, trans=0):
    x, info = dtrtrs(A, b, lower=1, trans=trans)
    if info != 0:
        raise NumericalError(f"LAPACK dtrtrs failed (info={info})")
    return x


class UpdatableCholesky:
    """Lower Cholesky factor of Q restricted to a dynamic index set.

    ``indices`` gives an initial index set, factored with one ``dpotrf``.
    """

    def __init__(self, Q, indices=()):
        self.Q = Q
        n = Q.shape[0]
        self._L = np.zeros((n, n), order="F")
        self._idx = [int(i) for i in indices]
        m = len(self._idx)
        if m:
            c, info = dpotrf(Q[np.ix_(self._idx, self._idx)], lower=1)
            if info != 0:
                raise NumericalError(f"initial index set is not positive definite (info={info})")
            self._L[:m, :m] = c

    @property
    def indices(self):
        return self._idx

    @property
    def size(self):
        return len(self._idx)

    def L(self):
        m = self.size
        return self._L[:m, :m]

    def insert(self, j):
        m = self.size
        w = _trsolve(self._L[:, :m], self.Q[self._idx, j])
        s = self.Q[j, j] - w @ w
        if s <= 0:
            raise NumericalError(f"losing positive definiteness inserting index {j}")
        self._L[m, :m] = w
        self._L[m, m] = np.sqrt(s)
        self._idx.append(j)

    def remove(self, j):
        p = self._idx.index(j)
        m = self.size
        L = self._L
        if p + 1 < m:
            v = L[p + 1 : m, p]
            L22 = L[p + 1 : m, p + 1 : m]
            q = _trsolve(L22, v)
            t = np.cumsum(q * q)
            t += 1.0
            t_prev = np.empty_like(t)
            t_prev[0] = 1.0
            t_prev[1:] = t[:-1]
            W = v[:, None] - np.cumsum(L22 * q, axis=1)
            W *= q / np.sqrt(t * t_prev)
            W += L22 * np.sqrt(t / t_prev)
            L[p : m - 1, :p] = L[p + 1 : m, :p]
            L[p : m - 1, p : m - 1] = np.tril(W)  # exact zeros above the diagonal
        L[m - 1, :m] = 0.0
        self._idx.pop(p)

    def solve(self, b):
        """Solve Q[idx, idx] y = b with b ordered like :attr:`indices`.

        ``b`` is a vector or a matrix with one right-hand side per column.
        """
        m = self.size
        if m == 0:
            return np.zeros(np.shape(b))
        Lm = self._L[:, :m]
        return _trsolve(Lm, _trsolve(Lm, b), trans=1)
