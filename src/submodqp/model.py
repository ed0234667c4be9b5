"""Problem model: MRF instances and their compilation to indicator quadratics.

An instance lives on an undirected graph with noisy per-vertex observations.
Two inference modes are supported:

* ``sparse``  -- estimate a signal that is zero on most vertices; each vertex
  carries an indicator variable with cost ``c_i`` that pays for a nonzero value.
* ``robust``  -- estimate a smooth signal while discarding gross outliers;
  each observation carries a slack variable ``w_i`` (active only when the
  observation is discarded at cost ``c_i``).

Both modes compile to the same canonical form: minimize
``-a^T x + 0.5 x^T Q x + k0 + c^T z`` subject to ``l*z <= x <= u*z`` with
``z`` binary, where ``Q`` is a Stieltjes matrix (positive definite with
nonpositive off-diagonal entries).  That structure makes the continuous value
function submodular in ``z``, which the solver modules exploit.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .exceptions import InputError

MODES = ("sparse", "robust")

# role tags for the continuous variables of a compiled problem
ROLE_SIGNAL = "signal"
ROLE_SLACK = "slack_w"


def _as_float_vector(values, n, name):
    v = np.asarray(values, dtype=float)
    if v.shape != (n,):
        raise InputError(f"{name} must have shape ({n},), got {v.shape}")
    return v


@dataclass(frozen=True)
class Graph:
    """Undirected weighted graph; vertices are 0-based integers."""

    num_vertices: int
    edges: tuple = ()

    def __post_init__(self):
        if self.num_vertices <= 0:
            raise InputError("num_vertices must be positive")
        seen = set()
        norm = []
        for e in self.edges:
            i, j, w = int(e[0]), int(e[1]), float(e[2])
            if i == j:
                raise InputError(f"self-loop at vertex {i}")
            if not (0 <= i < self.num_vertices and 0 <= j < self.num_vertices):
                raise InputError(f"edge ({i},{j}) out of range")
            if w < 0:
                raise InputError(f"negative edge weight {w} on ({i},{j})")
            key = (min(i, j), max(i, j))
            if key in seen:
                raise InputError(f"duplicate edge ({i},{j})")
            seen.add(key)
            norm.append((key[0], key[1], w))
        object.__setattr__(self, "edges", tuple(norm))

    def laplacian(self):
        """Weighted graph Laplacian as a dense array."""
        L = np.zeros((self.num_vertices, self.num_vertices))
        for i, j, w in self.edges:
            L[i, i] += w
            L[j, j] += w
            L[i, j] -= w
            L[j, i] -= w
        return L


def chain_graph(n, weight=1.0):
    return Graph(n, tuple((i, i + 1, weight) for i in range(n - 1)))


def grid_graph_2d(rows, cols, weight=1.0):
    def vid(r, c):
        return r * cols + c

    edges = []
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                edges.append((vid(r, c), vid(r, c + 1), weight))
            if r + 1 < rows:
                edges.append((vid(r, c), vid(r + 1, c), weight))
    return Graph(rows * cols, tuple(edges))


def grid_graph_3d(nx, ny, nz, weight=1.0):
    def vid(x, y, z):
        return (x * ny + y) * nz + z

    edges = []
    for x in range(nx):
        for y in range(ny):
            for z in range(nz):
                if x + 1 < nx:
                    edges.append((vid(x, y, z), vid(x + 1, y, z), weight))
                if y + 1 < ny:
                    edges.append((vid(x, y, z), vid(x, y + 1, z), weight))
                if z + 1 < nz:
                    edges.append((vid(x, y, z), vid(x, y, z + 1), weight))
    return Graph(nx * ny * nz, tuple(edges))


@dataclass(frozen=True)
class QuadraticForm:
    """f(x) = -a^T x + 0.5 x^T Q x + k0 with symmetric Q.

    Construction checks shape and symmetry only; solvers additionally require
    the Stieltjes property (see :meth:`stieltjes_violation`), so that invalid
    matrices can still be represented, e.g. to exercise rejection paths.
    Arrays are copied and frozen; instances are safe to share across threads.
    """

    Q: np.ndarray
    a: np.ndarray
    k0: float = 0.0

    def __post_init__(self):
        Q = np.array(self.Q, dtype=float)
        a = np.array(self.a, dtype=float).ravel()
        if Q.ndim != 2 or Q.shape[0] != Q.shape[1]:
            raise InputError(f"Q must be square, got shape {Q.shape}")
        if a.shape[0] != Q.shape[0]:
            raise InputError("a and Q dimensions disagree")
        if not np.allclose(Q, Q.T, rtol=0.0, atol=1e-12 * (1.0 + np.abs(Q).max())):
            raise InputError("Q must be symmetric")
        Q.flags.writeable = False
        a.flags.writeable = False
        object.__setattr__(self, "Q", Q)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "k0", float(self.k0))

    @property
    def n(self):
        return self.Q.shape[0]

    def value(self, x):
        x = np.asarray(x, dtype=float)
        return float(-self.a @ x + 0.5 * x @ (self.Q @ x) + self.k0)

    def grad(self, x):
        return self.Q @ np.asarray(x, dtype=float) - self.a

    @cached_property
    def _stieltjes_violation(self):
        off = self.Q - np.diag(np.diag(self.Q))
        worst = max(0.0, float(off.max(initial=0.0)))
        try:
            np.linalg.cholesky(self.Q)
        except np.linalg.LinAlgError:
            worst = max(worst, float(-np.linalg.eigvalsh(self.Q).min()))
            worst = max(worst, np.finfo(float).tiny)
        return worst

    def stieltjes_violation(self):
        """Worst violation of the Stieltjes property (0.0 when it holds).

        Returns max(largest positive off-diagonal entry, positive-definiteness
        defect measured as ``-min_eigenvalue`` when Cholesky fails).  Cached:
        the arrays are frozen at construction.
        """
        return self._stieltjes_violation

    def require_stieltjes(self):
        v = self.stieltjes_violation()
        if v > 0.0:
            raise InputError(f"Q is not a Stieltjes matrix (violation {v:.3e})")

    @cached_property
    def _cho(self):
        self.require_stieltjes()
        return cho_factor(self.Q, lower=True, check_finite=False)

    @cached_property
    def _newton(self):
        return cho_solve(self._cho, self.a, check_finite=False)

    def newton_point(self):
        """Unconstrained minimizer Q^{-1} a (computed once, returned as a copy)."""
        return self._newton.copy()


@dataclass(frozen=True)
class ProblemInstance:
    """User-facing MRF inference instance (graph, data, costs, bounds, mode)."""

    graph: Graph
    a: np.ndarray
    node_weights: np.ndarray
    c: np.ndarray
    l: np.ndarray
    u: np.ndarray
    mode: str = "sparse"

    def __post_init__(self):
        n = self.graph.num_vertices
        a = _as_float_vector(self.a, n, "a")
        nw = _as_float_vector(self.node_weights, n, "node_weights")
        c = _as_float_vector(self.c, n, "c")
        lo = _as_float_vector(self.l, n, "l")
        up = _as_float_vector(self.u, n, "u")
        if self.mode not in MODES:
            raise InputError(f"mode must be one of {MODES}, got {self.mode!r}")
        if not np.all(nw > 0):
            raise InputError("node_weights must be strictly positive")
        if not np.all(c >= 0):
            raise InputError("costs c must be nonnegative")
        if np.any(lo > up):
            bad = int(np.argmax(lo > up))
            raise InputError(f"l[{bad}] > u[{bad}]")
        if np.any(np.isnan(a)) or np.any(np.isnan(lo)) or np.any(np.isnan(up)):
            raise InputError("NaN in instance data")
        for arr in (a, nw, c, lo, up):
            arr.flags.writeable = False
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "node_weights", nw)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "l", lo)
        object.__setattr__(self, "u", up)

    @property
    def n(self):
        return self.graph.num_vertices

    def objective_terms(self, x, w=None):
        """Direct evaluation of the modeled sum: fidelity + smoothness (+ridge excluded).

        With ``w`` given, fidelity terms read ``nw_i (x_i - w_i - a_i)^2``.
        """
        x = np.asarray(x, dtype=float)
        shift = np.zeros(self.n) if w is None else np.asarray(w, dtype=float)
        fid = float(np.sum(self.node_weights * (x - shift - self.a) ** 2))
        smooth = sum(w_ij * (x[i] - x[j]) ** 2 for i, j, w_ij in self.graph.edges)
        return fid + smooth


@dataclass(frozen=True)
class IndicatorProblem:
    """Canonical compiled form: Stieltjes quadratic + per-variable indicators.

    Every continuous variable carries exactly one indicator; variables that
    the model does not want penalized (the x's in robust mode) get cost 0.
    """

    quad: QuadraticForm
    costs: np.ndarray
    lo: np.ndarray
    up: np.ndarray
    roles: tuple = ()
    mode: str = "sparse"

    def __post_init__(self):
        n = self.quad.n
        c = _as_float_vector(self.costs, n, "costs")
        lo = _as_float_vector(self.lo, n, "lo")
        up = _as_float_vector(self.up, n, "up")
        if np.any(lo > up):
            raise InputError("lo > up in compiled problem")
        if not np.all(c >= 0):
            raise InputError("negative indicator cost")
        roles = tuple(self.roles) if self.roles else tuple((ROLE_SIGNAL, i) for i in range(n))
        if len(roles) != n:
            raise InputError("roles length mismatch")
        for arr in (c, lo, up):
            arr.flags.writeable = False
        object.__setattr__(self, "costs", c)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "up", up)
        object.__setattr__(self, "roles", roles)

    @property
    def n(self):
        return self.quad.n

    def slack_vertices(self):
        """Map variable index -> owning vertex, restricted to slack variables."""
        return {k: v for k, (kind, v) in enumerate(self.roles) if kind == ROLE_SLACK}

    def to_json_dict(self):
        return {
            "Q": self.quad.Q.tolist(),
            "a": self.quad.a.tolist(),
            "k0": self.quad.k0,
            "c": self.costs.tolist(),
            "l": [_num_to_json(v) for v in self.lo],
            "u": [_num_to_json(v) for v in self.up],
            "roles": [[kind, int(v)] for kind, v in self.roles],
            "mode": self.mode,
        }

    @staticmethod
    def from_json_dict(d):
        known = {"Q", "a", "k0", "c", "l", "u", "roles", "mode"}
        _reject_unknown_keys(d, known, "indicator problem")
        quad = QuadraticForm(np.array(d["Q"], dtype=float), np.array(d["a"], dtype=float), float(d.get("k0", 0.0)))
        roles = tuple((kind, int(v)) for kind, v in d.get("roles", []))
        return IndicatorProblem(
            quad=quad,
            costs=np.array(d["c"], dtype=float),
            lo=np.array([_num_from_json(v) for v in d["l"]], dtype=float),
            up=np.array([_num_from_json(v) for v in d["u"]], dtype=float),
            roles=roles,
            mode=d.get("mode", "sparse"),
        )


def compile_sparse(inst):
    """Compile a sparse-mode instance to its indicator quadratic.

    The quadratic reproduces ``sum_i nw_i (x_i - a_i)^2 + sum_ij w_ij (x_i - x_j)^2``
    exactly: Q = 2 diag(nw) + 2 L, a = 2 nw*obs, k0 = sum nw_i a_i^2.
    """
    if inst.mode != "sparse":
        raise InputError(f"compile_sparse requires mode='sparse', got {inst.mode!r}")
    nw = inst.node_weights
    Q = 2.0 * np.diag(nw) + 2.0 * inst.graph.laplacian()
    a = 2.0 * nw * inst.a
    k0 = float(np.sum(nw * inst.a**2))
    quad = QuadraticForm(Q, a, k0)
    quad.require_stieltjes()
    roles = tuple((ROLE_SIGNAL, i) for i in range(inst.n))
    return IndicatorProblem(quad, inst.c, inst.l, inst.u, roles, mode="sparse")


def slack_bound(inst):
    """Box half-width M for the outlier slacks: any optimal w_i is x_i - a_i or 0,
    both of which lie well inside [-M, M]."""
    finite = [abs(v) for v in np.concatenate([inst.l, inst.u]) if math.isfinite(v)]
    return 2.0 * (float(np.abs(inst.a).max(initial=0.0)) + (max(finite) if finite else 0.0)) + 1.0


def compile_robust(inst, ridge=1e-8):
    """Compile a robust-mode instance: variables (x_1..x_n, w_1..w_n).

    Objective: sum_i nw_i (x_i - w_i - a_i)^2 + sum_ij w_ij (x_i - x_j)^2
    + ridge * sum_i w_i^2.  The ridge restores strict convexity (the plain
    reformulation is singular along x_i = w_i directions) with negligible bias;
    it must be positive.  The x variables carry free indicators (cost 0, user
    bounds); the w variables carry the discard costs and a box [-M, M].
    """
    if inst.mode != "robust":
        raise InputError(f"compile_robust requires mode='robust', got {inst.mode!r}")
    if not ridge > 0:
        raise InputError("ridge must be positive")
    n = inst.n
    nw = inst.node_weights
    Q = np.zeros((2 * n, 2 * n))
    Q[:n, :n] = 2.0 * np.diag(nw) + 2.0 * inst.graph.laplacian()
    Q[n:, n:] = 2.0 * np.diag(nw) + 2.0 * ridge * np.eye(n)
    Q[:n, n:] = -2.0 * np.diag(nw)
    Q[n:, :n] = -2.0 * np.diag(nw)
    a = np.concatenate([2.0 * nw * inst.a, -2.0 * nw * inst.a])
    k0 = float(np.sum(nw * inst.a**2))
    quad = QuadraticForm(Q, a, k0)
    quad.require_stieltjes()
    M = slack_bound(inst)
    costs = np.concatenate([np.zeros(n), inst.c])
    lo = np.concatenate([inst.l, np.full(n, -M)])
    up = np.concatenate([inst.u, np.full(n, M)])
    roles = tuple((ROLE_SIGNAL, i) for i in range(n)) + tuple((ROLE_SLACK, i) for i in range(n))
    return IndicatorProblem(quad, costs, lo, up, roles, mode="robust")


def compile_instance(inst, ridge=1e-8):
    return compile_sparse(inst) if inst.mode == "sparse" else compile_robust(inst, ridge)


TOPOLOGIES = ("chain", "grid2d", "grid3d")


def generate(
    topology,
    dims,
    signal_sparsity=0.5,
    outlier_fraction=0.0,
    noise_sd=0.1,
    seed=0,
    mode="sparse",
    cost=1.0,
    edge_weight=1.0,
    outlier_scale=10.0,
    bounds=None,
):
    """Generate a synthetic instance with a planted ground truth.

    ``signal_sparsity`` is the fraction of vertices whose true value is zero
    (exact count, rounded).  ``outlier_fraction`` picks round(frac*n) vertices
    whose observation is shifted by ``outlier_scale`` times a random sign.
    Deterministic for a fixed seed.  Returns ``(instance, truth)`` where truth
    records the planted signal and outlier set.
    """
    if topology not in TOPOLOGIES:
        raise InputError(f"unknown topology {topology!r}")
    if isinstance(dims, int):
        dims = (dims,)
    dims = tuple(int(d) for d in dims)
    if any(d <= 0 for d in dims):
        raise InputError("dims must be positive")
    if not (0.0 <= signal_sparsity <= 1.0 and 0.0 <= outlier_fraction <= 1.0):
        raise InputError("fractions must lie in [0, 1]")

    if topology == "chain":
        if len(dims) != 1:
            raise InputError("chain takes one dimension")
        graph = chain_graph(dims[0], edge_weight)
    elif topology == "grid2d":
        if len(dims) != 2:
            raise InputError("grid2d takes two dimensions")
        graph = grid_graph_2d(*dims, weight=edge_weight)
    else:
        if len(dims) != 3:
            raise InputError("grid3d takes three dimensions")
        graph = grid_graph_3d(*dims, weight=edge_weight)

    n = graph.num_vertices
    rng = np.random.default_rng(seed)
    x_true = np.zeros(n)
    n_nonzero = n - int(round(signal_sparsity * n))
    support = rng.choice(n, size=n_nonzero, replace=False) if n_nonzero else np.array([], dtype=int)
    # foreground vertices deviate from the zero baseline in one direction,
    # which keeps the planted signal compatible with the smoothing prior
    x_true[support] = rng.uniform(1.0, 2.0, size=n_nonzero)

    a = x_true + noise_sd * rng.standard_normal(n)
    n_out = int(round(outlier_fraction * n))
    outliers = np.sort(rng.choice(n, size=n_out, replace=False)) if n_out else np.array([], dtype=int)
    if n_out:
        a[outliers] += outlier_scale * rng.choice([-1.0, 1.0], size=n_out)

    if bounds is None:
        b = 4.0 * (1.0 + float(np.abs(a).max(initial=0.0)))
        lo, up = np.full(n, -b), np.full(n, b)
    else:
        lo = np.full(n, float(bounds[0]))
        up = np.full(n, float(bounds[1]))

    inst = ProblemInstance(
        graph=graph,
        a=a,
        node_weights=np.ones(n),
        c=np.full(n, float(cost)),
        l=lo,
        u=up,
        mode=mode,
    )
    truth = {
        "x_true": x_true.tolist(),
        "outliers": [int(i) for i in outliers],
        "seed": int(seed),
        "topology": topology,
        "dims": list(dims),
    }
    return inst, truth


# ---------------------------------------------------------------------------
# JSON instance format
# ---------------------------------------------------------------------------

def _num_to_json(v):
    v = float(v)
    if math.isinf(v):
        return "inf" if v > 0 else "-inf"
    return v


def _num_from_json(v):
    if isinstance(v, str):
        if v == "inf":
            return math.inf
        if v == "-inf":
            return -math.inf
        raise InputError(f"bad extended-real literal {v!r} (use 'inf' or '-inf')")
    return float(v)


def _reject_unknown_keys(d, known, what):
    for k in d:
        if k not in known:
            raise InputError(f"unknown key {k!r} in {what} JSON")


def instance_to_json_dict(inst):
    return {
        "mode": inst.mode,
        "n": inst.n,
        "edges": [[i, j, w] for i, j, w in inst.graph.edges],
        "a": inst.a.tolist(),
        "node_weights": inst.node_weights.tolist(),
        "c": inst.c.tolist(),
        "l": [_num_to_json(v) for v in inst.l],
        "u": [_num_to_json(v) for v in inst.u],
    }


def instance_from_json_dict(d):
    known = {"mode", "n", "edges", "a", "node_weights", "c", "l", "u"}
    _reject_unknown_keys(d, known, "instance")
    try:
        n = int(d["n"])
        graph = Graph(n, tuple((int(i), int(j), float(w)) for i, j, w in d.get("edges", [])))
        return ProblemInstance(
            graph=graph,
            a=np.array(d["a"], dtype=float),
            node_weights=np.array(d["node_weights"], dtype=float),
            c=np.array(d["c"], dtype=float),
            l=np.array([_num_from_json(v) for v in d["l"]], dtype=float),
            u=np.array([_num_from_json(v) for v in d["u"]], dtype=float),
            mode=d["mode"],
        )
    except KeyError as e:
        raise InputError(f"missing key {e.args[0]!r} in instance JSON") from e


def save_instance(inst, path):
    Path(path).write_text(json.dumps(instance_to_json_dict(inst), indent=2))


def load_instance(path):
    try:
        d = json.loads(Path(path).read_text())
    except json.JSONDecodeError as e:
        raise InputError(f"malformed JSON in {path}: {e}") from e
    if not isinstance(d, dict):
        raise InputError(f"instance JSON must be an object, got {type(d).__name__}")
    return instance_from_json_dict(d)
