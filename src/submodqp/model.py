"""Problem model: MRF instances and their compilation to indicator quadratics.

An instance lives on an undirected graph with noisy per-vertex observations.
Two inference modes are supported:

* ``sparse``  -- estimate a signal that is zero on most vertices; each vertex
  carries an indicator variable with cost ``c_i`` that pays for a nonzero value.
* ``robust``  -- estimate a smooth signal while discarding gross outliers;
  each observation carries a slack variable ``w_i``, unbounded when the
  observation is discarded at cost ``c_i`` and 0 otherwise.

Both modes compile, by :func:`compile_instance`, to the same canonical form:
minimize ``-a^T x + 0.5 x^T Q x + k0 + c^T z`` subject to ``l*z <= x <= u*z``
with ``z`` binary, where ``Q`` is a Stieltjes matrix (positive definite with
nonpositive off-diagonal entries).  That structure makes the continuous value
function submodular in ``z``, which the solver modules exploit.  It is an
invariant of :class:`QuadraticForm`: construction rejects any other Q, so no
solver checks it again.  Robust signals carry no indicator: z = 1 for them,
so they always lie in [l, u].

Robust mode adds the ridge ``RIDGE * sum_i w_i^2`` for strict convexity.  It
is a constant: any small positive value serves, and a fixed one keeps every
compiled problem, and so every answer, a function of the instance alone.
"""

from __future__ import annotations

import json
import math
import numbers
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._lapack import dpotrf, dpotrs
from .exceptions import InputError

MODES = ("sparse", "robust")

RIDGE = 1e-8  # weight of the robust-mode slack ridge (see compile_instance)


def _as_int(value, name):
    """``value`` as an int; a bool, or a number that is not integral, raises."""
    if isinstance(value, bool) or not (
        isinstance(value, numbers.Integral) or (isinstance(value, float) and value.is_integer())
    ):
        raise InputError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _as_real(value, name):
    """``value`` as a float; a bool, or anything that is not a real number
    (a numeric string included), raises :class:`InputError`.  NaN and the
    infinities pass, for the caller's range check."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise InputError(f"{name} must be a real number, got {value!r}")
    return float(value)


def _as_int_at_least(value, name, least):
    """``value`` as an int of at least ``least``; anything else raises :class:`InputError`."""
    value = _as_int(value, name)
    if value < least:
        raise InputError(f"{name} must be at least {least}, got {value}")
    return value


def check_box(lo, up):
    """Raise :class:`InputError` unless each box [lo, up], one or a stack of
    rows, admits a finite point: no NaN, lo <= up, no lower bound of +inf and
    no upper bound of -inf.  The error names the first bad variable and row."""
    bad = ~((lo <= up) & (lo < np.inf) & (up > -np.inf))  # NaN fails every comparison
    if bad.any():
        *row, i = np.argwhere(bad)[0].tolist()
        l, u = float(lo[(*row, i)]), float(up[(*row, i)])
        where = f"row {row[0]}, variable {i}" if row else f"variable {i}"
        what = "is empty" if l > u else "admits no finite point"
        if math.isnan(l) or math.isnan(u):
            what = "has a NaN bound"
        raise InputError(f"{where}: the box [{l}, {u}] {what}")


def check_binary(z, length):
    """Raise :class:`InputError` unless ``z``, one binary vector or a stack,
    has ``length`` entries on its last axis, each 0 or 1.  A bool array is
    binary by its type, so only its shape is checked."""
    z = np.asarray(z)
    if z.ndim == 0 or z.shape[-1] != length:
        raise InputError(f"expected binary vector of length {length}")
    if z.dtype != bool and not ((z == 0) | (z == 1)).all():
        raise InputError("a binary vector's entries must be 0 or 1")


def _as_float_vector(values, n, name):
    v = np.asarray(values, dtype=float)
    if v.shape != (n,):
        raise InputError(f"{name} must have shape ({n},), got {v.shape}")
    return v


@dataclass(frozen=True)
class Graph:
    """Undirected weighted graph; vertices are 0-based integers.

    The vertex count and the edge endpoints must be integral numbers (an
    integral float such as 3.0 counts; a bool or 3.9 raises
    :class:`InputError`), so no file is silently read as another graph.
    Each edge is three items (i, j, weight), its weight a real number.
    """

    num_vertices: int
    edges: tuple = ()

    def __post_init__(self):
        num_vertices = _as_int(self.num_vertices, "num_vertices")
        if num_vertices <= 0:
            raise InputError("num_vertices must be positive")
        if not np.iterable(self.edges):
            raise InputError(f"edges must be a sequence of (i, j, weight), got {self.edges!r}")
        seen = set()
        norm = []
        for e in self.edges:
            try:
                i, j, w = e
            except (TypeError, ValueError):
                raise InputError(f"an edge must be three items (i, j, weight), got {e!r}") from None
            i, j = _as_int(i, "edge endpoint"), _as_int(j, "edge endpoint")
            w = _as_real(w, "edge weight")
            if i == j:
                raise InputError(f"self-loop at vertex {i}")
            if not (0 <= i < num_vertices and 0 <= j < num_vertices):
                raise InputError(f"edge ({i},{j}) out of range")
            if not 0 <= w < math.inf:
                raise InputError(f"edge weight {w} on ({i},{j}) must be finite and nonnegative")
            key = (min(i, j), max(i, j))
            if key in seen:
                raise InputError(f"duplicate edge ({i},{j})")
            seen.add(key)
            norm.append((key[0], key[1], w))
        object.__setattr__(self, "num_vertices", num_vertices)
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


def grid_graph(dims, weight=1.0):
    """Grid of prod(dims) vertices numbered in row-major order, with equal
    edge weights; each vertex lists its edge along axis 0, then axis 1, ..."""
    strides = [math.prod(dims[k + 1:]) for k in range(len(dims))]
    edges = tuple(
        (v, v + stride, weight)
        for v, idx in enumerate(np.ndindex(*dims))
        for i, d, stride in zip(idx, dims, strides)
        if i + 1 < d
    )
    return Graph(math.prod(dims), edges)


def chain_graph(n, weight=1.0):
    return grid_graph((n,), weight)


@dataclass(frozen=True)
class QuadraticForm:
    """f(x) = -a^T x + 0.5 x^T Q x + k0 with Q a Stieltjes matrix.

    Construction checks shape, finiteness and symmetry, then the Stieltjes
    property: every off-diagonal entry is nonpositive, and one Cholesky
    factorization (LAPACK ``potrf``) proves Q positive definite.  A Q that
    fails raises :class:`InputError` naming the worst violation: the largest
    positive off-diagonal entry, or ``-min_eigenvalue`` when the
    factorization fails.  So every form a solver sees is Stieltjes, and none
    re-checks it.  The same factor gives the Newton point Q^{-1} a
    (:meth:`newton_point`); the factor itself is not kept, so a form holds
    one n x n array.
    Arrays are copied and frozen; instances are safe to share across threads.
    """

    Q: np.ndarray
    a: np.ndarray
    k0: float = 0.0

    def __post_init__(self):
        Q = np.array(self.Q, dtype=float)
        a = np.array(self.a, dtype=float).ravel()
        k0 = _as_real(self.k0, "k0")
        if Q.ndim != 2 or Q.shape[0] != Q.shape[1]:
            raise InputError(f"Q must be square, got shape {Q.shape}")
        if a.shape[0] != Q.shape[0]:
            raise InputError("a and Q dimensions disagree")
        if not (np.isfinite(Q).all() and np.isfinite(a).all() and math.isfinite(k0)):
            raise InputError("quadratic form has non-finite entries")
        if not np.allclose(Q, Q.T, rtol=0.0, atol=1e-12 * (1.0 + np.abs(Q).max(initial=0.0))):
            raise InputError("Q must be symmetric")
        violation = float((Q - np.diag(np.diag(Q))).max(initial=0.0))
        c, info = dpotrf(Q, lower=1)
        if info != 0:
            violation = max(violation, float(-np.linalg.eigvalsh(Q).min()), np.finfo(float).tiny)
        if violation > 0.0:
            raise InputError(f"Q is not a Stieltjes matrix (violation {violation:.3e})")
        newton = dpotrs(c, a, lower=1)[0] if a.size else a.copy()  # potrs rejects n = 0
        for arr in (Q, a, newton):
            arr.flags.writeable = False
        object.__setattr__(self, "Q", Q)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "k0", k0)
        object.__setattr__(self, "_newton", newton)

    @property
    def n(self):
        return self.Q.shape[0]

    def value(self, x):
        x = np.asarray(x, dtype=float)
        return float(-(self.a @ x) + 0.5 * x @ (self.Q @ x) + self.k0)

    def grad(self, x):
        return self.Q @ np.asarray(x, dtype=float) - self.a

    def newton_point(self):
        """Unconstrained minimizer Q^{-1} a (computed at construction; read-only, shared)."""
        return self._newton


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
        check_box(lo, up)
        if not (np.isfinite(a).all() and np.isfinite(nw).all() and np.isfinite(c).all()):
            raise InputError("a, node_weights and c must be finite (only l and u may be infinite)")
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
    """Canonical compiled form: Stieltjes quadratic + indicators.

    The mode fixes which variables carry an indicator (:attr:`indicated`):
    every one in sparse mode, only the slacks of (x_1..x_n, w_1..w_n) in
    robust mode.  A variable with no indicator has z = 1, so it always lies
    in [l, u]; the solver gives it no binary coordinate.  The problem alone
    fixes the solver's ground set: ``submodqp.lattice.split(problem)``
    applies the open rule, which also leaves without a coordinate an
    indicator that costs nothing on a box holding 0.  Its box, and so every
    box a split assignment implies, admits a finite point (:func:`check_box`).
    """

    quad: QuadraticForm
    costs: np.ndarray
    lo: np.ndarray
    up: np.ndarray
    mode: str = "sparse"

    def __post_init__(self):
        n = self.quad.n
        c = _as_float_vector(self.costs, n, "costs")
        lo = _as_float_vector(self.lo, n, "lo")
        up = _as_float_vector(self.up, n, "up")
        if np.isnan(c).any():
            raise InputError("NaN in the indicator costs")
        if np.isinf(c).any():
            raise InputError("infinite indicator cost")
        check_box(lo, up)
        if not np.all(c >= 0):
            raise InputError("negative indicator cost")
        if self.mode not in MODES:
            raise InputError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.mode == "robust" and n % 2:
            raise InputError(f"a robust-mode problem has (x, w) pairs, got {n} variables")
        for arr in (c, lo, up):
            arr.flags.writeable = False
        object.__setattr__(self, "costs", c)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "up", up)

    @property
    def n(self):
        return self.quad.n

    @property
    def indicated(self):
        """Read-only boolean mask of the variables that carry an indicator."""
        mask = np.arange(self.n) >= (self.n // 2 if self.mode == "robust" else 0)
        mask.flags.writeable = False
        return mask

    def box(self, z):
        """(l*z, u*z) for an original indicator vector z, or a stack of them,
        with 0*inf = 0; z must be binary and 1 where there is no indicator."""
        z = np.asarray(z)
        check_binary(z, self.n)
        if ((z == 0) & ~self.indicated).any():
            raise InputError("z must be 1 on every variable with no indicator (robust signals)")
        return np.where(z == 1, self.lo, 0.0), np.where(z == 1, self.up, 0.0)

    def discarded(self, z):
        """Sorted vertices whose observation the indicator vector z discards
        (open slacks), or None outside robust mode."""
        if self.mode != "robust":
            return None
        return np.flatnonzero(np.asarray(z)[self.n // 2 :] == 1).tolist()

    def to_json_dict(self):
        return {
            "Q": self.quad.Q.tolist(),
            "a": self.quad.a.tolist(),
            "k0": self.quad.k0,
            "c": self.costs.tolist(),
            "l": [_num_to_json(v) for v in self.lo],
            "u": [_num_to_json(v) for v in self.up],
            "mode": self.mode,
        }

    @staticmethod
    def from_json_dict(d):
        known = {"Q", "a", "k0", "c", "l", "u", "mode"}
        _reject_unknown_keys(d, known, "indicator problem")
        with _json_errors("indicator problem"):
            quad = QuadraticForm(
                np.array(_json_numbers(d["Q"], "Q"), dtype=float),
                np.array(_json_numbers(d["a"], "a"), dtype=float),
                float(_json_numbers(d.get("k0", 0.0), "k0")),
            )
            return IndicatorProblem(
                quad=quad,
                costs=np.array(_json_numbers(d["c"], "c"), dtype=float),
                lo=np.array(_json_numbers(d["l"], "l"), dtype=float),
                up=np.array(_json_numbers(d["u"], "u"), dtype=float),
                mode=d.get("mode", "sparse"),
            )


def compile_instance(inst):
    """Compile an instance of either mode to its indicator quadratic.

    Q = 2 diag(nw) + 2 L, a = 2 nw*obs and k0 = sum nw_i a_i^2 reproduce
    ``sum_i nw_i (x_i - a_i)^2 + sum_ij w_ij (x_i - x_j)^2`` exactly: the
    sparse-mode problem.  Robust mode extends it by the slacks (w_1..w_n),
    with fidelity terms ``nw_i (x_i - w_i - a_i)^2`` and the ridge
    ``RIDGE * sum_i w_i^2``, which restores strict convexity (the plain
    reformulation is singular along x_i = w_i) with negligible bias.  Only
    the slacks carry an indicator, with the discard costs and the box
    [-inf, inf]: as in the paper, a slack is free exactly when its
    observation is discarded, and 0 otherwise.  The signals have none (cost
    0), so each x_i lies in its user bounds [l_i, u_i] under every assignment.
    """
    n, nw = inst.n, inst.node_weights
    with np.errstate(over="ignore"):  # QuadraticForm rejects what overflows
        Q = 2.0 * np.diag(nw) + 2.0 * inst.graph.laplacian()
        a = 2.0 * nw * inst.a
        k0 = float(np.sum(nw * inst.a**2))
        costs, lo, up = inst.c, inst.l, inst.u
        if inst.mode == "robust":
            Qx, Q = Q, np.zeros((2 * n, 2 * n))
            Q[:n, :n] = Qx
            Q[n:, n:] = 2.0 * np.diag(nw) + 2.0 * RIDGE * np.eye(n)
            Q[:n, n:] = Q[n:, :n] = -2.0 * np.diag(nw)
            a = np.concatenate([a, -a])
            costs = np.concatenate([np.zeros(n), costs])
            lo = np.concatenate([lo, np.full(n, -np.inf)])
            up = np.concatenate([up, np.full(n, np.inf)])
    return IndicatorProblem(QuadraticForm(Q, a, k0), costs, lo, up, mode=inst.mode)


TOPOLOGIES = {"chain": 1, "grid2d": 2, "grid3d": 3}  # name -> grid dimensions
OUTLIER_SCALE = 10.0  # size of the shift of an outlier's observation


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
    bounds=None,
):
    """Generate a synthetic instance with a planted ground truth.

    ``signal_sparsity`` is the fraction of vertices whose true value is zero
    (exact count, rounded).  ``outlier_fraction`` picks round(frac*n) vertices
    whose observation is shifted by ``OUTLIER_SCALE`` times a random sign.
    Deterministic in the seed.  Returns ``(instance, truth)`` where truth
    records the planted signal and outlier set.  ``dims`` is one integral
    number or a sequence of them; a bool or a number such as 3.9 raises
    :class:`InputError`, and so does a negative or non-finite ``noise_sd``,
    a ``seed`` that is not a nonnegative integer, or ``bounds`` (every
    vertex's (l, u), by default +-4 (1 + max |a|)) that are not a pair of
    real numbers.  Every other scalar must be a real number too, not a bool
    or a string.
    """
    if topology not in TOPOLOGIES:
        raise InputError(f"unknown topology {topology!r}")
    dims = tuple(_as_int(d, "a dimension") for d in ((dims,) if np.ndim(dims) == 0 else dims))
    if any(d <= 0 for d in dims):
        raise InputError("dims must be positive")
    signal_sparsity = _as_real(signal_sparsity, "signal_sparsity")
    outlier_fraction = _as_real(outlier_fraction, "outlier_fraction")
    noise_sd = _as_real(noise_sd, "noise_sd")
    cost = _as_real(cost, "cost")
    edge_weight = _as_real(edge_weight, "edge_weight")
    if not (0.0 <= signal_sparsity <= 1.0 and 0.0 <= outlier_fraction <= 1.0):
        raise InputError("fractions must lie in [0, 1]")
    if not 0.0 <= noise_sd < np.inf:  # NaN fails both comparisons
        raise InputError(f"noise_sd must be finite and nonnegative, got {noise_sd!r}")
    seed = _as_int_at_least(seed, "seed", 0)

    if len(dims) != TOPOLOGIES[topology]:
        raise InputError(f"{topology} takes {TOPOLOGIES[topology]} dimensions, got {len(dims)}")
    graph = grid_graph(dims, edge_weight)

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
        a[outliers] += OUTLIER_SCALE * rng.choice([-1.0, 1.0], size=n_out)

    if bounds is None:
        b = 4.0 * (1.0 + float(np.abs(a).max(initial=0.0)))
        lo, up = np.full(n, -b), np.full(n, b)
    else:
        try:
            lo_b, up_b = (_as_real(b, "a bound") for b in bounds)
        except (TypeError, ValueError, InputError):  # not iterable, or not two items
            raise InputError(f"bounds must be a pair of real numbers, got {bounds!r}") from None
        lo, up = np.full(n, lo_b), np.full(n, up_b)

    inst = ProblemInstance(
        graph=graph,
        a=a,
        node_weights=np.ones(n),
        c=np.full(n, cost),
        l=lo,
        u=up,
        mode=mode,
    )
    truth = {
        "x_true": x_true.tolist(),
        "outliers": [int(i) for i in outliers],
        "seed": seed,
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


def _json_numbers(value, key):
    """``value``, read from ``key``, with every leaf of its nested lists a
    JSON number: not a bool (which Python reads as 1 or 0) nor a string,
    except "inf" and "-inf" in ``l`` and ``u``, read as floats.  Any other
    leaf raises ValueError naming ``key``, an InputError in _json_errors."""
    if isinstance(value, list):
        return [_json_numbers(v, key) for v in value]
    if key in ("l", "u") and value in ("inf", "-inf"):
        return float(value)
    if isinstance(value, bool):
        raise ValueError(f"{key!r} holds the boolean {json.dumps(value)}, not a number")
    if not isinstance(value, numbers.Real):
        raise ValueError(f"{key!r} holds {value!r}, not a number")
    return value


@contextmanager
def _json_errors(what):
    """Report a missing key or a malformed value in ``what`` JSON as an InputError."""
    try:
        yield
    except InputError:
        raise
    except KeyError as e:
        raise InputError(f"missing key {e.args[0]!r} in {what} JSON") from e
    except (TypeError, ValueError, OverflowError) as e:  # OverflowError: an int past 1e308
        raise InputError(f"malformed value in {what} JSON: {e}") from e


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
    with _json_errors("instance"):
        # Graph checks that n and the endpoints are integral, not truncated
        edges = tuple((i, j, float(_json_numbers(w, "edges"))) for i, j, w in d.get("edges", []))
        graph = Graph(d["n"], edges)
        return ProblemInstance(
            graph=graph,
            a=np.array(_json_numbers(d["a"], "a"), dtype=float),
            node_weights=np.array(_json_numbers(d["node_weights"], "node_weights"), dtype=float),
            c=np.array(_json_numbers(d["c"], "c"), dtype=float),
            l=np.array(_json_numbers(d["l"], "l"), dtype=float),
            u=np.array(_json_numbers(d["u"], "u"), dtype=float),
            mode=d["mode"],
        )


def save_instance(inst, path):
    Path(path).write_text(json.dumps(instance_to_json_dict(inst), indent=2))


def load_instance(path):
    try:
        d = json.loads(Path(path).read_text(encoding="utf-8"))
    except UnicodeDecodeError as e:
        raise InputError(f"{path} is not UTF-8 text: {e}") from e
    except json.JSONDecodeError as e:
        raise InputError(f"malformed JSON in {path}: {e}") from e
    if not isinstance(d, dict):
        raise InputError(f"instance JSON must be an object, got {type(d).__name__}")
    return instance_from_json_dict(d)
