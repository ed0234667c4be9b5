"""How ``submodqp._lapack`` finds scipy's LAPACK wrappers, each path in a fresh
interpreter, since the answer depends on what that interpreter has already
imported."""

import subprocess
import sys
from pathlib import Path

import submodqp

SRC = str(Path(submodqp.__file__).resolve().parent.parent)

SAME_OBJECTS = """
import scipy.linalg.lapack as lapack
assert _lapack.dpotrf is lapack.dpotrf
assert _lapack.dpotrs is lapack.dpotrs
assert _lapack.dtrtrs is lapack.dtrtrs
"""

CHO_FACTOR_WORKS = """
import numpy as np
import scipy.linalg
c = scipy.linalg.cho_factor(np.array([[4.0, 2.0], [2.0, 3.0]]))
assert np.allclose(scipy.linalg.cho_solve(c, [6.0, 5.0]), [1.0, 1.0])
a = np.array([[4.0, 2.0], [2.0, 3.0]])
potrf, potrs = scipy.linalg.lapack.get_lapack_funcs(("potrf", "potrs"), (a,))
assert potrf is _lapack.dpotrf and potrs is _lapack.dpotrs
l, info = potrf(a, lower=1)
assert info == 0 and np.allclose(potrs(l, [6.0, 5.0], lower=1)[0], [1.0, 1.0])
"""


def _run(script):
    """Run ``script`` in a fresh interpreter that imports this checkout's submodqp."""
    proc = subprocess.run(
        [sys.executable, "-c", f"import sys; sys.path.insert(0, {SRC!r})\n" + script],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr


def test_a_solve_does_not_import_scipy_linalg():
    _run("""
import submodqp as sq
inst, _ = sq.generate("grid2d", (3, 4), mode="sparse", seed=0)
assert sq.solve_full(sq.compile_instance(inst)).converged
assert "scipy.linalg" not in sys.modules
""")


def test_routines_are_scipys_own_when_scipy_linalg_comes_after():
    _run("""
from submodqp import _lapack
assert "scipy.linalg" not in sys.modules
""" + SAME_OBJECTS + CHO_FACTOR_WORKS)


def test_routines_are_scipys_own_when_scipy_linalg_comes_first():
    _run("import scipy.linalg\nfrom submodqp import _lapack\n" + SAME_OBJECTS + CHO_FACTOR_WORKS)


def test_without_extension_suffixes_the_routines_come_from_scipy_linalg():
    _run("""
import importlib.machinery
importlib.machinery.EXTENSION_SUFFIXES.clear()
from submodqp import _lapack
assert "scipy.linalg" in sys.modules
""" + SAME_OBJECTS + CHO_FACTOR_WORKS)
