"""The three LAPACK routines the solver calls: ``dpotrf``, ``dpotrs``, ``dtrtrs``.

They are scipy's own f2py wrappers, the very objects
``scipy.linalg.lapack`` exports, so every factor and solve is the same bit
for bit as through that module, at the same call overhead.  What this module
avoids is the rest of ``scipy.linalg``: ``python -X importtime`` puts about
0.22 s of a 0.35-0.44 s ``import submodqp`` in ``scipy.linalg``'s package
init, none of which the solver uses.  So the wrapper module is found in one
of three ways:

* if ``scipy.linalg`` has loaded it, it is reused from ``sys.modules``;
* otherwise ``scipy`` itself is imported (its init is cheap and does any
  platform set-up) and scipy's ``linalg/_flapack`` extension is loaded from
  its file, under its own name ``scipy.linalg._flapack``, so that a later
  ``import scipy.linalg`` reuses it (that package then lacks the private
  attribute ``_flapack``, but ``from scipy.linalg import _flapack`` finds
  the module, as ``scipy.linalg.lapack`` does);
* if no such file exists or it fails to load, ``scipy.linalg.lapack`` is
  imported as usual.

This is the only module of the package that reaches LAPACK.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import sys
from pathlib import Path

_FLAPACK = "scipy.linalg._flapack"


def _load_flapack():
    loaded = sys.modules.get(_FLAPACK)
    if loaded is not None:
        return loaded
    import scipy

    linalg = Path(scipy.__file__).parent / "linalg"
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = linalg / f"_flapack{suffix}"
        if not path.is_file():
            continue
        spec = importlib.util.spec_from_file_location(_FLAPACK, path)
        try:
            module = importlib.util.module_from_spec(spec)
            sys.modules[_FLAPACK] = module
            spec.loader.exec_module(module)
        except ImportError:
            sys.modules.pop(_FLAPACK, None)
            break
        return module
    from scipy.linalg import lapack

    return lapack


_flapack = _load_flapack()
dpotrf = _flapack.dpotrf
dpotrs = _flapack.dpotrs
dtrtrs = _flapack.dtrtrs
