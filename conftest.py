"""Pin BLAS and OpenMP to one thread for the whole test session.

The solver's matrices are small, so extra BLAS threads cost more than they
save and make timings noisy (the ``submodqp.cli`` docstring).  The variables
are read when numpy is first imported, which happens after this file loads.
A value already set in the environment wins.  ``perfbench/run.py`` pins the
same variables for the benchmark.
"""

import os

from perfbench.run import THREAD_VARS

for var in THREAD_VARS:
    os.environ.setdefault(var, "1")
