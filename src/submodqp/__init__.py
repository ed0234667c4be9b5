"""submodqp: exact sparse and robust MRF inference via submodular minimization.

The package solves convex quadratic minimization problems with indicator
variables (l*z <= x <= u*z, z binary) whose Hessian is a Stieltjes matrix;
``QuadraticForm`` rejects any other Hessian when it is built.
Such problems cover Gaussian-MRF denoising with an L0 sparsity prior and the
outlier-trimming robust variant; their value functions are submodular, so the
combinatorial part reduces to binary submodular minimization, accelerated by
an O(n^3) parametric evaluation of whole value chains.

Typical use:

    >>> import submodqp as sq
    >>> inst, truth = sq.generate("chain", 20, outlier_fraction=0.1, mode="robust", seed=1)
    >>> result = sq.solve_full(sq.compile_instance(inst), engine="mnp")
    >>> result.discarded
    [...]

The top level exports what callers of the solver use; each layer's full
interface stays importable from its module (``submodqp.lattice``,
``submodqp.boxqp``, ``submodqp.pathtrace``, ``submodqp.cholesky``).
"""

from .exceptions import InputError, NumericalError
from .model import (
    Graph,
    IndicatorProblem,
    ProblemInstance,
    QuadraticForm,
    chain_graph,
    compile_instance,
    generate,
    load_instance,
    save_instance,
)
from .boxqp import solve as solve_boxqp
from .sfm import (
    FunctionOracle,
    IndicatorOracle,
    greedy_subgradient,
    lovasz,
    minimize_exhaustive,
    minimize_mnp,
    solve_full,
)
from .oracle import InstanceSampler, brute_force, replay_witness, run_property_suite

__version__ = "0.1.0"

__all__ = [
    "FunctionOracle",
    "Graph",
    "IndicatorOracle",
    "IndicatorProblem",
    "InputError",
    "InstanceSampler",
    "NumericalError",
    "ProblemInstance",
    "QuadraticForm",
    "brute_force",
    "chain_graph",
    "compile_instance",
    "generate",
    "greedy_subgradient",
    "load_instance",
    "lovasz",
    "minimize_exhaustive",
    "minimize_mnp",
    "replay_witness",
    "run_property_suite",
    "save_instance",
    "solve_boxqp",
    "solve_full",
]
