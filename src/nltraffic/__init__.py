"""Simulation and verification toolkit for a traffic model whose speed law
averages the density over one lookahead distance downstream.

The package provides exact piecewise-constant data (:mod:`nltraffic.model`),
monotone finite-volume marchers for the nonlocal law and its sharp
-interaction limit (:mod:`nltraffic.fv`), characteristic tracing with the
closed-form growth law and a fixed-point reference solver
(:mod:`nltraffic.characteristics`), total-variation bounds and property
checks (:mod:`nltraffic.analysis`), and an experiment harness with a CLI
(:mod:`nltraffic.harness`, ``nltraffic``).  Each module's ``__all__`` is
the one list of its public names.
"""

from ._version import __version__
from . import analysis, characteristics, errors, fv, harness, model
from .errors import *
from .model import *
from .fv import *
from .characteristics import *
from .analysis import *
from .harness import *

__all__ = [
    "__version__",
    *errors.__all__,
    *model.__all__,
    *fv.__all__,
    *characteristics.__all__,
    *analysis.__all__,
    *harness.__all__,
]
