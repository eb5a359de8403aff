"""Simulation and verification toolkit for a traffic model whose speed law
averages the density over one lookahead distance downstream.

The package provides exact piecewise-constant data (:mod:`nltraffic.model`),
monotone finite-volume marchers for the nonlocal law and its sharp
-interaction limit (:mod:`nltraffic.fv`), characteristic tracing with the
closed-form growth law and a fixed-point reference solver
(:mod:`nltraffic.characteristics`), total-variation bounds and property
checks (:mod:`nltraffic.analysis`), and an experiment harness with a CLI
(:mod:`nltraffic.harness`, ``nltraffic``).
"""

from ._version import __version__
from .errors import ConfigurationError, ConvergenceError, SolverError
from .model import (
    PiecewiseConstant1D,
    build_bar_u,
    build_u0,
    cell_average,
    cell_averages,
    eval_piecewise,
    load_piecewise,
    piecewise_from_text,
    piecewise_to_text,
    save_piecewise,
)
from .fv import (
    Grid1D,
    GridFunction,
    SolutionRecord,
    SolverConfig,
    cfl_dt,
    compute_w,
    godunov_flux_local,
    solve_local,
    solve_nonlocal,
    step_lax_friedrichs,
    step_upwind,
)
from .characteristics import (
    CharacteristicPath,
    logistic_value,
    material_rhs,
    solve_picard,
    trace_characteristic,
    trace_many,
)
from .analysis import (
    BlockTrace,
    BoundReport,
    TVReconstruction,
    VerifyReport,
    check_max_principle,
    check_monotonicity,
    check_plateau,
    evaluate_bounds,
    reconstruct_tv_from_characteristics,
    term_threshold_check,
    total_variation,
    tv_lower_bound_count,
    tv_lower_bound_dyadic,
    tv_lower_bound_series,
)
from .harness import (
    MechanismReport,
    RunConfig,
    SweepSpec,
    default_truncation,
    make_grid,
    parse_datum,
    run_characteristics,
    run_mechanism_demo,
    run_simulate,
    run_sweep,
    run_verify,
    sweep_resolution,
    write_bounds,
)

__all__ = [name for name in dir() if not name.startswith("_")] + ["__version__"]
