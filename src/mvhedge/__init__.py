"""Mean-variance hedging engine for Levy-driven OU stochastic volatility markets.

Layout: levy (subordinators), ngou (exact factor paths), market
(coefficient models and price simulation), opportunity (conditional
discount surface and variance-optimal density), bsde (backward value
solver and its Monte Carlo oracle), hedge (strategy assembly and error
comparators), cli (configuration, experiments, validation).
"""

from .levy import (
    CompoundPoissonExp,
    ConfigurationError,
    JumpPath,
    MomentConditionError,
    TableMeasure,
    exp_moment_rate,
    jump_quadrature,
    sample_jump_path,
    validate_moment_condition,
)
from .ngou import FactorPath, OUParams, evolve, integrated_factor, merge_grid
from .market import (
    BNS,
    ConstantBS,
    GridConfig,
    PathBundle,
    TabulatedModel,
    adjustment,
    excess_drift,
    iter_path_chunks,
    market_price_of_risk,
    simulate_paths,
)
from .opportunity import (
    MeshConfig,
    OpportunitySurface,
    density_terminal,
    density_walk,
    estimate_opportunity_mc,
    make_surface,
    solve_opportunity_ipde,
    stochastic_exponential,
)
from .bsde import (
    BsdeConfig,
    BSDESolution,
    ConstantPayoff,
    DiscountedCall,
    DiscountedPut,
    mc_value_at_zero,
    solve_backward,
)
from .hedge import HedgeReport, closed_forms, pure_hedge, run_hedge

__version__ = "0.1.0"
