"""Numerical laboratory for 1-D Markovian forward-backward systems.

Modules:
    model     -- problem declarations, closed-form presets, assumption checks
    pde       -- finite-difference route to the value functions u, u', u''
    mc        -- path simulation, regression BSDE solver, Malliavin routes
    density   -- rotation-coupling density reconstruction and diagnostics
    criteria  -- grid-extremized density-existence verdicts
    tails     -- growth rates and explicit tail envelopes
    cli       -- batch experiment runner
"""

__version__ = "0.1.0"

from .model import (ModelSpec, Constants, Oracle, GridBox, expression_spec, preset, preset_names,
                    validate_assumptions)
from .pde import GridSpec, GridSolution, solve_u, solve_u_prime, solve_u_doubleprime, eval_yz, default_grid
from .mc import (PathEnsemble, BasisSpec, BsdeSolution, MalliavinEnsemble,
                 simulate_forward, solve_bsde_regression, variational_processes,
                 solve_malliavin_bsde, z_from_malliavin, second_malliavin, malliavin_fd)
from .density import (ConditionalSpec, GFunction, DensityEstimate, FunctionalSampler,
                      estimate_gF, density_from_gF, bouleau_hirsch_diagnostic,
                      brownian_terminal_sampler, gaussian_integral_sampler,
                      pde_y_sampler, pde_z_sampler)
from .criteria import (IntervalUnion, CriterionReport, VariationBounds,
                       first_order_check, second_order_check, quadratic_check,
                       z_lipschitz_check, z_quadratic_check, z_markovian_check,
                       x_sign_check)
from .tails import (GrowthRates, TailConstants, TailEnvelope, growth_rate,
                    inverse_growth_bound, regular_variation_check,
                    compute_constants, envelope, verify_growth_sandwich)
