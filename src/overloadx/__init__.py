"""Overloaded X model toolkit: fluid limit, diffusion refinement, simulation.

Two customer classes, two server pools, threshold-activated one-way overflow
routing that holds the queues near a fixed ratio.  The package computes the
averaging-principle fluid ODE, the fast-time-scale quantities driving it,
the Gaussian / Ornstein-Uhlenbeck diffusion refinement, and validates all of
it against exact event-by-event simulation of the pre-limit Markov chain.
"""

from .params import (ModelParams, OfferedLoad, OverloadVerdict, ScaledSystem,
                     check_overload, offered_loads, scale)
from .ftsp import (FluidState, FtspRates, FtspSummary, FtspMcStats,
                   asymptotic_variance, busy_period_moments, drift_rates,
                   ftsp_rates, ftsp_summary, is_positive_recurrent, pi_12,
                   pi_12_stationary, simulate_ftsp)
from .fluid import (FluidPath, StationaryPoint, integrate_fluid, ode_rhs,
                    stationary_point, time_to_stationarity)
from .diffusion import (BouModel, GaussianApprox, OuParams, SteadyStateCov,
                        TimeChanges, bou_matrices, gaussian_queue_approx,
                        pool_dependent_reduction, psi_mix, sde_drift_matrix,
                        solve_lyapunov, steady_state_covariance,
                        time_changes, transient_covariance)
from .sim import (RunStats, SimEstimate, SimState, aggregate_runs,
                  difference_jump_rates, indicator_integral, init_state,
                  replicate, run, step)

__version__ = "0.1.0"
