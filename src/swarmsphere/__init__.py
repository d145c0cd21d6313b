"""swarmsphere: simulation and verification toolkit for sphere-coupled
synchronization models.

The package integrates the driven particle dynamics on the d-sphere, reduces
it through the Watanabe-Strogatz map (a ball vector and a rotation), checks
the cross-ratio constants of motion and their kinetic functional
counterparts, locates the |p| < d/2 existence boundary of those functionals,
and probes the bipolar-instability mechanism of the mean-field swarm.
"""

from .dynamics import (
    DrivingField,
    FrustratedField,
    MeanField,
    PrescribedField,
    ReplayField,
    TimeDelayField,
    Trajectory,
    WinfreeField,
    collision_residual,
    eval_field,
    simulate,
    step,
)
from .functionals import (
    DivergenceReport,
    DivergentIntegralError,
    DriftReport,
    FunctionalEstimate,
    conservation_drift,
    conservation_drifts,
    cross_ratio,
    cycle_ratio,
    divergence_probe,
    estimate_cycle_moment,
    estimate_cycle_moments,
    existence_check,
    reduced_pair_integral,
)
from .geometry import (
    Ensemble,
    SkewMatrix,
    VmfSampler,
    exact_mean,
    renormalize,
    renormalize_rows,
    reorthonormalize,
    rng_stream,
    sample_uniform,
    sample_vmf,
    sphere_surface,
    tangent_project,
)
from .kinetic import (
    InstabilityReport,
    OrderParameterSeries,
    PerOmegaReport,
    ball_mass,
    dR2_dt_analytic,
    instability_experiment,
    order_parameter,
    order_parameter_series,
    per_omega_conservation,
)
from .ws import (
    MobiusPoleError,
    WsPath,
    WsState,
    algebraic_identity_residuals,
    conjugacy_residual,
    push_forward,
    ws_evolve,
    ws_rhs,
)

__version__ = "0.1.0"
