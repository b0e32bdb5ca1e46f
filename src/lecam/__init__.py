"""Executable randomizations between density estimation and white noise.

The package realizes the classical experiment chain -- i.i.d. density
observations, multinomial bin counts, midpoint resampling, tent-basis
reconstruction, independent Gaussian coordinates, and the Gaussian white
noise model -- as samplers and Markov kernels, together with the distance
toolbox, approximation bounds, and a Monte Carlo harness that verifies the
advertised identities and rates at desk scale.
"""

from .approx import ErrorBreakdown, hellinger_bound, reconstruct
from .densities import affine, cosine, parse_spec, uniform
from .equivalence import RateParams, choose_m, total_bound_curve
from .errors import DomainError, NumericalError, UsageError
from .experiments import (
    Trajectory,
    increments,
    sample_iid,
    sample_white_noise,
    theta_of,
)
from .harness import CheckReport, DecisionProblem, run_suite
from .kernels import (
    MarkovKernel,
    TentBasis,
    bin_counts,
    compose,
    counts_to_midpoint_sample,
    product_kernel,
    reconstruction_kernel,
    synthesize_ystar,
    transport_chain,
)
from .measures import (
    DensityModel,
    DiscreteLaw,
    DistanceReport,
    NormalSpec,
    PiecewiseLinearDensity,
    hellinger_sq_product,
    hellinger_sq_quadrature,
    normal_distance,
    tv_discrete,
    tv_sandwich,
)

__version__ = "0.1.0"
