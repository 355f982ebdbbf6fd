"""Rate-optimal finite-order kernel density estimation on the circle and
sphere, with closed-form region probabilities, seeded samplers and an
evaluation harness."""

__version__ = "0.1.0"

from .geometry import (
    ArcRegion,
    CirclePoint,
    RectRegion,
    SpherePoint,
    angle_of_cartesian,
    angles_of_sphere,
    arc_region,
    distance,
    latlon_to_cartesian,
    periodic_to_angle,
    point_from_angle,
    rect_region,
    sphere_from_angles,
    sphere_from_xyz,
)
from .kde import (
    KdeConfig,
    SampleS1,
    SampleS2,
    SpectralFit,
    bandwidth,
    default_decay_exponent,
    fit,
    kde_eval_s1,
    kde_eval_s2,
    kde_grid_eval,
    kernel_symbol,
    make_config,
    strict_ceil,
    truncation_index,
)
from .probability import (
    ProbEstimate,
    prob_arc_s1,
    prob_rect_s2,
    quadrature_prob,
    vmf_true_prob_cap,
)
from .sampling import (
    SeededRng,
    UniformDistribution,
    VmfDistribution,
    VmfMixtureDistribution,
    VmfMixtureSpec,
    VmfSpec,
    mixture_density,
    sample_uniform,
    sample_vmf_mixture,
    sample_vmf_s1,
    sample_vmf_s2,
    vmf_density,
)
from .specfun import (
    NumericalError,
    assoc_legendre_integral,
    legendre_integral,
    legendre_p,
    legendre_p_expansion,
    sh_norm_const,
)
from .evaluation import (
    BenchReport,
    MiseReport,
    bench_integration,
    empirical_frequency,
    estimate_mise,
    integrated_squared_error,
    run_probability_table,
)
