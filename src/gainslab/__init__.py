"""Transfer-matrix optics of an active planar slab: lasing thresholds,
spectral singularities, gain dispersion loci, and singular field profiles."""

__version__ = "0.1.0"

from .core import GainMedium, Polarization, SlabScenario, WaveSpec
from .dispersion import TwoLevelMedium, central_mode_number, trace_locus
from .fields import (
    SingularFieldContext,
    energy_density,
    energy_density_from_fields,
    poynting,
    poynting_angle_deg,
    poynting_from_fields,
    tilde_theta_deg,
)
from .solver import (
    ConvergenceError,
    critical_angle,
    solve_singularity,
    threshold_curve,
    threshold_gain_approx,
    threshold_gain_at_kappa,
    threshold_gain_exact,
)
from .transfer import (
    SpectralSingularityError,
    build_transfer_matrix,
    general_fields,
    propagate_coefficients,
    scattering_amplitudes,
)
