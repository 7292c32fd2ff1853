"""Numerical laboratory for a single-step complex Gaussian propagator.

The package builds the short-time kernel for drifted diffusion with an
imaginary diffusivity, steps wave packets with it, and checks the result
three independent ways: closed-form regularized kernel moments, the
equivalent Hamiltonian's exact Gaussian solution (or, outside its quadratic
class, a Crank-Nicolson integrator), and direct norm-drift audits of
deliberately broken propagator variants.  A real diffusive twin (density
stepping plus random-walk sampling) shares the same drift and diffusivity
fields.
"""

from .audit import (
    AScanResult,
    AuditReport,
    PhaseShiftReport,
    analytic_drift_rate,
    audit_packets,
    boundary_flux_check,
    empirical_a_scan,
    phase_freedom_check,
    predicted_drift_rate,
    triple_product_check,
)
from .fields import (
    FIELD_KINDS,
    VARIANTS,
    BoundaryDecayError,
    FieldSpec,
    Grid,
    PropagatorSpec,
    RealState,
    WaveState,
    check_boundary_decay,
    gaussian_packet,
    make_grid,
    mean_momentum,
    moments,
    norm,
    total_mass,
)
from .fresnel import (
    CancellationResult,
    MOMENT_ORDERS,
    cancellation_check,
    closed_moment,
    fresnel_moment,
    monomial,
    unit_mass_check,
)
from .kernel import (
    a_field,
    complex_kernel,
    real_kernel,
    required_a,
    t_correction,
)
from .propagate import (
    ValidityError,
    ValidityReport,
    dense_operator,
    dense_stepper,
    density_stepper,
    last,
    march,
    spectral_stepper,
    validity_check,
    wave_stepper,
)
from .reference import (
    HamiltonianSpec,
    cn_stepper,
    diffusion_stepper,
    exact_state,
    hamiltonian_diagonals,
    has_exact_state,
    hermiticity_check,
    rhs_apply,
    to_hamiltonian,
)
from .scenario import (
    PacketSpec,
    Scenario,
    ScenarioError,
    load_scenario,
    parse_field,
    parse_scenario,
)
from .walk import (
    STEP_LAWS,
    HistogramComparison,
    WalkEnsemble,
    histogram_compare,
    sample_paths,
)

__version__ = "0.1.0"

__all__ = [
    "AScanResult",
    "AuditReport",
    "BoundaryDecayError",
    "CancellationResult",
    "FIELD_KINDS",
    "FieldSpec",
    "Grid",
    "HamiltonianSpec",
    "HistogramComparison",
    "MOMENT_ORDERS",
    "PacketSpec",
    "PhaseShiftReport",
    "PropagatorSpec",
    "RealState",
    "STEP_LAWS",
    "Scenario",
    "ScenarioError",
    "VARIANTS",
    "ValidityError",
    "ValidityReport",
    "WalkEnsemble",
    "WaveState",
    "a_field",
    "analytic_drift_rate",
    "audit_packets",
    "boundary_flux_check",
    "cancellation_check",
    "check_boundary_decay",
    "closed_moment",
    "cn_stepper",
    "complex_kernel",
    "dense_operator",
    "dense_stepper",
    "density_stepper",
    "diffusion_stepper",
    "empirical_a_scan",
    "exact_state",
    "fresnel_moment",
    "gaussian_packet",
    "hamiltonian_diagonals",
    "has_exact_state",
    "hermiticity_check",
    "histogram_compare",
    "last",
    "load_scenario",
    "make_grid",
    "march",
    "mean_momentum",
    "moments",
    "monomial",
    "norm",
    "parse_field",
    "parse_scenario",
    "phase_freedom_check",
    "predicted_drift_rate",
    "real_kernel",
    "required_a",
    "rhs_apply",
    "sample_paths",
    "spectral_stepper",
    "t_correction",
    "to_hamiltonian",
    "total_mass",
    "triple_product_check",
    "unit_mass_check",
    "validity_check",
    "wave_stepper",
    "__version__",
]
