"""Classifiers distinguishing form-invariance from frame-indifference,
plus the differential-geometry case suites (charts, affine connection,
geometric invariance of points and differences)."""

from .verdict import CheckPart
from .classify import (
    Quantity, scalar_quantity, gradient_quantity, rank2_quantity,
    velocity_quantity, velocity_relative_quantity, strain_rate_quantity,
    vorticity_quantity, vorticity_relative_quantity, z_tensor_quantity,
    composite_norm_quantity, classify, random_rotations,
    GENERIC_VELOCITY, GENERIC_SCALAR, ISOTROPIC_SCALAR,
)
from .geometry import (
    Chart, CHARTS, christoffel_transform, closed_form_christoffel,
    check_christoffel_transform, check_covariant_derivative,
    geometric_invariance_suite,
)

__all__ = [
    "CheckPart",
    "Quantity", "scalar_quantity", "gradient_quantity", "rank2_quantity",
    "velocity_quantity", "velocity_relative_quantity",
    "strain_rate_quantity", "vorticity_quantity",
    "vorticity_relative_quantity", "z_tensor_quantity",
    "composite_norm_quantity", "classify", "random_rotations",
    "GENERIC_VELOCITY", "GENERIC_SCALAR", "ISOTROPIC_SCALAR",
    "Chart", "CHARTS", "christoffel_transform", "closed_form_christoffel",
    "check_christoffel_transform", "check_covariant_derivative",
    "geometric_invariance_suite",
]
