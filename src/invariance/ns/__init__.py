"""Incompressible Navier-Stokes: residual operator, exact solution
library, symmetry verification, Reynolds ensembles and closure
screening."""

from .residual import (
    FlowState, ns_residual, certify, taylor_green, beltrami, rigid_shear,
    transform_flow, check_ns_symmetry, SOLUTIONS,
)
from .ensemble import Ensemble, reynolds_tau, check_decomposed_symmetry
from .closure import (
    ClosureModel, compliant_model, constant_phi2_model, nu_phi2_model,
    bare_mean_velocity_model, screen_closure,
)

__all__ = [
    "FlowState", "ns_residual", "certify", "taylor_green", "beltrami",
    "rigid_shear", "transform_flow", "check_ns_symmetry", "SOLUTIONS",
    "Ensemble", "reynolds_tau", "check_decomposed_symmetry",
    "ClosureModel", "compliant_model", "constant_phi2_model",
    "nu_phi2_model", "bare_mean_velocity_model", "screen_closure",
]
