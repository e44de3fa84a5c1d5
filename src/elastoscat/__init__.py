"""Spectral forward and inverse solvers for 3D time-harmonic elastic-wave
scattering by rigid star-shaped obstacles."""

from .forward import (
    IncidentWave,
    MeasurementSet,
    ScatteredSolution,
    SolverOptions,
    add_noise,
    fibonacci_sphere,
    incident_field,
    solve_exterior_dirichlet,
    solve_rigid_scattering,
)
from .geometry import BoundarySample, SurfaceParam, ellipsoid_coeffs, sample_boundary, sphere_coeffs
from .inverse import FrequencySchedule, InversionState, continuation_run, initial_guess, surface_error
from .modal import DisplacementCoeffs, Medium, PotentialCoeffs

__version__ = "0.1.0"

__all__ = [
    "BoundarySample",
    "DisplacementCoeffs",
    "FrequencySchedule",
    "IncidentWave",
    "InversionState",
    "MeasurementSet",
    "Medium",
    "PotentialCoeffs",
    "ScatteredSolution",
    "SolverOptions",
    "SurfaceParam",
    "add_noise",
    "continuation_run",
    "ellipsoid_coeffs",
    "fibonacci_sphere",
    "incident_field",
    "initial_guess",
    "sample_boundary",
    "solve_exterior_dirichlet",
    "solve_rigid_scattering",
    "sphere_coeffs",
    "surface_error",
]
