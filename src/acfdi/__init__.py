"""AC false data injection attack studio for transmission networks.

Builds undetectable measurement attacks against weighted-least-squares state
estimation, checks them against residual-based bad data detection, and
quantifies the resulting line-flow impact.

The package exports the library calls of README's Library section, the
network and zone helpers that the benchmark's grid builders use, and the
exceptions behind the CLI's exit codes. Everything else is reached through
its module (`acfdi.estimation`, `acfdi.network`, ...).
"""

from .attacks import AttackError, AttackSpec, OverloadTarget, apply_attack, design_attack
from .estimation import (
    EstimationError,
    Layout,
    MeasurementSet,
    bus_injection,
    full_layout,
    generate_measurements,
    wls_estimate,
)
from .impact import compute_impact, render_report
from .network import (
    Branch,
    CaseError,
    NetworkCase,
    build_admittance,
    case_to_json,
    load_bundled_case39,
    load_case,
)
from .powerflow import PowerFlowError, newton_power_flow, solve_power_flow
from .zones import ZoneError, build_zone, validate_zone

__version__ = "0.1.0"

__all__ = [
    # the library section of README
    "AttackSpec",
    "Layout",
    "MeasurementSet",
    "OverloadTarget",
    "apply_attack",
    "compute_impact",
    "design_attack",
    "full_layout",
    "generate_measurements",
    "load_bundled_case39",
    "render_report",
    "solve_power_flow",
    "validate_zone",
    "wls_estimate",
    # grid building and set-up in bench/
    "Branch",
    "NetworkCase",
    "build_admittance",
    "build_zone",
    "bus_injection",
    "case_to_json",
    "load_case",
    "newton_power_flow",
    # the exit-code exceptions
    "AttackError",
    "CaseError",
    "EstimationError",
    "PowerFlowError",
    "ZoneError",
    "__version__",
]
