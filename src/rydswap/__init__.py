"""Pulse-level simulator of Rydberg SWAP and controlled-SWAP gate protocols."""

from .basis import LevelScheme, ProductBasis, build_basis, qubit_scheme
from .model import (
    DriveTerm,
    Envelope,
    HamiltonianSpec,
    InteractionGraph,
    NoiseRealization,
    envelope_value,
    standard_target_frame,
)
from .dynamics import PropagationResult, Stage, StagePlan, StepPolicy, propagate
from .gates import GateParams, GateProtocol, GateReport, make_protocol, process_fidelity, run_gate

__all__ = [
    "LevelScheme",
    "ProductBasis",
    "build_basis",
    "qubit_scheme",
    "Envelope",
    "DriveTerm",
    "InteractionGraph",
    "HamiltonianSpec",
    "NoiseRealization",
    "envelope_value",
    "standard_target_frame",
    "PropagationResult",
    "Stage",
    "StagePlan",
    "StepPolicy",
    "propagate",
    "GateParams",
    "GateProtocol",
    "GateReport",
    "make_protocol",
    "process_fidelity",
    "run_gate",
]

__version__ = "0.1.0"
