"""Class-conditional probabilistic circuits with two-step counterfactuals.

The package trains sum-product networks as class-conditional density models
and explains their decisions by moving an input along two closed-form
gradient steps: one across the decision boundary, one toward higher density.
"""

from .circuit import (
    Circuit,
    CircuitFormatError,
    load,
    save,
    validate,
)
from .structure import StructureConfig, build_circuit
from .training import TrainConfig, TrainReport, cross_validate, fit
from .counterfactual import CfConfig, CfResult, generate, wachter_baseline

__all__ = [
    "CfConfig",
    "CfResult",
    "Circuit",
    "CircuitFormatError",
    "StructureConfig",
    "TrainConfig",
    "TrainReport",
    "build_circuit",
    "cross_validate",
    "fit",
    "generate",
    "load",
    "save",
    "validate",
    "wachter_baseline",
]

__version__ = "0.1.0"
