"""Translation- and scale-invariant online prediction with expert advice.

The engine aggregates exponential weights over the equivalence classes of a
pluggable competition class (a stochastic transition kernel), with an
adaptive learning rate that makes the emitted probability sequence invariant
to per-round translations and global positive scalings of the losses.
"""

from .aggregator import Aggregator
from .core import (
    ConfigError,
    InvariantViolation,
    OutOfClassError,
    ProtocolError,
    gamma_from_budget,
)
from .harness import (
    ExperimentConfig,
    RegretReport,
    loss_generator,
    make_kernel,
    run_experiment,
    run_sweep,
    run_verification,
)
from .kernels import (
    TransitionKernel,
    best_competitor,
    best_prefix_losses,
    class_budget,
    cyclic_kernel,
    fixed_kernel,
    switching_kernel,
)
from .oracle import bound_report, trajectory_reference

__version__ = "0.1.0"

__all__ = [
    "Aggregator",
    "ConfigError",
    "ExperimentConfig",
    "InvariantViolation",
    "OutOfClassError",
    "ProtocolError",
    "RegretReport",
    "TransitionKernel",
    "best_competitor",
    "best_prefix_losses",
    "bound_report",
    "class_budget",
    "cyclic_kernel",
    "fixed_kernel",
    "gamma_from_budget",
    "loss_generator",
    "make_kernel",
    "run_experiment",
    "run_sweep",
    "run_verification",
    "switching_kernel",
    "trajectory_reference",
]
