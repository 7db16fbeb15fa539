"""Translation- and scale-invariant online prediction with expert advice.

The engine aggregates exponential weights over the equivalence classes of a
pluggable competition class (a stochastic transition kernel), with an
adaptive learning rate that makes the emitted probability sequence invariant
to per-round translations and global positive scalings of the losses.
"""

from .aggregator import Aggregator, RoundDiagnostics
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
    emit_csv,
    emit_probs_csv,
    loss_generator,
    make_kernel,
    run_experiment,
    run_sweep,
    run_verification,
)
from .kernels import (
    ClassParams,
    TransitionKernel,
    best_competitor,
    best_prefix_losses,
    class_budget,
    cyclic_kernel,
    fixed_kernel,
    switching_kernel,
)
from .oracle import (
    BoundReport,
    StrategyPath,
    bound_report,
    ewa_reference,
    exhaustive_best,
    trajectory_reference,
)

__version__ = "0.1.0"

__all__ = [
    "Aggregator",
    "BoundReport",
    "ClassParams",
    "ConfigError",
    "ExperimentConfig",
    "InvariantViolation",
    "OutOfClassError",
    "ProtocolError",
    "RegretReport",
    "RoundDiagnostics",
    "StrategyPath",
    "TransitionKernel",
    "best_competitor",
    "best_prefix_losses",
    "bound_report",
    "class_budget",
    "cyclic_kernel",
    "emit_csv",
    "emit_probs_csv",
    "ewa_reference",
    "exhaustive_best",
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
