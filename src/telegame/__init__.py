"""Continuous-variable teleportation game.

One sender teleports coherent states to two receivers through a tripartite
Gaussian channel driven by a single noise parameter. The package evaluates
the standard (non-cooperative) and the measurement-assisted (cooperative)
strategies in closed form, re-derives both through a phase-space Gaussian
pipeline, cross-checks everything with a seeded Monte-Carlo trajectory
estimator, and locates the noise threshold where cooperation starts to win.
"""

__version__ = "0.1.0"

from .analysis import (
    SweepRow,
    ThresholdResult,
    find_classical_crossings,
    find_threshold,
    sweep,
)
from .channel import ChannelParams, build_cm, channel_params, exchange_symmetry_check, kappa
from .errors import BracketError, DomainError, InvalidInputError, TelegameError
from .gaussian import (
    ComplexAmplitude,
    GaussianState,
    ZERO_AMPLITUDE,
    apply_symplectic,
    beam_splitter_50_50,
    displace,
    fidelity_vs_coherent,
    heterodyne_outcome_distribution,
    heterodyne_update,
    homodyne_update,
    make_coherent,
    partial_trace,
    physicality,
    symplectic_form,
    tensor,
    vacuum,
)
from .montecarlo import McConfig, McEstimate, estimate_fidelities
from .protocols import (
    StrategyOutcome,
    average_coherent_fidelity,
    f_ab_coop,
    f_ac_coop,
    f_coop_avg,
    f_noncoop,
    modified_shift,
    run_coop_pipeline,
    run_noncoop_pipeline,
)

__all__ = [
    "BracketError",
    "ChannelParams",
    "ComplexAmplitude",
    "DomainError",
    "GaussianState",
    "InvalidInputError",
    "McConfig",
    "McEstimate",
    "StrategyOutcome",
    "SweepRow",
    "TelegameError",
    "ThresholdResult",
    "ZERO_AMPLITUDE",
    "apply_symplectic",
    "average_coherent_fidelity",
    "beam_splitter_50_50",
    "build_cm",
    "channel_params",
    "displace",
    "estimate_fidelities",
    "exchange_symmetry_check",
    "f_ab_coop",
    "f_ac_coop",
    "f_coop_avg",
    "f_noncoop",
    "fidelity_vs_coherent",
    "find_classical_crossings",
    "find_threshold",
    "heterodyne_outcome_distribution",
    "heterodyne_update",
    "homodyne_update",
    "kappa",
    "make_coherent",
    "modified_shift",
    "partial_trace",
    "physicality",
    "run_coop_pipeline",
    "run_noncoop_pipeline",
    "sweep",
    "symplectic_form",
    "tensor",
    "vacuum",
]
