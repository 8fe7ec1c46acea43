"""Possibilistic distributed learning on the best-of-n problem.

A population of agents holds beliefs over n candidate states, fuses them
pairwise, and updates from noisy quality samples. Beliefs are either
possibility distributions (fused with a normalised Frank t-norm) or
probability distributions (fused by renormalised products), so the two
approaches can be compared on identical random streams.
"""

from .engine import (
    ADOPT_BOTH,
    ADOPT_RANDOM_ONE,
    METRICS,
    POSSIBILISTIC,
    PROBABILISTIC,
    SimParams,
    run,
)
from .environment import (
    EnvironmentSpec,
    NoiseSpec,
    possibilistic_evidence,
    probabilistic_evidence,
    reversal_probability,
    sample_quality,
)
from .harness import (
    DEFAULT_RUNS,
    DEFAULT_SEED,
    AggregateRecord,
    Preset,
    PresetPart,
    PRESET_NAMES,
    SweepSpec,
    aggregate_trajectories,
    apply_param,
    collect_finals,
    collect_trajectories,
    derive_run_seed,
    emit_csv,
    histogram,
    percentile,
    preset,
    run_part,
    run_preset,
    sweep,
    trajectory_rows,
)
from .possibility import (
    FrankParameter,
    PossibilityDistribution,
    StateSubset,
    consistency,
    frank_tnorm,
    fuse,
    necessity_measure,
    pignistic,
    possibility_measure,
    vacuous,
)
from .probability import (
    DegenerateFusionWarning,
    ProbabilityDistribution,
    product_fuse,
    sample_state,
    uniform,
)

__version__ = "0.1.0"

__all__ = [
    "ADOPT_BOTH",
    "ADOPT_RANDOM_ONE",
    "AggregateRecord",
    "DEFAULT_RUNS",
    "DEFAULT_SEED",
    "DegenerateFusionWarning",
    "EnvironmentSpec",
    "FrankParameter",
    "METRICS",
    "NoiseSpec",
    "POSSIBILISTIC",
    "PROBABILISTIC",
    "PRESET_NAMES",
    "PossibilityDistribution",
    "Preset",
    "PresetPart",
    "ProbabilityDistribution",
    "SimParams",
    "StateSubset",
    "SweepSpec",
    "aggregate_trajectories",
    "apply_param",
    "collect_finals",
    "collect_trajectories",
    "consistency",
    "derive_run_seed",
    "emit_csv",
    "frank_tnorm",
    "fuse",
    "histogram",
    "necessity_measure",
    "percentile",
    "pignistic",
    "possibilistic_evidence",
    "possibility_measure",
    "preset",
    "probabilistic_evidence",
    "product_fuse",
    "reversal_probability",
    "run",
    "run_part",
    "run_preset",
    "sample_quality",
    "sample_state",
    "sweep",
    "trajectory_rows",
    "uniform",
    "vacuous",
    "__version__",
]
