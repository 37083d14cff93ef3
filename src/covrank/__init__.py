"""Distance-kernel rank laws and covariance-field recovery on Euclidean
space and the unit sphere, with seeded Monte Carlo experiment drivers."""

from .kernels import (
    Kernel,
    UnclassifiedKernelError,
    arccos_taylor_coeffs,
    parse_kernel,
    theoretical_rank,
)
from .manifold import AntipodalPairError, Euclidean, SampleSet, UnitSphere, rng_stream
from .montecarlo import (
    ExperimentConfig,
    RankBoundError,
    RankLawRow,
    RecoveryTrial,
    SweepRow,
    condition_sweep,
    fullrank_probability,
    rank_law_sweep,
    recovery_experiment,
    rows_to_csv,
    rows_to_jsonl,
)
from .numrank import DEFAULT_TOLERANCE, Tolerance
from .tensor import (
    CovField,
    OperatorField,
    RecoveryResult,
    assemble_Y,
    assemble_Z,
    outer_field,
    recover,
    sigma_field,
    trace_system,
    unfold_C,
)

__version__ = "0.1.0"

__all__ = [
    "AntipodalPairError",
    "CovField",
    "DEFAULT_TOLERANCE",
    "Euclidean",
    "ExperimentConfig",
    "Kernel",
    "OperatorField",
    "RankBoundError",
    "RankLawRow",
    "RecoveryResult",
    "RecoveryTrial",
    "SampleSet",
    "SweepRow",
    "Tolerance",
    "UnclassifiedKernelError",
    "UnitSphere",
    "arccos_taylor_coeffs",
    "assemble_Y",
    "assemble_Z",
    "condition_sweep",
    "fullrank_probability",
    "outer_field",
    "parse_kernel",
    "rank_law_sweep",
    "recover",
    "recovery_experiment",
    "rng_stream",
    "rows_to_csv",
    "rows_to_jsonl",
    "sigma_field",
    "theoretical_rank",
    "trace_system",
    "unfold_C",
]
