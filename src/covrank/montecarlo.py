"""Seeded Monte Carlo drivers: rank-law sweeps, full-rank frequencies, and
the shifted-kernel condition-number comparison.

An experiment's sample space is its manifold alone; for R^n that includes the
sampling box (``Euclidean.box``).  Per-trial randomness comes from derived
Philox streams: trial t of a size-k experiment with master seed q always uses
stream ``(k << 32) | t`` of q (auxiliary draws such as forward-model weights
set the top stream bit).
One trial engine serves every experiment: it stacks the same-shape samples and
matrices of consecutive trials into chunks and measures each chunk with one
stacked SVD, or one stacked symmetric eigensolve for most condition-sweep
cells, which gives the same bits as factorizing each trial alone.  Results
are therefore independent of the chunking, and aggregation is by trial index.

Rows serialize to CSV and JSON lines with stable column order; floats are
written with 17 significant digits so files round-trip exactly.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from typing import Iterable, Iterator, Sequence

import numpy as np

from .kernels import Kernel, UnclassifiedKernelError, theoretical_rank
from .manifold import Euclidean, UnitSphere, rng_streams
from .numrank import DEFAULT_TOLERANCE, BatchedRankReport, Tolerance, batched_rank_report
from .tensor import _forward_systems, _recoveries, _system_rows, _Y_array, _Z_of_Y

__all__ = [
    "ExperimentConfig",
    "RankBoundError",
    "SweepRow",
    "RankLawRow",
    "RecoveryTrial",
    "fullrank_probability",
    "rank_law_sweep",
    "condition_sweep",
    "alpha_recommendation",
    "recovery_experiment",
    "rows_to_csv",
    "rows_to_jsonl",
    "fmt17",
    "sample_stream",
    "aux_stream",
]

# stream-index namespaces; the sample of trial t at size k uses (k << 32) | t
# and auxiliary draws of the same trial set the top bit
_AUX_STREAM_BIT = 1 << 63


def sample_stream(k: int, trial: int) -> int:
    if k >= 1 << 31 or trial >= 1 << 32:
        raise ValueError("k or trial index too large for stream derivation")
    return (k << 32) | trial


def aux_stream(k: int, trial: int) -> int:
    return _AUX_STREAM_BIT | sample_stream(k, trial)


# Byte budget of a chunk's largest temporary; see _sample_chunks.
_CHUNK_BYTES = 256 * 1024


class RankBoundError(RuntimeError):
    """A measured rank exceeded its proven bound: the tolerance policy is too tight."""


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment grid; every experiment validates its inputs through it.

    Trials run as chunked batches in the calling thread.
    """

    manifold: Euclidean | UnitSphere
    kernel: Kernel | None
    k_values: tuple[int, ...]
    trials: int
    seed: int
    tolerance: Tolerance = DEFAULT_TOLERANCE

    def __post_init__(self):
        ks = tuple(int(k) for k in self.k_values)
        object.__setattr__(self, "k_values", ks)
        if not ks or any(k < 1 for k in ks):
            raise ValueError("k_values must be non-empty with every k >= 1")
        if self.trials < 1:
            raise ValueError("trials must be at least 1")


@dataclass(frozen=True)
class SweepRow:
    """One (k, alpha) cell of a condition sweep, aggregated over trials.

    Condition numbers are the raw spectral ratios sigma_1 / sigma_min, which
    on eigensolved cells (see condition_sweep) are |lambda|_max / |lambda|_min;
    cells far past the double-precision cliff simply report huge ratios the
    way a condition-number table does, while fullrank/borderline fractions
    carry the tolerance-aware verdicts.
    """

    k: int
    alpha: float
    mean_cond: float
    min_cond: float
    max_cond: float
    mean_log_abs_det: float
    fullrank_fraction: float
    borderline_fraction: float


@dataclass(frozen=True)
class RankLawRow:
    """Observed numerical-rank distribution of one system size."""

    system: str
    k: int
    trials: int
    bound: int | None
    expected_rank: int | None
    rank_min: int
    rank_max: int
    equality_fraction: float | None  # among non-borderline trials
    fullrank_fraction: float
    borderline_fraction: float


@dataclass(frozen=True)
class RecoveryTrial:
    trial: int
    k: int
    rel_error: float
    residual: float
    rank_Y: int
    rank_augmented: int
    unique: bool
    borderline: bool


# --- the trial engine ---------------------------------------------------


def _sample_chunks(cfg: ExperimentConfig, k: int, trial_bytes: int) -> Iterator[np.ndarray]:
    """Samples of trials 0..cfg.trials-1 at size k, stacked (T, k, coord_dim) per chunk.

    trial_bytes is the size of a trial's largest temporary: 8 k^2 d^2 for
    the Y/Z matrices, 8 (k+1) times tensor._system_rows for a recovery's
    reduced [Y | c] system, and 8 k^2 n (n = coord_dim) for a kernel matrix,
    whose trial holds a few k x k arrays at a time.  Chunks keep that
    temporary within _CHUNK_BYTES, or hold one trial.
    """
    size = max(1, _CHUNK_BYTES // trial_bytes)
    for start in range(0, cfg.trials, size):
        streams = [sample_stream(k, t) for t in range(start, min(cfg.trials, start + size))]
        yield cfg.manifold.sample_batch(k, cfg.seed, streams)


def _trial_reports(cfg: ExperimentConfig, k: int, system: str) -> BatchedRankReport:
    """Rank reports of the kernel, Y or Z matrix of every trial at size k."""
    manifold, d = cfg.manifold, cfg.manifold.coord_dim
    if system == "kernel":
        build, width = cfg.kernel.pairwise, d
    elif system == "Y":
        build, width = (lambda P: _Y_array(manifold.pairwise_log(P))), d * d
    else:
        build, width = (lambda P: _Z_of_Y(_Y_array(manifold.pairwise_log(P)))), d * d
    return BatchedRankReport.concatenate(
        batched_rank_report(build(P), cfg.tolerance) for P in _sample_chunks(cfg, k, 8 * k * k * width)
    )


# --- experiments -----------------------------------------------------------


def fullrank_probability(cfg: ExperimentConfig, k: int) -> float:
    """Fraction of trials whose k x k kernel matrix has numerical rank k."""
    if cfg.kernel is None:
        raise ValueError("config needs a kernel for kernel-matrix experiments")
    return float(np.mean(_trial_reports(cfg, k, "kernel").numerical_rank == k))


def _system_bound(cfg: ExperimentConfig, system: str):
    """Upper rank bound and per-k expected generic rank for a system kind."""
    if system in ("Y", "Z"):
        if not isinstance(cfg.manifold, Euclidean):
            raise ValueError("Y/Z rank laws are stated for Euclidean samples only")
        n = cfg.manifold.n
        bound = (n + 1) * (n + 2) // 2 if system == "Y" else n * (n + 2)
        return bound, lambda k: min(k, bound)
    if system == "kernel":
        if cfg.kernel is None:
            raise ValueError("config needs a kernel for kernel-matrix experiments")
        try:
            rc = theoretical_rank(cfg.kernel)
        except UnclassifiedKernelError:
            return None, lambda k: None
        if rc.finite:
            return rc.rank, lambda k: min(k, rc.rank)
        return None, lambda k: k
    raise ValueError(f"unknown system {system!r}; expected 'kernel', 'Y' or 'Z'")


def rank_law_sweep(cfg: ExperimentConfig, system: str = "kernel") -> list[RankLawRow]:
    """Measure numerical ranks across cfg.k_values for one system kind.

    Proven upper bounds are enforced, not just recorded: a trial exceeding
    its bound raises RankBoundError.  Equality with the generic expected
    rank is reported as a fraction of the non-borderline trials.
    """
    bound, expected_for = _system_bound(cfg, system)
    rows = []
    for k in cfg.k_values:
        reports = _trial_reports(cfg, k, system)
        ranks, borderline = reports.numerical_rank, reports.borderline
        if bound is not None and ranks.max() > bound:
            raise RankBoundError(
                f"{system} system exceeded its proven rank bound: "
                f"rank {ranks.max()} > {bound} at k={k}"
            )
        expected = expected_for(k)
        solid = ~borderline
        equality = None
        if expected is not None and solid.any():
            equality = float(np.mean(ranks[solid] == expected))
        rows.append(
            RankLawRow(
                system=system,
                k=k,
                trials=cfg.trials,
                bound=bound,
                expected_rank=expected,
                rank_min=int(ranks.min()),
                rank_max=int(ranks.max()),
                equality_fraction=equality,
                fullrank_fraction=float(np.mean(ranks == reports.singular_values.shape[1])),
                borderline_fraction=float(np.mean(borderline)),
            )
        )
    return rows


def _proven_finite_rank(manifold: Euclidean | UnitSphere, alpha: float) -> bool:
    """Whether the rank oracle proves (d - alpha)^2 on manifold finite-rank."""
    try:
        return theoretical_rank(Kernel(manifold, "shifted", alpha=alpha)).finite
    except ValueError:  # alpha < 0, or UnclassifiedKernelError
        return False


def condition_sweep(
    manifold: Euclidean | UnitSphere,
    alphas: Sequence[float],
    k_values: Sequence[int],
    trials: int,
    seed: int,
    tolerance: Tolerance = DEFAULT_TOLERANCE,
) -> list[SweepRow]:
    """Condition statistics of the shifted squared-distance matrices (d - alpha)^2.

    All alphas are evaluated on the same per-trial samples and distance
    matrices, so rows differing only in alpha are paired comparisons.  Row
    order: alphas outer, k inner.

    The matrices are symmetric, so a cell is measured by one symmetric
    eigensolve, its singular values being the |eigenvalues|, unless the rank
    oracle (theoretical_rank) proves the cell's kernel finite-rank: then its
    noise singular values sit at a rank gap, where the SVD places them
    further below the threshold, and the cell keeps the SVD.  Today that is
    alpha = 0 on R^n; alpha < 0, which no Kernel accepts, is eigensolved.
    """
    alphas = [float(a) for a in alphas]
    k_values = [int(k) for k in k_values]
    if not alphas or not k_values:
        raise ValueError("need at least one alpha and one k")
    for alpha in alphas:
        if not math.isfinite(alpha):
            raise ValueError(f"distance shift alpha must be finite, got {alpha!r}")
    cfg = ExperimentConfig(
        manifold=manifold, kernel=None, k_values=tuple(k_values), trials=trials, seed=seed,
        tolerance=tolerance,
    )
    symmetric = [not _proven_finite_rank(manifold, alpha) for alpha in alphas]
    cells = {}
    for k in cfg.k_values:
        per_alpha = [[] for _ in alphas]
        for P in _sample_chunks(cfg, k, 8 * k * k * manifold.coord_dim):
            dist = manifold.pairwise_distance(P)
            for reports, alpha, sym in zip(per_alpha, alphas, symmetric):
                reports.append(batched_rank_report((dist - alpha) ** 2, tolerance, symmetric=sym))
        for alpha, reports in zip(alphas, per_alpha):
            cells[alpha, k] = BatchedRankReport.concatenate(reports)

    rows = []
    for alpha in alphas:
        for k in cfg.k_values:
            cell = cells[alpha, k]
            conds = cell.spectral_ratio
            rows.append(
                SweepRow(
                    k=k,
                    alpha=alpha,
                    mean_cond=float(np.mean(conds)),
                    min_cond=float(np.min(conds)),
                    max_cond=float(np.max(conds)),
                    mean_log_abs_det=float(np.mean(cell.log_abs_det)),
                    fullrank_fraction=float(np.mean(cell.numerical_rank == k)),
                    borderline_fraction=float(np.mean(cell.borderline)),
                )
            )
    return rows


def alpha_recommendation(manifold: Euclidean | UnitSphere, trials: int, seed: int) -> float:
    """Estimated E d(X, Y) for uniform X, Y: the shift minimizing E (d - alpha)^2.

    On the unit sphere the exact value is pi/2 in every dimension.
    """
    return manifold.expected_distance(trials, seed)


def recovery_experiment(
    manifold: Euclidean | UnitSphere,
    k: int,
    trials: int,
    seed: int,
    tolerance: Tolerance = DEFAULT_TOLERANCE,
) -> list[RecoveryTrial]:
    """Forward-generate f0 ~ Unif[0,1]^k, build its covariance field, solve back.

    Each chunk of trials from the engine is written as stacks of reduced
    [Y | c] systems (see tensor.recover), each solved with one stacked QR, one
    stacked SVD plus an arrowhead inertia count (O'Leary-Stewart); every row
    equals, bit for bit,
    recover(field, sigma_field(field, f0)) on that trial's sample.
    """
    cfg = ExperimentConfig(
        manifold=manifold, kernel=None, k_values=(k,), trials=trials, seed=seed,
        tolerance=tolerance,
    )
    weights = rng_streams(seed, (aux_stream(k, t) for t in range(trials)))
    rows = []
    for P in _sample_chunks(cfg, k, 8 * _system_rows(manifold, k) * (k + 1)):
        f0 = np.stack([next(weights).random(k) for _ in P])
        systems = _forward_systems(manifold, P, f0, tolerance)
        for f, result in zip(f0, _recoveries(manifold, systems, tolerance)):
            rows.append(
                RecoveryTrial(
                    trial=len(rows),
                    k=k,
                    rel_error=float(np.linalg.norm(result.f_hat - f) / np.linalg.norm(f)),
                    residual=result.residual,
                    rank_Y=result.rank_Y,
                    rank_augmented=result.rank_augmented,
                    unique=result.unique,
                    borderline=result.borderline,
                )
            )
    return rows


# --- row serialization -------------------------------------------------


def fmt17(value) -> str:
    """Render one scalar for CSV: 17 significant digits for floats, so they round-trip."""
    if isinstance(value, float):  # np.float64 is a float
        return f"{value:.17g}"  # also spells nan, inf and -inf
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, np.floating):
        return f"{float(value):.17g}"
    return str(value)


# fmt17 spellings that differ in JSON; non-finite values follow the json module
# convention, so json.loads reads them back
_JSON_SPELLINGS = {"": "null", "nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_scalar(value) -> str:
    if isinstance(value, str):
        return json.dumps(value)
    text = fmt17(value)
    if isinstance(value, (float, np.floating)) and not any(c in text for c in ".eni"):
        text += ".0"  # an integral double stays a float in JSON, and -0.0 keeps its sign
    return _JSON_SPELLINGS.get(text, text)


def _table(names: Sequence[str], rows: Iterable[Sequence], fmt: str) -> str:
    """Join rows of scalars as CSV lines under a header of names, or as JSON lines
    keyed by names; the text of every table file comes from here."""
    if fmt == "csv":
        lines = [",".join(names)] + [",".join(map(fmt17, row)) for row in rows]
    else:
        keys = [f'"{name}": ' for name in names]
        lines = ["{" + ", ".join(k + _json_scalar(v) for k, v in zip(keys, row)) + "}" for row in rows]
    return "\n".join(lines) + "\n" if lines else ""


def _table_rows(rows: Iterable, fmt: str) -> str:
    """Rows of one dataclass type, its fields as the columns."""
    rows = list(rows)
    if not rows:
        return ""
    names = [f.name for f in fields(rows[0])]
    return _table(names, ([getattr(row, name) for name in names] for row in rows), fmt)


def rows_to_csv(rows: Iterable) -> str:
    return _table_rows(rows, "csv")


def rows_to_jsonl(rows: Iterable) -> str:
    return _table_rows(rows, "jsonl")
