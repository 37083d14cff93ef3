"""Seeded Monte Carlo drivers: rank-law sweeps, full-rank frequencies, and
the shifted-kernel condition-number comparison.

An experiment's sample space is its manifold alone; for R^n that includes the
sampling box (``Euclidean.box``).  Per-trial randomness comes from derived
Philox streams: trial t of a size-k experiment with master seed q always uses
stream ``(k << 32) | t`` of q (auxiliary draws such as forward-model weights
set the top stream bit).
One trial engine serves every experiment.  A k's samples come from one
``sample_batch`` call (or one per _CHUNK_BYTES of samples), which it cuts
into chunks of consecutive trials whose matrices it stacks and measures with
one stacked factorization, giving the same bits as factorizing each trial
alone.  A kernel chunk gives its settled spectra (``numrank._spectra``): a
matrix equal to its transpose bit for bit, as every kernel matrix is, is
eigensolved first, and the SVD settles the trials it flags.  The spectra of all
of a k's chunks fill one (trials, k) array, which gets one verdict
(``numrank._verdicts``); a condition-sweep cell likewise, its chunks mostly
taking the eigensolve alone, since its rows report every trial's spectral
ratio.  A Y or Z chunk takes its verdicts from ``covrank tensor``'s path
(``tensor._system_verdicts``: tangent-frame reductions, the tall ones certified
first), which also enforces the space's Y and Z bounds.  The kernel verdicts meet
the kernel's where they are made (``_trial_verdicts``), and ``condition_sweep`` the
space's sqdist bound on its alpha = 0 cells.  A recovery chunk is solved by
``tensor._forward_recoveries``, one stacked solve per frame group, under the Y bound.
Every bound is the space's law, read through one lookup, ``kernels._law``.
Results are therefore independent of the chunking, and aggregation is by trial index.

Rows serialize to CSV and JSON lines with stable column order; floats are
written with 17 significant digits so files round-trip exactly.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass, fields, replace
from typing import Iterable, Iterator, Sequence

import numpy as np

from .kernels import Kernel, _law
from .manifold import _check_key_word, _ManifoldBase, rng_streams
from .numrank import DEFAULT_TOLERANCE, Tolerance, _singular_values, _spectra, _validated, _verdicts
from .tensor import (
    RankBoundError,
    _enforce_bound,
    _forward_recoveries,
    _system_rows,
    _system_shape,
    _system_verdicts,
)

__all__ = [
    "ExperimentConfig",
    "RankBoundError",
    "SweepRow",
    "RankLawRow",
    "RecoveryTrial",
    "fullrank_probability",
    "rank_law_sweep",
    "condition_sweep",
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


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment grid; every experiment validates its inputs through it.

    Trials run as chunked batches in the calling thread.
    """

    manifold: _ManifoldBase
    kernel: Kernel | None
    k_values: tuple[int, ...]
    trials: int
    seed: int
    tolerance: Tolerance = DEFAULT_TOLERANCE

    def __post_init__(self):
        try:  # numpy integers pass; 7.9 is refused, which int() would run as k = 7
            ks, trials = tuple(map(operator.index, self.k_values)), operator.index(self.trials)
        except TypeError:
            raise ValueError(f"k_values and trials must be integers: {self.k_values!r}, {self.trials!r}") from None
        object.__setattr__(self, "k_values", ks)
        object.__setattr__(self, "trials", trials)
        if not ks or any(k < 1 for k in ks):
            raise ValueError("k_values must be non-empty with every k >= 1")
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        if self.trials > 1 << 32:  # sample_stream indexes trials below 2**32
            raise ValueError(f"trials must be at most 2**32, got {self.trials}")
        if max(ks) >= 1 << 31:  # and sizes below 2**31
            raise ValueError(f"k must be below 2**31, got {max(ks)}")
        if self.kernel is not None and self.kernel.manifold != self.manifold:
            raise ValueError(f"kernel on {self.kernel.manifold!r} for samples on {self.manifold!r}")
        object.__setattr__(self, "seed", _check_key_word(self.seed))


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


def _sample_chunks(cfg: ExperimentConfig, k: int, trial_bytes: int) -> Iterator[tuple[int, np.ndarray]]:
    """(first trial, samples) of consecutive chunks of trials 0..cfg.trials-1 at size k,
    the samples stacked (T, k, coord_dim).

    trial_bytes is the size of a trial's largest temporary: 8 k^2 d^2 for
    the Y/Z matrices, 8 (k+1) times tensor._system_rows for a recovery's
    reduced [Y | c] system, and 8 k^2 n (n = coord_dim) for a kernel matrix,
    whose trial holds a few k x k arrays at a time.  Chunks keep that
    temporary within _CHUNK_BYTES, or hold one trial.  The samples of many chunks
    come from one sample_batch call, as many as fit _CHUNK_BYTES themselves, so
    a k of few small trials is drawn at once.
    """
    size = max(1, _CHUNK_BYTES // trial_bytes)
    draw = size * max(1, _CHUNK_BYTES // (8 * k * cfg.manifold.coord_dim * size))
    for first in range(0, cfg.trials, draw):
        streams = [sample_stream(k, t) for t in range(first, min(cfg.trials, first + draw))]
        samples = cfg.manifold.sample_batch(k, cfg.seed, streams)
        for start in range(0, len(samples), size):
            yield first + start, samples[start:start + size]


def _trial_verdicts(cfg: ExperimentConfig, k: int, system: str) -> tuple[np.ndarray, np.ndarray]:
    """Numerical ranks and borderline flags (trials,) of the kernel, Y or Z matrix of every
    trial at size k: the Y or Z chunks' verdicts in trial order, or the one verdict of a
    (trials, k) array that each kernel chunk's settled spectra fill.  A rank above the
    bound the space proves for the system (``kernels._law``) raises RankBoundError, the
    kernel's here and Y's or Z's in ``tensor._system_verdicts``."""
    manifold, d, tolerance = cfg.manifold, cfg.manifold.coord_dim, cfg.tolerance
    if system != "kernel":
        chunks = [_system_verdicts(manifold, P, manifold.pairwise_log(P), tolerance, system)
                  for _, P in _sample_chunks(cfg, k, 8 * k * k * d * d)]
        return tuple(np.concatenate(verdicts) for verdicts in zip(*chunks))
    s = np.empty((cfg.trials, k))
    for start, P in _sample_chunks(cfg, k, 8 * k * k * d):
        s[start:start + len(P)] = _spectra(_validated(cfg.kernel.pairwise(P), ndim=3), tolerance)
    report = _verdicts(s, tolerance, (k, k))
    _enforce_bound(system, int(report.numerical_rank.max()), _law(manifold, cfg.kernel)[0], k)
    return report.numerical_rank, report.borderline


# --- experiments -----------------------------------------------------------


def fullrank_probability(cfg: ExperimentConfig, k: int) -> float:
    """Fraction of trials whose k x k kernel matrix has numerical rank k, read from
    rank_law_sweep's row for k, which validates k and enforces the kernel's bound."""
    return rank_law_sweep(replace(cfg, k_values=(k,)))[0].fullrank_fraction


def rank_law_sweep(cfg: ExperimentConfig, system: str = "kernel") -> list[RankLawRow]:
    """Measure numerical ranks across cfg.k_values for one system kind.

    Proven upper bounds are enforced, not just recorded: a trial exceeding
    its bound raises RankBoundError where its verdicts are made
    (``_trial_verdicts``).  Equality with the generic expected rank is
    reported as a fraction of the non-borderline trials.

    The expected rank is that of the law (``kernels._law``): min(bound, k min(c, k - own)).
    """
    if system not in ("kernel", "Y", "Z"):
        raise ValueError(f"unknown system {system!r}; expected 'kernel', 'Y' or 'Z'")
    if system == "kernel" and cfg.kernel is None:
        raise ValueError("config needs a kernel for kernel-matrix experiments")
    bound, per_point, own = _law(cfg.manifold, cfg.kernel if system == "kernel" else system)
    if per_point is None and system != "kernel":
        raise ValueError(f"no {system} rank law is proven on {cfg.manifold}")
    rows = []
    for k in cfg.k_values:
        ranks, borderline = _trial_verdicts(cfg, k, system)
        width = k if system == "kernel" else min(_system_shape(cfg.manifold, k, system))
        expected = None if per_point is None else k * min(per_point, k - own)
        if bound is not None:
            expected = min(bound, expected)
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
                fullrank_fraction=float(np.mean(ranks == width)),
                borderline_fraction=float(np.mean(borderline)),
            )
        )
    return rows


def condition_sweep(
    manifold: _ManifoldBase,
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
    eigensolve, its singular values being the |eigenvalues|, unless alpha = 0
    and the space proves sqdist finite-rank (``kernels._law``), as on R^n:
    then its noise singular values sit at a rank gap, where the SVD places
    them further below the threshold, the cell keeps the SVD, and a rank above
    that bound raises RankBoundError.  Unlike ``numrank._spectra``, no SVD
    settles the trials the eigensolve flags: the rows read every trial's
    spectrum, not only its verdict.
    """
    alphas = [float(a) for a in alphas]
    k_values = tuple(k_values)
    if not alphas or not k_values:
        raise ValueError("need at least one alpha and one k")
    for alpha in alphas:
        if not math.isfinite(alpha):
            raise ValueError(f"distance shift alpha must be finite, got {alpha!r}")
    cfg = ExperimentConfig(
        manifold=manifold, kernel=None, k_values=k_values, trials=trials, seed=seed,
        tolerance=tolerance,
    )
    sqdist_bound = _law(manifold, Kernel(manifold, "sqdist"))[0]
    symmetric = [alpha != 0.0 or sqdist_bound is None for alpha in alphas]
    spectra = {}
    for k in cfg.k_values:
        per_alpha = [np.empty((cfg.trials, k)) for _ in alphas]
        for start, P in _sample_chunks(cfg, k, 8 * k * k * manifold.coord_dim):
            dist = manifold.pairwise_distance(P)
            for s, alpha, sym in zip(per_alpha, alphas, symmetric):
                s[start:start + len(P)] = _singular_values(_validated((dist - alpha) ** 2, ndim=3), sym)
        spectra.update(((alpha, k), s) for alpha, s in zip(alphas, per_alpha))

    rows = []
    for alpha in alphas:
        for k in cfg.k_values:
            s = spectra[alpha, k]
            cell = _verdicts(s, tolerance, (k, k))
            _enforce_bound("kernel", int(cell.numerical_rank.max()), None if alpha else sqdist_bound, k)
            with np.errstate(divide="ignore", invalid="ignore"):  # a singular trial's ratio is inf, its log-det -inf
                conds = np.where(s[:, -1] == 0.0, np.inf, s[:, 0] / s[:, -1])
                log_abs_det = np.log(s).sum(axis=1)
            rows.append(
                SweepRow(
                    k=k,
                    alpha=alpha,
                    mean_cond=float(np.mean(conds)),
                    min_cond=float(np.min(conds)),
                    max_cond=float(np.max(conds)),
                    mean_log_abs_det=float(np.mean(log_abs_det)),
                    fullrank_fraction=float(np.mean(cell.numerical_rank == k)),
                    borderline_fraction=float(np.mean(cell.borderline)),
                )
            )
    return rows


def recovery_experiment(
    manifold: _ManifoldBase,
    k: int,
    trials: int,
    seed: int,
    tolerance: Tolerance = DEFAULT_TOLERANCE,
) -> list[RecoveryTrial]:
    """Forward-generate f0 ~ Unif[0,1]^k, build its covariance field, solve back.

    Each chunk of trials from the engine is written as stacks of reduced
    [Y | c] systems (see tensor.recover), each solved with one stacked QR and
    the two-step ladder: norm bounds and one blocked triangular inverse certify
    the full-rank systems, a diagonal screen sending the deficient ones past the
    inverse, and only the rest take one stacked SVD with vectors of Y's block,
    and one values-only SVD of the triangle for rank [Y | c]; every row
    equals, bit for bit, recover(field, sigma_field(field, f0)) on that
    trial's sample.
    """
    cfg = ExperimentConfig(
        manifold=manifold, kernel=None, k_values=(k,), trials=trials, seed=seed,
        tolerance=tolerance,
    )
    (k,) = cfg.k_values
    weights = rng_streams(cfg.seed, (aux_stream(k, t) for t in range(cfg.trials)))
    rows = []
    for _, P in _sample_chunks(cfg, k, 8 * _system_rows(manifold, k) * (k + 1)):
        f0 = np.stack([next(weights).random(k) for _ in P])
        for f, result in zip(f0, _forward_recoveries(manifold, P, f0, tolerance)):
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
