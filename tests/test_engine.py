"""The batched trial engine against a reference loop of per-trial calls.

The reference draws each trial with ``sample_uniform``, builds its matrix
with ``Kernel.matrix`` or ``outer_field`` and measures it with
``rank_report`` (or, for eigensolved condition-sweep cells, a one-matrix
symmetric ``batched_rank_report``), one trial at a time.  The engine stacks trials into chunks
and must give the same bits, on inputs the benchmark does not cover.
"""

import math

import numpy as np
import pytest

from covrank import (
    Euclidean,
    ExperimentConfig,
    Tolerance,
    UnitSphere,
    assemble_Y,
    assemble_Z,
    batched_rank_report,
    condition_sweep,
    fullrank_probability,
    outer_field,
    parse_kernel,
    rank_report,
    recover,
    recovery_experiment,
    rng_stream,
    sigma_field,
)
from covrank.manifold import rng_streams
from covrank.montecarlo import _CHUNK_BYTES, _trial_reports, aux_stream, sample_stream
from covrank.tensor import _system_rows
from reference import euclidean_distances


def chunk_size(k, width):
    return max(1, _CHUNK_BYTES // (8 * k * k * width))


def recovery_chunk_size(manifold, k):
    # a recovery's largest temporary is its reduced [Y | c]
    return max(1, _CHUNK_BYTES // (8 * _system_rows(manifold, k) * (k + 1)))


def make_config(manifold, kernel=None, k=8, trials=10, seed=3, tolerance=Tolerance()):
    return ExperimentConfig(
        manifold=manifold,
        kernel=parse_kernel(kernel, manifold) if kernel else None,
        k_values=(k,),
        trials=trials,
        seed=seed,
        tolerance=tolerance,
    )


def reference_reports(cfg, k, system):
    reports = []
    for t in range(cfg.trials):
        sample = cfg.manifold.sample_uniform(k, cfg.seed, stream=sample_stream(k, t))
        if system == "kernel":
            matrix = cfg.kernel.pairwise(sample.points)
        else:
            field = outer_field(cfg.manifold, sample)
            matrix = assemble_Y(field) if system == "Y" else assemble_Z(field)
        reports.append(rank_report(matrix, cfg.tolerance))
    return reports


def assert_reports_equal(batched, reference):
    assert batched.numerical_rank.shape == (len(reference),)
    for t, ref in enumerate(reference):
        got = batched[t]
        assert np.array_equal(got.singular_values, ref.singular_values), f"trial {t}"
        assert got.numerical_rank == ref.numerical_rank
        assert got.tolerance_used == ref.tolerance_used
        assert got.condition_number == ref.condition_number
        assert got.log_abs_det == ref.log_abs_det
        assert got.borderline == ref.borderline
        assert got.spectral_ratio == ref.spectral_ratio


# one chunk of euclid:2 kernel trials at k = 20 holds chunk_size(20, 2) trials
ODD_TRIALS = 2 * chunk_size(20, 2) + 1
# the smallest k at which one chunk of sphere:2 kernel trials holds one trial
ONE_PER_CHUNK_K = math.isqrt(_CHUNK_BYTES // (8 * 3)) + 1


@pytest.mark.parametrize(
    "manifold, kernel, tolerance, k, trials",
    [
        (Euclidean(2), "shifted:0.7", Tolerance(), 9, 30),
        (UnitSphere(2), "dot:cos", Tolerance(), 12, 30),
        (Euclidean(2, box=(-1.0, 3.0)), "sqdist", Tolerance(), 9, 30),
        (UnitSphere(2), "dot:arccos2", Tolerance(1e-9), 15, 30),
        (Euclidean(2), "sqdist", Tolerance(1e-12), 20, ODD_TRIALS),
        (UnitSphere(2), "dot:cos", Tolerance(), ONE_PER_CHUNK_K, 3),
    ],
    ids=["shifted", "dot-cos", "box", "factor", "odd-trials", "one-per-chunk"],
)
def test_kernel_reports_match_reference(manifold, kernel, tolerance, k, trials):
    cfg = make_config(manifold, kernel, k=k, trials=trials, tolerance=tolerance)
    assert_reports_equal(_trial_reports(cfg, k, "kernel"), reference_reports(cfg, k, "kernel"))


def test_chunking_cases_cross_chunk_boundaries():
    assert ODD_TRIALS % chunk_size(20, 2) != 0
    assert chunk_size(ONE_PER_CHUNK_K, 3) == 1


@pytest.mark.parametrize("system", ["Y", "Z"])
@pytest.mark.parametrize(
    "manifold, k", [(Euclidean(2), 8), (Euclidean(3, box=(-1.0, 3.0)), 11)], ids=["unit-box", "box"]
)
def test_system_reports_match_reference(system, manifold, k):
    cfg = make_config(manifold, k=k, trials=2 * chunk_size(k, manifold.n**2) + 3)
    assert_reports_equal(_trial_reports(cfg, k, system), reference_reports(cfg, k, system))


def test_fullrank_probability_matches_reference():
    cfg = make_config(Euclidean(3, box=(-1.0, 3.0)), "shifted:0.7", k=7, trials=40)
    reference = reference_reports(cfg, 7, "kernel")
    expected = float(np.mean([r.numerical_rank == 7 for r in reference]))
    assert fullrank_probability(cfg, 7) == expected


def test_condition_sweep_matches_reference():
    manifold, alphas, ks, seed = Euclidean(2, box=(-1.0, 3.0)), [0.0, 0.4, -0.3], [6, 30], 4
    trials = 2 * chunk_size(30, 2) + 1
    expected = {}
    for k in ks:
        per_trial = []
        for t in range(trials):
            points = manifold.sample_uniform(k, seed, stream=sample_stream(k, t)).points
            dist = euclidean_distances(points, points)
            np.fill_diagonal(dist, 0.0)
            # the oracle proves only alpha = 0 on R^n finite-rank; every other cell is eigensolved
            per_trial.append([
                rank_report(dist**2) if a == 0.0
                else batched_rank_report(((dist - a) ** 2)[None], symmetric=True)[0]
                for a in alphas
            ])
        expected[k] = per_trial
    rows = condition_sweep(manifold, alphas, ks, trials=trials, seed=seed)
    assert [(r.alpha, r.k) for r in rows] == [(a, k) for a in alphas for k in ks]
    for row in rows:
        reports = [cell[alphas.index(row.alpha)] for cell in expected[row.k]]
        conds = np.array([r.spectral_ratio for r in reports])
        assert row.mean_cond == float(np.mean(conds))
        assert row.min_cond == float(np.min(conds))
        assert row.max_cond == float(np.max(conds))
        assert row.mean_log_abs_det == float(np.mean([r.log_abs_det for r in reports]))
        assert row.fullrank_fraction == float(np.mean([r.numerical_rank == row.k for r in reports]))
        assert row.borderline_fraction == float(np.mean([r.borderline for r in reports]))


@pytest.mark.parametrize("manifold", [UnitSphere(2), Euclidean(2, box=(-1.0, 3.0))], ids=["sphere", "box"])
def test_recovery_experiment_matches_reference(manifold):
    k, trials, seed = 7, 2 * recovery_chunk_size(manifold, 7) + 1, 8
    rows = recovery_experiment(manifold, k, trials, seed)
    assert [r.trial for r in rows] == list(range(trials))
    for t, row in enumerate(rows):
        sample = manifold.sample_uniform(k, seed, stream=sample_stream(k, t))
        f0 = rng_stream(seed, aux_stream(k, t)).random(k)
        field = outer_field(manifold, sample)
        result = recover(field, sigma_field(field, f0))
        assert row.rel_error == float(np.linalg.norm(result.f_hat - f0) / np.linalg.norm(f0))
        assert (row.residual, row.rank_Y, row.rank_augmented, row.unique) == (
            result.residual, result.rank_Y, result.rank_augmented, result.unique,
        )


def test_rekeyed_streams_match_rng_stream():
    seed = 11
    streams = [sample_stream(k, t) for k in (1, 5, 250) for t in (0, 1, 299)]
    streams += [aux_stream(k, t) for k in (3, 600) for t in (0, 7)]
    streams += list(range(900))
    for rng, stream in zip(rng_streams(seed, streams), streams):
        reference = rng_stream(seed, stream)
        assert np.array_equal(rng.uniform(-1.0, 3.0, (5, 2)), reference.uniform(-1.0, 3.0, (5, 2)))
        assert np.array_equal(rng.standard_normal((4, 3)), reference.standard_normal((4, 3)))
        assert np.array_equal(rng.random(7), reference.random(7))


def test_samples_match_direct_draws():
    # reference draws: numpy's uniform over the box, and normalized Gaussians
    for stream in (0, sample_stream(9, 4)):
        rng = rng_stream(2, stream)
        box = Euclidean(3, box=(-1.0, 3.0)).sample_uniform(9, 2, stream=stream).points
        assert np.array_equal(box, rng.uniform([-1.0] * 3, [3.0] * 3, size=(9, 3)))
        rng = rng_stream(2, stream)
        g = rng.standard_normal((9, 3))
        sphere = UnitSphere(2).sample_uniform(9, 2, stream=stream).points
        assert np.array_equal(sphere, g / np.linalg.norm(g, axis=1, keepdims=True))
