"""The batched trial engine against a reference loop of per-trial calls.

The reference draws each trial with ``sample_uniform``, builds its matrix
with ``Kernel.pairwise`` or ``outer_field`` and measures it one trial at a
time, spelling the verdict rule out: a matrix equal to its transpose bit for
bit by a one-matrix symmetric eigensolve (``reference.factorization_spectra``),
then by the SVD if that flags it borderline, any other matrix by the SVD, and
eigensolved condition-sweep cells by the eigensolve alone.  Y, whose verdicts the
engine takes from tensor's certified path on its reductions, is referenced by the
verdicts of one-trial stacks of those reductions' spectra (``reference.system_spectra``),
and compared with the full matrices' verdicts separately.  The engine stacks trials
into chunks and must give the same bits, on inputs the benchmark does not cover.
"""

import math
from collections import Counter

import numpy as np
import pytest

from covrank import (
    Euclidean,
    ExperimentConfig,
    Tolerance,
    UnitSphere,
    assemble_Y,
    condition_sweep,
    fullrank_probability,
    outer_field,
    parse_kernel,
    rank_law_sweep,
    recover,
    recovery_experiment,
    rng_stream,
    sigma_field,
)
from covrank.manifold import rng_streams
import covrank.montecarlo
import covrank.numrank
from covrank.montecarlo import _CHUNK_BYTES, _sample_chunks, _trial_verdicts, aux_stream, sample_stream
from covrank.tensor import (
    _frame_coordinates,
    _reduced_Y,
    _split,
    _system_rows,
    _system_shape,
    _system_verdicts,
    _Z_array,
)
from counting import counted_qrs, counted_svds
from reference import (
    block_Z,
    euclidean_distances,
    factorization_report,
    factorization_spectra,
    integer_sqdist,
    modular_rank,
    spectrum_report,
    system_report,
    system_spectra,
)


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


def matrix_report(matrix, tolerance, symmetric=False):
    """The report of one factorization of one matrix: its SVD or, with symmetric=True,
    its symmetric eigensolve."""
    return spectrum_report(factorization_spectra(matrix[None], symmetric)[0], tolerance, matrix.shape)


def eigensolve_report(matrix, tolerance):
    """The report of one symmetric eigensolve, or None when the matrix is not symmetric."""
    if matrix.shape[0] != matrix.shape[1] or not np.array_equal(matrix, matrix.T):
        return None
    return matrix_report(matrix, tolerance, symmetric=True)


def trial_points(cfg, k):
    """The point stacks (trials, k, d) of every trial of cfg at size k."""
    return cfg.manifold.sample_batch(k, cfg.seed, (sample_stream(k, t) for t in range(cfg.trials)))


def reference_matrices(cfg, k, system):
    for t in range(cfg.trials):
        sample = cfg.manifold.sample_uniform(k, cfg.seed, stream=sample_stream(k, t))
        if system == "kernel":
            yield cfg.kernel.pairwise(sample.points)
        else:
            field = outer_field(cfg.manifold, sample)
            yield assemble_Y(field) if system == "Y" else block_Z(field.eta)


def one_trial_reports(cfg, k, system):
    """The reports of the reduced Y or Z of one-trial stacks: the verdicts of their spectra."""
    reports = []
    for t in range(cfg.trials):
        field = outer_field(cfg.manifold, cfg.manifold.sample_uniform(k, cfg.seed, stream=sample_stream(k, t)))
        s = system_spectra(cfg.manifold, field.sample.points[None], field.eta[None], cfg.tolerance, system)[0]
        reports.append(spectrum_report(s, cfg.tolerance, _system_shape(cfg.manifold, k, system)))
    return reports


def reference_reports(cfg, k, system):
    if system == "Y":
        return one_trial_reports(cfg, k, system)
    reports = []
    for matrix in reference_matrices(cfg, k, system):
        report = eigensolve_report(matrix, cfg.tolerance)
        if report is None or report.borderline:
            report = matrix_report(matrix, cfg.tolerance)
        reports.append(report)
    return reports


def escalated_trials(cfg, k, system):
    """Trials whose matrix the eigensolve flags, so that the SVD settles it."""
    return [t for t, matrix in enumerate(reference_matrices(cfg, k, system))
            if (report := eigensolve_report(matrix, cfg.tolerance)) is not None and report.borderline]


def engine_kernel_report(cfg, k, monkeypatch):
    """The engine's kernel verdicts at size k, with the one (trials, k) array of all trials'
    spectra that they were read from: (spectra, verdicts)."""
    seen = []

    def verdicts(s, policy, shape):
        seen.append((s.copy(), covrank.numrank._verdicts(s, policy, shape)))
        return seen[-1][1]

    with monkeypatch.context() as patch:
        patch.setattr(covrank.montecarlo, "_verdicts", verdicts)
        rank, borderline = _trial_verdicts(cfg, k, "kernel")
    [(s, report)] = seen
    assert np.array_equal(rank, report.numerical_rank) and np.array_equal(borderline, report.borderline)
    return s, report


def assert_verdicts_equal(verdicts, reference):
    """The engine's (ranks, borderline flags) are the reference reports', trial by trial."""
    rank, borderline = verdicts
    assert rank.shape == borderline.shape == (len(reference),)
    assert rank.tolist() == [ref.numerical_rank for ref in reference]
    assert borderline.tolist() == [ref.borderline for ref in reference]


def assert_reports_equal(engine, reference):
    """The engine's (spectra, verdicts) are the reference reports', trial by trial."""
    s, verdicts = engine
    assert verdicts.numerical_rank.shape == (len(reference),)
    for t, ref in enumerate(reference):
        assert np.array_equal(s[t], ref.singular_values), f"trial {t}"
        assert verdicts.numerical_rank[t] == ref.numerical_rank
        assert verdicts.tolerance_used[t] == ref.tolerance_used
        assert verdicts.borderline[t] == ref.borderline


# one chunk of euclid:2 kernel trials at k = 20 holds chunk_size(20, 2) trials
ODD_TRIALS = 2 * chunk_size(20, 2) + 1
# the smallest k at which one chunk of sphere:2 kernel trials holds one trial
ONE_PER_CHUNK_K = math.isqrt(_CHUNK_BYTES // (8 * 3)) + 1
# euclid:3 sqdist at k = 12, seed 3: the eigensolve flags trials in the first two chunks
ESCALATED_TRIALS = 2 * chunk_size(12, 3) + 1


@pytest.mark.parametrize(
    "manifold, kernel, tolerance, k, trials",
    [
        (Euclidean(2), "shifted:0.7", Tolerance(), 9, 30),
        (UnitSphere(2), "dot:cos", Tolerance(), 12, 30),
        (Euclidean(2, box=(-1.0, 3.0)), "sqdist", Tolerance(), 9, 30),
        (UnitSphere(2), "dot:arccos2", Tolerance(1e-9), 15, 30),
        (Euclidean(2), "sqdist", Tolerance(1e-12), 20, ODD_TRIALS),
        (UnitSphere(2), "dot:cos", Tolerance(), ONE_PER_CHUNK_K, 3),
        (Euclidean(3), "sqdist", Tolerance(), 12, ESCALATED_TRIALS),
    ],
    ids=["shifted", "dot-cos", "box", "factor", "odd-trials", "one-per-chunk", "escalated-chunks"],
)
def test_kernel_reports_match_reference(manifold, kernel, tolerance, k, trials, monkeypatch):
    cfg = make_config(manifold, kernel, k=k, trials=trials, tolerance=tolerance)
    assert_reports_equal(engine_kernel_report(cfg, k, monkeypatch), reference_reports(cfg, k, "kernel"))


def test_chunking_cases_cross_chunk_boundaries():
    assert ODD_TRIALS % chunk_size(20, 2) != 0
    assert chunk_size(ONE_PER_CHUNK_K, 3) == 1
    cfg = make_config(Euclidean(3), "sqdist", k=12, trials=ESCALATED_TRIALS)
    chunks = {t // chunk_size(12, 3) for t in escalated_trials(cfg, 12, "kernel")}
    assert {0, 1} <= chunks


def counting(counts, name, fn):
    def wrapper(*args, **kwargs):
        counts[name] += 1
        return fn(*args, **kwargs)
    return wrapper


def test_a_k_takes_one_draw_and_one_verdict(monkeypatch):
    # the escalated-chunks case: three chunks, and the SVD settles flagged trials in two
    # of them, yet the k's samples come from one sample_batch call and its 151 spectra
    # get one verdict
    k = 12
    cfg = make_config(Euclidean(3), "sqdist", k=k, trials=ESCALATED_TRIALS)
    assert escalated_trials(cfg, k, "kernel") == [3, 12, 20, 112, 127]
    reference = reference_reports(cfg, k, "kernel")
    counts = Counter()
    # the engine's own verdict; the call inside numrank._spectra only flags its eigensolve
    monkeypatch.setattr(covrank.montecarlo, "_verdicts", counting(counts, "_verdicts", covrank.numrank._verdicts))
    monkeypatch.setattr(Euclidean, "sample_batch", counting(counts, "sample_batch", Euclidean.sample_batch))
    verdicts = _trial_verdicts(cfg, k, "kernel")
    assert counts == {"_verdicts": 1, "sample_batch": 1}
    assert_verdicts_equal(verdicts, reference)


@pytest.mark.parametrize(
    "manifold, k, trials, draws",
    [(Euclidean(3), 12, ESCALATED_TRIALS, [ESCALATED_TRIALS]), (Euclidean(1), 2000, 40, [16, 16, 8])],
    ids=["one-draw", "three-draws"],
)
def test_draws_are_cut_into_the_chunks_of_per_chunk_draws(manifold, k, trials, draws, monkeypatch):
    # a draw of many chunks' samples gives each chunk the bits of a draw of its own;
    # at k = 2000 on euclid:1 a kernel trial fills a chunk and 16 trials' samples a draw
    cfg = make_config(manifold, "sqdist", k=k, trials=trials)
    size = chunk_size(k, manifold.n)
    own = [manifold.sample_batch(k, cfg.seed, [sample_stream(k, t) for t in range(start, min(trials, start + size))])
           for start in range(0, trials, size)]
    sizes, draw = [], type(manifold).sample_batch

    def sample_batch(self, k, seed, streams):
        sizes.append(len(streams))
        return draw(self, k, seed, streams)

    monkeypatch.setattr(type(manifold), "sample_batch", sample_batch)
    chunks = list(_sample_chunks(cfg, k, 8 * k * k * manifold.n))
    assert sizes == draws
    assert [start for start, _ in chunks] == list(range(0, trials, size))
    for (_, P), expected in zip(chunks, own, strict=True):
        assert np.array_equal(P, expected)


@pytest.mark.parametrize("system", ["Y", "Z"])
@pytest.mark.parametrize(
    "manifold, k", [(Euclidean(2), 8), (Euclidean(3, box=(-1.0, 3.0)), 11)], ids=["unit-box", "box"]
)
def test_system_reports_match_reference(system, manifold, k):
    cfg = make_config(manifold, k=k, trials=2 * chunk_size(k, manifold.n**2) + 3)
    assert_verdicts_equal(_trial_verdicts(cfg, k, system), reference_reports(cfg, k, system))


@pytest.mark.parametrize("system", ["Y", "Z"])
def test_sphere_systems_stay_on_the_svd(system, monkeypatch):
    # on S^2 the reduced Y is tall, and Z is neither square nor, where it keeps its normal
    # columns, symmetric: eta_sr and eta_rs live in different tangent planes
    def no_eigensolve(*args, **kwargs):
        raise AssertionError("a sphere system reached the eigensolve")

    k = 6
    cfg = make_config(UnitSphere(2), k=k, trials=2 * chunk_size(k, 9) + 3)
    monkeypatch.setattr(np.linalg, "eigvalsh", no_eigensolve)
    assert_verdicts_equal(_trial_verdicts(cfg, k, system), one_trial_reports(cfg, k, system))


@pytest.mark.parametrize("n", [1, 2])
def test_each_trial_keeps_or_drops_its_own_Z_columns(n):
    # A trial drops Z's normal columns only where their round-off is negligible, and
    # reports their singular values as 0.  On sphere:2 at k = 20, seed 0, 10 of 41
    # trials keep them, four of them in the first chunk of 9.  On sphere:1 all 41 do:
    # at this k the normal parts' round-off exceeds tau / 10 in every trial.  Its trial
    # 0 has a pair pi - 6.4e-5 apart, and two noise singular values of its Z at 3.5 and
    # 2.6 tau lift its rank above the proven n k.
    manifold, k = UnitSphere(n), 20
    cfg = make_config(manifold, k=k, trials=41, seed=0)
    rank, borderline = _trial_verdicts(cfg, k, "Z")
    assert_verdicts_equal((rank, borderline), one_trial_reports(cfg, k, "Z"))
    P = trial_points(cfg, k)
    spectra = system_spectra(manifold, P, manifold.pairwise_log(P), cfg.tolerance, "Z")
    whole = spectra[:, n * k:].all(axis=1)
    assert not spectra[~whole, n * k:].any()
    if n == 1:
        assert chunk_size(k, 4) == 20 and whole.all()
        assert (rank[0], borderline[0]) == (22, True)
    else:
        assert np.count_nonzero(whole) == 10 and np.count_nonzero(whole[:chunk_size(k, 9)]) == 4


def test_circle_Y_chunks_mix_symmetric_and_asymmetric_trials():
    # on S^1 the reduced Y is k x k, and at k = 3 some trials equal their transposes bit
    # for bit: each is eigensolved as it would be alone, whatever its chunk-mates
    manifold, k = UnitSphere(1), 3
    cfg = make_config(manifold, k=k, trials=chunk_size(k, 4) + 5, seed=0)
    P = manifold.sample_batch(k, 0, (sample_stream(k, t) for t in range(chunk_size(k, 4))))
    V, _ = _frame_coordinates(manifold, P, manifold.pairwise_log(P))
    Y = _reduced_Y(np.moveaxis(V[..., :manifold.n], -1, 1))[:, 0]
    assert 0 < np.count_nonzero((Y == np.swapaxes(Y, 1, 2)).all(axis=(1, 2))) < len(Y)
    assert_verdicts_equal(_trial_verdicts(cfg, k, "Y"), one_trial_reports(cfg, k, "Y"))


@pytest.mark.parametrize("manifold, ks", [(Euclidean(1), range(1, 14)), (Euclidean(2), range(1, 17)),
                                          (Euclidean(3), range(1, 21))], ids=str)
def test_reduced_Y_verdicts_are_those_of_the_full_Y(manifold, ks):
    # the reduction's Y is orthogonally equivalent to layout-v1 Y, thresholded for its shape
    for k in ks:
        cfg = make_config(manifold, k=k, trials=20, seed=1)
        rank, borderline = _trial_verdicts(cfg, k, "Y")
        Y = np.stack(list(reference_matrices(cfg, k, "Y")))
        full = covrank.numrank._verdicts(covrank.numrank._spectra(Y, cfg.tolerance), cfg.tolerance, Y.shape[1:])
        assert np.array_equal(rank, full.numerical_rank), k
        assert np.array_equal(borderline, full.borderline), k
        P = trial_points(cfg, k)
        reduced = system_report(manifold, P, manifold.pairwise_log(P), cfg.tolerance, "Y")
        np.testing.assert_allclose(reduced.tolerance_used, full.tolerance_used, rtol=1e-12)


@pytest.mark.parametrize("system", ["Y", "Z"])
@pytest.mark.parametrize("manifold, ks", [(Euclidean(1), None), (Euclidean(2), None), (Euclidean(3), None),
                                          (UnitSphere(1), range(1, 9)), (UnitSphere(2), range(1, 7))], ids=str)
def test_engine_verdicts_are_those_of_tensor_on_one_trial(manifold, ks, system):
    # the engine and `covrank tensor` share one Y/Z verdict path: every trial's verdict is
    # that of its one-trial stack; on R^n k runs 3 past the proven bound, which rules
    # the certificate out for Y there
    for k in ks or range(1, manifold._proven_ranks()[system] + 4):
        cfg = make_config(manifold, k=k, trials=25, seed=1)
        P = trial_points(cfg, k)
        alone = [_system_verdicts(manifold, P[t:t + 1], manifold.pairwise_log(P[t:t + 1]), cfg.tolerance, system)
                 for t in range(cfg.trials)]
        rank, borderline = _trial_verdicts(cfg, k, system)
        assert rank.tolist() == [int(r[0]) for r, _ in alone], k
        assert borderline.tolist() == [bool(b[0]) for _, b in alone], k


@pytest.mark.parametrize("k, qrs", [(8, 1), (12, 0)])
def test_engine_certifies_Y_only_within_the_proven_bound(k, qrs, monkeypatch):
    # euclid:3 proves rank Y <= 10: at k = 8 one QR of the chunk's reduced Y, 6k x k,
    # certifies all 50 trials and no SVD runs; at k = 12 the bound rules the
    # certificate out, and the SVD measures every trial
    cfg = make_config(Euclidean(3), k=k, trials=50, seed=5)
    qr, svd = counted_qrs(monkeypatch), counted_svds(monkeypatch)
    [row] = rank_law_sweep(cfg, "Y")
    assert [a.shape for a in qr] == [(50, 6 * k, k)] * qrs
    if qrs:
        assert svd == [] and (row.rank_min, row.borderline_fraction) == (k, 0.0)
    else:
        assert sum(len(a) for a, _ in svd) == 50 and row.rank_max == 10


def test_montecarlo_builds_no_layout_v1_matrix():
    # the rank-law engine measures Y and Z on tensor's reductions only
    import covrank.montecarlo

    assert not {"_Y_array", "_Z_of_Y", "_Z_array"} & set(vars(covrank.montecarlo))


AGREEMENT_SEEDS, AGREEMENT_TRIALS = (1, 2), 40


@pytest.mark.parametrize(
    "manifold, kernel, ks, moved",
    [
        (Euclidean(1), "sqdist", range(4, 26), 6),
        (Euclidean(2), "sqdist", range(5, 26), 1),
        (Euclidean(3), "sqdist", range(6, 26), 0),
        (Euclidean(2), None, range(1, 15), 3),
        (UnitSphere(2), "dot:arccos2", (5, 25, 50, 100), 0),
        (UnitSphere(2), "dot:cos", (5, 25, 50, 100), 0),
    ],
    ids=["euclid1-sqdist", "euclid2-sqdist", "euclid3-sqdist", "euclid2-Z", "sphere2-arccos2",
         "sphere2-cos"],
)
def test_ladder_agrees_with_the_svd(manifold, kernel, ks, moved):
    """Every verdict the eigensolve decides is the SVD's rank; every trial the SVD
    decides stays decided; and `moved` SVD-borderline trials are decided instead."""
    system = "kernel" if kernel else "Z"
    settled = 0
    for seed in AGREEMENT_SEEDS:
        for k in ks:
            cfg = make_config(manifold, kernel, k=k, trials=AGREEMENT_TRIALS, seed=seed)
            P = manifold.sample_batch(k, seed, (sample_stream(k, t) for t in range(cfg.trials)))
            eta = None if kernel else manifold.pairwise_log(P)
            stack = cfg.kernel.pairwise(P) if kernel else np.stack([block_Z(e) for e in eta])
            svd = factorization_report(stack, cfg.tolerance)
            eig = factorization_report(stack, cfg.tolerance, symmetric=True)
            _, ladder = _trial_verdicts(cfg, k, system)
            decided = ~eig.borderline
            assert np.array_equal(eig.numerical_rank[decided], svd.numerical_rank[decided]), (seed, k)
            assert not (ladder & ~svd.borderline).any(), (seed, k)
            settled += np.count_nonzero(svd.borderline & ~ladder)
    assert settled == moved


@pytest.mark.parametrize("manifold", [Euclidean(n) for n in (1, 2, 3)] + [UnitSphere(n) for n in (1, 2, 3)],
                         ids=str)
def test_engine_matrices_are_exactly_symmetric(manifold):
    # the eigensolve is taken only where a stack equals its transpose bit for bit, so a
    # builder that loses symmetry would silently fall back to the slower SVD
    for k in (1, 2, 7, 25, 100):
        P = manifold.sample_batch(k, 5, range(10))
        for family in ("sqdist", "shifted:0.7", "dot:arccos", "dot:arccos2", "dot:cos"):
            A = parse_kernel(family, manifold).pairwise(P)
            assert np.array_equal(A, np.swapaxes(A, 1, 2)), (family, k)
        if isinstance(manifold, Euclidean):
            # eta_rs = p_s - p_r = -eta_sr exactly, so Z[(r,a),(s,b)] = eta_sr[a] eta_sr[b] is symmetric
            eta = manifold.pairwise_log(P)
            Z = _Z_array(eta, eta)
            assert np.array_equal(Z, np.swapaxes(Z, 1, 2)), ("Z", k)


def test_sqdist_verdicts_meet_the_certified_exact_rank():
    """An exact referee for the kernel verdicts: sqdist on R^n has rank at most n + 2, and
    a float sample's squared distances, scaled by 2^106, are exact integers, whose rank
    modulo a prime bounds their rank over Q from below.  A modular rank of n + 2 so
    certifies the exact rank, with no rounding anywhere, and every verdict the engine
    decides must equal it."""
    checked = flagged = 0
    for n in (1, 2, 3):
        manifold = Euclidean(n)
        for seed in range(3):
            for k in range(n + 3, 13):
                cfg = make_config(manifold, "sqdist", k=k, trials=20, seed=seed)
                ranks, borderline = _trial_verdicts(cfg, k, "kernel")
                for P, rank, near in zip(trial_points(cfg, k), ranks, borderline):
                    assert modular_rank(integer_sqdist(P)) == n + 2, (n, seed, k)
                    assert rank == n + 2 or near, (n, seed, k)
                    checked += 1
                    flagged += int(near)
    assert checked == 1440 and flagged < checked // 100  # the referee settles 99% of verdicts


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
                matrix_report((dist - a) ** 2, Tolerance(), symmetric=a != 0.0)
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
        assert row.mean_log_abs_det == float(np.mean([np.log(r.singular_values).sum() for r in reports]))
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
        assert (row.residual, row.rank_Y, row.rank_augmented, row.unique, row.borderline) == (
            result.residual, result.rank_Y, result.rank_augmented, result.unique, result.borderline,
        )
    if manifold.n < manifold.coord_dim:
        # a chunk mixes trials that keep their tangent axes with trials that keep all d,
        # so each chunk's results are written back by trial index across two solves
        P = manifold.sample_batch(k, seed, (sample_stream(k, t) for t in range(trials)))
        V, _ = _frame_coordinates(manifold, P, manifold.pairwise_log(P))
        size = recovery_chunk_size(manifold, k)
        groups = [[dims for _, dims in _split(manifold, V[start:start + size], Tolerance(), "Y")]
                  for start in range(0, trials, size)]
        assert [manifold.n, manifold.coord_dim] in groups


def test_rekeyed_streams_match_rng_stream():
    seed = 11
    streams = [sample_stream(k, t) for k in (1, 5, 250) for t in (0, 1, 299)]
    streams += [aux_stream(k, t) for k in (3, 600) for t in (0, 7)]
    streams += list(range(900))
    for rng, stream in zip(rng_streams(seed, streams), streams):
        reference = np.random.Generator(np.random.Philox(key=np.array([seed, stream], dtype=np.uint64)))
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
