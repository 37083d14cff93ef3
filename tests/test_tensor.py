import math
import tracemalloc

import numpy as np
import pytest

from covrank import (
    AntipodalPairError,
    CovField,
    Euclidean,
    Kernel,
    SampleSet,
    Tolerance,
    UnitSphere,
    assemble_Y,
    assemble_Z,
    outer_field,
    recover,
    recovery_experiment,
    rng_stream,
    sigma_field,
    trace_system,
    unfold_C,
)
from covrank import numrank, tensor
from covrank.montecarlo import aux_stream, sample_stream
from covrank.tensor import _frame_coordinates, _reduced_stacks, _split, _system_verdicts
from reference import dropped_norms, rank_report, system_report, system_spectra


def sample_of(manifold, points):
    return SampleSet(manifold=manifold, points=np.array(points, dtype=float))


def random_field(manifold, k, seed):
    return outer_field(manifold, manifold.sample_uniform(k, seed))


def _blocks(field):
    """The (k, k, d, d) rank-one blocks eta_ji eta_ji^T of a field."""
    return np.einsum("jia,jib->jiab", field.eta, field.eta)


class TestOuterField:
    def test_line_pair(self):
        blocks = _blocks(outer_field(Euclidean(1), sample_of(Euclidean(1), [[0.0], [1.0]])))
        assert np.array_equal(blocks[0, 1], [[1.0]])
        assert np.array_equal(blocks[1, 0], [[1.0]])
        assert np.array_equal(blocks[0, 0], [[0.0]])

    def test_plane_outer_product(self):
        field = outer_field(Euclidean(2), sample_of(Euclidean(2), [[0, 0], [1, 2]]))
        assert np.array_equal(_blocks(field)[0, 1], [[1.0, 2.0], [2.0, 4.0]])

    def test_sphere_block_invariants(self):
        sphere = UnitSphere(2)
        sample = sphere.sample_uniform(6, seed=12)
        blocks = _blocks(outer_field(sphere, sample))
        D = sphere.pairwise_distance(sample.points)
        for j in range(6):
            assert np.array_equal(blocks[j, j], np.zeros((3, 3)))
            for i in range(6):
                block = blocks[j, i]
                assert np.array_equal(block, block.T)
                if i == j:
                    continue
                assert abs(np.trace(block) - D[j, i] ** 2) <= 1e-9
                eigs = np.linalg.eigvalsh(block)
                assert eigs.min() >= -1e-10
                s = np.linalg.svd(block, compute_uv=False)
                assert s[1] <= 1e-10 * s[0]  # rank one

    def test_antipodal_pair_names_indices(self):
        sample = sample_of(UnitSphere(2), [[1, 0, 0], [0, 1, 0], [-1, 0, 0]])
        with pytest.raises(AntipodalPairError, match="0 and 2"):
            outer_field(UnitSphere(2), sample)

    def test_sample_manifold_mismatch(self):
        sample = UnitSphere(2).sample_uniform(4, seed=1)
        with pytest.raises(ValueError):
            outer_field(UnitSphere(3), sample)

    def test_sample_from_another_box_refused(self):
        sample = Euclidean(2, box=(-1, 3)).sample_uniform(4, seed=1)
        with pytest.raises(ValueError, match="does not live"):
            outer_field(Euclidean(2), sample)


class TestSigmaField:
    def test_zero_weights(self):
        field = random_field(UnitSphere(2), 5, seed=3)
        assert np.array_equal(sigma_field(field, np.zeros(5)).sigmas, np.zeros((5, 3, 3)))

    def test_indicator_picks_one_block(self):
        field = random_field(UnitSphere(2), 5, seed=4)
        f = np.zeros(5)
        f[2] = 1.0
        np.testing.assert_allclose(sigma_field(field, f).sigmas, _blocks(field)[:, 2], atol=1e-15)

    def test_single_point_is_zero(self):
        field = random_field(Euclidean(2), 1, seed=5)
        assert np.array_equal(sigma_field(field, [3.0]).sigmas, np.zeros((1, 2, 2)))

    def test_psd_for_nonnegative_weights(self):
        for seed in range(10):
            field = random_field(UnitSphere(2), 8, seed=seed)
            f = rng_stream(1000 + seed).random(8)
            for sigma in sigma_field(field, f).sigmas:
                assert np.linalg.eigvalsh(sigma).min() >= -1e-10

    def test_length_mismatch(self):
        field = random_field(Euclidean(2), 4, seed=6)
        with pytest.raises(ValueError):
            sigma_field(field, np.ones(5))


class TestUnfolding:
    def test_shapes(self):
        assert assemble_Y(random_field(Euclidean(2), 3, seed=1)).shape == (12, 3)
        cov = sigma_field(random_field(Euclidean(3), 4, seed=2), np.ones(4))
        assert unfold_C(cov).shape == (36,)
        assert assemble_Z(random_field(Euclidean(2), 5, seed=3)).shape == (10, 10)

    def test_row_index_formula(self):
        # row of component (l, m) of block (j, i) is (l*d + m)*k + j, column i
        field = random_field(UnitSphere(2), 4, seed=7)
        Y = assemble_Y(field)
        k, d, blocks = field.k, field.d, _blocks(field)
        for l in range(d):
            for m in range(d):
                for j in range(k):
                    for i in range(k):
                        assert Y[(l * d + m) * k + j, i] == blocks[j, i, l, m]

    def test_unfold_C_matches_layout(self):
        field = random_field(UnitSphere(2), 4, seed=8)
        cov = sigma_field(field, rng_stream(88).random(4))
        c = unfold_C(cov)
        k, d = field.k, field.d
        for l in range(d):
            for m in range(d):
                for j in range(k):
                    assert c[(l * d + m) * k + j] == cov.sigmas[j, l, m]

    def test_z_block_layout(self):
        # block at block-row r, block-column s is Y[s, r]
        field = random_field(Euclidean(3), 4, seed=9)
        Z = assemble_Z(field)
        d, blocks = field.d, _blocks(field)
        for r in range(4):
            for s in range(4):
                assert np.array_equal(Z[r * d : (r + 1) * d, s * d : (s + 1) * d], blocks[s, r])

    def test_forward_consistency(self):
        for seed in range(5):
            field = random_field(Euclidean(2), 5, seed=seed)
            f = rng_stream(50 + seed).random(5)
            c = unfold_C(sigma_field(field, f))
            assert np.linalg.norm(assemble_Y(field) @ f - c) <= 1e-10

    def test_cov_from_zero_weights_unfolds_to_zero(self):
        field = random_field(Euclidean(2), 5, seed=11)
        assert np.array_equal(unfold_C(sigma_field(field, np.zeros(5))), np.zeros(20))

    def test_euclidean_Z_is_symmetric(self):
        for seed in range(5):
            Z = assemble_Z(random_field(Euclidean(2), 12, seed=seed))
            assert np.max(np.abs(Z - Z.T)) <= 1e-12

    def test_line_collapse_Y_equals_Z_equals_Psi(self):
        # d = 1: all three arrangements carry the same squared distances
        field = random_field(Euclidean(1), 7, seed=13)
        psi, _ = trace_system(field)
        assert np.array_equal(assemble_Y(field), psi)
        assert np.array_equal(assemble_Z(field), psi)


class TestRankLaws:
    def test_plane_Y_rank_is_six(self):
        ranks = {
            rank_report(assemble_Y(random_field(Euclidean(2), 10, seed=s))).numerical_rank
            for s in range(20)
        }
        assert ranks == {6}

    def test_plane_Z_rank_is_eight(self):
        ranks = {
            rank_report(assemble_Z(random_field(Euclidean(2), 12, seed=s))).numerical_rank
            for s in range(20)
        }
        assert ranks == {8}

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_euclidean_upper_bounds_hold_everywhere(self, n):
        y_bound = (n + 1) * (n + 2) // 2
        z_bound = n * (n + 2)
        for k in (1, 2, 3, 5, 9, 14, 18):
            for seed in (0, 1):
                field = random_field(Euclidean(n), k, seed=seed)
                assert rank_report(assemble_Y(field)).numerical_rank <= y_bound
                assert rank_report(assemble_Z(field)).numerical_rank <= z_bound

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_sphere_Z_annihilates_each_normal(self, n):
        # Z's column block s holds eta_sr eta_sr^T, tangent at p_s, so Z (e_s (x) p_s) is
        # the round-off of eta_sr . p_s, which grows as eps theta / sin(theta) near the
        # cut locus: |Z (e_s (x) p_s)| <= 4 eps (sum_r (theta_sr^2 / sin theta_sr)^2)^(1/2)
        manifold, d, eps = UnitSphere(n), n + 1, np.finfo(float).eps
        for k in (2, 3, 8, 20, 40):
            for seed in range(6):
                points = manifold.sample_uniform(k, seed).points
                Z = assemble_Z(outer_field(manifold, sample_of(manifold, points)))
                theta = manifold.pairwise_distance(points)
                off = theta > 0
                scale = np.where(off, theta**2 / np.sin(np.where(off, theta, 1.0)), 0.0)
                for s in range(k):
                    x = np.zeros(d * k)
                    x[s * d:(s + 1) * d] = points[s]
                    assert np.linalg.norm(Z @ x) <= 4 * eps * np.linalg.norm(scale[s]), (k, seed, s)

    def test_sphere_Y_full_rank(self):
        for k in (5, 20, 60, 100):
            field = random_field(UnitSphere(2), k, seed=k)
            assert rank_report(assemble_Y(field)).numerical_rank == k


class TestTraceSystem:
    def test_line_pair(self):
        field = outer_field(Euclidean(1), sample_of(Euclidean(1), [[0.0], [1.0]]))
        psi, c = trace_system(field)
        assert np.array_equal(psi, [[0.0, 1.0], [1.0, 0.0]])
        assert c is None

    def test_trace_of_cov_is_weighted_square_distances(self):
        field = random_field(UnitSphere(2), 6, seed=14)
        psi, c = trace_system(field, sigma_field(field, np.ones(6)))
        np.testing.assert_allclose(c, psi.sum(axis=1), atol=1e-12)

    def test_psi_matches_squared_distance_kernel(self):
        sphere = UnitSphere(2)
        sample = sphere.sample_uniform(8, seed=15)
        psi, _ = trace_system(outer_field(sphere, sample))
        kernel_entries = Kernel(sphere, "dot:arccos2").pairwise(sample.points)
        assert np.max(np.abs(psi - kernel_entries)) <= 1e-9

    def test_psi_matches_kernel_on_plane_too(self):
        eucl = Euclidean(2)
        sample = eucl.sample_uniform(9, seed=16)
        psi, _ = trace_system(outer_field(eucl, sample))
        kernel_entries = Kernel(eucl, "sqdist").pairwise(sample.points)
        assert np.max(np.abs(psi - kernel_entries)) <= 1e-9

    def test_mismatched_cov_rejected(self):
        field = random_field(Euclidean(2), 4, seed=16)
        other = sigma_field(random_field(Euclidean(2), 5, seed=17), np.ones(5))
        with pytest.raises(ValueError):
            trace_system(field, other)


class TestRecovery:
    def test_sphere_recovers_uniquely(self):
        sphere = UnitSphere(2)
        for seed in range(10):
            field = random_field(sphere, 10, seed=seed)
            f0 = rng_stream(900 + seed).random(10)
            result = recover(field, sigma_field(field, f0))
            assert result.unique
            assert np.linalg.norm(result.f_hat - f0) / np.linalg.norm(f0) <= 1e-6
            assert result.rank_augmented == result.rank_Y

    def test_plane_is_consistent_but_underdetermined(self):
        for seed in range(10):
            field = random_field(Euclidean(2), 10, seed=seed)
            f0 = rng_stream(800 + seed).random(10)
            result = recover(field, sigma_field(field, f0))
            assert not result.unique
            assert result.rank_Y == 6
            assert result.residual <= 1e-10
            assert result.rank_augmented == result.rank_Y

    def test_single_point_system_is_void(self):
        field = random_field(UnitSphere(2), 1, seed=1)
        result = recover(field, sigma_field(field, [2.0]))
        assert result.rank_Y == 0
        assert not result.unique
        assert (result.rank_augmented, result.residual) == (0, 0.0)
        assert np.array_equal(result.f_hat, [0.0])

    def test_f_hat_is_read_only(self):
        field = random_field(UnitSphere(2), 6, seed=19)
        result = recover(field, sigma_field(field, np.ones(6)))
        with pytest.raises(ValueError, match="read-only"):
            result.f_hat[0] = 0.0

    def test_shape_mismatch(self):
        field = random_field(UnitSphere(2), 6, seed=19)
        with pytest.raises(ValueError):
            recover(field, CovField(sigmas=np.ones((7, 3, 3))))

    def test_non_finite_field_refused(self):
        field = random_field(UnitSphere(2), 6, seed=19)
        sigmas = np.array(sigma_field(field, np.ones(6)).sigmas)
        sigmas[2, 0, 1] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            recover(field, CovField(sigmas=sigmas))

    def test_recovery_peak_memory_stays_near_Y(self):
        # the reduced (3k+1) x (k+1) system, the copy that QR factors and the log
        # vectors peak below Y (0.83x); the unreduced [Y | c] alone is Y's size, and
        # with the log vectors beside it would push the peak past 1.2
        k = 200
        recovery_experiment(UnitSphere(2), 5, trials=1, seed=7)
        tracemalloc.start()
        try:
            recovery_experiment(UnitSphere(2), k, trials=1, seed=7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.2 * 9 * k * k * 8


class TestReducedRecovery:
    """recover solves a reduced system, n(n+1)/2 k + 1 rows tall, but decides ranks as
    for the unreduced Y and [Y | c]."""

    @staticmethod
    def asymmetric(cov, seed):
        return CovField(sigmas=cov.sigmas + rng_stream(seed).standard_normal(cov.sigmas.shape))

    @pytest.mark.parametrize("manifold, k, policy, asymmetric", [
        (UnitSphere(1), 12, Tolerance(), False),
        (UnitSphere(1), 12, Tolerance(), True),
        (UnitSphere(2), 10, Tolerance(), False),
        (UnitSphere(2), 10, Tolerance(), True),
        (UnitSphere(3), 12, Tolerance(), False),
        (Euclidean(2), 10, Tolerance(), False),
        (Euclidean(3), 12, Tolerance(), True),
        (UnitSphere(2), 20, Tolerance(1e-6), True),
        (Euclidean(2), 10, Tolerance(1e-8), False),
    ])
    def test_ranks_are_those_of_the_unreduced_system(self, manifold, k, policy, asymmetric):
        decided = 0
        for seed in range(12):
            field = random_field(manifold, k, seed=seed)
            cov = sigma_field(field, rng_stream(300 + seed).random(k))
            if asymmetric:
                cov = self.asymmetric(cov, 400 + seed)
            Y = assemble_Y(field)
            rank_Y = rank_report(Y, policy)
            rank_aug = rank_report(np.column_stack([Y, unfold_C(cov)]), policy)
            if rank_Y.borderline or rank_aug.borderline:
                continue
            decided += 1
            result = recover(field, cov, policy)
            assert (result.rank_Y, result.rank_augmented) == (rank_Y.numerical_rank, rank_aug.numerical_rank)
        assert decided >= 6

    def test_impossible_verdict_is_borderline(self):
        # rank([Y | c]) 7 < rank(Y) 8 on this circle trial: Y's 8th singular value sits
        # at 0.998 tau, so the verdict is round-off and must not read as decided
        row = recovery_experiment(UnitSphere(1), 12, trials=50, seed=1)[7]
        assert (row.rank_Y, row.rank_augmented, row.borderline) == (8, 7, True)

    def test_value_in_the_band_is_borderline(self):
        # sigma_24 of [Y | c] on this circle trial sits at 0.1025 tau, inside the 10x band
        # (test_numrank checks it against 50-digit singular values)
        row = recovery_experiment(UnitSphere(1), 30, trials=40, seed=2)[25]
        assert (row.rank_Y, row.rank_augmented, row.unique, row.borderline) == (23, 23, False, True)

    # the recover_large benchmark's cells, then circle, 3-sphere and line/space ones
    LADDER_CELLS = [(UnitSphere(2), 200, 1), (UnitSphere(2), 600, 1), (UnitSphere(2), 20, 100),
                    (Euclidean(2), 10, 100), (UnitSphere(1), 12, 50), (UnitSphere(3), 10, 50),
                    (Euclidean(1), 6, 50), (Euclidean(3), 12, 50)]

    # the systems certified in each of LADDER_CELLS, by seed: both steps of the ladder run
    CERTIFIED = {1: (1, 1, 100, 0, 3, 50, 0, 0), 2: (1, 1, 100, 0, 3, 50, 0, 0),
                 3: (1, 1, 100, 0, 0, 50, 0, 0), 4: (1, 1, 100, 0, 1, 50, 0, 0),
                 5: (1, 1, 100, 0, 1, 50, 0, 0), 6: (1, 1, 100, 0, 0, 50, 0, 0),
                 7: (1, 1, 100, 0, 3, 50, 0, 0), 8: (1, 1, 100, 0, 0, 50, 0, 0)}

    @pytest.mark.parametrize("seed", range(1, 9))
    def test_values_first_solve_keeps_the_vectors_paths_verdicts(self, seed, monkeypatch):
        # the certificate only settles verdicts the vectors path reaches too; x moves by
        # round-off of the triangular solve
        certify, certified = numrank._certify, []

        def counted(R, policy, m):
            mask, solution = certify(R, policy, m)
            certified[-1] += int(mask.sum())
            return mask, solution

        def none_certified(R, policy, m):
            mask, solution = certify(R, policy, m)
            return np.zeros_like(mask), solution

        for manifold, k, trials in self.LADDER_CELLS:
            certified.append(0)
            with monkeypatch.context() as patch:
                patch.setattr(numrank, "_certify", counted)
                ladder = recovery_experiment(manifold, k, trials, seed)
            with monkeypatch.context() as patch:
                patch.setattr(numrank, "_certify", none_certified)
                vectors = recovery_experiment(manifold, k, trials, seed)
            for got, want in zip(ladder, vectors, strict=True):
                verdict = (got.rank_Y, got.rank_augmented, got.unique, got.borderline)
                assert verdict == (want.rank_Y, want.rank_augmented, want.unique, want.borderline)
                assert got.rel_error <= max(10 * want.rel_error, 1e-13), (str(manifold), k, got.trial)
        assert tuple(certified) == self.CERTIFIED[seed]

    @pytest.mark.parametrize("seed, trial", [(4, 21), (8, 1)])
    def test_covariance_field_near_the_cut_locus_is_consistent(self, seed, trial):
        # A pair of these circle samples is nearly antipodal, and its log vector's
        # round-off normal part, growing as eps / sin(theta), is no longer negligible
        # against tau.  The normal parts of c hold the same round-off, so the solve must
        # keep Y's normal rows beside them or call a real covariance field inconsistent.
        k = 12
        row = recovery_experiment(UnitSphere(1), k, trial + 1, seed)[trial]
        sample = UnitSphere(1).sample_uniform(k, seed, stream=sample_stream(k, trial))
        field = outer_field(UnitSphere(1), sample)
        assert np.pi - UnitSphere(1).pairwise_distance(sample.points).max() < 2e-3
        cov = sigma_field(field, rng_stream(seed, aux_stream(k, trial)).random(k))
        result = recover(field, cov)
        assert result.rank_augmented == result.rank_Y == row.rank_augmented == row.rank_Y
        Y = assemble_Y(field)
        assert result.rank_augmented == rank_report(np.column_stack([Y, unfold_C(cov)])).numerical_rank

    def test_tau_is_that_of_the_unreduced_shape(self):
        # Two points an angle delta apart give Y a smallest singular value linear in delta.
        # Put it at sqrt(9k (3k+1)) eps sigma_1: below tau for Y's (9k, k) shape and above
        # tau for the (3k+1, k) shape of the reduced system's Y rows, by 1.7x each way.
        k, eps = 6, np.finfo(float).eps
        base = UnitSphere(2).sample_uniform(k, 3).points
        v = np.cross(base[0], [0.0, 0.0, 1.0])
        v /= np.linalg.norm(v)

        def field(delta):
            points = base.copy()
            points[1] = math.cos(delta) * base[0] + math.sin(delta) * v
            return outer_field(UnitSphere(2), sample_of(UnitSphere(2), points))

        s = rank_report(assemble_Y(field(1e-6))).singular_values
        near = field(1e-6 * math.sqrt(9 * k * (3 * k + 1)) * eps / (s[-1] / s[0]))
        report = rank_report(assemble_Y(near))
        assert 3 * k + 1 < report.singular_values[-1] / report.singular_values[0] / eps < 9 * k
        cov = sigma_field(near, np.ones(k))
        assert recover(near, cov).rank_Y == report.numerical_rank == k - 1
        P, eta = near.sample.points[None], near.eta[None]
        assert system_report(near.manifold, P, eta, Tolerance(), "Y").numerical_rank[0] == k - 1

    def test_huge_right_hand_side_does_not_overflow(self):
        # the row that carries c's antisymmetric and normal parts holds their norm,
        # whose squares would overflow here
        field = random_field(UnitSphere(2), 8, seed=30)
        cov = self.asymmetric(sigma_field(field, rng_stream(31).random(8)), 32)
        scaled = CovField(sigmas=cov.sigmas * 1e200)
        small, huge = recover(field, cov), recover(field, scaled)
        assert math.isfinite(huge.residual)
        assert huge.residual == pytest.approx(1e200 * small.residual, rel=1e-12)
        np.testing.assert_allclose(huge.f_hat, 1e200 * small.f_hat, rtol=1e-12)
        # c is no covariance field, and at any scale it stays outside range(Y)
        assert huge.rank_augmented == small.rank_augmented == huge.rank_Y + 1

    @pytest.mark.parametrize("scale", [2.0**-900, 1e-250, 1e250, 2.0**900], ids=["2^-900", "1e-250", "1e250", "2^900"])
    @pytest.mark.parametrize("asymmetric", [False, True], ids=["field", "asymmetric"])
    def test_verdict_does_not_depend_on_the_scale_of_c(self, scale, asymmetric):
        field = random_field(UnitSphere(2), 8, seed=33)
        cov = sigma_field(field, rng_stream(34).random(8))
        if asymmetric:
            cov = self.asymmetric(cov, 35)
        one = recover(field, cov)
        scaled = recover(field, CovField(sigmas=cov.sigmas * scale))
        assert (scaled.rank_Y, scaled.rank_augmented) == (one.rank_Y, one.rank_augmented)
        assert one.rank_augmented == one.rank_Y + asymmetric
        if math.frexp(scale)[0] == 0.5:  # a power of two scales x and the residual exactly
            assert np.array_equal(scaled.f_hat, scale * one.f_hat)
            assert scaled.residual == scale * one.residual

    @pytest.mark.parametrize("T, k", [(1, 200), (100, 20)])
    def test_column_major_systems_solve_as_their_row_major_copies(self, T, k):
        sphere, policy = UnitSphere(2), Tolerance()
        P = sphere.sample_batch(k, 5, range(T))
        eta = sphere.pairwise_log(P)
        V, S = _frame_coordinates(sphere, P, eta, tensor._weighted_sigmas(eta, rng_stream(6).random((T, 1, k))))
        for trials, dims in _split(sphere, V, policy, "Y"):
            systems = tensor._reduced_systems(V[trials], S[trials], dims)
            assert np.swapaxes(systems, 1, 2).flags.c_contiguous  # each column is contiguous
            column_major = numrank._solve_augmented(systems, policy, 9 * k)
            row_major = numrank._solve_augmented(np.ascontiguousarray(systems), policy, 9 * k)
            for got, want in zip(column_major, row_major):
                assert got.tobytes() == want.tobytes()


class TestDroppedNorms:
    """``tensor._dropped_norms``: the norm of what a reduction of Y or Z to the tangent
    axes drops, which ``_split`` weighs against the threshold."""

    @pytest.mark.parametrize("manifold", [UnitSphere(1), UnitSphere(2), UnitSphere(3)], ids=str)
    def test_bits_are_those_of_the_formula(self, manifold):
        P = manifold.sample_batch(20, 4, range(6))
        V, _ = _frame_coordinates(manifold, P, manifold.pairwise_log(P))
        for dims in (manifold.n, manifold.coord_dim):
            for weight in (1.0, 2.0):
                got = tensor._dropped_norms(V, dims, weight)
                assert got.tobytes() == dropped_norms(V, dims, weight).tobytes()
                assert np.all(got > 0) if dims == manifold.n else np.array_equal(got, np.zeros(6))

    def test_near_the_cut_locus_the_dropped_part_grows(self):
        P = np.stack([near_antipodal_sample(), UnitSphere(2).sample_uniform(12, 3).points])
        V, _ = _frame_coordinates(UnitSphere(2), P, UnitSphere(2).pairwise_log(P))
        got = tensor._dropped_norms(V, 2, 2.0)
        assert got.tobytes() == dropped_norms(V, 2, 2.0).tobytes()
        assert got[0] > 1e3 * got[1]

    def test_peak_memory_stays_near_three_stacks(self):
        # two sums of squares and one square at a time take 3 stacks of k x k; a whole
        # (T, k, k, d) square, or a fourth stack, would pass the bound
        T, k = 20, 40
        P = UnitSphere(2).sample_batch(k, 1, range(T))
        V, _ = _frame_coordinates(UnitSphere(2), P, UnitSphere(2).pairwise_log(P))
        tensor._dropped_norms(V, 2, 2.0)  # warm: first-call allocations stay out of the peak
        tracemalloc.start()
        try:
            tensor._dropped_norms(V, 2, 2.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3.5 * 8 * T * k * k


def near_antipodal_sample(k=12, delta=1e-4):
    """A sphere:2 sample whose second point lies pi - delta from its first, so that its
    log vectors' round-off normal parts are not negligible against tau."""
    points = UnitSphere(2).sample_uniform(k, 3, stream=sample_stream(k, 0)).points.copy()
    v = np.cross(points[0], [0.0, 0.0, 1.0])
    v /= np.linalg.norm(v)
    points[1] = -math.cos(delta) * points[0] + math.sin(delta) * v
    return points


class TestCertifiedSystemVerdicts:
    """`tensor`'s Y and Z verdicts (``_system_verdicts``): a tall reduced stack that the
    bounds certify has full column rank and is not borderline, with no singular value
    computed; every other trial takes the verdicts of its spectra.  Both must be the
    verdicts of the reference spectra (``reference.system_spectra``)."""

    SPACES = [UnitSphere(1), UnitSphere(2), UnitSphere(3), Euclidean(1), Euclidean(2), Euclidean(3)]
    KS = (1, 2, 3, 4, 6, 8, 12, 20, 40)
    FACTORS = (None, 1e-9, 1e-3)
    # the verdicts certified, left by the certificate, and never put to it, of
    # SPACES x KS x FACTORS x seeds 1-8 x (Y, Z), then the near-antipodal trial's
    COUNTS = {"certified": 841, "not certified": 429, "not tried": 1322}
    NEAR_COUNTS = {"certified": 4, "not certified": 1, "not tried": 1}

    @staticmethod
    def compare(manifold, P, policy, counts, monkeypatch):
        """Assert that the certified verdicts of point stacks P are those of the spectra,
        counting each verdict by how it was reached."""
        certify, tried = tensor._certify_columns, [0]

        def counted(a, policy, shape):
            mask = certify(a, policy, shape)
            tried[0] += len(a)
            counts["certified"] += int(mask.sum())
            counts["not certified"] += int((~mask).sum())
            return mask

        eta = manifold.pairwise_log(P)
        with monkeypatch.context() as patch:
            patch.setattr(tensor, "_certify_columns", counted)
            verdicts = {system: _system_verdicts(manifold, P, eta, policy, system) for system in ("Y", "Z")}
        counts["not tried"] += 2 * len(P) - tried[0]
        for system in ("Y", "Z"):
            want = system_report(manifold, P, eta, policy, system)
            rank, borderline = verdicts[system]
            assert np.array_equal(rank, want.numerical_rank), (str(manifold), P.shape[1], system)
            assert np.array_equal(borderline, want.borderline), (str(manifold), P.shape[1], system)

    def test_certified_verdicts_are_those_of_the_spectra(self, monkeypatch):
        counts = dict.fromkeys(self.COUNTS, 0)
        for manifold in self.SPACES:
            for k in self.KS:
                P = np.stack([manifold.sample_uniform(k, seed, stream=sample_stream(k, 0)).points
                              for seed in range(1, 9)])
                for factor in self.FACTORS:
                    self.compare(manifold, P, Tolerance(factor), counts, monkeypatch)
        assert counts == self.COUNTS

    def test_trial_that_keeps_every_axis_is_certified_whole(self, monkeypatch):
        # under the default tolerance the near-antipodal pair keeps Y's normal rows, 6k x k
        # instead of 3k x k, and Z's normal columns, square: Y is certified on the
        # unreduced rows and Z is not tried; the larger thresholds drop Z's normal columns
        manifold, P = UnitSphere(2), near_antipodal_sample()[None]
        V, _ = _frame_coordinates(manifold, P, manifold.pairwise_log(P))
        for system in ("Y", "Z"):
            assert [dims for _, dims in _split(manifold, V, Tolerance(), system)] == [3]
        counts = dict.fromkeys(self.NEAR_COUNTS, 0)
        for factor in self.FACTORS:
            self.compare(manifold, P, Tolerance(factor), counts, monkeypatch)
        assert counts == self.NEAR_COUNTS

    def test_stacked_verdicts_are_those_of_each_trial_alone(self):
        manifold, k = UnitSphere(2), 20
        P = np.stack([manifold.sample_uniform(k, seed, stream=sample_stream(k, 0)).points for seed in range(4)]
                     + [near_antipodal_sample(k)])
        for system in ("Y", "Z"):
            stacked = _system_verdicts(manifold, P, manifold.pairwise_log(P), Tolerance(), system)
            for t in range(len(P)):
                alone = _system_verdicts(manifold, P[t:t + 1], manifold.pairwise_log(P[t:t + 1]), Tolerance(), system)
                assert [int(v[t]) for v in stacked] == [int(v[0]) for v in alone]

    def test_certificate_is_thresholded_for_the_full_shape(self):
        # Two points an angle delta apart give Y a smallest singular value linear in delta.
        # Put it at 85 k eps sigma_1: within 10x of tau = 9k eps sigma_1 of Y's (9k, k)
        # shape, so the verdict is borderline, yet above 20x the threshold of the reduced
        # (3k, k) stack, which would certify it.
        manifold, k, eps = UnitSphere(2), 6, np.finfo(float).eps
        base = manifold.sample_uniform(k, 3).points
        v = np.cross(base[0], [0.0, 0.0, 1.0])
        v /= np.linalg.norm(v)

        def stack(delta):
            points = base.copy()
            points[1] = math.cos(delta) * base[0] + math.sin(delta) * v
            return points[None], manifold.pairwise_log(points[None])

        s = system_spectra(manifold, *stack(1e-6), Tolerance(), "Y")[0]
        P, eta = stack(1e-6 * 85 * k * eps / (s[-1] / s[0]))
        V, _ = _frame_coordinates(manifold, P, eta)
        [(_, a)] = _reduced_stacks(manifold, V, eta, Tolerance(), "Y")
        assert a.shape == (1, 3 * k, k) and numrank._certify_columns(a, Tolerance(), a.shape[1:]).all()
        rank, borderline = _system_verdicts(manifold, P, eta, Tolerance(), "Y")
        assert (int(rank[0]), bool(borderline[0])) == (k, True)
