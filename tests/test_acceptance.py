"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.
"""

import math
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np

from covrank import (
    Euclidean,
    ExperimentConfig,
    Kernel,
    UnitSphere,
    arccos_taylor_coeffs,
    assemble_Y,
    assemble_Z,
    condition_sweep,
    fullrank_probability,
    outer_field,
    rank_law_sweep,
    recovery_experiment,
    rng_stream,
    sigma_field,
    trace_system,
    unfold_C,
)
from covrank.cli import main

SEED = 1


@contextmanager
def criterion(number, label):
    start = time.time()
    try:
        yield
    except Exception:
        print(f"\nACCEPTANCE {number} FAIL - {label}")
        raise
    print(f"\nACCEPTANCE {number} PASS - {label} ({time.time() - start:.1f} s)")


def test_criterion_1_euclidean_kernel_rank_law():
    with criterion(1, "Euclidean squared-distance matrices have rank n+2"):
        start = time.time()
        for n in (1, 2, 3):
            cfg = ExperimentConfig(
                manifold=Euclidean(n),
                kernel=Kernel(Euclidean(n), "sqdist"),
                k_values=tuple(range(n + 3, 26)),
                trials=200,
                seed=SEED,
            )
            rows = rank_law_sweep(cfg, "kernel")
            for row in rows:
                assert row.expected_rank == n + 2
                assert row.equality_fraction == 1.0, (n, row.k)
            total = sum(row.trials for row in rows)
            borderline = sum(row.borderline_fraction * row.trials for row in rows)
            assert borderline / total < 0.01, f"n={n}: borderline {borderline/total:.2%}"
        assert time.time() - start < 30.0


def test_criterion_2_sphere_full_rank():
    # At k = 100 the matrices brush the double-precision cliff (condition
    # numbers reach 1e13..1e14), so the rank verdict there is taken over the
    # decisive trials, with the borderline rate bounded by the 5%
    # inconclusive threshold; smaller k are asserted as plain fractions.
    with criterion(2, "sphere arccos^2 matrices are full rank in every trial"):
        cfg = ExperimentConfig(
            manifold=UnitSphere(2),
            kernel=Kernel(UnitSphere(2), "dot:arccos2"),
            k_values=(5, 25, 50, 100),
            trials=100,
            seed=SEED,
        )
        for k in (5, 25, 50):
            assert fullrank_probability(cfg, k) == 1.0, k
        (row,) = rank_law_sweep(
            ExperimentConfig(
                manifold=cfg.manifold,
                kernel=cfg.kernel,
                k_values=(100,),
                trials=100,
                seed=SEED,
            ),
            "kernel",
        )
        assert row.equality_fraction == 1.0  # every decisive trial is full rank
        assert row.borderline_fraction <= 0.05, row.borderline_fraction


def test_criterion_3_unfolded_system_rank_law():
    with criterion(3, "rank(Y) = min{k, (n+1)(n+2)/2} on Euclidean samples, 0 at k = 1"):
        for n in (1, 2, 3):
            bound = (n + 1) * (n + 2) // 2
            cfg = ExperimentConfig(
                manifold=Euclidean(n),
                kernel=None,
                k_values=tuple(range(1, bound + 11)),
                trials=50,
                seed=SEED,
            )
            rows = rank_law_sweep(cfg, "Y")  # raises if any trial exceeds the bound
            for row in rows:
                assert row.expected_rank == (min(row.k, bound) if row.k > 1 else 0), (n, row.k)
                assert row.rank_min == row.rank_max == row.expected_rank, (n, row.k)
                assert row.equality_fraction == 1.0, (n, row.k)


def test_criterion_4_block_matrix_rank_law():
    with criterion(4, "rank(Z) = min{k min(n, k-1), n(n+2)} on Euclidean samples"):
        for n in (1, 2, 3):
            bound = n * (n + 2)
            cfg = ExperimentConfig(
                manifold=Euclidean(n),
                kernel=None,
                k_values=tuple(range(1, bound + 7)),
                trials=50,
                seed=SEED,
            )
            rows = rank_law_sweep(cfg, "Z")  # raises if any trial exceeds the bound
            for row in rows:
                assert row.expected_rank == min(row.k * min(n, row.k - 1), bound), (n, row.k)
                assert row.rank_min == row.rank_max == row.expected_rank, (n, row.k)
                assert row.equality_fraction == 1.0, (n, row.k)


def test_criterion_5_recovery_dichotomy():
    with criterion(5, "sphere recovery is unique and accurate; plane recovery never is"):
        sphere_rows = recovery_experiment(UnitSphere(2), 20, trials=100, seed=SEED)
        assert all(r.unique for r in sphere_rows)
        assert max(r.rel_error for r in sphere_rows) <= 1e-6
        plane_rows = recovery_experiment(Euclidean(2), 10, trials=100, seed=SEED)
        assert not any(r.unique for r in plane_rows)
        assert max(r.residual for r in plane_rows) <= 1e-10
        assert all(r.rank_augmented == r.rank_Y for r in sphere_rows + plane_rows)


def test_criterion_6_condition_number_table():
    with criterion(6, "shift alpha = pi/2 tames conditioning at k = 250"):
        start = time.time()
        rows = condition_sweep(
            UnitSphere(2), [0.0, math.pi / 2], [250], trials=20, seed=SEED
        )
        base = next(r for r in rows if r.alpha == 0.0)
        shifted = next(r for r in rows if r.alpha != 0.0)
        assert base.mean_cond >= 1e12, base.mean_cond
        assert shifted.mean_cond <= 1e6, shifted.mean_cond
        assert base.mean_cond / shifted.mean_cond >= 1e6
        assert time.time() - start < 600.0


def test_criterion_7_arccos_series():
    with criterion(7, "arccos series coefficients and partial sums"):
        coeffs = arccos_taylor_coeffs(21)
        assert coeffs[0] == math.pi / 2
        for m in range(11):
            exact = -Fraction(
                math.factorial(2 * m),
                2 ** (2 * m) * math.factorial(m) ** 2 * (2 * m + 1),
            )
            assert abs(coeffs[2 * m + 1] - float(exact)) <= 1e-12 * abs(float(exact))
        for idx in range(2, 21, 2):
            assert coeffs[idx] == 0.0
        z = np.linspace(-0.8, 0.8, 401)
        assert np.max(np.abs(np.polyval(arccos_taylor_coeffs(41)[::-1], z) - np.arccos(z))) <= 1e-6


def test_criterion_8_alpha_recommendation():
    with criterion(8, "estimated E d(X, Y) hits the closed forms"):
        sphere_alpha = UnitSphere(2).expected_distance(10**5, seed=SEED)
        assert abs(sphere_alpha - math.pi / 2) <= 0.02
        interval_alpha = Euclidean(1).expected_distance(10**5, seed=SEED)
        assert abs(interval_alpha - 1 / 3) <= 0.01


def test_criterion_9_structural_invariants(tmp_path):
    with criterion(9, "structural invariants over 1,000 randomized cases"):
        cases = 0

        # 300 cases: blockwise trace identity tr(Y_ji) = d(p_j, p_i)^2
        manifolds = [Euclidean(1), Euclidean(2), Euclidean(3), UnitSphere(2), UnitSphere(3)]
        for case in range(300):
            m = manifolds[case % len(manifolds)]
            k = 2 + case % 9
            sample = m.sample_uniform(k, seed=10_000 + case)
            field = outer_field(m, sample)
            psi, _ = trace_system(field)
            dist = m.distance_matrix(sample.points, sample.points)
            np.fill_diagonal(dist, 0.0)
            assert np.max(np.abs(psi - dist * dist)) <= 1e-9
            cases += 1

        # 250 cases: Sigma[f] is PSD blockwise whenever f >= 0
        for case in range(250):
            m = manifolds[case % len(manifolds)]
            k = 3 + case % 8
            field = outer_field(m, m.sample_uniform(k, seed=20_000 + case))
            f = rng_stream(20_000 + case, 1).random(k)
            for sigma in sigma_field(field, f).sigmas:
                assert np.linalg.eigvalsh(sigma).min() >= -1e-10
            cases += 1

        # 250 cases: forward consistency Y f = C
        for case in range(250):
            m = manifolds[case % len(manifolds)]
            k = 3 + case % 8
            field = outer_field(m, m.sample_uniform(k, seed=30_000 + case))
            f = rng_stream(30_000 + case, 1).standard_normal(k)
            c = unfold_C(sigma_field(field, f))
            assert np.linalg.norm(assemble_Y(field) @ f - c) <= 1e-10
            cases += 1

        # 150 cases: d = 1 collapse, Y = Z = Psi elementwise
        for case in range(150):
            k = 2 + case % 12
            field = outer_field(Euclidean(1), Euclidean(1).sample_uniform(k, seed=40_000 + case))
            psi, _ = trace_system(field)
            assert np.array_equal(assemble_Y(field), psi)
            assert np.array_equal(assemble_Z(field), psi)
            cases += 1

        # 48 cases: a rerun reproduces the first run exactly
        for case in range(24):
            first = condition_sweep(UnitSphere(2), [0.0, 1.0], [6 + case], trials=4, seed=case)
            again = condition_sweep(UnitSphere(2), [0.0, 1.0], [6 + case], trials=4, seed=case)
            assert first == again
            cases += 1
        for case in range(24):
            first = recovery_experiment(UnitSphere(2), 5 + case % 6, trials=4, seed=case)
            again = recovery_experiment(UnitSphere(2), 5 + case % 6, trials=4, seed=case)
            assert first == again
            cases += 1

        # 2 cases: a rerun of the CLI writes a byte-identical file
        for case, command in enumerate(
            (
                ["cond-sweep", "--manifold", "sphere:2", "--alpha-list", "0,1.5707963267948966",
                 "--k-list", "10,20", "--trials", "5", "--seed", "1"],
                ["rank", "--manifold", "euclid:2", "--kernel", "sqdist",
                 "--k-list", "5,10", "--trials", "20", "--seed", "1"],
            )
        ):
            first = tmp_path / f"first_{case}.csv"
            again = tmp_path / f"again_{case}.csv"
            assert main(command + ["--out", str(first)]) == 0
            assert main(command + ["--out", str(again)]) == 0
            assert first.read_bytes() == again.read_bytes()
            cases += 1

        assert cases == 1000
