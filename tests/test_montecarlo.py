import importlib
import inspect
import json
import math
import warnings
from dataclasses import dataclass, fields
from fractions import Fraction

import numpy as np
import pytest

import covrank
from covrank import (
    CovField,
    Euclidean,
    ExperimentConfig,
    Kernel,
    RankBoundError,
    SampleSet,
    Tolerance,
    UnitSphere,
    condition_sweep,
    fullrank_probability,
    rank_law_sweep,
    recovery_experiment,
    rows_to_csv,
    rows_to_jsonl,
)
from covrank.montecarlo import SweepRow, sample_stream


def config(manifold, kernel_spec=None, k_values=(5,), trials=20, seed=1, tolerance=covrank.DEFAULT_TOLERANCE):
    kernel = Kernel(manifold, *kernel_spec) if kernel_spec else None
    return ExperimentConfig(
        manifold=manifold,
        kernel=kernel,
        k_values=tuple(k_values),
        trials=trials,
        seed=seed,
        tolerance=tolerance,
    )


def exact_det3(m):
    a, b, c = (Fraction(x) for x in m[0])
    d, e, f = (Fraction(x) for x in m[1])
    g, h, i = (Fraction(x) for x in m[2])
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


class TestFullrankProbability:
    def test_sphere_distance_matrices_never_degenerate(self):
        cfg = config(UnitSphere(2), ("dot:arccos2",), trials=100)
        assert fullrank_probability(cfg, 20) == 1.0

    def test_line_kernel_caps_at_three(self):
        cfg = config(Euclidean(1), ("sqdist",), trials=100)
        assert fullrank_probability(cfg, 5) == 0.0

    def test_line_kernel_generic_below_cap(self):
        cfg = config(Euclidean(1), ("sqdist",), trials=100)
        assert fullrank_probability(cfg, 3) == 1.0
        assert fullrank_probability(cfg, 2) == 1.0

    def test_three_point_determinant_oracle(self):
        # det of the 3x3 squared-difference matrix is 2*d01^2*d02^2*d12^2 != 0
        # for distinct points; checked in exact rational arithmetic
        rng = np.random.default_rng(5)
        for _ in range(20):
            pts = [Fraction(int(v), 10**6) for v in rng.integers(0, 10**6, size=3)]
            m = [[(pi - pj) ** 2 for pj in pts] for pi in pts]
            det = exact_det3(m)
            expected = 2 * ((pts[0] - pts[1]) * (pts[0] - pts[2]) * (pts[1] - pts[2])) ** 2
            assert det == expected
            assert det != 0

    def test_requires_kernel(self):
        with pytest.raises(ValueError):
            fullrank_probability(config(UnitSphere(2)), 5)


class TestRankLawSweep:
    def test_space_Y_law(self):
        rows = rank_law_sweep(config(Euclidean(3), k_values=(15,), trials=50, seed=2), "Y")
        (row,) = rows
        assert row.bound == 10
        assert row.rank_min == row.rank_max == 10
        assert row.equality_fraction == 1.0

    def test_line_Z_law(self):
        (row,) = rank_law_sweep(config(Euclidean(1), k_values=(8,), trials=50, seed=3), "Z")
        assert row.bound == 3
        assert row.rank_min == row.rank_max == 3

    def test_expected_rank_counts_what_k_points_give(self):
        # a point's own entries vanish, so it adds at most min(c, k - 1) to the rank from
        # the others, c = 1 for Y and n for Z: Z on the plane expects 6 at k = 3, 8 at k = 4
        cfg = config(Euclidean(2), k_values=(1, 3, 4), trials=30, seed=8)
        rows = rank_law_sweep(cfg, "Z") + rank_law_sweep(cfg, "Y")
        assert [(r.system, r.k, r.expected_rank) for r in rows] == [
            ("Z", 1, 0), ("Z", 3, 6), ("Z", 4, 8), ("Y", 1, 0), ("Y", 3, 3), ("Y", 4, 4)]
        assert all(r.rank_min == r.rank_max == r.expected_rank and r.equality_fraction == 1.0 for r in rows)

    @pytest.mark.parametrize("manifold", [Euclidean(2), UnitSphere(2)], ids=str)
    def test_one_point_kernel_expects_its_diagonal(self, manifold):
        # the 1 x 1 matrix is k(p, p): exactly 0 for sqdist and shifted:0, as d(p, p) = 0
        # exactly, and cos(p.p) != 0 for dot:cos
        for spec, expected in ((("sqdist",), 0), (("shifted", 0.0), 0), (("dot:cos",), 1)):
            (row,) = rank_law_sweep(config(manifold, spec, k_values=(1,), trials=5), "kernel")
            assert row.expected_rank == row.rank_min == row.rank_max == expected, spec
            assert row.equality_fraction == 1.0, spec

    def test_plane_kernel_law(self):
        cfg = config(Euclidean(2), ("sqdist",), k_values=(10,), trials=100, seed=4)
        (row,) = rank_law_sweep(cfg, "kernel")
        assert row.expected_rank == 4
        assert row.rank_min == row.rank_max == 4
        assert row.fullrank_fraction == 0.0

    def test_sphere_kernel_law_expects_full(self):
        cfg = config(UnitSphere(2), ("dot:arccos2",), k_values=(10, 25), trials=50, seed=5)
        rows = rank_law_sweep(cfg, "kernel")
        assert [r.k for r in rows] == [10, 25]
        assert all(r.equality_fraction == 1.0 for r in rows)
        assert all(r.fullrank_fraction == 1.0 for r in rows)

    def test_unclassified_kernel_reports_without_expectation(self):
        cfg = config(Euclidean(2), ("shifted", 0.5), k_values=(6,), trials=20, seed=6)
        (row,) = rank_law_sweep(cfg, "kernel")
        assert row.bound is None and row.expected_rank is None
        assert row.equality_fraction is None
        assert row.rank_max <= 6

    def test_sphere_refused_for_tensor_laws(self):
        with pytest.raises(ValueError):
            rank_law_sweep(config(UnitSphere(2), k_values=(5,)), "Y")

    def test_unknown_system_rejected(self):
        with pytest.raises(ValueError):
            rank_law_sweep(config(Euclidean(2), k_values=(5,)), "W")

    def test_finite_rank_fullrank_dichotomy(self):
        # below the cap every generic matrix is full; above it none can be
        cfg = config(Euclidean(1), ("sqdist",), k_values=(2, 3, 4, 6), trials=100, seed=7)
        rows = {r.k: r for r in rank_law_sweep(cfg, "kernel")}
        assert rows[2].fullrank_fraction == 1.0
        assert rows[3].fullrank_fraction == 1.0
        assert rows[4].fullrank_fraction == 0.0
        assert rows[6].fullrank_fraction == 0.0


class TestConditionSweep:
    def test_single_point_shifted_matrix(self):
        rows = condition_sweep(UnitSphere(2), [0.5], [1], trials=5, seed=1)
        (row,) = rows
        assert row.mean_cond == row.min_cond == row.max_cond == 1.0
        assert row.fullrank_fraction == 1.0

    def test_row_order_and_bounds(self):
        rows = condition_sweep(UnitSphere(2), [0.0, 1.0], [5, 10], trials=4, seed=2)
        assert [(r.alpha, r.k) for r in rows] == [(0.0, 5), (0.0, 10), (1.0, 5), (1.0, 10)]
        for row in rows:
            assert row.min_cond <= row.mean_cond <= row.max_cond

    def test_rerun_determinism(self):
        first = condition_sweep(UnitSphere(2), [0.0, math.pi / 2], [20, 40], trials=8, seed=3)
        again = condition_sweep(UnitSphere(2), [0.0, math.pi / 2], [20, 40], trials=8, seed=3)
        assert first == again

    def test_shift_improves_conditioning_markedly(self):
        rows = condition_sweep(UnitSphere(2), [0.0, math.pi / 2], [120], trials=10, seed=4)
        base, shifted = rows[0], rows[1]
        assert shifted.mean_cond < 1e-4 * base.mean_cond

    def test_singular_cell_has_log_det_minus_inf(self):
        # one point of R^2 at alpha = 0 gives the 1 x 1 zero matrix, and log 0 = -inf silently
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            (row,) = condition_sweep(Euclidean(2), [0.0], [1], trials=3, seed=1)
        assert row.mean_log_abs_det == -math.inf

    def test_log_det_is_the_mean_of_log_singular_values(self):
        manifold, alpha, k, trials, seed = UnitSphere(2), 0.5, 7, 6, 5
        (row,) = condition_sweep(manifold, [alpha], [k], trials=trials, seed=seed)
        P = manifold.sample_batch(k, seed, (sample_stream(k, t) for t in range(trials)))
        dist = manifold.pairwise_distance(P)
        # the cell is eigensolved, so its singular values are the sorted |eigenvalues|
        spectra = [-np.sort(-np.abs(np.linalg.eigvalsh((d - alpha) ** 2))) for d in dist]
        assert row.mean_log_abs_det == float(np.mean([np.log(s).sum() for s in spectra]))

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            condition_sweep(UnitSphere(2), [], [5], trials=3, seed=1)


# a threshold far below round-off, under which every trial measures full rank
TIGHT = Tolerance(1e-30)
KERNEL_REFUSAL = "kernel system exceeded its proven rank bound: rank 12 > 4 at k=12"
Y_REFUSAL = "Y system exceeded its proven rank bound: rank 20 > 6 at k=20"


def tight_plane(kernel_spec=None, k=12):
    return config(Euclidean(2), kernel_spec, k_values=(k,), trials=5, seed=0, tolerance=TIGHT)


class TestBoundRefusals:
    """Every place that turns spectra into rank verdicts checks them against the law the
    space proves: on the plane, rank sqdist <= 4, rank Y <= 6 and rank Z <= 8."""

    @pytest.mark.parametrize(
        "run, refusal",
        [
            (lambda: fullrank_probability(tight_plane(("sqdist",)), 12), KERNEL_REFUSAL),
            (lambda: condition_sweep(Euclidean(2), [0.0], [12], 5, 0, TIGHT), KERNEL_REFUSAL),
            (lambda: rank_law_sweep(tight_plane(("sqdist",))), KERNEL_REFUSAL),
            (lambda: rank_law_sweep(tight_plane(k=20), "Y"), Y_REFUSAL),
            (lambda: rank_law_sweep(tight_plane(k=10), "Z"),
             "Z system exceeded its proven rank bound: rank 20 > 8 at k=10"),
            (lambda: recovery_experiment(Euclidean(2), 20, 5, 0, TIGHT), Y_REFUSAL),
            # a shifted kernel and the sphere's sqdist have no proven bound
            (lambda: condition_sweep(Euclidean(2), [0.3], [12], 5, 0, TIGHT), None),
            (lambda: condition_sweep(UnitSphere(2), [0.0], [12], 5, 0, TIGHT), None),
        ],
        ids=["fullrank", "cond-sweep", "rank-law-kernel", "rank-law-Y", "rank-law-Z", "recovery",
             "cond-sweep-shifted", "cond-sweep-sphere"],
    )
    def test_a_rank_above_its_bound_is_refused(self, run, refusal):
        if refusal is None:
            run()
        else:
            with pytest.raises(RankBoundError) as caught:
                run()
            assert str(caught.value) == refusal

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("box", [(0.0, 1.0), (-1.0, 3.0)], ids=str)
    def test_default_tolerance_keeps_sqdist_within_its_bound(self, n, box):
        # the sweep's alpha = 0 cells on R^n take the SVD, which places the singular values
        # past the cap n + 2 far below the default threshold, so no cell is refused
        for seed in (0, 1):
            rows = condition_sweep(Euclidean(n, box=box), [0.0], [3, 5, 10, 25, 50, 100], trials=20, seed=seed)
            assert all(row.fullrank_fraction == 0.0 for row in rows if row.k > n + 2)


class TestAlphaRecommendation:
    """The shift the alpha command recommends, E d(X, Y), as expected_distance estimates it."""

    def test_sphere2(self):
        assert abs(UnitSphere(2).expected_distance(10**5, seed=1) - math.pi / 2) <= 0.02

    def test_sphere3_by_symmetry(self):
        # the antipodal map swaps d and pi - d, so E d = pi/2 in any dimension
        assert abs(UnitSphere(3).expected_distance(10**5, seed=2) - math.pi / 2) <= 0.02

    def test_unit_interval(self):
        assert abs(Euclidean(1).expected_distance(10**5, seed=3) - 1 / 3) <= 0.01


class TestRecoveryExperiment:
    def test_sphere_unique_line_not(self):
        sphere_rows = recovery_experiment(UnitSphere(2), 12, trials=10, seed=5)
        assert all(r.unique for r in sphere_rows)
        assert max(r.rel_error for r in sphere_rows) <= 1e-6
        plane_rows = recovery_experiment(Euclidean(2), 10, trials=10, seed=5)
        assert not any(r.unique for r in plane_rows)
        assert max(r.residual for r in plane_rows) <= 1e-10

    def test_rerun_determinism(self):
        a = recovery_experiment(UnitSphere(2), 8, trials=6, seed=6)
        b = recovery_experiment(UnitSphere(2), 8, trials=6, seed=6)
        assert a == b


class TestConfigValidation:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            config(UnitSphere(2), k_values=())
        with pytest.raises(ValueError):
            config(UnitSphere(2), k_values=(0,))
        with pytest.raises(ValueError, match="every k >= 1"):
            fullrank_probability(config(Euclidean(2), ("sqdist",)), 0)
        with pytest.raises(ValueError):
            config(UnitSphere(2), trials=0)

    def test_trials_stay_within_the_stream_space(self):
        # sample_stream indexes trials below 2**32; a larger count is refused before any
        # trial runs instead of failing after 2**32 of them
        assert config(UnitSphere(2), trials=2**32).trials == 2**32
        for trials in (2**32 + 1, 5_000_000_000):
            with pytest.raises(ValueError, match=r"trials must be at most 2\*\*32"):
                config(UnitSphere(2), trials=trials)
        # and sizes below 2**31; the configs are only built, never run
        assert config(UnitSphere(2), k_values=(5, 2**31 - 1)).k_values == (5, 2**31 - 1)
        with pytest.raises(ValueError, match=r"k must be below 2\*\*31, got 2147483648"):
            config(UnitSphere(2), k_values=(5, 2**31))

    @pytest.mark.parametrize(
        "run",
        [
            lambda: config(Euclidean(2), k_values=(7.9,)),
            lambda: config(Euclidean(2), trials=2.5),
            lambda: config(Euclidean(2), k_values=(7.0,)),
            lambda: rank_law_sweep(config(Euclidean(2), k_values=(5, 7.9)), "Y"),
            lambda: condition_sweep(Euclidean(2), [0.0], [7.9], trials=3, seed=1),
            lambda: condition_sweep(Euclidean(2), [0.0], [7], trials=2.5, seed=1),
            lambda: recovery_experiment(Euclidean(2), 7.9, trials=3, seed=1),
            lambda: recovery_experiment(Euclidean(2), 7, trials=2.5, seed=1),
            lambda: fullrank_probability(config(Euclidean(2)), 7.9),
        ],
        ids=["config-k", "config-trials", "config-float-k", "rank-law-k", "cond-k", "cond-trials",
             "recovery-k", "recovery-trials", "fullrank-k"],
    )
    def test_rejects_non_integral_k_and_trials(self, run):
        # int() would run k = 7 for 7.9; range and << would raise a bare TypeError
        with pytest.raises(ValueError, match="k_values and trials must be integers"):
            run()

    def test_numpy_integers_pass(self):
        cfg = config(Euclidean(2), k_values=np.array([5, 7]), trials=np.int32(3))
        assert cfg.k_values == (5, 7) and cfg.trials == 3
        assert all(type(k) is int for k in cfg.k_values) and type(cfg.trials) is int
        rows = condition_sweep(Euclidean(2), [0.0], np.array([4, 6]), trials=np.int64(2), seed=1)
        assert [r.k for r in rows] == [4, 6]
        rows = recovery_experiment(Euclidean(2), np.int64(4), trials=np.int64(2), seed=1)
        assert [(r.trial, r.k) for r in rows] == [(0, 4), (1, 4)] and type(rows[0].k) is int

    @pytest.mark.parametrize(
        "run",
        [lambda: rank_law_sweep(config(Euclidean(2), seed=1.5), "Y"),
         lambda: recovery_experiment(UnitSphere(2), 5, 3, 7.2)],
        ids=["rank-law", "recovery"],
    )
    def test_rejects_a_non_integer_seed(self, run):
        # the Philox key is cast to uint64, which would run seed 1.5 as seed 1
        with pytest.raises(ValueError, match="seed and stream must be integers"):
            run()

    def test_numpy_integer_seed_gives_the_same_rows(self):
        cfg = config(Euclidean(2), seed=np.int64(1))
        assert type(cfg.seed) is int
        assert rank_law_sweep(cfg, "Y") == rank_law_sweep(config(Euclidean(2), seed=1), "Y")
        assert recovery_experiment(UnitSphere(2), 5, 3, np.uint64(7)) == recovery_experiment(UnitSphere(2), 5, 3, 7)

    @pytest.mark.parametrize(
        "kernel_space, space",
        [(UnitSphere(2), Euclidean(3)), (Euclidean(2, box=(0.0, 2.0)), Euclidean(2)), (UnitSphere(3), UnitSphere(2))],
        ids=["sphere-on-cube", "other-box", "other-dimension"],
    )
    def test_rejects_kernel_on_another_space(self, kernel_space, space):
        # both spaces are named with their boxes, which str() leaves out
        with pytest.raises(ValueError) as caught:
            ExperimentConfig(manifold=space, kernel=Kernel(kernel_space, "sqdist"), k_values=(6,), trials=5,
                             seed=1)
        assert repr(kernel_space) in str(caught.value) and repr(space) in str(caught.value)


class TestLibrarySurface:
    """The space, its sampling box included, is the one channel a sample's space comes in,
    and the package exports only what the instrument uses.

    A new parameter, field or export has to be added here as well, so review sees it as an
    option to justify.
    """

    @pytest.mark.parametrize(
        "call, params",
        [
            (Euclidean.sample_uniform, ["self", "k", "seed", "stream"]),
            (UnitSphere.sample_uniform, ["self", "k", "seed", "stream"]),
            (Euclidean.sample_batch, ["self", "k", "seed", "streams"]),
            (Euclidean.expected_distance, ["self", "trials", "seed"]),
            (condition_sweep, ["manifold", "alphas", "k_values", "trials", "seed", "tolerance"]),
            (recovery_experiment, ["manifold", "k", "trials", "seed", "tolerance"]),
        ],
        ids=["sample_uniform", "sphere-sample_uniform", "sample_batch", "expected_distance",
             "condition_sweep", "recovery_experiment"],
    )
    def test_parameters(self, call, params):
        assert list(inspect.signature(call).parameters) == params

    @pytest.mark.parametrize(
        "cls, names",
        [
            (ExperimentConfig, ["manifold", "kernel", "k_values", "trials", "seed", "tolerance"]),
            (Euclidean, ["n", "box"]),
            (UnitSphere, ["n"]),
            (Tolerance, ["factor"]),
            (SampleSet, ["manifold", "points"]),
            (CovField, ["sigmas"]),
        ],
        ids=["ExperimentConfig", "Euclidean", "UnitSphere", "Tolerance", "SampleSet", "CovField"],
    )
    def test_fields(self, cls, names):
        assert [f.name for f in fields(cls)] == names

    @pytest.mark.parametrize(
        "cls, names",
        [
            (Euclidean, ["box", "coord_dim", "distance_matrix", "expected_distance", "mean_distance", "n",
                         "paired_distance", "pairwise_distance", "pairwise_log", "sample_batch",
                         "sample_uniform"]),
            (UnitSphere, ["coord_dim", "distance_matrix", "expected_distance", "mean_distance", "n",
                          "paired_distance", "pairwise_distance", "pairwise_log", "sample_batch",
                          "sample_uniform"]),
            (Kernel, ["alpha", "family", "manifold", "pairwise"]),
        ],
        ids=["Euclidean", "UnitSphere", "Kernel"],
    )
    def test_public_attributes(self, cls, names):
        # every map acts on stacks; a single-pair view would show up here
        public = {name for name in dir(cls) if not name.startswith("_")} | {f.name for f in fields(cls)}
        assert sorted(public) == names

    def test_package_exports(self):
        assert covrank.__all__ == [
            "AntipodalPairError", "CovField", "DEFAULT_TOLERANCE", "Euclidean",
            "ExperimentConfig", "Kernel", "OperatorField", "RankBoundError", "RankLawRow",
            "RecoveryResult", "RecoveryTrial", "SampleSet", "SweepRow", "Tolerance",
            "UnclassifiedKernelError", "UnitSphere", "arccos_taylor_coeffs",
            "assemble_Y", "assemble_Z", "condition_sweep",
            "fullrank_probability", "outer_field", "parse_kernel", "rank_law_sweep",
            "recover", "recovery_experiment", "rng_stream", "rows_to_csv", "rows_to_jsonl", "sigma_field",
            "theoretical_rank", "trace_system", "unfold_C",
        ]

    @pytest.mark.parametrize("module", ["covrank", "covrank.cli", "covrank.kernels", "covrank.manifold",
                                        "covrank.montecarlo", "covrank.numrank", "covrank.tensor"])
    def test_every_export_resolves(self, module):
        module = importlib.import_module(module)
        assert [name for name in module.__all__ if not hasattr(module, name)] == []


class TestSerialization:
    def test_csv_round_trips_17_digits(self):
        rows = [
            SweepRow(
                k=50,
                alpha=math.pi / 2,
                mean_cond=3.4871e15,
                min_cond=1.0,
                max_cond=math.inf,
                mean_log_abs_det=-196.0,
                fullrank_fraction=1 / 3,
                borderline_fraction=0.0,
            )
        ]
        text = rows_to_csv(rows)
        header, line = text.strip().split("\n")
        assert header == "k,alpha,mean_cond,min_cond,max_cond,mean_log_abs_det,fullrank_fraction,borderline_fraction"
        values = line.split(",")
        assert float(values[1]) == math.pi / 2  # exact round trip
        assert float(values[6]) == 1 / 3
        assert values[4] == "inf"

    def test_jsonl_parses_and_round_trips(self):
        rows = condition_sweep(UnitSphere(2), [0.0], [5], trials=3, seed=9)
        parsed = [json.loads(line) for line in rows_to_jsonl(rows).strip().split("\n")]
        assert parsed[0]["k"] == 5
        assert parsed[0]["mean_cond"] == rows[0].mean_cond

    def test_none_serializes_empty_and_null(self):
        cfg = config(Euclidean(2), ("shifted", 0.5), k_values=(4,), trials=5, seed=8)
        rows = rank_law_sweep(cfg, "kernel")
        csv_line = rows_to_csv(rows).strip().split("\n")[1]
        assert ",," in csv_line  # bound and expected_rank are empty
        assert json.loads(rows_to_jsonl(rows))["bound"] is None


@dataclass(frozen=True)
class OneField:
    v: object


@pytest.mark.parametrize(
    "value, csv, jsonl",
    [
        (None, "", "null"),
        (True, "true", "true"),
        (np.bool_(False), "false", "false"),
        (3, "3", "3"),
        (np.int64(-2), "-2", "-2"),
        (0.1, "0.10000000000000001", "0.10000000000000001"),
        (np.float64(1 / 3), "0.33333333333333331", "0.33333333333333331"),
        (np.float32(0.1), "0.10000000149011612", "0.10000000149011612"),
        (-0.0, "-0", "-0.0"),
        (3.0, "3", "3.0"),
        (np.float64(1e16), "10000000000000000", "10000000000000000.0"),
        (math.nan, "nan", "NaN"),
        (math.inf, "inf", "Infinity"),
        (-math.inf, "-inf", "-Infinity"),
        (5e-324, "4.9406564584124654e-324", "4.9406564584124654e-324"),
        ("kernel", "kernel", '"kernel"'),
    ],
    ids=["none", "true", "np-false", "int", "np-int64", "float", "np-float64", "np-float32",
         "neg-zero", "integral", "np-integral", "nan", "inf", "neg-inf", "subnormal", "str"],
)
def test_scalar_spellings(value, csv, jsonl):
    """The exact text of one value in a CSV field and in a JSON-lines field."""
    assert rows_to_csv([OneField(value)]) == f"v\n{csv}\n"
    assert rows_to_jsonl([OneField(value)]) == f'{{"v": {jsonl}}}\n'
