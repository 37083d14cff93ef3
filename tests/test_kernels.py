import math
from fractions import Fraction

import numpy as np
import pytest

from covrank import (
    Euclidean,
    ExperimentConfig,
    Kernel,
    SampleSet,
    Tolerance,
    UnclassifiedKernelError,
    UnitSphere,
    arccos_taylor_coeffs,
    parse_kernel,
    rank_law_sweep,
    theoretical_rank,
)
from covrank.cli import parse_manifold
from covrank.numrank import _spectra, _verdicts
from reference import rank_report

E1 = np.array([1.0, 0.0, 0.0])
E2 = np.array([0.0, 1.0, 0.0])


def sample_of(manifold, points):
    return SampleSet(manifold=manifold, points=np.array(points, dtype=float))


class TestEvaluate:
    def test_sqdist_vanishes_on_diagonal(self):
        k = Kernel(Euclidean(2), "sqdist")
        assert k.pairwise(np.array([[0.3, 0.7], [0.3, 0.7]]))[0, 1] == 0.0

    def test_shifted_plugin(self):
        k = Kernel(UnitSphere(2), "shifted", alpha=math.pi / 2)
        assert k.pairwise(np.stack([E1, -E1]))[0, 1] == pytest.approx(math.pi**2 / 4)

    def test_arccos_of_orthogonal(self):
        k = Kernel(UnitSphere(2), "dot:arccos")
        assert k.pairwise(np.stack([E1, E2]))[0, 1] == pytest.approx(math.pi / 2)

    def test_shift_zero_equals_sqdist(self):
        sphere = UnitSphere(2)
        pts = sphere.sample_uniform(12, seed=4)
        a = Kernel(sphere, "sqdist").pairwise(pts.points)
        b = Kernel(sphere, "shifted", alpha=0.0).pairwise(pts.points)
        assert np.array_equal(a, b)

    def test_alpha_on_wrong_family_rejected(self):
        with pytest.raises(ValueError):
            Kernel(UnitSphere(2), "sqdist", alpha=1.0)
        with pytest.raises(ValueError):
            Kernel(UnitSphere(2), "shifted", alpha=-1.0)

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError, match="unknown kernel family 'foo'"):
            Kernel(Euclidean(2), "foo")


class TestMatrix:
    def test_two_points_on_line(self):
        s = sample_of(Euclidean(1), [[0.0], [1.0]])
        m = Kernel(Euclidean(1), "sqdist").pairwise(s.points)
        assert np.array_equal(m, [[0.0, 1.0], [1.0, 0.0]])

    def test_circle_three_points_arccos_squared(self):
        # pairwise angles of e1, e2, -e1 on the circle: pi/2, pi, pi/2
        s = sample_of(UnitSphere(1), [[1, 0], [0, 1], [-1, 0]])
        m = Kernel(UnitSphere(1), "dot:arccos2").pairwise(s.points)
        q = (math.pi / 2) ** 2
        expected = [[0.0, q, math.pi**2], [q, 0.0, q], [math.pi**2, q, 0.0]]
        np.testing.assert_allclose(m, expected, atol=1e-12)

    def test_symmetric_with_zero_diagonal(self):
        sphere = UnitSphere(2)
        pts = sphere.sample_uniform(15, seed=2)
        for spec in ("sqdist", "shifted:0.8", "dot:arccos", "dot:arccos2", "dot:cos"):
            m = parse_kernel(spec, sphere).pairwise(pts.points)
            assert np.max(np.abs(m - m.T)) <= 1e-12
        # d(p, p) = 0, and arccos(p.p) = arccos(1) = 0 on unit points, though p.p rounds
        # to just below 1 for some of them
        assert (np.diag(pts.points @ pts.points.T) < 1.0).any()
        for spec in ("sqdist", "dot:arccos", "dot:arccos2"):
            assert np.all(np.diag(parse_kernel(spec, sphere).pairwise(pts.points)) == 0.0), spec

    def test_euclidean_arccos_keeps_its_diagonal(self):
        # off the sphere p.p is no 1, and the diagonal keeps arccos(clip(p.p))
        box = Euclidean(2, box=(-0.8, 0.8))
        P = box.sample_batch(12, 4, range(5))
        a = np.arccos(np.clip(P @ np.swapaxes(P, 1, 2), -1.0, 1.0))
        assert np.array_equal(Kernel(box, "dot:arccos").pairwise(P), a)
        assert np.array_equal(Kernel(box, "dot:arccos2").pairwise(P), a * a)

    def test_rotation_invariance(self):
        sphere = UnitSphere(2)
        pts = sphere.sample_uniform(10, seed=8)
        rot, _ = np.linalg.qr(np.random.default_rng(3).standard_normal((3, 3)))
        rotated = sample_of(sphere, pts.points @ rot.T)
        for spec in ("sqdist", "shifted:1.0"):
            kernel = parse_kernel(spec, sphere)
            a = kernel.pairwise(pts.points)
            b = kernel.pairwise(rotated.points)
            assert np.max(np.abs(a - b)) <= 1e-10

    def test_shift_consistency_with_sqrt(self):
        sphere = UnitSphere(2)
        pts = sphere.sample_uniform(10, seed=5)
        alpha = 0.7
        shifted = Kernel(sphere, "shifted", alpha=alpha).pairwise(pts.points)
        sq = Kernel(sphere, "sqdist").pairwise(pts.points)
        assert np.max(np.abs(shifted - (np.sqrt(sq) - alpha) ** 2)) <= 1e-12


class TestArccosSeries:
    def test_first_two_coefficients(self):
        c = arccos_taylor_coeffs(1)
        assert c[0] == pytest.approx(math.pi / 2)
        assert c[1] == -1.0

    def test_cubic_coefficient(self):
        assert arccos_taylor_coeffs(3)[3] == pytest.approx(-1 / 6)

    def test_even_coefficients_vanish(self):
        c = arccos_taylor_coeffs(8)
        assert all(c[i] == 0.0 for i in (2, 4, 6, 8))

    def test_matches_exact_factorial_form(self):
        # oracle: c_{2m+1} = -(2m)! / (2^{2m} (m!)^2 (2m+1)) in exact arithmetic
        c = arccos_taylor_coeffs(21)
        for m in range(11):
            exact = -Fraction(
                math.factorial(2 * m), 2 ** (2 * m) * math.factorial(m) ** 2 * (2 * m + 1)
            )
            assert c[2 * m + 1] == pytest.approx(float(exact), rel=1e-12)

    def test_partial_sums_converge_on_disc(self):
        z = np.linspace(-0.8, 0.8, 101)
        errs = [np.max(np.abs(np.polyval(arccos_taylor_coeffs(order)[::-1], z) - np.arccos(z)))
                for order in (11, 21, 31, 41)]
        assert errs[-1] <= 1e-6
        assert all(a > b for a, b in zip(errs, errs[1:]))

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            arccos_taylor_coeffs(-1)


# The class the oracle gives each kernel spec on each space: an int is a finite rank,
# None full rank almost everywhere, REFUSED an UnclassifiedKernelError.
REFUSED = "refused"
ORACLE_SPECS = ("sqdist", "shifted:0", "shifted:0.5", "dot:arccos", "dot:arccos2", "dot:cos")
ORACLE_TABLE = {
    "euclid:1": (3, 3, REFUSED, REFUSED, REFUSED, None),
    "euclid:2": (4, 4, REFUSED, REFUSED, REFUSED, None),
    "euclid:3": (5, 5, REFUSED, REFUSED, REFUSED, None),
    # S^1 is flat: on a semicircle its squared arc distance is a line's, rank <= 3
    "sphere:1": (REFUSED, REFUSED, REFUSED, None, REFUSED, None),
    "sphere:2": (None, None, REFUSED, None, None, None),
    "sphere:3": (None, None, REFUSED, None, None, None),
}


class TestRankOracle:
    @pytest.mark.parametrize(
        "space, spec, expected",
        [(space, spec, cls) for space, row in ORACLE_TABLE.items() for spec, cls in zip(ORACLE_SPECS, row)],
        ids=[f"{space}-{spec}" for space in ORACLE_TABLE for spec in ORACLE_SPECS],
    )
    def test_table(self, space, spec, expected):
        kernel = parse_kernel(spec, parse_manifold(space))
        if expected == REFUSED:
            with pytest.raises(UnclassifiedKernelError):
                theoretical_rank(kernel)
        else:
            assert theoretical_rank(kernel) == expected

    @pytest.mark.parametrize("k", [5, 6, 8])
    def test_circle_sqdist_rank_three_on_a_semicircle(self, k):
        # k uniform points of S^1 lie in one closed semicircle with probability
        # k / 2^(k-1) (Wendel 1962); there their squared arc distances are those of
        # points on a line, rank 3.  The rank-3 fraction stays within 4 binomial sd.
        trials, wendel = 4000, k / 2 ** (k - 1)
        circle = UnitSphere(1)
        P = circle.sample_batch(k, 11, range(trials))
        A = Kernel(circle, "sqdist").pairwise(P)
        ranks = _verdicts(_spectra(A, Tolerance()), Tolerance(), A.shape[1:]).numerical_rank
        sd = math.sqrt(wendel * (1 - wendel) / trials)
        assert abs(np.mean(ranks == 3) - wendel) <= 4 * sd

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("spec", ["dot:arccos", "dot:arccos2"])
    def test_sphere_arccos_one_point_has_rank_zero(self, n, spec):
        # a point's own entry arccos(p.p) = 0, so one point draws on no other and has
        # rank 0, as sqdist does
        sphere = UnitSphere(n)
        for seed in (1, 2, 3, 31):
            cfg = ExperimentConfig(manifold=sphere, kernel=parse_kernel(spec, sphere), k_values=(1,),
                                   trials=100, seed=seed)
            (row,) = rank_law_sweep(cfg, "kernel")
            assert (row.rank_min, row.rank_max, row.expected_rank) == (0, 0, 0), seed
            assert row.equality_fraction == 1.0, seed

    def test_circle_sqdist_is_never_full_rank_at_k40(self):
        circle = UnitSphere(1)
        cfg = ExperimentConfig(manifold=circle, kernel=Kernel(circle, "sqdist"), k_values=(40,),
                               trials=200, seed=7)
        (row,) = rank_law_sweep(cfg, "kernel")
        assert row.fullrank_fraction == 0.0
        assert row.expected_rank is None and row.equality_fraction is None

    def test_euclidean_sqdist_is_finite(self):
        assert theoretical_rank(Kernel(Euclidean(3), "sqdist")) == 5

    def test_sphere_arccos_squared_is_full(self):
        assert theoretical_rank(Kernel(UnitSphere(4), "dot:arccos2")) is None

    def test_sphere_sqdist_is_full(self):
        assert theoretical_rank(Kernel(UnitSphere(2), "sqdist")) is None

    def test_cos_is_full_everywhere(self):
        assert theoretical_rank(Kernel(Euclidean(2), "dot:cos")) is None
        assert theoretical_rank(Kernel(UnitSphere(2), "dot:cos")) is None

    def test_zero_shift_classified_like_sqdist(self):
        assert theoretical_rank(Kernel(Euclidean(2), "shifted", alpha=0.0)) == 4

    def test_positive_shift_refused(self):
        with pytest.raises(UnclassifiedKernelError):
            theoretical_rank(Kernel(Euclidean(2), "shifted", alpha=0.5))
        with pytest.raises(UnclassifiedKernelError):
            theoretical_rank(Kernel(UnitSphere(2), "shifted", alpha=0.5))

    def test_arccos_off_sphere_refused(self):
        with pytest.raises(UnclassifiedKernelError):
            theoretical_rank(Kernel(Euclidean(2), "dot:arccos"))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_finite_rank_caps_every_matrix(self, n):
        # Def-1 style check: matrices on more than rank-many points stay capped
        eucl = Euclidean(n)
        kernel = Kernel(eucl, "sqdist")
        cap = theoretical_rank(kernel)
        for trial in range(20):
            pts = eucl.sample_uniform(cap + 5, seed=100 + trial)
            assert rank_report(kernel.pairwise(pts.points)).numerical_rank <= cap


class TestGrammar:
    def test_round_trip(self):
        sphere = UnitSphere(2)
        for spec in ("sqdist", "dot:arccos", "dot:arccos2", "dot:cos"):
            assert str(parse_kernel(spec, sphere)) == spec
        k = parse_kernel("shifted:1.5707963267948966", sphere)
        assert k.family == "shifted" and k.alpha == pytest.approx(math.pi / 2)

    @pytest.mark.parametrize("bad", ["", "gauss", "shifted:", "shifted:x", "dot:tan"])
    def test_rejects_unknown(self, bad):
        with pytest.raises(ValueError):
            parse_kernel(bad, UnitSphere(2))
