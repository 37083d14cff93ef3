import math
from fractions import Fraction

import numpy as np
import pytest

from covrank import (
    Euclidean,
    Kernel,
    SampleSet,
    UnclassifiedKernelError,
    UnitSphere,
    arccos_taylor_coeffs,
    arccos_taylor_eval,
    parse_kernel,
    rank_report,
    theoretical_rank,
)

E1 = np.array([1.0, 0.0, 0.0])
E2 = np.array([0.0, 1.0, 0.0])


def sample_of(manifold, points, seed=0):
    return SampleSet(manifold=manifold, points=np.array(points, dtype=float), seed=seed)


class TestEvaluate:
    def test_sqdist_vanishes_on_diagonal(self):
        k = Kernel(Euclidean(2), "sqdist")
        assert k.evaluate((0.3, 0.7), (0.3, 0.7)) == 0.0

    def test_shifted_plugin(self):
        k = Kernel(UnitSphere(2), "shifted", alpha=math.pi / 2)
        assert k.evaluate(E1, -E1) == pytest.approx(math.pi**2 / 4)

    def test_arccos_of_orthogonal(self):
        k = Kernel(UnitSphere(2), "dot:arccos")
        assert k.evaluate(E1, E2) == pytest.approx(math.pi / 2)

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
        sq = parse_kernel("sqdist", sphere).pairwise(pts.points)
        assert np.all(np.diag(sq) == 0.0)

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
        errs = [np.max(np.abs(arccos_taylor_eval(z, order) - np.arccos(z))) for order in (11, 21, 31, 41)]
        assert errs[-1] <= 1e-6
        assert all(a > b for a, b in zip(errs, errs[1:]))

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            arccos_taylor_coeffs(-1)


class TestRankOracle:
    def test_euclidean_sqdist_is_finite(self):
        rc = theoretical_rank(Kernel(Euclidean(3), "sqdist"))
        assert rc.finite and rc.rank == 5

    def test_sphere_arccos_squared_is_full(self):
        assert not theoretical_rank(Kernel(UnitSphere(4), "dot:arccos2")).finite

    def test_sphere_sqdist_is_full(self):
        assert not theoretical_rank(Kernel(UnitSphere(2), "sqdist")).finite

    def test_cos_is_full_everywhere(self):
        assert not theoretical_rank(Kernel(Euclidean(2), "dot:cos")).finite
        assert not theoretical_rank(Kernel(UnitSphere(2), "dot:cos")).finite

    def test_zero_shift_classified_like_sqdist(self):
        rc = theoretical_rank(Kernel(Euclidean(2), "shifted", alpha=0.0))
        assert rc.rank == 4

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
        cap = theoretical_rank(kernel).rank
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
