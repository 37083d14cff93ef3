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
from covrank.kernels import _law
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


# The class the oracle gives each kernel spec, and the unfolded systems Y and Z, on each
# space: an int is a finite rank, None full rank almost everywhere, REFUSED an
# UnclassifiedKernelError for a kernel and a "no ... rank law is proven" for a system.
REFUSED = "refused"
SYSTEMS = ("Y", "Z")
KERNEL_SPECS = ("sqdist", "shifted:0", "shifted:0.5", "dot:arccos", "dot:arccos2", "dot:cos")
ORACLE_SPECS = KERNEL_SPECS + SYSTEMS
ORACLE_TABLE = {
    # Y: (n+1)(n+2)/2, Z: n(n+2), since the log map p_i - p_j is affine in both points
    "euclid:1": (3, 3, REFUSED, REFUSED, REFUSED, None, 3, 3),
    "euclid:2": (4, 4, REFUSED, REFUSED, REFUSED, None, 6, 8),
    "euclid:3": (5, 5, REFUSED, REFUSED, REFUSED, None, 10, 15),
    # S^1 is flat: on a semicircle its squared arc distance is a line's, rank <= 3
    "sphere:1": (REFUSED, REFUSED, REFUSED, None, REFUSED, None, REFUSED, REFUSED),
    "sphere:2": (None, None, REFUSED, None, None, None, REFUSED, REFUSED),
    "sphere:3": (None, None, REFUSED, None, None, None, REFUSED, REFUSED),
}


def oracle_cells(specs=ORACLE_SPECS):
    cells = [(space, spec, cls) for space, row in ORACLE_TABLE.items()
             for spec, cls in zip(ORACLE_SPECS, row) if spec in specs]
    return pytest.mark.parametrize("space, spec, expected", cells, ids=[f"{space}-{spec}" for space, spec, _ in cells])


def spelled_law(space, spec, expected):
    """(bound, c, own) of a cell, bound and c None where it is refused: each point adds at
    most c to the rank, 1 for a kernel and Y and n for Z; own is 1 where a point's own
    entries vanish, as in Y, Z, sqdist and shifted:0, and in dot:arccos and dot:arccos2
    on the sphere's unit points."""
    kind, n = space.split(":")
    own = int(spec in ("sqdist", "shifted:0") + SYSTEMS or (kind == "sphere" and spec.startswith("dot:arccos")))
    if expected == REFUSED:
        return None, None, own
    return expected, int(n) if spec == "Z" else 1, own


def expected_rank(bound, c, own, k):
    if c is None:
        return None
    rank = k * min(c, k - own)
    return rank if bound is None else min(bound, rank)


class TestRankOracle:
    @oracle_cells(KERNEL_SPECS)
    def test_table(self, space, spec, expected):
        kernel = parse_kernel(spec, parse_manifold(space))
        if expected == REFUSED:
            with pytest.raises(UnclassifiedKernelError):
                theoretical_rank(kernel)
        else:
            assert theoretical_rank(kernel) == expected

    @oracle_cells()
    def test_sweep_expects_the_spelled_law(self, space, spec, expected):
        # rank_law_sweep's bound and expected rank at a few k, one trial each: the cell's
        # law min(bound, k min(c, k - own)) with c and own spelled out here; a refused
        # kernel is swept with no bound and no expected rank, a refused system not at all
        manifold = parse_manifold(space)
        system, kernel = (spec, None) if spec in SYSTEMS else ("kernel", parse_kernel(spec, manifold))
        cfg = ExperimentConfig(manifold=manifold, kernel=kernel, k_values=(1, 3, 16), trials=1, seed=5)
        if expected == REFUSED and system in SYSTEMS:
            with pytest.raises(ValueError) as refused:
                rank_law_sweep(cfg, system)
            assert str(refused.value) == f"no {spec} rank law is proven on {space}"
            return
        law = spelled_law(space, spec, expected)
        assert [(row.bound, row.expected_rank) for row in rank_law_sweep(cfg, system)] == [
            (law[0], expected_rank(*law, k)) for k in cfg.k_values]

    @oracle_cells()
    def test_one_law_lookup_gives_the_spelled_law(self, space, spec, expected):
        manifold = parse_manifold(space)
        law = _law(manifold, spec if spec in SYSTEMS else parse_kernel(spec, manifold))
        spelled = spelled_law(space, spec, expected)
        assert law == spelled
        assert [expected_rank(*law, k) for k in range(1, 51)] == [expected_rank(*spelled, k) for k in range(1, 51)]

    @pytest.mark.parametrize(
        "space, spec, system, message",
        [
            ("sphere:2", None, "Y", "no Y rank law is proven on sphere:2"),
            ("euclid:2", "shifted:0.5", None, "no rank classification for shifted:0.5 on euclid:2"),
            ("sphere:1", "sqdist", None, "no rank classification for sqdist on sphere:1"),
            ("euclid:2", None, "Psi", "unknown system 'Psi'; expected 'kernel', 'Y' or 'Z'"),
            ("euclid:2", "sqdist", "Psi", "unknown system 'Psi'; expected 'kernel', 'Y' or 'Z'"),
            ("sphere:2", None, "kernel", "config needs a kernel for kernel-matrix experiments"),
        ],
        ids=["Y-on-sphere", "shifted-oracle", "circle-oracle", "unknown-system",
             "unknown-system-with-kernel", "no-kernel"],
    )
    def test_refusals(self, space, spec, system, message):
        # an unknown system is refused first, then a kernel sweep without a kernel, then
        # a system whose law the space does not prove; the oracle refuses what it cannot settle
        manifold = parse_manifold(space)
        kernel = None if spec is None else parse_kernel(spec, manifold)
        with pytest.raises(ValueError) as refused:
            if system is None:
                theoretical_rank(kernel)
            else:
                rank_law_sweep(ExperimentConfig(manifold=manifold, kernel=kernel, k_values=(2,), trials=1,
                                                seed=0), system)
        assert str(refused.value) == message

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
