import importlib
import math
import re
import tracemalloc

import numpy as np
import pytest

from covrank import AntipodalPairError, Euclidean, UnitSphere, rng_stream
from covrank.manifold import rng_streams
from covrank.montecarlo import aux_stream, sample_stream
from reference import sphere_log

E1 = np.array([1.0, 0.0, 0.0])
E2 = np.array([0.0, 1.0, 0.0])


def random_sphere_points(n, count, seed=0):
    rng = rng_stream(seed)
    g = rng.standard_normal((count, n + 1))
    return g / np.linalg.norm(g, axis=1, keepdims=True)


class TestDistance:
    def test_pythagorean(self):
        assert Euclidean(2).distance_matrix(np.array([[0.0, 0.0]]), np.array([[3.0, 4.0]]))[0, 0] == 5.0

    def test_antipodal(self):
        assert UnitSphere(2).distance_matrix(E1[None], -E1[None])[0, 0] == pytest.approx(math.pi)

    def test_orthogonal_unit_vectors(self):
        assert UnitSphere(2).distance_matrix(E1[None], E2[None])[0, 0] == pytest.approx(math.pi / 2)

    def test_symmetry_is_exact(self):
        sphere = UnitSphere(3)
        pts = random_sphere_points(3, 40, seed=5)
        P, Q = pts[:20], pts[20:]
        assert np.array_equal(sphere.paired_distance(P, Q), sphere.paired_distance(Q, P))
        eucl = Euclidean(3)
        pairs = rng_stream(6).random((20, 2, 3))  # the draws of p, q = random(3), random(3)
        P, Q = pairs[:, 0], pairs[:, 1]
        assert np.array_equal(eucl.paired_distance(P, Q), eucl.paired_distance(Q, P))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            Euclidean(2).distance_matrix(np.array([[0.0, 0.0, 0.0]]), np.array([[1.0, 1.0]]))
        with pytest.raises(ValueError):
            UnitSphere(2).distance_matrix(E1[None], np.array([[1.0, 0.0]]))

    @pytest.mark.parametrize("r_coords, s_coords", [(2, 3), (3, 2)])
    def test_distance_matrix_refuses_mismatched_coordinates(self, r_coords, s_coords):
        X, Y = np.zeros((4, r_coords)), np.zeros((5, s_coords))
        with pytest.raises(ValueError, match=f"points of {r_coords} and {s_coords} coordinates"):
            Euclidean(2).distance_matrix(X, Y)

    def test_integer_points(self):
        assert Euclidean(2).paired_distance(np.array([[0, 0]]), np.array([[3, 4]])).tolist() == [5.0]

    def test_pairwise_distance_peak_memory_stays_near_its_output(self):
        # a (T, k, k, n) difference tensor alone would take 3 of these 4 stacks of k x k
        T, k = 20, 40
        space = Euclidean(3)
        P = space.sample_batch(k, 1, range(T))
        space.pairwise_distance(P)  # warm: first-call allocations stay out of the peak
        tracemalloc.start()
        try:
            space.pairwise_distance(P)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 8 * T * k * k

    def test_triangle_inequality_on_sphere(self):
        sphere = UnitSphere(2)
        pts = random_sphere_points(2, 300, seed=11)
        D = sphere.pairwise_distance(pts.reshape(100, 3, 3))  # triples a, b, c
        assert np.all(D[:, 0, 2] <= D[:, 0, 1] + D[:, 1, 2] + 1e-9)


class TestLogExp:
    def test_euclidean_log(self):
        v = Euclidean(2).pairwise_log(np.array([[1.0, 1.0], [4.0, 5.0]]))[0, 1]
        assert np.array_equal(v, [3.0, 4.0])
        assert np.linalg.norm(v) == 5.0

    def test_sphere_log_at_same_point_is_zero(self):
        assert np.array_equal(UnitSphere(2).pairwise_log(np.stack([E1, E1]))[0, 1], np.zeros(3))

    def test_sphere_log_quarter_turn(self):
        # by the log formula: theta = pi/2, sin theta = 1, cos theta = 0
        v = UnitSphere(2).pairwise_log(np.stack([E1, E2]))[0, 1]
        np.testing.assert_allclose(v, [0.0, math.pi / 2, 0.0], atol=1e-15)
        assert np.linalg.norm(v) == pytest.approx(math.pi / 2)
        assert abs(v @ E1) <= 1e-10  # tangency

    def test_antipodal_log_refused(self):
        with pytest.raises(AntipodalPairError):
            UnitSphere(2).pairwise_log(np.stack([E1, -E1]))

    def test_antipodal_pair_in_a_stack_names_its_indices_within_its_trial(self):
        P = UnitSphere(2).sample_batch(4, 7, range(3))
        P[1, 3] = -P[1, 1]  # the stack's one antipodal pair: points 1 and 3 of trial 1
        with pytest.raises(AntipodalPairError, match="points 1 and 3 are antipodal"):
            UnitSphere(2).pairwise_log(P)

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("shape", [(1,), (2,), (20,), (200,), (5, 40)], ids=str)
    def test_sphere_log_has_the_bits_of_the_plain_formula(self, n, shape):
        *trials, k = shape
        sphere = UnitSphere(n)
        P = sphere.sample_batch(k, 3, range(trials[0] if trials else 1))
        P = P if trials else P[0]
        assert sphere.pairwise_log(P).tobytes() == sphere_log(P).tobytes()

    def test_sphere_log_peak_memory_stays_near_its_output(self):
        # G, theta and theta / sin(theta), in sin's buffer, take 3 stacks of k x k and the
        # (T, k, k, 3) output 3 more: 6.26 here; a fourth stack or a (T, k, k, 3) temporary
        # would pass the bound
        T, k = 20, 40
        sphere = UnitSphere(2)
        P = sphere.sample_batch(k, 1, range(T))
        sphere.pairwise_log(P)  # warm: first-call allocations stay out of the peak
        tracemalloc.start()
        try:
            sphere.pairwise_log(P)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6.5 * 8 * T * k * k

    @pytest.mark.parametrize("seed", range(5))
    def test_log_exp_round_trip(self, seed):
        sphere = UnitSphere(2)
        pts = random_sphere_points(2, 40, seed=seed)
        P, Q = pts[:20], pts[20:]
        V = sphere.pairwise_log(np.stack([P, Q], axis=1))[:, 0, 1]  # at each p, pointing to its q
        norm = np.linalg.norm(V, axis=1)[:, None]
        assert np.all(np.abs(norm[:, 0] - sphere.paired_distance(P, Q)) <= 1e-10)
        # the geodesic from p along v ends at q
        np.testing.assert_allclose(np.cos(norm) * P + np.sin(norm) * V / norm, Q, atol=1e-10)


class TestTangentFrames:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_sphere_frames_are_reflections_onto_the_tangent_space(self, n):
        pts = random_sphere_points(n, 30, seed=n)
        pts[0] = np.eye(n + 1)[-1]  # on the last axis and opposite it: the sign choice
        pts[1] = -np.eye(n + 1)[-1]
        frames = UnitSphere(n)._tangent_frames(pts[None])[0]
        assert frames.shape == (30, n + 1, n + 1)
        for p, Q in zip(pts, frames):
            np.testing.assert_allclose(Q.T @ Q, np.eye(n + 1), atol=1e-15)
            np.testing.assert_allclose(p @ Q[:, :n], 0.0, atol=1e-15)  # tangent axes
            np.testing.assert_allclose(abs(p @ Q[:, n]), 1.0, atol=1e-15)  # the normal axis

    def test_euclidean_frames_are_not_needed(self):
        assert Euclidean(3)._tangent_frames(np.zeros((2, 5, 3))) is None


class TestSampling:
    def test_k_zero_rejected(self):
        with pytest.raises(ValueError):
            UnitSphere(2).sample_uniform(0, seed=1)

    @pytest.mark.parametrize("k", [2.5, 2.0], ids=["fraction", "integral-float"])
    def test_k_must_be_an_integer(self, k):
        with pytest.raises(ValueError, match="k must be an integer"):
            Euclidean(2).sample_uniform(k, 0)

    def test_numpy_integer_k_draws_the_int_sample(self):
        assert np.array_equal(Euclidean(2).sample_uniform(np.int64(3), 0).points,
                              Euclidean(2).sample_uniform(3, 0).points)

    @pytest.mark.parametrize(
        "box",
        [(1.0, 1.0), (0.0, math.inf), (-math.inf, 0.0), (0.0, math.nan), (math.nan, 1.0), (-1e308, 1e308)],
        ids=["empty", "inf-hi", "inf-lo", "nan-hi", "nan-lo", "side-overflow"],
    )
    def test_degenerate_box_rejected(self, box):
        with pytest.raises(ValueError, match="degenerate"):
            Euclidean(2, box=box)

    @pytest.mark.parametrize("box", [(0.0, 1e-147), (0.0, 1e-155), (-3e-170, 2e-170)])
    def test_box_too_small_for_squared_distances_rejected(self, box):
        # eps side^2 below the smallest normal double: a squared distance's round-off underflows
        with pytest.raises(ValueError, match="below 1e-146"):
            Euclidean(2, box=box)

    def test_smallest_boxes_accepted(self):
        assert Euclidean(2, box=(0.0, 1e-140)).box == (0.0, 1e-140)
        assert Euclidean(2, box=(-1e-146, 1e-146)).box == (-1e-146, 1e-146)

    @pytest.mark.parametrize("box", [(0.0,), (0.0, 1.0, 2.0), "ab", None, [[0.0, 1.0], [0.0, 2.0]]])
    def test_box_must_be_one_pair(self, box):
        with pytest.raises(ValueError, match="pair"):
            Euclidean(2, box=box)

    def test_box_is_a_hashable_pair_of_floats(self):
        space = Euclidean(2, box=[np.float32(-1), 3])
        assert space.box == (-1.0, 3.0) and all(type(x) is float for x in space.box)
        assert hash(space) == hash(Euclidean(2, box=(-1.0, 3.0)))
        assert Euclidean(2).box == (0.0, 1.0)

    def test_boxes_are_part_of_the_space(self):
        assert Euclidean(2, box=(-1.0, 3.0)) == Euclidean(2, box=(-1, 3))
        assert Euclidean(2, box=(-1.0, 3.0)) != Euclidean(2)
        assert Euclidean(2, box=(-1.0, 3.0)) != Euclidean(2, box=(-1.0, 2.0))
        assert str(Euclidean(2, box=(-1.0, 3.0))) == "euclid:2"
        sample = Euclidean(2, box=(-1.0, 3.0)).sample_uniform(4, seed=1)
        assert sample.manifold.box == (-1.0, 3.0)

    def test_sphere_points_are_unit(self):
        pts = UnitSphere(2).sample_uniform(10, seed=7).points
        assert pts.shape == (10, 3)
        assert np.all(np.abs(np.linalg.norm(pts, axis=1) - 1.0) <= 1e-12)

    def test_determinism_is_bitwise(self):
        sphere = UnitSphere(2)
        a = sphere.sample_uniform(100, seed=42)
        b = sphere.sample_uniform(100, seed=42)
        assert np.array_equal(a.points, b.points)
        c = sphere.sample_uniform(100, seed=42, stream=1)
        assert not np.array_equal(a.points, c.points)

    def test_box_respected(self):
        pts = Euclidean(2, box=(-1.0, 2.0)).sample_uniform(200, seed=3).points
        assert np.all(pts >= -1.0) and np.all(pts <= 2.0)
        default = Euclidean(2).sample_uniform(200, seed=3).points
        assert np.all(default >= 0.0) and np.all(default <= 1.0)

    def test_hemisphere_balance(self):
        # fraction of positive entries per axis within a 4-sigma binomial band
        k = 4000
        pts = UnitSphere(2).sample_uniform(k, seed=17).points
        band = 4 * math.sqrt(0.25 / k)
        for axis in range(3):
            frac = np.mean(pts[:, axis] > 0)
            assert abs(frac - 0.5) <= band

    @pytest.mark.parametrize(
        "space", [Euclidean(3), Euclidean(2, box=(-1e6, 3.5)), UnitSphere(2), UnitSphere(9)],
        ids=["cube", "box", "sphere", "sphere-9"],
    )
    def test_sample_batch_is_sample_uniform_stream_by_stream(self, space):
        k, seed = 7, 12
        streams = [0, 1, sample_stream(k, 3), aux_stream(k, 3), 2**64 - 1]
        batch = space.sample_batch(k, seed, streams)
        assert batch.shape == (len(streams), k, space.coord_dim)
        for points, stream in zip(batch, streams):
            assert np.array_equal(points, space.sample_uniform(k, seed, stream=stream).points)
            rng = rng_stream(seed, stream)  # reference draws, as in numpy's own samplers
            if isinstance(space, Euclidean):
                expected = rng.uniform(*space.box, (k, space.n))
            else:
                g = rng.standard_normal((k, space.coord_dim))
                expected = g / np.linalg.norm(g, axis=1, keepdims=True)
            assert np.array_equal(points, expected), stream

    @pytest.mark.parametrize("space", [Euclidean(3), UnitSphere(2)], ids=["euclid", "sphere"])
    def test_sample_batch_of_no_streams_is_empty(self, space):
        assert space.sample_batch(6, 1, []).shape == (0, 6, space.coord_dim)

    def test_points_are_read_only(self):
        ss = UnitSphere(2).sample_uniform(4, seed=1)
        with pytest.raises(ValueError):
            ss.points[0, 0] = 2.0


class TestExpectedDistance:
    def test_sphere_mean_is_half_pi(self):
        est = UnitSphere(2).expected_distance(10**5, seed=1)
        assert abs(est - math.pi / 2) <= 0.02

    def test_unit_interval_mean_is_one_third(self):
        # E |X - Y| for X, Y ~ Unif[0,1] integrates to 1/3
        est = Euclidean(1).expected_distance(10**5, seed=1)
        assert abs(est - 1 / 3) <= 0.01

    def test_single_trial_is_one_pair_distance(self):
        sphere = UnitSphere(2)
        pts = sphere.sample_uniform(2, seed=9).points
        assert sphere.expected_distance(1, seed=9) == sphere.distance_matrix(pts[:1], pts[1:])[0, 0]

    def test_trials_must_be_positive(self):
        with pytest.raises(ValueError):
            UnitSphere(2).expected_distance(0, seed=1)

    @pytest.mark.parametrize("trials", [1.5, 2.0], ids=["fraction", "integral-float"])
    def test_trials_must_be_an_integer(self, trials):
        with pytest.raises(ValueError, match="trials must be an integer"):
            Euclidean(2).expected_distance(trials, 0)

    def test_numpy_integer_trials_give_the_int_estimate(self):
        assert Euclidean(2).expected_distance(np.int64(3), 0) == Euclidean(2).expected_distance(3, 0)


def test_rng_stream_rejects_negative():
    with pytest.raises(ValueError):
        rng_stream(-1)
    with pytest.raises(ValueError):
        rng_stream(1, -2)


@pytest.mark.parametrize("seed, stream", [(2**64, 0), (0, 2**64), (-1, 0), (0, -1)])
def test_rng_streams_refuse_keys_outside_64_bits(seed, stream):
    # a Philox key word is one uint64: a wider value must be refused, not overflow
    with pytest.raises(ValueError, match=r"\[0, 2\*\*64\)"):
        rng_stream(seed, stream)
    with pytest.raises(ValueError, match=r"\[0, 2\*\*64\)"):
        next(rng_streams(seed, [stream]))


@pytest.mark.parametrize("space", [Euclidean(2), UnitSphere(2)], ids=["euclid", "sphere"])
@pytest.mark.parametrize(
    "seed, streams, bad",
    [(2**64, [0, 1, 2], 2**64), (3, [2**64, 1, 2], 2**64), (3, [0, -1, 2], -1), (3, [0, 1, 2**64 + 5], 2**64 + 5)],
    ids=["seed", "first-stream", "middle-stream", "last-stream"],
)
def test_sample_batch_refuses_a_bad_key_before_any_draw(space, seed, streams, bad, monkeypatch):
    # rng_stream's refusal, raised before any stream of the list is drawn
    drawn = []
    monkeypatch.setattr(type(space), "_draw", lambda self, rng, out: drawn.append(out))
    with pytest.raises(ValueError, match=re.escape(f"seed and stream must lie in [0, 2**64), got {bad}")):
        space.sample_batch(4, seed, streams)
    assert not drawn


@pytest.mark.parametrize(
    "run",
    [lambda: Euclidean(2).sample_uniform(4, 1.9), lambda: UnitSphere(2).sample_batch(4, 3, [2.7]),
     lambda: rng_stream(5.5), lambda: rng_stream(5, 0.5)],
    ids=["sample_uniform-seed", "sample_batch-stream", "rng_stream-seed", "rng_stream-stream"],
)
def test_a_non_integer_key_is_refused(run):
    # the key is cast to uint64, which would run 1.9 as seed 1
    with pytest.raises(ValueError, match="seed and stream must be integers"):
        run()


def test_numpy_integer_keys_give_the_same_bits():
    space = Euclidean(2)
    assert np.array_equal(space.sample_uniform(4, np.int64(1)).points, space.sample_uniform(4, 1).points)
    assert np.array_equal(space.sample_batch(4, np.uint64(3), np.array([2])), space.sample_batch(4, 3, [2]))
    assert np.array_equal(rng_stream(np.int32(5), np.int64(1)).random(3), rng_stream(5, 1).random(3))


@pytest.mark.parametrize("make", [lambda: Euclidean(2.5), lambda: UnitSphere(1.5), lambda: Euclidean(2.0)],
                         ids=["euclid-2.5", "sphere-1.5", "euclid-2.0"])
def test_a_non_integer_dimension_is_refused(make):
    # 2.5 would fail at the first draw inside numpy, and 2.0 would print euclid:2.0
    with pytest.raises(ValueError, match="dimension must be an integer"):
        make()


def test_a_numpy_integer_dimension_is_an_int():
    space = Euclidean(np.int64(2))
    assert str(space) == "euclid:2" and space == Euclidean(2) and type(space.n) is int
    assert UnitSphere(np.int32(2)) == UnitSphere(2)


def test_rng_streams_take_the_largest_key():
    top = 2**64 - 1
    (rng,) = rng_streams(top, [top])
    assert np.array_equal(rng.random(3), rng_stream(top, top).random(3))


def test_empirical_pairwise_mean_matches_expected_distance():
    # sampling-based cross-check of the pairwise-distance estimate
    sphere = UnitSphere(2)
    pts = sphere.sample_uniform(2 * 10**5, seed=13).points
    mean = np.mean(sphere.paired_distance(pts[: 10**5], pts[10**5 :]))
    assert abs(mean - math.pi / 2) <= 0.02


class TestOneClassPerSpace:
    """Facts about a space live in its class (``_proven_ranks``, ``mean_distance``), so
    the modules that read them never name a concrete space."""

    @pytest.mark.parametrize("module", ["covrank.kernels", "covrank.montecarlo", "covrank.tensor"])
    def test_readers_do_not_name_a_space(self, module):
        assert {"Euclidean", "UnitSphere"} & set(vars(importlib.import_module(module))) == set()
