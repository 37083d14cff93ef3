import math
from fractions import Fraction

import numpy as np
import pytest

from covrank import Euclidean, Tolerance, UnitSphere, rng_stream
from covrank import numrank, tensor
from covrank.montecarlo import aux_stream, sample_stream
from covrank.numrank import _solve_augmented, _spectra, _verdicts
from counting import assert_leaf_inverses, counted_inverses, counted_solves, counted_svds
from reference import factorization_report, factorization_spectra, rank_report


def exact_rank(matrix) -> int:
    """Gaussian elimination over the rationals; no floating point involved."""
    rows = [[Fraction(x) for x in row] for row in matrix]
    rank = 0
    for col in range(len(rows[0])):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(rank + 1, len(rows)):
            factor = rows[r][col] / rows[rank][col]
            rows[r] = [a - factor * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


class TestRankReport:
    def test_zero_matrix(self):
        report = rank_report(np.zeros((5, 5)))
        assert report.numerical_rank == 0
        assert report.spectral_ratio == math.inf

    def test_identity(self):
        report = rank_report(np.eye(7))
        assert report.numerical_rank == 7
        assert report.spectral_ratio == 1.0
        assert not report.borderline

    def test_squared_difference_grid_has_rank_three(self):
        # columns of {(a_i - b_j)^2} live in span{1, b, b^2}, so rank caps at 3;
        # the exact-arithmetic oracle confirms equality for these points
        a = np.array([0.0, 1.0, 2.0, 3.0])
        X = (a[:, None] - a[None, :]) ** 2
        assert exact_rank([[int(v) for v in row] for row in X]) == 3
        assert rank_report(X).numerical_rank == 3

    def test_rank_invariant_under_permutation_and_scaling(self):
        rng = rng_stream(21)
        base = rng.standard_normal((8, 3)) @ rng.standard_normal((3, 8))
        rank = rank_report(base).numerical_rank
        assert rank == 3
        perm = rng.permutation(8)
        assert rank_report(base[perm][:, perm]).numerical_rank == rank
        for scale in (1e-7, 3.0, 1e9):
            assert rank_report(scale * base).numerical_rank == rank

    def test_gram_matrix_preserves_rank_when_well_scaled(self):
        rng = rng_stream(22)
        for trial in range(10):
            q1, _ = np.linalg.qr(rng.standard_normal((9, 9)))
            q2, _ = np.linalg.qr(rng.standard_normal((5, 5)))
            a = q1[:, :5] * np.logspace(0, -5, 5) @ q2
            assert rank_report(a.T @ a).numerical_rank == rank_report(a).numerical_rank

    def test_condition_number_scale_invariant(self):
        rng = rng_stream(23)
        a = rng.standard_normal((6, 6))
        c0 = rank_report(a).spectral_ratio
        for scale in (1e-3, 7.0):
            assert rank_report(scale * a).spectral_ratio == pytest.approx(c0, rel=1e-10)

    def test_borderline_flag(self):
        # relative default: tau = 2 * eps * sigma_1 for a 2x2 matrix
        eps = np.finfo(float).eps
        near = np.diag([1.0, 5 * eps])
        assert rank_report(near).borderline
        clear = np.diag([1.0, 0.5])
        assert not rank_report(clear).borderline

    def test_relative_factor_override(self):
        m = np.diag([1.0, 1e-10])
        assert rank_report(m, Tolerance(1e-8)).numerical_rank == 1
        assert rank_report(m, Tolerance(1e-12)).numerical_rank == 2

    def test_absolute_policy(self):
        # there is no absolute threshold: at sigma_1 = 1 a factor gives the
        # ranks a fixed tau would, and at another scale tau follows sigma_1
        m = np.diag([1.0, 1e-3, 1e-9])
        assert rank_report(m, Tolerance(1e-6)).numerical_rank == 2
        assert rank_report(m, Tolerance(1e-12)).numerical_rank == 3
        assert rank_report(1e-200 * m, Tolerance(1e-6)).numerical_rank == 2  # tau scales with sigma_1

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            rank_report(np.array([[1.0, np.nan]]))
        with pytest.raises(ValueError):
            rank_report(np.zeros((0, 3)))
        for bad in (0.0, -1.0, np.nan, np.inf):
            with pytest.raises(ValueError):
                Tolerance(bad)


def solve_one(A, b):
    """x, residual, rank of A, rank of [A | b] and borderline of one system, solved as a stack of one."""
    return [field[0] for field in _solve_augmented(np.column_stack([A, b])[None], Tolerance())]


class TestLeastSquares:
    def test_identity_system(self):
        x, residual, rank, _, borderline = solve_one(np.eye(4, 3), np.array([1.0, 2.0, 3.0, 0.0]))
        assert np.allclose(x, [1, 2, 3])
        assert residual == pytest.approx(0.0, abs=1e-14)
        assert rank == 3 and not borderline

    def test_rank_one_system_takes_minimum_norm(self):
        x, _, rank, _, _ = solve_one(np.ones((3, 2)), np.array([2.0, 2.0, 2.0]))
        assert np.allclose(x, [1.0, 1.0], atol=1e-12)
        assert rank == 1

    def test_forward_generated_recovery(self):
        rng = rng_stream(31)
        for trial in range(10):
            a = rng.standard_normal((8, 3))
            x0 = rng.standard_normal(3)
            x, _, rank, rank_augmented, _ = solve_one(a, a @ x0)
            assert np.max(np.abs(x - x0)) <= 1e-10
            assert rank == rank_augmented == 3


    def test_borderline_flag(self):
        # a singular value of A, or one of [A | b] alone, within 10x of its threshold
        eps = np.finfo(float).eps
        A = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
        for small, borderline in ((20 * eps, True), (1e-3, False)):
            assert solve_one(np.diag([1.0, small, 0.0])[:, :2], np.array([0.0, 0.0, 1.0]))[4] == borderline
            assert solve_one(A, np.array([0.0, 1.0, small]))[4] == borderline


def pinv_reference(A, b, policy=Tolerance()):
    """x, residual, rank of A and rank of [A | b] from full SVDs of A and [A | b]."""
    U, s, Vt = np.linalg.svd(A, full_matrices=False)
    r = int(np.count_nonzero(s > policy.threshold(A.shape, s[0])))
    Ub = U[:, :r].T @ b
    x = Vt[:r].T @ (Ub / s[:r])
    residual = np.linalg.norm(b - U[:, :r] @ Ub)  # distance of b to range(A)
    Ab = np.column_stack([A, b])
    s_aug = np.linalg.svd(Ab, compute_uv=False)
    return x, residual, r, int(np.count_nonzero(s_aug > policy.threshold(Ab.shape, s_aug[0])))


def augmented(A, b):
    """[A | b] of an m x n system, with zero rows appended up to n + 1 when m is smaller:
    the solver takes systems of at least n + 1 rows, and zero rows change neither the
    least-squares solutions nor the singular values.  Pass rows=len(A) to the solver so
    that its thresholds are those of the system as given."""
    Ab = np.column_stack([A, b])
    return np.vstack([Ab, np.zeros((max(0, Ab.shape[1] - len(Ab)), Ab.shape[1]))])


def deficient(m, n, r, seed):
    rng = rng_stream(seed)
    return rng.standard_normal((m, r)) @ rng.standard_normal((r, n))


def solve_cases():
    rng = rng_stream(40)
    A = deficient(12, 5, 3, seed=41)
    yield "deficient-consistent", A, A @ rng.standard_normal(5)
    A = deficient(12, 5, 3, seed=42)
    U = np.linalg.svd(A)[0]
    yield "inconsistent", A, A @ rng.standard_normal(5) + 0.5 * U[:, 3:] @ rng.standard_normal(9)
    yield "full-rank-inconsistent", rng.standard_normal((9, 4)), rng.standard_normal(9)
    yield "wide", rng.standard_normal((4, 7)), rng.standard_normal(4)
    yield "wide-deficient", deficient(5, 8, 2, seed=43), rng.standard_normal(5)
    yield "zero-k1", np.zeros((9, 1)), np.zeros(9)


SOLVE_CASES = list(solve_cases())


@pytest.mark.parametrize("name, A, b", SOLVE_CASES, ids=[case[0] for case in SOLVE_CASES])
def test_qr_solve_matches_svd_pseudo_inverse(name, A, b):
    x_ref, residual_ref, rank_ref, rank_aug_ref = pinv_reference(A, b)
    sol = _solve_augmented(augmented(A, b)[None], Tolerance(), len(A))
    assert sol.rank[0] == rank_ref
    assert sol.rank_augmented[0] == rank_aug_ref
    scale = 1e-12 * max(1.0, np.linalg.norm(b))
    np.testing.assert_allclose(sol.x[0], x_ref, rtol=1e-10, atol=scale)
    assert sol.residual[0] == pytest.approx(residual_ref, rel=1e-10, abs=scale)


@pytest.mark.parametrize("name, A, b", SOLVE_CASES, ids=[case[0] for case in SOLVE_CASES])
def test_solve_does_not_depend_on_the_scale_of_b(name, A, b):
    # rank([A | b]) is that of [A | 2^e b]; x and the residual scale with b, exactly
    one = _solve_augmented(augmented(A, b)[None], Tolerance(), len(A))
    for e in (-600, 600):
        Ab = augmented(A, np.ldexp(b, e))[None]
        given = Ab.copy()
        sol = _solve_augmented(Ab, Tolerance(), len(A))
        assert np.array_equal(Ab, given)  # the caller's stack is left as it was
        assert np.array_equal(sol.x, np.ldexp(one.x, e))
        assert np.array_equal(sol.residual, np.ldexp(one.residual, e))
        assert (sol.rank, sol.rank_augmented) == (one.rank, one.rank_augmented)


def test_case_list_covers_each_kind():
    for name, A, b in SOLVE_CASES:
        _, residual, rank, rank_aug = pinv_reference(A, b)
        if name == "inconsistent":
            assert rank == 3 and rank_aug == 4 and residual > 0.1
        if name.startswith("wide"):
            assert A.shape[0] < A.shape[1]
        if name == "zero-k1":
            assert rank == rank_aug == 0 and residual == 0.0


@pytest.mark.parametrize("m, n, rank", [(30, 6, 6), (30, 6, 4), (20, 9, 9), (5, 8, 5), (7, 6, 3)])
@pytest.mark.parametrize("policy", [Tolerance(), Tolerance(1e-9)], ids=["relative", "factor"])
def test_stacked_solve_equals_separate_solves(m, n, rank, policy):
    rng = rng_stream(44)
    stack = np.stack([augmented(deficient(m, n, rank, seed=50 + t), rng.standard_normal(m)) for t in range(7)])
    stack[2, :m, -1] = stack[2, :m, :-1] @ rng.standard_normal(n)  # one consistent system
    # members of other kinds: the zero system, a copy of the consistent one and one
    # scaled by 2^600
    stack = np.concatenate([stack, np.zeros_like(stack[:1]), stack[2:3], np.ldexp(stack[1:2], 600)])
    stacked = _solve_augmented(stack, policy)
    for t in range(len(stack)):
        alone = _solve_augmented(stack[t : t + 1], policy)
        for got, want in zip(stacked, alone):
            assert np.array_equal(got[t], want[0]), t


def test_solve_thresholds_for_the_row_count_it_is_given():
    # a reduced copy of a taller system is thresholded as that system: tau grows with rows
    eps = np.finfo(float).eps
    Ab = np.zeros((1, 3, 3))
    Ab[0, :2, :2] = np.diag([1.0, 30 * eps])  # 10x above tau for 3 rows, 10x below for 300
    Ab[0, 1, 2] = 30 * eps  # b along the small direction
    alone = _solve_augmented(Ab, Tolerance())
    taller = _solve_augmented(Ab, Tolerance(), rows=300)
    assert (alone.rank[0], alone.rank_augmented[0]) == (2, 2)
    # b lies outside the numerical range of A, so [A | b] keeps a rank above A's
    assert (taller.rank[0], taller.rank_augmented[0]) == (1, 2)
    assert taller.residual[0] == 30 * eps and alone.residual[0] == 0.0


def test_full_rank_stack_runs_no_svd(monkeypatch):
    # a full-rank stack is certified by bounds: one blocked inverse of A's block, its
    # diagonal leaves inverted by np.linalg.inv, no SVD and no solve; above the leaf
    # size the inverse recurses
    for shape in [(4, 40, 7), (2, 300, 150)]:
        stack = rng_stream(45).standard_normal(shape)
        n = shape[2] - 1
        with monkeypatch.context() as patch:
            svds, inverses, solves = counted_svds(patch), counted_inverses(patch), counted_solves(patch)
            sol = _solve_augmented(stack, Tolerance())
        assert svds == [] and solves == []
        assert_leaf_inverses(inverses, np.linalg.qr(stack, mode="r")[:, :n, :n])
        assert list(sol.rank_augmented) == [n + 1] * shape[0]


def test_mixed_stack_pays_for_vectors_only_on_what_is_left(monkeypatch):
    # only the deficient members reach the vectors path: one SVD with vectors of A's
    # block, and one values-only SVD of the triangle, whose last column is scaled, for
    # rank([A | b]); the diagonal screen sends them there without inverting them
    rng = rng_stream(45)
    stack = rng.standard_normal((6, 40, 7))
    left, kept = [1, 4], [0, 2, 3, 5]
    stack[left, :, :6] = np.stack([deficient(40, 6, 4, seed=60 + t) for t in left])
    svds, inverses = counted_svds(monkeypatch), counted_inverses(monkeypatch)
    sol = _solve_augmented(stack, Tolerance())
    R = np.linalg.qr(stack, mode="r")
    assert [(a.shape, uv) for a, uv in svds] == [((2, 6, 6), True), ((2, 7, 7), False)]
    assert np.array_equal(svds[0][0], R[left, :6, :6]) and np.array_equal(svds[1][0][..., :6], R[left, :, :6])
    assert len(inverses) == 1 and np.array_equal(inverses[0], R[kept, :6, :6])
    assert list(sol.rank) == [6, 4, 6, 6, 4, 6] and list(sol.rank_augmented) == [7, 5, 7, 7, 5, 7]


CERTIFY = numrank._certify


def certify_nothing(R, policy, m):
    """numrank._certify with every certificate dropped: the vectors path alone."""
    certified, solution = CERTIFY(R, policy, m)
    return np.zeros_like(certified), solution


def solve_path(monkeypatch, Ab):
    """The path one system takes, its solution, and its solution by the vectors path
    alone.  The path is "certified" when no SVD ran, else "screened" or "inverted" by
    whether A's block was inverted before the vectors path."""
    with monkeypatch.context() as patch:
        svds, inverses = counted_svds(patch), counted_inverses(patch)
        sol = _solve_augmented(Ab[None], Tolerance())
    with monkeypatch.context() as patch:
        patch.setattr(numrank, "_certify", certify_nothing)
        vectors = _solve_augmented(Ab[None], Tolerance())
    if not any(uv for _, uv in svds):
        return "certified", sol, vectors
    return ("inverted" if inverses else "screened"), sol, vectors


def triangle(RA, r, rho):
    """The (n+1) x (n+1) triangle [[RA, r], [0, rho]], which the QR keeps bit for bit."""
    n = len(RA)
    R = np.zeros((n + 1, n + 1))
    R[:n, :n], R[:n, n], R[n, n] = RA, r, rho
    return R


def certificate_edges():
    """(bound, system just inside it, system just outside it, the ranks of A and [A | b])
    for the diagonal screen and each of the three bounds of the certificate, on triangles
    A = R[:, :n], b = R[:, n].  The two systems of an edge differ by 1/16 either way in
    one entry; the edge itself is exact up to terms far below that."""
    inside, outside = 1 + 1 / 16, 1 - 1 / 16
    t2, t3 = Tolerance().threshold((3, 3), 1.0), Tolerance().threshold((4, 4), 1.0)  # 3 and 4 eps
    # screen: min |r_ii| > 20 t_hi, with b = 0 and A = diag(1, 1, d): t_hi = t3, as g_hi is
    # sqrt(||A||_1 ||A||_inf) = 1, not ||A||_F = sqrt(2), and 1 / ||A^-1||_F = d up to d^2
    # passes (a) where d passes the screen
    yield ("screen", triangle(np.diag([1.0, 1.0, 20 * t3 * inside]), 0.0, 0.0),
           triangle(np.diag([1.0, 1.0, 20 * t3 * outside]), 0.0, 0.0), (3, 3))
    # (a) 1 / ||A^-1||_F > 20 t_hi, with b = 0 and A = diag(1, d, d): t_hi = t3, and
    # 1 / ||A^-1||_F = d / sqrt(2) up to d^2, while min |r_ii| = d passes the screen either way
    edge = 20 * t3 * math.sqrt(2)
    yield ("a", triangle(np.diag([1.0, edge * inside, edge * inside]), 0.0, 0.0),
           triangle(np.diag([1.0, edge * outside, edge * outside]), 0.0, 0.0), (3, 3))
    # (b) u = |rho| / 1.25 < t_lo / 20, with A = [[1, -1], [0, 1]] and b = (0.75, 0, rho):
    # x = (0.75, 0) and w = (0.75, 0, -1) has norm 1.25; ||b|| ~ 0.75 lies in [g/2, g),
    # g = ||A||_F / sqrt(2), so the scale is 2^0; t_lo = sqrt(2) t2, as g_lo is the second
    # column's norm, 1/8 below sigma_1, the golden ratio
    A, r = np.array([[1.0, -1.0], [0.0, 1.0]]), [0.75, 0.0]
    edge = 1.25 * math.sqrt(2) * t2 / 20
    yield "u", triangle(A, r, edge / inside), triangle(A, r, edge / outside), (2, 2)
    # (b) l = 1 / (||A^-1||_F + 1.25 / rho) > 20 t_hi, with A = [[1, -1, 0], [0, 1, 0], [0, 0, d]]
    # and b = (0.75, 0, 0, rho), rho = d: x = (0.75, 0, 0), ||w|| = 1.25, ||b|| ~ 0.75 keeps
    # the scale 2^0, and ||A^-1||_F = 1 / d up to d^2, so l = d / 2.25; t_hi = t3 hypot(sqrt(3),
    # 0.75) up to d^2, as g_hi is ||A||_F = sqrt(3), not sqrt(||A||_1 ||A||_inf) = 2

    def system(d):
        return triangle(np.array([[1.0, -1.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, d]]), [0.75, 0.0, 0.0], d)

    edge = 2.25 * 20 * t3 * math.hypot(math.sqrt(3), 0.75)
    yield "l", system(edge * inside), system(edge * outside), (3, 4)


CERTIFICATE_EDGES = list(certificate_edges())


@pytest.mark.parametrize("bound, inside, outside, ranks", CERTIFICATE_EDGES, ids=[c[0] for c in CERTIFICATE_EDGES])
def test_systems_outside_a_bound_take_the_vectors_path(monkeypatch, bound, inside, outside, ranks):
    path, sol, vectors = solve_path(monkeypatch, inside)
    assert path == "certified"
    assert [f[0] for f in sol[2:]] == [f[0] for f in vectors[2:]]  # the same verdicts
    np.testing.assert_allclose(sol.x, vectors.x, rtol=1e-12, atol=1e-15)
    path, sol, vectors = solve_path(monkeypatch, outside)
    assert path == ("screened" if bound == "screen" else "inverted")
    for got, want in zip(sol, vectors):
        assert np.array_equal(got, want)  # the vectors path's bits
    # neither edge lies in the 10x band: the verdicts are decided either way
    assert not sol.borderline[0] and (sol.rank[0], sol.rank_augmented[0]) == ranks


def random_triangles(n, cond, seed, T=8):
    """R factors of T random n x n matrices whose singular values run from 1 down to 1/cond."""
    rng = rng_stream(seed)
    s = np.logspace(0, -math.log10(cond), n)
    U = np.linalg.qr(rng.standard_normal((T, n, n)))[0]
    V = np.linalg.qr(rng.standard_normal((T, n, n)))[0]
    return np.linalg.qr((U * s) @ V, mode="r")


@pytest.mark.parametrize("n", [1, 3, 12, 40, 130])
def test_certificate_bounds_bracket_the_singular_values(n):
    # the round-off slack is the one _certify states: a relative n eps for the norm bounds
    # of sigma_1, and n eps cond for the inverse's bound of sigma_n (which also covers
    # the reference SVD's own error in sigma_n, eps sigma_1)
    eps = np.finfo(float).eps
    for c, cond in enumerate([1.0, 1e3, 1e6, 1e9, 1e12]):
        R = random_triangles(n, cond, seed=90 + c)
        for e in (-600, 0, 600):
            Re = np.ldexp(R, e)
            s = np.linalg.svd(Re, compute_uv=False)
            s1, sn = s[:, 0], s[:, -1]
            with np.errstate(all="raise"):  # no square of an entry near 2^+-600 may overflow
                g_lo, g_hi, frobenius = numrank._sigma1_bounds(Re)
                s_n = numrank._invert(Re, np.zeros(Re.shape[:2]))[0]
            diagonal = np.abs(np.diagonal(Re, axis1=1, axis2=2)).min(axis=1)
            slack, slack_n = n * eps, n * eps * max(cond, s1.max() / sn.min())
            assert np.all(g_lo <= s1 * (1 + slack)) and np.all(s1 <= g_hi * (1 + slack))
            assert np.all(s_n <= sn * (1 + slack_n)) and np.all(sn <= diagonal * (1 + slack_n))
            # and none is vacuous: each lies within sqrt(n) of what it bounds
            root = math.sqrt(n) * (1 + slack_n)
            assert np.all(g_lo * root >= s1) and np.all(g_hi <= s1 * root) and np.all(s_n * root >= sn)
            np.testing.assert_allclose(frobenius, np.ldexp(np.linalg.norm(R, axis=(1, 2)), e), rtol=slack)


@pytest.mark.parametrize("n", [33, 60, 130])
def test_an_inverse_that_overflows_certifies_nothing(monkeypatch, n):
    # a unit diagonal passes the screen, but the inverse of I - 1e10 N has entries up to
    # 1e10^(n-1): infinite entries (n = 33), or nan ones too (n = 60, on OpenBLAS); at
    # n = 130 the leaves overflow and the blocked inverse's matmuls carry inf and nan on;
    # the system takes the vectors path, and no floating-point error is raised
    R = np.eye(n + 1)
    R[np.arange(n - 1), np.arange(1, n)] = -1e10
    R[0, n] = 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        assert not np.isfinite(np.linalg.inv(R[:n, :n])).all()
    with monkeypatch.context() as patch:
        svds, inverses = counted_svds(patch), counted_inverses(patch)
        with np.errstate(all="raise"):
            sol = _solve_augmented(R[None], Tolerance())
    assert_leaf_inverses(inverses, R[None, :n, :n])
    assert [(a.shape, uv) for a, uv in svds] == [((1, n, n), True), ((1, n + 1, n + 1), False)]
    monkeypatch.setattr(numrank, "_certify", certify_nothing)
    for got, want in zip(sol, _solve_augmented(R[None], Tolerance())):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("n", [1, 63, 64, 65, 200, 601])
def test_triangular_inverse_matches_the_lu_inverse(n):
    # both inverses are within a relative c eps cond(R) of the exact one (Du Croz and
    # Higham 1992), so of each other within n eps cond(R); each member of a stack gets
    # the bits it gets alone, and nothing is left below the diagonal
    eps = np.finfo(float).eps
    R = random_triangles(n, 1e6, seed=n, T=3 if n < 600 else 2)
    cond = np.linalg.cond(R)
    with np.errstate(all="raise"):
        X = numrank._triangular_inverse(R)
    want = np.linalg.inv(R)
    error = np.linalg.norm(X - want, axis=(1, 2)) / np.linalg.norm(want, axis=(1, 2))
    assert np.all(error <= n * eps * cond)
    assert np.all(np.tril(X, -1) == 0.0)
    for t in range(len(R)):
        assert np.array_equal(numrank._triangular_inverse(R[t:t + 1])[0], X[t])


@pytest.mark.parametrize("factor", [1.0, 1e300])
def test_a_threshold_at_or_above_sigma1_counts_nothing(monkeypatch, factor):
    # the certificate leaves the system, so the values-only SVD of its triangle gives
    # rank([A | b]); sigma_1 of A and of [A | b] is 2, and tau = factor * 2 counts nothing
    svds = counted_svds(monkeypatch)
    with np.errstate(all="raise"):
        sol = _solve_augmented(np.array([[[2.0, 0.0], [0.0, 1.0], [0.0, 0.0]]]), Tolerance(factor))
    assert [uv for _, uv in svds] == [True, False]
    assert (sol.rank[0], sol.rank_augmented[0]) == (0, 0)


def test_impossible_rank_augmented_is_borderline(monkeypatch):
    # appending a column keeps rank([A | b]) in {rank(A), rank(A) + 1} in exact arithmetic;
    # a count outside those, which only round-off could give, must not read as decided.
    # A's small singular value, 45 eps, is decided (tau = 3 eps) but too close to the
    # threshold for the certificate (20 t_hi = 67 eps), so the vectors path is reached;
    # its values-only SVD is made to return r unit singular values, a count of r
    A, b = np.diag([1.0, 45 * np.finfo(float).eps, 0.0])[:, :2], np.array([0.0, 0.0, 1.0])
    assert solve_one(A, b)[2:] == [2, 3, False]
    svd = np.linalg.svd
    for rank_augmented, borderline in ((1, True), (2, False), (3, False), (4, True)):
        def forced(a, *args, r=rank_augmented, **kwargs):
            return svd(a, *args, **kwargs) if kwargs.get("compute_uv", True) else np.ones((len(a), r))

        monkeypatch.setattr(np.linalg, "svd", forced)
        assert solve_one(A, b)[2:] == [2, rank_augmented, borderline]


def engine_system(manifold, k, seed, trial, f=None):
    """The reduced [Y | c] system that recovery_experiment(manifold, k, ..., seed) solves
    for a trial, or with the weights f in place of the trial's own."""
    P = manifold.sample_batch(k, seed, [sample_stream(k, trial)])
    f = rng_stream(seed, aux_stream(k, trial)).random(k) if f is None else f
    systems = []

    def solve(Ab, *args):
        systems.append(Ab)
        return _solve_augmented(Ab, *args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(tensor, "_solve_augmented", solve)
        tensor._forward_recoveries(manifold, P, f[None], Tolerance())
    [Ab] = systems
    return Ab[0]


def vectors_path(Ab, rows):
    """The solution of one system [A | b] standing for one of the given row count, and the
    inputs of its two vectors-path SVDs: A's block and the scaled triangle (None, None
    where the system is certified)."""
    with pytest.MonkeyPatch.context() as patch:
        svds = counted_svds(patch)
        sol = _solve_augmented(Ab[None], Tolerance(), rows)
    if not svds:
        return sol, None, None
    (block, _), (R, _) = svds
    return sol, block[0], R[0]


# sphere:1 systems at k = 30 with a singular value of the scaled triangle near the
# threshold t: (rank of A, rank of [A | b], borderline), the value's index and its
# ratio to t, which 50-digit singular values confirm.  The first, trial 25 of seed 2,
# has sigma_24 inside the 10x band; the second, trial 175 of seed 3 with the weights
# default_rng(0).random((200, 30))[175], has sigma_21 just below t
NEAR_ROWS = 4 * 30  # the d^2 k rows of [Y | c] on sphere:1 at k = 30
NEAR_THRESHOLD = [
    ("seed2-trial25", lambda: engine_system(UnitSphere(1), 30, 2, 25), (23, 23, True), 23, 0.1025),
    ("seed3-trial175", lambda: engine_system(UnitSphere(1), 30, 3, 175, np.random.default_rng(0).random((200, 30))[175]),
     (21, 20, True), 20, 0.978),
]


@pytest.mark.parametrize("name, system, verdict, index, ratio", NEAR_THRESHOLD, ids=[c[0] for c in NEAR_THRESHOLD])
def test_rank_augmented_near_the_threshold(name, system, verdict, index, ratio):
    sol, _, R = vectors_path(system(), NEAR_ROWS)
    assert (sol.rank[0], sol.rank_augmented[0], sol.borderline[0]) == verdict
    s = np.linalg.svd(R, compute_uv=False)
    assert s[index] / Tolerance().threshold((NEAR_ROWS, 31), s[0]) == pytest.approx(ratio, rel=1e-3)


def reference_verdict(mpmath, R, rows):
    """The rank and near flag of the 50-digit singular values of a triangle R under the
    default tolerance for rows x (n+1) matrices, or None where one lies within 1e-8
    relative of t/10, t or 10 t, which round-off in double could put either side."""
    with mpmath.workdps(50):
        s = mpmath.svd_r(mpmath.matrix(R.tolist()), compute_uv=False)
        s = [s[i] for i in range(len(s))]
        t = max(rows, len(R)) * mpmath.mpf(np.finfo(float).eps) * max(s)
        if any(abs(v - edge) <= 1e-8 * edge for v in s for edge in (t / 10, t, 10 * t)):
            return None
        return sum(v > t for v in s), any(t / 10 < v < 10 * t for v in s)


def reference_systems():
    """(name, rows, vectors_path of the system): the first six vectors-path systems of
    seed 1 in four cells, and the near-threshold systems."""
    for manifold, k in ((Euclidean(1), 6), (Euclidean(2), 10), (Euclidean(3), 12), (UnitSphere(1), 12)):
        rows, found = manifold.coord_dim ** 2 * k, 0
        for trial in range(40):
            path = vectors_path(engine_system(manifold, k, 1, trial), rows)
            if path[2] is not None:
                yield f"{manifold} k={k} trial {trial}", rows, path
                found += 1
                if found == 6:
                    break
    for name, system, *_ in NEAR_THRESHOLD:
        yield name, NEAR_ROWS, vectors_path(system(), NEAR_ROWS)


def test_vectors_path_verdicts_match_50_digit_singular_values():
    mpmath = pytest.importorskip("mpmath")
    compared = 0
    for name, rows, (sol, block, R) in reference_systems():
        want = reference_verdict(mpmath, R, rows)
        if want is None:
            continue
        rank, near = want
        # A's part of the flag, from the values of the solve's own SVD of A's block
        s = np.linalg.svd(block, full_matrices=False)[1][None]
        near_A = numrank._verdicts(s, Tolerance(), (rows, len(block))).borderline[0]
        assert sol.rank_augmented[0] == rank, name
        assert sol.borderline[0] == (near or near_A or rank not in (sol.rank[0], sol.rank[0] + 1)), name
        compared += 1
    assert compared >= 24


def test_vectors_path_verdicts_of_A_are_the_rule_of_its_own_svd():
    # no mpmath: the rank of A is the verdict (``_verdicts``) of the values of the solve's own
    # SVD of A's block, and the solution is borderline wherever that verdict is.  In the last
    # system only A's flag is raised: A's second value, 3 tau, lies in its band, and [A | b],
    # b scaled to norm 1/2, has the values 1, about 1/2 and 0, none in its own
    near_A_only = np.array([[1.0, 0.0, 0.0], [0.0, 3 * Tolerance().threshold((3, 2), 1.0), 1.0], [0.0, 0.0, 0.0]])
    systems, flagged = [*reference_systems(), ("near-A-only", 3, vectors_path(near_A_only, 3))], 0
    for name, rows, (sol, block, _) in systems:
        s = np.linalg.svd(block, full_matrices=False)[1][None]
        rank, _, near = _verdicts(s, Tolerance(), (rows, len(block)))
        assert sol.rank[0] == rank[0], name
        assert sol.borderline[0] or not near[0], name
        flagged += int(near[0])
    assert (len(systems), flagged) == (27, 4)
    assert (sol.rank[0], sol.rank_augmented[0]) == (2, 2)


def edge_systems():
    rng = rng_stream(46)
    A = rng.standard_normal((6, 3))
    yield "zero-k1", np.zeros((5, 1)), rng.standard_normal(5), (0, 1)
    yield "zero-k1-b0", np.zeros((5, 1)), np.zeros(5), (0, 0)
    yield "b0", A, np.zeros(6), (3, 3)
    yield "deficient-b0", np.diag([1.0, 0.5, 0.0, 0.0])[:, :3], np.zeros(4), (2, 2)  # the vectors path
    A = rng.integers(-4, 5, (6, 3)).astype(float)
    yield "b-in-range", A, A @ np.array([1.0, -2.0, 3.0]), (3, 3)  # exact: small integers
    yield "general", A, rng.standard_normal(6), (3, 4)
    yield "tied", np.vstack([np.eye(3), np.zeros((3, 3))]), rng.standard_normal(6), (3, 4)


EDGE_SYSTEMS = list(edge_systems())


@pytest.mark.parametrize("name, A, b, ranks", EDGE_SYSTEMS, ids=[case[0] for case in EDGE_SYSTEMS])
def test_solve_edge_cases_raise_no_floating_point_error(name, A, b, ranks):
    assert np.linalg.matrix_rank(A) == ranks[0]
    for e in (-600, 0, 600):
        with np.errstate(all="raise"):
            sol = _solve_augmented(np.column_stack([A, np.ldexp(b, e)])[None], Tolerance())
        assert (sol.rank[0], sol.rank_augmented[0]) == ranks


def symmetric_stack(T, k, seed, rank=None):
    """T random symmetric k x k matrices Q diag(lam) Q^T, eigenvalues of both signs
    with magnitudes in [1, 10]; rank < k zeroes the trailing eigenvalues."""
    rng = rng_stream(seed)
    out = []
    for _ in range(T):
        Q, _ = np.linalg.qr(rng.standard_normal((k, k)))
        lam = rng.choice([-1.0, 1.0], k) * rng.uniform(1.0, 10.0, k)
        lam[k if rank is None else rank :] = 0.0
        M = (Q * lam) @ Q.T
        out.append((M + M.T) / 2)
    return np.stack(out)


def report_fields(report):
    return [report.singular_values, report.numerical_rank, report.tolerance_used, report.borderline]


def stack_fields(stack, policy=Tolerance()):
    """Each matrix's report fields read off one stack: a row of its settled spectra
    (``numrank._spectra``) and the same row of their verdicts (``numrank._verdicts``)."""
    s = _spectra(stack, policy)
    return [list(row) for row in zip(s, *_verdicts(s, policy, stack.shape[1:]))]


@pytest.mark.parametrize("k, rank", [(1, None), (6, None), (9, 4), (12, 11)])
@pytest.mark.parametrize("policy", [Tolerance(), Tolerance(1e-9)], ids=["relative", "factor"])
def test_stacked_symmetric_report_equals_separate_reports(k, rank, policy):
    stack = symmetric_stack(5, k, seed=60 + k, rank=rank)
    stack[3] = 0.0  # a singular member, which the eigensolve flags and the SVD settles
    stack[1] *= 1e-10  # a member at another scale, whose tau is its own
    for t, got in enumerate(stack_fields(stack, policy)):
        for got_field, want in zip(got, report_fields(rank_report(stack[t], policy))):
            assert np.array_equal(got_field, want), t


@pytest.mark.parametrize("k", [2, 7, 40])
def test_symmetric_spectrum_matches_svd(k):
    stack = symmetric_stack(6, k, seed=70 + k)
    eig = factorization_report(stack, Tolerance(), symmetric=True)
    svd = factorization_report(stack, Tolerance())
    s_eig, s_svd = factorization_spectra(stack, symmetric=True), factorization_spectra(stack)
    assert np.all(np.diff(s_eig, axis=1) <= 0)
    assert np.all(np.abs(s_eig - s_svd) <= 1e-12 * s_svd[:, :1])
    assert np.array_equal(eig.numerical_rank, svd.numerical_rank)
    assert np.array_equal(eig.borderline, svd.borderline)
    assert np.all(eig.numerical_rank == k)


def test_symmetric_path_needs_square_matrices(monkeypatch):
    def no_eigensolve(*args, **kwargs):
        raise AssertionError("a non-square stack reached the eigensolve")

    monkeypatch.setattr(np.linalg, "eigvalsh", no_eigensolve)
    reports = stack_fields(np.ones((2, 3, 4)))
    assert [s.shape for s, *_ in reports] == [(3,), (3,)]
    assert [rank for _, rank, *_ in reports] == [1, 1]


def eigensolve_decides(matrix):
    """A bitwise-symmetric matrix whose eigensolve leaves no value in the borderline band."""
    report = factorization_report(matrix[None], Tolerance(), symmetric=True)
    return np.array_equal(matrix, matrix.T) and not report.borderline[0]


def near_threshold_matrix():
    """A symmetric 9 x 9 matrix with sigma_1 = 2 and an eigenvalue at about 30 eps, within
    10x of tau = 9 eps sigma_1, rotated so that the eigensolve's round-off is not the SVD's."""
    Q, _ = np.linalg.qr(rng_stream(81).standard_normal((9, 9)))
    lam = np.linspace(1.0, 2.0, 9)
    lam[0] = 30 * np.finfo(float).eps
    M = (Q * lam) @ Q.T
    return (M + M.T) / 2


class TestOneRule:
    """rank_report and a stack's verdicts decide by one rule: eigensolve a matrix that
    equals its transpose bit for bit, settle what it flags by the SVD, and factor any
    other matrix by the SVD."""

    def test_symmetric_matrix_gets_its_sorted_absolute_eigenvalues(self):
        A = symmetric_stack(1, 9, seed=80)[0]
        assert eigensolve_decides(A)
        want = -np.sort(-np.abs(np.linalg.eigvalsh(A)))
        assert np.array_equal(rank_report(A).singular_values, want)

    def test_one_ulp_off_symmetry_takes_the_svd(self):
        A = symmetric_stack(1, 9, seed=80)[0]
        A[0, 1] = np.nextafter(A[0, 1], np.inf)
        assert not np.array_equal(A, A.T)
        assert np.array_equal(rank_report(A).singular_values, np.linalg.svd(A, compute_uv=False))

    def test_flagged_symmetric_matrix_is_settled_by_the_svd(self):
        A = near_threshold_matrix()
        assert np.array_equal(A, A.T) and not eigensolve_decides(A)
        svd = np.linalg.svd(A, compute_uv=False)
        assert not np.array_equal(factorization_spectra(A[None], symmetric=True)[0], svd)
        report = rank_report(A)
        assert np.array_equal(report.singular_values, svd)
        assert report.borderline

    @pytest.mark.parametrize("name", ["decided", "flagged", "asymmetric", "tall"])
    def test_rank_report_is_the_one_matrix_batch(self, name):
        rng = rng_stream(82)
        A = {
            "decided": symmetric_stack(1, 9, seed=80)[0],
            "flagged": near_threshold_matrix(),
            "asymmetric": rng.standard_normal((6, 6)),
            "tall": rng.standard_normal((8, 3)),
        }[name]
        [batch] = stack_fields(A[None])
        for got, want in zip(report_fields(rank_report(A)), batch):
            assert np.array_equal(got, want)


def test_mixed_stack_reports_each_matrix_as_alone():
    # symmetry is decided per matrix, so a matrix's report does not depend on its stack-mates
    decided = symmetric_stack(1, 9, seed=80)[0]
    off = decided.copy()
    off[0, 1] = np.nextafter(off[0, 1], np.inf)
    stack = np.stack([decided, off, near_threshold_matrix(), np.zeros((9, 9))])
    batch = stack_fields(stack)
    for t, A in enumerate(stack):
        for got, want in zip(batch[t], report_fields(rank_report(A))):
            assert np.array_equal(got, want), t
    assert np.array_equal(batch[0][0], -np.sort(-np.abs(np.linalg.eigvalsh(decided))))
    assert np.array_equal(batch[1][0], np.linalg.svd(off, compute_uv=False))
