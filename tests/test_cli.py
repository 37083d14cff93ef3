import argparse
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from covrank.cli import build_parser, main, parse_manifold
from covrank import (
    Euclidean,
    Tolerance,
    UnitSphere,
    assemble_Y,
    assemble_Z,
    outer_field,
    rng_stream,
    sigma_field,
    trace_system,
)
from covrank.montecarlo import fmt17, sample_stream
from covrank import tensor
from covrank.tensor import _frame_coordinates, _reduced_stacks, _system_shape
from counting import assert_leaf_inverses, counted_inverses, counted_svds
import reference
from reference import rank_report

# a k = 8 Sigma dump of sphere:2 at seed 3 (see test_golden.py)
GOLDEN_SIGMA = Path(__file__).parent / "golden" / "tensor.Sigma.csv"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out.strip()
    return code, out


def system_report(field, system):
    """The reference report of one field's Y or Z: its spectra and their verdict."""
    s = reference.system_spectra(field.manifold, field.sample.points[None], field.eta[None], Tolerance(), system)
    return reference.spectrum_report(s[0], Tolerance(), _system_shape(field.manifold, field.k, system))


def summary_value(line, key):
    for token in line.split():
        if token.startswith(key + "="):
            return token.split("=", 1)[1]
    raise KeyError(key)


def read_matrix(path):
    rows = [
        [float(x) for x in line.split(",")]
        for line in path.read_text().splitlines()
        if line and not line.startswith("#")
    ]
    return np.array(rows)


class TestManifoldGrammar:
    def test_sphere(self):
        assert parse_manifold("sphere:2") == UnitSphere(2)

    def test_euclid_with_box(self):
        m = parse_manifold("euclid:3:box=-1,2")
        assert m == Euclidean(3, box=(-1.0, 2.0))
        assert str(m) == "euclid:3"
        assert parse_manifold("euclid:3") == Euclidean(3, box=(0.0, 1.0))

    @pytest.mark.parametrize("bad", ["torus:2", "sphere", "euclid:x", "euclid:2:box=1", "sphere:2:box=0,1"])
    def test_rejects(self, bad):
        with pytest.raises(ValueError):
            parse_manifold(bad)

    @pytest.mark.parametrize("spec", ["sphere:0", "euclid:0", "euclid:-1", "euclid:0:box=0,1"])
    def test_a_bad_dimension_is_the_space_s_own_error(self, spec):
        # the grammar is fine; the space refuses the dimension, with its own message
        with pytest.raises(ValueError, match="^dimension must be positive$"):
            parse_manifold(spec)


class TestRankCommand:
    def test_sphere_distance_kernel_is_full_rank(self, capsys):
        code, out = run(
            capsys,
            "rank", "--manifold", "sphere:2", "--kernel", "sqdist",
            "--k", "50", "--trials", "100", "--seed", "1",
        )
        assert code == 0
        assert float(summary_value(out, "fullrank_fraction")) == 1.0

    def test_plane_kernel_rank_is_constant_four(self, capsys):
        code, out = run(
            capsys,
            "rank", "--manifold", "euclid:2", "--kernel", "sqdist",
            "--k", "10", "--trials", "100", "--seed", "1",
        )
        assert code == 0
        assert summary_value(out, "rank_min") == "4"
        assert summary_value(out, "rank_max") == "4"

    def test_rows_written_deterministically(self, capsys, tmp_path):
        out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = [
            "rank", "--manifold", "sphere:2", "--kernel", "dot:arccos2",
            "--k-list", "5,10", "--trials", "20", "--seed", "3", "--format", "csv",
        ]
        assert main(argv + ["--out", str(out_a)]) == 0
        assert main(argv + ["--out", str(out_b)]) == 0
        capsys.readouterr()
        assert out_a.read_bytes() == out_b.read_bytes()


class TestAlphaCommand:
    def test_sphere_estimate_near_half_pi(self, capsys):
        code, out = run(
            capsys, "alpha", "--manifold", "sphere:2", "--trials", "100000", "--seed", "1"
        )
        assert code == 0
        assert abs(float(summary_value(out, "recommendation")) - 1.5708) <= 0.02
        assert float(summary_value(out, "analytic")) == math.pi / 2

    def test_interval_estimate_near_one_third(self, capsys):
        code, out = run(
            capsys, "alpha", "--manifold", "euclid:1", "--trials", "100000", "--seed", "1"
        )
        assert code == 0
        assert abs(float(summary_value(out, "recommendation")) - 1 / 3) <= 0.01


class TestSampleCommand:
    def test_csv_output_is_reproducible(self, capsys, tmp_path):
        out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["sample", "--manifold", "sphere:2", "--k", "10", "--seed", "7"]
        assert main(argv + ["--out", str(out_a)]) == 0
        assert main(argv + ["--out", str(out_b)]) == 0
        capsys.readouterr()
        assert out_a.read_bytes() == out_b.read_bytes()
        header, *rows = out_a.read_text().strip().split("\n")
        assert header == "x0,x1,x2"
        pts = np.array([[float(x) for x in r.split(",")] for r in rows])
        assert np.allclose(np.linalg.norm(pts, axis=1), 1.0, atol=1e-12)

    def test_jsonl_output_parses(self, capsys, tmp_path):
        out = tmp_path / "pts.jsonl"
        code, _ = run(
            capsys,
            "sample", "--manifold", "euclid:2", "--k", "4", "--seed", "1",
            "--out", str(out), "--format", "jsonl",
        )
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 4
        assert set(json.loads(lines[0])) == {"x0", "x1"}


class TestTensorAndRecover:
    def test_dumped_system_satisfies_forward_model(self, capsys, tmp_path):
        prefix = tmp_path / "sys"
        code, out = run(
            capsys,
            "tensor", "--manifold", "sphere:2", "--k", "8", "--seed", "3",
            "--out", str(prefix),
        )
        assert code == 0
        assert summary_value(out, "rank_Y") == "8"
        Y = read_matrix(tmp_path / "sys.Y.csv")
        C = read_matrix(tmp_path / "sys.C.csv").ravel()
        f0 = read_matrix(tmp_path / "sys.f0.csv").ravel()
        psi = read_matrix(tmp_path / "sys.Psi.csv")
        assert Y.shape == (9 * 8, 8)
        assert np.linalg.norm(Y @ f0 - C) <= 1e-10
        assert np.max(np.abs(psi - psi.T)) <= 1e-12
        first = (tmp_path / "sys.Y.csv").read_text().splitlines()[0]
        assert first.startswith("# covrank Y layout=v1")

    def test_dump_spells_each_double_once(self, capsys, tmp_path, monkeypatch):
        # Y's mirrored row blocks share their spellings and Z is written from Y's, so
        # a dump spells d(d+1)/2 k^2 (Y and Z), k^2 (Psi), 2 d^2 k (C, Sigma) and k (f0)
        # doubles; spelling every entry of Y and Z would take 2 d^2 k^2.  Matrices are
        # spelled by _spell and scalars by fmt17, so the count takes in both.  _spell
        # hands the values it cannot settle to _spelled_exactly, one "%.17g" at a time;
        # a _spell that sent them all there would pass every byte test and be as slow
        import covrank.cli
        import covrank.montecarlo

        spelled, exact = [], []
        fmt17, spell = covrank.montecarlo.fmt17, covrank.cli._spell
        spelled_exactly = covrank.cli._spelled_exactly

        def counting_fmt17(value):
            if isinstance(value, float):
                spelled.append(1)
            return fmt17(value)

        def counting_spell(matrix):
            spelled.append(np.size(matrix))
            return spell(matrix)

        def counting_spelled_exactly(values):
            exact.append(np.size(values))
            return spelled_exactly(values)

        for module in (covrank.cli, covrank.montecarlo):
            monkeypatch.setattr(module, "fmt17", counting_fmt17)
        monkeypatch.setattr(covrank.cli, "_spell", counting_spell)
        monkeypatch.setattr(covrank.cli, "_spelled_exactly", counting_spelled_exactly)
        k, d = 30, 3
        code, _ = run(capsys, "tensor", "--manifold", "sphere:2", "--k", str(k), "--out", str(tmp_path / "sys"))
        assert code == 0
        assert 0 < sum(spelled) <= d * (d + 1) // 2 * k * k + k * k + 2 * d * d * k + k
        assert sum(exact) <= 0.001 * sum(spelled)

    @pytest.mark.parametrize("spec, k", [("sphere:2", 30), ("euclid:3:box=-1,2", 12)])
    def test_dumped_Y_and_Z_are_fmt17_of_each_entry(self, capsys, tmp_path, spec, k):
        # the goldens dump k in {1, 7, 8} only
        code, _ = run(capsys, "tensor", "--manifold", spec, "--k", str(k), "--out", str(tmp_path / "sys"))
        assert code == 0
        manifold = parse_manifold(spec)
        field = outer_field(manifold, manifold.sample_uniform(k, 0, stream=sample_stream(k, 0)))
        for name, matrix in (("Y", assemble_Y(field)), ("Z", assemble_Z(field))):
            header, body = (tmp_path / f"sys.{name}.csv").read_text().split("\n", 1)
            assert header.startswith(f"# covrank {name} layout=v1")
            assert body == "".join(",".join(map(fmt17, row)) + "\n" for row in matrix.tolist())

    def test_dump_peak_memory_stays_near_Y(self, capsys, tmp_path):
        # Y, the fixed-width records of its d(d+1)/2 unique row blocks (2.5x Y's bytes)
        # and the CSV text of one block or a few Z rows at a time peak at 6.17x Y's bytes
        # at this k (4.81x at k = 200, where the fixed costs weigh less); a second copy of
        # the records would pass the 8x bound
        k, d = 120, 3
        argv = ["tensor", "--manifold", "sphere:2", "--k", str(k), "--out", str(tmp_path / "sys")]
        assert main(argv) == 0  # warm: first-call allocations stay out of the peak
        tracemalloc.start()
        try:
            assert main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        capsys.readouterr()
        assert peak <= 8 * 8 * d * d * k * k

    def test_recover_from_sigma_file_round_trips(self, capsys, tmp_path):
        prefix = tmp_path / "sys"
        run(capsys, "tensor", "--manifold", "sphere:2", "--k", "8", "--seed", "3", "--out", str(prefix))
        code, out = run(
            capsys,
            "recover", "--manifold", "sphere:2", "--k", "8", "--seed", "3",
            "--sigma-file", str(tmp_path / "sys.Sigma.csv"),
            "--out", str(tmp_path / "fhat.csv"),
        )
        assert code == 0
        assert summary_value(out, "unique") == "true"
        f_hat = read_matrix(tmp_path / "fhat.csv").ravel()
        f0 = read_matrix(tmp_path / "sys.f0.csv").ravel()
        assert np.linalg.norm(f_hat - f0) / np.linalg.norm(f0) <= 1e-6

    def test_recover_from_asymmetric_sigma_file_matches_full_least_squares(self, capsys, tmp_path):
        # an asymmetric Sigma is no covariance field: its antisymmetric and normal parts
        # leave Y's range, and the solve on the reduced system sees them as the full one does
        k, d = 8, 3
        prefix = tmp_path / "sys"
        run(capsys, "tensor", "--manifold", "sphere:2", "--k", str(k), "--seed", "3", "--out", str(prefix))
        sigmas = read_matrix(tmp_path / "sys.Sigma.csv").reshape(k, d, d)
        sigmas += rng_stream(5).standard_normal(sigmas.shape)
        sigma_file = tmp_path / "asym.Sigma.csv"
        sigma_file.write_text("".join(",".join(f"{v:.17g}" for v in row) + "\n" for row in sigmas.reshape(k * d, d)))
        code, out = run(
            capsys,
            "recover", "--manifold", "sphere:2", "--k", str(k), "--seed", "3",
            "--sigma-file", str(sigma_file), "--out", str(tmp_path / "fhat.csv"),
        )
        assert code == 0
        assert int(summary_value(out, "rank_augmented")) == int(summary_value(out, "rank_Y")) + 1 == k + 1
        Y = read_matrix(tmp_path / "sys.Y.csv")
        c = np.moveaxis(sigmas, 0, -1).ravel()  # layout v1: entry (l*d + m)*k + j
        x, *_ = np.linalg.lstsq(Y, c, rcond=None)
        residual = np.linalg.norm(Y @ x - c)
        assert float(summary_value(out, "residual")) == pytest.approx(residual, rel=1e-10)
        assert np.linalg.norm(read_matrix(tmp_path / "fhat.csv").ravel() - x) <= 1e-10 * np.linalg.norm(x)

    def test_sigma_of_another_sample_is_not_unique(self, capsys, tmp_path):
        # a headerless Sigma dumped at seed 1 is no covariance field of seed 2's sample:
        # Y has full rank, but c leaves its range, so no f solves Y f = c
        run(capsys, "tensor", "--manifold", "sphere:2", "--k", "8", "--seed", "1", "--out", str(tmp_path / "s1"))
        sigma = tmp_path / "stripped.Sigma.csv"
        lines = (tmp_path / "s1.Sigma.csv").read_text().splitlines(keepends=True)
        sigma.write_text("".join(line for line in lines if not line.startswith("#")))
        code, out = run(capsys, "recover", "--manifold", "sphere:2", "--k", "8", "--seed", "2",
                        "--sigma-file", str(sigma))
        assert code == 0
        assert (summary_value(out, "rank_Y"), summary_value(out, "rank_augmented")) == ("8", "9")
        assert summary_value(out, "unique") == "false"

    def test_forward_recovery_on_plane_is_never_unique(self, capsys):
        code, out = run(
            capsys,
            "recover", "--manifold", "euclid:2", "--k", "10", "--trials", "20", "--seed", "2",
        )
        assert code == 0
        assert float(summary_value(out, "unique_fraction")) == 0.0
        assert float(summary_value(out, "max_residual")) <= 1e-10
        assert float(summary_value(out, "borderline_fraction")) == 0.0

    def test_sigma_file_shape_checked(self, capsys, tmp_path):
        bad = tmp_path / "sigma.csv"
        bad.write_text("1.0,2.0\n3.0,4.0\n")
        code = main(
            ["recover", "--manifold", "sphere:2", "--k", "8", "--seed", "3", "--sigma-file", str(bad)]
        )
        capsys.readouterr()
        assert code == 1

    @pytest.mark.parametrize("entry", ["1e20", "1e308"])
    def test_huge_sigma_entry_is_no_covariance_field(self, capsys, tmp_path, entry):
        # the verdict on [Y | c] is that of its direction, not of its scale
        lines = GOLDEN_SIGMA.read_text().splitlines()
        lines[1] = entry + lines[1][lines[1].index(","):]  # the first entry of Sigma_1
        sigma = tmp_path / "Sigma.csv"
        sigma.write_text("\n".join(lines) + "\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["recover", "--manifold", "sphere:2", "--k", "8", "--seed", "3",
                         "--sigma-file", str(sigma)])
        captured = capsys.readouterr()
        assert (code, captured.err, caught) == (0, "", [])
        assert int(summary_value(captured.out, "rank_augmented")) == int(summary_value(captured.out, "rank_Y")) + 1
        assert summary_value(captured.out, "borderline") == "false"


class TestTensorRanks:
    """`tensor` measures Y and Z on orthogonally equivalent reductions; its verdicts must
    be those of the full matrices wherever those are decided."""

    KS = (1, 2, 3, 8, 20, 40)

    @staticmethod
    def summary(capsys, spec, k, seed):
        code, out = run(capsys, "tensor", "--manifold", spec, "--k", str(k), "--seed", str(seed))
        assert code == 0
        return {key: summary_value(out, key) for key in
                ("rank_Y", "rank_Z", "rank_Psi", "borderline_Y", "borderline_Z", "borderline_Psi")}

    @pytest.mark.parametrize("spec", ["sphere:1", "sphere:2", "sphere:3", "euclid:2", "euclid:3"])
    def test_ranks_are_those_of_the_full_matrices(self, capsys, spec):
        manifold = parse_manifold(spec)
        decided = runs = 0
        for k in self.KS:
            for seed in range(4):
                out = self.summary(capsys, spec, k, seed)
                field = outer_field(manifold, manifold.sample_uniform(k, seed, stream=sample_stream(k, 0)))
                psi = rank_report(trace_system(field)[0])
                assert (out["rank_Psi"], out["borderline_Psi"]) == (str(psi.numerical_rank), fmt17(psi.borderline))
                for name, full in (("Y", assemble_Y(field)), ("Z", assemble_Z(field))):
                    report = rank_report(full)
                    runs += 1
                    if not report.borderline:
                        decided += 1
                        assert out[f"rank_{name}"] == str(report.numerical_rank), (k, seed, name)
        assert decided >= runs // 2

    def test_near_antipodal_pair_keeps_the_full_Z(self, capsys):
        # A pair of this circle sample lies pi - 6.4e-5 apart; the round-off normal
        # parts of its log vectors give Z two noise singular values at 3.5 tau and
        # 2.6 tau, so its rank exceeds the proven n k = 20.  Dropping Z's normal
        # columns would hide them: the reduction is refused and the verdict is flagged.
        manifold, k = UnitSphere(1), 20
        sample = manifold.sample_uniform(k, 0, stream=sample_stream(k, 0))
        assert np.pi - manifold.pairwise_distance(sample.points).max() < 1e-4
        field = outer_field(manifold, sample)
        report_Z = system_report(field, "Z")
        assert report_Z.singular_values.shape == (2 * k,)
        full = rank_report(assemble_Z(field))
        assert report_Z.numerical_rank == full.numerical_rank == 22
        out = self.summary(capsys, "sphere:1", k, 0)
        assert (out["rank_Z"], out["borderline_Z"]) == ("22", "true")

    @pytest.mark.parametrize("spec", ["euclid:1", "euclid:2", "euclid:3"])
    def test_euclidean_Z_takes_the_verdict_rule(self, spec):
        # on R^n no column is dropped and Z equals its transpose bit for bit, so its
        # report is rank_report's, whose eigensolve decides here
        manifold, k = parse_manifold(spec), 12
        field = outer_field(manifold, manifold.sample_uniform(k, 0, stream=sample_stream(k, 0)))
        report = system_report(field, "Z")
        Z = assemble_Z(field)
        assert not report.borderline
        assert np.array_equal(report.singular_values, -np.sort(-np.abs(np.linalg.eigvalsh(Z))))
        assert report.numerical_rank == rank_report(Z).numerical_rank

    @pytest.mark.parametrize("spec, k, seed", [("sphere:2", 40, 1), ("sphere:3", 20, 2), ("euclid:3", 20, 0)])
    def test_tau_is_that_of_the_full_matrices(self, spec, k, seed):
        manifold = parse_manifold(spec)
        field = outer_field(manifold, manifold.sample_uniform(k, seed, stream=sample_stream(k, 0)))
        reports = [system_report(field, system) for system in ("Y", "Z")]
        n, d = manifold.n, manifold.coord_dim
        # the reduction was taken: Z's k(d - n) dropped singular values are reported as 0
        assert reports[1].singular_values.shape == (d * k,)
        assert reports[1].singular_values[n * k - 1] > 0 and not reports[1].singular_values[n * k:].any()
        for report, full in zip(reports, (assemble_Y(field), assemble_Z(field))):
            assert report.tolerance_used == pytest.approx(rank_report(full).tolerance_used, rel=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_sphere_Z_rank_is_at_most_nk(self, capsys, n):
        # k points span a great S^min(n, k-1); on S^2 and S^3 the bound is attained there
        for k in self.KS:
            for seed in range(6):
                out = self.summary(capsys, f"sphere:{n}", k, seed)
                if out["borderline_Z"] == "false":
                    assert int(out["rank_Z"]) <= n * k
                    if n > 1:
                        assert int(out["rank_Z"]) == min(n, k - 1) * k


class TestTensorCertificate:
    """`tensor` settles tall full-rank Y and Z reductions by the recovery certificate's
    test (a), one QR and one blocked triangular inverse, and asks the SVD only of the rest."""

    def test_sphere_Y_and_Z_take_no_svd(self, capsys, monkeypatch):
        manifold, k = UnitSphere(2), 200
        svds, inverses = counted_svds(monkeypatch), counted_inverses(monkeypatch)
        code, out = run(capsys, "tensor", "--manifold", "sphere:2", "--k", str(k))
        monkeypatch.undo()
        assert code == 0
        assert "rank_Y=200 rank_Z=400" in out and "borderline_Y=false borderline_Z=false" in out
        field = outer_field(manifold, manifold.sample_uniform(k, 0, stream=sample_stream(k, 0)))
        # an SVD settles Psi where its eigensolve flags it, as it does here; none runs on Y or Z
        psi = trace_system(field)[0]
        assert len(svds) <= 1 and all(np.array_equal(a, psi[None]) for a, _ in svds)
        P, eta = field.sample.points[None], field.eta[None]
        V, _ = _frame_coordinates(manifold, P, eta)
        R = [np.linalg.qr(a, mode="r") for system in ("Y", "Z")
             for _, a in _reduced_stacks(manifold, V, eta, Tolerance(), system)]
        assert [r.shape for r in R] == [(1, k, k), (1, 2 * k, 2 * k)]
        first = int(np.searchsorted(np.cumsum([a.shape[-1] for a in inverses]), k)) + 1
        assert_leaf_inverses(inverses[:first], R[0])
        assert_leaf_inverses(inverses[first:], R[1])

    @pytest.mark.parametrize("spec, k, tried", [("sphere:2", 1, 2), ("euclid:2", 10, 0)])
    def test_ruled_out_systems_are_never_inverted(self, capsys, monkeypatch, spec, k, tried):
        # k = 1 gives all-zero systems, which the diagonal screen stops; on the plane past
        # k = 6 the proven bound rules Y's certificate out, and Z is square
        certify, calls = tensor._certify_columns, []

        def counted(a, policy, shape):
            calls.append(a.shape)
            return certify(a, policy, shape)

        monkeypatch.setattr(tensor, "_certify_columns", counted)
        inverses = counted_inverses(monkeypatch)
        code, out = run(capsys, "tensor", "--manifold", spec, "--k", str(k))
        assert code == 0
        assert (len(calls), inverses) == (tried, [])

    @pytest.mark.parametrize("spec, k, factor", [
        ("sphere:2", 200, "1e308"),  # tau overflows before any certificate
        ("sphere:1", 6, "1e306"),  # 20 t_hi overflows, tau does not
        ("euclid:2", 5, "1e307"),
        ("euclid:3", 8, "1e308"),  # t_hi itself overflows
    ])
    def test_huge_tol_factor_ends_as_without_the_certificate(self, capsys, monkeypatch, spec, k, factor):
        argv = ["tensor", "--manifold", spec, "--k", str(k), "--tol-factor", factor]
        code = main(argv)
        got = (code, *capsys.readouterr())
        monkeypatch.setattr(tensor, "_certify_columns", lambda a, policy, shape: np.zeros(len(a), bool))
        assert got == (main(argv), *capsys.readouterr())
        assert code == (2 if factor == "1e308" else 0)


class TestCondSweepCommand:
    def test_csv_columns_and_determinism(self, capsys, tmp_path):
        out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = [
            "cond-sweep", "--manifold", "sphere:2",
            "--alpha-list", "0,1.5707963267948966", "--k-list", "20,40",
            "--trials", "5", "--seed", "1",
        ]
        assert main(argv + ["--out", str(out_a)]) == 0
        assert main(argv + ["--out", str(out_b)]) == 0
        capsys.readouterr()
        assert out_a.read_bytes() == out_b.read_bytes()
        header = out_a.read_text().split("\n", 1)[0]
        assert header.split(",") == [
            "k", "alpha", "mean_cond", "min_cond", "max_cond",
            "mean_log_abs_det", "fullrank_fraction", "borderline_fraction",
        ]

    def test_jsonl_format(self, capsys, tmp_path):
        out = tmp_path / "rows.jsonl"
        code, _ = run(
            capsys,
            "cond-sweep", "--manifold", "sphere:2", "--alpha", "0.5", "--k", "10",
            "--trials", "3", "--seed", "1", "--out", str(out), "--format", "jsonl",
        )
        assert code == 0
        row = json.loads(out.read_text().strip().split("\n")[0])
        assert row["alpha"] == 0.5

    @pytest.mark.parametrize(
        "shifts, alphas",
        [
            (["--alpha", "-1e-3"], [-1e-3]),
            (["--alpha", "-.5"], [-0.5]),
            (["--alpha-list", "-1,0.5"], [-1.0, 0.5]),
            (["--alpha=-1e-3"], [-1e-3]),
        ],
        ids=["exponent", "leading-point", "list", "equals"],
    )
    def test_negative_shift_as_its_own_word(self, capsys, tmp_path, shifts, alphas):
        out = tmp_path / "rows.csv"
        code, _ = run(capsys, "cond-sweep", "--manifold", "euclid:2", *shifts, "--k", "6", "--trials", "2",
                      "--out", str(out))
        assert code == 0
        assert [float(line.split(",")[1]) for line in out.read_text().splitlines()[1:]] == alphas

    def test_bare_shift_flag_is_refused(self, capsys):
        assert main(["cond-sweep", "--manifold", "euclid:2", "--alpha", "--k", "6"]) == 1
        assert "--alpha: expected one argument" in capsys.readouterr().err


class TestExitCodes:
    @pytest.mark.parametrize(
        "argv",
        [
            ["rank", "--manifold", "bogus:2", "--kernel", "sqdist", "--k", "5"],
            ["rank", "--manifold", "sphere:2", "--kernel", "gauss", "--k", "5"],
            ["rank", "--manifold", "sphere:2", "--kernel", "sqdist"],  # no k
            ["rank", "--manifold", "sphere:2", "--kernel", "sqdist", "--k", "5", "--bogus-flag"],
            ["sample", "--manifold", "sphere:2", "--k", "0"],
            ["cond-sweep", "--manifold", "sphere:2", "--k", "5"],  # no alpha
            ["not-a-command"],
        ],
    )
    def test_validation_errors_exit_one(self, capsys, argv):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert "error" in captured.err

    def test_success_exits_zero(self, capsys):
        assert main(["sample", "--manifold", "sphere:2", "--k", "3"]) == 0
        capsys.readouterr()

    @pytest.mark.parametrize("argv, code, err", [
        (["tensor", "--manifold", "euclid:2", "--k", "5"], 0, ""),
        (["sample", "--manifold", "sphere:0", "--k", "3"], 1, "covrank: error: dimension must be positive\n"),
        # rank Y = 20 under the tiny threshold, above the plane's bound 6
        (["tensor", "--manifold", "euclid:2", "--k", "20", "--tol-factor", "1e-30"], 2,
         "covrank: numerical failure: Y system exceeded its proven rank bound: rank 20 > 6 at k=20\n"),
        # the plane's sqdist has rank <= 4, which the threshold leaves exceeded
        (["rank", "--manifold", "euclid:2", "--kernel", "sqdist", "--k", "12", "--trials", "5",
          "--tol-factor", "1e-30"], 2,
         "covrank: numerical failure: kernel system exceeded its proven rank bound: rank 12 > 4 at k=12\n"),
        (["cond-sweep", "--manifold", "euclid:2", "--k", "12", "--alpha", "0", "--trials", "5",
          "--tol-factor", "1e-30"], 2,
         "covrank: numerical failure: kernel system exceeded its proven rank bound: rank 12 > 4 at k=12\n"),
    ])
    def test_process_exits_with_mains_code(self, tmp_path, argv, code, err):
        # `python -m covrank.cli` runs entry(), as the installed `covrank` script does
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-m", "covrank.cli", *argv], cwd=tmp_path, env=env,
                              capture_output=True, text=True)
        assert (proc.returncode, proc.stderr) == (code, err)
        assert proc.stdout.startswith(argv[0]) == (code == 0)


class TestCliSurface:
    def test_each_command_declares_only_the_flags_it_reads(self):
        # a new flag has to be added here as well, so review sees it as an option to justify
        common = {"-h", "--help", "--manifold", "--seed"}
        reads = {
            "sample": {"--k", "--out", "--format"},
            "rank": {"--kernel", "--k", "--k-list", "--trials", "--tol-factor", "--out", "--format"},
            "tensor": {"--k", "--tol-factor", "--out", "--format"},
            "recover": {"--k", "--trials", "--sigma-file", "--tol-factor", "--out", "--format"},
            "cond-sweep": {"--k", "--k-list", "--alpha", "--alpha-list", "--trials", "--tol-factor",
                           "--out", "--format"},
            "alpha": {"--trials"},
        }
        (commands,) = (a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        declared = {
            name: {flag for action in parser._actions for flag in action.option_strings}
            for name, parser in commands.choices.items()
        }
        assert declared == {name: common | flags for name, flags in reads.items()}

    def test_help_speaks_to_users(self):
        # the module docstring's first paragraph only: the developer notes stay out of --help
        text = " ".join(build_parser().format_help().split())
        assert "Exit codes" in text and "docs/formats.md" in text
        assert "fmt17" not in text and "._" not in text


class TestFailureReports:
    """Each failure exits 1 or 2 with one stderr line: no traceback, no warning."""

    @pytest.mark.parametrize(
        "argv, code",
        [
            # rank-bound violation: a tolerance far below round-off
            (["rank", "--manifold", "euclid:2", "--kernel", "sqdist", "--k", "30",
              "--tol-factor", "1e-30"], 2),
            (["recover", "--manifold", "sphere:2", "--k", "5", "--trials", "0"], 1),
            (["cond-sweep", "--manifold", "sphere:2", "--alpha", "0", "--k", "5", "--trials", "0"], 1),
            # --threads is no option of any command
            (["cond-sweep", "--manifold", "sphere:2", "--alpha", "0", "--k", "5", "--threads", "1"], 1),
            (["recover", "--manifold", "sphere:2", "--k", "5", "--threads", "1"], 1),
            (["rank", "--manifold", "sphere:2", "--kernel", "sqdist", "--k", "5", "--threads", "1"], 1),
            (["sample", "--manifold", "sphere:2", "--k", "5", "--threads", "1"], 1),
            # flags a command would ignore
            (["sample", "--manifold", "sphere:2", "--k", "5", "--tol-factor", "5"], 1),
            (["alpha", "--manifold", "sphere:2", "--trials", "10", "--tol-factor", "5"], 1),
            (["rank", "--manifold", "sphere:2", "--kernel", "sqdist", "--k", "5", "--k-list", "7"], 1),
            (["cond-sweep", "--manifold", "sphere:2", "--alpha", "0", "--alpha-list", "1", "--k", "5"], 1),
            (["recover", "--manifold", "sphere:2", "--k", "8", "--seed", "3",
              "--sigma-file", str(GOLDEN_SIGMA), "--trials", "3"], 1),
            (["alpha", "--manifold", "sphere:2", "--trials", "10", "--out", "alpha.csv"], 1),
            (["tensor", "--manifold", "sphere:2", "--k", "4", "--format", "jsonl"], 1),
            (["recover", "--manifold", "sphere:2", "--k", "8", "--seed", "3",
              "--sigma-file", str(GOLDEN_SIGMA), "--format", "jsonl"], 1),
            # a non-finite tolerance would call every singular value zero
            (["rank", "--manifold", "sphere:2", "--kernel", "sqdist", "--k", "5", "--tol-factor", "nan"], 1),
            # a non-finite sampling box would draw non-finite points
            (["sample", "--manifold", "euclid:2:box=0,inf", "--k", "3", "--out", "s.csv"], 1),
            (["rank", "--manifold", "euclid:2:box=0,inf", "--kernel", "sqdist", "--k", "5"], 1),
            (["alpha", "--manifold", "euclid:2:box=0,inf", "--trials", "10"], 1),
            (["rank", "--manifold", "euclid:2:box=nan,1", "--kernel", "sqdist", "--k", "5"], 1),
            # an explicit --trials 1 is still a --trials, which file mode does not take
            (["recover", "--manifold", "sphere:2", "--k", "8", "--seed", "3",
              "--sigma-file", str(GOLDEN_SIGMA), "--trials", "1"], 1),
            # an --out that cannot be written
            (["rank", "--manifold", "euclid:2", "--kernel", "sqdist", "--k", "5", "--trials", "3",
              "--out", "missing/x.csv"], 1),
            (["tensor", "--manifold", "sphere:2", "--k", "4", "--out", "missing/p"], 1),
            (["sample", "--manifold", "sphere:2", "--k", "3", "--out", "."], 1),
            # a seed is one 64-bit Philox key word
            (["sample", "--manifold", "sphere:2", "--k", "3", "--seed", str(2**64)], 1),
            (["rank", "--manifold", "sphere:2", "--kernel", "sqdist", "--k", "5", "--seed", str(2**64)], 1),
            # a Sigma dump of another sample: its header names another seed, k or space
            (["recover", "--manifold", "sphere:2", "--k", "8", "--seed", "2",
              "--sigma-file", str(GOLDEN_SIGMA)], 1),
            (["recover", "--manifold", "sphere:2", "--k", "9", "--seed", "3",
              "--sigma-file", str(GOLDEN_SIGMA)], 1),
            (["recover", "--manifold", "euclid:3", "--k", "8", "--seed", "3",
              "--sigma-file", str(GOLDEN_SIGMA)], 1),
            # overflow in a finite box or kernel shift is a numerical failure, not a warning
            (["recover", "--manifold", "euclid:2:box=-1e200,1e200", "--k", "4", "--trials", "2"], 2),
            (["alpha", "--manifold", "euclid:2:box=0,1e308", "--trials", "3"], 2),
            (["rank", "--manifold", "sphere:2", "--kernel", "shifted:1e200", "--k", "5"], 2),
            (["tensor", "--manifold", "euclid:2:box=-1e200,1e200", "--k", "4"], 2),
            (["cond-sweep", "--manifold", "euclid:2:box=-1e200,1e200", "--alpha", "0", "--k", "4",
              "--trials", "2"], 2),
            # a Sigma file of finite values whose products overflow
            (["recover", "--manifold", "sphere:2", "--k", "3", "--sigma-file", "huge.csv"], 2),
            # a box side whose eps side^2 underflows: every distance's round-off is lost
            (["sample", "--manifold", "euclid:2:box=0,1e-155", "--k", "3"], 1),
            (["rank", "--manifold", "euclid:2:box=0,1e-155", "--kernel", "sqdist", "--k", "5"], 1),
            (["tensor", "--manifold", "euclid:2:box=0,1e-155", "--k", "8"], 1),
            (["recover", "--manifold", "euclid:2:box=0,1e-170", "--k", "8"], 1),
            (["cond-sweep", "--manifold", "euclid:2:box=0,1e-155", "--alpha", "0", "--k", "5"], 1),
            (["alpha", "--manifold", "euclid:2:box=0,1e-155", "--trials", "10"], 1),
            # ranks above the bounds the space proves, under a tolerance far below round-off
            (["tensor", "--manifold", "euclid:2", "--k", "20", "--tol-factor", "1e-30"], 2),
            (["recover", "--manifold", "euclid:2", "--k", "20", "--tol-factor", "1e-30", "--out", "r.csv"], 2),
            # a dimension the space refuses
            (["sample", "--manifold", "sphere:0", "--k", "3"], 1),
            (["rank", "--manifold", "euclid:0", "--kernel", "sqdist", "--k", "5"], 1),
            # lists, specs and files the parsers refuse
            (["rank", "--manifold", "euclid:2", "--kernel", "sqdist", "--k-list", "3,x", "--trials", "2"], 1),
            (["cond-sweep", "--manifold", "euclid:2", "--k", "3", "--alpha-list", "0,x", "--trials", "2"], 1),
            (["sample", "--manifold", "euclid:2:foo=1", "--k", "3"], 1),
            (["recover", "--manifold", "euclid:2", "--k", "3", "--sigma-file", "missing.csv"], 1),
            (["recover", "--manifold", "euclid:2", "--k", "3", "--sigma-file", "bad.csv"], 1),
            # a k of 2**31 has no stream index
            (["tensor", "--manifold", "euclid:2", "--k", str(2**31)], 1),
        ],
        ids=["rank-bound", "recover-trials", "cond-trials", "cond-threads", "recover-threads",
             "rank-threads", "sample-threads", "sample-tol", "alpha-tol", "rank-k-pair",
             "cond-alpha-pair", "recover-file-trials", "alpha-out", "tensor-jsonl",
             "recover-file-jsonl", "rank-tol-nan", "sample-box-inf", "rank-box-inf", "alpha-box-inf",
             "rank-box-nan", "recover-file-trials-1", "rank-out-missing-dir", "tensor-out-missing-dir",
             "sample-out-dir", "sample-seed-2**64", "rank-seed-2**64", "recover-file-seed",
             "recover-file-k", "recover-file-manifold", "recover-overflow",
             "alpha-overflow", "rank-shift-overflow", "tensor-overflow", "cond-overflow",
             "recover-file-overflow", "sample-box-tiny",
             "rank-box-tiny", "tensor-box-tiny", "recover-box-tiny", "cond-box-tiny", "alpha-box-tiny",
             "tensor-bound", "recover-bound", "sample-sphere-0", "rank-euclid-0", "rank-k-list-bad",
             "cond-alpha-list-bad", "sample-spec-bad", "recover-file-missing", "recover-file-bad",
             "tensor-k-2**31"],
    )
    def test_one_line_and_exit_code(self, capsys, monkeypatch, tmp_path, argv, code):
        monkeypatch.chdir(tmp_path)  # a wrongly accepted --out writes here
        (tmp_path / "bad.csv").write_text("1,2,x\n")
        (tmp_path / "huge.csv").write_text("1e307,-1.7e308,1e307\n" * 9)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(argv) == code
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and captured.err.startswith("covrank: ")
        assert "Traceback" not in captured.err
        assert caught == []

    def test_psi_above_the_bound_is_a_numerical_failure(self, capsys, monkeypatch):
        # a sqdist law one below the plane's Psi rank 4; the Y and Z laws stay as declared
        declared = Euclidean._proven_ranks
        monkeypatch.setattr(Euclidean, "_proven_ranks", lambda self: {**declared(self), "sqdist": self.n + 1})
        assert main(["tensor", "--manifold", "euclid:2", "--k", "5"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "covrank: numerical failure: Psi system exceeded its proven rank bound: rank 4 > 3 at k=5\n"

    def test_recover_file_above_the_bound_is_a_numerical_failure(self, capsys, monkeypatch, tmp_path):
        # a Y of rank 6 on euclid:2, read back under a tolerance that counts round-off
        monkeypatch.chdir(tmp_path)
        assert main(["tensor", "--manifold", "euclid:2", "--k", "20", "--out", "p"]) == 0
        capsys.readouterr()
        assert main(["recover", "--manifold", "euclid:2", "--k", "20", "--sigma-file", "p.Sigma.csv",
                     "--tol-factor", "1e-30", "--out", "f.csv"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and not (tmp_path / "f.csv").exists()
        assert captured.err == "covrank: numerical failure: Y system exceeded its proven rank bound: rank 20 > 6 at k=20\n"

    @pytest.mark.parametrize("field, value, want", [("layout", "v0", "v1"), ("seed", "2", "3")])
    def test_sigma_file_of_another_dump_names_the_field(self, capsys, tmp_path, field, value, want):
        # the dump's header says which sample its Sigma belongs to; a recover of another
        # sample would solve a system that is no covariance field of it
        header, body = GOLDEN_SIGMA.read_text().split("\n", 1)
        header = " ".join(f"{field}={value}" if t.startswith(f"{field}=") else t for t in header.split())
        sigma = tmp_path / "Sigma.csv"
        sigma.write_text(header + "\n" + body)
        argv = ["recover", "--manifold", "sphere:2", "--k", "8", "--seed", "3", "--sigma-file", str(sigma)]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"covrank: error: {sigma} was dumped with {field}={value}, not {field}={want}\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["rank", "--manifold", "sphere:2", "--kernel", "shifted:nan", "--k", "5"],
            ["rank", "--manifold", "sphere:2", "--kernel", "shifted:inf", "--k", "5"],
            ["rank", "--manifold", "sphere:2", "--kernel", "shifted:1e400", "--k", "5"],
            ["cond-sweep", "--manifold", "sphere:2", "--alpha", "nan", "--k", "5"],
            ["cond-sweep", "--manifold", "sphere:2", "--alpha-list=-1,inf", "--k", "5"],
            ["cond-sweep", "--manifold", "sphere:2", "--alpha=-1e400", "--k", "5"],
        ],
        ids=["rank-nan", "rank-inf", "rank-1e400", "cond-nan", "cond-list-inf", "cond-minus-1e400"],
    )
    def test_non_finite_shift_is_refused_before_sampling(self, capsys, monkeypatch, argv):
        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled before the shift was checked")

        monkeypatch.setattr(UnitSphere, "sample_batch", no_sampling)
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert "alpha must be finite, got " in captured.err

    def test_linalg_error_is_a_numerical_failure(self, capsys, monkeypatch):
        # LinAlgError is a ValueError, yet it reports a failed factorization, not a bad input
        def no_convergence(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        # a symmetric kernel stack is eigensolved first, and only flagged trials reach the SVD
        monkeypatch.setattr(np.linalg, "svd", no_convergence)
        monkeypatch.setattr(np.linalg, "eigvalsh", no_convergence)
        assert main(["rank", "--manifold", "sphere:2", "--kernel", "sqdist", "--k", "5", "--trials", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "covrank: numerical failure: SVD did not converge\n"

    def test_linalg_error_in_an_escalated_trial_is_a_numerical_failure(self, capsys, monkeypatch):
        # trial 3 of euclid:3 sqdist at k = 12, seed 3, is flagged by the eigensolve,
        # so its SVD rung runs, and fails
        eigensolves = []

        def counted(a, *args, **kwargs):
            eigensolves.append(a.shape)
            return eigvalsh(a, *args, **kwargs)

        def no_convergence(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        monkeypatch.setattr(np.linalg, "svd", no_convergence)
        argv = ["rank", "--manifold", "euclid:3", "--kernel", "sqdist", "--k", "12", "--trials", "4",
                "--seed", "3"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert eigensolves == [(4, 12, 12)]
        assert captured.out == ""
        assert captured.err == "covrank: numerical failure: SVD did not converge\n"

    @pytest.mark.parametrize(
        "message, err",
        [
            ("Unable to allocate 298. GiB for an array with shape (200000, 200000, 3) and data type float64",
             "covrank: error: Unable to allocate 298. GiB for an array with shape (200000, 200000, 3)"
             " and data type float64\n"),
            ("", "covrank: error: MemoryError\n"),
        ],
        ids=["numpy", "bare"],
    )
    def test_memory_error_is_a_validation_error(self, capsys, monkeypatch, message, err):
        # a --k too large to hold; stubbed, since whether a real allocation is refused
        # depends on the host's overcommit setting
        def out_of_memory(*args, **kwargs):
            raise MemoryError(message)

        monkeypatch.setattr("covrank.cli.outer_field", out_of_memory)
        assert main(["tensor", "--manifold", "sphere:2", "--k", "5"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == err
