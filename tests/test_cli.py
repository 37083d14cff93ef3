import argparse
import json
import math
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from covrank.cli import build_parser, main, parse_manifold
from covrank import Euclidean, UnitSphere, assemble_Y, assemble_Z, outer_field, rng_stream
from covrank.montecarlo import fmt17, sample_stream

# a k = 8 Sigma dump of sphere:2 at seed 3 (see test_golden.py)
GOLDEN_SIGMA = Path(__file__).parent / "golden" / "tensor.Sigma.csv"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out.strip()
    return code, out


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
        with pytest.raises(Exception):
            parse_manifold(bad)


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
        # Y, Z's fixed-width spellings (3x Y's bytes) and the lines of Y's unique row
        # blocks (1.8x) peak at 6.7x, stacked spellings of Y copied into Z's order at 7.3x;
        # a tolist() of the whole of Z takes the peak to 12.4x
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
        assert peak <= 10 * 8 * d * d * k * k

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
            # overflow in a finite box or kernel shift is a numerical failure, not a warning
            (["recover", "--manifold", "euclid:2:box=-1e200,1e200", "--k", "4", "--trials", "2"], 2),
            (["alpha", "--manifold", "euclid:2:box=0,1e308", "--trials", "3"], 2),
            (["rank", "--manifold", "sphere:2", "--kernel", "shifted:1e200", "--k", "5"], 2),
            (["tensor", "--manifold", "euclid:2:box=-1e200,1e200", "--k", "4"], 2),
        ],
        ids=["rank-bound", "recover-trials", "cond-trials", "cond-threads", "recover-threads",
             "rank-threads", "sample-threads", "sample-tol", "alpha-tol", "rank-k-pair",
             "cond-alpha-pair", "recover-file-trials", "alpha-out", "tensor-jsonl",
             "recover-file-jsonl", "rank-tol-nan", "sample-box-inf", "rank-box-inf", "alpha-box-inf",
             "rank-box-nan", "recover-file-trials-1", "rank-out-missing-dir", "tensor-out-missing-dir",
             "sample-out-dir", "sample-seed-2**64", "rank-seed-2**64", "recover-overflow",
             "alpha-overflow", "rank-shift-overflow", "tensor-overflow"],
    )
    def test_one_line_and_exit_code(self, capsys, monkeypatch, tmp_path, argv, code):
        monkeypatch.chdir(tmp_path)  # a wrongly accepted --out writes here
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(argv) == code
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and captured.err.startswith("covrank: ")
        assert "Traceback" not in captured.err
        assert caught == []

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

        monkeypatch.setattr(np.linalg, "svd", no_convergence)
        assert main(["rank", "--manifold", "sphere:2", "--kernel", "sqdist", "--k", "5", "--trials", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "covrank: numerical failure: SVD did not converge\n"
