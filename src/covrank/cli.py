"""Command-line surface: sampling, rank measurement, tensor assembly,
recovery, condition sweeps, and the shift recommendation.

Every subcommand is deterministic given its argv (seeds default to 0), and
numeric output uses 17 significant digits, so reruns produce byte-identical
files.  Matrix dumps spell each row with one "%.17g" template, the bytes fmt17
gives value by value.  Exit codes: 0 success, 1 validation error, 2 numerical failure.
File formats and layouts are documented in docs/formats.md.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import fields
from pathlib import Path
from typing import Iterable

import numpy as np

from .kernels import parse_kernel
from .manifold import Euclidean, UnitSphere, rng_stream
from .montecarlo import (
    ExperimentConfig,
    RankBoundError,
    _table,
    alpha_recommendation,
    aux_stream,
    condition_sweep,
    fmt17,
    rank_law_sweep,
    recovery_experiment,
    rows_to_csv,
    rows_to_jsonl,
    sample_stream,
)
from .numrank import Tolerance, rank_report
from .tensor import (
    LAYOUT_VERSION,
    CovField,
    _Z_of_Y,
    assemble_Y,
    outer_field,
    recover,
    sigma_field,
    trace_system,
    unfold_C,
)

__all__ = ["main", "entry", "parse_manifold"]


class CliError(Exception):
    """Bad flags or unparsable input; maps to exit code 1."""


class NumericalFailure(Exception):
    """NaN in computed results; maps to exit code 2."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliError(message)


def parse_manifold(text: str):
    """Parse 'sphere:<n>' or 'euclid:<n>[:box=a,b]' into a manifold."""
    kind, *rest = text.split(":")
    try:
        if kind == "sphere" and len(rest) == 1:
            return UnitSphere(int(rest[0]))
        if kind == "euclid" and len(rest) == 1:
            return Euclidean(int(rest[0]))
        if kind != "euclid" or len(rest) != 2 or not rest[1].startswith("box="):
            raise ValueError
        n, box = int(rest[0]), tuple(float(x) for x in rest[1][4:].split(","))
    except ValueError:
        raise CliError(
            f"bad manifold spec {text!r}; expected sphere:<n> or euclid:<n>[:box=a,b]"
        ) from None
    return Euclidean(n, box=box)  # a degenerate box raises its own ValueError


def _int_list(text: str) -> list[int]:
    try:
        return [int(x) for x in text.split(",") if x]
    except ValueError:
        raise CliError(f"bad integer list {text!r}") from None


def _float_list(text: str) -> list[float]:
    try:
        return [float(x) for x in text.split(",") if x]
    except ValueError:
        raise CliError(f"bad float list {text!r}") from None


def _k_values(args) -> list[int]:
    return _int_list(args.k_list) if args.k_list is not None else [args.k]


def _check_no_nan(rows):
    for row in rows:
        for f in fields(row):
            v = getattr(row, f.name)
            if isinstance(v, float) and math.isnan(v):
                raise NumericalFailure(f"result column {f.name} is NaN")


def _write_rows(args, rows) -> str:
    if not args.out:
        return ""
    text = rows_to_csv(rows) if args.format == "csv" else rows_to_jsonl(rows)
    Path(args.out).write_text(text)
    return f" out={args.out}"


def _header(name: str, meta: str) -> str:
    return f"# covrank {name} layout={LAYOUT_VERSION} {meta}\n"


def _write_matrix(path: str, name: str, meta: str, lines: Iterable[str]) -> None:
    """Write a matrix CSV: its header line, then the spelled lines as they stream in."""
    with open(path, "w", encoding="ascii", newline="") as fh:
        fh.write(_header(name, meta))
        fh.writelines(lines)


def _spelled_lines(matrix: np.ndarray) -> list[str]:
    """The CSV lines of a float matrix, each row spelled by one % of a "%.17g,...\n"
    template: the bytes fmt17 gives value by value, at a fraction of its calls."""
    matrix = np.atleast_2d(matrix)
    template = ",".join(["%.17g"] * matrix.shape[1]) + "\n"
    return [template % tuple(row) for row in matrix.tolist()]


def _write_Y_and_Z(prefix: str, Y: np.ndarray, d: int, meta: str) -> None:
    """Write layout-v1 Y and Z from one spelling of each of Y's d(d+1)/2 unique row
    blocks: blocks (a, b) and (b, a) hold the same doubles, and Z[r*d + a, s*d + b] =
    Y[(a*d + b)*k + s, r].  Z's fields are fixed-width bytes, joined one row at a time:
    a tolist() of the whole of Z takes peak memory from 6.7x Y's bytes to 12.4x."""
    k = Y.shape[1]
    Y4 = Y.reshape(d, d, k, k)
    Z4 = np.empty((k, d, k, d), dtype="S24")  # %.17g is at most 24 bytes: -2.2250738585072014e-308
    blocks = {}
    for a in range(d):
        for b in range(a, d):
            blocks[a, b] = blocks[b, a] = lines = _spelled_lines(Y4[a, b])
            for s, line in enumerate(lines):  # line s of block (a, b) is Y[(a*d + b)*k + s, :]
                Z4[:, a, s, b] = Z4[:, b, s, a] = line[:-1].encode().split(b",")
    Y_lines = (line for a in range(d) for b in range(d) for line in blocks[a, b])
    _write_matrix(f"{prefix}.Y.csv", "Y", meta, Y_lines)
    Z_lines = (b",".join(row.tolist()).decode() + "\n" for row in Z4.reshape(k * d, k * d))
    _write_matrix(f"{prefix}.Z.csv", "Z", meta, Z_lines)


def _dump_meta(manifold, d: int, args) -> str:
    return f"manifold={manifold} k={args.k} d={d} seed={args.seed}"


def _trial0_sample(manifold, args):
    # the trial-0 stream: the same points experiment trial 0 sees at this (k, seed)
    return manifold.sample_uniform(args.k, args.seed, stream=sample_stream(args.k, 0))


def _read_matrix_csv(path: str) -> np.ndarray:
    try:
        rows = []
        for line in Path(path).read_text().splitlines():
            if not line or line.startswith("#"):
                continue
            rows.append([float(x) for x in line.split(",")])
        return np.array(rows)
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from None
    except ValueError:
        raise CliError(f"{path} is not a numeric CSV matrix") from None


# --- subcommands ---------------------------------------------------------


def cmd_sample(args) -> str:
    manifold = parse_manifold(args.manifold)
    sample = _trial0_sample(manifold, args)
    wrote = ""
    if args.out:
        names = [f"x{i}" for i in range(manifold.coord_dim)]
        Path(args.out).write_text(_table(names, sample.points.tolist(), args.format))
        wrote = f" out={args.out}"
    return f"sample manifold={manifold} k={args.k} seed={args.seed} coord_dim={manifold.coord_dim}{wrote}"


def cmd_rank(args) -> str:
    manifold = parse_manifold(args.manifold)
    kernel = parse_kernel(args.kernel, manifold)
    cfg = ExperimentConfig(
        manifold=manifold,
        kernel=kernel,
        k_values=tuple(_k_values(args)),
        trials=args.trials,
        seed=args.seed,
        tolerance=Tolerance(args.tol_factor),
    )
    rows = rank_law_sweep(cfg, "kernel")
    _check_no_nan(rows)
    wrote = _write_rows(args, rows)
    return (
        f"rank manifold={manifold} kernel={kernel} trials={args.trials} seed={args.seed}"
        f" ks={','.join(str(r.k) for r in rows)}"
        f" rank_min={min(r.rank_min for r in rows)}"
        f" rank_max={max(r.rank_max for r in rows)}"
        f" fullrank_fraction={fmt17(min(r.fullrank_fraction for r in rows))}"
        f" borderline_fraction={fmt17(max(r.borderline_fraction for r in rows))}{wrote}"
    )


def cmd_tensor(args) -> str:
    manifold = parse_manifold(args.manifold)
    field = outer_field(manifold, _trial0_sample(manifold, args))
    f0 = rng_stream(args.seed, aux_stream(args.k, 0)).random(args.k)
    cov = sigma_field(field, f0)
    Y = assemble_Y(field)
    psi, _ = trace_system(field)
    C = unfold_C(cov)
    policy = Tolerance(args.tol_factor)
    rank_Y = rank_report(Y, policy).numerical_rank
    rank_Z = rank_report(_Z_of_Y(Y), policy).numerical_rank
    rank_psi = rank_report(psi, policy).numerical_rank
    wrote = ""
    if args.out:
        meta = _dump_meta(manifold, field.d, args)
        out = Path(args.out)
        _write_Y_and_Z(str(out), Y, field.d, meta)
        for name, data in (
            ("Psi", psi),
            ("C", C.reshape(-1, 1)),
            ("Sigma", cov.sigmas.reshape(args.k * field.d, field.d)),
            ("f0", f0.reshape(-1, 1)),
        ):
            _write_matrix(f"{out}.{name}.csv", name, meta, _spelled_lines(data))
        wrote = f" out={out}.*.csv"
    return (
        f"tensor manifold={manifold} k={args.k} seed={args.seed} d={field.d}"
        f" rank_Y={rank_Y} rank_Z={rank_Z} rank_Psi={rank_psi}{wrote}"
    )


def cmd_recover(args) -> str:
    manifold = parse_manifold(args.manifold)
    policy = Tolerance(args.tol_factor)
    if args.sigma_file:
        if args.format != "csv":
            raise CliError("recover --sigma-file writes CSV only; --format jsonl is not supported")
        field = outer_field(manifold, _trial0_sample(manifold, args))
        d = field.d
        sigmas = _read_matrix_csv(args.sigma_file)
        if sigmas.shape != (args.k * d, d):
            raise CliError(
                f"sigma file must hold k*d x d = {args.k * d} x {d} values, got {sigmas.shape}"
            )
        result = recover(field, CovField(sigmas=sigmas.reshape(args.k, d, d)), policy)
        if not np.all(np.isfinite(result.f_hat)):
            raise NumericalFailure("recovered f contains non-finite entries")
        if args.out:
            meta = _dump_meta(manifold, d, args)
            _write_matrix(args.out, "f_hat", meta, _spelled_lines(result.f_hat.reshape(-1, 1)))
        return (
            f"recover mode=file manifold={manifold} k={args.k} seed={args.seed}"
            f" residual={fmt17(result.residual)} rank_Y={result.rank_Y}"
            f" rank_augmented={result.rank_augmented} unique={fmt17(result.unique)}"
            f" borderline={fmt17(result.borderline)}"
        )
    trials = 1 if args.trials is None else args.trials
    rows = recovery_experiment(manifold, args.k, trials, args.seed, policy)
    _check_no_nan(rows)
    wrote = _write_rows(args, rows)
    return (
        f"recover mode=forward manifold={manifold} k={args.k} trials={trials}"
        f" seed={args.seed} unique_fraction={fmt17(sum(r.unique for r in rows) / len(rows))}"
        f" max_rel_error={fmt17(max(r.rel_error for r in rows))}"
        f" max_residual={fmt17(max(r.residual for r in rows))}"
        f" borderline_fraction={fmt17(sum(r.borderline for r in rows) / len(rows))}{wrote}"
    )


def cmd_cond_sweep(args) -> str:
    manifold = parse_manifold(args.manifold)
    alphas = _float_list(args.alpha_list) if args.alpha_list is not None else [args.alpha]
    rows = condition_sweep(
        manifold,
        alphas,
        _k_values(args),
        args.trials,
        args.seed,
        tolerance=Tolerance(args.tol_factor),
    )
    _check_no_nan(rows)
    wrote = _write_rows(args, rows)
    return (
        f"cond-sweep manifold={manifold} trials={args.trials} seed={args.seed}"
        f" rows={len(rows)} min_mean_cond={fmt17(min(r.mean_cond for r in rows))}"
        f" max_mean_cond={fmt17(max(r.mean_cond for r in rows))}{wrote}"
    )


def cmd_alpha(args) -> str:
    manifold = parse_manifold(args.manifold)
    value = alpha_recommendation(manifold, args.trials, args.seed)
    if math.isnan(value):
        raise NumericalFailure("alpha recommendation is NaN")
    analytic = f" analytic={fmt17(math.pi / 2)}" if isinstance(manifold, UnitSphere) else ""
    return (
        f"alpha manifold={manifold} trials={args.trials} seed={args.seed}"
        f" recommendation={fmt17(value)}{analytic}"
    )


# --- parser --------------------------------------------------------------


def _add_common(p, *, kernel=False, k=False, k_list=False, alphas=False, trials=None, tol=False,
                formats=("csv", "jsonl")):
    """Declare on p only the flags its command reads, so argparse refuses the rest."""
    p.add_argument("--manifold", required=True, help="sphere:<n> or euclid:<n>[:box=a,b]")
    if kernel:
        p.add_argument("--kernel", required=True, help="sqdist | shifted:<alpha> | dot:{arccos,arccos2,cos}")
    if k_list:
        ks = p.add_mutually_exclusive_group(required=True)
        ks.add_argument("--k", type=int, help="sample size")
        ks.add_argument("--k-list", help="comma-separated sample sizes")
    elif k:
        p.add_argument("--k", type=int, required=True, help="sample size")
    if alphas:
        shifts = p.add_mutually_exclusive_group(required=True)
        shifts.add_argument("--alpha", type=float, help="distance shift")
        shifts.add_argument("--alpha-list", help="comma-separated shifts")
    if trials is not None:
        p.add_argument("--trials", type=int, default=trials, help="Monte Carlo trials")
    p.add_argument("--seed", type=int, default=0, help="master RNG seed")
    if tol:
        p.add_argument("--tol-factor", type=float, default=None, help="relative rank tolerance factor")
    if formats:
        p.add_argument("--out", default=None, help="output file (or prefix for tensor)")
        p.add_argument("--format", choices=formats, default="csv")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="covrank", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample", help="draw a reproducible uniform sample")
    _add_common(p, k=True)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("rank", help="numerical-rank statistics of kernel matrices")
    _add_common(p, kernel=True, k_list=True, trials=100, tol=True)
    p.set_defaults(func=cmd_rank)

    p = sub.add_parser("tensor", help="assemble and dump the Y/Z/Psi systems of one sample")
    _add_common(p, k=True, tol=True, formats=("csv",))
    p.set_defaults(func=cmd_tensor)

    p = sub.add_parser("recover", help="recover f from a covariance field")
    _add_common(p, k=True, tol=True)
    # file mode solves the one system in the file, so --trials belongs to forward mode only;
    # its default is None because argparse takes an explicit "--trials 1" for the default 1
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--trials", type=int, default=None, help="Monte Carlo trials (default 1)")
    mode.add_argument("--sigma-file", default=None, help="CSV of k*d x d stacked Sigma blocks")
    p.set_defaults(func=cmd_recover)

    p = sub.add_parser("cond-sweep", help="condition numbers of shifted-distance matrices")
    _add_common(p, k_list=True, alphas=True, trials=20, tol=True)
    p.set_defaults(func=cmd_cond_sweep)

    p = sub.add_parser("alpha", help="recommend the distance shift E d(X, Y)")
    _add_common(p, trials=100000, formats=())
    p.set_defaults(func=cmd_alpha)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "k", None) is not None and args.k < 1:
            raise CliError("--k must be at least 1")
        # overflow and NaN-making operations raise instead of warning, so they end in one line
        with np.errstate(over="raise", invalid="raise"):
            summary = args.func(args)
    # ahead of the ValueError clause, since numpy's LinAlgError subclasses ValueError
    except (NumericalFailure, RankBoundError, FloatingPointError, np.linalg.LinAlgError) as exc:
        print(f"covrank: numerical failure: {exc}", file=sys.stderr)
        return 2
    except (CliError, ValueError, OSError) as exc:  # OSError: an --out that cannot be written
        print(f"covrank: error: {exc}", file=sys.stderr)
        return 1
    print(summary)
    return 0


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
