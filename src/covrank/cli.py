"""Command-line surface: sampling, rank measurement, tensor assembly,
recovery, condition sweeps, and the shift recommendation.

Every subcommand is deterministic given its argv (seeds default to 0), and
numeric output uses 17 significant digits, so reruns produce byte-identical
files.  Row tables spell each value with fmt17.  Matrix dumps spell whole arrays
at once with a vectorised speller that gives the bytes of "%.17g", fmt17's, and
hands the rare values it cannot settle exactly to "%.17g" itself.  Exit codes: 0
success, 1 validation error, 2 numerical failure.
File formats and layouts are documented in docs/formats.md.
"""

from __future__ import annotations

import argparse
import functools
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


# --- the matrix speller --------------------------------------------------
#
# A record holds one value's "%.17g" bytes at fixed places, NUL everywhere else:
# byte 0 its sign, bytes 1-5 the "0.000" that starts a fixed spelling below 1, bytes
# 6-23 its 17 digits with the '.' between them (the digits after it move up one),
# bytes 24-28 "e" and the signed exponent of two or three digits, and byte 29 the
# separator.  Dropping the NULs of a matrix's records gives its CSV text.
_DIGITS, _EXPONENT, _WIDTH = 6, 24, 30
_SLAB = 8192  # values spelled per pass: a pass's temporaries stay near 1 MB
_NORMAL = (np.finfo(np.float64).tiny, np.finfo(np.float64).max)


@functools.cache
def _exponent_tables() -> tuple[np.ndarray, ...]:
    """For every decimal exponent E of a normal double, log10's misses by one included,
    at index E + 309: hi, lo and e2 with 10**(16 - E) = (hi + lo) * 2**e2 within
    2**-106 relative and 1 <= hi < 2, and the (5,) bytes of "e%+03d" % E, the
    exponent of a scientific "%.17g".  Built from exact integers on the first call,
    not at import."""
    rows = []
    for E in range(-309, 310):
        s = 16 - E
        shift = 0 if s >= 0 else 128 + 4 * -s  # 10**s = M / 2**shift, M of 128 bits or more
        M = 10**s if s >= 0 else (1 << shift) // 10**-s
        b = M.bit_length() - 128
        top = M >> b if b >= 0 else M << -b  # M's leading 128 bits
        hi = float(top)
        rows.append((math.ldexp(hi, -127), math.ldexp(float(top - int(hi)), -127), b - shift + 127,
                     b"e%+03d" % E))
    hi, lo, e2, suffix = (np.array(column) for column in zip(*rows))
    tables = hi, lo, e2, suffix.view(np.uint8).reshape(-1, 5)
    for table in tables:
        table.setflags(write=False)
    return tables


def _spelled_exactly(values: np.ndarray) -> np.ndarray:
    """Records of values spelled one at a time by Python's own "%.17g": the exact path
    for the values the vectorised one leaves, subnormals, non-finite values and ties."""
    out = np.zeros((values.size, _WIDTH), np.uint8)
    # no double needs more than 24 bytes: -2.2250738585072014e-308
    spelled = np.array([b"%.17g" % v for v in values.tolist()], dtype="S24")
    out[:, :24] = spelled.view(np.uint8).reshape(-1, 24)
    return out


def _spell_slab(x: np.ndarray, out: np.ndarray) -> None:
    """Write the records of the doubles x (n,) into out (n, _WIDTH), which holds NULs."""
    a = np.abs(x)
    zero = a == 0
    normal = (a >= _NORMAL[0]) & (a <= _NORMAL[1])  # false for nan and inf
    a[~normal] = 1.0
    E = np.floor(np.log10(a)).astype(np.int64)
    hi, lo, e2, suffix = _exponent_tables()
    hi, lo, e2 = hi[E + 309], lo[E + 309], e2[E + 309]
    # y = a * 10**(16 - E) = m * (hi + lo) * 2**(ea + e2) as a double-double yh + yl,
    # off by less than 2**-46; numpy has no fused multiply-add, so Dekker's split
    # gives the exact error of the product m * hi
    m, ea = np.frexp(a)
    p = m * hi
    c = m * 134217729.0
    mh = c - (c - m)
    ml = m - mh
    c = hi * 134217729.0
    hh = c - (c - hi)
    hl = hi - hh
    t = ((((mh * hh - p) + mh * hl) + ml * hh) + ml * hl) + m * lo
    yh = p + t
    scale = ((ea + e2 + 1023) << 52).view(np.float64)  # 2.0**(ea + e2) from its exponent bits
    yl = (t - (yh - p)) * scale
    yh *= scale
    below = np.floor(yl)
    frac = yl - below
    N = yh.astype(np.int64) + below.astype(np.int64)  # floor(y); yh is an integer from 2**53 up
    # a log10 off by one puts floor(y) outside [10**16, 10**17), and round(y) is exact
    # only away from a tie; those values, subnormals and non-finite ones take the exact
    # path, and so would a round up to 10**17, which needs a double within 5e-18 below
    # a power of ten and a log10 that missed it
    slow = ~zero & (~normal | (np.abs(frac - 0.5) < 1e-9) | (N < 10**16))
    N += frac > 0.5
    slow |= N >= 10**17
    N[zero] = 0
    E[zero] = 0

    # the 17 digits, peeled by uint32 // 10 (numpy's % is far slower) from N's two
    # halves into rows 1-17 of a table whose first and last rows stay NUL
    padded = np.zeros((19, x.size), np.uint8)
    D = padded[1:18]
    high = (N // 10**8).astype(np.uint32)
    v = (N - high.astype(np.int64) * 10**8).astype(np.uint32)
    for j in range(16, -1, -1):
        if j == 8:
            v = high
        q = v // 10
        D[j] = v - q * 10
        v = q
    position = np.arange(18, dtype=np.uint8)[:, None]
    last = ((D != 0) * position[:17]).max(axis=0)  # of the last nonzero digit; 0 for zero
    sci = (E < -4) | (E > 16)
    unit = E * ~sci  # the digit before the '.'; negative for a fixed spelling below 1
    D += ord("0")
    stop = np.maximum(last, unit).astype(np.uint8)  # the fraction's trailing zeros go
    D *= position[:17] <= stop
    # place i of 18 holds digit i before the '.', the '.' itself, digit i - 1 after it;
    # blended by arithmetic, as np.where is several times slower on a random mask
    point = (unit + 1).astype(np.uint8)
    point[(last <= unit) | (unit < 0)] = 18
    digits = padded[:-1] + (padded[1:] - padded[:-1]) * (position < point)
    digits += (ord(".") - digits) * (position == point)
    out[:, _DIGITS:_DIGITS + 18] = digits.T
    cut = ((1 - E) * (~sci & (E < 0))).astype(np.uint8)  # below 1: "0." and -E - 1 zeros
    for i, byte in enumerate(b"0.000"):
        out[:, 1 + i] = byte * (i < cut)
    sci = np.flatnonzero(sci)
    out[sci, _EXPONENT:_EXPONENT + 5] = suffix[E[sci] + 309]
    out[:, 0] = ord("-") * np.signbit(x)
    if slow.any():
        out[slow] = _spelled_exactly(x[slow])


def _spell(matrix: np.ndarray) -> np.ndarray:
    """The records of a float array, shape matrix.shape + (_WIDTH,), separator bytes
    NUL: each value's bytes are those of "%.17g" % value, fmt17's.

    For a normal double x with E = floor(log10|x|), the 17 digits are N = round(y),
    y = |x| * 10**(16 - E), computed in double-double arithmetic to within 2**-46.
    That rounds exactly unless y lies within 1e-9 of a tie, and those values go to
    "%.17g" itself, as do subnormal and non-finite ones and any whose log10 missed."""
    flat = np.asarray(matrix, dtype=np.float64).reshape(-1)
    out = np.zeros((flat.size, _WIDTH), np.uint8)
    for start in range(0, flat.size, _SLAB):
        _spell_slab(flat[start:start + _SLAB], out[start:start + _SLAB])
    return out.reshape(*np.shape(matrix), _WIDTH)


def _csv(records: np.ndarray) -> bytes:
    """The CSV text of the records (rows, columns, _WIDTH) of a matrix: ',' between
    fields and '\\n' after each row, written into the separator bytes in place."""
    records[..., -1] = ord(",")
    records[:, -1, -1] = ord("\n")
    return records.tobytes().translate(None, b"\0")


def _write_matrix(path: str, name: str, meta: str, chunks: Iterable[bytes]) -> None:
    """Write a matrix CSV: its header line, then the CSV text as it streams in."""
    with open(path, "wb") as fh:
        fh.write(_header(name, meta).encode())
        fh.writelines(chunks)


def _spelled_lines(matrix: np.ndarray) -> list[str]:
    """The CSV lines of a float matrix, as the matrix writer writes them."""
    return _csv(_spell(np.atleast_2d(matrix))).decode().splitlines(keepends=True)


def _write_Y_and_Z(prefix: str, Y: np.ndarray, d: int, meta: str) -> None:
    """Write layout-v1 Y and Z from one spelling of each of Y's d(d+1)/2 unique row
    blocks: blocks (a, b) and (b, a) hold the same doubles, and Z[r*d + a, s*d + b] =
    Y[(a*d + b)*k + s, r].  Z is written a few block rows at a time, gathered from
    the blocks' fixed-width records, so those records (2.5x Y's bytes) are the most
    the dump holds: a warm sphere:2 dump peaks at 6.2x Y's bytes at k = 120 and 4.8x
    at k = 200 (tracemalloc)."""
    k = Y.shape[1]
    Y4 = Y.reshape(d, d, k, k)
    blocks = {}
    for a in range(d):
        for b in range(a, d):
            blocks[a, b] = blocks[b, a] = _spell(Y4[a, b])  # record [s, r] is Y4[a, b, s, r]
    _write_matrix(f"{prefix}.Y.csv", "Y", meta, (_csv(blocks[a, b]) for a in range(d) for b in range(d)))
    step = max(1, _SLAB // (d * d * k))

    def Z_rows():
        for r in range(0, k, step):
            Z5 = np.empty((min(step, k - r), d, k, d, _WIDTH), np.uint8)  # [r, a, s, b]
            for (a, b), records in blocks.items():
                Z5[:, a, :, b] = records[:, r:r + step].swapaxes(0, 1)
            yield _csv(Z5.reshape(len(Z5) * d, k * d, _WIDTH))

    _write_matrix(f"{prefix}.Z.csv", "Z", meta, Z_rows())


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
            _write_matrix(f"{out}.{name}.csv", name, meta, [_csv(_spell(data))])
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
            _write_matrix(args.out, "f_hat", meta, [_csv(_spell(result.f_hat.reshape(-1, 1)))])
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
