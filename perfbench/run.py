"""covrank benchmark: run one paper workload and print its metrics.

Usage, from the root of a covrank checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The run imports covrank from the checkout's ``src/`` and nowhere else, so
it fails (exit code 2, no result) where those sources are missing.  It then

1. times the cold start in fresh interpreters (``setup_probe.py``), each
   between two calibration rounds, and reports the median scaled cold
   start as ``setup_s``;
2. makes one warm-up pass, excluded from every timing;
3. repeats full passes until ``--seconds`` have elapsed (at least
   ``MIN_PASSES``), checking every pass's outputs and requiring each pass
   to reproduce the warm-up's output digest;
4. reports as ``wall_s`` the median scaled pass time.

A pass's time is the time spent inside its calls into covrank.  It is
scaled by the calibration rounds (``calibrate.py``) that ran between those
calls, which cancels a slowdown of the shared host during the pass; the
unscaled times are in the report line.

With ``--trace 0`` the last line of stdout carries the end-to-end metrics,
with ``--trace 1`` the per-layer metrics of traced passes, which alternate
with untraced ones so the tracing overhead is measured in the same run.
The line before it is a JSON report with the environment, the samples and
every counter.  Metric names and units are those declared in
``BENCHMARK.json`` at the checkout root.  covrank runs with threads=1;
OpenBLAS keeps its default thread count.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import calibrate
from tracing import Tracer
from workloads import WORKLOADS, Tally

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PROBE = Path(__file__).resolve().parent / "setup_probe.py"
WORK = ROOT / ".perfbench_work"

SETUP_PROBES = 7
MIN_PASSES = 3
PROBE_TIMEOUT_S = 60
DIGITS_CAP = 17.0  # beyond a double's precision; also the reading when nothing is recovered


def parse_args(argv):
    parser = argparse.ArgumentParser(description="Run one covrank benchmark workload.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


# --- set-up -----------------------------------------------------------------


def probe_setup(covrank_argv: list[str], calibration: calibrate.Calibration) -> dict:
    """Spawn a fresh interpreter and time it until its first LAPACK call returns.

    A calibration round before and after the probe gives the scale for it.
    """
    rounds = [calibration.round()]
    spawned = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.run(
        [sys.executable, str(PROBE), str(SRC), *covrank_argv],
        cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=False,
    )
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"setup probe failed: {proc.stderr.strip()[-500:]}")
    probe = json.loads(lines[0])
    probe["setup_s"] = probe.pop("ready_monotonic") - spawned
    rounds.append(calibration.round())
    # a cold start is interpreter work: imports, module code, argv parsing
    probe["setup_s_scaled"] = probe["setup_s"] * calibrate.scale(rounds, calibrate.PYTHON)
    return probe


# --- environment ------------------------------------------------------------


def _cpu_model() -> str | None:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _l3_size() -> str | None:
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            if (index / "level").read_text().strip() == "3":
                return (index / "size").read_text().strip()
        except OSError:
            continue
    return None


def _openblas_threads() -> int | None:
    """Thread count of the OpenBLAS library numpy loaded, asked through ctypes."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libs = sorted({line.split()[-1] for line in maps.splitlines()
                   if "openblas" in line.lower() and line.split()[-1].startswith("/")})
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype, getter.argtypes = ctypes.c_int, []
                return int(getter())
    return None


def environment(seed: int) -> dict:
    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "l3_cache": _l3_size(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_config": blas.get("openblas configuration"),
        "blas_threads": _openblas_threads(),
        "thread_env": {k: os.environ.get(k) for k in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "covrank_threads": 1,
        "platform": platform.platform(),
    }


# --- passes -----------------------------------------------------------------


@dataclass
class Pass:
    """What one pass did, how long its calls took and the host speed it saw."""

    tally: Tally
    calls_s: float  # time inside the calls into covrank
    rounds: list[dict[str, float]]  # calibration rounds run during the pass
    trace: dict | None  # per-layer summary of a traced pass


def run_pass(workload, tracer: Tracer | None = None,
             calibration: calibrate.Calibration | None = None) -> Pass:
    """One full pass: timed calls, then untimed checks of their outputs.

    With a calibration, rounds run between the calls at most every
    ``calibrate.EVERY_S`` seconds, and once after the last call.
    """
    tally = Tally(after_call=calibration.maybe if calibration is not None else None)
    first = len(calibration.rounds) if calibration is not None else 0
    uninstall = tracer.install() if tracer is not None else None
    try:
        outputs = workload.run(tally)
    finally:
        if uninstall is not None:
            uninstall()
    rounds = []
    if calibration is not None:
        calibration.round()
        rounds = calibration.rounds[first:]
    try:
        workload.check(outputs, tally)
    except Exception as exc:  # malformed outputs are a failed check, not a crash
        tally.check(False, f"checking raised {type(exc).__name__}: {exc}")
    return Pass(tally, sum(tally.times), rounds, tracer.summary() if tracer is not None else None)


def tail(samples: list[float]) -> dict | None:
    """Highest percentile with at least ten samples beyond it, if there is one."""
    ordered = sorted(samples)
    rank = len(ordered) - 10
    if rank < 1:
        return None
    return {"percentile": 100.0 * rank / len(ordered), "value": ordered[rank - 1]}


def measure(workload, seconds: float, trace: bool, calibration: calibrate.Calibration):
    warm = run_pass(workload)
    untraced, traced = [], []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(untraced) < MIN_PASSES:
        untraced.append(run_pass(workload, calibration=calibration))
        if trace:  # no calibration here: tracing wraps numpy's SVD, which it calls
            traced.append(run_pass(workload, tracer=Tracer()))
    return warm, untraced, traced


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if not (SRC / "covrank" / "__init__.py").is_file():
        print(f"perfbench: no covrank sources under {SRC}", file=sys.stderr)
        return 2
    cls = WORKLOADS[args.workload]
    calibration = calibrate.Calibration()
    try:
        probes = [probe_setup(cls.cli_argv(args.seed), calibration) for _ in range(SETUP_PROBES)]
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    sys.path.insert(0, str(SRC))
    import covrank
    import covrank.cli

    if Path(covrank.__file__).resolve().parent.parent != SRC:
        print(f"perfbench: covrank imported from {covrank.__file__}, not {SRC}", file=sys.stderr)
        return 2

    workdir = WORK / str(os.getpid())
    try:
        warm, untraced, traced = measure(
            cls(covrank, args.seed, workdir), args.seconds, bool(args.trace), calibration)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # every pass must reproduce the warm-up's outputs, and traced counts must repeat
    run_checks = Tally()
    passes = [warm] + untraced + traced
    digest = warm.tally.digest.hexdigest()
    for p in passes[1:]:
        run_checks.check(p.tally.digest.hexdigest() == digest, "output digest differs between passes")
    counts = [{k: v for k, v in p.trace.items() if not k.endswith("_s")} for p in traced]
    for other in counts[1:]:
        run_checks.check(other == counts[0], "traced counts differ between passes")
    tallies = [p.tally for p in passes] + [run_checks]
    attempted = sum(t.attempted for t in tallies)
    failed = sum(t.failed for t in tallies)
    notes = [n for t in tallies for n in t.notes]

    scaled = [p.calls_s * calibrate.scale(p.rounds, cls.CALIBRATION) for p in untraced]
    wall_s = statistics.median(scaled)
    setup = {key: statistics.median(p[key] for p in probes)
             for key in ("setup_s", "setup_s_scaled", "import_s", "argv_s", "blas_warmup_s")}
    decided = 1.0 - warm.tally.borderline / warm.tally.verdicts if warm.tally.verdicts else 1.0
    digits = (-math.log10(max(warm.tally.max_rel_error, 10.0 ** -DIGITS_CAP))
              if warm.tally.recoveries else DIGITS_CAP)

    if args.trace:
        declared = spec["per_layer"]
        metrics = {m["name"]: statistics.median(p.trace.get(m["name"], 0.0) for p in traced)
                   for m in declared}
        svd_busy = metrics["numrank.svd.busy_s"]
        metrics["numrank.svd.gflops"] = (
            metrics["numrank.svd.flops_computed"] / svd_busy / 1e9 if svd_busy > 0 else 0.0)
        metrics["setup.import_s"] = setup["import_s"]
        metrics["setup.blas_warmup_s"] = setup["blas_warmup_s"]
        # traced and untraced passes alternate, so they saw the same host
        overhead = (statistics.median(p.calls_s for p in traced)
                    / statistics.median(p.calls_s for p in untraced) - 1.0)
        metrics["trace.wall_s"] = wall_s * (1.0 + overhead)
        metrics["trace.overhead"] = overhead
    else:
        declared = spec["end_to_end"]
        metrics = {
            "wall_s": wall_s,
            "setup_s": setup["setup_s_scaled"],
            "peak_rss_mb": peak_rss_mb,
            "ok_fraction": 1.0 - failed / attempted,
            "decided_fraction": decided,
            "rel_error_digits": digits,
        }

    report = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(args.seed),
        "wall_s": {"median": wall_s, "tail": tail(scaled), "samples": len(scaled),
                   "all": scaled, "unscaled_median": statistics.median(p.calls_s for p in untraced),
                   "unscaled_all": [p.calls_s for p in untraced], "warmup_unscaled": warm.calls_s},
        "calibration": calibration.summary(),
        "setup": setup,
        "setup_probes": probes,
        "peak_rss_mb": peak_rss_mb,
        "failed_fraction": failed / attempted,
        "undecided_fraction": 1.0 - decided,
        "verdicts": warm.tally.verdicts,
        "borderline": warm.tally.borderline,
        "recoveries": warm.tally.recoveries,
        "max_rel_error": warm.tally.max_rel_error,
        "digest": digest,
        "notes": notes[:20],
        "traced_passes": [p.trace for p in traced],
    }
    print(json.dumps({"perfbench_report": report}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
