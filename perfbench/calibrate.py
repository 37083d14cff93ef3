"""Fixed work that measures how fast the host runs this process right now.

The benchmark's cores are shared with other tenants.  When they load the
host, every instruction this process runs slows, by up to half and for
seconds or minutes at a time, so the median pass time of two runs of the
same code can differ by a third.  A calibration round runs four fixed
kernels that touch no covrank code and resemble what the workloads do: a
pure-Python loop, tiny SVDs, one mid-size SVD on OpenBLAS's threads, and
float formatting and parsing.  The run times rounds between covrank calls,
at most every ``EVERY_S`` seconds, and divides each pass's time by the
rounds that ran during it, which cancels the slowdown the pass saw.

Load slows single-threaded interpreter work more than multithreaded LAPACK
work, so a workload names the kernels that match what bounds it:
``PYTHON`` or ``LAPACK``.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

EVERY_S = 0.4  # a round takes about 55 ms, so rounds take about a tenth of a run

# Each kernel's median time over 20 runs on a 2-vCPU Xeon host at 2.1 GHz
# with numpy's bundled OpenBLAS; ``run.py`` reports times scaled to them.
NOMINAL_S = {"interpreter": 0.0205, "tiny_svds": 0.0145, "square_svd": 0.0098, "text": 0.0117}
PYTHON = ("interpreter", "tiny_svds", "text")
LAPACK = ("square_svd",)

_rng = np.random.default_rng(0)
_TINY = [_rng.random((12, 12)) for _ in range(50)]
_SQUARE = _rng.random((300, 300))
_VALUES = _rng.random(6000)


def _interpreter() -> None:
    acc = 0
    for i in range(250_000):
        acc += (i * 7) % 13


def _tiny_svds() -> None:
    for _ in range(12):
        for matrix in _TINY:
            np.linalg.svd(matrix, compute_uv=False)


def _square_svd() -> None:
    np.linalg.svd(_SQUARE, compute_uv=False)


def _text() -> None:
    text = "\n".join(",".join(repr(float(x)) for x in _VALUES[i:i + 8])
                     for i in range(0, len(_VALUES), 8))
    [float(x) for line in text.splitlines() for x in line.split(",")]


def scale(rounds: list[dict[str, float]], kernels: tuple[str, ...]) -> float:
    """Factor that turns a time measured alongside these rounds into nominal seconds.

    The host's speed is judged by the named kernels' time in each round.
    """
    nominal = sum(NOMINAL_S[name] for name in kernels)
    return nominal / statistics.median(sum(r[name] for name in kernels) for r in rounds)


KERNELS = {"interpreter": _interpreter, "tiny_svds": _tiny_svds,
           "square_svd": _square_svd, "text": _text}


class Calibration:
    """Times calibration rounds and keeps each round's kernel times."""

    def __init__(self):
        for kernel in KERNELS.values():  # first runs pay for lazy set-up
            kernel()
        self.rounds: list[dict[str, float]] = []
        self._last = -float("inf")

    def round(self) -> dict[str, float]:
        """Run every kernel once; return their times."""
        times = {}
        for name, kernel in KERNELS.items():
            start = time.perf_counter()
            kernel()
            times[name] = time.perf_counter() - start
        self.rounds.append(times)
        self._last = time.perf_counter()
        return times

    def maybe(self) -> None:
        """Run a round if ``EVERY_S`` has passed since the last one ended."""
        if time.perf_counter() - self._last >= EVERY_S:
            self.round()

    def summary(self) -> dict:
        return {"nominal_s": NOMINAL_S, "every_s": EVERY_S, "rounds": len(self.rounds),
                "kernel_median_s": {name: statistics.median(r[name] for r in self.rounds)
                                    for name in KERNELS}}
