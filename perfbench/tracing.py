"""Spans and counts around calls into covrank's layers, installed from outside.

``Tracer.install`` replaces each public entry point named in ``TARGETS``
with a wrapper that records a span (layer, start, end, parent) and the
counts the layer's metrics need, and returns a function that puts the
originals back.  The package under ``src/`` is not modified; a function
imported into several covrank modules is wrapped at every binding, so calls
between modules are seen too.  Spans stay in memory; ``summary`` folds them
into busy time, self time and call counts per layer.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter, defaultdict

import numpy as np


def svd_flops(shape, full_matrices: bool = True, compute_uv: bool = True) -> float:
    """Nominal flop count of one (possibly stacked) SVD, computed from the shape.

    Golub and Van Loan, Matrix Computations, table of SVD work (Golub-Reinsch
    column), for an m x n matrix with m >= n: singular values only
    4mn^2 - 4n^3/3; thin factors 14mn^2 + 8n^3; full factors 4m^2n + 8mn^2 + 9n^3.
    """
    m, n = max(shape[-2:]), min(shape[-2:])
    batch = int(np.prod(shape[:-2], dtype=np.int64)) if len(shape) > 2 else 1
    if not compute_uv:
        flops = 4 * m * n * n - 4 * n**3 / 3
    elif full_matrices:
        flops = 4 * m * m * n + 8 * m * n * n + 9 * n**3
    else:
        flops = 14 * m * n * n + 8 * n**3
    return float(batch * flops)


@functools.cache
def _signature(fn) -> inspect.Signature:
    return inspect.signature(fn)


def _bound(fn, args, kwargs):
    bound = _signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _count_svd(counts, fn, args, kwargs, result):
    # parsed by hand: this runs once per SVD, thousands of times a pass
    a = args[0] if args else kwargs["a"]
    full = args[1] if len(args) > 1 else kwargs.get("full_matrices", True)
    uv = args[2] if len(args) > 2 else kwargs.get("compute_uv", True)
    counts["numrank.svd.flops_computed"] += svd_flops(np.shape(a), bool(full), bool(uv))


def _count_rank_report(counts, fn, args, kwargs, result):
    counts["numrank.verdicts"] += 1
    counts["numrank.borderline"] += int(bool(result.borderline))


def _count_outer_field(counts, fn, args, kwargs, result):
    points = np.shape(_bound(fn, args, kwargs)["sample"].points)
    size = points[0] * points[0] * points[1] * points[1] * 8  # (k, k, d, d) float64
    counts["tensor.blocks_bytes_computed"] = max(counts["tensor.blocks_bytes_computed"], size)


def _count_trials(counts, fn, args, kwargs, result):
    a = _bound(fn, args, kwargs)
    if "cfg" in a:  # rank_law_sweep sweeps every k of its config, fullrank_probability one
        per_k = len(a["cfg"].k_values) if fn.__name__ == "rank_law_sweep" else 1
        counts["montecarlo.trials"] += a["cfg"].trials * per_k
    else:
        ks = a.get("k_values")
        counts["montecarlo.trials"] += a["trials"] * (len(ks) if ks is not None else 1)


def _count_write(counts, fn, args, kwargs, result):
    data = args[1] if len(args) > 1 else kwargs["data"]
    counts["cli.write.bytes"] += len(data)  # the CLI writes ASCII text


def _count_read(counts, fn, args, kwargs, result):
    counts["cli.read.bytes"] += len(result)


# (layer, owner, attribute, counter); owners are resolved lazily so a target
# missing from a later version of covrank is skipped, its metrics reading 0.
TARGETS = [
    ("montecarlo", "covrank.montecarlo", "rank_law_sweep", _count_trials),
    ("montecarlo", "covrank.montecarlo", "fullrank_probability", _count_trials),
    ("montecarlo", "covrank.montecarlo", "condition_sweep", _count_trials),
    ("montecarlo", "covrank.montecarlo", "recovery_experiment", _count_trials),
    ("manifold.sample", "covrank.manifold:Euclidean", "sample_uniform", None),
    ("manifold.sample", "covrank.manifold:UnitSphere", "sample_uniform", None),
    ("manifold.distance", "covrank.manifold:Euclidean", "distance_matrix", None),
    ("manifold.distance", "covrank.manifold:UnitSphere", "distance_matrix", None),
    ("manifold.distance", "covrank.manifold:Euclidean", "paired_distance", None),
    ("manifold.distance", "covrank.manifold:UnitSphere", "paired_distance", None),
    ("kernels.matrix", "covrank.kernels:Kernel", "matrix", None),
    ("numrank.rank_report", "covrank.numrank", "rank_report", _count_rank_report),
    ("numrank.lstsq", "covrank.numrank", "solve_least_squares", None),
    ("numrank.svd", "numpy.linalg", "svd", _count_svd),
    ("tensor.outer_field", "covrank.tensor", "outer_field", _count_outer_field),
    ("tensor.assemble", "covrank.tensor", "sigma_field", None),
    ("tensor.assemble", "covrank.tensor", "assemble_Y", None),
    ("tensor.assemble", "covrank.tensor", "assemble_Z", None),
    ("tensor.assemble", "covrank.tensor", "unfold_C", None),
    ("tensor.recover", "covrank.tensor", "recover", None),
    ("cli.main", "covrank.cli", "main", None),
    # serialization: formatting plus the file write, and the file read plus parsing
    ("cli.write", "covrank.cli", "_matrix_csv", None),
    ("cli.write", "covrank.montecarlo", "rows_to_csv", None),
    ("cli.write", "covrank.montecarlo", "rows_to_jsonl", None),
    ("cli.write", "pathlib:Path", "write_text", _count_write),
    ("cli.read", "covrank.cli", "_read_matrix_csv", None),
    ("cli.read", "pathlib:Path", "read_text", _count_read),
]


def _resolve(owner: str):
    module_name, _, class_name = owner.partition(":")
    module = sys.modules.get(module_name)
    if module is None or not class_name:
        return module
    return getattr(module, class_name, None)


class Tracer:
    """Collects spans and counts while installed; one instance per traced pass."""

    def __init__(self):
        self.spans: list = []  # (layer, start, end, parent index or -1)
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def _wrap(self, layer, fn, counter):
        spans, stack, counts = self.spans, self._stack, self.counts
        calls = f"{layer}.calls"

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (layer, start, end, parent)
            counts[calls] += 1
            if counter is not None:
                counter(counts, fn, args, kwargs, result)
            return result

        traced.__name__ = getattr(fn, "__name__", layer)
        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Wrap every target that exists; return a callable that undoes it."""
        undo = []
        patched = set()
        covrank_modules = [m for name, m in list(sys.modules.items())
                           if (name == "covrank" or name.startswith("covrank.")) and m is not None]
        for layer, owner_name, attr, counter in TARGETS:
            owner = _resolve(owner_name)
            if owner is None:
                continue
            if isinstance(owner, type):
                # patch the class that defines the method, once
                definer = next((c for c in owner.__mro__ if attr in vars(c)), None)
                if definer is None or (definer, attr) in patched:
                    continue
                patched.add((definer, attr))
                original = vars(definer)[attr]
                setattr(definer, attr, self._wrap(layer, original, counter))
                undo.append((definer, attr, original))
                continue
            original = getattr(owner, attr, None)
            if original is None:
                continue
            wrapper = self._wrap(layer, original, counter)
            for module in {owner, *covrank_modules}:
                for name, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, name, wrapper)
                        undo.append((module, name, original))

        def uninstall():
            for target, name, original in reversed(undo):
                setattr(target, name, original)

        return uninstall

    def summary(self) -> dict[str, float]:
        """Per layer: calls, busy_s (outermost spans only) and self_s, plus the counts."""
        child_time = defaultdict(float)
        for layer, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for index, (layer, start, end, parent) in enumerate(self.spans):
            out[f"{layer}.self_s"] += (end - start) - child_time[index]
            # busy time counts a span only if no enclosing span is of the same layer
            ancestor = parent
            while ancestor >= 0 and self.spans[ancestor][0] != layer:
                ancestor = self.spans[ancestor][3]
            if ancestor < 0:
                out[f"{layer}.busy_s"] += end - start
        out.update(self.counts)
        return dict(out)
