"""Byte-exact golden outputs of the CLI.

Each case runs one covrank argv in a scratch directory and compares its
summary line and every file it writes with the copies under
``tests/golden/``.  Every case is also run three times back to back in one
interpreter, and each run must match: no state may carry from one run to the
next, since the benchmark repeats passes in one process and requires each
pass's output to equal the first's.

A change that alters numerics on purpose regenerates the goldens with
``python tests/test_golden.py`` (from the repository root, with ``src`` on
the import path) and states the largest difference it caused.  For every
file whose bytes change, regeneration prints the largest absolute and
relative difference of each field against the old copy.
"""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

import pytest

from covrank.cli import main

GOLDEN = Path(__file__).parent / "golden"
SRC = Path(__file__).parent.parent / "src"


def dump_files(prefix: str) -> list[str]:
    """The files of a `tensor --out PREFIX` dump."""
    return [f"{prefix}.{name}.csv" for name in ("Y", "Z", "Psi", "C", "Sigma", "f0")]


# name -> (argv, files the run writes, relative to its working directory)
CASES = {
    "rank_euclid": (
        ["rank", "--manifold", "euclid:2", "--kernel", "sqdist", "--k-list", "3,4,7,12",
         "--trials", "25", "--seed", "1", "--out", "rank_euclid.csv"],
        ["rank_euclid.csv"],
    ),
    "rank_sphere": (
        ["rank", "--manifold", "sphere:2", "--kernel", "dot:arccos2", "--k-list", "5,20",
         "--trials", "20", "--seed", "2", "--out", "rank_sphere.csv"],
        ["rank_sphere.csv"],
    ),
    "rank_sphere_jsonl": (
        ["rank", "--manifold", "sphere:2", "--kernel", "dot:arccos2", "--k-list", "6,15",
         "--trials", "12", "--seed", "5", "--format", "jsonl", "--out", "rank_sphere.jsonl"],
        ["rank_sphere.jsonl"],
    ),
    "cond_sweep": (
        ["cond-sweep", "--manifold", "sphere:2", "--alpha-list", "0,1.5707963267948966",
         "--k-list", "15,40", "--trials", "4", "--seed", "3", "--out", "cond_sweep.csv"],
        ["cond_sweep.csv"],
    ),
    "recover_sphere": (
        ["recover", "--manifold", "sphere:2", "--k", "10", "--trials", "5", "--seed", "4",
         "--out", "recover_sphere.csv"],
        ["recover_sphere.csv"],
    ),
    "recover_euclid": (
        ["recover", "--manifold", "euclid:2", "--k", "8", "--trials", "5", "--seed", "4",
         "--out", "recover_euclid.csv"],
        ["recover_euclid.csv"],
    ),
    "tensor": (
        ["tensor", "--manifold", "sphere:2", "--k", "8", "--seed", "3", "--out", "tensor"],
        dump_files("tensor"),
    ),
    "tensor_euclid": (
        ["tensor", "--manifold", "euclid:3:box=-1,2", "--k", "7", "--seed", "2", "--out", "tensor_euclid"],
        dump_files("tensor_euclid"),
    ),
    "tensor_k1": (
        ["tensor", "--manifold", "sphere:2", "--k", "1", "--out", "tensor_k1"],
        dump_files("tensor_k1"),
    ),
    "sample_sphere": (
        ["sample", "--manifold", "sphere:2", "--k", "9", "--seed", "6", "--out", "sample_sphere.csv"],
        ["sample_sphere.csv"],
    ),
    "sample_euclid_jsonl": (
        ["sample", "--manifold", "euclid:3:box=-1,2", "--k", "7", "--seed", "2", "--format", "jsonl",
         "--out", "sample_euclid.jsonl"],
        ["sample_euclid.jsonl"],
    ),
    # reads the Sigma dump of the "tensor" case: same manifold, k and seed
    "recover_file": (
        ["recover", "--manifold", "sphere:2", "--k", "8", "--seed", "3",
         "--sigma-file", str(GOLDEN / "tensor.Sigma.csv"), "--out", "recover_file.f_hat.csv"],
        ["recover_file.f_hat.csv"],
    ),
    "cond_sweep_jsonl": (
        ["cond-sweep", "--manifold", "euclid:2", "--alpha-list", "0,0.5", "--k-list", "6,11",
         "--trials", "3", "--seed", "7", "--format", "jsonl", "--out", "cond_sweep.jsonl"],
        ["cond_sweep.jsonl"],
    ),
    "recover_sphere_jsonl": (
        ["recover", "--manifold", "sphere:2", "--k", "9", "--trials", "4", "--seed", "8",
         "--format", "jsonl", "--out", "recover_sphere.jsonl"],
        ["recover_sphere.jsonl"],
    ),
    "alpha_sphere": (["alpha", "--manifold", "sphere:2", "--trials", "1000", "--seed", "1"], []),
    "alpha_euclid": (["alpha", "--manifold", "euclid:3:box=-1,2", "--trials", "1000", "--seed", "2"], []),
}


def run_case(name: str, workdir: Path) -> dict[str, bytes]:
    """Run one case in workdir; return its stdout and written files by golden file name."""
    argv, files = CASES[name]
    out = io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(out):
            code = main(argv)
    finally:
        os.chdir(cwd)
    assert code == 0, f"{name} exited {code}"
    outputs = {f"{name}.stdout": out.getvalue().encode()}
    outputs.update({f: (workdir / f).read_bytes() for f in files})
    return outputs


@pytest.mark.parametrize("runs", [1, 3])
@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden(name, runs, tmp_path):
    for run in range(runs):
        for filename, data in run_case(name, tmp_path).items():
            golden = (GOLDEN / filename).read_bytes()
            assert data == golden, f"{filename} differs from its golden in run {run + 1}"


@pytest.mark.parametrize("name", ["cond_sweep", "recover_sphere"])
def test_golden_bytes_do_not_depend_on_the_blas_thread_count(name, tmp_path):
    # the goldens stop at k = 40, below the sizes where OpenBLAS's threaded kernels
    # change bits, so one BLAS thread must write them too
    argv, files = CASES[name]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    script = "import sys; from covrank.cli import main; sys.exit(main(sys.argv[1:]))"
    proc = subprocess.run([sys.executable, "-c", script, *argv], cwd=tmp_path, env=env, capture_output=True)
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout == (GOLDEN / f"{name}.stdout").read_bytes()
    for filename in files:
        assert (tmp_path / filename).read_bytes() == (GOLDEN / filename).read_bytes(), filename


def _is_number(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def field_values(filename: str, data: bytes) -> dict[str, list]:
    """Every value of one output by field: JSON keys, CSV columns (``col<i>`` when
    the file has no header line) or the ``key=value`` tokens of a summary line."""
    values = defaultdict(list)
    text = data.decode()
    if filename.endswith(".jsonl"):
        for line in text.splitlines():
            for key, value in json.loads(line).items():
                values[key].append(value)
    elif filename.endswith(".csv"):
        lines = [line.split(",") for line in text.splitlines() if not line.startswith("#")]
        names = None
        if lines and not all(map(_is_number, lines[0])):
            names = lines.pop(0)
        for row in lines:
            for i, value in enumerate(row):
                values[names[i] if names else f"col{i}"].append(value)
    else:
        for token in text.split():
            key, eq, value = token.partition("=")
            if eq:
                values[key].append(value)
    return values


def field_differences(filename: str, old: bytes, new: bytes) -> list[str]:
    """One line per field of a changed output: its largest absolute and relative
    difference, or how many values changed when the field is not all numbers."""
    before, after = field_values(filename, old), field_values(filename, new)
    lines = []
    for name in list(before) + [name for name in after if name not in before]:
        a, b = before.get(name, []), after.get(name, [])
        if len(a) != len(b):
            lines.append(f"  {name}: {len(a)} -> {len(b)} values")
            continue
        try:
            pairs = [(float(x), float(y)) for x, y in zip(a, b)]
        except (TypeError, ValueError):
            changed = sum(x != y for x, y in zip(a, b))
            if changed:
                lines.append(f"  {name}: {changed} of {len(a)} values changed")
            continue
        moved = [(x, y) for x, y in pairs if x != y and not (x != x and y != y)]  # nan == nan here
        abs_diff = max((abs(y - x) for x, y in moved), default=0.0)
        rel_diff = max((abs(y - x) / abs(x) if x else math.inf for x, y in moved), default=0.0)
        lines.append(f"  {name}: max abs diff {abs_diff:.3g}, max rel diff {rel_diff:.3g}")
    return lines


if __name__ == "__main__":
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    # "recover_file" reads the Sigma dump of "tensor", so that one is written first
    for case in sorted(CASES, key=lambda name: name != "tensor"):
        with tempfile.TemporaryDirectory() as tmp:
            for filename, data in run_case(case, Path(tmp)).items():
                path = GOLDEN / filename
                old = path.read_bytes() if path.exists() else None
                if old is not None and old != data:
                    print(f"{filename} changed:", *field_differences(filename, old, data), sep="\n")
                path.write_bytes(data)
    print(f"wrote goldens for {len(CASES)} cases to {GOLDEN}", file=sys.stderr)
