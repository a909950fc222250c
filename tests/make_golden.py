"""Golden reports: the seven CLI outputs whose bytes the project keeps, the
run record they were made on, and the script that rewrites them.

The bits of a report depend on the numeric libraries and the machine: an
OpenBLAS kernel core or a numpy SIMD target of its own sums in its own
order, while the BLAS thread count changes nothing.  So each file set
carries the run record it was made on (run_record.json), and
test_golden.py compares bytes where the record matches and values within
a measured relative bound elsewhere.

Rewrite the files from the repository root with
``python tests/make_golden.py``.  Only a change meant to alter the numbers
should do so, and CHANGES.md then names each moved report with its
changed-field count and its largest relative change.
"""

from __future__ import annotations

import ctypes
import io
import json
import math
import platform
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

GOLDEN = Path(__file__).resolve().parent / "golden"

# file name -> CLI arguments; a .json file is the command's --out report, a
# .csv file its stdout
REPORTS = {
    "forward.json": ["forward", "--seed", "0"],
    "train.json": ["train", "--seed", "0"],
    "variants.json": ["variants", "--seed", "0"],
    "gradcheck.json": ["gradcheck", "--seed", "0"],
    "flops.json": ["flops", "--seed", "0"],
    "flops.csv": ["flops", "--seed", "0", "--format", "csv"],
    "variants_9x7.json": ["variants", "--channels", "8", "--base-hw", "9", "7",
                          "--train-steps", "2", "--seed", "0"],
}


def render(name: str, tmp: Path) -> bytes:
    """The bytes of one golden output, made in this process through
    cli.main; tmp is a directory for the --out file."""
    from sdtp.cli import main

    argv, path = REPORTS[name], tmp / name
    if name.endswith(".json"):
        argv = [*argv, "--out", str(path)]
    stdout = io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(io.StringIO()):
        rc = main(argv)
    if rc != 0:
        raise RuntimeError(f"sdtp {' '.join(argv)} exited {rc}")
    return path.read_bytes() if name.endswith(".json") else stdout.getvalue().encode()


def _openblas() -> str | None:
    """The configuration string (version and kernel core) of the OpenBLAS
    numpy loaded, read through ctypes; None where it cannot be found."""
    np.ones((2, 2)) @ np.ones((2, 2))  # numpy loads its BLAS at the first product
    try:
        with open("/proc/self/maps") as f:
            paths = {line.split()[-1] for line in f if "openblas" in line}
    except OSError:
        return None
    for path in sorted(p for p in paths if "numpy" in p):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_config64_", "openblas_get_config64_",
                     "openblas_get_config"):
            config = getattr(lib, name, None)
            if config is not None:
                config.argtypes, config.restype = [], ctypes.c_char_p
                return config().decode()
    return None


def run_record() -> dict:
    """What the bits of a report depend on: the numpy and scipy versions
    (scipy.special.erf sets GELU's bits), numpy's OpenBLAS and its kernel
    core, the machine and the SIMD targets numpy dispatches to."""
    import scipy

    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
        simd = [t for t in __cpu_dispatch__ if __cpu_features__.get(t)]
    except ImportError:
        simd = None
    return {"numpy": np.__version__, "scipy": scipy.__version__, "openblas": _openblas(),
            "machine": platform.machine(), "numpy_simd": simd}


def _leaves(value, path: str = ""):
    """(path, leaf) for every scalar of a parsed report, in document order."""
    if isinstance(value, dict):
        for k, v in value.items():
            yield from _leaves(v, f"{path}.{k}" if path else k)
    elif isinstance(value, list):
        for i, v in enumerate(value):
            yield from _leaves(v, f"{path}[{i}]")
    else:
        yield path, value


def _parse(name: str, data: bytes):
    if name.endswith(".json"):
        return json.loads(data)
    rows = [line.split(",") for line in data.decode().splitlines()]
    return [[_number(cell) for cell in row] for row in rows]


def _number(cell: str):
    try:
        return int(cell)
    except ValueError:
        try:
            return float(cell)
        except ValueError:
            return cell


def _relative(a, b) -> float:
    """|a - b| relative to the larger magnitude; inf where the two cannot be
    compared as numbers (a key, a string, a flag or a length differs)."""
    numbers = all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (a, b))
    if not numbers:
        return 0.0 if a == b and type(a) is type(b) else math.inf
    if a == b:
        return 0.0
    return abs(a - b) / max(abs(a), abs(b))


def differences(name: str, got: bytes, want: bytes) -> tuple[list[str], float]:
    """The paths of every leaf in which two outputs differ, in document
    order, and the largest relative difference over them (inf for a change
    of structure or of a non-numeric leaf)."""
    a, b = list(_leaves(_parse(name, got))), list(_leaves(_parse(name, want)))
    changed, worst = [], 0.0
    for (pa, va), (pb, vb) in zip(a, b):
        rel = _relative(va, vb) if pa == pb else math.inf
        if rel:
            changed.append(pa)
            worst = max(worst, rel)
    if len(a) != len(b):
        longer = a if len(a) > len(b) else b
        changed.append(longer[min(len(a), len(b))][0])
        worst = math.inf
    return changed, worst


def main() -> None:
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name in REPORTS:
            (GOLDEN / name).write_bytes(render(name, Path(tmp)))
    (GOLDEN / "run_record.json").write_text(json.dumps(run_record(), indent=1) + "\n")


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    main()
