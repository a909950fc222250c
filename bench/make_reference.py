"""Regenerate ``reference.json``: the values each workload's warm-up op
must reproduce at config seed 0, at the full and at the tiny dims.

Run from the repository root: ``python3 bench/make_reference.py``.  Only a
change that is meant to alter the numbers should do so.
"""

import json
import os
import sys
from pathlib import Path

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(Path.cwd() / "src"), str(BENCH)]

import workloads as W  # noqa: E402


def main() -> None:
    out = {}
    for size, tiny in (("full", False), ("tiny", True)):
        out[size] = {}
        for name in W.WORKLOADS:
            w = W.build(name, 0, tiny)
            w.warm_up()
            values = w.reference_values()
            if values is not None:
                out[size][name] = values
    (BENCH / "reference.json").write_text(json.dumps(out, indent=1) + "\n")


if __name__ == "__main__":
    main()
