"""Make `sdtp` importable in the fresh processes some tests start
(`python -m sdtp.cli`), as pyproject's `pythonpath` makes it importable in
the test process itself, so a plain `python -m pytest` from a checkout
needs no PYTHONPATH."""

import os
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
