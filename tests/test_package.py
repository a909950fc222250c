"""Package surface: the exported names, and the two scripts run end to end:
the ablation report at its tiny defaults, the complexity sweep at its
default resolutions."""

import json
import subprocess
import sys
from pathlib import Path

import sdtp
from sdtp.complexity import LevelDims, flops_table
from sdtp.config import VARIANT_BASE_TAGS

ROOT = Path(__file__).resolve().parents[1]


def test_every_exported_name_resolves():
    missing = [name for name in sdtp.__all__ if not hasattr(sdtp, name)]
    assert not missing


def test_ablation_report_runs_at_defaults(tmp_path):
    """The script emits one row per variant with the `sdtp variants` keys
    plus the train block."""
    out = tmp_path / "ablation.json"
    proc = subprocess.run(
        [sys.executable, "scripts/ablation_report.py", "--train-steps", "2", "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    rep = json.loads(out.read_text())
    assert rep["kind"] == "ablation" and rep["levels"] == [4, 5]
    assert [r["variant"] for r in rep["variants"]] == \
        list(VARIANT_BASE_TAGS) + ["single_input_4", "single_input_5"]
    for row in rep["variants"]:
        assert list(row) == ["variant", "dep_loss", "levels", "sensitivity",
                             "any_cross_level", "n_params", "train"]
        assert row["levels"] == [4, 5]
        assert row["train"]["steps"] == 2
        assert row["train"]["final"] < row["train"]["initial"]


def test_complexity_sweep_runs_at_defaults(tmp_path):
    """One row per default resolution, each carrying flops_table's totals
    over its own levels, and the ordering holds at every resolution."""
    out = tmp_path / "sweep.json"
    proc = subprocess.run(
        [sys.executable, "scripts/complexity_sweep.py", "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    rep = json.loads(out.read_text())
    assert [r["input"] for r in rep["rows"]] == [[200, 336], [400, 672], [800, 1344], [1600, 2688]]
    for row in rep["rows"]:
        totals = flops_table([LevelDims(**lv) for lv in row["levels"]])["totals"]
        assert {k: row[k] for k in ("full", "strided", "decoupled")} == totals
    assert rep["ordering_ok"] is True
