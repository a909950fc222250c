"""Smoke test of the benchmark: every workload (the declared ones and the
one run by hand) at tiny dims in one short pass, untraced and traced.
Checks that the result line has its four keys and every declared metric
with its unit, that every per-layer metric moves on some declared
workload, and that the run record and summary lines are printed; makes no
timing assertions.

    python3 -m pytest -q bench/test_smoke.py
"""

import functools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = ("infer_default", "train_default", "train_toy", "verify_gradcheck")
SUMMARY = ("setup_s", "op_p50_s", "op_tail_s", "ops_per_s", "peak_rss_mb", "fail_ratio")


@functools.lru_cache(maxsize=None)
def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "0.5", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_reported(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    assert lines[-2].startswith("run record: ")
    record = json.loads(lines[-2][len("run record: "):])
    for key in ("git_sha", "python", "numpy", "scipy", "openblas", "nproc",
                "seed", "config_digest"):
        assert key in record
    if not trace:
        printed = [line.split()[0] for line in lines[:-2]]
        assert printed == list(SUMMARY)


def test_declares_a_subset_of_the_workloads():
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)


def test_every_layer_metric_is_nonzero_on_a_declared_workload():
    seen = set()
    for w in SPEC["workloads"]:
        metrics = json.loads(_run(ROOT, w["name"], 1).stdout.strip().splitlines()[-1])["metrics"]
        seen |= {name for name, m in metrics.items() if m["value"] != 0}
    assert {m["name"] for m in SPEC["per_layer"]} <= seen


def test_refuses_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(tmp_path, "infer_default", 0)
    assert proc.returncode != 0
    assert proc.stdout == ""
