"""sdtp benchmark: one workload per invocation.

    python3 bench/run.py --workload infer_default --seed 1 --seconds 15 --trace 0

Run from the root of a checkout of the repository.  Workloads, metrics and
bounds are declared in ``BENCHMARK.json``; ``workloads.py`` says what each
workload runs and why.  Every measured process is a child (``child.py``)
with BLAS pinned to one thread:

* ``--trace 0``: ``SETUPS - 1`` set-up-only children, then one child that
  sets up and runs the closed-loop window.  Reports the end-to-end metrics:
  ``setup_s`` (median over all set-ups), ``op_p50_s``, ``ops_per_s`` (over
  the window less the time spent checking outputs) and ``peak_rss_mb``.
  The summary lines before the result also give ``op_tail_s`` (omitted with
  fewer than TAIL_MIN_SAMPLES samples) and ``fail_ratio``.
* ``--trace 1``: one child that runs every op traced and untraced and
  reports the per-layer metrics, ``trace.overhead_ratio`` among them.

The last stdout line is the result, ``{"correct", "attempted", "failed",
"metrics"}``; the line before it is the run record (versions, thread
counts, seed, config digest, source digest).  Both, with the raw samples,
are also written to ``bench/out/``.  ``--tiny`` shrinks every workload to
toy dims for the smoke test (``bench/test_smoke.py``).

Exits 2 without a result when the checkout has no ``src/sdtp`` or a child
fails or overruns its time.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SETUPS = 3
TAIL_MIN_SAMPLES = 20  # below this the tail percentile would be under p50
DEADLINE_S = 170.0


def _git_sha(root: Path) -> str | None:
    """HEAD of the checkout at root, or None where root is no git work tree
    (git does not look above root)."""
    try:
        proc = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                              env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent)),
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _source_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src" / "sdtp").rglob("*.py")):
        h.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _tail(latencies: list[float]) -> dict | None:
    """The highest percentile with at least ten samples above it."""
    n = len(latencies)
    if n < TAIL_MIN_SAMPLES:
        return None
    ordered = sorted(latencies)
    return {"value": ordered[n - 11], "percentile": 100.0 * (n - 10) / n, "samples": n}


def _child(spec: dict, env: dict, deadline: float) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "child.py"), json.dumps(spec)],
        env=env, stdout=subprocess.PIPE, text=True,
        timeout=max(deadline - time.monotonic(), 1.0))
    if proc.returncode != 0:
        raise RuntimeError(f"{spec['mode']} child exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _units(section: str) -> dict[str, str]:
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="toy dims, for the smoke test")
    args = ap.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    root = Path.cwd()
    if not (root / "src" / "sdtp" / "__init__.py").is_file():
        print(f"no src/sdtp under {root}: run from the root of a checkout", file=sys.stderr)
        return 2
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    spec = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "tiny": args.tiny}

    try:
        setups = [] if args.trace else [
            _child({**spec, "mode": "setup"}, env, deadline) for _ in range(SETUPS - 1)]
        main_run = _child({**spec, "mode": "trace" if args.trace else "measure"}, env, deadline)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2

    children = setups + [main_run]
    attempted = sum(c["attempted"] for c in children)
    failed = sum(c["failed"] for c in children)
    for c in children:
        for err in c["errors"]:
            print(err, file=sys.stderr)

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "tiny": args.tiny,
        "git_sha": _git_sha(root), "source_digest": _source_digest(root),
        "nproc": os.cpu_count(), "cpus_allowed": len(os.sched_getaffinity(0)),
        "blas_threads_env": env["OPENBLAS_NUM_THREADS"],
        **main_run["environment"],
    }
    summary: list[str] = []
    samples: dict = {}
    if args.trace:
        values = main_run["layers"]
        units = _units("per_layer")
        record.update(traced_ops=main_run["traced_ops"], plain_ops=main_run["plain_ops"])
    else:
        lat = main_run["latencies"]
        setup_samples = [c["setup_s"] for c in children]
        completed = len(lat)
        values = {
            "setup_s": statistics.median(setup_samples),
            "op_p50_s": statistics.median(lat) if lat else 0.0,
            "ops_per_s": completed / main_run["window_s"],
            "peak_rss_mb": main_run["peak_rss_kib"] / 1024.0,
        }
        units = _units("end_to_end")
        tail = _tail(lat)
        record["op_tail"] = tail
        samples = {"setup_s": setup_samples, "latency_s": lat, "window_s": main_run["window_s"],
                   "check_s": main_run["check_s"]}
        summary = [
            f"setup_s      {values['setup_s']:.4f} s   (median of {len(setup_samples)} set-ups)",
            f"op_p50_s     {values['op_p50_s']:.6f} s   ({completed} samples)",
            (f"op_tail_s    {tail['value']:.6f} s   (p{tail['percentile']:.1f}, "
             f"{completed} samples, 10 beyond)") if tail else
            f"op_tail_s    omitted   ({completed} samples < {TAIL_MIN_SAMPLES})",
            f"ops_per_s    {values['ops_per_s']:.4f} 1/s ({completed} ops in "
            f"{main_run['window_s']:.2f} s, output checks' {main_run['check_s']:.2f} s left out)",
            f"peak_rss_mb  {values['peak_rss_mb']:.1f} MiB",
            f"fail_ratio   {failed / max(attempted, 1):.4f} ratio ({failed} of {attempted} ops)",
        ]

    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    out_dir = BENCH / "out"
    out_dir.mkdir(exist_ok=True)
    tag = f"{args.workload}{'.tiny' if args.tiny else ''}.trace{args.trace}"
    (out_dir / f"{tag}.json").write_text(
        json.dumps({"record": record, "result": result, "samples": samples}, indent=1) + "\n")

    for line in summary:
        print(line)
    print("run record: " + json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
