"""One measured process of the benchmark.

Started by ``run.py`` as ``python3 bench/child.py '<json spec>'`` from the
root of a checkout; prints one JSON object on its last stdout line.  The
spec's ``mode`` is one of:

* ``setup``: set up once (import sdtp, build, make inputs, one warm-up op)
  and report the set-up time;
* ``measure``: set up, check the reference values, then run ops in a
  closed loop (one client, the next op starts when the last has ended) for
  ``seconds`` and report each op's latency and the process peak RSS;
* ``trace``: set up, check the reference values, then run every op twice,
  once traced and once not, alternating which goes first, and report the
  per-layer metrics and the tracing overhead.

The set-up clock starts before sdtp (and numpy) is imported.
"""

import time

_T0 = time.perf_counter()

import ctypes  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
MAX_ERRORS = 5


def _blas_info() -> list[dict]:
    """Version and thread count of each OpenBLAS the process has loaded."""
    libs = []
    with open("/proc/self/maps") as f:
        for line in f:
            path = line.split()[-1]
            if "openblas" in path and path not in libs:
                libs.append(path)
    out = []
    for path in libs:
        lib = ctypes.CDLL(path)
        info = {"library": Path(path).name}
        for prefix, suffix in (("scipy_", "64_"), ("scipy_", ""), ("", "64_"), ("", "")):
            try:
                threads = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}")
                config = getattr(lib, f"{prefix}openblas_get_config{suffix}")
            except AttributeError:
                continue
            threads.restype, config.restype = ctypes.c_int, ctypes.c_char_p
            info.update(threads=threads(), config=config().decode())
            break
        out.append(info)
    return out


def _environment(w) -> dict:
    import numpy
    import scipy
    from workloads import config_digest

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": _blas_info(),
        "config_digest": config_digest(w.cfg),
    }


class Run:
    """Counts of attempted and failed ops, with the first few errors."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def attempt(self, fn, *args):
        """Call fn; an exception counts the op as failed.  Returns
        (completed, value)."""
        self.attempted += 1
        try:
            return True, fn(*args)
        except Exception:  # an op that raises is a failed op; keep running
            self.fail(traceback.format_exc(limit=3))
            return False, None

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < MAX_ERRORS:
            self.errors.append(message)


def _set_up(spec, run: Run):
    sys.path.insert(0, str(Path.cwd() / "src"))
    sys.path.insert(0, str(BENCH))
    import workloads as W

    w = W.build(spec["workload"], spec["seed"], spec["tiny"])
    warmed, _ = run.attempt(w.warm_up)
    return W, w, warmed, time.perf_counter() - _T0


def _check_reference(W, w, spec, run: Run) -> None:
    """Compare the warm-up op's values with the stored reference; a
    mismatch fails the warm-up op."""
    stored = json.loads((BENCH / "reference.json").read_text())
    ref = stored["tiny" if spec["tiny"] else "full"].get(w.name)
    try:
        W.verify_reference(w.name, w.reference_values(), ref)
    except Exception:  # a mismatch or a crash in the extra steps fails the op
        run.fail(traceback.format_exc(limit=3))


def _timed_op(w, k, run: Run):
    """Run op k and check it; returns (latency, time spent checking), or
    None if it failed."""
    def op():
        t = time.perf_counter()
        result = w.op(k)
        done = time.perf_counter()
        w.check(k, result)
        return done - t, time.perf_counter() - done
    return run.attempt(op)[1]


def _measure(w, spec, run: Run) -> dict:
    """Closed loop for ``seconds``.  The window excludes the benchmark's own
    output checks, so ``ops_per_s`` counts program time only."""
    latencies = []
    checking = 0.0
    start = time.perf_counter()
    k = 0
    while k == 0 or time.perf_counter() - start < spec["seconds"]:
        timed = _timed_op(w, k, run)
        if timed is not None:
            latencies.append(timed[0])
            checking += timed[1]
        k += 1
    return {"latencies": latencies, "window_s": time.perf_counter() - start - checking,
            "check_s": checking,
            "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}


def _trace(w, spec, run: Run) -> dict:
    from sdtp.complexity import MacCounter
    from tracer import Tracer, attention_macs_by_op, layer_metrics

    tracer = Tracer()
    plain, traced, counted = [], [], {}
    start = time.perf_counter()
    k = 0
    while k == 0 or time.perf_counter() - start < spec["seconds"]:
        for with_trace in ((False, True) if k % 2 == 0 else (True, False)):
            if with_trace:
                with tracer.op(k), MacCounter() as macs:
                    timed = _timed_op(w, k, run)
                counted[k] = macs.total
                if timed is not None:
                    traced.append(timed[0])
            else:
                timed = _timed_op(w, k, run)
                if timed is not None:
                    plain.append(timed[0])
        k += 1
    window = time.perf_counter() - start

    measured = attention_macs_by_op(tracer.spans)
    for op_id, total in counted.items():
        if measured.get(op_id, 0) != total:
            run.fail(f"op {op_id}: attention MACs {measured.get(op_id, 0)} "
                     f"!= MacCounter {total}")
    overhead = statistics.median(traced) / statistics.median(plain) if traced and plain else 0.0
    out_dir = BENCH / "out"
    out_dir.mkdir(exist_ok=True)
    tracer.write(out_dir / f"{w.name}{'.tiny' if spec['tiny'] else ''}.spans.jsonl.gz")
    return {"layers": layer_metrics(tracer.spans, overhead), "window_s": window,
            "traced_ops": len(traced), "plain_ops": len(plain)}


def main() -> int:
    spec = json.loads(sys.argv[1])
    run = Run()
    W, w, warmed, setup_s = _set_up(spec, run)
    result = {"setup_s": setup_s}
    if spec["mode"] != "setup":
        if warmed:
            _check_reference(W, w, spec, run)
        result["environment"] = _environment(w)
        result.update((_measure if spec["mode"] == "measure" else _trace)(w, spec, run))
    result.update(attempted=run.attempted, failed=run.failed, errors=run.errors)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
