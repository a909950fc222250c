"""The byte contract: each golden report, regenerated in this process
through cli.main, equals its file under tests/golden/ byte for byte where
the run record matches the one the files were made on.

Elsewhere a kernel core or SIMD target of its own moves the last bits, so
values are compared within a relative bound per report.  Each bound is
ten times the largest difference measured with numpy's OpenBLAS forced to
its Haswell, Sandybridge and Prescott kernels (OPENBLAS_CORETYPE) against
the recorded SkylakeX bits, rounded up: forward 9.1e-12, train 6.9e-10,
variants 1.4e-13, the 9x7 variants 1.1e-13, and 0 for both flops
outputs, which hold counts only.  gradcheck's numbers (finite-difference
errors and steps) are rounding noise that moved by up to 0.96 relative,
so off the recorded host its bound of 1 checks only their signs, beside
its structure, op names and pass flags.  Rewrite the files with
``python tests/make_golden.py``.
"""

import json

import pytest

from make_golden import GOLDEN, REPORTS, differences, render, run_record

BOUND = {
    "forward.json": 1e-10,
    "train.json": 7e-9,
    "variants.json": 2e-12,
    "gradcheck.json": 1.0,
    "flops.json": 0.0,
    "flops.csv": 0.0,
    "variants_9x7.json": 2e-12,
}


@pytest.fixture(scope="module")
def recorded_here():
    return run_record() == json.loads((GOLDEN / "run_record.json").read_text())


def test_every_report_has_a_bound():
    assert set(BOUND) == set(REPORTS)


@pytest.mark.parametrize("name", list(REPORTS))
def test_report_matches_golden(name, tmp_path, recorded_here):
    got, want = render(name, tmp_path), (GOLDEN / name).read_bytes()
    changed, worst = differences(name, got, want) if got != want else ([], 0.0)
    if changed:
        where = (f"{len(changed)} field(s) differ, the first at {changed[0]}, "
                 f"the largest by {worst:.3e} relative")
    else:
        where = "byte-identical" if got == want else "the values agree but the bytes differ"
    if recorded_here:
        assert got == want, f"{name} is not byte-identical to tests/golden/{name}: {where}"
    else:
        # another host: say that the bounded comparison ran, and what it found
        print(f"{name}: the run record differs from tests/golden/run_record.json, so "
              f"values were compared within {BOUND[name]:g} relative: {where}")
        assert worst <= BOUND[name], f"{name} beyond its bound {BOUND[name]:g}: {where}"
