"""Acceptance gate: the ten quantitative criteria, each with its stated
tolerance and runtime budget.  One PASS/FAIL line prints per criterion
(run with `pytest -s` to see them live)."""

import json
import subprocess
import sys
import time
from contextlib import contextmanager

import numpy as np

from sdtp.arf import arf
from sdtp.cdi import DecoupledPair, decouple_loss, recouple
from sdtp.complexity import (
    COCO_LEVEL_DIMS,
    LevelDims,
    flops_decoupled,
    flops_full,
    flops_strided,
    measured_macs,
)
from sdtp.config import CdiConfig, IspConfig, PipelineConfig
from sdtp.gradcheck import registered_cases, run_all
from sdtp.pyramid import (
    Pipeline,
    cross_level_sensitivity,
    synthetic_pyramid,
    toy_train,
    zero_enhancement_branches,
)
from sdtp.tensor import Tensor

from oracles import naive_recouple


@contextmanager
def criterion(n: int, budget_s: float, title: str):
    """Time a criterion body, enforce its runtime budget, print one line."""
    t0 = time.perf_counter()
    info = {"detail": ""}
    try:
        yield info
    except BaseException:
        wall = time.perf_counter() - t0
        print(f"criterion {n:>2}: FAIL  {title} [{wall:.2f}s]", flush=True)
        raise
    wall = time.perf_counter() - t0
    ok = wall < budget_s
    verdict = "PASS" if ok else "FAIL"
    detail = f" — {info['detail']}" if info["detail"] else ""
    print(f"criterion {n:>2}: {verdict}  {title}{detail} "
          f"[{wall:.2f}s / budget {budget_s:g}s]", flush=True)
    assert ok, f"criterion {n} exceeded its runtime budget: {wall:.2f}s >= {budget_s}s"


def small_pipeline_cfg(variant, levels=(4, 5), base_hw=(8, 8), seed=0):
    return PipelineConfig(
        variant=variant, seed=seed, channels=8, in_channels=8, base_hw=base_hw,
        isp=IspConfig(heads=2, rates=(1, 2)),
        cdi=CdiConfig(heads=2, levels=tuple(levels)))


def test_criterion_01_activation_degenerates_to_rectified_tanh():
    """1: zero-offset activation equals max(tanh, 0) to 1e-12 on a 1e4 grid."""
    with criterion(1, 1.0, "zero-offset activation == max(tanh, 0) on [-10, 10]") as info:
        grid = np.linspace(-10.0, 10.0, 10**4)
        err = np.abs(arf(grid, tau=0.0) - np.maximum(np.tanh(grid), 0.0)).max()
        info["detail"] = f"max abs err {err:.2e} < 1e-12"
        assert err < 1e-12


def test_criterion_02_activation_clips_and_boosts():
    """2: output is 0 for all x <= 0 and exceeds tanh on (0, 10]."""
    with criterion(2, 1.0, "activation clips at zero and boosts above tanh") as info:
        grid = np.linspace(-10.0, 10.0, 10**4)
        neg = grid[grid <= 0.0]
        clipped_ok = bool(np.all(arf(neg, tau=2.0) == 0.0)
                          and np.all(arf(neg, tau=0.0) == 0.0))
        pos = grid[grid > 0.0]
        boost_ok = bool(np.all(arf(pos, tau=2.0) > np.tanh(pos)))
        info["detail"] = f"clip ok: {clipped_ok}, boost ok: {boost_ok}"
        assert clipped_ok and boost_ok


def test_criterion_03_gradient_suite():
    """3: every registered op + end-to-end pipeline passes VJP checks."""
    with criterion(3, 60.0, "gradient checks: all registered ops + pipeline") as info:
        names = registered_cases()
        assert "sdtp_pipeline" in names
        reports = run_all(names, points=10, tolerance=1e-4, step=1e-5, seed=0)
        worst = max(reports, key=lambda r: r.max_rel_err)
        failed = [r.op for r in reports if not r.passed]
        info["detail"] = (f"{len(reports)} cases, worst {worst.op} "
                          f"max_rel_err {worst.max_rel_err:.2e} < 1e-4")
        assert not failed, f"failing cases: {failed}"


def test_criterion_04_decoupling_exactness():
    """4: outer-sum pyramids have zero penalty; recouple matches the oracle."""
    with criterion(4, 5.0, "decoupling penalty exactness and recouple oracle") as info:
        rng = np.random.default_rng(17)
        maps, pairs = [], []
        for lvl, (c, h, w) in enumerate([(4, 6, 5), (4, 3, 3), (4, 2, 7)]):
            y = Tensor(rng.standard_normal((c, h, 1)))
            x = Tensor(rng.standard_normal((c, 1, w)))
            pairs.append(DecoupledPair(y=y, x=x, level=lvl))
            maps.append(Tensor(y.data + x.data))
        penalty = abs(float(decouple_loss(maps, pairs).data))
        assert penalty < 1e-12

        worst = 0.0
        for _ in range(20):
            c, h, w = (int(rng.integers(1, 8)) for _ in range(3))
            y = rng.standard_normal((c, h, 1))
            x = rng.standard_normal((c, 1, w))
            got = recouple(DecoupledPair(y=Tensor(y), x=Tensor(x), level=0)).data
            want = naive_recouple(y, x)
            np.testing.assert_array_equal(got, want)
            worst = max(worst, float(np.abs(got - want).max()))
        info["detail"] = f"penalty {penalty:.2e} < 1e-12; 20/20 recouples exact"


def test_criterion_05_complexity_ordering():
    """5: decoupled < strided < full on benchmark dims; s=1 equals full."""
    with criterion(5, 1.0, "attention-cost ordering and stride-1 identity") as info:
        d = flops_decoupled(COCO_LEVEL_DIMS)
        s = flops_strided(COCO_LEVEL_DIMS)
        f = flops_full(COCO_LEVEL_DIMS)
        assert d < s < f
        unit = [LevelDims(dd.h, dd.w, dd.c, s=1) for dd in COCO_LEVEL_DIMS]
        assert flops_strided(unit) == flops_full(unit) == f
        info["detail"] = f"decoupled {d} < strided {s} < full {f}; s=1 == full"


def test_criterion_06_measured_macs_match_formulas():
    """6: instrumented attention MACs equal the closed forms exactly."""
    with criterion(6, 5.0, "measured attention MACs == analytic forms") as info:
        cases = [
            [LevelDims(2, 2, 4)],
            [LevelDims(2, 2, 4), LevelDims(1, 1, 4)],
        ]
        checked = 0
        for dims in cases:
            assert measured_macs("full", dims) == flops_full(dims)
            assert measured_macs("decoupled", dims) == flops_decoupled(dims)
            checked += 2
        info["detail"] = f"{checked}/{checked} exact matches on (c=4, h=w=2) configs"


def test_criterion_07_structural_findings():
    """7: per-level variant has zero cross-level sensitivity; the full
    pipeline couples every pair including the non-adjacent extremes."""
    with criterion(7, 10.0, "cross-level sensitivity structure") as info:
        iso_cfg = small_pipeline_cfg("no_interaction", levels=(2, 3, 4, 5),
                                     base_hw=(16, 16))
        iso = Pipeline(iso_cfg)
        iso_pyr = synthetic_pyramid(iso_cfg)
        levels, mat = cross_level_sensitivity(iso, iso_pyr, iso.forward(iso_pyr)[0])
        off = mat[~np.eye(len(levels), dtype=bool)]
        assert np.all(off == 0.0), "isolated variant leaked across levels"

        full_cfg = small_pipeline_cfg("sdtp", levels=(2, 3, 4, 5), base_hw=(16, 16))
        full = Pipeline(full_cfg)
        full_pyr = synthetic_pyramid(full_cfg)
        levels2, mat2 = cross_level_sensitivity(full, full_pyr, full.forward(full_pyr)[0])
        assert np.all(mat2 > 0.0), f"zero entries in sensitivity:\n{mat2}"
        i2, i5 = levels2.index(2), levels2.index(5)
        info["detail"] = (f"isolated off-diag all 0.0; full all >0 "
                          f"(2->5: {mat2[i2, i5]:.1e}, 5->2: {mat2[i5, i2]:.1e})")


def test_criterion_08_degenerates_to_baseline():
    """8: with enhancement branches zeroed, the full pipeline equals the
    plain baseline holding the same lateral/smooth weights."""
    with criterion(8, 5.0, "zeroed branches reproduce the baseline") as info:
        cfg = small_pipeline_cfg("sdtp")
        pipe = Pipeline(cfg)
        zero_enhancement_branches(pipe)
        base = Pipeline(small_pipeline_cfg("fpn_baseline"))
        for lvl in pipe.levels:
            base.lateral[lvl].data = pipe.lateral[lvl].data.copy()
            base.smooth[lvl].data = pipe.smooth[lvl].data.copy()
        pyr = synthetic_pyramid(cfg, seed=3)
        got, _ = pipe.forward(pyr)
        want, _ = base.forward(pyr)
        worst = max(float(np.abs(got[lvl] - want[lvl]).max()) for lvl in want)
        info["detail"] = f"max abs deviation {worst:.2e} <= 1e-12"
        assert worst <= 1e-12


def test_criterion_09_toy_optimization():
    """9: 200 seeded descent steps cut the loss below 10% of its start,
    and the full trace is bit-reproducible."""
    with criterion(9, 120.0, "toy identity regression converges, reproducibly") as info:
        cfg = PipelineConfig.for_train(PipelineConfig())
        assert cfg.train.steps == 200 and cfg.cdi.lam == 0.01

        def run():
            pipe = Pipeline(cfg)
            pyr = synthetic_pyramid(cfg)
            return toy_train(pipe, pyr, steps=cfg.train.steps)

        t1, t2 = run(), run()
        ratio = t1.final / t1.initial
        assert ratio < 0.10, f"insufficient reduction: {ratio:.4f}"
        assert t1.total == t2.total and t1.task == t2.task and t1.dep == t2.dep
        info["detail"] = (f"final/initial = {ratio:.4f} < 0.10 over "
                          f"{cfg.train.steps} steps; trace bit-identical")


def test_criterion_10_deterministic_reports(tmp_path):
    """10: the forward command writes byte-identical reports in two fresh
    processes at a fixed seed."""
    with criterion(10, 10.0, "forward reports byte-identical across runs") as info:
        outs = []
        for name in ("a.json", "b.json"):
            path = tmp_path / name
            proc = subprocess.run(
                [sys.executable, "-m", "sdtp.cli", "forward", "--out", str(path)],
                capture_output=True, text=True, timeout=60)
            assert proc.returncode == 0, proc.stderr
            outs.append(path.read_bytes())
        assert outs[0] == outs[1]
        rep = json.loads(outs[0])
        info["detail"] = (f"{len(outs[0])} bytes identical "
                          f"(variant {rep['variant']}, seed {rep['seed']})")
