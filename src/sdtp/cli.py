"""Command-line driver.

Subcommands: forward (synthetic-pyramid forward pass + report), gradcheck
(finite-difference verification of every registered op and the end-to-end
pipeline), flops (analytic attention-cost tables at the configured level
dims, and the sweep over the standard input resolutions), train (toy
identity regression), variants (structural comparison of all ablation
variants; with --train-steps N, also each variant's loss ratio after N toy
training steps).  build_parser is the one list of them: each subparser
names its handler, which main() runs.  Every report opens with its kind,
config and seed, which _emit writes ahead of the subcommand's own keys.

Exit codes: 0 success, 1 check failure (gradient mismatch, contract
violation, divergence, a failed cost ordering), 2 configuration error.
Reports are deterministic for a fixed config and seed: wall-clock timings
and peak memory go to stderr only, never into the serialized report.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import resource
import sys
import time
from pathlib import Path

from . import complexity as CX
from . import gradcheck as GC
from . import pyramid as P
from .config import ConfigurationError, PipelineConfig, load_config
from .tensor import ContractViolation


def _add_common(sp: argparse.ArgumentParser, handler, formats: tuple[str, ...]) -> None:
    """The subcommand's handler, which main() runs, and the flags every
    subcommand takes."""
    sp.set_defaults(handler=handler)
    sp.add_argument("--config", default=None, help="YAML/JSON config file")
    sp.add_argument("--seed", type=int, default=None, help="override config seed")
    sp.add_argument("--out", default=None, help="write the JSON report here")
    sp.add_argument("--format", choices=formats, default="table", help="stdout format")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="sdtp",
                                 description="Decoupled transformer pyramid toolkit")
    sub = ap.add_subparsers(dest="command", required=True)

    fwd = sub.add_parser("forward", help="synthetic-pyramid forward pass and report")
    _add_common(fwd, cmd_forward, ("table", "json"))
    fwd.add_argument("--variant", default=None, help="override config variant")

    gc = sub.add_parser("gradcheck", help="finite-difference gradient verification")
    _add_common(gc, cmd_gradcheck, ("table", "json"))
    gc.add_argument("--ops", default=None,
                    help="comma-separated subset of registered cases")
    gc.add_argument("--negative-control", action="store_true",
                    help="include a deliberately corrupted gradient (must fail)")

    # flops alone renders csv
    fl = sub.add_parser("flops", help="analytic attention-cost tables")
    _add_common(fl, cmd_flops, ("table", "csv", "json"))

    tr = sub.add_parser("train", help="toy identity-regression training run")
    _add_common(tr, cmd_train, ("table", "json"))

    va = sub.add_parser("variants", help="compare the ablation variants structurally")
    _add_common(va, cmd_variants, ("table", "json"))
    va.add_argument("--channels", type=int, default=16,
                    help="probe channel width (kept small for speed)")
    va.add_argument("--base-hw", type=int, nargs=2, default=(16, 16),
                    help="probe spatial dims at the shallowest level")
    va.add_argument("--train-steps", type=int, default=0,
                    help="also run this many toy-training steps per variant")
    return ap


def _load(args) -> PipelineConfig:
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    if getattr(args, "variant", None):
        cfg = dataclasses.replace(cfg, variant=args.variant)
    return cfg


def _emit(args, kind: str, cfg: PipelineConfig, body: dict, table_text: str,
          csv_text: str | None = None) -> None:
    """Print the report, its kind, config and seed followed by body, in the
    --format asked for, and write it to --out."""
    report = {"kind": kind, "config": cfg.to_dict(), "seed": cfg.seed, **body}
    payload = json.dumps(report, indent=2) + "\n"
    sys.stdout.write({"table": table_text, "csv": csv_text, "json": payload}[args.format])
    if args.out:
        Path(args.out).write_text(payload)


def _flops_renders(table: dict, sweep: list[dict]) -> tuple[str, str]:
    """The table text (the level table, then the sweep, its counts under
    the level table's) and the csv (the level table only)."""
    layouts = list(table["totals"])

    def counts(values: dict) -> str:  # the full layout's counts run longest
        return " ".join(f"{values[k]:>{16 if k == 'full' else 14}}" for k in layouts)

    names = counts({k: k for k in layouts})
    lines = [f"{'level':>5} {'h':>5} {'w':>5} {'c':>4} {'s':>2} {names}"]
    for k, row in enumerate(table["levels"]):
        lines.append(f"{k:>5} {row['h']:>5} {row['w']:>5} {row['c']:>4} {row['s']:>2} {counts(row)}")
    t = table["totals"]
    lines.append(f"{'total':>5} {'':>5} {'':>5} {'':>4} {'':>2} {counts(t)}")
    lines.append(f"ordering decoupled < strided < full: {table['ordering_ok']}")
    # the sweep's input column is as wide as the level table's h, w, c, s
    lines += ["", f"{'input':>25} {names} {'full/decoupled':>15} {'strided/decoupled':>18}"]
    for row in sweep:
        lines.append(f"{'x'.join(map(str, row['input'])):>25} {counts(row)} "
                     f"{row['full_over_decoupled']:>15.1f} {row['strided_over_decoupled']:>18.2f}")
    every = all(row["ordering_ok"] for row in sweep)
    lines.append(f"ordering decoupled < strided < full at every input: {every}")
    text = "\n".join(lines) + "\n"

    # a level row holds h, w, c, s, then the layouts: the csv columns
    csv_lines = [",".join(["level", "h", "w", "c", "s", *layouts])]
    csv_lines += [",".join(map(str, (k, *row.values()))) for k, row in enumerate(table["levels"])]
    csv_lines.append(",".join(["total", "", "", "", "", *map(str, t.values())]))
    csv = "\n".join(csv_lines) + "\n"
    return text, csv


def cmd_forward(args) -> int:
    cfg = _load(args)
    pyr = P.synthetic_pyramid(cfg)
    pipe = P.Pipeline(cfg)

    t0 = time.perf_counter()
    outs, dep = pipe.forward(pyr)
    wall = time.perf_counter() - t0
    levels, sens = P.cross_level_sensitivity(pipe, pyr, outs)
    flops = CX.flops_table(_complexity_dims(cfg))

    sensitivity = {"levels": levels, "matrix": sens.tolist(),
                   "any_cross_level": P.any_cross_level(sens)}
    body = {
        "variant": cfg.variant,
        "levels": {
            str(lvl): {
                "input_shape": list(pyr.levels[lvl].shape),
                "output_shape": list(outs[lvl].shape),
            } for lvl in sorted(outs)
        },
        "dep_loss": dep,
        "flops": flops,
        "cross_level_sensitivity": sensitivity,
    }
    lines = [f"variant: {cfg.variant}   seed: {cfg.seed}   dep_loss: {dep!r}"]
    for lvl in sorted(outs):
        lines.append(f"  level {lvl}: in {pyr.levels[lvl].shape} -> out {outs[lvl].shape}")
    lines.append(f"cross-level sensitivity (rows: bumped level, cols: output level):")
    for i, lvl in enumerate(levels):
        row = "  ".join(f"{v:.3e}" for v in sens[i])
        lines.append(f"  level {lvl}: {row}")
    lines.append(f"any cross-level coupling: {sensitivity['any_cross_level']}")
    _emit(args, "forward", cfg, body, "\n".join(lines) + "\n")
    _print_cost("forward", wall)
    return 0


def _print_cost(kind: str, wall: float) -> None:
    """Print the run's wall time and this process's peak resident set size
    so far to stderr (ru_maxrss counts KiB on Linux and bytes on macOS)."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    peak /= 2 ** 20 if sys.platform == "darwin" else 2 ** 10
    print(f"{kind} wall time: {wall:.3f}s   peak RSS: {peak:.1f} MiB", file=sys.stderr)


def cmd_gradcheck(args) -> int:
    cfg = _load(args)
    names = GC.registered_cases()
    if args.ops is not None:
        wanted = [s.strip() for s in args.ops.split(",") if s.strip()]
        if not wanted:
            raise ConfigurationError(f"--ops {args.ops!r} selects no case; known: {names}")
        unknown = [w for w in wanted if w not in names]
        if unknown:
            raise ConfigurationError(f"--ops: unknown case(s) {unknown}; known: {names}")
        repeated = sorted({w for w in wanted if wanted.count(w) > 1})
        if repeated:
            raise ConfigurationError(f"--ops: case(s) {repeated} named more than once")
        names = wanted

    gc = cfg.gradcheck
    settings = dict(points=gc.points, tolerance=gc.tolerance, step=gc.step, seed=cfg.seed)
    reports = GC.run_all(names, **settings)
    if args.negative_control:
        reports.append(GC.run_case("corrupted_linear", factory=GC.corrupted_linear, **settings))
    lines = []
    worst = None
    for rep in reports:
        status = "ok" if rep.passed else "FAIL"
        lines.append(f"{rep.op:<24} {status:<5} max_rel_err={rep.max_rel_err:.3e}")
        if rep.diagnostic:
            lines.append(f"    {rep.diagnostic}")
        if worst is None or rep.max_rel_err > worst.max_rel_err:
            worst = rep
    all_ok = all(r.passed for r in reports)
    if not all_ok:
        lines.append(f"worst offender: {worst.op} (max_rel_err={worst.max_rel_err:.3e})")
    body = {"tolerance": gc.tolerance, "passed": all_ok, "cases": [r.to_dict() for r in reports]}
    _emit(args, "gradcheck", cfg, body, "\n".join(lines) + "\n")
    return 0 if all_ok else 1


def _complexity_dims(cfg: PipelineConfig) -> list[CX.LevelDims]:
    cc = cfg.complexity
    return [CX.LevelDims(h, w, cc.channels, s) for (h, w), s in zip(cc.dims, cc.strides)]


def cmd_flops(args) -> int:
    cfg = _load(args)
    table = CX.flops_table(_complexity_dims(cfg))
    sweep = CX.resolution_sweep(cfg.complexity.channels, cfg.complexity.strides)
    text, csv = _flops_renders(table, sweep)
    _emit(args, "flops", cfg, {"flops": table, "sweep": sweep}, text, csv)
    return 0 if all(t["ordering_ok"] for t in (table, *sweep)) else 1


def cmd_train(args) -> int:
    toy = PipelineConfig.for_train(_load(args))
    pipe = P.Pipeline(toy)
    pyr = P.synthetic_pyramid(toy)
    t0 = time.perf_counter()
    trace = P.toy_train(pipe, pyr)
    wall = time.perf_counter() - t0
    body = {
        "steps": toy.train.steps,
        "lr": toy.train.lr,
        "initial_total": trace.initial,
        "final_total": trace.final,
        "reduction_ratio": trace.ratio,
        "trace_total": trace.total,
        "trace_task": trace.task,
        "trace_dep": trace.dep,
    }
    lines = [
        f"toy identity regression: {toy.train.steps} steps, lr={toy.train.lr}, "
        f"lambda={toy.cdi.lam}",
        f"initial total loss: {trace.initial!r}",
        f"final   total loss: {trace.final!r}",
        f"reduction ratio:    {trace.ratio!r}",
    ]
    _emit(args, "train", toy, body, "\n".join(lines) + "\n")
    _print_cost("train", wall)
    return 0


def cmd_variants(args) -> int:
    if args.train_steps < 0:
        raise ConfigurationError(f"--train-steps: must be >= 0, got {args.train_steps}")
    cfg = _load(args)
    probe = cfg.shrink(args.channels, tuple(args.base_hw), cfg.cdi.levels)
    rows = P.variant_rows(probe, args.train_steps)
    lines = [f"{r['variant']:<18} params={r['n_params']:>8} "
             f"dep_loss={r['dep_loss']:>12.5f} cross_level={r['any_cross_level']}"
             + (f" loss_ratio={r['train']['ratio']:.4f}" if "train" in r else "") for r in rows]
    _emit(args, "variants", probe, {"variants": rows}, "\n".join(lines) + "\n")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except ContractViolation as exc:
        print(f"contract violation: {exc}", file=sys.stderr)
        return 1
    except P.TrainingDiverged as exc:
        print(f"training diverged: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
