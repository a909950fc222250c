#!/usr/bin/env python3
"""Side-by-side ablation of the pipeline variants on one synthetic pyramid.

For every variant this builds the pipeline at small probe dims, runs the
forward pass, measures cross-level sensitivity, counts parameters, and
(optionally) runs the toy identity-regression for a fixed number of steps
so the variants' trainability can be compared on equal footing.  The rows
have the same keys as those of ``sdtp variants``, plus a ``train`` block
when training runs.  All numbers are deterministic for a fixed seed.

Usage:
    python scripts/ablation_report.py
    python scripts/ablation_report.py --train-steps 50 --seed 3 --out ablation.json
"""

import argparse
import dataclasses
import json
import sys

sys.path.insert(0, "src")  # allow running from a source checkout

from sdtp.config import IspConfig, PipelineConfig
from sdtp.pyramid import Pipeline, synthetic_pyramid, toy_train, variant_rows


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--channels", type=int, default=8)
    ap.add_argument("--base-hw", type=int, nargs=2, default=(8, 8))
    ap.add_argument("--levels", type=int, nargs="+", default=[4, 5])
    ap.add_argument("--train-steps", type=int, default=0,
                    help="also run this many toy-training steps per variant")
    ap.add_argument("--lr", type=float, default=0.1)
    ap.add_argument("--out", default=None, help="write the JSON report here")
    args = ap.parse_args(argv)

    base = PipelineConfig(seed=args.seed, isp=IspConfig(rates=(1, 2))).shrink(
        args.channels, tuple(args.base_hw), tuple(args.levels))

    rows = variant_rows(base)
    print(f"{'variant':<18} {'params':>8} {'dep_loss':>12} {'cross':>6}"
          + (f" {'loss_ratio':>11}" if args.train_steps else ""))
    for row in rows:
        line = (f"{row['variant']:<18} {row['n_params']:>8} {row['dep_loss']:>12.5f} "
                f"{str(row['any_cross_level']):>6}")
        if args.train_steps:
            cfg = dataclasses.replace(base, variant=row["variant"])
            trace = toy_train(Pipeline(cfg), synthetic_pyramid(cfg),
                              steps=args.train_steps, lr=args.lr)
            row["train"] = {
                "steps": args.train_steps, "lr": args.lr,
                "initial": trace.initial, "final": trace.final,
                "ratio": trace.final / trace.initial,
            }
            line += f" {row['train']['ratio']:>11.4f}"
        print(line)

    report = {"kind": "ablation", "seed": args.seed, "channels": args.channels,
              "base_hw": list(args.base_hw), "levels": list(base.cdi.levels),
              "variants": rows}
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")
        print(f"report written to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
