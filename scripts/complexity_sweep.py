#!/usr/bin/env python3
"""Sweep the analytic attention-cost model over input resolutions.

For each input resolution the four pyramid levels are derived the standard
way (strides 4/8/16/32 with ceil division), and the full / strided /
decoupled attention costs are tabulated, together with the ratios that
show why full self-attention is infeasible at detection scale while the
decoupled form stays tractable.

Usage:
    python scripts/complexity_sweep.py
    python scripts/complexity_sweep.py --channels 128 --strides 8 4 2 1 \
        --resolutions 400x672 800x1344 --out sweep.json
"""

import argparse
import json
import math
import sys

sys.path.insert(0, "src")  # allow running from a source checkout

from sdtp.complexity import LevelDims, flops_table


def parse_resolution(text: str) -> tuple[int, int]:
    try:
        h, w = text.lower().split("x")
        return int(h), int(w)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected HxW, got {text!r}") from exc


def level_dims(h: int, w: int, channels: int, strides: list[int]) -> list[LevelDims]:
    dims = []
    for k, s in enumerate(strides):
        stride = 4 * 2 ** k  # backbone levels at strides 4, 8, 16, 32, ...
        dims.append(LevelDims(math.ceil(h / stride), math.ceil(w / stride), channels, s=s))
    return dims


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--resolutions", nargs="+", type=parse_resolution,
                    default=[(200, 336), (400, 672), (800, 1344), (1600, 2688)],
                    metavar="HxW", help="input resolutions to sweep")
    ap.add_argument("--channels", type=int, default=256, help="embed width per level")
    ap.add_argument("--strides", nargs="+", type=int, default=[8, 4, 2, 1],
                    help="token-reduction stride per level (strided regime)")
    ap.add_argument("--out", default=None, help="write the JSON report here")
    args = ap.parse_args(argv)

    rows = []
    print(f"{'input':>12} {'full':>18} {'strided':>16} {'decoupled':>14} "
          f"{'full/decoupled':>15} {'strided/decoupled':>18}")
    for h, w in args.resolutions:
        dims = level_dims(h, w, args.channels, args.strides)
        table = flops_table(dims)
        f, s, d = (table["totals"][k] for k in ("full", "strided", "decoupled"))
        rows.append({
            "input": [h, w],
            "levels": [{"h": dd.h, "w": dd.w, "c": dd.c, "s": dd.s} for dd in dims],
            "full": f, "strided": s, "decoupled": d,
            "full_over_decoupled": f / d,
            "strided_over_decoupled": s / d,
            "ordering_ok": table["ordering_ok"],
        })
        print(f"{h:>5}x{w:<6} {f:>18} {s:>16} {d:>14} {f / d:>15.1f} {s / d:>18.2f}")

    ok = all(r["ordering_ok"] for r in rows)
    print(f"\nordering decoupled < strided < full at every resolution: {ok}")
    report = {"kind": "complexity_sweep", "channels": args.channels,
              "strides": args.strides, "rows": rows, "ordering_ok": ok}
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")
        print(f"report written to {args.out}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
