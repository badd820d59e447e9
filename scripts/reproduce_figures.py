#!/usr/bin/env python3
"""Reproduce the headline dynamics figures: tau and discord versus kappa*t.

Runs two sweeps (a dense cheap one for the concurrence bound and PPT
witness, a coarser one for the optimised discord), writes their CSVs,
emits the standalone plot scripts, and executes them.  Everything lands
in --out-dir.
"""

import argparse
import os
import subprocess
import sys

from ghzdyn.sweep import SweepConfig, emit_csv, emit_plot_script, run_sweep


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="figures", help="output directory (default: figures)")
    parser.add_argument("--steps", type=int, default=61,
                        help="grid points for the discord sweep (default 61)")
    parser.add_argument("--jobs", type=int, default=max(1, (os.cpu_count() or 1) // 2),
                        help="processes for the discord sweep")
    args = parser.parse_args()

    os.makedirs(args.out_dir, exist_ok=True)

    tau_csv = os.path.join(args.out_dir, "tau_sweep.csv")
    print(f"sweeping tau/ppt/entropy on 121 points -> {tau_csv}")
    tau_config = SweepConfig(measures=("tau", "ppt", "entropy"), kt_max=0.6, steps=121)
    tau_records = run_sweep(tau_config)
    emit_csv(tau_records, tau_csv)
    tau_script = emit_plot_script(tau_records, tau_csv)

    gqd_csv = os.path.join(args.out_dir, "gqd_sweep.csv")
    print(f"sweeping discord on {args.steps} points with {args.jobs} jobs -> {gqd_csv}")
    gqd_config = SweepConfig(measures=("gqd",), kt_max=0.6, steps=args.steps, jobs=args.jobs)
    gqd_records = run_sweep(gqd_config)
    emit_csv(gqd_records, gqd_csv)
    gqd_script = emit_plot_script(gqd_records, gqd_csv)

    for script in (tau_script, gqd_script):
        print(f"rendering {script}")
        subprocess.run([sys.executable, script], check=True)
    print(f"done; see {args.out_dir}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
