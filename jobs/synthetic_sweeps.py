"""Reproduce the §6.5 synthetic sweeps (Figures 7–10, tabulated).

Run: python jobs/synthetic_sweeps.py [--experiment columns|ratio|difficulty|noise|all]
     [--reps N]
"""
import argparse

from repro.harness.sweeps import SWEEP_VALUES, build_sweep, format_sweep
from repro.session import build_session


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--experiment", default="all",
                    choices=[*SWEEP_VALUES.keys(), "all"])
    ap.add_argument("--reps", type=int, default=10)
    args = ap.parse_args()
    spark = build_session("sweeps")
    exps = list(SWEEP_VALUES) if args.experiment == "all" else [args.experiment]
    for exp in exps:
        table = build_sweep(spark, exp, n_reps=args.reps)
        print(format_sweep(table, f"Sweep: {exp} ({args.reps} reps)"))
        print()
    spark.stop()


if __name__ == "__main__":
    main()
