"""Reproduce Table 7 (truth inference effectiveness).

Run: python jobs/table7_truth_inference.py [--seeds N]
"""
import argparse

from repro.harness.table7 import build_table7, format_table7
from repro.session import build_session


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=int, default=5, help="generator replicates")
    args = ap.parse_args()
    spark = build_session("table7")
    measured = build_table7(spark, n_seeds=args.seeds)
    print(format_table7(measured))
    spark.stop()


if __name__ == "__main__":
    main()
