"""Reproduce the task-assignment experiments (Figures 2 and 5, tabulated).

Run: python jobs/assignment_convergence.py [--experiment end_to_end|heuristics]
     [--dataset restaurant|celebrity|emotion] [--seeds N]
"""
import argparse

from repro.crowd.simulator import SimConfig
from repro.harness.assignment_tables import (
    build_assignment_table,
    format_assignment_table,
)
from repro.session import build_session


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--experiment", default="end_to_end",
                    choices=["end_to_end", "heuristics"])
    ap.add_argument("--dataset", default="restaurant")
    ap.add_argument("--seeds", type=int, default=2)
    args = ap.parse_args()
    spark = build_session("assignment")
    cfg = SimConfig(
        batch_size=5,
        max_answers_per_task=4.0,
        checkpoints=(1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0),
    )
    table = build_assignment_table(
        spark,
        dataset=args.dataset,
        experiment=args.experiment,
        n_seeds=args.seeds,
        config=cfg,
    )
    title = (
        f"{'Fig 2 (end-to-end systems)' if args.experiment == 'end_to_end' else 'Fig 5 (heuristics)'}"
        f" — {args.dataset}, {args.seeds} replicate(s)"
    )
    print(format_assignment_table(table, title))
    spark.stop()


if __name__ == "__main__":
    main()
