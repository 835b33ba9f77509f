"""Quality-agnostic baselines: Majority Voting and Median (§2, §6.2).

Both are pandas kernels with the uniform baseline signature
``fn(answers, schema) -> (row, col, truth)``; the harnesses fan them out over
Spark inside ``applyInPandas``. Their results are verified against DuckDB
SQL by the oracle tests (tests/test_voting.py).

Tie-breaking for MV is deterministic: smallest label code among the
modal labels, in the kernel and in the DuckDB oracle queries.
"""
from __future__ import annotations

import pandas as pd

from ..crowd.schema import TableSchema, restrict_answers


def majority_vote(answers: pd.DataFrame, schema: TableSchema) -> pd.DataFrame:
    """Per categorical cell: most frequent label, ties to smallest label."""
    cat = restrict_answers(answers, schema, "cat").copy()
    if cat.empty:
        return pd.DataFrame(columns=["row", "col", "truth"])
    cat["value"] = cat["value"].round()
    counts = (
        cat.groupby(["row", "col", "value"]).size().rename("n").reset_index()
    )
    counts = counts.sort_values(
        ["row", "col", "n", "value"], ascending=[True, True, False, True]
    )
    top = counts.drop_duplicates(["row", "col"], keep="first")
    return top.rename(columns={"value": "truth"})[["row", "col", "truth"]].reset_index(
        drop=True
    )


def median_vote(answers: pd.DataFrame, schema: TableSchema) -> pd.DataFrame:
    """Per continuous cell: median of the answers."""
    cont = restrict_answers(answers, schema, "cont")
    if cont.empty:
        return pd.DataFrame(columns=["row", "col", "truth"])
    med = cont.groupby(["row", "col"])["value"].median().rename("truth").reset_index()
    return med[["row", "col", "truth"]]


def mv_median(answers: pd.DataFrame, schema: TableSchema) -> pd.DataFrame:
    """The naive combined baseline: MV on categorical + median on continuous."""
    parts = [
        p
        for p in (majority_vote(answers, schema), median_vote(answers, schema))
        if not p.empty
    ]
    if not parts:
        return pd.DataFrame(columns=["row", "col", "truth"])
    return pd.concat(parts).sort_values(["row", "col"]).reset_index(drop=True)
