"""CRH baseline [18] — heterogeneous truth discovery.

CRH minimises Σ_u w_u Σ_cells d(a^u_ij, T̂_ij) with the entropy-style
regulariser that yields the closed-form weight update

    w_u = log( Σ_{u'} loss_{u'} / loss_u ).

Distances follow the CRH paper: 0-1 loss for categorical columns and the
squared distance normalised by the column's answer std for continuous
columns. Truth updates are weighted votes (categorical) and weighted means
(continuous). Initialisation is MV/median.

:func:`weighted_truth_discovery` is that loop with the weight rule as an
argument; :func:`crh` and CATD (`catd.py`) each pass their own rule. Both
have the uniform baseline signature ``fn(answers, schema) -> (row, col,
truth)``; the harnesses fan them out over Spark inside ``applyInPandas``.
"""
from __future__ import annotations

from typing import Callable

import numpy as np
import pandas as pd

from ..crowd.schema import TableSchema
from .voting import mv_median

_EPS = 1e-9


def _column_sd(answers: pd.DataFrame, schema: TableSchema) -> dict[int, float]:
    sds = {}
    for j in schema.continuous_idx:
        v = answers.loc[answers["col"] == j, "value"]
        sds[j] = max(float(v.std(ddof=0)), _EPS)
    return sds


def _losses(
    answers: pd.DataFrame, truth: pd.DataFrame, schema: TableSchema, sds: dict
) -> tuple[pd.Series, np.ndarray]:
    """Each answer's distance to the truth of its cell: 0-1 loss on
    categorical columns, squared distance in units of ``sds`` on continuous
    ones. Returns the answers' workers and their losses, in answer order."""
    m = answers.merge(truth, on=["row", "col"])
    is_cat = m["col"].isin(schema.categorical_idx).to_numpy()
    sd = m["col"].map(sds).fillna(1.0).to_numpy()
    err = np.where(
        is_cat,
        (m["value"].round() != m["truth"].round()).astype(float),
        ((m["value"] - m["truth"]) / sd) ** 2,
    )
    return m["worker"], err


def weighted_truth_discovery(
    answers: pd.DataFrame,
    schema: TableSchema,
    worker_weights: Callable[[np.ndarray, np.ndarray], np.ndarray],
    *,
    max_iter: int,
    tol: float,
) -> pd.DataFrame:
    """Alternate worker weights and truths from an MV/median start.

    ``worker_weights(loss_u, n_u)`` maps each worker's summed loss
    (:func:`_losses`) and answer count to its weight. The truth is then the
    weighted vote (ties to the smallest label) on categorical cells and the
    weighted mean on continuous ones. Stops after ``max_iter`` rounds or
    once the total loss changes by less than ``tol`` relative.
    """
    sds = _column_sd(answers, schema)
    truth = mv_median(answers[["worker", "row", "col", "value"]], schema)
    _, w_inv = np.unique(answers["worker"].to_numpy(np.int64), return_inverse=True)
    n_u = np.bincount(w_inv).astype(float)
    is_cat = answers["col"].isin(schema.categorical_idx).to_numpy()
    cat = answers[is_cat].assign(label=answers.loc[is_cat, "value"].round())
    cont = answers[~is_cat]

    prev_loss = None
    for _ in range(max_iter):
        _, err = _losses(answers, truth, schema, sds)
        loss_u = np.bincount(w_inv, weights=err, minlength=len(n_u)) + _EPS
        w = worker_weights(loss_u, n_u)[w_inv]
        tv = (
            cat.assign(w=w[is_cat])
            .groupby(["row", "col", "label"])["w"].sum().reset_index()
            .sort_values(["row", "col", "w", "label"], ascending=[True, True, False, True])
            .drop_duplicates(["row", "col"], keep="first")
            .rename(columns={"label": "truth"})[["row", "col", "truth"]]
        )
        tc = (
            cont.assign(wv=w[~is_cat] * cont["value"], w=w[~is_cat])
            .groupby(["row", "col"])[["wv", "w"]]
            .sum()
            .reset_index()
        )
        tc["truth"] = tc["wv"] / np.maximum(tc["w"], _EPS)
        truth = pd.concat([tv, tc[["row", "col", "truth"]]], ignore_index=True)

        total = float(err.sum())
        if prev_loss is not None and abs(prev_loss - total) < tol * max(prev_loss, 1.0):
            break
        prev_loss = total
    return truth.sort_values(["row", "col"]).reset_index(drop=True)


def _crh_weights(loss_u: np.ndarray, n_u: np.ndarray) -> np.ndarray:
    return np.maximum(np.log(loss_u.sum() / loss_u), _EPS)


def crh(
    answers: pd.DataFrame,
    schema: TableSchema,
    *,
    max_iter: int = 20,
    tol: float = 1e-6,
) -> pd.DataFrame:
    return weighted_truth_discovery(
        answers, schema, _crh_weights, max_iter=max_iter, tol=tol
    )


def crh_worker_weights(answers: pd.DataFrame, schema: TableSchema) -> pd.DataFrame:
    """Final CRH worker weights (used by CATD-style analyses and tests)."""
    truth = crh(answers, schema)
    workers, err = _losses(answers, truth, schema, _column_sd(answers, schema))
    loss = pd.Series(err).groupby(workers.to_numpy()).sum() + _EPS
    return pd.DataFrame(
        {"worker": loss.index, "weight": np.log(float(loss.sum()) / loss.to_numpy())}
    )
