"""Dawid–Skene ("EM" in Table 7) and Zencrowd baselines — categorical only.

* :func:`dawid_skene` — the classic confusion-matrix EM [9], run *per
  column* (a confusion matrix needs one fixed label set; different columns
  have different domains). This is the paper's "EM" row; with the paper's
  small per-column answer sets the per-worker confusion matrices are badly
  under-determined, which is exactly why it trails the pack in Table 7.
* :func:`zencrowd` — Zencrowd [10] models a single reliability ``p_u`` per
  worker. We share ``p_u`` across *all* categorical columns (its natural
  generalisation to tabular data), which pools more evidence per worker and
  makes it the strongest pure-categorical baseline, as in the paper. Its
  E-step is T-Crowd's label posterior (:func:`repro.core.em.label_posteriors`)
  with ``q = p_u``, decoded by ``CatPosteriorTable.argmax``.

Both reject a rounded answer outside ``0..n_labels-1`` with ``ValueError``.
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from ..core.em import CatPosteriorTable, check_labels, label_posteriors
from ..crowd.schema import TableSchema, restrict_answers

_SMOOTH = 0.01
_MAX_ITER = 50
_TOL = 1e-4


def _ds_one_column(sub: pd.DataFrame, n_labels: int):
    """Standard D&S EM on one column's answers. Returns (row, truth)."""
    rows, row_inv = np.unique(sub["row"].to_numpy(np.int64), return_inverse=True)
    workers, w_inv = np.unique(sub["worker"].to_numpy(np.int64), return_inverse=True)
    labels = sub["value"].round().to_numpy(np.int64)
    check_labels(labels, n_labels)
    n_r, n_w = len(rows), len(workers)

    # Init with majority voting soft counts.
    post = np.zeros((n_r, n_labels))
    np.add.at(post, (row_inv, labels), 1.0)
    post = (post + _SMOOTH) / (post + _SMOOTH).sum(axis=1, keepdims=True)

    prior = np.full(n_labels, 1.0 / n_labels)
    for _ in range(_MAX_ITER):
        # M: per-worker confusion matrix pi[w, true, given], accumulated per
        # observed label value (vectorised over answers sharing a label).
        pi = np.full((n_w, n_labels, n_labels), _SMOOTH)
        for lab in range(n_labels):
            mask = labels == lab
            if mask.any():
                np.add.at(pi[:, :, lab], (w_inv[mask],), post[row_inv[mask]])
        pi /= pi.sum(axis=2, keepdims=True)
        prior = post.mean(axis=0)
        # E: posterior per row.
        log_post = np.tile(np.log(np.maximum(prior, 1e-12)), (n_r, 1))
        np.add.at(log_post, (row_inv,), np.log(np.maximum(pi[w_inv, :, labels], 1e-12)))
        log_post -= log_post.max(axis=1, keepdims=True)
        new_post = np.exp(log_post)
        new_post /= new_post.sum(axis=1, keepdims=True)
        if np.abs(new_post - post).max() < _TOL:
            post = new_post
            break
        post = new_post
    return rows, post.argmax(axis=1).astype(float)


def dawid_skene(answers: pd.DataFrame, schema: TableSchema) -> pd.DataFrame:
    """Per-column confusion-matrix EM over the categorical columns."""
    out = []
    cat = restrict_answers(answers, schema, "cat")
    for j in schema.categorical_idx:
        sub = cat[cat["col"] == j]
        if sub.empty:
            continue
        rows, truth = _ds_one_column(sub, schema.column(j).n_labels)
        out.append(pd.DataFrame({"row": rows, "col": j, "truth": truth}))
    if not out:
        return pd.DataFrame(columns=["row", "col", "truth"])
    return pd.concat(out, ignore_index=True).sort_values(["row", "col"]).reset_index(drop=True)


def categorical_answers(answers: pd.DataFrame, schema: TableSchema):
    """The categorical answers as per-answer arrays for
    :func:`~repro.core.em.label_posteriors`: cell key ``row·M + col``, label
    (the rounded value), the column's ``n_labels`` and the worker's index
    among the answering workers. None when there are no such answers."""
    cat = restrict_answers(answers, schema, "cat")
    if cat.empty:
        return None
    cols = cat["col"].to_numpy(np.int64)
    cells = cat["row"].to_numpy(np.int64) * schema.n_cols + cols
    n_labels = np.array([c.n_labels or 0 for c in schema.columns], dtype=np.int64)[cols]
    _, w_inv = np.unique(cat["worker"].to_numpy(np.int64), return_inverse=True)
    return cells, cat["value"].round().to_numpy(np.int64), n_labels, w_inv


def decode(table: CatPosteriorTable, schema: TableSchema) -> pd.DataFrame:
    """(row, col, truth) from a table keyed by :func:`categorical_answers`'s
    cell keys: each cell's most probable answered label, ties to the
    smallest."""
    return pd.DataFrame(
        {
            "row": table.rows // schema.n_cols,
            "col": table.rows % schema.n_cols,
            "truth": table.argmax(),
        }
    )


def zencrowd(answers: pd.DataFrame, schema: TableSchema) -> pd.DataFrame:
    """Single-reliability EM, p_u shared across all categorical columns."""
    arrays = categorical_answers(answers, schema)
    if arrays is None:
        return pd.DataFrame(columns=["row", "col", "truth"])
    cells, labels, n_labels, w_inv = arrays
    p = np.full(w_inv.max() + 1, 0.8)
    w_correct = np.full(len(cells), 0.5)
    for _ in range(_MAX_ITER):
        q = np.clip(p[w_inv], 1e-6, 1 - 1e-6)
        table, new_w = label_posteriors(cells, labels, q, n_labels)
        # M-step: p_u = mean posterior-correct over u's answers.
        p = np.bincount(w_inv, weights=new_w) / np.bincount(w_inv)
        p = np.clip(p, 1e-3, 1 - 1e-3)
        converged = np.abs(new_w - w_correct).max() < _TOL
        w_correct = new_w
        if converged:
            break
    return decode(table, schema)
