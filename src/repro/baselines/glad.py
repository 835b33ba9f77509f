"""GLAD baseline [33] — categorical only, multiclass extension.

GLAD models P(correct) = sigmoid(ability_u · easiness_t) with a per-task
easiness (we parameterise ln-easiness so it stays positive). Wrong answers
spread uniformly over the remaining labels, as in the original multiclass
extension. Worker ability is shared across *all* categorical columns (each
cell is a task), which, like the paper's GLAD row, makes it stronger than
per-column D&S but weaker than the unified model that also uses the
continuous columns.

EM with a gradient M-step (ascent on the expected complete log-likelihood
with backtracking), mirroring Whitehill et al.'s optimisation. The E-step is
T-Crowd's label posterior (:func:`repro.core.em.label_posteriors`) with
``q = sigmoid(ability · easiness)``; cells decode by their most probable
answered label, ties to the smallest.
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from ..core.em import label_posteriors
from ..crowd.schema import TableSchema
from .ds import categorical_answers, decode

_MAX_ITER = 40
_GRAD_ITERS = 20
_TOL = 1e-4


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(x, -30.0, 30.0)))


def glad(answers: pd.DataFrame, schema: TableSchema) -> pd.DataFrame:
    """Run GLAD over all categorical cells jointly; returns (row, col, truth)."""
    arrays = categorical_answers(answers, schema)
    if arrays is None:
        return pd.DataFrame(columns=["row", "col", "truth"])
    cells, labels, n_labels, w_inv = arrays
    _, t_inv = np.unique(cells, return_inverse=True)
    n_t, n_w = t_inv.max() + 1, w_inv.max() + 1

    ability = np.ones(n_w)
    ln_ease = np.zeros(n_t)

    def posteriors(ability, ln_ease):
        q = np.clip(_sigmoid(ability[w_inv] * np.exp(ln_ease[t_inv])), 1e-6, 1 - 1e-6)
        return label_posteriors(cells, labels, q, n_labels)

    def q_and_grad(w, ability, ln_ease):
        x = ability[w_inv] * np.exp(ln_ease[t_inv])
        q = np.clip(_sigmoid(x), 1e-6, 1 - 1e-6)
        val = w * np.log(q) + (1 - w) * np.log((1 - q) / (n_labels - 1))
        # d/dx [w ln σ + (1-w) ln(1-σ)] = w - σ
        gx = w - q
        g_ab = np.bincount(w_inv, weights=gx * np.exp(ln_ease[t_inv]), minlength=n_w)
        g_le = np.bincount(t_inv, weights=gx * x, minlength=n_t)
        return float(val.sum()), g_ab, g_le

    w = np.full(len(cells), 0.5)
    for _ in range(_MAX_ITER):
        _, new_w = posteriors(ability, ln_ease)
        # M-step: backtracking gradient ascent on the expected ll.
        lr = 0.5
        q_cur, g_ab, g_le = q_and_grad(new_w, ability, ln_ease)
        for _g in range(_GRAD_ITERS):
            na = np.maximum(np.bincount(w_inv, minlength=n_w), 1)
            nt = np.maximum(np.bincount(t_inv, minlength=n_t), 1)
            ok = False
            for _try in range(8):
                ab2 = np.clip(ability + lr * g_ab / na, -8.0, 8.0)
                le2 = np.clip(ln_ease + lr * g_le / nt, -6.0, 6.0)
                q_new, g_ab2, g_le2 = q_and_grad(new_w, ab2, le2)
                if q_new >= q_cur - 1e-12:
                    ok = True
                    break
                lr *= 0.5
            if not ok:
                break
            ability, ln_ease, q_cur, g_ab, g_le = ab2, le2, q_new, g_ab2, g_le2
            lr = min(lr * 1.2, 2.0)
        converged = np.abs(new_w - w).max() < _TOL
        w = new_w
        if converged:
            break

    table, _ = posteriors(ability, ln_ease)
    return decode(table, schema)
