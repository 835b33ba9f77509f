"""GTM baseline [37] — Gaussian Truth Model, continuous only.

Answers are z-scored per column (GTM's preprocessing), the truth of each
cell gets a standard-normal prior, each worker (source) has one variance
σ_u² shared across the continuous columns, and EM alternates:

* E-step: truth posterior mean/variance per cell (precision-weighted);
* M-step: σ_u² = mean over u's answers of (a − truth_mean)² + truth_var.

Estimates are mapped back to the original column scales at the end.
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from ..crowd.schema import TableSchema, restrict_answers

_MAX_ITER = 50
_TOL = 1e-6


def gtm(answers: pd.DataFrame, schema: TableSchema) -> pd.DataFrame:
    cont = restrict_answers(answers, schema, "cont").copy()
    if cont.empty:
        return pd.DataFrame(columns=["row", "col", "truth"])

    # z-score per column.
    stats = cont.groupby("col")["value"].agg(["mean", "std"]).rename(
        columns={"mean": "mu", "std": "sd"}
    )
    stats["sd"] = stats["sd"].replace(0.0, 1.0).fillna(1.0)
    cont = cont.merge(stats, left_on="col", right_index=True)
    z = ((cont["value"] - cont["mu"]) / cont["sd"]).to_numpy()

    workers, w_inv = np.unique(cont["worker"].to_numpy(np.int64), return_inverse=True)
    cells = cont.groupby(["row", "col"], sort=True)
    cell_keys = list(cells.groups.keys())
    c_inv = cells.ngroup().to_numpy()
    n_c, n_w = len(cell_keys), len(workers)

    var_u = np.ones(n_w)
    t_mu = np.zeros(n_c)
    for _ in range(_MAX_ITER):
        prec = 1.0 / np.maximum(var_u[w_inv], 1e-9)
        sum_p = np.bincount(c_inv, weights=prec, minlength=n_c)
        sum_pz = np.bincount(c_inv, weights=prec * z, minlength=n_c)
        t_var = 1.0 / (sum_p + 1.0)  # prior N(0,1)
        new_mu = sum_pz * t_var
        resid2 = (z - new_mu[c_inv]) ** 2 + t_var[c_inv]
        var_u = np.bincount(w_inv, weights=resid2, minlength=n_w) / np.maximum(
            np.bincount(w_inv, minlength=n_w), 1
        )
        var_u = np.maximum(var_u, 1e-6)
        if np.abs(new_mu - t_mu).max() < _TOL:
            t_mu = new_mu
            break
        t_mu = new_mu

    out = pd.DataFrame(
        {
            "row": [k[0] for k in cell_keys],
            "col": [k[1] for k in cell_keys],
            "z": t_mu,
        }
    )
    out = out.merge(stats, left_on="col", right_index=True)
    out["truth"] = out["z"] * out["sd"] + out["mu"]
    return out[["row", "col", "truth"]].sort_values(["row", "col"]).reset_index(drop=True)
