"""Attribute error-correlation model (paper §5.2, Tables 4–5).

Errors of answers w.r.t. the current truth estimates:

* continuous column: ``e = a − T̂`` (signed);
* categorical column: ``e = 1{a ≠ T̂}`` (0 right / 1 wrong).

The model holds, for every ordered column pair (j, k):

* the **marginal** ``P(e_j)`` — Bernoulli(ψ_p) or Normal(ψ_μ, ψ_φ);
* the **conditional** ``P(e_j | e_k)`` via the four cases of Table 5,
  maximum-likelihood-estimated from all (worker, row) pairs that have
  answers in both columns (one HIT = one row, so these are plentiful);
* the **Pearson coefficient** ``W_jk`` (Eq. 8) used to linearly combine the
  conditionals when a worker has observed errors on several cells of the
  row (Eq. 7). We combine with |W_jk|: Eq. 7 weights the *reliability* of
  each correlated predictor, and a strong negative correlation is as
  informative as a positive one (the conditional itself carries the sign).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pandas as pd

from ..crowd.schema import TableSchema

_MIN_PAIRS = 5
_VAR_FLOOR = 1e-9


@dataclass
class Bernoulli:
    p_wrong: float  # P(e_j = 1)

    def mean_wrong(self) -> float:
        return self.p_wrong


@dataclass
class Normal:
    mu: float
    var: float


@dataclass
class ErrorModel:
    """Fitted marginals, pairwise conditional parameters and W matrix."""

    schema: TableSchema
    marginals: dict  # j -> Bernoulli | Normal
    conditionals: dict  # (j, k) -> case-specific parameter dict
    w: np.ndarray  # (M, M) Pearson coefficients of error vectors


def compute_errors(
    answers: pd.DataFrame, truth: pd.DataFrame, schema: TableSchema
) -> pd.DataFrame:
    """Per-answer error relation: (worker, row, col, err)."""
    m = answers.merge(truth, on=["row", "col"], how="inner")
    cat = set(schema.categorical_idx)
    is_cat = m["col"].isin(cat).to_numpy()
    err = np.where(
        is_cat,
        (m["value"].round() != m["truth"].round()).astype(float),
        m["value"] - m["truth"],
    )
    return pd.DataFrame(
        {"worker": m["worker"], "row": m["row"], "col": m["col"], "err": err}
    )


def fit_error_model(
    answers: pd.DataFrame, truth: pd.DataFrame, schema: TableSchema
) -> ErrorModel:
    """Estimate the full §5.2 model from the answers collected so far."""
    errs = compute_errors(answers, truth, schema)
    # (worker, row) × col error matrix: workers answer whole rows (HIT
    # layout), so most rows of this pivot are complete.
    grid = errs.pivot_table(
        index=["worker", "row"], columns="col", values="err", aggfunc="mean"
    )
    m_cols = schema.n_cols
    cat = set(schema.categorical_idx)

    marginals: dict = {}
    for j in range(m_cols):
        col = grid[j].dropna().to_numpy() if j in grid.columns else np.array([])
        if j in cat:
            marginals[j] = Bernoulli(float(col.mean()) if len(col) else 0.5)
        else:
            mu = float(col.mean()) if len(col) else 0.0
            var = float(col.var()) if len(col) > 1 else 1.0
            marginals[j] = Normal(mu, max(var, _VAR_FLOOR))

    w = np.zeros((m_cols, m_cols))
    conditionals: dict = {}
    for j in range(m_cols):
        for k in range(m_cols):
            if j == k or j not in grid.columns or k not in grid.columns:
                continue
            both = grid[[j, k]].dropna()
            if len(both) < _MIN_PAIRS:
                continue
            ej = both[j].to_numpy()
            ek = both[k].to_numpy()
            sj, sk = ej.std(), ek.std()
            w[j, k] = (
                float(np.corrcoef(ej, ek)[0, 1]) if sj > 0 and sk > 0 else 0.0
            )
            if not np.isfinite(w[j, k]):
                w[j, k] = 0.0
            conditionals[(j, k)] = _fit_conditional(ej, ek, j in cat, k in cat)
    return ErrorModel(schema=schema, marginals=marginals, conditionals=conditionals, w=w)


def _nrm(x: np.ndarray) -> tuple[float, float]:
    """ML mean and (floored) variance of ``x``; N(0, 1) when it is empty."""
    if len(x) == 0:
        return 0.0, 1.0
    return float(x.mean()), max(float(x.var()), _VAR_FLOOR)


def _fit_conditional(ej: np.ndarray, ek: np.ndarray, j_cat: bool, k_cat: bool) -> dict:
    """ML parameters of P(e_j | e_k) for one of the four Table 5 cases."""
    if j_cat and k_cat:
        right = ek < 0.5
        p_r = float(ej[right].mean()) if right.any() else float(ej.mean())
        p_w = float(ej[~right].mean()) if (~right).any() else float(ej.mean())
        return {"case": "cc", "p_given_right": p_r, "p_given_wrong": p_w}
    if not j_cat and not k_cat:
        mu = np.array([ej.mean(), ek.mean()])
        cov = np.cov(np.vstack([ej, ek]))
        return {
            "case": "nn",
            "mu_j": float(mu[0]),
            "mu_k": float(mu[1]),
            "var_j": max(float(cov[0, 0]), _VAR_FLOOR),
            "var_k": max(float(cov[1, 1]), _VAR_FLOOR),
            "cov": float(cov[0, 1]),
        }
    if not j_cat and k_cat:
        # case (c): continuous j given categorical k — two normals.
        right = ek < 0.5
        mu_r, var_r = _nrm(ej[right])
        mu_w, var_w = _nrm(ej[~right])
        return {"case": "nc", "mu_r": mu_r, "var_r": var_r, "mu_w": mu_w, "var_w": var_w}
    # case (d): categorical j given continuous k — Bayes over two normals.
    right = ej < 0.5
    mu_r, var_r = _nrm(ek[right])
    mu_w, var_w = _nrm(ek[~right])
    return {
        "case": "cn",
        "p_wrong": float(ej.mean()),
        "mu_r": mu_r,
        "var_r": var_r,
        "mu_w": mu_w,
        "var_w": var_w,
    }


def conditional_error(model: ErrorModel, j: int, k: int, e_k: float):
    """P(e_j | e_k = e_k): a Bernoulli (categorical j) or Normal (continuous
    j). Falls back to the marginal when the pair was not estimable."""
    params = model.conditionals.get((j, k))
    if params is None:
        return model.marginals[j]
    case = params["case"]
    if case == "cc":
        p = params["p_given_right"] if e_k < 0.5 else params["p_given_wrong"]
        return Bernoulli(float(np.clip(p, 0.0, 1.0)))
    if case == "nn":
        rho_term = params["cov"] / params["var_k"]
        mu = params["mu_j"] + rho_term * (e_k - params["mu_k"])
        var = params["var_j"] - params["cov"] ** 2 / params["var_k"]
        return Normal(float(mu), max(float(var), _VAR_FLOOR))
    if case == "nc":
        if e_k < 0.5:
            return Normal(params["mu_r"], params["var_r"])
        return Normal(params["mu_w"], params["var_w"])
    # case "cn": Bayes with Gaussian likelihoods of the observed e_k.
    p1 = params["p_wrong"]
    lik_w = _gauss_pdf(e_k, params["mu_w"], params["var_w"]) * p1
    lik_r = _gauss_pdf(e_k, params["mu_r"], params["var_r"]) * (1.0 - p1)
    denom = lik_r + lik_w
    if denom <= 0:
        return Bernoulli(p1)
    return Bernoulli(float(lik_w / denom))


def _gauss_pdf(x: float, mu: float, var: float) -> float:
    return float(np.exp(-((x - mu) ** 2) / (2 * var)) / np.sqrt(2 * np.pi * var))


def combined_conditional(model: ErrorModel, j: int, observed: dict):
    """Eq. 7: |W|-weighted combination of ``P(e_j | e_k = e^u_ik)`` over the
    worker's observed errors in the row. Returns a Bernoulli (categorical j)
    or a moment-matched Normal (continuous j); None when nothing combines."""
    weights, dists = [], []
    for k, e_k in observed.items():
        if k == j:
            continue
        wgt = abs(float(model.w[j, k]))
        if wgt <= 1e-9:
            continue
        weights.append(wgt)
        dists.append(conditional_error(model, j, k, e_k))
    if not weights:
        return None
    wsum = float(np.sum(weights))
    if j in set(model.schema.categorical_idx):
        p = sum(w * d.p_wrong for w, d in zip(weights, dists)) / wsum
        return Bernoulli(float(np.clip(p, 0.0, 1.0)))
    mu = sum(w * d.mu for w, d in zip(weights, dists)) / wsum
    second = sum(w * (d.var + d.mu**2) for w, d in zip(weights, dists)) / wsum
    return Normal(float(mu), max(float(second - mu**2), _VAR_FLOOR))
