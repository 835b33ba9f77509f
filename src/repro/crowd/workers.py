"""Worker pool and answer simulation (substrate for AMT).

The real paper collected answers from Amazon Mechanical Turk. Offline, we
simulate the crowd with the paper's *own* generative story (§4.1–4.2 and
§6.5), extended with two realism knobs that the T-Crowd model does NOT get
to see, so the comparison is not a tautology:

* a **spammer fraction**: spammers answer uniformly at random regardless of
  the cell (the long-tail quality distribution the CATD paper targets);
* a per-(worker, row) **recognition factor**: with probability
  ``p_unfamiliar`` a worker "does not recognise the entity" and all of their
  answers on that row degrade (variance × ``unfamiliar_factor``). This is
  exactly the motivating example in §1 (worker u3 and James Purefoy) and is
  what the structure-aware assignment of §5.2 exploits;
* a shared additive error component for continuous columns in the same
  ``corr_group`` (models e.g. a shifted start/end span in Restaurant),
  producing the positively correlated signed errors of §6.4.3.

Assignment granularity follows the paper's HIT layout: one HIT = one row
(the number of tasks per HIT equals the number of columns), so a worker
answering row i answers every cell of row i.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pandas as pd

from .schema import CONTINUOUS, CrowdDataset, TableSchema
from .stats import erf

EPSILON = 1.0
"""Global ε of Eq. 2. Column difficulty β_j absorbs scale, so ε only fixes
the parameterisation of worker quality; the paper does not publish a value."""


@dataclass(frozen=True)
class WorkerPool:
    """Hidden worker parameters: inherent variance φ_u and spammer flags."""

    phi: np.ndarray  # (U,) inherent variance of each worker
    is_spammer: np.ndarray  # (U,) bool

    @property
    def n_workers(self) -> int:
        return len(self.phi)

    def quality(self, alpha_beta: float = 1.0) -> np.ndarray:
        """q_u = erf(ε / sqrt(2 α β φ_u)) — Eq. 2 at reference difficulty."""
        return erf(EPSILON / np.sqrt(2.0 * alpha_beta * self.phi))


def make_pool(
    n_workers: int,
    *,
    seed: int,
    spammer_frac: float = 0.10,
    phi_log_mu: float = -0.7,
    phi_log_sigma: float = 1.2,
) -> WorkerPool:
    """Long-tail worker pool: φ_u lognormal (most workers decent, a heavy
    tail of bad ones) plus a small spammer fraction."""
    g = np.random.default_rng(seed)
    phi = g.lognormal(phi_log_mu, phi_log_sigma, n_workers)
    is_spammer = g.random(n_workers) < spammer_frac
    return WorkerPool(phi=phi, is_spammer=is_spammer)


def default_beta(schema: TableSchema, rel_err: float = 0.06) -> np.ndarray:
    """Hidden column difficulties β_j.

    For a continuous column, β_j carries the column's *scale*: an average
    worker (φ=1, α=1) has answer std ≈ ``rel_err`` × domain width. For a
    categorical column β_j = 1, giving q = erf(1/√2) ≈ 0.68 for the average
    worker before row effects.
    """
    beta = np.ones(schema.n_cols)
    for j, c in enumerate(schema.columns):
        if c.kind == CONTINUOUS:
            lo, hi = c.domain
            beta[j] = (rel_err * (hi - lo)) ** 2
    return beta


def simulate_answers(
    schema: TableSchema,
    truth: pd.DataFrame,
    pool: WorkerPool,
    *,
    n_per_task: int,
    seed: int,
    row_alpha: np.ndarray | None = None,
    col_beta: np.ndarray | None = None,
    p_unfamiliar: float = 0.15,
    unfamiliar_factor: float = 9.0,
    corr_shift_std: float = 0.6,
    alpha_sigma: float = 0.5,
    participation_skew: float = 0.8,
    row_worker_pairs: list[tuple[int, int]] | None = None,
) -> CrowdDataset:
    """Draw the full answer relation from the generative model.

    ``participation_skew`` makes worker participation long-tail (a few
    workers answer many HITs, most answer few — the regime CATD targets and
    the paper's "long-tail distribution" of crowdsourced answers): each
    row's workers are drawn with probability ∝ rank^(-skew). 0 = uniform.

    ``row_worker_pairs`` overrides the default assignment (each row answered
    by ``n_per_task`` distinct random workers) with explicit (row, worker)
    HITs.
    """
    g = np.random.default_rng(seed)
    n_rows = int(truth["row"].max()) + 1
    m = schema.n_cols
    alpha = row_alpha if row_alpha is not None else g.lognormal(0.0, alpha_sigma, n_rows)
    beta = col_beta if col_beta is not None else default_beta(schema)

    truth_grid = (
        truth.pivot(index="row", columns="col", values="truth")
        .reindex(index=range(n_rows), columns=range(m))
        .to_numpy()
    )

    if row_worker_pairs is None:
        ranks = np.arange(1, pool.n_workers + 1, dtype=np.float64)
        pw = ranks ** (-participation_skew)
        pw /= pw.sum()
        pairs = []
        for i in range(n_rows):
            ws = g.choice(
                pool.n_workers,
                size=min(n_per_task, pool.n_workers),
                replace=False,
                p=pw,
            )
            pairs.extend((i, int(w)) for w in ws)
    else:
        pairs = row_worker_pairs

    rows, workers = (
        np.array([p[0] for p in pairs], dtype=np.int64),
        np.array([p[1] for p in pairs], dtype=np.int64),
    )
    # Per-(worker,row) recognition factor — shared across the row's cells.
    recog = np.where(g.random(len(pairs)) < p_unfamiliar, unfamiliar_factor, 1.0)
    # Shared signed shift per (worker,row) per corr_group, in units of the
    # answer's own std (so it scales with worker quality and correlates the
    # signed errors of grouped continuous columns without distorting the
    # quality ordering — §6.4.3's start/end-target effect).
    groups = sorted({c.corr_group for c in schema.columns if c.corr_group})
    shift_by_group = {grp: g.normal(0.0, corr_shift_std, len(pairs)) for grp in groups}

    out_rows, out_cols, out_workers, out_vals = [], [], [], []
    for j, cspec in enumerate(schema.columns):
        var = alpha[rows] * beta[j] * pool.phi[workers] * recog
        t = truth_grid[rows, j]
        if cspec.is_categorical:
            q = np.asarray(erf(EPSILON / np.sqrt(2.0 * var)), dtype=np.float64)
            correct = g.random(len(pairs)) < q
            wrong = np.floor(g.random(len(pairs)) * (cspec.n_labels - 1))
            wrong = np.where(wrong >= t, wrong + 1, wrong)  # uniform over L \ {t}
            val = np.where(correct, t, wrong)
            spam = pool.is_spammer[workers]
            val = np.where(spam, np.floor(g.random(len(pairs)) * cspec.n_labels), val)
        else:
            z = g.normal(0.0, 1.0, len(pairs))
            if cspec.corr_group:
                z = z + shift_by_group[cspec.corr_group]
            val = t + z * np.sqrt(var)
            lo, hi = cspec.domain
            spam = pool.is_spammer[workers]
            val = np.where(spam, lo + g.random(len(pairs)) * (hi - lo), val)
        out_rows.append(rows)
        out_cols.append(np.full(len(pairs), j, dtype=np.int64))
        out_workers.append(workers)
        out_vals.append(val.astype(np.float64))

    answers = pd.DataFrame(
        {
            "worker": np.concatenate(out_workers),
            "row": np.concatenate(out_rows),
            "col": np.concatenate(out_cols),
            "value": np.concatenate(out_vals),
        }
    ).sort_values(["row", "col", "worker"], kind="stable").reset_index(drop=True)

    return CrowdDataset(
        schema=schema,
        n_rows=n_rows,
        truth=truth,
        answers=answers,
        worker_phi=pd.Series(pool.phi),
        row_alpha=pd.Series(alpha),
        col_beta=pd.Series(beta),
    )
