"""CATD baseline [17] — confidence-aware truth discovery for long-tail data.

CATD weights each source (worker) by the upper bound of the confidence
interval of its error-variance estimate: with n_u answers and summed
normalised squared loss l_u,

    w_u = chi2_ppf(1 - significance/2, df = n_u) / l_u ,

with ``significance`` = 0.05, so workers with few answers (the long tail)
are not over-trusted. Truth estimation is CRH's weighted vote / weighted
mean loop (:func:`repro.baselines.crh.weighted_truth_discovery`) with this
weight rule, iterated from an MV/median initialisation (the original
algorithm iterates weight ↔ truth updates until stable).

The χ² quantile comes from `repro.crowd.stats.chi2_ppf` (Wilson–Hilferty;
no scipy offline).
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from ..crowd.schema import TableSchema
from ..crowd.stats import chi2_ppf
from .crh import weighted_truth_discovery

_SIGNIFICANCE = 0.05


def _catd_weights(loss_u: np.ndarray, n_u: np.ndarray) -> np.ndarray:
    return chi2_ppf(1.0 - _SIGNIFICANCE / 2.0, n_u) / loss_u


def catd(
    answers: pd.DataFrame,
    schema: TableSchema,
    *,
    max_iter: int = 10,
    tol: float = 1e-6,
) -> pd.DataFrame:
    return weighted_truth_discovery(
        answers, schema, _catd_weights, max_iter=max_iter, tol=tol
    )
