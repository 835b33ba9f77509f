"""Table 7 — effectiveness of truth inference.

Runs every Table 7 method over the three simulated datasets, averaged over
``n_seeds`` generator replicates (the paper has one draw of real data; we
average replicates to remove seed luck — DESIGN.md §6), and reports Error
Rate / MNAD next to the paper's numbers.

Replicates × datasets fan out over Spark via ``applyInPandas`` on a spec
relation — the experiment grid is itself a DataFrame job. Inside each Spark
task the method kernels run and the pandas metrics of
:mod:`repro.crowd.metrics` (oracle-verified in tests) score them.
"""
from __future__ import annotations

import pandas as pd
from pyspark.sql import SparkSession
from pyspark.sql import types as T

from ..crowd import datasets
from ..crowd.metrics import error_rate, mnad
from .methods import TABLE7_METHODS

#: Table 7 as printed in the paper (Error Rate / MNAD; "/" = not applicable).
PAPER_TABLE7 = {
    ("T-Crowd", "celebrity"): (0.0441, 0.6339),
    ("T-Crowd", "restaurant"): (0.1855, 0.5607),
    ("T-Crowd", "emotion"): (None, 0.5961),
    ("CRH", "celebrity"): (0.0460, 0.6737),
    ("CRH", "restaurant"): (0.1921, 0.5835),
    ("CRH", "emotion"): (None, 0.7224),
    ("CATD", "celebrity"): (0.0498, 0.7113),
    ("CATD", "restaurant"): (0.1954, 0.7234),
    ("CATD", "emotion"): (None, 0.6648),
    ("Maj. Voting", "celebrity"): (0.0573, None),
    ("Maj. Voting", "restaurant"): (0.2003, None),
    ("EM", "celebrity"): (0.0620, None),
    ("EM", "restaurant"): (0.2463, None),
    ("GLAD", "celebrity"): (0.0498, None),
    ("GLAD", "restaurant"): (0.1905, None),
    ("Zencrowd", "celebrity"): (0.0479, None),
    ("Zencrowd", "restaurant"): (0.1872, None),
    ("TC-onlyCate", "celebrity"): (0.0498, None),
    ("TC-onlyCate", "restaurant"): (0.1986, None),
    ("Median", "celebrity"): (None, 0.6998),
    ("Median", "restaurant"): (None, 0.6784),
    ("Median", "emotion"): (None, 0.7026),
    ("GTM", "celebrity"): (None, 0.6516),
    ("GTM", "restaurant"): (None, 0.5871),
    ("GTM", "emotion"): (None, 0.6792),
    ("TC-onlyCont", "celebrity"): (None, 0.6400),
    ("TC-onlyCont", "restaurant"): (None, 0.5682),
    ("TC-onlyCont", "emotion"): (None, 0.5961),
}

_RESULT_SCHEMA = T.StructType(
    [
        T.StructField("dataset", T.StringType()),
        T.StructField("seed", T.LongType()),
        T.StructField("method", T.StringType()),
        T.StructField("error_rate", T.DoubleType()),
        T.StructField("mnad", T.DoubleType()),
    ]
)

def _run_spec(spec: pd.DataFrame) -> pd.DataFrame:
    """One (dataset, seed) replicate: generate, run every method, score."""
    dataset = spec["dataset"].iloc[0]
    seed = int(spec["seed"].iloc[0])
    ds = datasets.REAL_DATASETS[dataset](seed=seed)
    recs = []
    for method, fn in TABLE7_METHODS.items():
        est = fn(ds.answers, ds.schema)
        recs.append(
            {
                "dataset": dataset,
                "seed": seed,
                "method": method,
                "error_rate": error_rate(est, ds.truth, ds.schema),
                "mnad": mnad(est, ds.truth, ds.schema),
            }
        )
    return pd.DataFrame(recs)


def build_table7(spark: SparkSession, *, n_seeds: int = 5) -> pd.DataFrame:
    """Run the full Table 7 grid, fanning replicates out over Spark."""
    specs = pd.DataFrame(
        [
            {"dataset": name, "seed": datasets.BASE_SEEDS[name] + 100 * k}
            for name in datasets.REAL_DATASETS
            for k in range(n_seeds)
        ]
    )
    spec_df = spark.createDataFrame(specs)
    results = (
        spec_df.groupBy("dataset", "seed")
        .applyInPandas(lambda pdf: _run_spec(pdf), _RESULT_SCHEMA)
        .toPandas()
    )
    agg = (
        results.groupby(["dataset", "method"], sort=False)[["error_rate", "mnad"]]
        .mean()
        .reset_index()
    )
    return agg


def format_table7(measured: pd.DataFrame) -> str:
    """Paper-layout rendering with paper values next to measured ones."""
    lines = [
        "Table 7 — truth inference effectiveness "
        "(per cell: paper / measured; '/' = not applicable)",
        f"{'Method':13s} {'Celeb ER':>17s} {'Celeb MNAD':>17s} "
        f"{'Rest ER':>17s} {'Rest MNAD':>17s} {'Emo MNAD':>17s}",
    ]
    by_key = {
        (r["method"], r["dataset"]): r for _, r in measured.iterrows()
    }

    def fmt(method, dataset, metric):
        paper = PAPER_TABLE7.get((method, dataset), (None, None))
        pv = paper[0] if metric == "error_rate" else paper[1]
        row = by_key.get((method, dataset))
        mv = row[metric] if row is not None else None
        if pv is None and (mv is None or pd.isna(mv)):
            return "/"
        ps = f"{pv:.4f}" if pv is not None else "  /   "
        ms = f"{mv:.4f}" if mv is not None and not pd.isna(mv) else "  /   "
        return f"{ps}|{ms}"

    for method in TABLE7_METHODS:
        lines.append(
            f"{method:13s} "
            f"{fmt(method, 'celebrity', 'error_rate'):>17s} "
            f"{fmt(method, 'celebrity', 'mnad'):>17s} "
            f"{fmt(method, 'restaurant', 'error_rate'):>17s} "
            f"{fmt(method, 'restaurant', 'mnad'):>17s} "
            f"{fmt(method, 'emotion', 'mnad'):>17s}"
        )
    return "\n".join(lines)
