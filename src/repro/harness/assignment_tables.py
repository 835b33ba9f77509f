"""Tabulated task-assignment experiments (the data behind Figures 2 and 5).

* **End-to-end (Fig. 2)** — full systems (assignment policy + its own
  inference method) on the simulated datasets: T-Crowd (structure-aware IG
  + EM inference), CDAS, AskIt! (both with their MV/median inference), and
  CRH / CATD with random assignment.
* **Heuristics (Fig. 5)** — Random / Looping / Entropy / Inherent IG /
  Structure-Aware IG, all paired with T-Crowd inference, on Restaurant.

Each run gets a *fresh* hidden world re-created from the same generator
seed, so policies face identical truth/worker populations. Independent
(system × replicate) runs fan out over Spark via ``applyInPandas``.
"""
from __future__ import annotations

import pandas as pd
from pyspark.sql import SparkSession
from pyspark.sql import types as T

from ..core.assignment import (
    AskItPolicy,
    CdasPolicy,
    EntropyPolicy,
    InherentIGPolicy,
    LoopingPolicy,
    RandomPolicy,
    StructureAwarePolicy,
)
from ..crowd import datasets
from ..crowd.simulator import SimConfig, run_simulation, world_from_dataset

#: system name -> (policy factory, inference method)
END_TO_END_SYSTEMS = {
    "T-Crowd": (lambda seed: StructureAwarePolicy(), "tcrowd"),
    "CDAS": (lambda seed: CdasPolicy(seed=seed), "mv"),
    "AskIt!": (lambda seed: AskItPolicy(), "mv"),
    "CRH": (lambda seed: RandomPolicy(seed), "crh"),
    "CATD": (lambda seed: RandomPolicy(seed), "catd"),
}

HEURISTICS = {
    "Random": lambda seed: RandomPolicy(seed),
    "Looping": lambda seed: LoopingPolicy(),
    "Entropy": lambda seed: EntropyPolicy(),
    "Inherent IG": lambda seed: InherentIGPolicy(),
    "Structure-Aware IG": lambda seed: StructureAwarePolicy(),
}

_RESULT_SCHEMA = T.StructType(
    [
        T.StructField("dataset", T.StringType()),
        T.StructField("system", T.StringType()),
        T.StructField("seed", T.LongType()),
        T.StructField("avg_answers", T.DoubleType()),
        T.StructField("error_rate", T.DoubleType()),
        T.StructField("mnad", T.DoubleType()),
    ]
)


def _run_one(
    dataset: str,
    system: str,
    seed: int,
    *,
    heuristic_mode: bool,
    config: SimConfig,
) -> pd.DataFrame:
    ds = datasets.REAL_DATASETS[dataset](seed=datasets.BASE_SEEDS[dataset] + 100 * seed)
    world = world_from_dataset(ds, seed=1000 + seed)
    if heuristic_mode:
        policy, inference = HEURISTICS[system](seed), "tcrowd"
    else:
        factory, inference = END_TO_END_SYSTEMS[system]
        policy = factory(seed)
    out = run_simulation(world, policy, inference, config)
    out.insert(0, "seed", seed)
    out.insert(0, "system", system)
    out.insert(0, "dataset", dataset)
    return out[["dataset", "system", "seed", "avg_answers", "error_rate", "mnad"]]


def build_assignment_table(
    spark: SparkSession,
    *,
    dataset: str = "restaurant",
    experiment: str = "end_to_end",
    n_seeds: int = 2,
    config: SimConfig | None = None,
) -> pd.DataFrame:
    """Run all systems of ``experiment`` and average over replicate seeds."""
    config = config or SimConfig()
    heuristic_mode = experiment == "heuristics"
    systems = HEURISTICS if heuristic_mode else END_TO_END_SYSTEMS
    specs = pd.DataFrame(
        [
            {"dataset": dataset, "system": s, "seed": k}
            for s in systems
            for k in range(n_seeds)
        ]
    )

    def kernel(pdf: pd.DataFrame) -> pd.DataFrame:
        return _run_one(
            pdf["dataset"].iloc[0],
            pdf["system"].iloc[0],
            int(pdf["seed"].iloc[0]),
            heuristic_mode=heuristic_mode,
            config=config,
        )

    results = (
        spark.createDataFrame(specs)
        .groupBy("dataset", "system", "seed")
        .applyInPandas(lambda pdf: kernel(pdf), _RESULT_SCHEMA)
        .toPandas()
    )
    return (
        results.groupby(["dataset", "system", "avg_answers"], sort=False)[
            ["error_rate", "mnad"]
        ]
        .mean()
        .reset_index()
        .sort_values(["system", "avg_answers"])
        .reset_index(drop=True)
    )


def format_assignment_table(table: pd.DataFrame, title: str) -> str:
    lines = [title]
    pivot_er = table.pivot(index="avg_answers", columns="system", values="error_rate")
    pivot_mn = table.pivot(index="avg_answers", columns="system", values="mnad")
    lines.append("Error Rate vs avg answers/task:")
    lines.append(pivot_er.round(4).to_string())
    lines.append("MNAD vs avg answers/task:")
    lines.append(pivot_mn.round(4).to_string())
    return "\n".join(lines)
