"""The benchmark's workloads, their output checks and their trace hooks.

Every workload is a closed loop: the next inference call, worker arrival or
EM run starts when the previous one returns. A workload object builds its
inputs in ``setup`` (timed as ``setup_s``), runs one measured pass per
``run_pass`` call, and records into a :class:`Tally`. A run makes at least
``passes`` passes over the same inputs, and each request counts with its
fastest pass: on a shared machine other tenants only ever slow a pass down.

Inputs and the seed. ``infer-batch`` and ``spark-em`` feed the program the
generated tables under a seed-drawn relabelling: row ids and worker ids are
permuted and the answers shuffled. Every inference method in the repo gives
the same error rate and MNAD on a relabelled table (up to float summation
order), so one recording of the outputs checks every seed, and the work per
pass stays the same across seeds, which keeps the timings comparable.
``online-assign`` simulates one fixed world: the simulator draws answers and
arrivals from its own generators, and any change to them (a relabelled
table included) changes the whole trajectory and its quality by up to
~15%, which would swamp the regression bound. Its checkpoint curve is checked
against its recording.

Program functions are looked up through their modules at call time (for
example ``em.tcrowd_em``), so the traced run sees the hooked bindings.
"""
from __future__ import annotations

import contextlib
import dataclasses
import json
import time
from pathlib import Path

import numpy as np
import pandas as pd

from repro.core import em
from repro.core.assignment import StructureAwarePolicy
from repro.crowd import datasets as D
from repro.crowd import simulator
from repro.crowd.metrics import error_rate, mnad
from repro.crowd.simulator import SimConfig, world_from_dataset
from repro.harness.methods import TABLE7_METHODS
from tracing import Hook, Tracer

REFERENCES = Path(__file__).resolve().parent / "references.json"

#: The Table 7 datasets at their default generator seeds.
TABLE7_SEEDS = {"celebrity": 7, "restaurant": 11, "emotion": 13}
#: 812 rows x 10 columns x 5 answers = 40,600 answers (10x Restaurant).
SYNTHETIC = dict(n_rows=812, m=10, n_workers=60, n_per_task=5, seed=0)
#: Online run: Restaurant world, 1.0 -> 2.0 answers per task, batches of 5
#: (203 arrivals, so p90 of the 202 intervals has 20 samples beyond it).
ONLINE = SimConfig(
    batch_size=5, max_answers_per_task=2.0, checkpoints=(1.0, 1.5, 2.0), seed=0
)
ONLINE_DATASET_SEED = 11
ONLINE_WORLD_SEED = 0

#: Tolerance of recorded error rates and MNADs (and of Spark vs numpy).
RTOL = 1e-6
#: Online checkpoints may drift this far (absolute) from the recording: a
#: change that only reorders float sums can flip one information-gain tie
#: and send the simulation down another trajectory of similar quality.
ONLINE_ATOL = 0.05


def synthetic_table() -> "D.CrowdDataset":
    return D.synthetic_table(**SYNTHETIC)


def table7_datasets() -> dict:
    return {name: D.REAL_DATASETS[name](seed=s) for name, s in TABLE7_SEEDS.items()}


def relabel(ds, seed: int):
    """``ds`` with row ids, worker ids and answer order permuted by ``seed``.

    Only ``answers`` and ``truth`` are relabelled; the generator's hidden
    parameters (``worker_phi`` and so on) keep the old ids and go unused.
    """
    g = np.random.default_rng(seed)
    row_perm = g.permutation(ds.n_rows)
    worker_perm = g.permutation(int(ds.answers["worker"].max()) + 1)
    a = ds.answers.copy()
    a["row"] = row_perm[a["row"].to_numpy()]
    a["worker"] = worker_perm[a["worker"].to_numpy()]
    a = a.iloc[g.permutation(len(a))].reset_index(drop=True)
    t = ds.truth.copy()
    t["row"] = row_perm[t["row"].to_numpy()]
    return dataclasses.replace(ds, answers=a, truth=t)


def quality(est: pd.DataFrame, ds) -> tuple[float, float]:
    return error_rate(est, ds.truth, ds.schema), mnad(est, ds.truth, ds.schema)


def matches(got, want, rtol: float = RTOL, atol: float = 0.0) -> bool:
    return bool(
        np.allclose(
            np.asarray(got, dtype=float), np.asarray(want, dtype=float),
            rtol=rtol, atol=atol, equal_nan=True,
        )
    )


class Tally:
    """What the measured passes did: requests, answers, checks, quality.

    Passes of one run repeat the same work, so ``requests[p][i]`` is the
    service time of the same request ``i`` in every pass ``p``.
    """

    def __init__(self):
        self.requests: list[list[float]] = []  # per pass: request service times
        self.answers: list[int] = []  # per pass: answers consumed by inference
        self.infer_s: list[float] = []  # per pass: wall time of that inference
        self.attempted = 0
        self.failed = 0
        self.error_rate: list[float] = []
        self.mnad: list[float] = []
        self.arrivals = 0
        self.errors: list[str] = []

    def add_pass(self, requests: list[float], answers: int, infer_s: float) -> None:
        self.requests.append(list(requests))
        self.answers.append(answers)
        self.infer_s.append(infer_s)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(what)


def load_references() -> dict:
    return json.loads(REFERENCES.read_text())


# ---------------------------------------------------------------------------


class Workload:
    """``setup`` builds the inputs, ``run_pass`` runs one measured pass,
    ``finish`` runs checks that need every pass, ``close`` releases."""

    passes = 2  # measured passes per run, at least
    tracer: Tracer | None = None  # set during the traced pass

    def finish(self, tally: Tally) -> None:
        pass

    def close(self) -> None:
        pass


class InferBatch(Workload):
    """The 11 Table 7 methods on the three datasets, then numpy T-Crowd EM
    on the 40,600-answer synthetic table (cold, full EM)."""


    def __init__(self, seed: int):
        self.seed = seed
        self.refs = load_references()

    def setup(self) -> None:
        self.tables = {
            name: relabel(ds, self.seed + k)
            for k, (name, ds) in enumerate(table7_datasets().items())
        }
        self.synthetic = relabel(synthetic_table(), self.seed + 3)

    def run_pass(self, tally: Tally) -> None:
        er, mn, times, answers = [], [], [], 0

        def timed(fn, ds):
            nonlocal answers
            t0 = time.perf_counter()
            est = fn(ds.answers, ds.schema)
            times.append(time.perf_counter() - t0)
            answers += len(ds.answers)
            return est

        for name, ds in self.tables.items():
            for method, fn in TABLE7_METHODS.items():
                try:
                    got = quality(timed(fn, ds), ds)
                except Exception as exc:  # one method failing must not end the run
                    tally.check(False, f"{name}/{method} raised {exc!r}")
                    continue
                tally.check(
                    matches(got, self.refs["table7"][name][method]),
                    f"{name}/{method} quality {got} != recorded",
                )
                if method == "T-Crowd":
                    er.append(got[0])
                    mn.append(got[1])
        ds = self.synthetic
        got = quality(timed(lambda a, s: em.tcrowd_em(a, s).truth, ds), ds)
        tally.check(matches(got, self.refs["synthetic"]), f"synthetic quality {got}")
        # One request is the whole batch, as on spark-em: the 34 calls differ
        # too much in size for percentiles over them to be steady.
        tally.add_pass([sum(times)], answers, sum(times))
        tally.error_rate.append(float(np.nanmean(er)))
        tally.mnad.append(float(np.nanmean(mn)))


class _CheckedPolicy:
    """Delegates to the real policy; timestamps each returned batch and
    checks it (non-empty, at most k distinct in-range cells, none already
    answered by this worker)."""

    def __init__(self, policy, tally: Tally, n_rows: int, n_cols: int):
        self.policy, self.tally = policy, tally
        self.n_rows, self.n_cols = n_rows, n_cols
        self.returned: list[float] = []

    def pick(self, view, worker: int, k: int):
        cells = self.policy.pick(view, worker, k)
        self.returned.append(time.perf_counter())
        done = view.answered.get(worker, ())  # updated only after pick returns
        ok = (
            0 < len(cells) <= k
            and len(set(cells)) == len(cells)
            and all(
                0 <= r < self.n_rows and 0 <= c < self.n_cols and (r, c) not in done
                for r, c in cells
            )
        )
        self.tally.check(ok, f"arrival {len(self.returned)}: bad batch {cells}")
        return cells


class OnlineAssign(Workload):
    """``run_simulation`` with the structure-aware IG policy and T-Crowd
    inference on the Restaurant world (Fig. 11 / Fig. 5 setting). Its input
    does not depend on the seed (see the module docstring)."""

    passes = 1  # one pass is ~25 s

    def __init__(self):
        self.refs = load_references()["online"]

    def setup(self) -> None:
        self.dataset = D.restaurant_like(seed=ONLINE_DATASET_SEED)

    def run_pass(self, tally: Tally) -> None:
        # A fresh world each pass: the world's generator advances as it answers.
        world = world_from_dataset(self.dataset, ONLINE_WORLD_SEED)
        n_rows, n_cols = world.truth_grid.shape
        policy = _CheckedPolicy(StructureAwarePolicy(), tally, n_rows, n_cols)
        t0 = time.perf_counter()
        curve = simulator.run_simulation(world, policy, "tcrowd", ONLINE)
        wall = time.perf_counter() - t0
        tally.add_pass(np.diff(policy.returned), int(curve["n_answers"].iloc[-1]), wall)
        tally.arrivals += len(policy.returned)
        got = curve.to_dict("records")
        for k, ref in enumerate(self.refs):
            rec = got[k] if k < len(got) else None
            tally.check(
                rec is not None
                and rec["avg_answers"] == ref["avg_answers"]
                and rec["n_answers"] == ref["n_answers"]
                and matches(
                    [rec["error_rate"], rec["mnad"]],
                    [ref["error_rate"], ref["mnad"]], rtol=0.0, atol=ONLINE_ATOL,
                ),
                f"checkpoint {ref['avg_answers']}: {rec} vs recorded {ref}",
            )
        tally.check(
            len(got) == len(self.refs)
            and got[-1]["error_rate"] < got[0]["error_rate"]
            and got[-1]["mnad"] < got[0]["mnad"],
            "quality did not improve from the first to the last checkpoint",
        )
        tally.error_rate.append(float(got[-1]["error_rate"]))
        tally.mnad.append(float(got[-1]["mnad"]))


class SparkEM(Workload):
    """``tcrowd_em_spark`` to convergence on the cached answers DataFrame of
    the 40,600-answer synthetic table."""

    passes = 1  # one pass is ~25 s; its set-up dominates the rest of the run

    def __init__(self, seed: int, spark_builder):
        self.seed = seed
        self.builder = spark_builder
        self.refs = load_references()["synthetic"]
        self.spark = None
        self.truths: list[pd.DataFrame] = []

    def setup(self) -> None:
        from repro.core.spark_em import tcrowd_em_spark

        if self.spark is not None:  # each set-up starts a fresh session
            self.spark.stop()
        self.spark = self.builder()
        self.dataset = relabel(synthetic_table(), self.seed + 3)
        answers, _ = self.dataset.to_spark(self.spark)
        self.answers = answers.cache()
        self.answers.count()
        # Warm-up: starts the Python workers and runs one EM iteration, so
        # the measured passes do not pay the first-job costs.
        tcrowd_em_spark(self.answers, self.dataset.schema, max_iter=1)

    def run_pass(self, tally: Tally) -> None:
        from repro.core import spark_em

        t0 = time.perf_counter()
        res = spark_em.tcrowd_em_spark(self.answers, self.dataset.schema)
        # The last E-step job is lazy: it runs when the truth is collected.
        final = self.tracer.span("spark_em.final_estep") if self.tracer else None
        with final or contextlib.nullcontext():
            truth = res.truth.toPandas()
        dt = time.perf_counter() - t0
        tally.add_pass([dt], len(self.dataset.answers), dt)
        got = quality(truth, self.dataset)
        tally.check(matches(got, self.refs), f"spark quality {got} != recorded")
        tally.error_rate.append(got[0])
        tally.mnad.append(got[1])
        self.truths.append(truth)

    def finish(self, tally: Tally) -> None:
        """Spark truth must equal numpy ``tcrowd_em`` truth on the same table
        (the tolerance of tests/test_spark_em.py)."""
        ds = self.dataset
        ref = em.tcrowd_em(ds.answers, ds.schema).truth
        ref = ref.sort_values(["row", "col"]).reset_index(drop=True)
        for truth in self.truths:
            sp = truth.sort_values(["row", "col"]).reset_index(drop=True)
            tally.check(
                len(sp) == len(ref)
                and (sp[["row", "col"]].to_numpy() == ref[["row", "col"]].to_numpy()).all()
                and np.allclose(sp["truth"], ref["truth"], rtol=RTOL, atol=RTOL),
                "Spark truth differs from numpy tcrowd_em truth",
            )

    def close(self) -> None:
        if self.spark is not None:
            self.spark.stop()
            self.spark = None


# ---------------------------------------------------------------------------
# Trace hooks and the per-layer metrics derived from them.
# ---------------------------------------------------------------------------

#: Modules imported before hooks are installed, so a missing hook means a
#: missing function, not a module this workload happened not to import.
HOOKED_MODULES = (
    "repro.crowd.stats",
    "repro.core.em",
    "repro.core.spark_em",
    "repro.core.assignment",
    "repro.core.correlation",
    "repro.crowd.simulator",
    "repro.baselines.crh",
    "repro.baselines.catd",
    "repro.baselines.ds",
    "repro.baselines.glad",
    "repro.baselines.gtm",
    "repro.baselines.voting",
    "repro.harness.methods",
)


def _n_answers(args, kwargs, result):
    return {"answers": len(args[0])}


def _em_result(args, kwargs, result):
    return {"iters": result.n_iters, "nonconverged": int(not result.converged)}


# The Spark engine's m_step binding is hooked first and only in its own
# module, so the numpy EM's m_step hook (everywhere) no longer sees it.
HOOKS = [
    Hook("spark_em.m_step", "repro.core.spark_em", "m_step", everywhere=False,
         count=lambda a, k, r: {"rows": len(a[0]["row"])}),
    Hook("spark_em.param_frames", "repro.core.spark_em", "_param_frames"),
    Hook("spark_em.estep_plan", "repro.core.spark_em", "spark_estep"),
    Hook("spark_em.tcrowd_em_spark", "repro.core.spark_em", "tcrowd_em_spark",
         count=lambda a, k, r: {"iters": r.n_iters}),
    Hook("stats.erf", "repro.crowd.stats", "erf",
         count=lambda a, k, r: {"elems": int(np.size(a[0]))}),
    Hook("em.tcrowd_em", "repro.core.em", "tcrowd_em", count=_em_result),
    Hook("em.run_estep", "repro.core.em", "run_estep", count=_n_answers),
    Hook("em.estep_cat", "repro.core.em", "estep_categorical_column"),
    Hook("em.estep_cont", "repro.core.em", "estep_continuous_column"),
    Hook("em.m_step", "repro.core.em", "m_step"),
    Hook("em.q_objective", "repro.core.em", "q_objective"),
    Hook("assignment.gains", "repro.core.assignment", "StructureAwarePolicy.gains",
         count=lambda a, k, r: {"cells": len(r)}),
    Hook("assignment.gains", "repro.core.assignment", "InherentIGPolicy.gains",
         count=lambda a, k, r: {"cells": len(r)}),
    Hook("assignment.cat_ig", "repro.core.assignment", "_cat_ig"),
    Hook("assignment.pick", "repro.core.assignment", "InherentIGPolicy.pick"),
    Hook("correlation.fit_error_model", "repro.core.correlation", "fit_error_model"),
    Hook("simulator.run", "repro.crowd.simulator", "run_simulation"),
    Hook("simulator.answer", "repro.crowd.simulator", "HiddenWorld.answer"),
    Hook("baselines.crh", "repro.baselines.crh", "crh"),
    Hook("baselines.catd", "repro.baselines.catd", "catd"),
    Hook("baselines.ds", "repro.baselines.ds", "dawid_skene"),
    Hook("baselines.zencrowd", "repro.baselines.ds", "zencrowd"),
    Hook("baselines.glad", "repro.baselines.glad", "glad"),
    Hook("baselines.gtm", "repro.baselines.gtm", "gtm"),
    Hook("baselines.mv", "repro.baselines.voting", "majority_vote"),
    Hook("baselines.median", "repro.baselines.voting", "median_vote"),
]

LAYERS = ("bench", "stats", "em", "spark_em", "assignment", "correlation",
          "simulator", "baselines")


def layer_metrics(tr: Tracer, tally: Tally, traced_s: float, untraced_s: float) -> dict:
    """Every per-layer metric, from one traced pass of the workload."""
    m_steps = tr.calls["em.m_step"] + tr.calls["spark_em.m_step"]
    out = {
        "stats.erf.calls": tr.calls["stats.erf"],
        "stats.erf.elems": tr.counters["stats.erf.elems"],
        "stats.erf.s": tr.incl_s["stats.erf"],
        "em.tcrowd_em.calls": tr.calls["em.tcrowd_em"],
        "em.tcrowd_em.s": tr.incl_s["em.tcrowd_em"],
        "em.run_estep.s": tr.incl_s["em.run_estep"],
        "em.estep_cat.s": tr.incl_s["em.estep_cat"],
        "em.estep_cont.s": tr.incl_s["em.estep_cont"],
        "em.estep.answers": tr.counters["em.run_estep.answers"],
        "em.m_step.calls": tr.calls["em.m_step"],
        "em.m_step.s": tr.incl_s["em.m_step"],
        "em.q_objective.calls": tr.calls["em.q_objective"],
        "em.q_objective.per_m_step": tr.calls["em.q_objective"] / max(m_steps, 1),
        "em.iters": tr.counters["em.tcrowd_em.iters"],
        "em.nonconverged": tr.counters["em.tcrowd_em.nonconverged"],
        "assignment.gains.calls": tr.calls["assignment.gains"],
        "assignment.gains.s": tr.incl_s["assignment.gains"],
        "assignment.cells_scored": tr.counters["assignment.gains.cells"],
        "assignment.cat_ig.calls": tr.calls["assignment.cat_ig"],
        "assignment.pick.s": tr.incl_s["assignment.pick"],
        "correlation.fit_error_model.calls": tr.calls["correlation.fit_error_model"],
        "correlation.fit_error_model.s": tr.incl_s["correlation.fit_error_model"],
        "simulator.arrivals": tally.arrivals,
        "simulator.answer.calls": tr.calls["simulator.answer"],
        "simulator.arrival.infer_s": tr.pair_s[("simulator.run", "em.tcrowd_em")],
        "simulator.arrival.score_s": tr.pair_s[("simulator.run", "assignment.pick")],
        "simulator.arrival.self_s": tr.self_s["simulator.run"],
        "spark_em.param_frames.s": tr.incl_s["spark_em.param_frames"],
        "spark_em.estep_plan.s": tr.incl_s["spark_em.estep_plan"],
        "spark_em.estep_collect.s": tr.self_s["spark_em.tcrowd_em_spark"],
        "spark_em.m_step.s": tr.incl_s["spark_em.m_step"],
        "spark_em.iters": tr.counters["spark_em.tcrowd_em_spark.iters"],
        "spark_em.rows_collected": tr.counters["spark_em.m_step.rows"],
        "spark_em.final_estep.s": tr.incl_s["spark_em.final_estep"],
    }
    for b in ("crh", "catd", "ds", "zencrowd", "glad", "gtm", "mv", "median"):
        out[f"baselines.{b}.s"] = tr.incl_s[f"baselines.{b}"]
    for layer in LAYERS:
        out[f"{layer}.self_s"] = tr.layer_self_s[layer]
    out.update({
        "trace.wall_s": traced_s,
        "trace.untraced_wall_s": untraced_s,
        "trace.overhead_s": traced_s - untraced_s,
        "trace.self_sum_s": sum(tr.layer_self_s.values()),
        "trace.hooks_absent": len(set(tr.absent)),
    })
    return out
