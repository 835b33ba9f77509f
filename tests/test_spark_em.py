"""Spark EM engine: agreement with the numpy kernel and dataflow sanity."""
import dataclasses

import numpy as np
import pandas as pd
import pytest

from repro.core.em import answer_moments, column_priors, init_state, run_estep, tcrowd_em
from repro.core.spark_em import _STATS, spark_estep, tcrowd_em_spark
from repro.crowd.metrics import error_rate, mnad


@pytest.fixture(scope="module")
def spark_result(spark, tiny_ds):
    answers_df, _ = tiny_ds.to_spark(spark)
    return tcrowd_em_spark(answers_df, tiny_ds.schema, max_iter=12)


class TestSparkVsNumpy:
    def test_truth_agrees(self, spark, tiny_ds, spark_result):
        numpy_res = tcrowd_em(tiny_ds.answers, tiny_ds.schema, max_iter=12)
        sp = spark_result.truth.toPandas().sort_values(["row", "col"]).reset_index(drop=True)
        np_t = numpy_res.truth.sort_values(["row", "col"]).reset_index(drop=True)
        assert len(sp) == len(np_t)
        # Same cells, near-identical estimates (summation-order tolerance).
        np.testing.assert_array_equal(sp["row"].to_numpy(), np_t["row"].to_numpy())
        np.testing.assert_allclose(
            sp["truth"].to_numpy(), np_t["truth"].to_numpy(), rtol=1e-6, atol=1e-6
        )

    def test_state_agrees(self, tiny_ds, spark_result):
        numpy_res = tcrowd_em(tiny_ds.answers, tiny_ds.schema, max_iter=12)
        np.testing.assert_allclose(
            spark_result.state.ln_phi, numpy_res.state.ln_phi, atol=1e-5
        )
        np.testing.assert_allclose(
            spark_result.state.ln_beta, numpy_res.state.ln_beta, atol=1e-5
        )

    def test_metrics_agree(self, tiny_ds, spark_result):
        numpy_res = tcrowd_em(tiny_ds.answers, tiny_ds.schema, max_iter=12)
        sp_truth = spark_result.truth.toPandas()
        er_sp = error_rate(sp_truth, tiny_ds.truth, tiny_ds.schema)
        er_np = error_rate(numpy_res.truth, tiny_ds.truth, tiny_ds.schema)
        assert er_sp == pytest.approx(er_np, abs=1e-12)
        assert mnad(sp_truth, tiny_ds.truth, tiny_ds.schema) == pytest.approx(
            mnad(numpy_res.truth, tiny_ds.truth, tiny_ds.schema), rel=1e-6
        )


class TestOneAnswerColumn(TestSparkVsNumpy):
    """The agreement checks again, on ``tiny_ds`` with continuous column x1
    cut to its first answer: both engines must start that column at β = 1,
    the rule for a column with fewer than two answers."""

    @pytest.fixture(scope="class")
    def tiny_ds(self, tiny_ds):
        a = tiny_ds.answers
        j = [c.name for c in tiny_ds.schema.columns].index("x1")
        keep = (a["col"] != j) | (a.index == a.index[a["col"] == j][0])
        return dataclasses.replace(tiny_ds, answers=a[keep].reset_index(drop=True))

    @pytest.fixture(scope="class")
    def spark_result(self, spark, tiny_ds):
        answers_df, _ = tiny_ds.to_spark(spark)
        return tcrowd_em_spark(answers_df, tiny_ds.schema, max_iter=12)


class TestSparkDataflow:
    def test_estep_emits_one_row_per_answer(self, spark, tiny_ds, spark_result):
        answers_df, _ = tiny_ds.to_spark(spark)

        moments = answer_moments(tiny_ds.answers)
        priors = column_priors(moments, tiny_ds.schema)
        st = init_state(moments, tiny_ds.schema, 30, 20)
        out = spark_estep(answers_df, st, tiny_ds.schema, priors, 1.0)
        assert out.count() == len(tiny_ds.answers)

    def test_cells_relation_consistent(self, spark_result, tiny_ds):
        cells = (
            spark_result.cells.select("row", "col", "t_hat").distinct().toPandas()
        )
        assert len(cells) == tiny_ds.n_cells

    def test_quality_in_unit_interval(self, spark_result):
        assert ((spark_result.worker_quality > 0) & (spark_result.worker_quality < 1)).all()

    def test_q_trace_progresses(self, spark_result):
        assert spark_result.q_trace[-1] >= spark_result.q_trace[0]


class TestEstepStatsAgree:
    def test_per_answer_stats_match_numpy(self, spark, tiny_ds):
        """From one fixed state, both engines' E-steps emit the same
        per-answer M-step statistics."""
        moments = answer_moments(tiny_ds.answers)
        priors = column_priors(moments, tiny_ds.schema)
        st = init_state(moments, tiny_ds.schema, 30, 20)
        g = np.random.default_rng(3)
        st.ln_alpha += g.normal(0.0, 0.3, 30)
        st.ln_beta += g.normal(0.0, 0.3, tiny_ds.schema.n_cols)
        st.ln_phi += g.normal(0.0, 0.5, 20)
        key = ["row", "col", "worker"]

        answers_df, _ = tiny_ds.to_spark(spark)
        sp = spark_estep(answers_df, st, tiny_ds.schema, priors, 1.0).select(*_STATS)
        sp = sp.toPandas().sort_values(key).reset_index(drop=True)
        _, _, stats = run_estep(tiny_ds.answers, tiny_ds.schema, st, priors, 1.0)
        nm = pd.DataFrame(stats).sort_values(key).reset_index(drop=True)

        assert not nm.duplicated(key).any()
        np.testing.assert_array_equal(sp[key].to_numpy(), nm[key].to_numpy())
        np.testing.assert_array_equal(sp["is_cat"].to_numpy(), nm["is_cat"].to_numpy())
        np.testing.assert_array_equal(sp["n_labels"].to_numpy(), nm["n_labels"].to_numpy())
        np.testing.assert_allclose(sp["s"].to_numpy(), nm["s"].to_numpy(), rtol=1e-12)
        np.testing.assert_allclose(sp["w"].to_numpy(), nm["w"].to_numpy(), rtol=1e-12)
