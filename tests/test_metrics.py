"""Tests for Error Rate / MNAD — hand-computed cases and a DuckDB oracle."""
import numpy as np
import pandas as pd
import pytest

from repro.crowd.metrics import error_rate, mnad, worker_actual_quality
from repro.crowd.schema import CATEGORICAL, CONTINUOUS, ColumnSpec, TableSchema
from repro.oracle import assert_equivalent


@pytest.fixture(scope="module")
def mixed_schema():
    return TableSchema(
        columns=(
            ColumnSpec("a", CATEGORICAL, n_labels=3),
            ColumnSpec("x", CONTINUOUS, domain=(0.0, 10.0)),
        )
    )


@pytest.fixture(scope="module")
def small_frames():
    truth = pd.DataFrame(
        {
            "row": [0, 0, 1, 1],
            "col": [0, 1, 0, 1],
            "truth": [1.0, 5.0, 2.0, 7.0],
        }
    )
    est = pd.DataFrame(
        {
            "row": [0, 0, 1, 1],
            "col": [0, 1, 0, 1],
            "truth": [1.0, 6.0, 0.0, 7.0],  # cat: 1 of 2 wrong; cont: rmse of col 1
        }
    )
    return est, truth


class TestPandasMetrics:
    def test_error_rate_hand_computed(self, small_frames, mixed_schema):
        est, truth = small_frames
        assert error_rate(est, truth, mixed_schema) == pytest.approx(0.5)

    def test_mnad_hand_computed(self, small_frames, mixed_schema):
        est, truth = small_frames
        # col 1: errors (1, 0) → rmse = sqrt(0.5); sd of truth [5,7] = 1.
        assert mnad(est, truth, mixed_schema) == pytest.approx(np.sqrt(0.5))

    def test_perfect_estimate(self, small_frames, mixed_schema):
        _, truth = small_frames
        assert error_rate(truth, truth, mixed_schema) == 0.0
        assert mnad(truth, truth, mixed_schema) == 0.0

    def test_nan_when_no_columns_of_kind(self, small_frames):
        est, truth = small_frames
        cat_only = TableSchema(columns=(ColumnSpec("a", CATEGORICAL, n_labels=3),))
        assert np.isnan(mnad(est[est.col == 0], truth[truth.col == 0], cat_only))
        cont_only = TableSchema(columns=(ColumnSpec("x", CONTINUOUS),))
        assert np.isnan(error_rate(est, truth, cont_only))

    def test_mnad_scale_invariant_per_column(self, mixed_schema):
        # Scaling a column's truth+estimate together leaves MNAD unchanged.
        truth = pd.DataFrame({"row": range(10), "col": 1, "truth": np.arange(10.0)})
        est = truth.assign(truth=truth["truth"] + 1.0)
        base = mnad(est, truth, mixed_schema)
        scaled_truth = truth.assign(truth=truth["truth"] * 100)
        scaled_est = scaled_truth.assign(truth=scaled_truth["truth"] + 100.0)
        assert mnad(scaled_est, scaled_truth, mixed_schema) == pytest.approx(base)


class TestSparkMetrics:
    """The pandas metrics against DuckDB SQL (the class name is kept so the
    test ids stay stable)."""

    def test_error_rate_oracle(self, tiny_ds, tiny_em):
        er = error_rate(tiny_em.truth, tiny_ds.truth, tiny_ds.schema)
        cats = ",".join(str(j) for j in tiny_ds.schema.categorical_idx)
        assert_equivalent(
            pd.DataFrame({"error_rate": [er]}),
            f"""
            SELECT avg(CASE WHEN round(e.truth) <> round(t.truth)
                       THEN 1.0 ELSE 0.0 END) AS error_rate
            FROM est e JOIN gt t ON e.row = t.row AND e.col = t.col
            WHERE e.col IN ({cats})
            """,
            est=tiny_em.truth,
            gt=tiny_ds.truth,
        )

    def test_mnad_oracle(self, tiny_ds, tiny_em):
        mn = mnad(tiny_em.truth, tiny_ds.truth, tiny_ds.schema)
        conts = ",".join(str(j) for j in tiny_ds.schema.continuous_idx)
        assert_equivalent(
            pd.DataFrame({"mnad": [mn]}),
            f"""
            WITH joined AS (
                SELECT e.col, e.truth - t.truth AS err, t.truth AS gt
                FROM est e JOIN gt t ON e.row = t.row AND e.col = t.col
                WHERE e.col IN ({conts})
            ), per_col AS (
                SELECT col, sqrt(avg(err * err)) AS rmse, stddev_pop(gt) AS sd
                FROM joined GROUP BY col
            )
            SELECT avg(rmse / greatest(sd, 1e-12)) AS mnad FROM per_col
            """,
            est=tiny_em.truth,
            gt=tiny_ds.truth,
        )


class TestWorkerActualQuality:
    def test_columns_present(self, tiny_ds):
        q = worker_actual_quality(tiny_ds.answers, tiny_ds.truth, tiny_ds.schema)
        assert {"worker", "cat_accuracy", "cont_err_std"} <= set(q.columns)

    def test_quality_consistent_across_types(self, restaurant_ds):
        # §6.4.1: a worker's categorical accuracy and continuous error are
        # negatively correlated (good workers good at both).
        q = worker_actual_quality(
            restaurant_ds.answers, restaurant_ds.truth, restaurant_ds.schema
        ).dropna()
        q = q[q["worker"].map(restaurant_ds.answers["worker"].value_counts()) >= 10]
        r = np.corrcoef(q["cat_accuracy"], q["cont_err_std"])[0, 1]
        assert r < -0.3
