"""MV / Median: pandas kernels, checked by hand and against a DuckDB oracle."""
import pandas as pd
import pytest

from repro.baselines.voting import majority_vote, median_vote, mv_median
from repro.crowd.schema import CATEGORICAL, CONTINUOUS, ColumnSpec, TableSchema
from repro.oracle import assert_equivalent

_MV_SQL = """
    WITH counts AS (
        SELECT row, col, round(value) AS label, count(*) AS n
        FROM answers WHERE col IN ({cats})
        GROUP BY row, col, round(value)
    ), ranked AS (
        SELECT row, col, label,
               row_number() OVER (PARTITION BY row, col
                                  ORDER BY n DESC, label ASC) AS rk
        FROM counts
    )
    SELECT row, col, CAST(label AS DOUBLE) AS truth
    FROM ranked WHERE rk = 1
    """

_MEDIAN_SQL = """
    SELECT row, col, median(value) AS truth
    FROM answers WHERE col IN ({conts})
    GROUP BY row, col
    """


def _idx(cols) -> str:
    return ",".join(str(j) for j in cols)


@pytest.fixture(scope="module")
def hand_schema():
    return TableSchema(
        columns=(
            ColumnSpec("a", CATEGORICAL, n_labels=4),
            ColumnSpec("x", CONTINUOUS),
        )
    )


@pytest.fixture(scope="module")
def hand_answers():
    return pd.DataFrame(
        {
            "worker": [0, 1, 2, 3, 0, 1, 2],
            "row": [0, 0, 0, 0, 0, 0, 0],
            "col": [0, 0, 0, 0, 1, 1, 1],
            "value": [2.0, 2.0, 1.0, 3.0, 10.0, 20.0, 90.0],
        }
    )


class TestPandasKernels:
    def test_mv_picks_mode(self, hand_answers, hand_schema):
        out = majority_vote(hand_answers, hand_schema)
        assert out.loc[0, "truth"] == 2.0

    def test_mv_tie_breaks_to_smallest_label(self, hand_schema):
        a = pd.DataFrame(
            {"worker": [0, 1], "row": [0, 0], "col": [0, 0], "value": [3.0, 1.0]}
        )
        out = majority_vote(a, hand_schema)
        assert out.loc[0, "truth"] == 1.0

    def test_median(self, hand_answers, hand_schema):
        out = median_vote(hand_answers, hand_schema)
        assert out.loc[0, "truth"] == 20.0

    def test_mv_median_combines(self, hand_answers, hand_schema):
        out = mv_median(hand_answers, hand_schema)
        assert len(out) == 2
        assert set(out["col"]) == {0, 1}

    def test_empty_inputs(self, hand_schema):
        empty = pd.DataFrame(columns=["worker", "row", "col", "value"])
        assert majority_vote(empty, hand_schema).empty
        assert median_vote(empty, hand_schema).empty
        assert mv_median(empty, hand_schema).empty


class TestOracle:
    """The pandas kernels against the same aggregations in DuckDB SQL
    ("spark" in two test names is kept so the test ids stay stable)."""

    def test_mv_spark_oracle(self, tiny_ds):
        assert_equivalent(
            majority_vote(tiny_ds.answers, tiny_ds.schema),
            _MV_SQL.format(cats=_idx(tiny_ds.schema.categorical_idx)),
            answers=tiny_ds.answers,
        )

    def test_median_spark_oracle(self, tiny_ds):
        assert_equivalent(
            median_vote(tiny_ds.answers, tiny_ds.schema),
            _MEDIAN_SQL.format(conts=_idx(tiny_ds.schema.continuous_idx)),
            answers=tiny_ds.answers,
        )

    def test_mv_median_union_oracle(self, tiny_ds):
        assert_equivalent(
            mv_median(tiny_ds.answers, tiny_ds.schema),
            _MV_SQL.format(cats=_idx(tiny_ds.schema.categorical_idx))
            + "UNION ALL"
            + _MEDIAN_SQL.format(conts=_idx(tiny_ds.schema.continuous_idx)),
            answers=tiny_ds.answers,
        )

    def test_oracle_catches_wrong_result(self, tiny_ds):
        off_by_one = majority_vote(tiny_ds.answers, tiny_ds.schema)
        off_by_one["truth"] += 1.0
        with pytest.raises(AssertionError):
            assert_equivalent(
                off_by_one,
                _MV_SQL.format(cats=_idx(tiny_ds.schema.categorical_idx)),
                answers=tiny_ds.answers,
            )
