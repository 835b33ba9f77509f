"""The one SparkSession builder, shared by the jobs and the test fixture.

The test fixture (root ``conftest.py``) also sizes the driver JVM, in
``PYSPARK_SUBMIT_ARGS`` before pyspark is imported. Broadcast joins are
disabled so joins exercise the shuffle path; the EM dataflow asks for its
broadcasts explicitly.
"""
import os

from pyspark.sql import SparkSession


def build_session(app: str) -> SparkSession:
    """``SPARK_MASTER`` (default ``local[*]``) and
    ``SPARK_SHUFFLE_PARTITIONS`` (default 64) override the defaults."""
    return (
        SparkSession.builder.appName(app)
        .master(os.environ.get("SPARK_MASTER", "local[*]"))
        .config(
            "spark.sql.shuffle.partitions",
            os.environ.get("SPARK_SHUFFLE_PARTITIONS", "64"),
        )
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .config("spark.ui.enabled", "false")
        .getOrCreate()
    )
