"""Reproduce Table 6 (dataset statistics). Run: python jobs/table6_dataset_stats.py"""
from repro.harness.table6 import build_table6, format_table6
from repro.session import build_session


def main() -> None:
    spark = build_session("table6")
    measured = build_table6(spark)
    print(format_table6(measured))
    spark.stop()


if __name__ == "__main__":
    main()
