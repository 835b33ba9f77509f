"""Run one T-Crowd benchmark workload and print its metrics.

    python3 perfbench/run.py --workload infer-batch --seed 1 --seconds 10 --trace 0

Run from the repository root; the program is imported from ``src/``. With
``--trace 0`` the workload is set up several times (``setup_s`` is the
median), then measured passes over the same inputs run back to back, at
least the workload's ``passes`` and until ``--seconds`` have passed. Times
are each request's fastest pass (see workloads.py), and the end-to-end
metrics are printed. With ``--trace 1`` it is set
up once, then runs one untraced and one traced pass of the same inputs, and
prints the per-layer metrics of the traced pass with the tracing overhead.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records the machine and library versions. Metric names and units come from
``BENCHMARK.json``; README.md in this directory describes them.

Spark runs in ``local[k]`` with k = the CPUs this process may use, and the
BLAS thread pools get the same k. Spark and Python scratch files go under
``.perfbench/`` in the repository root and are deleted at exit.
"""
from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("infer-batch", "online-assign", "spark-em")
#: A ``--trace 0`` run sets up at least SETUP_REPS times and for at least
#: SETUP_MIN_S seconds; ``setup_s`` is the median.
SETUP_REPS = 3
SETUP_MIN_S = 1.0


def driver_memory() -> str:
    """Half the machine's memory in GiB, clamped to 2..8 (the tier-1 rule)."""
    gib = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") // (1 << 31)
    return f"{min(max(gib, 2), 8)}g"


def configure(scratch: Path) -> dict:
    """Pin thread pools and scratch dirs; must run before numpy is imported."""
    nproc = len(os.sched_getaffinity(0))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(nproc)
    tmp = scratch / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    # Spark's Python workers are separate interpreters: they find the
    # uninstalled ``repro`` package only through PYTHONPATH.
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
    )
    os.environ["SPARK_LOCAL_DIRS"] = str(scratch / "spark")  # overrides spark.local.dir
    os.environ["SPARK_LOCAL_IP"] = "127.0.0.1"
    os.environ["JAVA_TOOL_OPTIONS"] = f"-XX:-UsePerfData -Djava.io.tmpdir={tmp}"
    sys.path.insert(0, str(SRC))
    return {"nproc": nproc, "driver_memory": driver_memory()}


def spark_builder(env: dict):
    def build():
        from pyspark.sql import SparkSession

        spark = (
            SparkSession.builder.appName("perfbench")
            .master(f"local[{env['nproc']}]")
            .config("spark.driver.memory", env["driver_memory"])
            .config("spark.driver.host", "127.0.0.1")
            .config("spark.driver.bindAddress", "127.0.0.1")
            .config("spark.ui.enabled", "false")
            .config("spark.ui.showConsoleProgress", "false")
            # The settings of jobs/_session.py and the test session.
            .config("spark.sql.shuffle.partitions", "64")
            .config("spark.sql.execution.arrow.pyspark.enabled", "true")
            .config("spark.sql.autoBroadcastJoinThreshold", -1)
            .getOrCreate()
        )
        spark.sparkContext.setLogLevel("ERROR")
        return spark

    return build


def stop_jvm() -> None:
    """Shut the Py4J gateway down and wait for the JVM to exit."""
    if "pyspark" not in sys.modules:
        return
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    if gateway is None:
        return
    proc = getattr(gateway, "proc", None)
    gateway.shutdown()
    SparkContext._gateway = SparkContext._jvm = None
    if proc is not None:
        proc.stdin.close()  # the JVM exits when its stdin closes
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def best_requests(passes: list[list[float]]) -> list[float]:
    """Each request's fastest service time over the passes of a run.

    Passes repeat the same requests in the same order; if their counts
    differ, the program did not repeat itself and all samples are pooled.
    """
    if len({len(p) for p in passes}) == 1:
        return [min(times) for times in zip(*passes)]
    return [t for p in passes for t in p]


def percentile_ms(samples: list[float], q: float) -> float:
    import numpy as np

    return float(np.percentile(samples, q)) * 1e3


def measure(wl, seconds: float, info: dict) -> tuple[dict, list]:
    """Set up several times, then run measured passes: end-to-end metrics."""
    import workloads as W

    setup_s = []
    while len(setup_s) < SETUP_REPS or sum(setup_s) < SETUP_MIN_S:
        t0 = time.perf_counter()
        wl.setup()
        setup_s.append(time.perf_counter() - t0)
    tally = W.Tally()
    pass_s = []
    t0 = time.perf_counter()
    while len(pass_s) < wl.passes or time.perf_counter() - t0 < seconds:
        try:
            wl.run_pass(tally)
        except Exception as exc:  # counted as a failed operation
            traceback.print_exc()
            tally.check(False, f"pass raised {exc!r}")
            break
        pass_s.append(time.perf_counter() - t0 - sum(pass_s))
    wl.finish(tally)
    best = best_requests(tally.requests)
    fastest = tally.infer_s.index(min(tally.infer_s))
    metrics = {
        "answers_per_s": tally.answers[fastest] / tally.infer_s[fastest],
        "arrival_p50_ms": percentile_ms(best, 50),
        "arrival_p90_ms": percentile_ms(best, 90),
        "error_rate": statistics.median(tally.error_rate),
        "mnad": statistics.median(tally.mnad),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": statistics.median(setup_s),
    }
    info.update(pass_s=[round(s, 3) for s in pass_s], requests=len(best),
                setup_runs=[round(s, 4) for s in setup_s])
    return metrics, [tally]


def trace(wl, info: dict) -> tuple[dict, list]:
    """One untraced and one traced pass of the same inputs: per-layer metrics."""
    import workloads as W

    wl.setup()
    plain = W.Tally()
    t0 = time.perf_counter()
    wl.run_pass(plain)
    untraced_s = time.perf_counter() - t0
    for mod in W.HOOKED_MODULES:
        try:
            importlib.import_module(mod)
        except ImportError:
            pass  # its hooks are reported absent
    tracer = W.Tracer()
    tracer.install(W.HOOKS)
    wl.tracer = tracer
    traced = W.Tally()
    try:
        with tracer.span("bench.pass"):
            wl.run_pass(traced)
    finally:
        tracer.uninstall()
        wl.tracer = None
    wl.finish(traced)
    info.update(absent_hooks=sorted(set(tracer.absent)))
    metrics = W.layer_metrics(tracer, traced, tracer.incl_s["bench.pass"], untraced_s)
    return metrics, [plain, traced]


def run(args, env: dict, spec: dict) -> dict:
    import workloads as W

    if args.workload == "infer-batch":
        wl = W.InferBatch(args.seed)
    elif args.workload == "online-assign":
        wl = W.OnlineAssign()
    else:
        wl = W.SparkEM(args.seed, spark_builder(env))
    info: dict = {"workload": args.workload, "seed": args.seed, "trace": args.trace}
    try:
        if args.trace:
            metrics, tallies = trace(wl, info)
        else:
            metrics, tallies = measure(wl, args.seconds, info)
    finally:
        wl.close()
        stop_jvm()

    failed = sum(t.failed for t in tallies)
    errors = [e for t in tallies for e in t.errors]
    if errors:
        info["check_failures"] = errors[:10]
    print("perfbench: " + json.dumps({**info, **env, **versions()}))
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    return {
        "correct": failed == 0,
        "attempted": sum(t.attempted for t in tallies),
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }


def versions() -> dict:
    import numpy
    import pandas

    out = {"python": sys.version.split()[0], "numpy": numpy.__version__,
           "pandas": pandas.__version__}
    if "pyspark" in sys.modules:
        out["spark"] = sys.modules["pyspark"].__version__
    return out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "repro").is_dir():
        print(f"perfbench: no program sources at {SRC / 'repro'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    scratch = ROOT / ".perfbench" / f"run-{os.getpid()}"
    try:
        env = configure(scratch)
        try:
            result = run(args, env, spec)
        except Exception:
            traceback.print_exc()
            return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch.parent.rmdir()  # only if no other run is using it
        except OSError:
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
