"""Record the outputs the benchmark checks into references.json.

    python3 perfbench/record_references.py

Runs every Table 7 method on the three datasets, numpy T-Crowd on the
synthetic table, and the online simulation, all on the generators' own
labelling (the benchmark checks every seed's relabelled inputs against
these). Re-record only when a change is meant to alter these outputs.
"""
from __future__ import annotations

import json
import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads as W  # noqa: E402
from repro.core.assignment import StructureAwarePolicy  # noqa: E402
from repro.core.em import tcrowd_em  # noqa: E402
from repro.crowd import datasets as D  # noqa: E402
from repro.crowd.simulator import run_simulation, world_from_dataset  # noqa: E402


def _pair(est, ds) -> list:
    """(error rate, MNAD), with null where the table lacks the column type."""
    return [None if math.isnan(x) else x for x in W.quality(est, ds)]


def main() -> None:
    table7 = {
        name: {
            method: _pair(fn(ds.answers, ds.schema), ds)
            for method, fn in W.TABLE7_METHODS.items()
        }
        for name, ds in W.table7_datasets().items()
    }
    syn = W.synthetic_table()
    synthetic = _pair(tcrowd_em(syn.answers, syn.schema).truth, syn)
    world = world_from_dataset(D.restaurant_like(seed=W.ONLINE_DATASET_SEED), W.ONLINE_WORLD_SEED)
    curve = run_simulation(world, StructureAwarePolicy(), "tcrowd", W.ONLINE)
    online = [
        {"avg_answers": float(r["avg_answers"]), "n_answers": int(r["n_answers"]),
         "error_rate": float(r["error_rate"]), "mnad": float(r["mnad"])}
        for r in curve.to_dict("records")
    ]
    out = {"table7": table7, "synthetic": synthetic, "online": online}
    W.REFERENCES.write_text(json.dumps(out, indent=1) + "\n")
    print(f"wrote {W.REFERENCES}")


if __name__ == "__main__":
    main()
