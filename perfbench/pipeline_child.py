"""Process under test for ``pipeline_cold``: the library pipeline, one op at a time.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the program's
sources.  It imports the program, runs one op on a small warm-up CSV (so
lazy set-up is not timed in the first op), prints ``{"event": "ready"}``,
then answers JSON commands read line by line from stdin:

* ``{"cmd": "run", "ops": N, "trace": bool}`` runs N pipeline ops and
  prints one ``{"event": "done", ...}`` line with per-op timings and
  reports (and the span aggregates when tracing was on);
* ``{"cmd": "exit"}`` ends the process.

One op is what ``repro-ajd mine`` / ``analyze`` / ``decompose`` do for a
CSV, on a fresh ``Relation`` (so no group-by or entropy cache survives
between ops): ``read_csv`` -> ``mine_jointree`` -> ``analyze`` ->
``decompose``.  The heap is collected between ops, outside the timings,
so each op starts from the same state, as a fresh CLI process would.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
import time

import repro.core.analysis as core_analysis
import repro.discovery.miner as miner
import repro.factorize.pipeline as factorize_pipeline
import repro.relations.io as relations_io
from repro.factorize.report import base_report

from tracing import Tracer, summarize


def run_op(csv_path: str, threshold: float) -> dict:
    """One cold pipeline op; returns stage timings and the three reports."""
    t0 = time.perf_counter()
    relation = relations_io.infer_integer_domains(relations_io.read_csv(csv_path))
    t1 = time.perf_counter()
    mined = miner.mine_jointree(relation, threshold=threshold)
    t2 = time.perf_counter()
    analysis = core_analysis.analyze(relation, mined.jointree)
    decomposition = factorize_pipeline.decompose(relation, mined.jointree)
    t3 = time.perf_counter()
    shape = {"n_rows": len(relation), "n_cols": relation.schema.arity}
    mine_report = base_report(
        command="mine", strategy="recursive", j_measure=mined.j_value,
        rho=mined.rho, wall_time_s=t2 - t0, **shape,
    )
    mine_report["bags"] = sorted(sorted(bag) for bag in mined.bags)
    analyze_report = base_report(
        command="analyze", strategy=None, j_measure=analysis.j_entropy,
        rho=analysis.rho, wall_time_s=t3 - t2, **shape,
    )
    analyze_report.update(analysis.to_dict())
    decomposed = decomposition.report
    decompose_report = base_report(
        command="decompose", strategy="recursive",
        j_measure=decomposed.j_measure, rho=decomposed.rho,
        wall_time_s=t3 - t0, **shape,
    )
    decompose_report.update(decomposed.to_dict())
    return {
        "ingest_s": t1 - t0,
        "compute_s": t2 - t1,
        "reuse_s": t3 - t2,
        "reports": [mine_report, analyze_report, decompose_report],
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--csv", required=True)
    parser.add_argument("--warmup-csv", required=True)
    parser.add_argument("--threshold", type=float, required=True)
    args = parser.parse_args()
    tracer: Tracer | None = None
    run_op(args.warmup_csv, args.threshold)
    gc.collect()
    print(json.dumps({"event": "ready"}), flush=True)
    for line in sys.stdin:
        command = json.loads(line)
        if command["cmd"] == "exit":
            return 0
        if command["trace"] and tracer is None:
            tracer = Tracer()
            tracer.install()
        started = time.perf_counter()
        ops = []
        for _ in range(command["ops"]):
            try:
                ops.append(run_op(args.csv, args.threshold))
            except Exception as exc:  # reported per op; the parent counts it
                ops.append({"error": f"{type(exc).__name__}: {exc}"})
            gc.collect()
        wall_s = time.perf_counter() - started
        print(
            json.dumps(
                {
                    "event": "done",
                    "wall_s": wall_s,
                    "ops": ops,
                    "trace": summarize(tracer.spans) if tracer is not None else None,
                }
            ),
            flush=True,
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
