"""Benchmark entry point: run one workload, check it, print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload serve_rw --seed 1 --seconds 20 --trace 0

The program under test is run from ``src/`` in a separate process (the
pipeline child or the HTTP server); this process only generates inputs
from ``--seed``, drives the schedule, checks every output and measures.
``--trace 0`` reports the end-to-end metrics, ``--trace 1`` runs the
schedule untraced and then traced and reports the per-layer metrics.
Detail (per-class sample counts, tail percentiles, shares) is printed
as JSON before the last line; the last line is the result object.

Exits non-zero without a result when the program's sources are missing.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from common import SRC, calib_ms  # noqa: E402

WORKLOADS = ("pipeline_cold", "serve_rw", "serve_cluster")

#: End-to-end metric -> unit.  ``<class>_p50_ms`` is one op class's p50.
#: The ``ingest`` class is reported in the detail only: its p50 spread
#: over runs (fsync in appends, allocation in read_csv) exceeded any
#: bound the benchmark may set.
END_TO_END = {
    "setup_s": "s",
    "throughput_ops_s": "1/s",
    "peak_rss_mb": "MB",
    "compute_p50_ms": "ms",
    "reuse_p50_ms": "ms",
}


def end_to_end(result: dict) -> dict:
    metrics = {}
    for name, unit in END_TO_END.items():
        if name.endswith("_p50_ms"):
            value = result["classes"][name[: -len("_p50_ms")]]["p50_ms"]
        else:
            value = result[name]
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: program sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    work_root = HERE / ".work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    try:
        if args.workload == "pipeline_cold":
            import pipeline

            result = pipeline.run(args, workdir)
        else:
            import serve

            result = serve.run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    host_calib_ms = calib_ms()
    if args.trace:
        import layers

        metrics = layers.per_layer(result, host_calib_ms)
    else:
        metrics = end_to_end(result)
    detail = {k: v for k, v in result.items() if k != "trace"}
    detail["host_calib_ms"] = host_calib_ms
    print(json.dumps({"detail": detail}, sort_keys=True, default=str))
    print(
        json.dumps(
            {
                "correct": result["failed"] == 0,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
