"""``pipeline_cold``: CSV -> mine -> analyze -> decompose in a child process.

The child (``pipeline_child.py``) runs the library pipeline on a fresh
relation each op, so every op pays for ingest and for every group-by;
the service does no work.  Op classes, each timed inside the child:

* ``ingest``  -- ``read_csv`` + ``infer_integer_domains``;
* ``compute`` -- ``mine_jointree(threshold=0.02)`` on the cold relation;
* ``reuse``   -- ``analyze`` + ``decompose`` of the mined tree, which
  reuse the entropy memo and join sizes that mining left on the relation.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

import numpy as np

from common import (
    HERE,
    SETUPS,
    class_summary,
    csv_text,
    median,
    planted_chain,
    program_env,
    read_json_line,
    stop_process,
    tree_peak_rss_mb,
)

PLANTED = ["ABC", "CDE", "EFG", "GH"]
DOMAIN = 16
FANOUT = [12, 8, 12, 8]  # 16 * 12 * 8 * 12 * 8 = 147456 rows before noise
NOISE_ROWS = 300
WARMUP_FANOUT = [2, 2, 2, 2]
THRESHOLD = 0.02
#: Measured cost of one op on a 2-core x86 host, used to size the
#: schedule: ops = max(3, round(seconds / OP_COST_S)).
OP_COST_S = 4.0
CHILD_TIMEOUT_S = 150.0


def schedule_ops(seconds: float) -> int:
    return max(3, round(seconds / OP_COST_S))


def _start_child(csv_path: str, warmup_path: str) -> tuple[subprocess.Popen, float]:
    """Spawn the child; return it with its spawn-to-ready time."""
    started = time.perf_counter()
    child = subprocess.Popen(
        [sys.executable, str(HERE / "pipeline_child.py"), "--csv", csv_path,
         "--warmup-csv", warmup_path, "--threshold", str(THRESHOLD)],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        env=program_env(),
        text=True,
    )
    try:
        ready = read_json_line(child, 60.0)
    except BaseException:
        stop_process(child)
        raise
    if ready.get("event") != "ready":
        stop_process(child)
        raise RuntimeError(f"pipeline child said {ready!r} instead of ready")
    return child, time.perf_counter() - started


def _run(child: subprocess.Popen, ops: int, trace: bool) -> dict:
    child.stdin.write(json.dumps({"cmd": "run", "ops": ops, "trace": trace}) + "\n")
    child.stdin.flush()
    reply = read_json_line(child, CHILD_TIMEOUT_S)
    if reply.get("event") != "done":
        raise RuntimeError(f"pipeline child replied {reply!r}")
    return reply


def _exit_child(child: subprocess.Popen) -> None:
    child.stdin.write(json.dumps({"cmd": "exit"}) + "\n")
    child.stdin.flush()
    try:
        child.wait(timeout=30)
    finally:
        stop_process(child)


def _check(reply: dict, expected_bags: list[list[str]], checks: dict) -> tuple[int, int]:
    """Validate every op's reports; returns ``(attempted, failed)``."""
    from repro.factorize.report import validate_report
    from repro.errors import ReproError

    failed = 0
    for op in reply["ops"]:
        if "error" in op:
            failed += 1
            checks["errors"].append(op["error"])
            continue
        try:
            for report in op["reports"]:
                validate_report(report)
        except ReproError as exc:
            failed += 1
            checks["errors"].append(str(exc))
            continue
        mine_report = op["reports"][0]
        if mine_report["bags"] != expected_bags:
            failed += 1
            checks["errors"].append(f"mined bags {mine_report['bags']} != planted")
            continue
        values = tuple(
            float(report[key]).hex()
            for report in op["reports"]
            for key in ("j_measure", "rho")
        )
        checks["values"].add(values)
    return len(reply["ops"]), failed


def run(args, workdir) -> dict:
    """Run the workload; returns the result document for ``run.py``."""
    rng = np.random.default_rng(args.seed)
    rows, names = planted_chain(rng, PLANTED, DOMAIN, FANOUT, NOISE_ROWS)
    csv_path = workdir / "pipeline.csv"
    csv_path.write_text(csv_text(names, rows), encoding="utf-8")
    warmup_rows, _ = planted_chain(rng, PLANTED, DOMAIN, WARMUP_FANOUT, 0)
    warmup_path = workdir / "warmup.csv"
    warmup_path.write_text(csv_text(names, warmup_rows), encoding="utf-8")
    expected_bags = sorted(sorted(bag) for bag in PLANTED)
    ops = schedule_ops(args.seconds / 2 if args.trace else args.seconds)

    setup_times = []
    child = None
    for _ in range(1 if args.trace else SETUPS):
        if child is not None:
            _exit_child(child)
        child, ready_s = _start_child(str(csv_path), str(warmup_path))
        setup_times.append(ready_s)
    checks = {"errors": [], "values": set()}
    try:
        plain = _run(child, ops, trace=False)
        attempted, failed = _check(plain, expected_bags, checks)
        peak_rss_mb = tree_peak_rss_mb(child.pid)
        traced = None
        if args.trace:
            traced = _run(child, ops, trace=True)
            more_attempted, more_failed = _check(traced, expected_bags, checks)
            attempted += more_attempted
            failed += more_failed
        _exit_child(child)
    finally:
        stop_process(child)
    if len(checks["values"]) > 1:
        failed += 1
        checks["errors"].append("J/rho differ between ops of one run")

    good = [op for op in plain["ops"] if "error" not in op]
    classes = {
        name: class_summary([op[f"{name}_s"] for op in good])
        for name in ("ingest", "compute", "reuse")
    }
    pipeline_latency = class_summary(
        [op["ingest_s"] + op["compute_s"] + op["reuse_s"] for op in good]
    )
    busy = {name: sum(op[f"{name}_s"] for op in good) for name in classes}
    total_busy = sum(busy.values()) or 1.0
    result = {
        "workload": "pipeline_cold",
        "ops": ops,
        "cpu_count": os.cpu_count(),
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": failed / max(attempted, 1),
        "errors": checks["errors"][:5],
        "setup_s": median(setup_times),
        "setup_samples_s": setup_times,
        "wall_s": plain["wall_s"],
        "throughput_ops_s": len(plain["ops"]) / plain["wall_s"],
        "peak_rss_mb": peak_rss_mb,
        "classes": classes,
        "latency": pipeline_latency,
        "busy_share": {name: busy[name] / total_busy for name in busy},
        "op_share": {name: 1.0 for name in classes},
        "n_rows": int(rows.shape[0]),
    }
    if traced is not None:
        result["trace"] = {
            "spans": traced["trace"],
            "ops": len(traced["ops"]),
            "throughput_ops_s": len(traced["ops"]) / traced["wall_s"],
        }
    return result
