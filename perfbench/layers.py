"""Per-layer metrics of a traced run, from spans, job stages and server counters.

Every workload reports every metric; a layer the workload does not
exercise reads 0.  Counts are totals over the traced pass, whose schedule
is fixed, so they repeat exactly unless behaviour changes.  Every layer
time (unit ``ms/op``) is the milliseconds that layer was busy, or work
waited in it, summed over the traced pass and divided by its scheduled
ops: a saving in one layer can save at most that much per op.
``host.calib_ms`` is a control loop's plain wall time.
"""

from __future__ import annotations

PER_LAYER = {
    "relations.read_csv_ms": "ms/op",
    "relations.groups_calls": "count",
    "relations.groups_self_ms": "ms/op",
    "relations.counts_calls": "count",
    "relations.counts_self_ms": "ms/op",
    "relations.dense_share": "ratio",
    "info.queries": "count",
    "info.memo_misses": "count",
    "info.memo_hit_ratio": "ratio",
    "info.backend_ms": "ms/op",
    "info.spurious_loss_ms": "ms/op",
    "discovery.mine_ms": "ms/op",
    "discovery.score_batch_ms": "ms/op",
    "discovery.candidates_scored": "count",
    "core.analyze_ms": "ms/op",
    "core.join_size_calls": "count",
    "core.join_size_ms": "ms/op",
    "factorize.decompose_ms": "ms/op",
    "http.submit_rtt_ms": "ms/op",
    "http.get_rtt_ms": "ms/op",
    "http.server_ms": "ms/op",
    "cache.lookups": "count",
    "cache.hit_ratio": "ratio",
    "jobs.queue_wait_ms": "ms/op",
    "jobs.run_ms": "ms/op",
    "jobs.operation_ms": "ms/op",
    "jobs.poll_overhead_ms": "ms/op",
    "registry.append_ms": "ms/op",
    "registry.snapshot_ms": "ms/op",
    "registry.snapshot_writes": "count",
    "registry.rows_added": "count",
    "cluster.dispatch_gap_ms": "ms/op",
    "cluster.worker_compute_ms": "ms/op",
    "cluster.worker_hydrate_ms": "ms/op",
    "cluster.hydrations_snapshot": "count",
    "cluster.hydrations_resident": "count",
    "cluster.dispatched": "count",
    "cluster.dispatch_failures": "count",
    "telemetry.log_dropped": "count",
    "host.calib_ms": "ms",
    "trace.overhead_ratio": "ratio",
}

#: Span-time metric -> (span name, "total_s" or "self_s").
_SPAN_TIMES = {
    "relations.read_csv_ms": ("relations.read_csv", "total_s"),
    "relations.groups_self_ms": ("relations.groups", "self_s"),
    "relations.counts_self_ms": ("relations.counts", "self_s"),
    "info.backend_ms": ("info.backend", "total_s"),
    "info.spurious_loss_ms": ("info.spurious_loss", "total_s"),
    "discovery.mine_ms": ("discovery.mine", "total_s"),
    "discovery.score_batch_ms": ("discovery.score_batch", "total_s"),
    "core.analyze_ms": ("core.analyze", "total_s"),
    "core.join_size_ms": ("core.join_size", "total_s"),
    "factorize.decompose_ms": ("factorize.decompose", "total_s"),
    "jobs.operation_ms": ("jobs.run_operation", "total_s"),
    "registry.append_ms": ("registry.append_rows", "total_s"),
    "registry.snapshot_ms": ("registry.save_snapshot", "total_s"),
}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _span_metrics(spans: dict, ops: int) -> dict:

    def calls(name: str) -> int:
        return spans.get(name, {}).get("calls", 0)

    metrics = {
        metric: _ratio(spans.get(name, {}).get(field, 0.0) * 1e3, ops)
        for metric, (name, field) in _SPAN_TIMES.items()
    }
    counts = spans.get("relations.counts", {})
    lookups = sum(
        spans.get(name, {}).get("items", 0) for name in ("info.entropy", "info.cmi")
    )
    queries = sum(
        spans.get(name, {}).get("top_calls", 0)
        for name in ("info.entropy", "info.entropies", "info.cmi")
    )
    metrics.update(
        {
            "relations.groups_calls": calls("relations.groups"),
            "relations.counts_calls": calls("relations.counts"),
            "relations.dense_share": _ratio(
                counts.get("calls", 0) - counts.get("with_groups", 0),
                counts.get("calls", 0),
            ),
            "info.queries": queries,
            "info.memo_misses": calls("info.backend"),
            "info.memo_hit_ratio": (
                1.0 - _ratio(calls("info.backend"), lookups) if lookups else 0.0
            ),
            "discovery.candidates_scored": spans.get(
                "discovery.score_batch", {}
            ).get("items", 0),
            "core.join_size_calls": calls("core.join_size"),
        }
    )
    return metrics


def _histogram_sum_ms(series: dict, name: str, label: str = "") -> float:
    """Milliseconds a Prometheus histogram's ``_sum`` series grew by."""
    return 1e3 * sum(
        value
        for key, value in series.items()
        if key.startswith(name + "_sum") and label in key
    )


def _stat_delta(trace: dict, *path: str) -> float:
    def walk(document):
        for key in path:
            document = (document or {}).get(key)
        return document or 0

    return walk(trace["stats_after"]) - walk(trace["stats_before"])


def _service_metrics(trace: dict) -> dict:
    ops = trace["ops"]
    records = trace["records"]
    jobs = [r for r in records if r["class"] in ("compute", "reuse")]
    computed = [r for r in jobs if r["class"] == "compute"]
    series = trace["series"]
    hits = _stat_delta(trace, "cache", "hits")
    lookups = hits + _stat_delta(trace, "cache", "misses")
    gap = worker_compute = worker_hydrate = 0.0
    if trace["worker_procs"]:
        for record in computed:
            stages = record.get("stages") or {}
            workers = {k: v for k, v in stages.items() if k.startswith("worker_")}
            if "run" not in stages or not workers:
                continue
            gap += stages["run"] - sum(workers.values())
            worker_hydrate += workers.get("worker_hydrate", 0.0)
            worker_compute += sum(v for k, v in workers.items() if k != "worker_hydrate")

    def per_op_ms(seconds: float) -> float:
        return _ratio(seconds * 1e3, ops)

    return {
        "http.submit_rtt_ms": per_op_ms(sum(r["submit_rtt_s"] for r in jobs)),
        "http.get_rtt_ms": per_op_ms(sum(sum(r["get_rtts_s"]) for r in jobs)),
        "http.server_ms": _ratio(_histogram_sum_ms(series, "http_request_seconds"), ops),
        "cache.lookups": lookups,
        "cache.hit_ratio": _ratio(hits, lookups),
        "jobs.queue_wait_ms": _ratio(
            _histogram_sum_ms(series, "job_queue_wait_seconds"), ops
        ),
        "jobs.run_ms": _ratio(
            _histogram_sum_ms(series, "stage_seconds", 'stage="run"'), ops
        ),
        "jobs.poll_overhead_ms": per_op_ms(
            sum(r["latency_s"] - r["service_time_s"] for r in computed)
        ),
        "registry.snapshot_writes": _stat_delta(trace, "registry", "snapshot_writes"),
        "registry.rows_added": _stat_delta(trace, "registry", "append_rows_added"),
        "cluster.dispatch_gap_ms": per_op_ms(gap),
        "cluster.worker_compute_ms": per_op_ms(worker_compute),
        "cluster.worker_hydrate_ms": per_op_ms(worker_hydrate),
        "cluster.hydrations_snapshot": _stat_delta(trace, "cluster", "hydrations", "snapshot"),
        "cluster.hydrations_resident": _stat_delta(trace, "cluster", "hydrations", "resident"),
        "cluster.dispatched": _stat_delta(trace, "cluster", "dispatched"),
        "cluster.dispatch_failures": _stat_delta(trace, "cluster", "dispatch_failures"),
        "telemetry.log_dropped": series.get("telemetry_log_dropped_total", 0.0),
    }


def per_layer(result: dict, calib_ms: float) -> dict:
    """The ``--trace 1`` metrics of one workload's result document."""
    trace = result["trace"]
    metrics = {name: 0.0 for name in PER_LAYER}
    metrics.update(_span_metrics(trace["spans"], trace["ops"]))
    if "records" in trace:
        metrics.update(_service_metrics(trace))
    metrics["host.calib_ms"] = calib_ms
    metrics["trace.overhead_ratio"] = _ratio(
        trace["throughput_ops_s"], result["throughput_ops_s"]
    )
    return {
        name: {"value": float(metrics[name]), "unit": unit}
        for name, unit in PER_LAYER.items()
    }
