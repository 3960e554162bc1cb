"""``serve_rw`` and ``serve_cluster``: the HTTP service as a subprocess.

The server is ``python -m repro.cli serve`` (or, for the traced pass,
``traced_server.py`` wrapping the same entry), with the request log sent
to ``os.devnull`` and stderr to a file.  This process is the single load
generator: a closed loop of at most ``nproc`` client threads, each
replaying its own fixed, seeded schedule over the datasets it owns (no
two threads touch one dataset, so every thread knows the cache state of
its datasets and each op's class is fixed in advance).

Op classes:

* ``reuse``   -- a job whose key an earlier op computed on the dataset's
  current version: answered from the result cache;
* ``compute`` -- ``decompose`` (which mines) with a fresh ``seed`` or
  ``analyze`` with a fresh ``delta``, alternately: a cache miss computed
  on the resident relation, whose entropy memo earlier ops filled;
* ``ingest``  -- ``append`` of ``APPEND_ROWS`` new rows; later ops on
  that dataset go to the new fingerprint.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from common import (
    HERE,
    SETUPS,
    class_summary,
    csv_text,
    fresh_rows,
    median,
    planted_chain,
    program_env,
    read_json_line,
    stop_process,
    tree_peak_rss_mb,
)
from tracing import summarize

BAGS = ["ABC", "CDE", "EF"]
SCHEMA_TEXT = "A,B,C;C,D,E;E,F"
DOMAIN = 8
FANOUT = [4, 6, 4]  # 8 * 4 * 6 * 4 = 768 rows before noise
NOISE_ROWS = 16
APPEND_ROWS = 10
POLL_S = 0.002
JOB_TIMEOUT_S = 60.0
#: Forced misses alternate between these.  A cached ``mine`` result is
#: re-scored on every later append of its dataset (revalidation), so
#: fresh-seed mines would make each append cost grow with the run;
#: ``decompose`` mines too, and its cached results are dropped on append.
COMPUTE_OPERATIONS = ("analyze", "decompose")


@dataclass(frozen=True)
class Workload:
    """Static description of one serve workload."""

    name: str
    worker_procs: int
    datasets: int
    #: Zipf exponent of the dataset choice (None: uniform).
    zipf: float | None
    #: Ops of each class in one round of one client thread.
    round_mix: dict
    #: Rounds per thread per second of run, measured on a 2-core host.
    rounds_per_s: float


WORKLOADS = {
    "serve_rw": Workload(
        name="serve_rw",
        worker_procs=0,
        datasets=4,
        zipf=None,
        round_mix={"ingest": 1, "compute": 8, "reuse": 23},
        rounds_per_s=4.0,
    ),
    # More datasets than the two workers keep resident (16 each), with
    # a skewed choice: hot datasets stay resident, cold ones hydrate
    # from their snapshots.
    "serve_cluster": Workload(
        name="serve_cluster",
        worker_procs=2,
        datasets=48,
        zipf=1.1,
        round_mix={"ingest": 1, "compute": 24, "reuse": 7},
        rounds_per_s=1.6,
    ),
}


def client_threads() -> int:
    return max(1, min(2, os.cpu_count() or 1))


# ----------------------------------------------------------------------
# Server process
# ----------------------------------------------------------------------
class Server:
    """One ``serve`` subprocess on an ephemeral port."""

    def __init__(self, workload: Workload, workdir: Path, tag: str, traced: bool):
        self.spill_dir = workdir / f"spill-{tag}"
        self.spans_path = workdir / f"spans-{tag}.json" if traced else None
        serve_args = [
            "serve", "--port", "0", "--workers", "2",
            "--request-log", os.devnull,
            "--spill-dir", str(self.spill_dir),
            "--worker-procs", str(workload.worker_procs),
        ]
        if traced:
            command = [sys.executable, str(HERE / "traced_server.py"),
                       "--spans-out", str(self.spans_path), *serve_args]
        else:
            command = [sys.executable, "-m", "repro.cli", *serve_args]
        self._stderr = open(workdir / f"server-{tag}.err", "w", encoding="utf-8")
        self.process = subprocess.Popen(
            command,
            stdout=subprocess.PIPE,
            stderr=self._stderr,
            env=program_env(),
            text=True,
            cwd=str(workdir),
        )
        try:
            event = read_json_line(self.process, 60.0)
            while event.get("event") != "serving":
                event = read_json_line(self.process, 60.0)
        except BaseException:
            self.stop()
            raise
        self.url = f"http://127.0.0.1:{event['port']}"

    def stop(self) -> list:
        """Shut down; returns the traced server's raw spans (else ``[]``)."""
        stop_process(self.process)
        self._stderr.close()
        if self.spans_path is None or not self.spans_path.exists():
            return []
        with open(self.spans_path, encoding="utf-8") as handle:
            return json.load(handle)["spans"]


def _client(url: str, seed: int):
    """A seeded client that keeps the round-trip time of every job poll."""
    from repro.service.client import ServiceClient

    client = ServiceClient(url, seed=seed, retries=0, timeout=JOB_TIMEOUT_S)
    client.get_rtts = []
    get_job = client.get_job

    def timed_get_job(job_id: str) -> dict:
        sent = time.perf_counter()
        view = get_job(job_id)
        client.get_rtts.append(time.perf_counter() - sent)
        return view

    client.get_job = timed_get_job
    return client


def _run_job(client, fingerprint: str, operation: str, params: dict):
    """Submit and wait; returns the final view, latency, submit RTT, poll RTTs."""
    polls_before = len(client.get_rtts)
    start = time.perf_counter()
    view = client.submit_job(fingerprint, operation, params)
    submit_rtt = time.perf_counter() - start
    if view["state"] in ("queued", "running"):
        view = client.wait_job(
            view["job_id"], timeout=JOB_TIMEOUT_S, poll_s=POLL_S, poll_cap_s=POLL_S
        )
    latency = time.perf_counter() - start
    return view, latency, submit_rtt, client.get_rtts[polls_before:]


def _scrape(url: str) -> dict:
    """``/v1/stats`` plus the ``/v1/metrics`` samples, keyed by series."""
    client = _client(url, seed=0)
    series = {}
    for line in client.metrics_text().splitlines():
        if line and not line.startswith("#"):
            key, _, value = line.rpartition(" ")
            series[key] = float(value)
    return {"stats": client.stats(), "series": series}


def _series_delta(before: dict, after: dict) -> dict:
    return {
        key: value - before["series"].get(key, 0.0)
        for key, value in after["series"].items()
    }


# ----------------------------------------------------------------------
# Inputs and schedule
# ----------------------------------------------------------------------
class Dataset:
    """A dataset as the load generator tracks it: rows, fingerprint, version."""

    def __init__(self, index: int, rows: np.ndarray, names: list[str], path: Path):
        self.index = index
        self.rows = rows
        self.names = names
        self.path = path
        self.fingerprint: str | None = None
        self.version = 1


def make_datasets(workload: Workload, rng, workdir: Path) -> list[Dataset]:
    datasets = []
    for index in range(workload.datasets):
        rows, names = planted_chain(rng, BAGS, DOMAIN, FANOUT, NOISE_ROWS)
        path = workdir / f"dataset-{index}.csv"
        path.write_text(csv_text(names, rows), encoding="utf-8")
        datasets.append(Dataset(index, rows, names, path))
    return datasets


def _warm_keys() -> list[tuple[str, dict]]:
    return [("mine", {}), ("analyze", {"schema": SCHEMA_TEXT}), ("decompose", {})]


def make_schedule(workload: Workload, rng, owned: list[int], rounds: int, first_unique: int):
    """One thread's ops: ``(class, dataset, operation, params)`` tuples.

    Each round appends to one dataset, then shuffles the round's compute
    and reuse ops.  A reuse op repeats a key computed on its dataset's
    current version, so it is a cache hit by construction; the first op
    after an append on that dataset is a compute op, so the dataset has
    a reusable key again.
    """
    weights = np.array(
        [1.0 / (rank + 1) ** workload.zipf if workload.zipf else 1.0
         for rank in range(len(owned))]
    )
    weights /= weights.sum()
    hot = {index: list(_warm_keys()) for index in owned}
    unique = first_unique
    ops = []
    mix = workload.round_mix
    for _ in range(rounds):
        target = owned[int(rng.choice(len(owned), p=weights))]
        ops.append(("ingest", target, "append", None))
        hot[target] = []
        body = ["compute"] * (mix["compute"] - 1) + ["reuse"] * mix["reuse"]
        rng.shuffle(body)
        body.insert(0, "compute")
        for position, op_class in enumerate(body):
            if position == 0:
                dataset = target
            else:
                candidates = [i for i in owned if op_class == "compute" or hot[i]]
                p = weights[[owned.index(i) for i in candidates]]
                dataset = candidates[int(rng.choice(len(candidates), p=p / p.sum()))]
            if op_class == "compute":
                unique += 1
                operation = COMPUTE_OPERATIONS[unique % len(COMPUTE_OPERATIONS)]
                if operation == "analyze":
                    params = {"schema": SCHEMA_TEXT, "delta": 0.05 + unique * 1e-9}
                else:
                    params = {"seed": unique}
                hot[dataset].append((operation, params))
            else:
                keys = hot[dataset]
                operation, params = keys[int(rng.integers(len(keys)))]
            ops.append((op_class, dataset, operation, params))
    return ops


# ----------------------------------------------------------------------
# Running
# ----------------------------------------------------------------------
def setup(workload: Workload, datasets: list[Dataset], workdir: Path, tag: str, traced: bool):
    """Boot -> ready -> register -> warm; returns (server, seconds)."""
    from repro.factorize.report import validate_report

    started = time.perf_counter()
    server = Server(workload, workdir, tag, traced)
    try:
        client = _client(server.url, seed=0)
        for dataset in datasets:
            view = client.register_dataset(path=str(dataset.path.resolve()))
            dataset.fingerprint = view["fingerprint"]
            dataset.version = 1
        for dataset in datasets:
            for operation, params in _warm_keys():
                view, *_ = _run_job(client, dataset.fingerprint, operation, dict(params))
                if view["state"] != "done":
                    raise RuntimeError(f"warm-up {operation} ended {view['state']}")
                validate_report(view["result"])
    except BaseException:
        server.stop()
        raise
    return server, time.perf_counter() - started


def _worker(client, schedule, datasets, rng, records, checks, barrier):
    from repro.errors import ReproError
    from repro.factorize.report import validate_report

    barrier.wait()
    for op_class, index, operation, params in schedule:
        dataset = datasets[index]
        record = {"class": op_class, "operation": operation, "ok": False}
        try:
            if op_class == "ingest":
                delta = fresh_rows(rng, dataset.rows, APPEND_ROWS, DOMAIN)
                start = time.perf_counter()
                info = client.append_dataset(
                    dataset.fingerprint, csv=csv_text(dataset.names, delta)
                )
                record["latency_s"] = time.perf_counter() - start
                dataset.rows = np.vstack([dataset.rows, delta])
                dataset.version += 1
                expected = (APPEND_ROWS, dataset.version, len(dataset.rows))
                got = (info.get("rows_added"), info.get("chain", {}).get("version"),
                       info.get("n_rows"))
                dataset.fingerprint = info["fingerprint"]
                if got != expected:
                    raise ReproError(f"append returned {got}, schedule expects {expected}")
            else:
                view, latency, submit_rtt, get_rtts = _run_job(
                    client, dataset.fingerprint, operation, dict(params)
                )
                record.update(
                    latency_s=latency,
                    submit_rtt_s=submit_rtt,
                    get_rtts_s=get_rtts,
                    service_time_s=view.get("service_time_s"),
                    stages=view.get("stages"),
                    cached=view.get("cached"),
                )
                if view["state"] != "done":
                    raise ReproError(f"job ended {view['state']}: {view.get('error')}")
                report = view["result"]
                validate_report(report)
                key = (index, dataset.version, operation)
                values = (float(report["j_measure"]).hex(), float(report["rho"]).hex())
                mismatch = bool(view.get("cached")) != (op_class == "reuse")
                with checks["lock"]:
                    checks["values"].setdefault(key, set()).add(values)
                    checks["class_mismatch"] += mismatch
                if mismatch:
                    record["class"] = "reuse" if view.get("cached") else "compute"
            record["ok"] = True
        except Exception as exc:  # counted as a failed op
            record["error"] = f"{type(exc).__name__}: {exc}"
        records.append(record)


def run_pass(workload, datasets, schedules, server, seed) -> dict:
    """Drive every thread's schedule against ``server``; closed loop."""
    before = _scrape(server.url)
    threads = []
    per_thread: list[list] = [[] for _ in schedules]
    checks = {"lock": threading.Lock(), "values": {}, "class_mismatch": 0}
    barrier = threading.Barrier(len(schedules) + 1)
    for number, schedule in enumerate(schedules):
        client = _client(server.url, seed=seed * 1000 + number)
        rng = np.random.default_rng([seed, number, 7])
        thread = threading.Thread(
            target=_worker,
            args=(client, schedule, datasets, rng, per_thread[number], checks, barrier),
        )
        thread.start()
        threads.append(thread)
    barrier.wait()
    started = time.perf_counter()
    for thread in threads:
        thread.join()
    ended = time.perf_counter()
    after = _scrape(server.url)
    records = [record for chunk in per_thread for record in chunk]
    inconsistent = sum(1 for values in checks["values"].values() if len(values) > 1)
    return {
        "records": records,
        "window": (started, ended),
        "wall_s": ended - started,
        "inconsistent": inconsistent,
        "class_mismatch": checks["class_mismatch"],
        "series": _series_delta(before, after),
        "stats_before": before["stats"],
        "stats_after": after["stats"],
    }


def _reset(datasets: list[Dataset], pristine: list[np.ndarray]) -> None:
    for dataset, rows in zip(datasets, pristine):
        dataset.rows = rows


def run(args, workdir: Path) -> dict:
    workload = WORKLOADS[args.workload]
    rng = np.random.default_rng(args.seed)
    datasets = make_datasets(workload, rng, workdir)
    pristine = [dataset.rows for dataset in datasets]
    threads = client_threads()
    seconds = args.seconds / 2 if args.trace else args.seconds
    rounds = max(1, round(seconds * workload.rounds_per_s))
    schedules = [
        make_schedule(
            workload,
            np.random.default_rng([args.seed, number]),
            [d.index for d in datasets if d.index % threads == number],
            rounds,
            first_unique=number * 10_000_000,
        )
        for number in range(threads)
    ]

    setup_times = []
    server = None
    for attempt in range(1 if args.trace else SETUPS):
        if server is not None:
            server.stop()
        _reset(datasets, pristine)
        server, seconds_taken = setup(workload, datasets, workdir, f"plain{attempt}", False)
        setup_times.append(seconds_taken)
    try:
        plain = run_pass(workload, datasets, schedules, server, args.seed)
        peak_rss_mb = tree_peak_rss_mb(server.process.pid)
    finally:
        server.stop()
    passes = [plain]
    traced = None
    if args.trace:
        _reset(datasets, pristine)
        server, _ = setup(workload, datasets, workdir, "traced", True)
        try:
            traced = run_pass(workload, datasets, schedules, server, args.seed)
        finally:
            spans = server.stop()
        traced["spans"] = summarize(spans, *traced["window"])
        passes.append(traced)

    attempted = sum(len(p["records"]) for p in passes)
    failed = sum(
        sum(1 for r in p["records"] if not r["ok"]) + p["inconsistent"] for p in passes
    )
    errors = [r["error"] for p in passes for r in p["records"] if "error" in r][:5]
    good = [r for r in plain["records"] if r["ok"]]
    classes = {}
    busy = {}
    counts = {}
    for op_class in ("ingest", "compute", "reuse"):
        members = [r for r in good if r["class"] == op_class]
        classes[op_class] = class_summary([r["latency_s"] for r in members])
        busy[op_class] = sum(r["latency_s"] for r in members)
        counts[op_class] = len(members)
    total_busy = sum(busy.values()) or 1.0
    total_ops = sum(counts.values()) or 1
    result = {
        "workload": workload.name,
        "client_threads": threads,
        "cpu_count": os.cpu_count(),
        "rounds_per_thread": rounds,
        "ops": len(plain["records"]),
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": failed / max(attempted, 1),
        "errors": errors,
        "class_mismatch": sum(p["class_mismatch"] for p in passes),
        "setup_s": median(setup_times),
        "setup_samples_s": setup_times,
        "wall_s": plain["wall_s"],
        "throughput_ops_s": len(plain["records"]) / plain["wall_s"],
        "peak_rss_mb": peak_rss_mb,
        "classes": classes,
        "op_share": {c: counts[c] / total_ops for c in counts},
        "busy_share": {c: busy[c] / total_busy for c in busy},
    }
    if traced is not None:
        result["trace"] = {
            "records": [r for r in traced["records"] if r["ok"]],
            "ops": len(traced["records"]),
            "throughput_ops_s": len(traced["records"]) / traced["wall_s"],
            "series": traced["series"],
            "stats_before": traced["stats_before"],
            "stats_after": traced["stats_after"],
            "spans": traced["spans"],
            "worker_procs": workload.worker_procs,
        }
    return result
