"""Shared helpers: percentiles, process control, memory and a CPU control loop."""

from __future__ import annotations

import json
import math
import os
import select
import signal
import subprocess
import time
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent

#: Candidate tail percentiles, highest first.  A class reports the
#: highest one that leaves at least ten samples above it.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 80.0, 75.0)
TAIL_BEYOND = 10
#: Set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 3


def program_env() -> dict:
    """Environment for a process that runs the program from ``src/``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile (``pct`` in 0..100) of a non-empty list."""
    ordered = sorted(values)
    rank = max(math.ceil(pct / 100.0 * len(ordered)), 1)
    return ordered[rank - 1]


def tail_percentile(count: int) -> float | None:
    """Highest ladder percentile with >= TAIL_BEYOND samples beyond it."""
    for pct in TAIL_LADDER:
        if count * (1.0 - pct / 100.0) >= TAIL_BEYOND:
            return pct
    return None


def class_summary(latencies_s: list[float]) -> dict:
    """p50, tail percentile and tail of one op class, in milliseconds."""
    if not latencies_s:
        return {"samples": 0}
    ms = [value * 1e3 for value in latencies_s]
    summary = {"samples": len(ms), "p50_ms": median(ms)}
    pct = tail_percentile(len(ms))
    if pct is not None:
        summary["tail_pct"] = pct
        summary["tail_ms"] = percentile(ms, pct)
    return summary


def read_json_line(process: subprocess.Popen, timeout_s: float) -> dict:
    """Next JSON line from a child's stdout, skipping non-JSON lines."""
    deadline = time.monotonic() + timeout_s
    while True:
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            raise TimeoutError(f"no reply from pid {process.pid} in {timeout_s:g}s")
        ready, _, _ = select.select([process.stdout], [], [], remaining)
        if not ready:
            continue
        line = process.stdout.readline()
        if not line:
            raise RuntimeError(
                f"pid {process.pid} closed its output (exit {process.poll()})"
            )
        try:
            document = json.loads(line)
        except ValueError:
            continue
        if isinstance(document, dict):
            return document


def descendants(pid: int) -> list[int]:
    """``pid`` and every live process below it, from ``/proc``."""
    children: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="utf-8") as handle:
                stat = handle.read()
        except OSError:
            continue
        ppid = int(stat.rsplit(")", 1)[1].split()[1])
        children.setdefault(ppid, []).append(int(entry))
    tree, frontier = [], [pid]
    while frontier:
        current = frontier.pop()
        tree.append(current)
        frontier.extend(children.get(current, []))
    return tree


def tree_peak_rss_mb(pid: int) -> float:
    """Sum of peak resident sizes (VmHWM) over ``pid`` and its descendants."""
    total_kb = 0
    for member in descendants(pid):
        try:
            with open(f"/proc/{member}/status", encoding="utf-8") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
                        break
        except OSError:
            continue
    return total_kb / 1024.0


def stop_process(process: subprocess.Popen, *, timeout_s: float = 20.0) -> None:
    """SIGINT (a clean server shutdown), then SIGKILL the whole tree if needed."""
    if process.poll() is None:
        tree = descendants(process.pid)
        try:
            process.send_signal(signal.SIGINT)
            process.wait(timeout=timeout_s)
        except subprocess.TimeoutExpired:
            pass
        for member in tree:
            try:
                os.kill(member, signal.SIGKILL)
            except OSError:
                pass
        process.wait()
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline and any(
            os.path.exists(f"/proc/{member}") for member in tree[1:]
        ):
            time.sleep(0.05)
    process.wait()
    for stream in (process.stdin, process.stdout):
        if stream is not None:
            stream.close()


def calib_ms(iterations: int = 2_000_000) -> float:
    """Wall time of a fixed pure-Python loop: a control for host speed."""
    start = time.perf_counter()
    total = 0
    for i in range(iterations):
        total += i & 7
    elapsed = time.perf_counter() - start
    if total < 0:  # keeps the loop's result live
        raise AssertionError
    return elapsed * 1e3


def planted_chain(
    rng, bags: list[str], domain: int, fanout: list[int], noise: int
):
    """Rows of a relation modelling the chain schema ``bags``, plus noise.

    Consecutive bags share exactly one attribute (``"ABC", "CDE", ...``).
    For each value of a bag's shared attribute, ``fanout[i]`` distinct
    combinations of its other attributes are drawn, and the bags are
    joined, so the relation satisfies the acyclic join dependency and has
    exactly ``domain * prod(fanout)`` rows whatever the seed.  ``noise``
    uniform rows not already present are then added.  Returns an
    ``(n, arity)`` int64 array and the attribute names.
    """
    import numpy as np

    names = list(dict.fromkeys("".join(bags)))
    columns: dict[str, np.ndarray] = {}
    first = bags[0]
    combos = np.stack(
        [rng.choice(domain ** (len(first) - 1), fanout[0], replace=False)
         for _ in range(domain)]
    )
    columns[first[-1]] = np.repeat(np.arange(domain), fanout[0])
    _decode_into(columns, first[:-1], combos.ravel(), domain)
    for bag, k in zip(bags[1:], fanout[1:]):
        table = np.stack(
            [rng.choice(domain ** (len(bag) - 1), k, replace=False)
             for _ in range(domain)]
        )
        codes = table[columns[bag[0]]].ravel()
        columns = {name: np.repeat(col, k) for name, col in columns.items()}
        _decode_into(columns, bag[1:], codes, domain)
    rows = np.column_stack([columns[name] for name in names]).astype(np.int64)
    return np.vstack([rows, fresh_rows(rng, rows, noise, domain)]), names


def fresh_rows(rng, existing, count: int, domain: int):
    """``count`` distinct uniform rows over ``[0, domain)`` not in ``existing``."""
    import numpy as np

    arity = existing.shape[1]
    radix = domain ** np.arange(arity, dtype=np.int64)
    taken = np.unique(existing @ radix)
    found = np.empty((0, arity), dtype=np.int64)
    while len(found) < count:
        batch = rng.integers(0, domain, size=(2 * count + 16, arity))
        keys = batch @ radix
        _, first = np.unique(keys, return_index=True)
        batch, keys = batch[np.sort(first)], keys[np.sort(first)]
        keep = ~np.isin(keys, taken)
        found = np.vstack([found, batch[keep]])
        taken = np.union1d(taken, keys[keep])
    return found[:count]


def _decode_into(columns: dict, attrs: str, codes, domain: int) -> None:
    """Split mixed-radix ``codes`` into one column per attribute."""
    for name in reversed(attrs):
        columns[name] = codes % domain
        codes = codes // domain


def csv_text(names: list[str], rows) -> str:
    """Header plus one line per row, as the program's CSV reader expects."""
    lines = [",".join(names)]
    lines.extend(",".join(map(str, row)) for row in rows.tolist())
    return "\n".join(lines) + "\n"
