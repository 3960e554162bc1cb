"""Append-only bench history files, written only when asked for.

The ``test_bench_*`` modules that keep a history accumulate one record
per session into a ``BENCH_*.json`` file at the repo root.  Those files
are tracked, and a plain test run (tier-1, the CI bench smoke) must
leave the working tree clean, so a record is appended only when the
environment sets ``BENCH_RECORD=1``.  The ``make bench-*`` targets do.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path


def append_record(path: Path, record: dict) -> None:
    """Timestamp ``record`` and append it to the JSON list at ``path``.

    Does nothing unless ``BENCH_RECORD=1``.  A missing or unreadable
    file starts a new history.
    """
    if os.environ.get("BENCH_RECORD") != "1":
        return
    record["timestamp"] = time.time()
    history = []
    if path.exists():
        try:
            history = json.loads(path.read_text())
        except json.JSONDecodeError:
            history = []
    if not isinstance(history, list):
        history = [history]
    history.append(record)
    path.write_text(json.dumps(history, indent=2, sort_keys=True) + "\n")
