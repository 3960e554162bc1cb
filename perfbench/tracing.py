"""Benchmark-owned span tracing around the program's layer entry points.

The traced run wraps public functions of each layer (the program itself
is not modified) and records one span per call: name, start, duration,
self time (duration minus the part its child spans cover), thread, and
the enclosing span's name.  Spans are kept in memory; :meth:`Tracer.dump`
writes them out once, when the traced process ends.

A function imported by name into another module (``from x import f``)
is looked up there, not in ``x``, so :meth:`Tracer.wrap_function`
replaces every reference to the original held by a loaded ``repro``
module.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time

#: Span name -> (module, attribute) of a module-level function to wrap.
FUNCTION_SPANS = {
    "relations.read_csv": ("repro.relations.io", "read_csv"),
    "discovery.mine": ("repro.discovery.miner", "mine_jointree"),
    "core.analyze": ("repro.core.analysis", "analyze"),
    "factorize.decompose": ("repro.factorize.pipeline", "decompose"),
    "jobs.run_operation": ("repro.service.operations", "run_operation"),
    "registry.save_snapshot": ("repro.relations.persist", "save_snapshot"),
}

#: Span name -> (module, class, method) of a method to wrap on its class.
METHOD_SPANS = {
    "relations.groups": ("repro.relations.columns", "ColumnStore", "groups"),
    "relations.counts": ("repro.relations.columns", "ColumnStore", "counts"),
    "info.entropy": ("repro.info.engine", "EntropyEngine", "entropy"),
    "info.entropies": ("repro.info.engine", "EntropyEngine", "entropies"),
    "info.cmi": ("repro.info.engine", "EntropyEngine", "cmi"),
    "info.backend": ("repro.info.backends", "ExactEntropyBackend", "entropy_nats"),
    "info.spurious_loss": (
        "repro.info.backends", "ExactEntropyBackend", "spurious_loss",
    ),
    "discovery.score_batch": (
        "repro.discovery.scoring", "SerialSplitScorer", "score_batch",
    ),
    "core.join_size": ("repro.core.evalcontext", "EvalContext", "join_size"),
    "registry.append_rows": (
        "repro.service.registry", "DatasetRegistry", "append_rows",
    ),
}

#: Modules that import a wrapped function by name; imported before
#: wrapping so their references are found and replaced.
_BY_NAME_IMPORTERS = (
    "repro.cli",
    "repro.service.jobs",
    "repro.service.registry",
    "repro.service.operations",
)

_INFO_QUERIES = ("info.entropy", "info.entropies", "info.cmi")


class _Frame:
    __slots__ = ("name", "start", "child_s")

    def __init__(self, name: str, start: float) -> None:
        self.name = name
        self.start = start
        self.child_s = 0.0


class Tracer:
    """Records spans from wrapped calls; aggregates them on demand."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        #: (name, start_s, duration_s, self_s, thread_id, parent name, items)
        self.spans: list[tuple] = []

    def _stack(self) -> list[_Frame]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @staticmethod
    def _items(name: str, args: tuple, kwargs: dict) -> tuple[tuple, int]:
        """Work items a call carries: candidates scored or entropy lookups.

        Materializes ``score_batch``'s candidate iterable so it can be
        counted and still be passed on.
        """
        if name == "discovery.score_batch":
            candidates = list(args[2] if len(args) > 2 else kwargs.pop("candidates"))
            return (*args[:2], candidates, *args[3:]), len(candidates)
        if name == "info.entropy":
            return args, 1
        if name == "info.cmi":
            given = args[3] if len(args) > 3 else kwargs.get("given", ())
            return args, 4 if given else 3
        return args, 0

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            args, items = tracer._items(name, args, kwargs)
            stack = tracer._stack()
            frame = _Frame(name, time.perf_counter())
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - frame.start
                stack.pop()
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent.child_s += duration
                with tracer._lock:
                    tracer.spans.append(
                        (
                            name,
                            frame.start,
                            duration,
                            duration - frame.child_s,
                            threading.get_ident(),
                            parent.name if parent is not None else None,
                            items,
                        )
                    )

        return wrapper

    def wrap_function(self, name: str, module_name: str, attr: str) -> None:
        module = __import__(module_name, fromlist=[attr])
        original = getattr(module, attr)
        wrapped = self._wrap(name, original)
        for loaded_name, loaded in list(sys.modules.items()):
            if loaded_name != "repro" and not loaded_name.startswith("repro."):
                continue
            for key, value in list(vars(loaded).items()):
                if value is original:
                    setattr(loaded, key, wrapped)

    def wrap_method(self, name: str, module_name: str, cls_name: str, attr: str) -> None:
        cls = getattr(__import__(module_name, fromlist=[cls_name]), cls_name)
        setattr(cls, attr, self._wrap(name, getattr(cls, attr)))

    def install(self) -> None:
        """Wrap every layer entry point listed above; call once per process."""
        for module_name in _BY_NAME_IMPORTERS:
            __import__(module_name)
        for name, (module_name, attr) in FUNCTION_SPANS.items():
            self.wrap_function(name, module_name, attr)
        for name, (module_name, cls_name, attr) in METHOD_SPANS.items():
            self.wrap_method(name, module_name, cls_name, attr)

    def dump(self, path: str) -> None:
        """Write every raw span as one JSON document."""
        with self._lock:
            spans = [list(span) for span in self.spans]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": spans}, handle)


def summarize(spans, start: float = float("-inf"), end: float = float("inf")) -> dict:
    """Per-span-name aggregates of the spans that began in ``[start, end]``.

    ``items`` sums the work items of the calls (candidates scored, entropy
    lookups); ``top_calls`` counts calls not enclosed by another ``info``
    query (an ``entropies`` batch calls ``entropy``); ``with_groups``
    counts calls whose direct child was ``relations.groups``.
    """
    out: dict[str, dict] = {}
    for name, began, duration, self_s, _thread, parent, items in spans:
        if not start <= began <= end:
            continue
        agg = _aggregate(out, name)
        agg["calls"] += 1
        agg["total_s"] += duration
        agg["self_s"] += self_s
        agg["items"] += items
        if parent not in _INFO_QUERIES:
            agg["top_calls"] += 1
        if name == "relations.groups" and parent is not None:
            _aggregate(out, parent)["with_groups"] += 1
    return out


def _aggregate(out: dict, name: str) -> dict:
    return out.setdefault(
        name,
        {
            "calls": 0,
            "total_s": 0.0,
            "self_s": 0.0,
            "items": 0,
            "top_calls": 0,
            "with_groups": 0,
        },
    )
