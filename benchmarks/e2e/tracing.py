"""Spans for the traced benchmark pass, recorded from outside the program.

:func:`install` wraps a fixed list of the program's public callables (one
per layer boundary) and rebinds every module attribute that refers to the
original object, found by identity scan of ``sys.modules``; methods are
replaced on their class.  Nothing in ``src/`` changes.  Each call records
one span ``(id, parent, name, start, end, seq, attrs)``; parents come from a
thread-local stack, and ``seq`` is the ``X-Bench-Seq`` header the client
sends, inherited by every span below ``handle_request``.  Spans stay in
memory until :meth:`Recorder.dump`.

Per-evaluation hot paths (``CoverageState`` gains) are deliberately not
wrapped; the per-evaluation cost is derived from greedy self time and the
evaluation count instead.  The analysis half (:func:`self_times`,
:func:`layer_breakdown`) is pure and works on any list of span records.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time
from contextlib import contextmanager
from typing import Any, Dict, Iterable, List, Optional, Sequence

SEQ_HEADER = "X-Bench-Seq"

# (module, attribute, span name): plain functions, rebound wherever bound.
FUNCTIONS = (
    ("json", "loads", "json.loads"),
    ("repro.system.service", "handle_request", "service.handle_request"),
    ("repro.core.serialize", "instance_from_dict", "serialize.instance_from_dict"),
    ("repro.core.greedy", "lazy_greedy", "greedy.lazy_greedy"),
    ("repro.core.bounds", "online_bound", "bounds.online_bound"),
    ("repro.core.objective", "score", "objective.score"),
    ("repro.fidelity.solver", "fidelity_main", "fidelity.fidelity_main"),
    ("repro.live.resolve", "warm_resolve", "live.warm_resolve"),
    ("repro.scale.builder", "build_streamed_instance", "scale.build_streamed_instance"),
)

# (module, class, method, span name): replaced on the class.
METHODS = (
    ("repro.tenants.store", "TenantStore", "put", "tenants.put"),
    ("repro.tenants.store", "TenantStore", "get", "tenants.get"),
    ("repro.live.archive", "LiveArchive", "ingest", "live.ingest"),
    ("repro.live.archive", "LiveArchive", "to_doc", "live.to_doc"),
)

# Imported before the identity scan so that modules which bind a target
# by name at import time are rebound too.
_PRELOAD = (
    "repro.system.cli",
    "repro.jobs.worker",
    "repro.core.solver",
    "repro.fidelity.policy",
    "repro.live.manager",
    "repro.tenants",
    "repro.scale",
)


class Recorder:
    """In-memory span store with a per-thread parent stack."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._ids = itertools.count()
        self._local = threading.local()

    @contextmanager
    def span(self, name: str, seq: Optional[int] = None):
        """Record one span; yields a dict the caller may fill with attrs."""
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        parent = stack[-1] if stack else None
        if seq is None and parent is not None:
            seq = parent[1]
        sid = next(self._ids)
        attrs: Dict[str, Any] = {}
        stack.append((sid, seq))
        start = time.perf_counter()
        try:
            yield attrs
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(
                [sid, parent[0] if parent else None, name, start, end, seq, attrs]
            )

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)


def load(path: str) -> List[list]:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _plain(recorder: Recorder, fn, name: str):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with recorder.span(name):
            return fn(*args, **kwargs)

    return wrapper


def _handle_request(recorder: Recorder, fn, name: str):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        headers = kwargs.get("headers")
        raw = headers.get(SEQ_HEADER) if headers is not None else None
        with recorder.span(name, seq=int(raw) if raw is not None else None):
            return fn(*args, **kwargs)

    return wrapper


def _lazy_greedy(recorder: Recorder, fn, name: str):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with recorder.span(name) as attrs:
            run = fn(*args, **kwargs)
            # main_algorithm overwrites the winner's evaluation count after
            # both passes return, so read the per-pass numbers here.
            attrs["mode"] = str(run.mode)
            attrs["evals"] = int(run.evaluations)
            attrs["picks"] = len(run.picks)
            return run

    return wrapper


class _TimedEnter:
    """Context-manager proxy that records a span around ``__enter__``."""

    def __init__(self, recorder: Recorder, cm, name: str) -> None:
        self._recorder = recorder
        self._cm = cm
        self._name = name

    def __enter__(self):
        with self._recorder.span(self._name) as attrs:
            instance, hit = self._cm.__enter__()
            attrs["hit"] = bool(hit)
        return instance, hit

    def __exit__(self, *exc_info):
        return self._cm.__exit__(*exc_info)


def _rebind(original, wrapper) -> int:
    """Point every module attribute bound to ``original`` at ``wrapper``."""
    count = 0
    for module in list(sys.modules.values()):
        namespace = getattr(module, "__dict__", None)
        if not isinstance(namespace, dict):
            continue
        for attr, value in list(namespace.items()):
            if value is original:
                setattr(module, attr, wrapper)
                count += 1
    return count


def install(recorder: Recorder) -> None:
    """Wrap every layer boundary in FUNCTIONS, METHODS and the lease."""
    for name in _PRELOAD:
        importlib.import_module(name)
    special = {
        "service.handle_request": _handle_request,
        "greedy.lazy_greedy": _lazy_greedy,
    }
    for module_name, attr, span_name in FUNCTIONS:
        original = getattr(importlib.import_module(module_name), attr)
        wrap = special.get(span_name, _plain)
        if _rebind(original, wrap(recorder, original, span_name)) == 0:
            raise RuntimeError(f"could not rebind {module_name}.{attr}")
    for module_name, cls_name, attr, span_name in METHODS:
        cls = getattr(importlib.import_module(module_name), cls_name)
        setattr(cls, attr, _plain(recorder, getattr(cls, attr), span_name))

    from repro.tenants import Tenants

    lease = Tenants.lease_for_solve

    @functools.wraps(lease)
    def lease_for_solve(self, *args, **kwargs):
        return _TimedEnter(recorder, lease(self, *args, **kwargs), "tenants.lease")

    Tenants.lease_for_solve = lease_for_solve


# --------------------------------------------------------------- analysis

SID, PARENT, NAME, START, END, SEQ, ATTRS = range(7)

#: Span names that root one measured operation.
ROOTS = ("service.handle_request", "archive.rep")


def self_times(spans: Sequence[list]) -> Dict[int, float]:
    """Span id -> duration minus the durations of its direct children.

    Children of one span run on the parent's thread and never overlap, so
    subtracting their durations gives the time the parent spent outside
    every child.
    """
    own = {s[SID]: s[END] - s[START] for s in spans}
    for s in spans:
        parent = s[PARENT]
        if parent is not None and parent in own:
            own[parent] -= s[END] - s[START]
    return own


def layer_breakdown(
    spans: Sequence[list], latency_by_seq: Dict[int, float]
) -> Dict[str, Dict[str, float]]:
    """Per-layer time, calls and share for the operations in ``latency_by_seq``.

    ``latency_by_seq`` maps each timed operation's seq to its client-side
    latency in seconds.  Returns ``{layer: {"ms": mean ms per op, "calls":
    calls per op, "share": layer time / summed latency}}`` plus an
    ``"_counts"`` entry with the raw counters the metrics need.
    """
    ops = len(latency_by_seq)
    wall = sum(latency_by_seq.values())
    timed = [s for s in spans if s[SEQ] in latency_by_seq]
    self_s = self_times(spans)
    names = {s[SID]: s[NAME] for s in spans}

    def dur(s):
        return s[END] - s[START]

    def layer(selected: Iterable[list], seconds=dur):
        selected = list(selected)
        total = sum(seconds(s) for s in selected)
        return {
            "ms": 1e3 * total / ops if ops else 0.0,
            "calls": len(selected) / ops if ops else 0.0,
            "share": total / wall if wall else 0.0,
        }

    def named(name: str, where=lambda s: True):
        return [s for s in timed if s[NAME] == name and where(s)]

    roots = [s for s in timed if s[NAME] in ROOTS]
    handled: Dict[int, float] = {}
    for s in timed:
        if s[NAME] == "service.handle_request":
            handled[s[SEQ]] = handled.get(s[SEQ], 0.0) + dur(s)
    transport = sum(latency_by_seq[q] - t for q, t in handled.items())
    root_time = sum(dur(s) for s in roots)
    greedy = named("greedy.lazy_greedy")
    evals = sum(s[ATTRS].get("evals", 0) for s in greedy)
    picks = sum(s[ATTRS].get("picks", 0) for s in greedy)
    leases = named("tenants.lease")
    out = {
        "service.transport": {
            "ms": 1e3 * transport / len(handled) if handled else 0.0,
            "calls": len(handled) / ops if ops else 0.0,
            "share": transport / wall if wall else 0.0,
        },
        "service.parse": layer(
            named(
                "json.loads",
                lambda s: names.get(s[PARENT]) == "service.handle_request",
            )
        ),
        "service.dispatch": layer(
            named("service.handle_request"), lambda s: self_s[s[SID]]
        ),
        "serialize.decode": layer(named("serialize.instance_from_dict")),
        "tenants.lease": layer(leases),
        "tenants.put": layer(named("tenants.put")),
        "tenants.get": layer(named("tenants.get")),
        "greedy.uc": layer(s for s in greedy if s[ATTRS].get("mode") == "UC"),
        "greedy.cb": layer(s for s in greedy if s[ATTRS].get("mode") != "UC"),
        "bounds.certificate": layer(named("bounds.online_bound")),
        "objective.score": layer(named("objective.score")),
        "fidelity.solve": layer(named("fidelity.fidelity_main")),
        "live.ingest": layer(named("live.ingest")),
        "live.resolve": layer(
            named("live.warm_resolve"), lambda s: self_s[s[SID]]
        ),
        "live.encode": layer(named("live.to_doc")),
        "scale.build": layer(named("scale.build_streamed_instance")),
    }
    greedy_self = sum(self_s[s[SID]] for s in greedy)
    out["_counts"] = {
        "ops": ops,
        "evals": evals,
        "picks": picks,
        "greedy_self_s": greedy_self,
        "leases": len(leases),
        "hits": sum(1 for s in leases if s[ATTRS].get("hit")),
        "root_s": root_time,
        "root_child_s": root_time - sum(self_s[s[SID]] for s in roots),
    }
    return out
