"""Layer spans recorded from outside the program.

The traced run times calls into each layer's public entry points by
replacing them, at the name each caller looks up, with a wrapper that
records a span.  Nothing inside ``src/`` changes: the wrappers sit on
engine / store / table / executor instances, on the ``topk_search`` and
``threshold_search_many`` module attributes the engine reads at call
time, and on the ``LocalFilter`` and ``LSMStore`` classes.

A span is ``[span_id, parent_id, op_id, layer, name, start, end]``.
Spans of one benchmark operation share ``op_id``; ``parent_id`` is the
span that was open when the call started (``-1`` for the operation's
root).  The benchmark is single-threaded (``scan_workers=1``), so spans
nest strictly and a span's self time is its duration minus the
durations of its direct children.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from typing import Dict, List

SPAN_ID, PARENT, OP, LAYER, NAME, START, END = range(7)

_perf = time.perf_counter


class Recorder:
    """In-memory span list plus the stack of open spans."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._stack: List[int] = []
        #: operation the next root span belongs to (set by the loop)
        self.op_id = -1

    def _open(self, layer: str, name: str) -> list:
        stack = self._stack
        span = [
            len(self.spans),
            stack[-1] if stack else -1,
            self.op_id,
            layer,
            name,
            _perf(),
            0.0,
        ]
        self.spans.append(span)
        stack.append(span[SPAN_ID])
        return span

    def _close(self, span: list) -> None:
        span[END] = _perf()
        self._stack.pop()

    def wrap(self, layer: str, name: str, fn):
        def traced(*args, **kwargs):
            span = self._open(layer, name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(span)

        return traced

    def wrap_generator(self, layer: str, name: str, fn):
        """A span over a generator's whole iteration.

        The span opens on the first ``next`` and closes on exhaustion;
        every caller in the traced paths drains the generator at once
        (``list(table.scan(...))``), so no foreign code runs between
        its yields."""

        def traced(*args, **kwargs):
            rows = fn(*args, **kwargs)

            def iterate():
                span = self._open(layer, name)
                try:
                    yield from rows
                finally:
                    self._close(span)

            return iterate()

        return traced

    def write(self, path: str, op_kinds: Dict[int, str]) -> None:
        """Dump every span (one JSON list per line) and the op kinds."""
        with open(path, "w") as fh:
            fh.write(json.dumps({"fields": [
                "span_id", "parent_id", "op_id", "layer", "name",
                "start", "end",
            ], "op_kinds": op_kinds}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


class Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self) -> None:
        self._undo: list = []

    def set(self, owner, attr: str, value) -> None:
        own = vars(owner)
        self._undo.append((owner, attr, attr in own, own.get(attr)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._undo:
            owner, attr, had, old = self._undo.pop()
            if had:
                setattr(owner, attr, old)
            else:
                delattr(owner, attr)


#: (layer, attribute) pairs wrapped on the engine's own objects; the
#: ``owner`` lambdas pick the instance each caller reads the name from
_INSTANCE_ENTRY_POINTS = (
    ("engine", lambda e: e, (
        "threshold_search", "topk_search", "threshold_search_many", "add",
    )),
    ("pruning", lambda e: e.pruner, ("prune", "resolution_band")),
    ("executor", lambda e: e.store.executor, (
        "execute", "scan_ranges", "scan_chunk",
    )),
    ("storage", lambda e: e.store, (
        "scan_ranges_for", "record_decoder", "columnar_decoder", "put",
    )),
    ("measures", lambda e: e.measure, ("distance_within",)),
    ("obs", lambda e: e.store.table.metrics, ("snapshot", "diff")),
)


@contextmanager
def traced(engine, recorder: Recorder):
    """Install every layer wrapper around ``engine`` for the block."""
    import repro.core.batch as batch_module
    import repro.core.engine as engine_module
    from repro.core.local_filter import LocalFilter
    from repro.kvstore.lsm import LSMStore

    patches = Patches()
    try:
        for layer, owner_of, names in _INSTANCE_ENTRY_POINTS:
            owner = owner_of(engine)
            for name in names:
                patches.set(
                    owner, name, recorder.wrap(layer, name, getattr(owner, name))
                )
        patches.set(
            engine_module,
            "topk_search",
            recorder.wrap("topk", "topk_search", engine_module.topk_search),
        )
        patches.set(
            batch_module,
            "threshold_search_many",
            recorder.wrap(
                "batch",
                "threshold_search_many",
                batch_module.threshold_search_many,
            ),
        )
        for name in ("passes", "passes_batch"):
            patches.set(
                LocalFilter,
                name,
                recorder.wrap("local_filter", name, getattr(LocalFilter, name)),
            )
        for name in ("flush", "compact"):
            patches.set(
                LSMStore,
                name,
                recorder.wrap("kvstore", name, getattr(LSMStore, name)),
            )
        table = engine.store.table
        patches.set(
            table,
            "scan",
            recorder.wrap_generator("kvstore", "scan", table.scan),
        )
        patches.set(table, "put", recorder.wrap("kvstore", "put", table.put))
        yield recorder
    finally:
        patches.restore()


@contextmanager
def run_counters(table, count_put_bytes: bool):
    """Counts the program keeps no counter for, over a whole loop.

    ``sstables_opened``: ``SSTable.scan`` calls.  ``IOMetrics`` has a
    field of that name but nothing increments it.  A range scan reaches
    the runs only on a block-cache miss, so this adds one call per miss.

    ``bytes_put``: key + value bytes ``table.put`` accepted (the base of
    the write amplification), counted only when asked for because it
    adds a call to every write."""
    from repro.kvstore.sstable import SSTable

    counter = {"sstables_opened": 0, "bytes_put": 0}
    run_scan = SSTable.scan

    def scan(self, *args, **kwargs):
        counter["sstables_opened"] += 1
        return run_scan(self, *args, **kwargs)

    patches = Patches()
    patches.set(SSTable, "scan", scan)
    if count_put_bytes:
        table_put = table.put

        def put(key, value):
            counter["bytes_put"] += len(key) + len(value)
            return table_put(key, value)

        patches.set(table, "put", put)
    try:
        yield counter
    finally:
        patches.restore()


def self_times(spans: List[list]):
    """Per span: its duration minus its direct children's durations."""
    child = [0.0] * len(spans)
    for span in spans:
        parent = span[PARENT]
        if parent >= 0:
            child[parent] += span[END] - span[START]
    return [
        (span[END] - span[START]) - child[span[SPAN_ID]] for span in spans
    ]
