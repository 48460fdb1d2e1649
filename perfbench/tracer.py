"""Span tracing for the benchmark's traced run, installed from outside ``src/``.

:func:`install` replaces public functions of each layer with thin wrappers
that record one span per call: name, start, end, parent span and request
id (the id of the outermost span of the call chain).  Spans live in memory
and are written out once, when the run ends.  Nothing inside the program
is changed: the wrappers are attribute patches on its modules and classes,
made only by the benchmark and by its searcher entry point.

The parent of a span is whatever span is current in the calling context
(a :class:`contextvars.ContextVar`), so parent links follow asyncio tasks
and stop at thread boundaries -- a micro-batcher flush thread starts new
requests, which is what it does.

Some calls are named by the phase they run in: a beam search under
``HnswIndex.add`` is construction work, the same kernel under
``HnswIndex.search_batch`` is query work.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import itertools
import json
import time

_CURRENT: contextvars.ContextVar = contextvars.ContextVar(
    "perfbench_span", default=None
)
#: The tracer :func:`install` put in place, until it is uninstalled.
_ACTIVE = None


def active():
    """The installed :class:`Tracer`, or ``None`` when nothing is traced."""
    return _ACTIVE


class Tracer:
    """In-memory span log of one process."""

    def __init__(self, process: str) -> None:
        self.process = process
        self._ids = itertools.count(1)
        #: ``(span_id, parent_id, request_id, name, start_ns, end_ns, work)``;
        #: ``list.append`` is atomic, so threads share the list unlocked.
        self.spans: list[tuple] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- wrapping ------------------------------------------------------------------
    def wrap(self, owner, attr: str, name, *, phase=None, work=None) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper.

        ``name`` is a span name, or a callable mapping the current phase
        (``None``, ``"build"`` or ``"query"``) to one.  ``phase`` sets the
        phase for everything called below this span.  ``work(args,
        result)`` returns a count of work done (pairs scored, bytes
        moved), stored on the span; ``work`` may also be a pair of
        callables ``(before(args), after(args, token))`` for counters
        read around the call.
        """
        function = inspect.getattr_static(owner, attr)
        spans = self.spans
        ids = self._ids

        def enter():
            parent = _CURRENT.get()
            span_id = next(ids)
            if parent is None:
                parent_id, request_id, current_phase = 0, span_id, None
            else:
                parent_id, request_id, current_phase = parent
            span_name = name(current_phase) if callable(name) else name
            token = _CURRENT.set(
                (span_id, request_id, phase or current_phase)
            )
            return span_id, parent_id, request_id, span_name, token

        def leave(state, start, amount):
            span_id, parent_id, request_id, span_name, token = state
            end = time.perf_counter_ns()
            _CURRENT.reset(token)
            spans.append(
                (span_id, parent_id, request_id, span_name, start, end, amount)
            )

        before, after = (
            work if isinstance(work, tuple) else (None, None)
        )
        if inspect.iscoroutinefunction(function):

            @functools.wraps(function)
            async def wrapper(*args, **kwargs):
                state = enter()
                start = time.perf_counter_ns()
                result = None
                try:
                    result = await function(*args, **kwargs)
                    return result
                finally:
                    amount = work(args, result) if callable(work) else 0
                    leave(state, start, amount)

        else:

            @functools.wraps(function)
            def wrapper(*args, **kwargs):
                state = enter()
                token = before(args) if before is not None else None
                start = time.perf_counter_ns()
                result = None
                try:
                    result = function(*args, **kwargs)
                    return result
                finally:
                    if after is not None:
                        amount = after(args, token)
                    elif callable(work):
                        amount = work(args, result)
                    else:
                        amount = 0
                    leave(state, start, amount)

        self._undo.append((owner, attr, function))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        """Restore every wrapped attribute (latest first)."""
        global _ACTIVE
        if _ACTIVE is self:
            _ACTIVE = None
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- output --------------------------------------------------------------------
    def records(self) -> list[dict]:
        return [
            {
                "process": self.process,
                "span": span_id,
                "parent": parent_id,
                "request": request_id,
                "name": name,
                "start_ns": start,
                "end_ns": end,
                "work": work,
            }
            for span_id, parent_id, request_id, name, start, end, work in (
                list(self.spans)
            )
        ]


def write_records(path, records: list[dict]) -> None:
    with open(path, "w") as handle:
        for record in records:
            handle.write(json.dumps(record) + "\n")


def read_records(path: str) -> list[dict]:
    with open(path) as handle:
        return [json.loads(line) for line in handle if line.strip()]


def _by_phase(layer: str):
    return lambda phase: f"{layer}.{phase or 'query'}"


def install(tracer: Tracer) -> None:
    """Wrap the public functions of every layer the benchmark reports on.

    The same set is installed in the benchmark process and in each
    searcher process; a layer that does not run in a process records
    nothing there.
    """
    global _ACTIVE
    _ACTIVE = tracer
    import repro.core.index as core_index
    import repro.hnsw.index as hnsw_index
    import repro.net.protocol as protocol
    import repro.net.server as net_server
    import repro.offline.indexing as indexing
    import repro.online.broker as broker
    from repro.core.builder import LannsBuilder
    from repro.core.index import ShardIndex
    from repro.distance.scorer import Scorer
    from repro.hnsw.index import HnswIndex
    from repro.net.transport import AsyncRemoteSearcherTransport
    from repro.online.searcher import SearcherNode
    from repro.online.service import OnlineService
    from repro.segmenters.hyperplane import HyperplaneTreeSegmenter
    from repro.storage.hdfs import LocalHdfs

    def ops_before(args):
        return args[0].ops

    def ops_after(args, before):
        return args[0].ops - before

    def rows_at(position):
        return lambda args, _result: int(args[position].shape[0])

    def frame_bytes(_args, result):
        return sum(memoryview(buffer).nbytes for buffer in result)

    def body_bytes(args, _result):
        return len(args[0]) + len(args[1])

    wrap = tracer.wrap
    wrap(LannsBuilder, "learn_segmenter", "segmenters.fit")
    wrap(LannsBuilder, "partition", "core.partition")
    wrap(HyperplaneTreeSegmenter, "route_query_batch", "segmenters.route")
    wrap(HnswIndex, "add", "hnsw.add", phase="build")
    wrap(hnsw_index, "search_layer_batch", _by_phase("hnsw.beam"))
    wrap(hnsw_index, "select_neighbors_heuristic_batch", "hnsw.heuristic")
    for method in ("score_pairs", "pairwise_ids", "pairwise_ids_batch"):
        wrap(
            Scorer, method, _by_phase("distance.score"),
            work=(ops_before, ops_after),
        )
    wrap(indexing, "hnsw_to_bytes", "storage.serialize")
    wrap(
        LocalHdfs, "write_bytes", "storage.write",
        work=lambda args, _result: len(args[2]),
    )
    wrap(OnlineService, "deploy", "storage.deploy")
    wrap(HnswIndex, "search_batch", "hnsw.search", phase="query")
    wrap(
        ShardIndex, "search_batch", "core.shard_search", phase="query",
        work=rows_at(1),
    )
    wrap(core_index, "merge_segment_results_batch", "core.merge")
    wrap(broker, "merge_shard_results_batch", "core.merge")
    wrap(
        broker.Broker, "execute", "online.broker.execute",
        work=lambda args, _result: int(args[1].queries.shape[0]),
    )
    wrap(SearcherNode, "search_batch", "online.searcher.search",
         work=rows_at(2))
    wrap(AsyncRemoteSearcherTransport, "search_batch_async", "net.rpc")
    wrap(protocol, "encode_frame", "net.encode", work=frame_bytes)
    wrap(net_server, "encode_frame", "net.encode", work=frame_bytes)
    wrap(protocol, "decode_body", "net.decode", work=body_bytes)


# -- aggregation ---------------------------------------------------------------------
def _union_ns(intervals: list[tuple[int, int]]) -> int:
    """Total length covered by possibly overlapping intervals."""
    total = 0
    cover_start = cover_end = None
    for start, end in sorted(intervals):
        if cover_end is None or start > cover_end:
            if cover_end is not None:
                total += cover_end - cover_start
            cover_start, cover_end = start, end
        else:
            cover_end = max(cover_end, end)
    if cover_end is not None:
        total += cover_end - cover_start
    return total


class LayerStats:
    """Per-``(process kind, span name)`` totals over a set of time windows."""

    def __init__(self, records: list[dict], windows: list[tuple[int, int]]):
        inside = [
            r for r in records
            if any(
                r["start_ns"] >= start and r["end_ns"] <= end
                for start, end in windows
            )
        ]
        by_key = {(r["process"], r["span"]): r for r in inside}
        children: dict[tuple, list[tuple[int, int]]] = {}
        for record in inside:
            parent = by_key.get((record["process"], record["parent"]))
            if parent is not None:
                children.setdefault(
                    (parent["process"], parent["span"]), []
                ).append((record["start_ns"], record["end_ns"]))
        #: ``(kind, name) -> [count, busy_ns, self_ns, work]``
        self.table: dict[tuple[str, str], list] = {}
        #: ``(kind, child name, parent name) -> busy_ns``
        self.under: dict[tuple[str, str, str], int] = {}
        for record in inside:
            kind = record["process"].rstrip("0123456789")
            busy = record["end_ns"] - record["start_ns"]
            covered = _union_ns(
                [
                    (max(s, record["start_ns"]), min(e, record["end_ns"]))
                    for s, e in children.get(
                        (record["process"], record["span"]), []
                    )
                ]
            )
            row = self.table.setdefault(
                (kind, record["name"]), [0, 0, 0, 0]
            )
            row[0] += 1
            row[1] += busy
            row[2] += busy - covered
            row[3] += record["work"]
            parent = by_key.get((record["process"], record["parent"]))
            if parent is not None:
                key = (kind, record["name"], parent["name"])
                self.under[key] = self.under.get(key, 0) + busy

    def count(self, name: str, kind: str | None = None) -> int:
        return sum(
            row[0] for (k, n), row in self.table.items()
            if n == name and (kind is None or k == kind)
        )

    def busy_s(self, name: str, kind: str | None = None) -> float:
        return sum(
            row[1] for (k, n), row in self.table.items()
            if n == name and (kind is None or k == kind)
        ) / 1e9

    def work(self, name: str, kind: str | None = None) -> int:
        return sum(
            row[3] for (k, n), row in self.table.items()
            if n == name and (kind is None or k == kind)
        )

    def busy_under_s(self, name: str, parent: str) -> float:
        return sum(
            busy for (_k, n, p), busy in self.under.items()
            if n == name and p == parent
        ) / 1e9

    def format_table(self) -> str:
        lines = [
            f"{'process':<9} {'span':<26} {'count':>9} {'busy_s':>10} "
            f"{'self_s':>10} {'work':>14}"
        ]
        for (kind, name), (count, busy, own, work) in sorted(
            self.table.items(), key=lambda item: -item[1][2]
        ):
            lines.append(
                f"{kind:<9} {name:<26} {count:>9} {busy / 1e9:>10.4f} "
                f"{own / 1e9:>10.4f} {work:>14}"
            )
        return "\n".join(lines)
