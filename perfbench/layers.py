"""Per-layer metrics of a traced run.

Span times come from the benchmark's wrappers (:mod:`tracer`); counts come
from the program's public ``stats()``, the searchers' STATS RPC and the
metrics-registry snapshots, diffed around the measured phase.  Build
metrics are per build, deploy metrics per deploy, query metrics per query
row that reached the searchers (cache misses), serving and wire times per
call, and the ``*_per_request`` figures per client request (cache hits
included).  A layer that a workload does not use reads 0.
"""

from __future__ import annotations

from tracer import LayerStats


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer(records: list[dict], traced, untraced) -> tuple[dict, str]:
    """``(metrics, printable table)`` for one traced run."""
    build = LayerStats(records, traced.build_windows)
    deploy = LayerStats(records, [traced.deploy_window])
    query = LayerStats(records, traced.query_windows)
    builds = len(traced.build_windows)
    rows = traced.rows_searched
    c = traced.counters

    def per_build(name: str) -> float:
        return _ratio(build.busy_s(name), builds)

    def per_row_us(name: str, kind: str | None = None) -> float:
        return _ratio(query.busy_s(name, kind) * 1e6, rows)

    def mean_ms(stats: LayerStats, name: str, kind: str) -> float:
        return _ratio(stats.busy_s(name, kind) * 1e3, stats.count(name, kind))

    def mean_us(name: str, kind: str) -> float:
        return _ratio(query.busy_s(name, kind) * 1e6, query.count(name, kind))

    rpc_ms = mean_ms(query, "net.rpc", "bench")
    server_ms = mean_ms(query, "online.searcher.search", "searcher")
    beam_s = query.busy_s("hnsw.beam.query")
    lookups = c.get("cache_hits", 0) + c.get("cache_misses", 0)
    metrics = {
        "segmenters.fit_s": per_build("segmenters.fit"),
        "segmenters.route_us": per_row_us("segmenters.route"),
        "core.partition_s": per_build("core.partition"),
        "hnsw.add_s": per_build("hnsw.add"),
        "hnsw.build_beam_s": per_build("hnsw.beam.build"),
        "hnsw.heuristic_s": per_build("hnsw.heuristic"),
        "hnsw.search_us": per_row_us("hnsw.search"),
        "hnsw.query_beam_us": per_row_us("hnsw.beam.query"),
        "hnsw.bookkeeping_share": (
            1.0 - _ratio(
                query.busy_under_s("distance.score.query", "hnsw.beam.query"),
                beam_s,
            )
            if beam_s
            else 0.0
        ),
        "hnsw.hops_per_query": _ratio(c["hops"], rows),
        "hnsw.distance_comps_per_query": _ratio(c["distance_comps"], rows),
        "hnsw.candidates_visited_per_query": _ratio(
            c["candidates_visited"], rows
        ),
        "distance.score_build_s": per_build("distance.score.build"),
        "distance.pairs_build": _ratio(
            build.work("distance.score.build"), builds
        ),
        "distance.score_query_us": per_row_us("distance.score.query"),
        "distance.pairs_query": _ratio(query.work("distance.score.query"), rows),
        "storage.serialize_s": per_build("storage.serialize"),
        "storage.write_s": per_build("storage.write"),
        "storage.bytes_written": _ratio(build.work("storage.write"), builds),
        "storage.deploy_s": _ratio(
            deploy.busy_s("storage.deploy"), traced.deploys
        ),
        "core.shard_search_us": per_row_us("core.shard_search"),
        "core.segments_probed_per_query": _ratio(c["segments_probed"], rows),
        "core.merge_us": per_row_us("core.merge"),
        "online.cache.lookups": lookups,
        "online.cache.hit_ratio": _ratio(c.get("cache_hits", 0), lookups),
        "online.microbatch.rows_per_batch": _ratio(
            c["mb_rows"], c["mb_batches"]
        ),
        "online.microbatch.queue_wait_ms": _ratio(
            c["queue_wait_ms"], c["queue_wait_n"]
        ),
        "online.microbatch.timeout_flush_ratio": _ratio(
            c["mb_timeouts"], c["mb_batches"]
        ),
        "online.broker.execute_ms": mean_ms(
            query, "online.broker.execute", "bench"
        ),
        "online.broker.fanout_ms": _ratio(c["fanout_ms"], c["fanout_n"]),
        "online.broker.failovers": c["failovers"],
        "online.broker.hedges": c["hedges"],
        "net.rpc_ms": rpc_ms,
        "net.encode_us": mean_us("net.encode", "bench"),
        "net.decode_us": mean_us("net.decode", "bench"),
        "net.bytes_per_request": _ratio(
            query.work("net.encode", "bench") + query.work("net.decode", "bench"),
            traced.requests,
        ),
        "net.server.search_ms": server_ms,
        "net.wire_overhead_ms": rpc_ms - server_ms if rpc_ms else 0.0,
        "net.server.microbatch_rows": c.get("server_mb_rows", 0),
        "net.server.shed": c.get("shed", 0),
        "net.server.expired": c.get("expired", 0),
        "net.server.cpu_ms_per_request": _ratio(
            c.get("searcher_cpu_s", 0.0) * 1e3, traced.requests
        ),
        "trace.qps_overhead_share": 1.0 - _ratio(
            traced.metrics["qps"], untraced.metrics["qps"]
        ),
        "trace.build_overhead_share": _ratio(
            traced.metrics["build_s"], untraced.metrics["build_s"]
        ) - 1.0,
        "host.steal_share": traced.facts["steal_share"],
    }
    table = "\n\n".join(
        [
            f"== builds ({builds}) ==\n{build.format_table()}",
            f"== deploys ({traced.deploys}) ==\n{deploy.format_table()}",
            f"== query phase ({rows} rows searched) ==\n"
            f"{query.format_table()}",
        ]
    )
    return metrics, table
