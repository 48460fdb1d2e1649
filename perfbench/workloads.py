"""The benchmark's two workloads, driven through the program's public entry points.

``build-batch``: ``build_index_job`` on an inline ``LocalCluster``, then an
in-process ``OnlineService`` answering 64-row requests at ``top_k=10``.

``serve-remote``: two ``serve-searcher`` processes (one per shard, admission
and server micro-batching on) behind an async-fan-out ``OnlineService``
with broker micro-batching and the result cache; two closed-loop client
threads send single-query requests at ``top_k=100``.

Each ``measure_*`` function runs one workload once and returns a
:class:`Measured`: the end-to-end metrics, the operation counts, and the
windows and counter deltas the traced run turns into per-layer metrics.
"""

from __future__ import annotations

import itertools
import shutil
import statistics
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks
import host
import inputs
import tracer

#: Set-ups per run; ``setup_s`` is their median.
SETUPS = {"build-batch": 5, "serve-remote": 3}
BATCH_ROWS = 64
BATCH_QUERIES = 2048
BATCH_TOP_K = 10
BATCH_EF = 64
REMOTE_TOP_K = 100
REMOTE_EF = 128
CLIENTS = 2
WINDOW_S = 1.0
PARITY_SAMPLE = 64
SEARCHER_ARGS = ["--max-in-flight", "4", "--queue-cap", "16", "--batch-max", "8"]
BROKER_KNOBS = {"async_fanout": True, "max_batch": 4, "cache_size": 4096}
COST_FIELDS = ("hops", "distance_comps", "candidates_visited", "segments_probed")


@dataclass
class Measured:
    metrics: dict
    attempted: int
    failed: int
    #: ``(start_ns, end_ns)`` around each measured build, around the
    #: deploys (with how many ran inside), and around each stretch of the
    #: measured query phase.
    build_windows: list = field(default_factory=list)
    deploy_window: tuple = (0, 0)
    deploys: int = 0
    query_windows: list = field(default_factory=list)
    requests: int = 0
    rows_searched: int = 0
    #: Counter deltas over the query phase (stats() / STATS / registry).
    counters: dict = field(default_factory=dict)
    facts: dict = field(default_factory=dict)
    span_files: list = field(default_factory=list)


def lanns_config():
    from repro.core.config import LannsConfig
    from repro.hnsw.params import HnswParams

    return LannsConfig(
        num_shards=2,
        num_segments=4,
        segmenter="rh",
        hnsw=HnswParams(M=12, ef_construction=64),
        seed=inputs.DATASET_SEED,
    )


def build(fs, corpus: np.ndarray, path: str) -> tuple[float, int]:
    """One ``build_index_job``; ``(seconds, bytes written)``."""
    import repro.offline.indexing as indexing
    from repro.sparklite.cluster import LocalCluster

    start = time.perf_counter()
    indexing.build_index_job(
        LocalCluster(2, mode="inline"), fs, corpus, lanns_config(), path
    )
    elapsed = time.perf_counter() - start
    written = sum(
        item.stat().st_size
        for item in (fs.root / path).rglob("*")
        if item.is_file()
    )
    return elapsed, written


def _counter_total(snapshot: dict, name: str) -> int:
    entry = snapshot.get(name)
    return sum(value for _key, value in entry["series"]) if entry else 0


def cost_totals(snapshot: dict) -> dict:
    return {
        name: _counter_total(snapshot, f"lanns_search_cost_{name}_total")
        for name in COST_FIELDS
    }


def broker_counters(service) -> dict:
    stats = service.stats()
    broker = stats["indices"]["default"]
    batcher = broker["microbatch"] or {}
    stages = broker["stages"]
    return {
        "cache_hits": stats["cache"]["hits"],
        "cache_misses": stats["cache"]["misses"],
        "mb_rows": batcher.get("rows_executed", 0),
        "mb_batches": batcher.get("batches_executed", 0),
        "mb_timeouts": batcher.get("flush_reasons", {}).get("timeout", 0),
        "queue_wait_n": stages.get("queue_wait", {}).get("count", 0),
        "queue_wait_ms": stages.get("queue_wait", {}).get("total_ms", 0.0),
        "fanout_n": stages.get("fanout", {}).get("count", 0),
        "fanout_ms": stages.get("fanout", {}).get("total_ms", 0.0),
        "failovers": broker["failovers"],
        "hedges": broker["hedges"],
    }


def _delta(after: dict, before: dict) -> dict:
    return {key: after[key] - before[key] for key in after}


def _percentile_ms(latencies_s: list[float], q: float) -> float:
    return float(np.quantile(np.asarray(latencies_s), q) * 1e3)


# -- build-batch ---------------------------------------------------------------------
def measure_build_batch(
    seed: int, seconds: float, work: Path, setups: int
) -> Measured:
    from repro.online.service import OnlineService
    from repro.online.types import SearchRequest
    from repro.storage.hdfs import LocalHdfs

    fs = LocalHdfs(work / "hdfs")
    input_s = []
    for _ in range(setups):
        start = time.perf_counter()
        corpus = inputs.corpus()
        queries = inputs.queries(seed, BATCH_QUERIES)
        true_ids, _ = inputs.exact_top_k(corpus, queries, BATCH_TOP_K)
        input_s.append(time.perf_counter() - start)

    # Whole builds and whole query rounds interleave until the run ends,
    # each taking the next step while it has had less of the run's time,
    # so both figures sample the host over the whole run: its speed
    # drifts by tens of percent over tens of seconds.  Queries go to the
    # first build; later builds are checked and deleted.
    deadline = time.perf_counter() + seconds
    builds, written, build_windows = [], [], []

    def timed_build(path: str) -> None:
        start_ns = time.perf_counter_ns()
        elapsed, size = build(fs, corpus, path)
        build_windows.append((start_ns, time.perf_counter_ns()))
        builds.append(elapsed)
        written.append(size)
        checks.check_written_index(fs, path, len(corpus))

    timed_build("index")
    deploy_s, service = [], None
    deploy_start = time.perf_counter_ns()
    try:
        for _ in range(setups):
            if service is not None:
                service.close()
            start = time.perf_counter()
            service = OnlineService()
            service.deploy(fs, "index")
            deploy_s.append(time.perf_counter() - start)
        deploy_window = (deploy_start, time.perf_counter_ns())

        requests = [
            SearchRequest(
                queries[row : row + BATCH_ROWS], top_k=BATCH_TOP_K,
                ef=BATCH_EF,
            )
            for row in range(0, BATCH_QUERIES, BATCH_ROWS)
        ]
        from repro.obs.metrics import get_registry

        cost_before = cost_totals(get_registry().snapshot())
        counters_before = broker_counters(service)
        steal_before = host.cpu_counters()
        latencies, answers, failed = [], [], 0
        query_windows, query_s, query_cpu_s = [], 0.0, 0.0
        while not answers or time.perf_counter() < deadline:
            if answers and sum(builds) < query_s:
                timed_build("rebuild")
                fs.delete("rebuild")
                continue
            round_start, cpu_start = time.perf_counter(), host.own_cpu_s()
            start_ns = time.perf_counter_ns()
            round_answers = []
            for request in requests:  # whole rounds of every request
                start = time.perf_counter()
                try:
                    response = service.execute(request)
                except Exception as exc:  # counted, never dropped
                    failed += 1
                    round_answers.append(exc)
                else:
                    round_answers.append((response.ids, response.dists))
                latencies.append(time.perf_counter() - start)
            query_windows.append((start_ns, time.perf_counter_ns()))
            answers.append(round_answers)
            query_cpu_s += host.own_cpu_s() - cpu_start
            query_s += time.perf_counter() - round_start
        steal = host.steal_share(steal_before, host.cpu_counters())
        counters = _delta(broker_counters(service), counters_before)
        counters.update(
            _delta(cost_totals(get_registry().snapshot()), cost_before)
        )
    finally:
        if service is not None:
            service.close()

    # Checks: every answer of every round, against the first round too.
    first = answers[0]
    for round_answers in answers:
        for position, answer in enumerate(round_answers):
            if isinstance(answer, Exception):
                continue
            rows = slice(position * BATCH_ROWS, (position + 1) * BATCH_ROWS)
            checks.check_rows(
                corpus, queries[rows], answer[0], answer[1], BATCH_TOP_K,
                f"build-batch request {position}",
            )
            if not isinstance(first[position], Exception):
                checks.check_identical(
                    first[position], answer,
                    f"build-batch request {position} across rounds",
                )
    found = np.full((BATCH_QUERIES, BATCH_TOP_K), -1, dtype=np.int64)
    for position, answer in enumerate(first):
        if not isinstance(answer, Exception):
            found[position * BATCH_ROWS : (position + 1) * BATCH_ROWS] = (
                answer[0]
            )
    recall = checks.recall(found, true_ids)
    checks.check_recall(recall, "build-batch")

    rows = len(latencies) * BATCH_ROWS
    return Measured(
        metrics={
            "setup_s": statistics.median(
                a + b for a, b in zip(input_s, deploy_s)
            ),
            "build_s": statistics.median(builds),
            "index_bytes": statistics.median(written),
            "qps": rows / query_s,
            "latency_p50_ms": _percentile_ms(latencies, 0.5),
            "recall_at_k": recall,
            "cpu_ms_per_query": query_cpu_s * 1e3 / rows,
        },
        attempted=len(builds) + len(latencies),
        failed=failed,
        build_windows=build_windows,
        deploy_window=deploy_window,
        deploys=len(deploy_s),
        query_windows=query_windows,
        requests=len(latencies),
        rows_searched=rows,
        counters=counters,
        facts={"steal_share": steal, "queries": BATCH_QUERIES,
               "builds": len(builds),
               "latency_p90_ms": _percentile_ms(latencies, 0.9),
               "top_k": BATCH_TOP_K, "ef": BATCH_EF,
               "rows_per_request": BATCH_ROWS},
    )


# -- serve-remote --------------------------------------------------------------------
class _Fleet:
    """Two searcher processes plus the broker service in front of them."""

    def __init__(self, fs, path: str, work: Path) -> None:
        from repro.net.fleet import launch_searcher
        from repro.online.service import OnlineService

        self.processes = []
        self.service = None
        self.span_files = []
        try:
            for shard in range(2):
                command = [sys.executable, str(Path(__file__).with_name(
                    "searcher.py"))]
                if tracer.active() is not None:
                    spans = work / f"spans-shard{shard}-{time.time_ns()}.jsonl"
                    self.span_files.append(spans)
                    command += ["--trace-out", str(spans)]
                command += [
                    "--shard-id", str(shard), "--host", "127.0.0.1",
                    "--port", "0", *SEARCHER_ARGS,
                ]
                self.processes.append(
                    launch_searcher(
                        shard, command=command, log_dir=work / "logs",
                        ready_timeout_s=60.0,
                    )
                )
            self.service = OnlineService(
                searchers=[p.address for p in self.processes], **BROKER_KNOBS
            )
            self.service.deploy(fs, path)
        except BaseException:
            self.close()
            raise

    def cpu_s(self) -> float:
        """CPU seconds so far of this process and both searchers."""
        return host.own_cpu_s() + sum(
            host.process_cpu_s(p.process.pid) for p in self.processes
        )

    def searcher_counters(self) -> dict:
        totals = {"server_mb_rows": 0, "shed": 0, "expired": 0}
        costs = dict.fromkeys(COST_FIELDS, 0)
        for transport in self.service.searchers:
            stats = transport.stats()
            batcher = stats.get("server_microbatch") or {}
            totals["server_mb_rows"] += batcher.get("rows_executed", 0)
            totals["shed"] += stats["admission"]["searches_shed"]
            totals["expired"] += stats["admission"]["searches_expired"]
            for name, value in cost_totals(stats["metrics"]).items():
                costs[name] += value
        totals.update(costs)
        totals["searcher_cpu_s"] = sum(
            host.process_cpu_s(p.process.pid) for p in self.processes
        )
        return totals

    def close(self) -> None:
        if self.service is not None:
            self.service.close()
        for process in self.processes:
            process.terminate(grace_s=10.0)


def measure_serve_remote(
    seed: int, seconds: float, work: Path, setups: int
) -> Measured:
    from repro.online.service import OnlineService
    from repro.online.types import SearchRequest
    from repro.storage.hdfs import LocalHdfs

    setup_s, builds, written = [], [], []
    fleet = None
    build_window = deploy_window = (0, 0)
    stop = threading.Event()
    threads: list[threading.Thread] = []
    try:
        for attempt in range(setups):
            if fleet is not None:
                fleet.close()
                fleet = None
            start = time.perf_counter()
            fs = LocalHdfs(work / f"hdfs-{attempt}")
            corpus = inputs.corpus()
            stream = inputs.RequestStream(seed)
            build_start = time.perf_counter_ns()
            elapsed, size = build(fs, corpus, "index")
            build_window = (build_start, time.perf_counter_ns())
            builds.append(elapsed)
            written.append(size)
            deploy_start = time.perf_counter_ns()
            fleet = _Fleet(fs, "index", work)
            deploy_window = (deploy_start, time.perf_counter_ns())
            setup_s.append(time.perf_counter() - start)
            if attempt + 1 < setups:
                shutil.rmtree(fs.root)
        checks.check_written_index(fs, "index", len(corpus))

        service = fleet.service
        lock = threading.Lock()
        counter = itertools.count()
        records: list = []

        def client() -> None:
            while not stop.is_set():
                with lock:
                    index = next(counter)
                    key, vector = stream.request(index)
                request = SearchRequest(
                    vector[np.newaxis, :], top_k=REMOTE_TOP_K, ef=REMOTE_EF
                )
                start = time.perf_counter()
                try:
                    response = service.execute(request)
                    answer = (response.ids[0], response.dists[0])
                except Exception as exc:  # counted, never dropped
                    answer = exc
                records.append(
                    (index, key, time.perf_counter() - start, answer)
                )

        searchers_before = fleet.searcher_counters()
        broker_before = broker_counters(service)
        steal_before = host.cpu_counters()
        # ``(time, requests done, CPU seconds of all three processes)`` at
        # every window edge.
        windows = [(time.perf_counter(), 0, fleet.cpu_s())]
        query_start = time.perf_counter_ns()
        for _ in range(CLIENTS):
            threads.append(threading.Thread(target=client))
            threads[-1].start()
        while len(windows) <= seconds / WINDOW_S:
            time.sleep(
                max(0.0, windows[0][0] + len(windows) * WINDOW_S
                    - time.perf_counter())
            )
            windows.append((time.perf_counter(), len(records), fleet.cpu_s()))
        stop.set()
        for thread in threads:
            thread.join()
        query_end = time.perf_counter_ns()
        steal = host.steal_share(steal_before, host.cpu_counters())
        counters = _delta(fleet.searcher_counters(), searchers_before)
        counters.update(_delta(broker_counters(service), broker_before))
    finally:
        # Every exit path (a failed launch, Ctrl-C, SIGTERM) stops the
        # clients before the fleet they talk to.
        stop.set()
        for thread in threads:
            thread.join()
        if fleet is not None:
            fleet.close()

    # Checks: every answer; repeats equal the answer that filled the cache;
    # a seeded sample re-answered in-process is bit-identical (wire parity).
    records.sort(key=lambda record: record[0])
    ok = [r for r in records if not isinstance(r[3], Exception)]
    failed = len(records) - len(ok)
    if not ok:
        raise checks.CheckFailed(f"serve-remote: all {failed} requests failed")
    checks.check_rows(
        corpus,
        np.stack([stream.vectors[r[1]] for r in ok]),
        np.stack([r[3][0] for r in ok]),
        np.stack([r[3][1] for r in ok]),
        REMOTE_TOP_K,
        "serve-remote",
    )
    first: dict = {}
    for _index, key, _latency, answer in ok:
        if key in first:
            checks.check_identical(
                first[key], answer, f"serve-remote repeat of query {key}"
            )
        else:
            first[key] = answer
    keys = sorted(first)
    true_ids, _ = inputs.exact_top_k(
        corpus, np.stack([stream.vectors[k] for k in keys]), REMOTE_TOP_K
    )
    recall = checks.recall(np.stack([first[k][0] for k in keys]), true_ids)
    checks.check_recall(recall, "serve-remote")
    local = OnlineService()
    try:
        local.deploy(fs, "index")
        sample = np.random.default_rng([seed, 0xFA1]).choice(
            len(ok), size=min(PARITY_SAMPLE, len(ok)), replace=False
        )
        for position in sample:
            _index, key, _latency, answer = ok[position]
            response = local.execute(
                SearchRequest(
                    stream.vectors[key][np.newaxis, :], top_k=REMOTE_TOP_K,
                    ef=REMOTE_EF,
                )
            )
            checks.check_identical(
                (response.ids[0], response.dists[0]), answer,
                f"serve-remote wire parity, query {key}",
            )
    finally:
        local.close()
    shutil.rmtree(fs.root)

    requests = len(records)
    repeats = requests - len(first)
    # Medians over one-second windows: a burst of host CPU steal slows a
    # window or two, not the figure.
    spans = [
        (t1 - t0, n1 - n0, c1 - c0)
        for (t0, n0, c0), (t1, n1, c1) in zip(windows, windows[1:])
        if n1 > n0
    ]
    return Measured(
        metrics={
            "setup_s": statistics.median(setup_s),
            "build_s": statistics.median(builds),
            "index_bytes": statistics.median(written),
            "qps": statistics.median(n / t for t, n, _c in spans),
            "latency_p50_ms": _percentile_ms([r[2] for r in records], 0.5),
            "recall_at_k": recall,
            "cpu_ms_per_query": statistics.median(
                c * 1e3 / n for _t, n, c in spans
            ),
        },
        attempted=requests,
        failed=failed,
        build_windows=[build_window],
        deploy_window=deploy_window,
        deploys=1,
        query_windows=[(query_start, query_end)],
        requests=requests,
        rows_searched=counters["cache_misses"],
        counters=counters,
        facts={
            "steal_share": steal,
            "repeat_share": repeats / requests,
            "latency_p99_ms": _percentile_ms([r[2] for r in records], 0.99),
            "requests": requests,
            "top_k": REMOTE_TOP_K,
            "ef": REMOTE_EF,
            "clients": CLIENTS,
        },
        span_files=fleet.span_files,
    )
