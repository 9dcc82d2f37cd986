"""The traced run: per-layer metrics, the depth ladder and stitched spans.

No end-to-end number comes from here.  Each per-layer metric is pinned
to the workload that loads its layer (``net.*`` to point-lookups and
cold-churn, ``query.*`` to range-heavy, ...), so a traced run always
covers all three workloads, whatever ``--workload`` names.

Every layer is timed from outside, through its public functions:

* the *depth ladder* replays one fixed request sample per workload at
  four depths -- ``index`` (in-process ``SpectralIndex`` /
  ``OrderingService``), ``sharded`` (``ShardedIndexFrontend``), ``pool``
  (``ProcessPoolFrontend``, worker processes over pipes) and ``remote``
  (``RemoteFrontend`` to the server process).  All depths see the same
  domains and requests.  The sample is cut into 16 chunks; each chunk
  goes to every depth in turn, in an order that rotates and reverses
  from chunk to chunk so that every depth runs before every other
  equally often, over several rounds: host drift, and caches warmed by
  the depth before, hit every depth alike; a depth reports the
  median of its per-round means, and a delta between depths the median
  of its per-round differences.  A delta below the rounds' spread can
  come out negative: that is noise, not a layer that costs less than
  nothing (the run lists such deltas);
* layer probes call ``SpectralIndex.range``/``nn``/``join``,
  ``BPlusTree``, ``ArtifactStore``, ``SpectralLPM``, ``fiedler_vector``
  and friends directly on the workload's own inputs;
* counters come from ``combined_stats()`` and the server's metrics
  scrape.

The sample is then replayed once more per depth with
``repro.obs.tracing()`` on.  Its spans -- the benchmark's own
``bench.request`` root plus every span the program already emits, across
the socket and the IPC pipes -- are written as JSONL with
``repro.obs.export_jsonl``, with ``phase_totals`` and a self-time table
per span name beside them.
"""

from __future__ import annotations

import json
import pickle
import statistics
import time
from pathlib import Path
from typing import Callable, Dict, List, Sequence, Tuple


from repro.api import (NNQuery, OrderingService, ProcessPoolFrontend,
                       RangeQuery, SpectralConfig, SpectralIndex)
from repro.core import SpectralLPM
from repro.core.fiedler import fiedler_vector
from repro.geometry import Box
from repro.index import BPlusTree
from repro.linalg import solver_invocations
from repro.obs import SpanRecord, export_jsonl, phase_totals, span, tracing
from repro.serve import shard_store_dirs
from repro.serve.protocol import (IndexQueryMessage, OkResponse,
                                  OrderManyMessage, OrderRequestMessage)
from repro.service import (ArtifactStore, OrderArtifact, ShardedIndexFrontend,
                           domain_fingerprint, order_key)

from perfbench.loadgen import Recorder, open_loop, poisson_arrivals, summarize
from perfbench.workloads import (SHARDS, WORKLOADS, LocalFrontend, Request,
                                 Workload, rng_for)

DEPTHS = ("index", "sharded", "pool", "remote")
#: Chunks per ladder round.  A chunk is a run of requests that one depth
#: answers back to back: small requests after a switch of depth find the
#: CPU caches cold, so a chunk holds several of them.
SLOTS = 16
#: Interleaved ladder rounds per workload (full, smoke).
ROUNDS = {"range-heavy": (5, 2), "point-lookups": (7, 2), "cold-churn": (3, 2)}

#: Every per-layer metric with its unit (``BENCHMARK.json`` lists these).
LAYER_UNITS: Dict[str, str] = {
    **{f"ladder.range-heavy.{d}_ms": "ms" for d in DEPTHS},
    **{f"ladder.point-lookups.{d}_us": "us" for d in DEPTHS},
    **{f"ladder.cold-churn.{d}_ms": "ms" for d in DEPTHS},
    "net.overhead_us": "us",
    "net.request_bytes": "B",
    "net.response_bytes": "B",
    "net.server_busy_s": "s",
    "net.queue_wait_ms": "ms",
    "net.coalesced": "count",
    "net.rejected": "count",
    "serve.dispatch_overhead_us": "us",
    "service.hit_us": "us",
    "service.fingerprint_us": "us",
    "service.memory_hits": "count",
    "service.disk_hits": "count",
    "service.computed": "count",
    "service.coalesced": "count",
    "service.solver_calls": "count",
    "service.topology_builds": "count",
    "service.hit_ratio": "ratio",
    "service.computed_ms_p50": "ms",
    "service.disk_ms_p50": "ms",
    "service.memory_ms_p50": "ms",
    "service.disk_load_ms": "ms",
    "service.store_save_ms": "ms",
    "service.store_bytes": "B",
    "api.query_many_ms": "ms",
    "api.sharded_overhead_us": "us",
    "api.store_build_ms": "ms",
    "query.range_us.side8": "us",
    "query.range_us.side16": "us",
    "query.range_us.side32": "us",
    "query.nn_us": "us",
    "query.join_ms": "ms",
    "query.node_accesses": "count",
    "query.pages": "count",
    "query.scan_efficiency": "ratio",
    "index.bulk_load_ms": "ms",
    "index.range_search_us": "us",
    "core.order_ms": "ms",
    "graph.build_ms": "ms",
    "linalg.fiedler_ms": "ms",
    "linalg.solves_per_order": "count",
    "obs.tracing_overhead": "ratio",
    "load.late_ms_p99": "ms",
}


def _median_us(fn: Callable[[], object], reps: int) -> float:
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1e6


def _metric_sum(text: str, family: str) -> float:
    """Sum of every sample of one family in a Prometheus text dump."""
    total = 0.0
    for line in text.splitlines():
        name = line.split("{", 1)[0].split(" ", 1)[0]
        if name == family:
            total += float(line.rsplit(" ", 1)[1])
    return total


def wire_bytes(request: Request, response) -> Tuple[int, int]:
    """Frame-body sizes of one request and its answer, pickled the way
    ``repro.net.framing`` pickles them (``(seq, message)``)."""
    if request.kind == "grid_artifact":
        message = OrderRequestMessage(domain=request.domain,
                                      config=request.args[0],
                                      want_artifact=True)
    elif request.kind == "order_many":
        message = OrderManyMessage(
            requests=tuple((request.domain, c) for c in request.args))
    else:
        args = ((list(request.args),) if request.kind == "query_many"
                else request.args)
        message = IndexQueryMessage(domain=request.domain, op=request.kind,
                                    args=tuple(args), kwargs={})
    dumps = pickle.dumps
    return (len(dumps((1, message), protocol=pickle.HIGHEST_PROTOCOL)),
            len(dumps((1, OkResponse(response)),
                      protocol=pickle.HIGHEST_PROTOCOL)))


class Ladder:
    """The four depths of one workload, and the spans they produced."""

    def __init__(self, workload: Workload, fronts: Dict[str, object]) -> None:
        self.workload = workload
        self.fronts = fronts
        self.spans: List[SpanRecord] = []
        self.failures = 0
        self.attempted = 0
        self.round_means: Dict[str, List[float]] = {d: [] for d in DEPTHS}
        self.total_s = {d: 0.0 for d in DEPTHS}
        self.requests = {d: 0 for d in DEPTHS}

    def send(self, depth: str, request: Request) -> float:
        """Untraced seconds for one request at ``depth`` (answer checked)."""
        start = time.perf_counter()
        response = request.send(self.fronts[depth])
        elapsed = time.perf_counter() - start
        self.attempted += 1
        if not self.workload.check(request, response):
            self.failures += 1
        return elapsed

    def time_pass(self, depth: str, sample: Sequence[Request]) -> List[float]:
        """Untraced per-request seconds of ``sample`` at one depth."""
        return [self.send(depth, request) for request in sample]

    def traced_pass(self, depth: str, sample: Sequence[Request]) -> float:
        """Replay with tracing on; keeps the spans, returns the seconds."""
        front = self.fronts[depth]
        with tracing() as collector:
            collector.clear()
            start = time.perf_counter()
            for request in sample:
                with span("bench.request", workload=self.workload.name,
                          depth=depth, kind=request.kind):
                    request.send(front)
            elapsed = time.perf_counter() - start
            self.spans.extend(collector.drain())
        return elapsed

    def warm_up(self, sample: Sequence[Request]) -> None:
        """One untimed pass per depth: lazy per-depth set-up."""
        for depth in DEPTHS:
            self.time_pass(depth, sample)

    def run(self, samples: Callable[[int], Sequence[Request]],
            rounds: int) -> None:
        """Round ``r`` replays ``samples(r)`` in ``SLOTS`` chunks: each
        chunk goes to every depth in turn.  The depth order rotates from
        chunk to chunk and reverses every ``len(DEPTHS)`` chunks, so
        every depth runs before every other equally often: host drift,
        and caches warmed by the depth before, land on all depths alike.
        Records each depth's mean seconds per request in each round."""
        slot = 0
        for r in range(rounds):
            sample = list(samples(r))
            step = max(1, len(sample) // SLOTS)
            times: Dict[str, List[float]] = {d: [] for d in DEPTHS}
            for j in range(0, len(sample), step):
                turn = slot % len(DEPTHS)
                order = DEPTHS[turn:] + DEPTHS[:turn]
                if slot // len(DEPTHS) % 2:
                    order = order[::-1]
                for depth in order:
                    times[depth].extend(
                        self.time_pass(depth, sample[j:j + step]))
                slot += 1
            for depth, ts in times.items():
                self.round_means[depth].append(statistics.fmean(ts))
                self.total_s[depth] += sum(ts)
                self.requests[depth] += len(ts)

    def median(self, depth: str) -> float:
        """Seconds per request at ``depth``: median of the round means."""
        return statistics.median(self.round_means[depth])

    def delta(self, upper: str, lower: str) -> float:
        """Seconds per request that ``upper`` adds over ``lower``: median
        of the per-round differences."""
        return statistics.median(
            a - b for a, b in zip(self.round_means[upper],
                                  self.round_means[lower]))

    def negative_deltas(self) -> Dict[str, float]:
        """Adjacent-depth deltas (seconds) below zero: noise."""
        pairs = zip(DEPTHS[1:], DEPTHS[:-1])
        deltas = {f"{u}-{lo}": self.delta(u, lo) for u, lo in pairs}
        return {k: v for k, v in deltas.items() if v < 0}

    def traced(self, sample: Sequence[Request]) -> None:
        """The traced replay, once per depth."""
        for depth in DEPTHS:
            self.traced_pass(depth, sample)


def _fronts(workload: Workload, server, index: LocalFrontend,
            sharded_dir: Path, pool_dir: Path) -> Dict[str, object]:
    """The four depths; the caller closes ``fronts["pool"]``."""
    stores = [ArtifactStore(d) for d in
              shard_store_dirs(sharded_dir, SHARDS).values()]
    return {
        "index": index,
        "sharded": ShardedIndexFrontend(
            SHARDS, stores=stores, memory_entries=workload.memory_entries),
        "pool": ProcessPoolFrontend(SHARDS, cache_dir=str(pool_dir),
                                    memory_entries=workload.memory_entries),
        "remote": server.clients[0],
    }


# ----------------------------------------------------------------------
# Per-workload probes
# ----------------------------------------------------------------------
def probe_range_heavy(w, server, tmp: Path) -> Tuple[Dict[str, float], Ladder]:
    # The in-process depths warm from the server's stores: no re-solve.
    fronts = _fronts(w, server, w.reference, server.cache_dir,
                     server.cache_dir)
    try:
        w.warm([fronts["sharded"]] * 2)
        w.warm([fronts["pool"]] * 2)
        ladder = Ladder(w, fronts)
        sample = w.ladder_sample()
        ladder.warm_up(sample)
        ladder.run(lambda r: sample, ROUNDS[w.name][w.smoke])
        ladder.traced(sample)
    finally:
        fronts["pool"].close()
    m: Dict[str, float] = {
        f"ladder.range-heavy.{d}_ms": ladder.median(d) * 1e3
        for d in DEPTHS}
    m["api.query_many_ms"] = ladder.median("index") * 1e3
    m["api.sharded_overhead_us"] = ladder.delta("sharded", "index") * 1e6

    by_side: Dict[int, List[float]] = {}
    nn_us, join_ms = [], []
    node_accesses = pages = results = span_cells = 0
    lookups: List[Tuple[BPlusTree, int, int]] = []
    trees: Dict[Tuple[int, ...], BPlusTree] = {}
    bulk_ms = []
    for request in sample:
        index = w.reference.index(request.domain)
        ranks = index.ranks
        if request.domain.shape not in trees:
            keys = list(range(request.domain.size))
            values = [int(c) for c in index.order.permutation]
            start = time.perf_counter()
            trees[request.domain.shape] = BPlusTree.bulk_load(keys, values,
                                                              order=32)
            bulk_ms.append((time.perf_counter() - start) * 1e3)
        for q in request.args:
            start = time.perf_counter()
            if isinstance(q, RangeQuery):
                execution = index.range(q.box)
                elapsed = time.perf_counter() - start
                box = Box(*q.box)
                side = box.hi[0] - box.lo[0] + 1
                by_side.setdefault(side, []).append(elapsed * 1e6)
                node_accesses += execution.index_node_accesses
                pages += execution.pages_fetched
                cell_ranks = ranks[box.cell_indices(request.domain)]
                lo, hi = int(cell_ranks.min()), int(cell_ranks.max())
                results += len(execution.results)
                span_cells += hi - lo + 1
                lookups.append((trees[request.domain.shape], lo, hi))
            elif isinstance(q, NNQuery):
                index.nn(q.cell, q.k)
                nn_us.append((time.perf_counter() - start) * 1e6)
            else:
                index.join(q.cells_a, q.cells_b, epsilon=q.epsilon,
                           window=q.window)
                join_ms.append((time.perf_counter() - start) * 1e3)
    sides = sorted(by_side)
    for name, side in zip(("side8", "side16", "side32"), sides):
        m[f"query.range_us.{name}"] = statistics.median(by_side[side])
    m["query.nn_us"] = statistics.median(nn_us)
    m["query.join_ms"] = statistics.median(join_ms)
    m["query.node_accesses"] = node_accesses
    m["query.pages"] = pages
    m["query.scan_efficiency"] = results / span_cells
    m["index.bulk_load_ms"] = statistics.median(bulk_ms)
    search_us = []
    for tree, lo, hi in lookups:
        start = time.perf_counter()
        tree.range_search(lo, hi)
        search_us.append((time.perf_counter() - start) * 1e6)
    m["index.range_search_us"] = statistics.median(search_us)

    # Store build: first range on a fresh index (order already cached in
    # the service) minus the same range once the store exists.
    grid, box = sample[0].domain, sample[0].args[0].box
    build_ms = []
    for _ in range(3):
        fresh = SpectralIndex.build(grid, service=w.reference.service)
        start = time.perf_counter()
        fresh.range(box)
        first = time.perf_counter() - start
        warm = _median_us(lambda: fresh.range(box), 5) / 1e6
        build_ms.append((first - warm) * 1e3)
    m["api.store_build_ms"] = statistics.median(build_ms)

    # Tracing overhead at the remote depth, interleaved to cancel drift.
    untraced_s = traced_s = 0.0
    for _ in range(2):
        untraced_s += sum(ladder.time_pass("remote", sample))
        traced_s += ladder.traced_pass("remote", sample)
    m["obs.tracing_overhead"] = untraced_s / traced_s - 1.0
    return m, ladder


def probe_point_lookups(w, server, tmp: Path
                        ) -> Tuple[Dict[str, float], Ladder]:
    fronts = _fronts(w, server, w.reference, server.cache_dir,
                     server.cache_dir)
    remote = fronts["remote"]
    try:
        w.warm([fronts["sharded"]] * 2)
        w.warm([fronts["pool"]] * 2)
        ladder = Ladder(w, fronts)
        sample = w.ladder_sample()
        ladder.warm_up(sample)
        # Only the remote depth reaches the server: the scrape delta is
        # the server time of the remote passes.
        busy_before = _metric_sum(remote.metrics(),
                                  "repro_net_request_seconds_sum")
        ladder.run(lambda r: sample, ROUNDS[w.name][w.smoke])
        busy = _metric_sum(remote.metrics(),
                           "repro_net_request_seconds_sum") - busy_before
        ladder.traced(sample)
    finally:
        fronts["pool"].close()
    m: Dict[str, float] = {
        f"ladder.point-lookups.{d}_us": ladder.median(d) * 1e6
        for d in DEPTHS}
    m["net.overhead_us"] = ladder.delta("remote", "pool") * 1e6
    m["serve.dispatch_overhead_us"] = ladder.delta("pool", "sharded") * 1e6
    m["net.server_busy_s"] = busy
    m["net.queue_wait_ms"] = ((ladder.total_s["remote"] - busy)
                              / ladder.requests["remote"] * 1e3)
    sizes = [wire_bytes(r, r.send(w.reference)) for r in sample]
    m["net.request_bytes"] = statistics.fmean(s[0] for s in sizes)
    m["net.response_bytes"] = statistics.fmean(s[1] for s in sizes)

    service = w.reference.service
    grids = list({r.domain.shape: r.domain for r in sample}.values())
    m["service.hit_us"] = statistics.median(
        _median_us(lambda g=g: service.order_grid(g), 50) for g in grids)
    config = SpectralConfig()
    m["service.fingerprint_us"] = statistics.median(
        _median_us(lambda g=g: order_key(config, domain_fingerprint(g)), 50)
        for g in grids)

    # Generator validity: a short untraced open-loop segment.
    recorder = Recorder()
    arrivals = poisson_arrivals(rng_for(w.seed, 6), w.rate,
                                1.0 if w.smoke else 2.0)
    open_loop(server.clients, arrivals, w.pool, w.check, recorder)
    ladder.attempted += recorder.attempted
    ladder.failures += recorder.failed
    m["load.late_ms_p99"] = summarize(
        [o.late_s for o in recorder.outcomes])["tail_ms"]
    return m, ladder


def probe_cold_churn(w, server, tmp: Path) -> Tuple[Dict[str, float], Ladder]:
    cold = tmp / "cold-depths"
    index = LocalFrontend(OrderingService(
        memory_entries=w.memory_entries,
        store=ArtifactStore(cold / "index")))
    fronts = _fronts(w, server, index, cold / "sharded", cold / "pool")
    try:
        w.warm([fronts["pool"]] * 2)
        ladder = Ladder(w, fronts)
        # Each depth has its own fresh stores and each round its own
        # keys, so every depth replays a round's keys cold and then
        # warm; the traced replay uses spare keys.
        rounds = ROUNDS[w.name][w.smoke]
        ladder.run(w.ladder_sample, rounds)
        ladder.traced(w.ladder_sample(rounds))
    finally:
        fronts["pool"].close()
    # The remote depth saw the sample too: count the drive from here.
    w.reset_accounting()
    remote = server.clients[0]
    scrape_before = remote.metrics()
    before = remote.combined_stats()
    recorder = Recorder()
    w.drive(server.clients, 0.0, recorder, max_epochs=1 if w.smoke else 2)
    after = remote.combined_stats()
    scrape_after = remote.metrics()
    failures = w.verify(server, before)
    ladder.attempted += recorder.attempted + len(failures)
    ladder.failures += recorder.failed + len(failures)

    m: Dict[str, float] = {
        f"ladder.cold-churn.{d}_ms": ladder.median(d) * 1e3
        for d in DEPTHS}
    for field in ("memory_hits", "disk_hits", "computed", "coalesced",
                  "solver_calls", "topology_builds"):
        m[f"service.{field}"] = getattr(after, field) - getattr(before, field)
    served = sum(m[f"service.{f}"] for f in
                 ("memory_hits", "disk_hits", "computed", "coalesced"))
    m["service.hit_ratio"] = (served - m["service.computed"]) / served
    for family, name in (("repro_net_coalesced_total", "net.coalesced"),
                         ("repro_net_rejected_total", "net.rejected")):
        m[name] = (_metric_sum(scrape_after, family)
                   - _metric_sum(scrape_before, family))
    by_source: Dict[str, List[float]] = {}
    for o in recorder.outcomes:
        if o.source is not None:
            by_source.setdefault(o.source, []).append(o.latency_s * 1e3)
    for source in ("computed", "disk", "memory"):  # 0.0: tier never answered
        values = by_source.get(source)
        m[f"service.{source}_ms_p50"] = (statistics.median(values)
                                         if values else 0.0)

    # The store layer on this workload's own artifacts.
    artifacts: List[OrderArtifact] = []
    for request in w.epoch(0):
        if request.kind == "grid_artifact" and len(artifacts) < 8:
            if all(a.key != request.keys()[0] for a in artifacts):
                artifacts.append(request.send(remote))
    store = ArtifactStore(tmp / "store-probe")
    save_ms, load_ms = [], []
    for artifact in artifacts:
        start = time.perf_counter()
        store.save(artifact)
        save_ms.append((time.perf_counter() - start) * 1e3)
    for artifact in artifacts:
        start = time.perf_counter()
        store.load(artifact.key)
        load_ms.append((time.perf_counter() - start) * 1e3)
    m["service.store_save_ms"] = statistics.median(save_ms)
    m["service.disk_load_ms"] = statistics.median(load_ms)
    m["service.store_bytes"] = store.total_bytes()

    # The solve path below the service, on three of the epoch's grids.
    grids = sorted({r.domain.shape: r.domain for r in w.epoch(0)
                    if r.kind == "grid_artifact"}.values(),
                   key=lambda g: g.size)
    picks = [grids[0], grids[len(grids) // 2], grids[-1]]
    order_ms, build_ms, fiedler_ms, solves = [], [], [], []
    for grid in picks:
        lpm = SpectralLPM()
        before_calls = solver_invocations()
        start = time.perf_counter()
        lpm.order_grid(grid)
        order_ms.append((time.perf_counter() - start) * 1e3)
        solves.append(solver_invocations() - before_calls)
        start = time.perf_counter()
        graph = lpm.build_grid_graph(grid)
        build_ms.append((time.perf_counter() - start) * 1e3)
        start = time.perf_counter()
        fiedler_vector(graph)
        fiedler_ms.append((time.perf_counter() - start) * 1e3)
    m["core.order_ms"] = statistics.median(order_ms)
    m["graph.build_ms"] = statistics.median(build_ms)
    m["linalg.fiedler_ms"] = statistics.median(fiedler_ms)
    m["linalg.solves_per_order"] = statistics.fmean(solves)
    return m, ladder


# ----------------------------------------------------------------------
# Span tables
# ----------------------------------------------------------------------
def self_times(records: Sequence[SpanRecord]) -> Dict[str, Dict[str, float]]:
    """Per span name: count, total ms, and self ms (duration minus the
    part of its interval that its child spans cover)."""
    children: Dict[str, List[SpanRecord]] = {}
    for r in records:
        if r.parent_id:
            children.setdefault(r.parent_id, []).append(r)
    table: Dict[str, Dict[str, float]] = {}
    for r in records:
        start, end = r.start_time, r.start_time + r.duration
        covered = 0.0
        cursor = start
        for c in sorted(children.get(r.span_id, ()),
                        key=lambda c: c.start_time):
            lo = max(cursor, c.start_time)
            hi = min(end, c.start_time + c.duration)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        row = table.setdefault(r.name, {"count": 0, "total_ms": 0.0,
                                        "self_ms": 0.0})
        row["count"] += 1
        row["total_ms"] += r.duration * 1e3
        row["self_ms"] += max(0.0, r.duration - covered) * 1e3
    return table


def write_spans(records: List[SpanRecord], out_dir: Path) -> Dict[str, dict]:
    export_jsonl(records, out_dir / "spans.jsonl")
    table = self_times(records)
    (out_dir / "selftime.json").write_text(json.dumps(table, indent=1,
                                                      sort_keys=True))
    (out_dir / "phase_totals.json").write_text(json.dumps(
        phase_totals(records), indent=1, sort_keys=True))
    return table


def traced_run(seed: int, smoke: bool, tmp: Path, out_dir: Path) -> dict:
    from perfbench.run import set_up

    metrics: Dict[str, float] = {}
    spans: List[SpanRecord] = []
    attempted = failed = 0
    negative: Dict[str, float] = {}
    servers: List = []
    try:
        for name, probe in (("point-lookups", probe_point_lookups),
                            ("cold-churn", probe_cold_churn),
                            ("range-heavy", probe_range_heavy)):
            w = WORKLOADS[name](seed, smoke)
            w.prepare()
            # The previous server's drain stall overlaps this prepare();
            # its fleet's exit must not overlap this workload's timings.
            if servers:
                servers[-1].join()
            server, _ = set_up(w, tmp / name / "server")
            servers.append(server)
            m, ladder = probe(w, server, tmp / name)
            server.stop_async()
            metrics.update(m)
            spans.extend(ladder.spans)
            negative.update({f"ladder.{name}.{k}_us": v * 1e6
                             for k, v in ladder.negative_deltas().items()})
            attempted += ladder.attempted
            failed += ladder.failures
        servers[-1].join()
    except BaseException:
        for server in servers:
            server.kill()
        raise
    missing = sorted(set(LAYER_UNITS) - set(metrics))
    if missing:
        raise RuntimeError(f"traced run did not produce {missing}")
    table = write_spans(spans, out_dir)
    print(f"== traced run (seed {seed}): {len(spans)} spans -> "
          f"{out_dir / 'spans.jsonl'}")
    print(f"  {'span':32s} {'count':>7s} {'total_ms':>10s} {'self_ms':>10s}")
    for name, row in sorted(table.items(), key=lambda kv: -kv[1]["self_ms"]):
        print(f"  {name:32s} {row['count']:7d} {row['total_ms']:10.2f} "
              f"{row['self_ms']:10.2f}")
    for name in LAYER_UNITS:
        print(f"  {name:34s} {metrics[name]:14.4f} {LAYER_UNITS[name]}")
    for name, value in negative.items():
        print(f"  note: {name} = {value:.1f} us is below zero, i.e. "
              "within the ladder's round-to-round noise")
    return {"workload": "layers", "metrics": {k: metrics[k]
                                              for k in LAYER_UNITS},
            "units": LAYER_UNITS, "attempted": max(1, attempted),
            "failed": failed, "detail": {"ladder_negative_deltas_us":
                                         negative}}
