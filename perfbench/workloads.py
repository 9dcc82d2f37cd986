"""The three workloads: seeded inputs, warm-up, traffic and answer checks.

Every workload is built from ``(seed, smoke)`` alone; the program under
test receives only the generated requests.  Answers are checked against
an in-process reference (:class:`LocalFrontend`, the same
``OrderingService`` / ``SpectralIndex`` code without sharding, processes
or sockets) and, for range queries, against the box's own cells.

``range-heavy``
    Closed loop, 2 connections.  ``query_many`` batches of 32 queries
    over two 128x128-scale grids on different shards: the span-scan,
    B+-tree and filter path does most of the work.
``point-lookups``
    Open loop at a fixed Poisson rate, 2 connections.  Single
    ``grid_artifact`` or ``nn`` (k=8) requests over 16 warm grids with
    Zipf popularity: per-request engine work is tens of microseconds,
    so socket, pickle, pipe and routing costs dominate.
``cold-churn``
    Closed loop, 2 connections, fresh disk stores and 4 memory entries
    per shard.  Epochs of 24 new keys (16 grids plus 2 topologies x 4
    weight models via ``order_many``), each walked 3 times by both
    connections a few requests apart: solves, store writes, disk
    reloads and single-flight overlaps.
"""

from __future__ import annotations

import json
import threading
import time
import zlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.api import (JoinQuery, NNQuery, NNResult, OrderingService,
                       RangeQuery, SpectralConfig, SpectralIndex)
from repro.core.ordering import LinearOrder
from repro.geometry import Box, Grid
from repro.query import JoinReport, QueryExecution
from repro.service import (ArtifactStore, OrderArtifact, domain_fingerprint,
                           order_key, shard_of_domain)
from repro.serve import shard_store_dirs

from perfbench.loadgen import (Recorder, _run_threads, closed_loop,
                               open_loop, poisson_arrivals, send_checked)

SHARDS = 2
CONNECTIONS = 2
WEIGHTS = ("unit", "gaussian", "inverse_euclidean", "inverse_manhattan")
#: Seed tag of the cold-churn epoch the traced run replays per depth.
SPARE_EPOCH = 1 << 20


def rng_for(seed: int, *tags: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), *tags])


@dataclass(frozen=True)
class Request:
    """One client call, replayable against any depth of the stack."""

    kind: str      # "query_many" | "grid_artifact" | "nn" | "order_many"
    domain: Grid
    args: Tuple
    ops: int

    def send(self, front):
        if self.kind == "query_many":
            return front.query_many(self.domain, list(self.args))
        if self.kind == "grid_artifact":
            return front.grid_artifact(self.domain, self.args[0])
        if self.kind == "nn":
            return front.nn(self.domain, *self.args)
        return front.order_many([(self.domain, c) for c in self.args])

    def keys(self) -> List[str]:
        """Cache keys an ordering request touches."""
        configs = self.args if self.kind == "order_many" else self.args[:1]
        fingerprint = domain_fingerprint(self.domain)
        return [order_key(c, fingerprint) for c in configs]


class LocalFrontend:
    """The in-process depth: one ``OrderingService`` and one
    ``SpectralIndex`` per domain behind the frontend surface."""

    def __init__(self, service: OrderingService) -> None:
        self.service = service
        self._lock = threading.Lock()
        self._indexes: Dict[Tuple[int, ...], SpectralIndex] = {}

    def index(self, domain: Grid) -> SpectralIndex:
        with self._lock:
            index = self._indexes.get(domain.shape)
            if index is None:
                index = SpectralIndex.build(domain, service=self.service)
                self._indexes[domain.shape] = index
        return index

    def grid_artifact(self, grid: Grid, config=None) -> OrderArtifact:
        return self.service.grid_artifact(grid, config)

    def order_many(self, requests) -> List[LinearOrder]:
        return self.service.order_many(requests)

    def query_many(self, domain: Grid, queries) -> List:
        return self.index(domain).query_many(queries)

    def nn(self, domain: Grid, cell, k: int) -> NNResult:
        return self.index(domain).nn(cell, k)


def same_answer(got, want) -> bool:
    """Bit-identity of one answer with its reference."""
    if isinstance(want, list):
        return (isinstance(got, list) and len(got) == len(want)
                and all(same_answer(g, w) for g, w in zip(got, want)))
    if isinstance(want, np.ndarray):  # a range query's expected cells
        return (isinstance(got, QueryExecution)
                and np.array_equal(got.results, want))
    if isinstance(want, NNResult):
        return (isinstance(got, NNResult)
                and got.neighbors.dtype == want.neighbors.dtype
                and np.array_equal(got.neighbors, want.neighbors)
                and (got.window, got.candidates)
                == (want.window, want.candidates))
    if isinstance(want, JoinReport):
        return isinstance(got, JoinReport) and got == want
    if isinstance(want, OrderArtifact):
        return (isinstance(got, OrderArtifact) and got.key == want.key
                and same_answer(got.order, want.order))
    if isinstance(want, LinearOrder):
        return (isinstance(got, LinearOrder)
                and got.permutation.dtype == want.permutation.dtype
                and np.array_equal(got.permutation, want.permutation))
    raise TypeError(f"no comparison for {type(want).__name__}")


def expected_answer(request: Request, reference: LocalFrontend):
    """The reference answer; range queries expect the box's own cells."""
    if request.kind != "query_many":
        return request.send(reference)
    answers = request.send(reference)
    return [np.sort(Box(*q.box).cell_indices(request.domain))
            if isinstance(q, RangeQuery) else a
            for q, a in zip(request.args, answers)]


#: Short side / long side of every generated grid.  Near-square grids
#: have a small eigengap, which makes solve times erratic (a coefficient
#: of variation of ~0.9 against ~0.3 at this aspect on a 2-CPU box).
ASPECT = 0.7
#: The short side is ``ASPECT`` times the long side, +- this.  The
#: jitter sets how many fresh shapes a size range holds: at +-4, sides
#: 24-72 give ``cold-churn`` about 17 stratified epochs and 30 in all,
#: against the ~16 of a 30-second run (+-1 ran out at 12).
JITTER = 4


def stratified_shape(rng: np.random.Generator, lo: int, hi: int, slot: int,
                     slots: int, shard: int, used: set) -> Tuple[int, int]:
    """A fresh grid shape routed to ``shard`` with both sides in
    ``[lo, hi]``: its long side in stratum ``slot`` of ``slots``, its
    short side ``ASPECT`` times that (+-``JITTER``).

    Stratified sizes and fixed shards keep a workload's cost profile the
    same for every seed; the seed picks the exact shapes.
    """
    first = int(np.ceil((lo + JITTER) / ASPECT))
    span = hi - first + 1
    start = first + slot * span // slots
    stop = max(start, first + (slot + 1) * span // slots - 1)
    for attempt in range(1024):
        if attempt == 256:  # stratum exhausted: widen to the whole range
            start, stop = first, hi
        a = int(rng.integers(start, stop + 1))
        b = int(round(ASPECT * a)) + int(rng.integers(-JITTER, JITTER + 1))
        shape = (a, b) if rng.random() < 0.5 else (b, a)
        if (shape not in used
                and shard_of_domain(Grid(shape), SHARDS) == shard):
            used.add(shape)
            return shape
    raise RuntimeError(f"no fresh shape left in [{lo}, {hi}]")


class Workload:
    """Base: a seeded traffic mix, its warm-up and its answer checks."""

    name = ""
    memory_entries = 128
    open_loop = False

    def __init__(self, seed: int, smoke: bool = False) -> None:
        self.seed = int(seed)
        self.smoke = bool(smoke)
        self.reference = LocalFrontend(OrderingService(memory_entries=4096))

    def prepare(self) -> None:
        """Client-side preparation (reference answers); not timed."""

    def warm(self, clients: Sequence) -> None:
        """The warm-up the steady state needs; timed as set-up."""

    def drive(self, clients: Sequence, seconds: float,
              recorder: Recorder) -> float:
        raise NotImplementedError

    def check(self, request: Request, response) -> bool:
        raise NotImplementedError

    def verify(self, server, before) -> List[str]:
        """Checks on the server's accounting after the drive."""
        return []

    def ladder_sample(self, variant: int = 0) -> List[Request]:
        """The fixed request sample the traced run replays at every depth
        (``variant`` picks a disjoint sample where replays must be cold)."""
        raise NotImplementedError


class PooledWorkload(Workload):
    """A workload cycling through a fixed pool of requests whose expected
    answers are computed in-process before the run."""

    #: Pool requests replayed at each depth by the traced run (full, smoke).
    LADDER = (0, 0)

    def __init__(self, seed: int, smoke: bool = False) -> None:
        super().__init__(seed, smoke)
        self.pool: List[Request] = []
        self._expected: Dict[int, object] = {}

    def prepare(self) -> None:
        self._expected = {id(r): expected_answer(r, self.reference)
                          for r in self.pool}

    def check(self, request: Request, response) -> bool:
        return same_answer(response, self._expected[id(request)])

    def ladder_sample(self, variant: int = 0) -> List[Request]:
        return self.pool[: self.LADDER[self.smoke]]


class RangeHeavy(PooledWorkload):
    name = "range-heavy"
    SIDES = (8, 16, 32)
    LADDER = (16, 4)

    def __init__(self, seed: int, smoke: bool = False) -> None:
        super().__init__(seed, smoke)
        scale = 32 if smoke else 128
        self.domains = self._split_domains(scale)
        n_batches = 8 if smoke else 64
        sides = (4, 8, 16) if smoke else self.SIDES
        self.pool = [self._batch(rng_for(seed, 1, i), self.domains[i % 2],
                                 sides, smoke) for i in range(n_batches)]

    @staticmethod
    def _split_domains(scale: int) -> List[Grid]:
        """Two near-square grids of one scale that route to different
        shards (fixed: the seed varies queries, not domains)."""
        found: Dict[int, Grid] = {}
        for dx in range(scale):
            for shape in ((scale, scale - dx), (scale - dx, scale)):
                found.setdefault(shard_of_domain(Grid(shape), SHARDS),
                                 Grid(shape))
            if len(found) == SHARDS:
                return [found[s] for s in range(SHARDS)]
        raise RuntimeError("no shard split found")  # pragma: no cover

    @staticmethod
    def _batch(rng: np.random.Generator, grid: Grid, sides, smoke: bool
               ) -> Request:
        rows, cols = grid.shape
        queries: List = []
        # Every batch holds the sides in the same proportions: the seed
        # moves the queries, not the amount of work in a batch.
        for k in range(28):
            side = sides[k % len(sides)]
            r, c = int(rng.integers(0, rows - side + 1)), \
                int(rng.integers(0, cols - side + 1))
            queries.append(RangeQuery(((r, c), (r + side - 1, c + side - 1))))
        for _ in range(3):
            queries.append(NNQuery(int(rng.integers(0, grid.size)), 16))
        cells = 24 if smoke else 96
        queries.append(JoinQuery(
            tuple(int(x) for x in rng.choice(grid.size, cells, replace=False)),
            tuple(int(x) for x in rng.choice(grid.size, cells, replace=False)),
            epsilon=4, window=128))
        return Request("query_many", grid, tuple(queries), len(queries))

    def warm(self, clients: Sequence) -> None:
        # Solve both grids in parallel, then build each worker's store.
        def warm_one(client, grid: Grid):
            return lambda: client.range(grid, ((0, 0), (0, 0)))

        _run_threads([warm_one(c, g) for c, g in zip(clients, self.domains)])

    def drive(self, clients: Sequence, seconds: float,
              recorder: Recorder) -> float:
        # Connection c always sends to grid c: the two connections load
        # the two workers evenly, so the engine is what saturates.
        def stream(c: int):
            batches = self.pool[c::2]
            while True:
                yield from batches

        return closed_loop(clients, [stream(c) for c in range(len(clients))],
                           seconds, self.check, recorder)


class PointLookups(PooledWorkload):
    name = "point-lookups"
    open_loop = True
    LADDER = (256, 32)
    #: Offered load: about 30% of the ~1000 lookups/s that 2 closed-loop
    #: connections reach on a quiet 2-CPU box.  At half of it, stolen
    #: CPU on a shared host pushed the queue near saturation in some runs
    #: and the run-to-run spread of both latency percentiles exceeded
    #: any usable bound.
    RATE_PER_S = 300.0

    def __init__(self, seed: int, smoke: bool = False) -> None:
        super().__init__(seed, smoke)
        rng = rng_for(seed, 2)
        count, lo, hi = (4, 12, 28) if smoke else (16, 32, 64)
        # Popularity rank r gets the r-th size stratum counted from the
        # middle out and shard r % 2: every seed offers the same load
        # profile; the seed picks shapes, requests and arrival times.
        middle_out = sorted(range(count), key=lambda i: abs(2 * i - count))
        used: set = set()
        self.domains = [Grid(stratified_shape(rng, lo, hi, slot, count,
                                              r % SHARDS, used))
                        for r, slot in enumerate(middle_out)]
        popularity = 1.0 / np.arange(1, count + 1, dtype=float) ** 1.1
        popularity /= popularity.sum()
        for _ in range(64 if smoke else 1024):
            grid = self.domains[int(rng.choice(count, p=popularity))]
            if rng.random() < 0.5:
                self.pool.append(Request("grid_artifact", grid,
                                         (SpectralConfig(),), 1))
            else:
                self.pool.append(Request(
                    "nn", grid, (int(rng.integers(0, grid.size)), 8), 1))
        self.rate = self.RATE_PER_S / (4 if smoke else 1)
        self.arrival_rng = rng_for(seed, 3)

    def warm(self, clients: Sequence) -> None:
        # Order every grid and build its worker-side index, in parallel.
        def warm_some(client, grids):
            def run() -> None:
                client.order_many([(g, SpectralConfig()) for g in grids])
                for g in grids:
                    client.nn(g, 0, 8)
            return run

        _run_threads([warm_some(c, self.domains[i::len(clients)])
                      for i, c in enumerate(clients)])

    def drive(self, clients: Sequence, seconds: float,
              recorder: Recorder) -> float:
        arrivals = poisson_arrivals(self.arrival_rng, self.rate, seconds)
        return open_loop(clients, arrivals, self.pool, self.check, recorder)


class ColdChurn(Workload):
    name = "cold-churn"
    memory_entries = 4
    PASSES = 3
    #: Connection 1 starts once connection 0 has this many answers.
    LAG = 3
    #: Keys re-checked against an in-process solve after the drive.
    REFERENCE_SAMPLE = 6

    def __init__(self, seed: int, smoke: bool = False) -> None:
        super().__init__(seed, smoke)
        self._used: set = set()
        self._epochs: List[List[Request]] = []
        self._lock = threading.Lock()
        #: key -> (request, index of its config, first order answered)
        self.first_answer: Dict[str, Tuple[Request, int, np.ndarray]] = {}
        self.digests: Dict[str, int] = {}
        self.epochs_run = 0

    # -- inputs ---------------------------------------------------------
    def epoch(self, e: int) -> List[Request]:
        """Epoch ``e``'s request stream (``PASSES`` seeded passes)."""
        while len(self._epochs) <= e:
            self._epochs.append(self._make_epoch(len(self._epochs)))
        return self._epochs[e]

    def _make_epoch(self, e: int) -> List[Request]:
        rng = rng_for(self.seed, 4, e)
        grids, topologies, lo, hi = ((4, 1, 12, 28) if self.smoke
                                     else (16, 2, 24, 72))
        items = [Request("grid_artifact",
                         Grid(stratified_shape(rng, lo, hi, j, grids,
                                               j % SHARDS, self._used)),
                         (SpectralConfig(),), 1) for j in range(grids)]
        for t in range(topologies):
            connectivity, radius = (("moore", 1), ("orthogonal", 2))[t % 2]
            # Mid-sized: each cold order_many is 4 solves and sits in
            # the latency tail, so its size must not vary by seed.  Its
            # shard is the one the grid of the same stratum does not use,
            # so no stratum and shard is drawn from twice per epoch.
            slot = grids // 2 + t
            grid = Grid(stratified_shape(rng, lo, hi, slot, grids,
                                         (slot + 1) % SHARDS, self._used))
            items.append(Request("order_many", grid, tuple(
                SpectralConfig(connectivity=connectivity, radius=radius,
                               weight=w) for w in WEIGHTS), len(WEIGHTS)))
        stream: List[Request] = []
        for _ in range(self.PASSES if not self.smoke else 2):
            stream.extend(items[i] for i in rng.permutation(len(items)))
        return stream

    # -- set-up and traffic ---------------------------------------------
    def warm(self, clients: Sequence) -> None:
        # One throwaway solve per shard finishes the workers' lazy
        # imports; sides below every workload key keep it out of the set.
        def warm_one(client, shape):
            return lambda: client.grid_artifact(Grid(shape))

        probes: Dict[int, Tuple[int, int]] = {}
        for a in range(6, 11):
            shape = (a, a + 1)
            probes.setdefault(shard_of_domain(Grid(shape), SHARDS), shape)
        _run_threads([warm_one(c, probes[s])
                      for s, c in zip(sorted(probes), clients)])

    def walk(self, clients: Sequence, stream: Sequence[Request],
             recorder: Recorder) -> None:
        """Both connections walk ``stream``; connection 1 trails by LAG."""
        lead = threading.Event()

        def run(c: int) -> None:
            try:
                if c > 0:
                    lead.wait()
                for i, request in enumerate(stream):
                    recorder.add(send_checked(clients[c], request,
                                              self.check))
                    if c == 0 and i + 1 >= self.LAG:
                        lead.set()
            finally:
                lead.set()

        _run_threads([lambda c=c: run(c) for c in range(len(clients))])

    def drive(self, clients: Sequence, seconds: float,
              recorder: Recorder, max_epochs: Optional[int] = None
              ) -> float:
        start = time.perf_counter()
        e = 0
        while True:
            self.walk(clients, self.epoch(e), recorder)
            e += 1
            if (e >= max_epochs if max_epochs is not None
                    else time.perf_counter() - start >= seconds):
                break
        self.epochs_run = e
        return time.perf_counter() - start

    # -- checks ---------------------------------------------------------
    def check(self, request: Request, response) -> bool:
        """Every answer for a key must be the same order; keys must match.

        The first answer per key is kept for the reference sample
        :meth:`verify` re-solves in-process."""
        if request.kind == "grid_artifact":
            if not isinstance(response, OrderArtifact):
                return False
            if response.key != request.keys()[0]:
                return False
            orders = [response.order]
        else:
            orders = response
            if not (isinstance(orders, list)
                    and len(orders) == len(request.args)
                    and all(isinstance(o, LinearOrder) for o in orders)):
                return False
        ok = True
        for j, (key, order) in enumerate(zip(request.keys(), orders)):
            perm = order.permutation
            digest = zlib.crc32(perm.tobytes())
            with self._lock:
                seen = self.digests.setdefault(key, digest)
                self.first_answer.setdefault(key, (request, j, perm))
            ok = ok and seen == digest and perm.size == request.domain.size
        return ok

    def reset_accounting(self) -> None:
        """Forget touched keys (answer digests stay, so later answers
        must still match earlier ones)."""
        with self._lock:
            self.first_answer = {}

    def verify(self, server, before) -> List[str]:
        """Solver accounting and a seeded bit-identity sample.

        Every distinct key must have been solved exactly once: the
        fleet's ``computed`` delta equals the number of distinct keys,
        and its ``solver_calls`` delta equals the eigensolver calls
        recorded in those keys' persisted metadata (one cold compute
        can take more than one call, e.g. under the scipy backend)."""
        after = server.clients[0].combined_stats()
        return self.accounting_failures(
            after.computed - before.computed,
            after.solver_calls - before.solver_calls,
            server.cache_dir) + self.reference_failures()

    def accounting_failures(self, computed: int, solver_calls: int,
                            cache_dir) -> List[str]:
        failures: List[str] = []
        keys = list(self.first_answer)
        if computed != len(keys):
            failures.append(f"computed {computed} != distinct keys "
                            f"{len(keys)}")
        stores = [ArtifactStore(d) for d in
                  shard_store_dirs(cache_dir, SHARDS).values()]
        persisted = 0
        for key in keys:
            store = next((s for s in stores if key in s), None)
            if store is None:
                failures.append(f"key {key[:12]} was never persisted")
                continue
            meta = json.loads(store.meta_path(key).read_text())
            persisted += int(meta["solver_calls"])
        if solver_calls != persisted:
            failures.append(f"solver_calls {solver_calls} != {persisted} "
                            "recorded by the distinct keys' artifacts")
        return failures

    def reference_failures(self) -> List[str]:
        keys = sorted(self.first_answer)
        rng = rng_for(self.seed, 5)
        sample = rng.choice(len(keys), min(self.REFERENCE_SAMPLE, len(keys)),
                            replace=False)
        service = OrderingService()
        failures = []
        for i in sample:
            request, j, got = self.first_answer[keys[int(i)]]
            want = service.grid_artifact(request.domain, request.args[j])
            if not np.array_equal(want.order.permutation, got):
                failures.append(f"order for {request.domain.shape} "
                                f"{request.args[j]} differs from an "
                                "in-process solve")
        return failures

    def ladder_sample(self, variant: int = 0) -> List[Request]:
        """A third of a spare epoch's keys, sent twice: cold then warm."""
        stream = self._make_epoch(SPARE_EPOCH + variant)
        part = stream[: max(2, len(stream) // (3 * self.PASSES))]
        return part + part


WORKLOADS = {w.name: w for w in (RangeHeavy, PointLookups, ColdChurn)}
