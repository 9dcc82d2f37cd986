"""LinearStore: an executable end-to-end spatial store.

The paper's architecture, assembled: a :class:`LinearStore` maps grid
cells through a :class:`~repro.mapping.LocalityMapping` into 1-D keys
(the ranks), indexes the keys in a B+-tree, and lays the records onto
fixed-size pages.  Range queries run the way Section 5 models them:

``"span-scan"``
    Scan the ranks from the query's minimum ``lo`` to its maximum
    ``hi``, "eliminating the records that lie outside the range query"
    (the paper's own description): pages ``lo // page_size`` to
    ``hi // page_size``, B+-tree node accesses computed from the
    bulk-loaded tree's shape (:class:`~repro.index.BPlusTree` is the
    test oracle).  Cost tracks the Figure-6 span.
``"page-fetch"``
    Fetch exactly the pages containing qualifying records (an index
    union plan).  Cost tracks pages + seeks.

Both plans return identical result sets; the engine reports per-plan
I/O so their trade-off is measurable per mapping, and an optional LRU
buffer absorbs repeated pages across a query stream.  A built store is
immutable (ranks, layout, index shape) and its buffer pool locks per access,
so one store may serve queries from many threads concurrently —
``execute_workload(parallelism=...)`` and the facade's
``query_many(parallelism=...)`` rely on exactly that.

Stores are built through the :class:`~repro.api.SpectralIndex`
facade, which constructs them lazily behind its ``range(...)`` /
``query_many(...)`` methods; the pre-facade direct constructor has
completed its deprecation cycle and now raises.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.core.ordering import LinearOrder
from repro.errors import InvalidParameterError
from repro.parallel import ensure_workers, map_in_threads
from repro.geometry.boxes import Box
from repro.geometry.grid import Grid
from repro.mapping.interface import LocalityMapping
from repro.obs import Timer, registry, span
from repro.storage.buffer import BufferStats, LRUBufferPool
from repro.storage.disk import DiskCostModel
from repro.storage.pages import PageLayout

# Engine-level latency, labelled by plan — separates storage-engine
# time from the facade's per-op totals in ``repro_query_seconds``.
_RANGE_SECONDS = registry().histogram(
    "repro_engine_range_seconds",
    "LinearStore.range_query latency by plan.")

PLANS = ("span-scan", "page-fetch")


@dataclass(frozen=True)
class QueryExecution:
    """Result set and I/O accounting of one range query."""

    results: np.ndarray         # qualifying flat cell indices, ascending
    plan: str
    index_node_accesses: int    # B+-tree nodes touched
    pages_fetched: int          # data pages read (before buffering)
    seeks: int                  # contiguous page runs
    buffer_hits: int
    cost: float                 # modelled disk cost of the misses


class LinearStore:
    """Grid cells stored in mapping order behind a B+-tree index.

    Parameters
    ----------
    grid:
        The domain.
    mapping:
        Any :class:`~repro.mapping.LocalityMapping`; its order defines
        both the B+-tree keys and the page layout.
    page_size:
        Records per data page.
    tree_order:
        B+-tree fanout.
    buffer_capacity:
        Pages held in the LRU pool; ``None`` disables buffering.
    cost_model:
        Seek/transfer costs for the accounting.
    service:
        Optional :class:`~repro.service.ordering.OrderingService`,
        forwarded to :meth:`~repro.mapping.LocalityMapping.order_domain`:
        cacheable spectral mappings without a service of their own route
        the order through it (so many stores over one domain share an
        eigensolve), every other mapping ignores it.

    Stores are built through :meth:`repro.api.SpectralIndex.build`
    (which owns request coalescing, caching, and provenance); the
    direct constructor completed its deprecation cycle and now raises.
    """

    def __init__(self, *args, **kwargs):
        raise TypeError(
            "direct LinearStore construction has been removed; build a "
            "repro.api.SpectralIndex and use its range()/workload() "
            "methods instead"
        )

    @classmethod
    def _from_api(cls, grid: Grid, mapping: LocalityMapping,
                  order: Optional[LinearOrder] = None,
                  page_size: int = 16, tree_order: int = 32,
                  buffer_capacity: Optional[int] = None,
                  cost_model: Optional[DiskCostModel] = None,
                  service=None) -> "LinearStore":
        """Facade constructor: no deprecation, optional precomputed order."""
        store = object.__new__(cls)
        store._setup(grid, mapping, order, page_size, tree_order,
                     buffer_capacity, cost_model, service)
        return store

    def _setup(self, grid: Grid, mapping: LocalityMapping,
               order: Optional[LinearOrder], page_size: int,
               tree_order: int, buffer_capacity: Optional[int],
               cost_model: Optional[DiskCostModel], service) -> None:
        self._grid = grid
        self._mapping = mapping
        if order is None:
            order = mapping.order_domain(grid, service=service)
        if tree_order < 3:
            raise InvalidParameterError(f"tree_order {tree_order} < 3")
        self._ranks = order.ranks
        self._layout = PageLayout(order, page_size)
        self._tree_order = int(tree_order)
        self._index_height = _bulk_load_height(grid.size, self._tree_order)
        self._buffer = (LRUBufferPool(buffer_capacity)
                        if buffer_capacity else None)
        self._model = cost_model or DiskCostModel()

    # ------------------------------------------------------------------
    @property
    def grid(self) -> Grid:
        return self._grid

    @property
    def mapping_name(self) -> str:
        return self._mapping.name

    @property
    def layout(self) -> PageLayout:
        return self._layout

    @property
    def index_height(self) -> int:
        """Root-to-leaf levels of the bulk-loaded B+-tree on the ranks."""
        return self._index_height

    # ------------------------------------------------------------------
    def range_query(self, box: Box,
                    plan: str = "span-scan") -> QueryExecution:
        """Execute an axis-aligned range query under the chosen plan."""
        if plan not in PLANS:
            raise InvalidParameterError(
                f"unknown plan {plan!r}; expected one of {PLANS}"
            )
        with span("engine.range_query", plan=plan) as sp, \
                Timer() as timer:
            execution = self._range_query_impl(box, plan)
            sp.set_attribute("pages", execution.pages_fetched)
        _RANGE_SECONDS.observe(timer.seconds, plan=plan)
        return execution

    def _range_query_impl(self, box: Box, plan: str) -> QueryExecution:
        wanted = box.cell_indices(self._grid)
        results = np.sort(wanted)
        if plan == "span-scan":
            # BPlusTree.range_search's walk: the descent, each further
            # leaf up to hi's, and the next leaf when hi ends a leaf.
            ranks = self._ranks[wanted]
            lo, hi = int(ranks.min()), int(ranks.max())
            fan, page_size = self._tree_order, self._layout.page_size
            node_accesses = self._index_height + hi // fan - lo // fan
            if (hi + 1) % fan == 0 and hi + 1 < len(self._ranks):
                node_accesses += 1
            pages = np.arange(lo // page_size, hi // page_size + 1)
        else:  # page-fetch
            node_accesses = 0
            pages = self._layout.pages_for_items(wanted)

        runs = len(self._layout.page_run_lengths(pages))
        hits = 0
        misses = len(pages)
        if self._buffer is not None:
            hits = self._buffer.access_many(int(p) for p in pages)
            misses = len(pages) - hits
        # Seeks only apply to pages actually read from disk; buffered
        # runs are approximated by scaling runs with the miss fraction.
        effective_runs = (runs if misses == len(pages)
                          else min(runs, misses))
        cost = self._model.cost(misses, effective_runs)
        return QueryExecution(
            results=results,
            plan=plan,
            index_node_accesses=node_accesses,
            pages_fetched=len(pages),
            seeks=runs,
            buffer_hits=hits,
            cost=cost,
        )

    def point_query(self, point: Sequence[int]) -> Tuple[bool, int]:
        """Whether a cell exists (always true on a full grid) and the
        B+-tree node accesses spent proving it."""
        self._grid.index_of(point)  # raises outside the grid
        return True, self._index_height

    def buffer_stats(self) -> Optional[BufferStats]:
        """The buffer pool's accounting snapshot (``None`` unbuffered).

        The pool locks each access, so the snapshot satisfies
        ``hits + misses == accesses`` exactly even while queries are
        executing on other threads.
        """
        if self._buffer is None:
            return None
        return self._buffer.stats()

    def execute_workload(self, boxes: Sequence[Box],
                         plan: str = "span-scan",
                         parallelism: Optional[int] = None
                         ) -> "WorkloadReport":
        """Run a query stream and aggregate the accounting.

        ``parallelism`` > 1 fans the queries across that many worker
        threads (the store's structures are immutable after build and
        the buffer pool locks per access, so this is safe).  Result
        sets per query are identical to the sequential run; with a
        buffer pool, *which* query absorbs a given buffer hit depends
        on interleaving, but the aggregated report stays conservation-
        exact: total buffer hits equal the pool's hit delta, and
        ``pages_fetched`` equals the pool's access delta.
        """
        boxes = list(boxes)
        with span("engine.workload", queries=len(boxes), plan=plan):
            executions = map_in_threads(
                lambda box: self.range_query(box, plan=plan), boxes,
                ensure_workers(parallelism),
                thread_name_prefix="repro-workload")
        return WorkloadReport(
            plan=plan,
            queries=len(executions),
            results=sum(len(e.results) for e in executions),
            index_node_accesses=sum(e.index_node_accesses
                                    for e in executions),
            pages_fetched=sum(e.pages_fetched for e in executions),
            seeks=sum(e.seeks for e in executions),
            buffer_hits=sum(e.buffer_hits for e in executions),
            cost=sum(e.cost for e in executions),
        )


@dataclass(frozen=True)
class WorkloadReport:
    """Aggregated accounting of a query stream."""

    plan: str
    queries: int
    results: int
    index_node_accesses: int
    pages_fetched: int
    seeks: int
    buffer_hits: int
    cost: float


def _bulk_load_height(n: int, order: int) -> int:
    """``BPlusTree.bulk_load``'s height: ``ceil(n / order)`` leaves,
    then ``ceil(m / order)`` parents per level up to one root."""
    height, nodes = 1, max(1, -(-n // order))
    while nodes > 1:
        height, nodes = height + 1, -(-nodes // order)
    return height
