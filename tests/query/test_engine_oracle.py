"""LinearStore's span-scan accounting against a walked B+-tree.

The store answers span-scan range queries by rank arithmetic and
computes index node accesses from the bulk-loaded tree's shape.  The
oracle here is the literal plan: bulk-load a :class:`BPlusTree` keyed
on rank, ``range_search(lo, hi)`` the query's span, keep the candidates
inside the box, and charge pages, seeks and buffer hits for every
candidate's page.  Every :class:`QueryExecution` field must match.
"""

import itertools

import numpy as np
import pytest

from repro.api import make_mapping
from repro.curves import CURVE_NAMES
from repro.geometry import Box, Grid
from repro.index import BPlusTree
from repro.mapping import CurveMapping
from repro.query import LinearStore
from repro.query.engine import QueryExecution
from repro.storage import DiskCostModel, LRUBufferPool, PageLayout

FAMILIES = CURVE_NAMES + ("spectral",)
SHAPES = [(1, 1), (1, 9), (9, 1), (7, 6)]
TREE_ORDERS = (3, 4, 5, 32)
PAGE_SIZES = (1, 3, 16)
BUFFER_CAPACITIES = (None, 4)
MODEL = DiskCostModel(5.0, 0.1)


def _mapping(family):
    if family == "spectral":
        return make_mapping("spectral", backend="dense")
    return CurveMapping(family)


def _boxes(grid, rng):
    """The whole grid, every single cell, and a seeded sample of boxes."""
    rows, cols = grid.shape
    boxes = [Box((0, 0), (rows - 1, cols - 1))]
    boxes += [Box(cell, cell)
              for cell in itertools.product(range(rows), range(cols))]
    for _ in range(24):
        r0, r1 = sorted(rng.integers(0, rows, size=2))
        c0, c1 = sorted(rng.integers(0, cols, size=2))
        boxes.append(Box((int(r0), int(c0)), (int(r1), int(c1))))
    return boxes


class _Oracle:
    """The span-scan plan as a real tree walk plus a Python filter."""

    def __init__(self, grid, order, page_size, tree_order, capacity):
        self.grid = grid
        self.ranks = order.ranks
        self.layout = PageLayout(order, page_size)
        self.tree = BPlusTree.bulk_load(
            list(range(grid.size)),
            [int(cell) for cell in order.permutation], order=tree_order)
        self.buffer = LRUBufferPool(capacity) if capacity else None

    def range_query(self, box):
        wanted = box.cell_indices(self.grid)
        wanted_set = set(int(c) for c in wanted)
        ranks = self.ranks[wanted]
        lo, hi = int(ranks.min()), int(ranks.max())
        candidates, accesses = self.tree.range_search(lo, hi)
        results = np.array(sorted(c for c in candidates if c in wanted_set),
                           dtype=np.int64)
        pages = self.layout.pages_for_items(
            np.array(candidates, dtype=np.int64))
        runs = len(self.layout.page_run_lengths(pages))
        hits = 0
        if self.buffer is not None:
            hits = self.buffer.access_many(int(p) for p in pages)
        misses = len(pages) - hits
        effective_runs = runs if misses == len(pages) else min(runs, misses)
        return hi, QueryExecution(
            results=results, plan="span-scan",
            index_node_accesses=accesses, pages_fetched=len(pages),
            seeks=runs, buffer_hits=hits,
            cost=MODEL.cost(misses, effective_runs))


@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: f"{s[0]}x{s[1]}")
@pytest.mark.parametrize("family", FAMILIES)
def test_span_scan_matches_tree_walk(family, shape):
    grid = Grid(shape)
    mapping = _mapping(family)
    order = mapping.order_domain(grid)
    boxes = _boxes(grid, np.random.default_rng(sum(shape)))
    n = grid.size
    for tree_order, page_size, capacity in itertools.product(
            TREE_ORDERS, PAGE_SIZES, BUFFER_CAPACITIES):
        store = LinearStore._from_api(
            grid, mapping, order=order, page_size=page_size,
            tree_order=tree_order, buffer_capacity=capacity,
            cost_model=MODEL)
        oracle = _Oracle(grid, order, page_size, tree_order, capacity)
        assert store.index_height == oracle.tree.height
        leaf_ends = set()
        for box in boxes:
            hi, expected = oracle.range_query(box)
            got = store.range_query(box, plan="span-scan")
            assert np.array_equal(got.results, expected.results), box
            assert got.results.dtype == expected.results.dtype
            assert np.array_equal(got.results,
                                  np.sort(box.cell_indices(grid)))
            for field in ("plan", "index_node_accesses", "pages_fetched",
                          "seeks", "buffer_hits", "cost"):
                assert getattr(got, field) == getattr(expected, field), (
                    box, field, tree_order, page_size, capacity)
            if (hi + 1) % tree_order == 0 and hi + 1 < n:
                leaf_ends.add("mid-chain")
            if hi == n - 1 and n % tree_order:
                leaf_ends.add("final-partial")
        # The single-cell boxes put ``hi`` on the last key of every full
        # leaf, and the whole-grid box on the final partial leaf's.
        if n > tree_order:
            assert "mid-chain" in leaf_ends
        if n % tree_order:
            assert "final-partial" in leaf_ends
        for cell in range(n):
            point = grid.point_of(cell)
            _, oracle_accesses = oracle.tree.search(int(order.ranks[cell]))
            assert store.point_query(point) == (True, oracle_accesses)


@pytest.mark.parametrize("tree_order", TREE_ORDERS)
def test_index_height_matches_bulk_load(tree_order):
    mapping = CurveMapping("sweep")
    for n in range(1, 2001):
        store = LinearStore._from_api(Grid((1, n)), mapping,
                                      tree_order=tree_order)
        keys = range(n)
        tree = BPlusTree.bulk_load(keys, keys, order=tree_order)
        assert store.index_height == tree.height, n
