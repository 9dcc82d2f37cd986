"""Tests for repro.query.engine (LinearStore)."""

import numpy as np
import pytest

from repro.errors import InvalidParameterError
from repro.geometry import Box, Grid
from repro.api import make_mapping
from repro.mapping import CurveMapping
from repro.query import LinearStore
from repro.storage import DiskCostModel


def build_store(grid, mapping, **kwargs):
    """Engine-level store constructor (the facade's internal path)."""
    return LinearStore._from_api(grid, mapping, **kwargs)


@pytest.fixture
def store():
    grid = Grid((8, 8))
    return grid, build_store(grid, CurveMapping("hilbert"), page_size=8,
                             tree_order=8)


def test_range_query_results_exact(store):
    grid, engine = store
    box = Box((2, 3), (5, 6))
    for plan in ("span-scan", "page-fetch"):
        execution = engine.range_query(box, plan=plan)
        assert list(execution.results) == sorted(
            int(c) for c in box.cell_indices(grid))


def test_plans_agree_on_results(store):
    grid, engine = store
    for box in [Box((0, 0), (7, 7)), Box((1, 1), (2, 2)),
                Box((4, 0), (7, 3))]:
        scan = engine.range_query(box, plan="span-scan")
        fetch = engine.range_query(box, plan="page-fetch")
        assert np.array_equal(scan.results, fetch.results)


def test_span_scan_accounts_index_accesses(store):
    _, engine = store
    execution = engine.range_query(Box((0, 0), (3, 3)))
    assert execution.index_node_accesses >= engine.index_height
    assert execution.plan == "span-scan"


def test_page_fetch_touches_no_more_pages_than_scan(store):
    grid, engine = store
    for box in [Box((1, 1), (4, 5)), Box((0, 0), (2, 7))]:
        scan = engine.range_query(box, plan="span-scan")
        fetch = engine.range_query(box, plan="page-fetch")
        assert fetch.pages_fetched <= scan.pages_fetched


def test_unknown_plan_rejected(store):
    _, engine = store
    with pytest.raises(InvalidParameterError):
        engine.range_query(Box((0, 0), (1, 1)), plan="index-only")


def test_point_query(store):
    _, engine = store
    found, accesses = engine.point_query((3, 4))
    assert found
    assert accesses == engine.index_height


def test_buffer_absorbs_repeats():
    grid = Grid((8, 8))
    engine = build_store(grid, CurveMapping("hilbert"), page_size=8,
                         buffer_capacity=16)
    box = Box((2, 2), (5, 5))
    first = engine.range_query(box, plan="page-fetch")
    second = engine.range_query(box, plan="page-fetch")
    assert first.buffer_hits == 0
    assert second.buffer_hits == second.pages_fetched
    assert second.cost < first.cost


def test_workload_report_aggregates(store):
    grid, engine = store
    boxes = [Box((0, 0), (3, 3)), Box((4, 4), (7, 7))]
    report = engine.execute_workload(boxes, plan="page-fetch")
    assert report.queries == 2
    assert report.results == 32
    assert report.cost > 0.0
    assert report.plan == "page-fetch"


def test_spectral_store_end_to_end():
    grid = Grid((8, 8))
    engine = build_store(grid, make_mapping("spectral", backend="dense"),
                         page_size=8,
                         cost_model=DiskCostModel(5.0, 0.1))
    execution = engine.range_query(Box((2, 2), (5, 5)))
    assert len(execution.results) == 16
    assert engine.mapping_name == "spectral"
    assert engine.layout.num_pages == 8


def test_mapping_locality_reduces_span_scan_cost():
    """Hilbert's compact spans must beat a scrambled order's through
    the full engine stack."""
    from repro.core import LinearOrder
    from repro.mapping import ExplicitMapping
    grid = Grid((8, 8))
    scrambled_order = LinearOrder(
        np.random.default_rng(0).permutation(64))
    scrambled = build_store(
        grid, ExplicitMapping(grid, scrambled_order), page_size=8)
    hilbert = build_store(grid, CurveMapping("hilbert"), page_size=8)
    boxes = [Box((r, c), (r + 2, c + 2))
             for r in range(0, 6, 2) for c in range(0, 6, 2)]
    cost_hilbert = hilbert.execute_workload(boxes).cost
    cost_scrambled = scrambled.execute_workload(boxes).cost
    assert cost_hilbert < cost_scrambled

def test_direct_construction_removed():
    """The deprecation cycle is complete: the constructor raises."""
    grid = Grid((8, 8))
    with pytest.raises(TypeError, match="SpectralIndex"):
        LinearStore(grid, CurveMapping("hilbert"))
