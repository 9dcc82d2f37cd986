"""Tests for repro.graph.traversal."""

from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import InvalidParameterError
from repro.graph import (
    Graph,
    bfs_order,
    component_vertex_lists,
    connected_components,
    cycle_graph,
    grid_graph,
    is_connected,
    path_graph,
    star_graph,
)
from repro.geometry import Grid


def test_bfs_order_path():
    g = path_graph(5)
    assert list(bfs_order(g, 0)) == [0, 1, 2, 3, 4]
    assert list(bfs_order(g, 2)) == [2, 1, 3, 0, 4]


def test_bfs_visits_ascending_neighbors():
    g = star_graph(5)
    assert list(bfs_order(g, 0)) == [0, 1, 2, 3, 4]


def test_bfs_restricted_to_component():
    g = Graph.from_edges(5, [(0, 1), (2, 3)])
    assert set(bfs_order(g, 0)) == {0, 1}
    assert set(bfs_order(g, 3)) == {2, 3}
    assert list(bfs_order(g, 4)) == [4]


def test_bfs_start_validation():
    with pytest.raises(InvalidParameterError):
        bfs_order(path_graph(3), 3)


def test_connected_components_labels():
    g = Graph.from_edges(6, [(0, 1), (1, 2), (4, 5)])
    labels, count = connected_components(g)
    assert count == 3
    assert labels[0] == labels[1] == labels[2] == 0
    assert labels[3] == 1
    assert labels[4] == labels[5] == 2


def test_component_vertex_lists():
    g = Graph.from_edges(5, [(0, 4), (1, 2)])
    labels, count = connected_components(g)
    groups = component_vertex_lists(labels, count)
    assert [list(grp) for grp in groups] == [[0, 4], [1, 2], [3]]


def test_is_connected():
    assert is_connected(grid_graph(Grid((4, 4))))
    assert is_connected(cycle_graph(5))
    assert not is_connected(Graph.from_edges(3, [(0, 1)]))
    assert is_connected(Graph.empty(1))
    assert is_connected(Graph.from_edges(0, []))
    assert not is_connected(Graph.empty(2))


# ----------------------------------------------------------------------
# Property: the array BFS equals a plain-Python queue BFS
# ----------------------------------------------------------------------
@st.composite
def random_graphs(draw):
    """Sparse-to-dense random graphs, often disconnected, with isolated
    vertices, returned with their plain adjacency sets."""
    n = draw(st.integers(min_value=1, max_value=24))
    pairs = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
        max_size=3 * n))
    edges = [(u, v) for u, v in pairs if u != v]
    adjacency = [set() for _ in range(n)]
    for u, v in edges:
        adjacency[u].add(v)
        adjacency[v].add(u)
    return Graph.from_edges(n, edges), adjacency


def reference_bfs(adjacency, start):
    seen = {start}
    queue = deque([start])
    visited = []
    while queue:
        v = queue.popleft()
        visited.append(v)
        for u in sorted(adjacency[v]):
            if u not in seen:
                seen.add(u)
                queue.append(u)
    return visited


def reference_components(adjacency):
    labels = [-1] * len(adjacency)
    count = 0
    for root in range(len(adjacency)):
        if labels[root] < 0:
            for v in reference_bfs(adjacency, root):
                labels[v] = count
            count += 1
    return labels, count


@settings(max_examples=150, deadline=None)
@given(random_graphs())
def test_bfs_order_matches_queue_reference(case):
    g, adjacency = case
    for start in range(g.num_vertices):
        got = bfs_order(g, start)
        assert got.dtype == np.int64
        assert got.tolist() == reference_bfs(adjacency, start)


@settings(max_examples=150, deadline=None)
@given(random_graphs())
def test_connected_components_match_reference(case):
    g, adjacency = case
    labels, count = connected_components(g)
    want_labels, want_count = reference_components(adjacency)
    assert count == want_count
    assert labels.dtype == np.int64
    assert labels.tolist() == want_labels
    assert is_connected(g) == (want_count == 1)
