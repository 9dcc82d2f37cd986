"""Graph traversal: breadth-first search and connected components.

The spectral pipeline needs connectivity information twice: the Fiedler
vector is only defined for connected graphs (a disconnected graph has
``lambda_2 = 0`` and a locality order must be computed per component), and
BFS order is one of the deterministic tie-breaking keys for equal Fiedler
entries.

Both traversals run level-synchronously on the graph's CSR arrays
(:meth:`~repro.graph.adjacency.Graph.csr_arrays`): each level gathers
the frontier's neighbour slices in one vectorized step, drops vertices
already seen, and keeps the first occurrence of each remaining vertex in
gather order.  Since rows list neighbours in ascending id order, that
reproduces exactly the visit order of the textbook queue-based BFS that
scans each vertex's neighbours in ascending order, at numpy speed
instead of one Python call per vertex.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.errors import InvalidParameterError
from repro.graph.adjacency import Graph


def _bfs(indptr: np.ndarray, degree: np.ndarray, indices: np.ndarray,
         seen: np.ndarray, start: int) -> np.ndarray:
    """Visit order of ``start``'s component; marks it in ``seen``."""
    seen[start] = True
    frontier = np.array([start], dtype=np.int64)
    levels = [frontier]
    while True:
        counts = degree[frontier]
        ends = counts.cumsum()
        # The frontier's rows, concatenated in frontier order: entry j of
        # the gather sits at its row's start plus j minus the row's
        # offset in the concatenation.
        shift = np.repeat(indptr[frontier] - (ends - counts), counts)
        gathered = indices[shift + np.arange(ends[-1])]
        gathered = gathered[~seen[gathered]]
        if not gathered.size:
            break
        # First occurrences in gather order: a stable sort puts each
        # vertex's copies together, earliest first.
        order = gathered.argsort(kind="stable")
        ranked = gathered[order]
        first = np.empty(ranked.size, dtype=bool)
        first[0] = True
        np.not_equal(ranked[1:], ranked[:-1], out=first[1:])
        keep = order[first]
        keep.sort()
        frontier = gathered[keep]
        seen[frontier] = True
        levels.append(frontier)
    return np.concatenate(levels).astype(np.int64, copy=False)


def bfs_order(graph: Graph, start: int = 0) -> np.ndarray:
    """Vertices of ``start``'s component in breadth-first visit order.

    Neighbours are visited in ascending id order, so the result is fully
    deterministic.
    """
    n = graph.num_vertices
    if not 0 <= start < n:
        raise InvalidParameterError(f"start vertex {start} out of range")
    indptr, indices, _ = graph.csr_arrays()
    return _bfs(indptr, graph.degrees(), indices, np.zeros(n, dtype=bool),
                int(start))


def connected_components(graph: Graph) -> Tuple[np.ndarray, int]:
    """Label every vertex with its component id.

    Returns ``(labels, count)``; component ids are assigned in order of
    their smallest vertex, so labelling is deterministic.  Isolated
    vertices form singleton components.
    """
    n = graph.num_vertices
    indptr, indices, _ = graph.csr_arrays()
    degree = graph.degrees()
    labels = np.full(n, -1, dtype=np.int64)
    seen = np.zeros(n, dtype=bool)
    count = 0
    for root in range(n):
        if seen[root]:
            continue
        labels[_bfs(indptr, degree, indices, seen, root)] = count
        count += 1
    return labels, count


def is_connected(graph: Graph) -> bool:
    """Whether the graph has exactly one connected component.

    The empty graph (0 vertices) is considered connected.
    """
    n = graph.num_vertices
    if n <= 1:
        return True
    return len(bfs_order(graph, 0)) == n


def component_vertex_lists(labels: np.ndarray,
                           count: int) -> List[np.ndarray]:
    """Group vertex ids by component label (ascending ids within each)."""
    return [np.flatnonzero(labels == c) for c in range(count)]
