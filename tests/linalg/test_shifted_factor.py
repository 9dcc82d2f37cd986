"""The scipy backend factors each Laplacian once per Fiedler computation.

A Fiedler solve on a generic grid runs two shift-invert solves on the
same Laplacian: the k-pair window and the deflated certificate that
closes the lambda_2 group.  Both invert ``A - sigma I``; the sparse
factor is memoized on the matrix, so one computation pays one
factorization while the solver-call accounting stays per solve.
"""

import json

import numpy as np
import pytest

from repro.api import SpectralConfig
from repro.core.fiedler import fiedler_vector
from repro.geometry import Grid
from repro.graph import grid_graph, laplacian, path_graph
from repro.linalg import scipy_available, smallest_eigenpairs
from repro.linalg.backends import solver_invocations
from repro.service import ArtifactStore, OrderingService

pytestmark = pytest.mark.skipif(not scipy_available(),
                                reason="scipy not installed")


@pytest.fixture
def splu_calls(monkeypatch):
    import scipy.sparse.linalg as spla

    calls = []
    real = spla.splu

    def counting(*args, **kwargs):
        calls.append(args[0].shape)
        return real(*args, **kwargs)

    monkeypatch.setattr(spla, "splu", counting)
    return calls


def test_fiedler_vector_factors_once(splu_calls):
    graph = grid_graph(Grid((40, 30)))
    before = solver_invocations()
    result = fiedler_vector(graph, backend="scipy")
    assert solver_invocations() - before == 2   # window + certificate
    assert splu_calls == [(1200, 1200)]
    assert result.multiplicity == 1


def test_persisted_solver_calls_unchanged(splu_calls, tmp_path):
    store = ArtifactStore(tmp_path)
    service = OrderingService(store=store)
    artifact = service.grid_artifact(Grid((40, 30)),
                                     SpectralConfig(backend="scipy"))
    assert artifact.solver_calls == 2
    assert len(splu_calls) == 1
    meta = json.loads((tmp_path / f"{artifact.key}.json").read_text())
    assert meta["solver_calls"] == 2


def test_factor_lives_on_the_matrix(splu_calls):
    lap = laplacian(path_graph(50))
    ones = np.ones(50) / np.sqrt(50)
    first, _ = smallest_eigenpairs(lap, 3, backend="scipy", deflate=[ones])
    again, _ = smallest_eigenpairs(lap, 2, backend="scipy", deflate=[ones])
    assert len(splu_calls) == 1
    fresh, _ = smallest_eigenpairs(laplacian(path_graph(50)), 3,
                                   backend="scipy", deflate=[ones])
    assert len(splu_calls) == 2
    assert np.allclose(again, first[:2], rtol=0, atol=1e-12)
    assert np.allclose(fresh, first, rtol=0, atol=1e-12)


def test_undeflated_solve_matches_dense():
    lap = laplacian(path_graph(40))
    values, vectors = smallest_eigenpairs(lap, 3, backend="scipy")
    reference, _ = smallest_eigenpairs(lap, 3, backend="dense")
    assert np.allclose(values, reference, atol=1e-8)
    residual = lap.matmat(vectors) - vectors * values
    assert np.abs(residual).max() < 1e-8
