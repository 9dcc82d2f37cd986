"""Failure injection: behaviour when scipy is unavailable.

The library promises to work with numpy alone; these tests simulate a
scipy-less environment by hiding the module from the import machinery
and verify that (a) the explicit scipy backend fails loudly with the
documented exception and (b) the auto backend silently falls back to the
in-house Lanczos solver with identical results.
"""

import builtins
import sys

import numpy as np
import pytest

import repro.linalg.backends as backends
from repro.errors import BackendUnavailableError
from repro.graph import laplacian, path_graph
from repro.linalg import smallest_eigenpairs


def _hide_scipy(monkeypatch):
    """Make every `import scipy...` raise ImportError."""
    real_import = builtins.__import__

    def fake_import(name, *args, **kwargs):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"scipy hidden for this test: {name}")
        return real_import(name, *args, **kwargs)

    for module_name in list(sys.modules):
        if module_name == "scipy" or module_name.startswith("scipy."):
            monkeypatch.delitem(sys.modules, module_name)
    monkeypatch.setattr(builtins, "__import__", fake_import)


@pytest.fixture
def no_scipy(monkeypatch):
    _hide_scipy(monkeypatch)


def test_scipy_available_reports_false(no_scipy):
    assert backends.scipy_available() is False


def test_explicit_scipy_backend_raises(no_scipy):
    lap = laplacian(path_graph(8))
    with pytest.raises(BackendUnavailableError):
        smallest_eigenpairs(lap, 2, backend="scipy")


def test_auto_falls_back_to_lanczos(no_scipy, monkeypatch):
    # Force the large-matrix branch so auto must choose between scipy
    # (hidden) and lanczos.
    monkeypatch.setattr(backends, "DENSE_CUTOFF", 4)
    n = 30
    lap = laplacian(path_graph(n))
    values, _ = smallest_eigenpairs(lap, 3, backend="auto")
    expected = 2 * (1 - np.cos(np.pi * np.arange(3) / n))
    assert np.allclose(values, expected, atol=1e-7)


def test_spectral_pipeline_runs_without_scipy(no_scipy):
    from repro.core import SpectralLPM
    from repro.geometry import Grid
    order = SpectralLPM(backend="lanczos").order_grid(Grid((5, 5)))
    assert sorted(order.permutation) == list(range(25))


def test_dense_backend_without_scipy_matches_subset_routine(monkeypatch):
    # With scipy the dense backend asks LAPACK for the bottom k pairs
    # only; without it numpy's full decomposition serves the same pairs
    # and the same orders.
    from repro.core import SpectralLPM
    from repro.geometry import Grid

    lap = laplacian(path_graph(40))
    ones = np.ones(40) / np.sqrt(40)
    grid = Grid((9, 13))
    values, vectors = smallest_eigenpairs(lap, 3, backend="dense",
                                          deflate=[ones])
    order = SpectralLPM(backend="dense").order_grid(grid)
    _hide_scipy(monkeypatch)
    full_values, full_vectors = smallest_eigenpairs(lap, 3, backend="dense",
                                                    deflate=[ones])
    assert np.allclose(values, full_values, rtol=0, atol=1e-12)
    assert np.allclose(np.abs(vectors.T @ full_vectors), np.eye(3),
                       atol=1e-10)
    assert SpectralLPM(backend="dense").order_grid(grid) == order
