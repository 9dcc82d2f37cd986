"""A minimal symmetric sparse matrix in CSR form.

The library ships its own compressed-sparse-row matrix so the core spectral
pipeline works without scipy.  Only the operations the eigensolvers need
are provided: matrix-vector products, diagonal extraction, and dense
conversion.  The pure-numpy matvec is vectorized with
:func:`numpy.bincount`; when scipy *is* importable, products are delegated
to its C implementation instead — the matvec sits at the bottom of every
Lanczos step and Chebyshev smoothing pass, so the several-fold constant
factor is worth the optional dependency.  The delegate is built lazily on
first use and the numpy path remains fully supported.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.errors import DimensionError, InvalidParameterError


def _scipy_sparse_module():
    """``scipy.sparse`` when importable, else ``None``.

    Resolved per call (a dictionary lookup once scipy is loaded) rather
    than cached at module level, so environments that genuinely lack
    scipy — and the test fixtures that simulate them — always exercise
    the numpy fallback.
    """
    try:
        import scipy.sparse as sp
    except ImportError:
        return None
    return sp


class CSRMatrix:
    """A square sparse matrix in compressed-sparse-row form.

    Parameters
    ----------
    n:
        Number of rows (= columns).
    indptr:
        ``(n + 1,)`` int array; row ``i`` occupies ``indices[indptr[i]:indptr[i+1]]``.
    indices:
        Column index of every stored entry.
    data:
        Value of every stored entry.

    The matrix is not required to be symmetric, but all matrices produced
    by this library (adjacency, Laplacian) are; :meth:`is_symmetric` checks.
    """

    __slots__ = ("_n", "_indptr", "_indices", "_data", "_rows", "_scipy",
                 "_shifted_lu", "_min_row_count")

    def __init__(self, n: int, indptr: np.ndarray, indices: np.ndarray,
                 data: np.ndarray):
        n = int(n)
        indptr = np.asarray(indptr, dtype=np.int64)
        indices = np.asarray(indices, dtype=np.int64)
        data = np.asarray(data, dtype=np.float64)
        if indptr.shape != (n + 1,):
            raise DimensionError(
                f"indptr must have shape ({n + 1},), got {indptr.shape}"
            )
        if indptr[0] != 0 or indptr[-1] != len(indices):
            raise InvalidParameterError("indptr is inconsistent with indices")
        if (np.diff(indptr) < 0).any():
            raise InvalidParameterError("indptr must be non-decreasing")
        if len(indices) != len(data):
            raise DimensionError("indices and data must have equal length")
        if len(indices) and (indices.min() < 0 or indices.max() >= n):
            raise InvalidParameterError("column indices out of range")
        self._n = n
        self._indptr = indptr
        self._indices = indices
        self._data = data
        # Expanded row index per nonzero, precomputed once so every matvec
        # is a single bincount.
        counts = np.diff(indptr)
        self._rows = np.repeat(np.arange(n, dtype=np.int64), counts)
        # Gates the reduceat fast path in matvec/matmat: segment sums
        # need every row nonempty.
        self._min_row_count = int(counts.min()) if n else 0
        # Lazily-built scipy CSR delegate for fast products (None until
        # first use; False when scipy turned out to be unavailable).
        self._scipy = None
        # Memoized ``(sigma, splu(A - sigma I))`` of shifted_factor().
        self._shifted_lu = None

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_dense(cls, dense: np.ndarray, tol: float = 0.0) -> "CSRMatrix":
        """Build from a dense square array, dropping entries ``<= tol``."""
        dense = np.asarray(dense, dtype=np.float64)
        if dense.ndim != 2 or dense.shape[0] != dense.shape[1]:
            raise DimensionError(
                f"expected a square matrix, got shape {dense.shape}"
            )
        n = dense.shape[0]
        mask = np.abs(dense) > tol
        indptr = np.zeros(n + 1, dtype=np.int64)
        indptr[1:] = mask.sum(axis=1).cumsum()
        rows, cols = np.nonzero(mask)
        return cls(n, indptr, cols, dense[rows, cols])

    @classmethod
    def from_coo(cls, n: int, rows: np.ndarray, cols: np.ndarray,
                 data: np.ndarray, sum_duplicates: bool = True) -> "CSRMatrix":
        """Build from coordinate triplets.

        Duplicate ``(row, col)`` entries are summed when
        ``sum_duplicates`` (the default), matching scipy's behaviour.
        """
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        data = np.asarray(data, dtype=np.float64)
        if not (rows.shape == cols.shape == data.shape):
            raise DimensionError("rows, cols and data must have equal shape")
        if len(rows) and (rows.min() < 0 or rows.max() >= n
                          or cols.min() < 0 or cols.max() >= n):
            raise InvalidParameterError("coordinates out of range")
        if sum_duplicates and len(rows):
            keys = rows * n + cols
            uniq, inverse = np.unique(keys, return_inverse=True)
            summed = np.bincount(inverse, weights=data,
                                 minlength=len(uniq))
            rows = uniq // n
            cols = uniq % n
            data = summed
        order = np.lexsort((cols, rows))
        rows, cols, data = rows[order], cols[order], data[order]
        indptr = np.zeros(n + 1, dtype=np.int64)
        counts = np.bincount(rows, minlength=n)
        indptr[1:] = counts.cumsum()
        return cls(n, indptr, cols, data)

    # ------------------------------------------------------------------
    # Properties
    # ------------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, int]:
        return (self._n, self._n)

    @property
    def n(self) -> int:
        return self._n

    @property
    def nnz(self) -> int:
        return len(self._data)

    @property
    def indptr(self) -> np.ndarray:
        return self._indptr

    @property
    def indices(self) -> np.ndarray:
        return self._indices

    @property
    def data(self) -> np.ndarray:
        return self._data

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------
    def _scipy_delegate(self):
        """The cached scipy CSR view of this matrix, or ``None``."""
        if self._scipy is None:
            sp = _scipy_sparse_module()
            self._scipy = False if sp is None else sp.csr_matrix(
                (self._data, self._indices, self._indptr),
                shape=(self._n, self._n),
            )
        return None if self._scipy is False else self._scipy

    def shifted_factor(self):
        """``(sigma, LU of A - sigma I)`` for shift-invert, built once.

        ``sigma = -1e-3 * max(gershgorin_upper_bound(), 1)`` sits just
        below the spectrum of a symmetric PSD matrix, so ``A - sigma I``
        is positive definite: the symmetric minimum-degree ordering on
        ``A^T + A`` with diagonal pivots fits that case and fills in far
        less than the default COLAMD, which targets unsymmetric
        matrices.  The scipy ``SuperLU`` factor is memoized on this
        instance, so the several shift-invert solves of one Fiedler
        computation share a single factorization and it is freed
        together with the matrix.  Requires scipy; like every method
        here it assumes the arrays are never mutated.
        """
        if self._shifted_lu is None:
            import scipy.sparse as sp
            import scipy.sparse.linalg as spla

            sigma = -1e-3 * max(self.gershgorin_upper_bound(), 1.0)
            shifted = self._scipy_delegate() - sigma * sp.identity(self._n)
            self._shifted_lu = (sigma, spla.splu(
                shifted.tocsc(), permc_spec="MMD_AT_PLUS_A",
                options={"SymmetricMode": True}))
        return self._shifted_lu

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """Matrix-vector product ``A @ x``."""
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self._n,):
            raise DimensionError(
                f"expected a vector of length {self._n}, got shape {x.shape}"
            )
        if self.nnz == 0:
            return np.zeros(self._n)
        delegate = self._scipy_delegate()
        if delegate is not None:
            return delegate @ x
        products = self._data * x[self._indices]
        if self._min_row_count > 0:
            # Contiguous segment sums over the CSR rows: measurably
            # faster than bincount's scattered adds, and the workhorse
            # of the scipy-free leg.  Valid only when every row is
            # nonempty (empty rows break reduceat's segment semantics);
            # Laplacians always carry their diagonal, so this is the
            # path production takes.
            return np.add.reduceat(products, self._indptr[:-1])
        return np.bincount(self._rows, weights=products,
                           minlength=self._n)

    def matmat(self, x: np.ndarray) -> np.ndarray:
        """Matrix product ``A @ X`` for a 2-D block of column vectors."""
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[0] != self._n:
            raise DimensionError(
                f"expected an ({self._n}, k) array, got shape {x.shape}"
            )
        if self.nnz == 0:
            return np.zeros_like(x)
        delegate = self._scipy_delegate()
        if delegate is not None:
            return np.asarray(delegate @ x)
        if self._min_row_count > 0:
            # Blocked counterpart of the reduceat path in matvec.  The
            # block is transposed first so each column's gather and
            # segment sum run over contiguous memory — measurably
            # faster than a 2-D reduceat along axis 0, and ~1.5x faster
            # than gathering rows of the un-transposed block.  One
            # scratch buffer serves every column (take/multiply/reduceat
            # all write in place), and the result is handed back as a
            # transposed view: downstream block arithmetic is
            # layout-agnostic, and the next matmat's own transpose of an
            # F-ordered block is then free.
            xt = np.ascontiguousarray(x.T)
            out = np.empty_like(xt)
            scratch = np.empty(self.nnz)
            starts = self._indptr[:-1]
            for j in range(xt.shape[0]):
                np.take(xt[j], self._indices, out=scratch)
                scratch *= self._data
                np.add.reduceat(scratch, starts, out=out[j])
            return out.T
        out = np.empty_like(x)
        for j in range(x.shape[1]):
            out[:, j] = self.matvec(x[:, j])
        return out

    def __matmul__(self, other):
        other = np.asarray(other)
        if other.ndim == 1:
            return self.matvec(other)
        return self.matmat(other)

    def diagonal(self) -> np.ndarray:
        """The main diagonal as a dense vector."""
        diag = np.zeros(self._n)
        on_diag = self._rows == self._indices
        np.add.at(diag, self._rows[on_diag], self._data[on_diag])
        return diag

    def to_dense(self) -> np.ndarray:
        """Dense ``(n, n)`` copy."""
        dense = np.zeros((self._n, self._n))
        np.add.at(dense, (self._rows, self._indices), self._data)
        return dense

    def is_symmetric(self, tol: float = 1e-12) -> bool:
        """Whether ``A == A.T`` up to ``tol`` (checked densely for small n,
        via transposed CSR comparison otherwise)."""
        if self._n <= 2048:
            dense = self.to_dense()
            return bool(np.allclose(dense, dense.T, atol=tol))
        transposed = CSRMatrix.from_coo(
            self._n, self._indices, self._rows, self._data
        )
        if transposed.nnz != self.nnz:
            return False
        return (np.array_equal(transposed.indptr, self._indptr)
                and np.array_equal(transposed.indices, self._indices)
                and np.allclose(transposed.data, self._data, atol=tol))

    def gershgorin_upper_bound(self) -> float:
        """An upper bound on the largest eigenvalue (Gershgorin circles)."""
        diag = self.diagonal()
        row_abs = np.bincount(self._rows, weights=np.abs(self._data),
                              minlength=self._n)
        on_diag = self._rows == self._indices
        diag_abs = np.bincount(self._rows[on_diag],
                               weights=np.abs(self._data[on_diag]),
                               minlength=self._n)
        off_abs = row_abs - diag_abs
        if self._n == 0:
            return 0.0
        return float((diag + off_abs).max())

    def __repr__(self) -> str:
        return f"CSRMatrix(n={self._n}, nnz={self.nnz})"
