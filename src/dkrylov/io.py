"""Problem files: Matrix Market, the one format for user-supplied arrays.

A, b, x0 and a deflation basis are read from Matrix Market files on the
command line.  They are written in the dense ``array`` format, and read in
it or in the ``coordinate`` format that scipy writes for a sparse matrix,
which is densified.  Arrays are read back in their field
(:func:`linalg.in_field`): float64 when no entry has a nonzero imaginary
part, complex128 otherwise; float64 and complex128 entries round-trip bit
for bit.

``scipy.io`` (and with it ``scipy.sparse``) is imported on first use, so
that a process which never reads or writes such a file does not load it.
"""

from __future__ import annotations

import numpy as np

from . import linalg


def write_matrix_market(path, array) -> None:
    """Write a dense vector or matrix in Matrix Market array format."""
    import scipy.io

    arr = np.asarray(array, dtype=np.complex128)
    if arr.ndim == 1:
        arr = arr.reshape(-1, 1)
    scipy.io.mmwrite(str(path), arr)


def read_matrix_market(path) -> np.ndarray:
    """Read a Matrix Market file as a dense array; single-column matrices come
    back 1-d.  A ``coordinate`` file, which scipy reads as a sparse matrix, is
    densified."""
    import scipy.io

    arr = scipy.io.mmread(str(path))
    if not isinstance(arr, np.ndarray):
        arr = arr.toarray()
    arr = linalg.in_field(arr)
    if arr.ndim == 2 and arr.shape[1] == 1:
        return arr.ravel()
    return arr
