"""Linear operator abstraction over dense matrices and projected compositions.

Solvers only ever see a :class:`LinearOperator`; whether the underlying map is
a plain matrix, a left-projected matrix or a two-sided projected matrix is a
construction detail.  Projected operators apply the projector and the base
matrix-vector product as a composition; the projected matrix is never formed.

The operator contract: a map is deterministic and linear, and its
``hermitian`` flag, a bool, is True only of a Hermitian map.  Nothing probes it at run
time.  The operators built here keep it by construction: P A and P A P are
linear, and each takes its flag from the one verdict on A that
:class:`linalg.SquareMatrix` makes, through ``Deflator.a_hermitian`` for the
projected ones.  A map given by the caller is trusted to keep it.
"""

from __future__ import annotations

import operator

import numpy as np

from . import linalg
from .projection import Deflator, GalerkinMode


class LinearOperator:
    """Square linear map on C^n with an explicit symmetry declaration.

    ``hermitian`` is a bool, False by default; CG and MINRES run only a map
    flagged True.  ``dtype`` is the field of the map's data, as in
    :class:`scipy.sparse.linalg.LinearOperator`: float64 for a map with real
    entries, complex128 otherwise (the default, which is always correct).  A
    solver runs in the common field of the operator, the right-hand side and
    the initial guess, so a real operator still maps complex vectors and must
    do so linearly.  The map keeps the module's operator contract, which is
    not checked.  ``dim`` is an integer of at least 1, a numpy one included;
    a bool or a fractional one is rejected.
    """

    def __init__(self, dim: int, matvec, hermitian: bool = False, dtype=np.complex128):
        try:
            n = operator.index(dim)                  # numpy integers pass
        except TypeError:
            n = 0
        if isinstance(dim, bool) or n < 1:
            raise ValueError("operator dimension must be an integer of at least 1")
        self.dim = n
        self._matvec = matvec
        self.hermitian = hermitian
        self.dtype = np.dtype(dtype)

    def apply(self, v) -> np.ndarray:
        """The map applied to ``v``, which it receives in the common field of
        ``v`` and ``dtype``.  A float64 vector of length ``dim`` against a
        float64 map, and a float64 result of that length, pass unconverted."""
        if not (self.dtype == np.float64 and linalg.is_float_vector(v, self.dim)):
            v = linalg.as_vector(v, self.dim)
            v = v.astype(np.result_type(v, self.dtype), copy=False)
        out = self._matvec(v)
        return out if linalg.is_float_vector(out, self.dim) else linalg.as_vector(out, self.dim)

    def __repr__(self):
        return f"<LinearOperator dim={self.dim} hermitian={self.hermitian}>"


def dense_operator(a) -> LinearOperator:
    """Wrap a dense square matrix, looked at once through one
    :class:`linalg.SquareMatrix`: it rejects a non-finite entry, applies
    ``a`` by its ``product`` and takes its ``hermitian`` flag, which needs no
    norm estimate for an exactly Hermitian ``a``.  The operator's ``dtype``
    is the field of ``a``.
    """
    matrix = linalg.SquareMatrix(a)
    return LinearOperator(matrix.a.shape[0], matrix.product, matrix.hermitian,
                          dtype=matrix.a.dtype)


def deflated_operator(deflator: Deflator, kind: str = "left") -> LinearOperator:
    """Projected composition of a deflator with its base matrix.

    kind "left" applies the residual projector after the matrix product; the
    result is singular and, in residual-minimizing mode, in general not
    Hermitian.  kind "two_sided" (residual-minimizing mode only) projects on
    both sides, which restores hermiticity whenever the base matrix is
    Hermitian.  Both are linear by construction, and the ``hermitian`` flag
    follows from the mode and ``deflator.a_hermitian``.  Its ``dtype`` is
    the deflator's field, and it multiplies by the base matrix through the
    deflator's ``a_product``.
    """
    a_product = deflator.a_product
    if kind == "left":
        matvec = lambda v: deflator.project_residual(a_product(v))  # noqa: E731
        if deflator.mode is GalerkinMode.RESIDUAL_ORTHOGONAL:
            hermitian = deflator.a_hermitian
        else:
            hermitian = False
    elif kind == "two_sided":
        if deflator.mode is not GalerkinMode.RESIDUAL_MINIMIZING:
            raise ValueError("two_sided operators require residual-minimizing mode")
        matvec = lambda v: deflator.project_residual(  # noqa: E731
            a_product(deflator.project_residual(v)))
        hermitian = deflator.a_hermitian
    else:
        raise ValueError(f"unknown operator kind {kind!r}")
    return LinearOperator(deflator.dim, matvec, hermitian, dtype=deflator.a.dtype)
