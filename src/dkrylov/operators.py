"""Linear operator abstraction over dense matrices and projected compositions.

Solvers only ever see a :class:`LinearOperator`; whether the underlying map is
a plain matrix, a left-projected matrix or a two-sided projected matrix is a
construction detail.  Projected operators apply the projector and the base
matrix-vector product as a composition; the projected matrix is never formed.
"""

from __future__ import annotations

import numpy as np

from . import linalg
from .projection import Deflator, GalerkinMode

#: Relative tolerance for the construction-time linearity/symmetry spot checks.
PROBE_TOLERANCE = 1e-12

_PROBE_COUNT = 3


class LinearOperator:
    """Square linear map on C^n with an explicit symmetry declaration.

    ``hermitian`` is True, False or None (unknown).  ``dtype`` is the field
    of the map's data, as in :class:`scipy.sparse.linalg.LinearOperator`:
    float64 for a map with real entries, complex128 otherwise (the default,
    which is always correct).  A solver runs in the common field of the
    operator, the right-hand side and the initial guess, so a real operator
    still maps complex vectors and must do so linearly.  The map must be
    deterministic and linear; ``verify`` spot-checks both properties with a
    few seeded probe vectors.
    """

    def __init__(self, dim: int, matvec, hermitian: bool | None = None, label: str = "",
                 dtype=np.complex128):
        if dim < 1:
            raise ValueError("operator dimension must be at least 1")
        self.dim = int(dim)
        self._matvec = matvec
        self.hermitian = hermitian
        self.label = label
        self.dtype = np.dtype(dtype)

    def apply(self, v) -> np.ndarray:
        """The map applied to ``v``, which it receives in the common field of
        ``v`` and ``dtype``."""
        v = linalg.as_vector(v, self.dim)
        v = v.astype(np.result_type(v, self.dtype), copy=False)
        return linalg.as_vector(self._matvec(v), self.dim)

    def verify(self, tol: float = PROBE_TOLERANCE) -> None:
        """Spot-check linearity and (if declared) the Hermitian property.

        Uses a fixed seed derived from the dimension so the check itself is
        deterministic; raises ValueError on a violated contract.
        """
        rng = np.random.default_rng(0xD06 + self.dim)
        scale = 0.0
        probes = []
        for _ in range(_PROBE_COUNT):
            x = rng.standard_normal(self.dim) + 1j * rng.standard_normal(self.dim)
            ax = self.apply(x)
            scale = max(scale, linalg.vector_norm(ax) / linalg.vector_norm(x))
            probes.append((x, ax))
        floor = np.finfo(float).tiny
        for (x, ax), (y, ay) in zip(probes, probes[1:]):
            alpha, beta = 0.37 - 0.21j, -1.11 + 0.52j
            lhs = self.apply(alpha * x + beta * y)
            rhs = alpha * ax + beta * ay
            bound = tol * max(scale, floor) * (linalg.vector_norm(x) + linalg.vector_norm(y))
            if linalg.vector_norm(lhs - rhs) > max(bound, tol):
                raise ValueError(f"operator {self.label or ''} failed the linearity probe")
            if self.hermitian:
                defect = abs(linalg.inner(ax, y) - linalg.inner(x, ay))
                bound = tol * max(scale, floor) * linalg.vector_norm(x) * linalg.vector_norm(y)
                if defect > max(bound, tol):
                    raise ValueError(
                        f"operator {self.label or ''} declared Hermitian but failed the probe"
                    )

    def __repr__(self):
        sym = {True: "hermitian", False: "non-hermitian", None: "unknown"}[self.hermitian]
        name = f" {self.label!r}" if self.label else ""
        return f"<LinearOperator{name} dim={self.dim} {sym}>"


def dense_operator(a) -> LinearOperator:
    """Wrap a dense square matrix, looked at once through one
    :class:`linalg.SquareMatrix`: it rejects a non-finite entry, applies
    ``a`` by its ``product`` and takes its ``hermitian`` flag, which needs no
    norm estimate for an exactly Hermitian ``a``.  The operator's ``dtype``
    is the field of ``a``.
    """
    matrix = linalg.SquareMatrix(a)
    return LinearOperator(matrix.a.shape[0], matrix.product, matrix.hermitian,
                          label="dense", dtype=matrix.a.dtype)


def deflated_operator(deflator: Deflator, kind: str = "left") -> LinearOperator:
    """Projected composition of a deflator with its base matrix.

    kind "left" applies the residual projector after the matrix product; the
    result is singular and, in residual-minimizing mode, in general not
    Hermitian.  kind "two_sided" (residual-minimizing mode only) projects on
    both sides, which restores hermiticity whenever the base matrix is
    Hermitian.  The composition is spot-checked with
    :meth:`LinearOperator.verify` before it is returned.  Its ``dtype`` is
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
        label = "left-projected"
    elif kind == "two_sided":
        if deflator.mode is not GalerkinMode.RESIDUAL_MINIMIZING:
            raise ValueError("two_sided operators require residual-minimizing mode")
        matvec = lambda v: deflator.project_residual(  # noqa: E731
            a_product(deflator.project_residual(v)))
        hermitian = deflator.a_hermitian
        label = "two-sided-projected"
    else:
        raise ValueError(f"unknown operator kind {kind!r}")
    op = LinearOperator(deflator.dim, matvec, hermitian, label=label,
                        dtype=deflator.a.dtype)
    op.verify()
    return op
