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

    ``hermitian`` is True, False or None (unknown).  The map must be
    deterministic and linear; ``verify`` spot-checks both properties with a
    few seeded probe vectors.
    """

    def __init__(self, dim: int, matvec, hermitian: bool | None = None, label: str = ""):
        if dim < 1:
            raise ValueError("operator dimension must be at least 1")
        self.dim = int(dim)
        self._matvec = matvec
        self.hermitian = hermitian
        self.label = label

    def apply(self, v) -> np.ndarray:
        v = linalg.as_vector(v, self.dim)
        out = linalg.as_vector(self._matvec(v), self.dim)
        return out

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
    """Wrap a dense square matrix; the symmetry flag is set by an explicit test.

    The test is :func:`linalg.norm_estimate_and_hermitian`: ||a - a^H||_F
    against an estimate of ||a||_2, with no n-by-n SVD.  It accepts no matrix
    that the exact oracle :func:`linalg.is_hermitian` rejects.
    """
    a = linalg.as_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise ValueError("matrix must be square")
    _, hermitian = linalg.norm_estimate_and_hermitian(a)
    return LinearOperator(a.shape[0], lambda v: a @ v, hermitian, label="dense")


def deflated_operator(deflator: Deflator, kind: str = "left") -> LinearOperator:
    """Projected composition of a deflator with its base matrix.

    kind "left" applies the residual projector after the matrix product; the
    result is singular and, in residual-minimizing mode, in general not
    Hermitian.  kind "two_sided" (residual-minimizing mode only) projects on
    both sides, which restores hermiticity whenever the base matrix is
    Hermitian.  The composition is spot-checked with
    :meth:`LinearOperator.verify` before it is returned.
    """
    a = deflator.a
    if kind == "left":
        matvec = lambda v: deflator.project_residual(a @ v)  # noqa: E731
        if deflator.mode is GalerkinMode.RESIDUAL_ORTHOGONAL:
            hermitian = deflator.a_hermitian
        else:
            hermitian = False
        label = "left-projected"
    elif kind == "two_sided":
        if deflator.mode is not GalerkinMode.RESIDUAL_MINIMIZING:
            raise ValueError("two_sided operators require residual-minimizing mode")
        matvec = lambda v: deflator.project_residual(a @ deflator.project_residual(v))  # noqa: E731
        hermitian = deflator.a_hermitian
        label = "two-sided-projected"
    else:
        raise ValueError(f"unknown operator kind {kind!r}")
    op = LinearOperator(deflator.dim, matvec, hermitian, label=label)
    op.verify()
    return op
