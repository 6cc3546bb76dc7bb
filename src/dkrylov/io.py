"""Problem serialization: a line-oriented text container and Matrix Market.

The text container stores every array as "re im" pairs, one entry per line in
row-major order, preceded by a header naming the field and its shape.  Matrix
Market files use the dense ``array`` format via scipy and serve as the
interchange format for user-supplied matrices on the command line.  Arrays are
read back in their field (:func:`linalg.in_field`): float64 when no entry has
a nonzero imaginary part, complex128 otherwise.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import scipy.io

from . import linalg
from .problems import TestProblem

_MAGIC = "dkrylov-problem 1"

_ARRAY_FIELDS = ("a", "b", "x0", "u", "known_solution", "known_spectrum",
                 "eigenvectors")


def save_problem(path, problem: TestProblem) -> None:
    """Write a problem to the text container format."""
    lines = [_MAGIC]
    lines.append(f"label: {problem.label}")
    lines.append(f"seed: {problem.seed}")
    for name in _ARRAY_FIELDS:
        value = getattr(problem, name)
        if value is None:
            continue
        arr = np.atleast_2d(np.asarray(value, dtype=np.complex128))
        if np.asarray(value).ndim <= 1:
            arr = arr.reshape(-1, 1)
        lines.append(f"array {name} {arr.shape[0]} {arr.shape[1]}")
        for entry in arr.ravel(order="C"):
            lines.append(f"{entry.real:.17e} {entry.imag:.17e}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")


def load_problem(path) -> TestProblem:
    """Read a problem from the text container format."""
    text = Path(path).read_text(encoding="ascii").splitlines()
    if not text or text[0].strip() != _MAGIC:
        raise ValueError(f"{path}: not a problem container (bad magic line)")
    fields: dict = {"label": "", "seed": 0}
    i = 1
    while i < len(text):
        line = text[i].strip()
        i += 1
        if not line:
            continue
        if line.startswith("label:"):
            fields["label"] = line.split(":", 1)[1].strip()
        elif line.startswith("seed:"):
            fields["seed"] = int(line.split(":", 1)[1].strip())
        elif line.startswith("array "):
            _, name, rows, cols = line.split()
            if name not in _ARRAY_FIELDS:
                raise ValueError(f"{path}: unknown array field {name!r}")
            rows, cols = int(rows), int(cols)
            count = rows * cols
            data = np.empty(count, dtype=np.complex128)
            for j in range(count):
                re_s, im_s = text[i + j].split()
                data[j] = float(re_s) + 1j * float(im_s)
            i += count
            arr = data.reshape(rows, cols)
            if cols == 1 and name in ("b", "x0", "known_solution", "known_spectrum"):
                arr = arr.ravel()
            fields[name] = linalg.in_field(arr)
        else:
            raise ValueError(f"{path}: unexpected line {line!r}")
    if "a" not in fields or "b" not in fields:
        raise ValueError(f"{path}: container must define at least 'a' and 'b'")
    fields.setdefault("x0", np.zeros(fields["a"].shape[0]))
    if "known_spectrum" in fields:
        fields["known_spectrum"] = np.real(fields["known_spectrum"])
    return TestProblem(**fields)


def write_matrix_market(path, array) -> None:
    """Write a dense vector or matrix in Matrix Market array format."""
    arr = np.asarray(array, dtype=np.complex128)
    if arr.ndim == 1:
        arr = arr.reshape(-1, 1)
    scipy.io.mmwrite(str(path), arr)


def read_matrix_market(path) -> np.ndarray:
    """Read a dense Matrix Market file; single-column matrices come back 1-d."""
    arr = linalg.in_field(scipy.io.mmread(str(path)))
    if arr.ndim == 2 and arr.shape[1] == 1:
        return arr.ravel()
    return arr
