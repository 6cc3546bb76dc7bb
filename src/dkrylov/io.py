"""Problem serialization: a line-oriented text container and Matrix Market.

The text container stores every array as "re im" pairs, one entry per line in
row-major order, preceded by a header naming the field and its shape.  Matrix
Market files are the interchange format for user-supplied matrices on the
command line: they are written in the dense ``array`` format, and read in it
or in the ``coordinate`` format that scipy writes for a sparse matrix, which
is densified.  Arrays are read back in their field (:func:`linalg.in_field`):
float64 when no entry has a nonzero imaginary part, complex128 otherwise.

``scipy.io`` (and with it ``scipy.sparse``) is imported on first use, by the
two Matrix Market functions, so that a process which never reads or writes
such a file does not load it.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

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


def _integer(text: str, where: str, what: str, least=None) -> int:
    """``text`` as an integer, or a ValueError that names ``where``."""
    try:
        value = int(text)
    except ValueError:
        value = None
    if value is None or (least is not None and value < least):
        kind = "an integer" if least is None else f"an integer of at least {least}"
        raise ValueError(f"{where}: {what} must be {kind}, got {text.strip()!r}")
    return value


def _entry(path, text: list[str], j: int) -> complex:
    """The entry of the "re im" line ``text[j]``, or a ValueError that names
    the line."""
    try:
        re_s, im_s = text[j].split()
        return float(re_s) + 1j * float(im_s)
    except ValueError:
        raise ValueError(f"{path}:{j + 1}: expected two numbers, "
                         f"got {text[j].strip()!r}") from None


def load_problem(path) -> TestProblem:
    """Read a problem from the text container format.

    A malformed seed, array header or entry line is rejected with a
    ValueError that names the path and the 1-based line, and an array's
    header is checked against the lines that remain before its entries are
    read.
    """
    text = Path(path).read_text(encoding="ascii").splitlines()
    if not text or text[0].strip() != _MAGIC:
        raise ValueError(f"{path}: not a problem container (bad magic line)")
    fields: dict = {"label": "", "seed": 0}
    i = 1
    while i < len(text):
        line = text[i].strip()
        i += 1
        where = f"{path}:{i}"
        if not line:
            continue
        if line.startswith("label:"):
            fields["label"] = line.split(":", 1)[1].strip()
        elif line.startswith("seed:"):
            fields["seed"] = _integer(line.split(":", 1)[1], where, "seed")
        elif line.startswith("array "):
            words = line.split()
            if len(words) != 4:
                raise ValueError(f"{where}: expected 'array NAME ROWS COLS', got {line!r}")
            _, name, rows, cols = words
            if name not in _ARRAY_FIELDS:
                raise ValueError(f"{where}: unknown array field {name!r}")
            rows = _integer(rows, where, f"array {name} rows", least=1)
            cols = _integer(cols, where, f"array {name} columns", least=1)
            count = rows * cols
            if count > len(text) - i:
                raise ValueError(f"{where}: array {name} needs {count} entry lines, "
                                 f"{len(text) - i} remain")
            data = np.array([_entry(path, text, j) for j in range(i, i + count)],
                            dtype=np.complex128)
            i += count
            arr = data.reshape(rows, cols)
            if cols == 1 and name in ("b", "x0", "known_solution", "known_spectrum"):
                arr = arr.ravel()
            fields[name] = linalg.in_field(arr)
        else:
            raise ValueError(f"{where}: unexpected line {line!r}")
    if "a" not in fields or "b" not in fields:
        raise ValueError(f"{path}: container must define at least 'a' and 'b'")
    fields.setdefault("x0", np.zeros(fields["a"].shape[0]))
    if "known_spectrum" in fields:
        fields["known_spectrum"] = np.real(fields["known_spectrum"])
    return TestProblem(**fields)


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
