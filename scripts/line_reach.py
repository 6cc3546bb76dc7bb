"""List the statements of ``src/dkrylov`` that the tier-1 tests never run.

    python scripts/line_reach.py [PYTEST_ARGUMENT ...]

``coverage`` is not a dependency, so the script traces lines itself.  It
writes a ``sitecustomize.py`` (:data:`TRACER`) into a temporary directory and
runs ``python -m pytest -q`` once from the repository root, with every BLAS
thread variable set to 1 and ``PYTHONPATH`` set to that directory and
``src``.  Python imports the file at start-up, in the test process and in
every Python subprocess the tests start with that environment; it installs
``sys.settrace`` and ``threading.settrace``, keeps the lines run in files
under ``src/dkrylov`` and writes them to the directory when its process
exits.  The script merges the hits of all processes and prints every
statement of the package that none of them ran, docstrings excluded, as
``file:line text``, then the pytest summary and a count on standard error.

A statement counts as run when any line of its own is: for a compound
statement its header, decorators included, up to its first body statement.
It is a report, not a check: it exits 0 whatever the tests or the count.
Tracing makes the suite about twice as slow.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "dkrylov"

#: The environment variables that set a BLAS library's thread count.
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

#: The ``sitecustomize.py`` that records, per process, the lines run under
#: ``{package}`` into ``{out}/hits-PID.json``.
TRACER = '''\
import atexit, json, os, sys, threading

_PACKAGE = {package!r}
_hits = set()


def _line(frame, event, arg):
    if event == "line":
        _hits.add((frame.f_code.co_filename, frame.f_lineno))
    return _line


def _call(frame, event, arg):
    return _line if frame.f_code.co_filename.startswith(_PACKAGE) else None


def _write():
    sys.settrace(None)
    with open(os.path.join({out!r}, "hits-%d.json" % os.getpid()), "w") as f:
        json.dump(sorted(_hits), f)


sys.settrace(_call)
threading.settrace(_call)
atexit.register(_write)
'''


def _own_lines(node: ast.stmt) -> range:
    """The lines that belong to ``node`` itself and not to a nested statement."""
    first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
    body = getattr(node, "body", None)
    if isinstance(body, list) and body:
        return range(first, max(first + 1, body[0].lineno))
    return range(first, node.end_lineno + 1)


def _is_docstring(node: ast.stmt, parent: ast.AST) -> bool:
    return (isinstance(parent, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                ast.AsyncFunctionDef))
            and parent.body[0] is node and isinstance(node, ast.Expr)
            and isinstance(node.value, ast.Constant) and isinstance(node.value.value, str))


def statements(path: Path) -> list[ast.stmt]:
    """Every statement of the file at ``path`` except its docstrings."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found = []
    for parent in ast.walk(tree):
        for child in ast.iter_child_nodes(parent):
            if isinstance(child, ast.stmt) and not _is_docstring(child, parent):
                found.append(child)
    return sorted(found, key=lambda node: node.lineno)


def run_traced(pytest_args: list[str]) -> tuple[dict[Path, set[int]], str]:
    """Run the tests under the tracer: the lines hit per file, and pytest's
    last line of output."""
    with tempfile.TemporaryDirectory() as tmp:
        Path(tmp, "sitecustomize.py").write_text(
            TRACER.format(package=str(PACKAGE) + os.sep, out=tmp), encoding="utf-8")
        env = {**os.environ, **dict.fromkeys(THREAD_VARIABLES, "1"),
               "PYTHONPATH": os.pathsep.join([tmp, str(ROOT / "src")])}
        proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                               *pytest_args], cwd=ROOT, env=env, capture_output=True, text=True)
        hits: dict[Path, set[int]] = {}
        for dump in Path(tmp).glob("hits-*.json"):
            for filename, line in json.loads(dump.read_text(encoding="utf-8")):
                hits.setdefault(Path(filename).resolve(), set()).add(line)
    lines = proc.stdout.strip().splitlines()
    return hits, lines[-1] if lines else proc.stderr.strip()


def main(argv=None) -> int:
    pytest_args = sys.argv[1:] if argv is None else argv
    start = time.perf_counter()
    hits, summary = run_traced(pytest_args)
    elapsed = time.perf_counter() - start
    total = unreached = 0
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text(encoding="utf-8").splitlines()
        ran = hits.get(path.resolve(), set())
        for node in statements(path):
            total += 1
            if ran.isdisjoint(_own_lines(node)):
                unreached += 1
                print(f"{path.relative_to(ROOT)}:{node.lineno} {text[node.lineno - 1].strip()}")
    print(f"{summary} ({elapsed:.1f} s traced); {unreached} of {total} statements unreached",
          file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
