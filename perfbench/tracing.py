"""Timing spans around dkrylov's public names, installed from outside the library.

The traced run replaces each function listed in ``TARGETS`` by a wrapper that
records one span (name, start, end, parent, op) per call.  A module-level
function is rebound in every ``dkrylov`` module namespace that binds it
(``cg_solve`` lives in both ``solvers`` and ``deflated``); a method is
replaced on its class.  A target that no longer exists is reported as absent
instead of failing the run.

Spans are kept in flat integer arrays while the workload runs and are
summarised into per-op layer metrics, and written out, after the timed loop.
"""

from __future__ import annotations

import array
import functools
import importlib
import sys
import time

import numpy as np

OP = "op"

#: Span name -> (module of dkrylov, attribute path) pairs it wraps.
TARGETS = {
    "linalg.norm2": [("linalg", "spectral_norm")],
    "linalg.cholesky": [("linalg", "cholesky_factor_checked")],
    "linalg.givens": [("linalg", "givens_qr_step")],
    "projection.init": [("projection", "Deflator.__init__")],
    "projection.project_residual": [("projection", "Deflator.project_residual")],
    "projection.correct": [("projection", "Deflator.correct_iterate"),
                           ("projection", "Deflator.correct_two_sided_iterate"),
                           ("projection", "Deflator.initial_correction"),
                           ("projection", "Deflator.adapted_initial_guess")],
    "operators.apply": [("operators", "LinearOperator.apply")],
    "operators.verify": [("operators", "LinearOperator.verify")],
    "solvers": [("solvers", "cg_solve"), ("solvers", "minres_solve"),
                ("solvers", "gmres_solve")],
    "deflated": [("deflated", "run_method")],
    "problems.generate": [("problems", "symmetric_indefinite_problem"),
                          ("problems", "clustered_spd_problem")],
    "cli": [("cli", "main")],
}

SPAN_NAMES = (OP, *TARGETS)
OP_ID = 0


class NullTracer:
    """Stand-in used by untraced runs, so both runs execute the same loop."""

    op_id = -1

    def open(self, name_id: int) -> int:
        return 0

    def close(self, index: int) -> None:
        pass


class Tracer:
    """In-memory span recorder for a single thread."""

    def __init__(self):
        self.name = array.array("q")
        self.parent = array.array("q")
        self.op = array.array("q")
        self.start = array.array("q")
        self.end = array.array("q")
        self.stack: list[int] = []
        self.op_id = -1
        self.absent: list[str] = []

    def open(self, name_id: int) -> int:
        index = len(self.name)
        self.name.append(name_id)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.op.append(self.op_id)
        self.end.append(0)
        self.stack.append(index)
        self.start.append(time.perf_counter_ns())
        return index

    def close(self, index: int) -> None:
        self.end[index] = time.perf_counter_ns()
        self.stack.pop()

    def install(self, package: str = "dkrylov") -> None:
        """Wrap every target; record the ones that cannot be found as absent."""
        modules = [m for key, m in list(sys.modules.items())
                   if key == package or key.startswith(package + ".")]
        for name_id, span in enumerate(SPAN_NAMES):
            for module_name, path in TARGETS.get(span, ()):
                owner_path, _, attr = path.rpartition(".")
                try:
                    owner = importlib.import_module(f"{package}.{module_name}")
                    for part in filter(None, owner_path.split(".")):
                        owner = getattr(owner, part)
                    original = getattr(owner, attr)
                except (ImportError, AttributeError):
                    self.absent.append(f"{module_name}.{path}")
                    continue
                wrapped = self._wrap(original, name_id)
                if owner_path:
                    setattr(owner, attr, wrapped)
                    continue
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, key, wrapped)

    def _wrap(self, fn, name_id: int):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.open(name_id)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(index)
        return traced

    def arrays(self) -> dict:
        return {key: np.frombuffer(getattr(self, key), dtype=np.int64).copy()
                for key in ("name", "parent", "op", "start", "end")}

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(SPAN_NAMES), **self.arrays())

    def layer_metrics(self, iterations_per_op: float) -> dict:
        """Per-op layer metrics of the spans recorded inside timed ops.

        Inclusive times count only the outermost span of a name, so a layer
        that calls itself is not counted twice; self time is a span's
        duration minus that of its direct children.
        """
        s = self.arrays()
        name, parent = s["name"], s["parent"]
        dur = (s["end"] - s["start"]).astype(float)
        has_parent = parent >= 0
        child = np.zeros_like(dur)
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_time = dur - child

        names, parents = name.tolist(), parent.tolist()
        outermost = np.ones(len(names), dtype=bool)
        ancestors = [0] * len(names)
        for i, (nid, p) in enumerate(zip(names, parents)):
            if p >= 0:
                ancestors[i] = ancestors[p] | (1 << names[p])
                outermost[i] = not (ancestors[i] >> nid) & 1

        in_op = s["op"] >= 0
        ops = in_op & (name == OP_ID)
        n_ops = max(int(ops.sum()), 1)
        op_children = in_op & has_parent & (name[np.maximum(parent, 0)] == OP_ID)

        def calls(span):
            return int((in_op & (name == SPAN_NAMES.index(span))).sum())

        def inclusive_ns(span):
            sel = in_op & (name == SPAN_NAMES.index(span)) & outermost
            return float(dur[sel].sum())

        def self_ns(span):
            return float(self_time[in_op & (name == SPAN_NAMES.index(span))].sum())

        def per_call_us(total_ns, span):
            count = calls(span)
            return total_ns / count / 1e3 if count else 0.0

        apply_calls = calls("operators.apply") / n_ops
        return {
            "linalg.norm2_calls": calls("linalg.norm2") / n_ops,
            "linalg.norm2_ms": inclusive_ns("linalg.norm2") / n_ops / 1e6,
            "linalg.cholesky_ms": inclusive_ns("linalg.cholesky") / n_ops / 1e6,
            "linalg.givens_calls": calls("linalg.givens") / n_ops,
            "linalg.givens_us": per_call_us(inclusive_ns("linalg.givens"), "linalg.givens"),
            "projection.init_calls": calls("projection.init") / n_ops,
            "projection.init_ms": inclusive_ns("projection.init") / n_ops / 1e6,
            "projection.project_residual_calls": calls("projection.project_residual") / n_ops,
            "projection.project_residual_us": per_call_us(
                self_ns("projection.project_residual"), "projection.project_residual"),
            "projection.correct_ms": inclusive_ns("projection.correct") / n_ops / 1e6,
            "operators.apply_calls": apply_calls,
            "operators.apply_us": per_call_us(self_ns("operators.apply"), "operators.apply"),
            "operators.applies_per_iter": (apply_calls / iterations_per_op
                                           if iterations_per_op else 0.0),
            "operators.verify_ms": inclusive_ns("operators.verify") / n_ops / 1e6,
            "solvers.self_ms": self_ns("solvers") / n_ops / 1e6,
            "deflated.self_ms": self_ns("deflated") / n_ops / 1e6,
            "problems.generate_ms": inclusive_ns("problems.generate") / n_ops / 1e6,
            "cli.self_ms": self_ns("cli") / n_ops / 1e6,
            "trace.coverage": float(dur[op_children].sum() / max(dur[ops].sum(), 1.0)),
        }
