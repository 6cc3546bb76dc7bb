import importlib.util
from pathlib import Path

import numpy as np
import pytest

_SPEC = importlib.util.spec_from_file_location(
    "compare_runs", Path(__file__).resolve().parents[1] / "scripts" / "compare_runs.py")
compare_runs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(compare_runs)


class TestPairedSummary:
    def test_constant_ratio_has_a_point_interval(self):
        summary = compare_runs.paired_summary([2.0, 4.0, 6.0, 8.0], [1.0, 2.0, 3.0, 4.0])
        np.testing.assert_array_equal(summary["this"], [3.5, 5.0, 6.5])
        np.testing.assert_array_equal(summary["other"], [1.75, 2.5, 3.25])
        assert summary["ratio"] == 2.0
        assert summary["interval"] == (2.0, 2.0)

    def test_interval_is_seeded_and_brackets_the_median(self):
        # Ratios 0.90 .. 1.00 in 0.01 steps over twenty pairs, two of them
        # out at 1.5: the median pair ratio is 0.955, and the resampled
        # medians stay inside the bulk of the pairs.
        other = np.linspace(80.0, 120.0, 20)
        ratios = np.r_[np.linspace(0.90, 1.00, 18), 1.5, 1.5]
        first = compare_runs.paired_summary(other * ratios, other)
        again = compare_runs.paired_summary(other * ratios, other)
        assert first["interval"] == again["interval"]
        low, high = first["interval"]
        assert first["ratio"] == pytest.approx(np.median(ratios), rel=1e-15)
        assert 0.90 <= low < first["ratio"] < high <= 1.00


class TestProductCounter:
    def test_counts_the_columns_of_every_product_and_restores_the_class(self):
        from dkrylov import linalg

        a = np.diag(np.arange(1.0, 41.0))
        with compare_runs.product_counter(linalg.SquareMatrix) as counter:
            matrix = linalg.SquareMatrix(a)
            np.testing.assert_array_equal(matrix.product(np.ones(40)), np.diag(a))
            matrix.product(np.ones((40, 3)))
            matrix.product(np.ones(40, dtype=complex))
            assert counter == [5]
        linalg.SquareMatrix(a).product(np.ones(40))
        assert counter == [5]

    def test_compare_prints_both_counts(self, capsys):
        run = {"b_norm": 1.0, "final": 0.5, "products": 17,
               "fields": {"report.deflated_report.status": "converged",
                          "report.deflated_report.iterations_used": 14,
                          "report.original_residual_norms": np.ones(3),
                          "report.deflated_report.residual_norms": np.ones(3)}}
        this = {("system", "deflated-cg"): {**run, "products": 16}}
        other = {("system", "deflated-cg"): run}
        assert compare_runs.compare(this, other, ("1", "1")) == 0
        out = capsys.readouterr().out
        assert " 16/17 " in out
        assert "products with A: this 16, other 17" in out


class TestChangedFields:
    @staticmethod
    def run(iterates, corrected):
        return {"b_norm": 1.0, "final": 0.5, "products": 3,
                "fields": {"report.deflated_report.status": "converged",
                           "report.deflated_report.iterations_used": 2,
                           "report.original_residual_norms": np.ones(3),
                           "report.deflated_report.residual_norms": np.ones(3),
                           "report.deflated_report.iterates[0]": iterates[0],
                           "report.deflated_report.iterates[11]": iterates[1],
                           "report.diagnostics[original_residual_norm]": 0.5,
                           "report.corrected_iterate": corrected}}

    def test_summary_names_every_differing_field_once_per_variant(self, capsys):
        base = self.run((np.zeros(2), np.zeros(2)), np.ones(2))
        this = {("s1", "deflated-minres-adapted-guess"):
                self.run((np.ones(2), np.ones(2)), np.ones(2)),
                ("s2", "deflated-minres-adapted-guess"):
                self.run((np.zeros(2), np.zeros(2)), np.zeros(2)),
                ("s1", "deflated-minres"): base}
        other = dict.fromkeys(this, base)
        assert compare_runs.compare(this, other, ("1", "1")) == 0
        out = capsys.readouterr().out
        assert ("fields that differ in deflated-minres-adapted-guess: "
                "report.corrected_iterate, report.deflated_report.iterates[*]\n") in out
        assert "fields that differ in deflated-minres:" not in out

    def test_only_list_indices_are_folded(self):
        assert (compare_runs.fold_indices("report.deflated_report.iterates[12]")
                == "report.deflated_report.iterates[*]")
        assert (compare_runs.fold_indices("report.diagnostics[original_residual_norm]")
                == "report.diagnostics[original_residual_norm]")
