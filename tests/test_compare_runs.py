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
