import importlib.util
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from dkrylov import GalerkinMode, checks, linalg, projection

_SPEC = importlib.util.spec_from_file_location(
    "compare_runs", Path(__file__).resolve().parents[1] / "scripts" / "compare_runs.py")
compare_runs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(compare_runs)


class TestJudge:
    # Ten pairs of a lower-is-better metric; the other side's quartiles are
    # 99.25 and 100.75 around its median 100, a distance of 1.5.
    OTHER = np.array([98.0, 99.0, 99.0, 100.0, 100.0, 100.0, 100.0, 101.0, 101.0, 102.0])

    def test_nine_wins_and_a_gap_beyond_the_quartiles_is_a_gain(self):
        this = self.OTHER - 2.0
        this[0] += 5.0                          # one pair lost
        judged = compare_runs.judge(this, self.OTHER, "lower", 0.25)
        assert (judged["wins"], judged["verdict"]) == (9, "gain")
        assert judged["this"] == 98.0
        assert judged["other"] == (99.25, 100.0, 100.75)

    def test_eight_wins_is_no_gain(self):
        this = self.OTHER - 2.0
        this[:2] += 5.0
        judged = compare_runs.judge(this, self.OTHER, "lower", 0.25)
        assert (judged["wins"], judged["verdict"]) == (8, "held")

    def test_a_gap_within_the_quartiles_is_no_gain(self):
        judged = compare_runs.judge(self.OTHER - 1.0, self.OTHER, "lower", 0.25)
        assert (judged["wins"], judged["verdict"]) == (10, "held")

    def verdict(self, this, better, bound):
        return compare_runs.judge(this, self.OTHER, better, bound)["verdict"]

    def test_higher_is_better_turns_the_comparison(self):
        assert self.verdict(self.OTHER + 2.0, "higher", 0.25) == "gain"
        assert self.verdict(self.OTHER - 2.0, "higher", 0.25) == "held"

    def test_worse_beyond_the_bound(self):
        assert self.verdict(self.OTHER * 1.06, "lower", 0.05) == "worse"
        assert self.verdict(self.OTHER * 1.04, "lower", 0.05) == "held"
        assert self.verdict(self.OTHER * 0.9, "higher", 0.05) == "worse"

    def test_unresolved_when_the_spread_exceeds_the_bound(self):
        assert self.verdict(self.OTHER, "lower", 0.01) == "unresolved"
        assert self.verdict(self.OTHER, "lower", 0.02) == "held"

    def test_more_failed_ops_void_a_gain(self):
        judged = compare_runs.judge(self.OTHER - 2.0, self.OTHER, "lower", 0.25,
                                    more_failures=True)
        assert (judged["wins"], judged["verdict"]) == (10, "held")


STUB_RUN = """\
import json, sys
from pathlib import Path

here = Path(__file__).resolve().parents[1]
args = dict(zip(sys.argv[1::2], sys.argv[2::2]))
with open(here.parent / "order.log", "a") as log:
    log.write(f"{here.name} {args['--workload']} {args['--seed']} {args['--seconds']} "
              f"{args['--trace']}\\n")
if (here / "fail").exists():
    sys.exit(1)
ms = float((here / "ms").read_text())
print(json.dumps({"workload": args["--workload"]}))
print(json.dumps({"correct": True, "attempted": 10, "failed": 0, "metrics": {
    "op_ms_p50": {"value": ms, "unit": "ms"}, "ops_per_s": {"value": 1e3 / ms, "unit": "1/s"}}}))
"""


class TestCompareTime:
    @staticmethod
    def checkout(root, name, ms, workload="print('one workload')"):
        path = root / name
        (path / "perfbench").mkdir(parents=True)
        (path / "perfbench" / "run.py").write_text(STUB_RUN)
        (path / "perfbench" / "workload.py").write_text(workload)
        (path / "ms").write_text(str(ms))
        (path / "BENCHMARK.json").write_text(json.dumps({
            "command": [sys.executable, "perfbench/run.py"],
            "workloads": [{"name": "w1"}, {"name": "w2"}],
            "end_to_end": [{"name": "op_ms_p50", "better": "lower", "bound": 0.25},
                           {"name": "ops_per_s", "better": "higher", "bound": 0.25}]}))
        return path

    def test_pairs_alternate_and_every_metric_is_judged(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(compare_runs, "TIME_PAIRS", 2)
        this, other = self.checkout(tmp_path, "this", 2.0), self.checkout(tmp_path, "other", 4.0)
        assert compare_runs.compare_time(this, other) == 0
        assert (tmp_path / "order.log").read_text().splitlines() == [
            "this w1 1 5 0", "other w1 1 5 0", "this w2 1 5 0", "other w2 1 5 0",
            "other w1 1 5 0", "this w1 1 5 0", "other w2 1 5 0", "this w2 1 5 0"]
        out = capsys.readouterr().out
        assert "w2: ops attempted this 20, other 20; failed this 0, other 0" in out
        assert "  op_ms_p50    this 2          other 4 / 4 / 4" in out
        assert out.count("won  2/2  gain") == 4

    def test_different_workload_definitions_exit_2_before_any_run(self, tmp_path, capsys):
        this = self.checkout(tmp_path, "this", 2.0)
        other = self.checkout(tmp_path, "other", 2.0, workload="print('another workload')")
        assert compare_runs.compare_time(this, other) == 2
        assert not (tmp_path / "order.log").exists()
        assert "perfbench/workload.py differs" in capsys.readouterr().err

    def test_a_failed_run_exits_1(self, tmp_path):
        this, other = self.checkout(tmp_path, "this", 2.0), self.checkout(tmp_path, "other", 2.0)
        (other / "fail").touch()
        assert compare_runs.compare_time(this, other) == 1
        assert len((tmp_path / "order.log").read_text().splitlines()) == 2


class TestProductCounter:
    def test_counts_the_columns_of_every_product_and_restores_the_class(self):
        a = np.diag(np.arange(1.0, 41.0))
        with compare_runs.product_counter(linalg.SquareMatrix, projection.Deflator) as counter:
            matrix = linalg.SquareMatrix(a)
            np.testing.assert_array_equal(matrix.product(np.ones(40)), np.diag(a))
            matrix.product(np.ones((40, 3)))
            matrix.product(np.ones(40, dtype=complex))
            assert counter == {"products": 5, "setup": 0}
        linalg.SquareMatrix(a).product(np.ones(40))
        projection.Deflator(a, np.eye(40, 2), GalerkinMode.RESIDUAL_ORTHOGONAL)
        assert counter == {"products": 5, "setup": 0}

    @pytest.mark.parametrize("mode, nearly_hermitian, setup", [
        (GalerkinMode.RESIDUAL_ORTHOGONAL, False, 3),   # B^H A is the view w^H
        (GalerkinMode.RESIDUAL_ORTHOGONAL, True, 6),
        (GalerkinMode.RESIDUAL_MINIMIZING, False, 6),
    ])
    def test_counts_the_deflator_set_up_products(self, mode, nearly_hermitian, setup):
        a = np.diag(np.arange(1.0, 41.0))
        if nearly_hermitian:
            a[0, 1] = 1e-17
        with compare_runs.product_counter(linalg.SquareMatrix, projection.Deflator) as counter:
            projection.Deflator(a, np.eye(40, 3), mode)
        assert counter["setup"] == setup

    def test_compare_prints_both_counts(self, capsys):
        run = {"b_norm": 1.0, "final": 0.5, "products": 17, "setup": 5,
               "fields": {"report.deflated_report.status": "converged",
                          "report.deflated_report.iterations_used": 14,
                          "report.original_residual_norms": np.ones(3),
                          "report.deflated_report.residual_norms": np.ones(3)}}
        this = {("system", "deflated-cg"): {**run, "products": 16, "setup": 10}}
        other = {("system", "deflated-cg"): run}
        assert compare_runs.compare(this, other, ("1", "1")) == 0
        out = capsys.readouterr().out
        assert " 16/17    10/5 " in out
        assert "products with A: this 16, other 17; in Deflator set-up: this 10, other 5" in out


class TestChangedFields:
    @staticmethod
    def run(iterates, corrected):
        return {"b_norm": 1.0, "final": 0.5, "products": 3, "setup": 0,
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


class TestCliCommands:
    def test_every_command_and_check_suite_is_compared(self, tmp_path):
        commands = dict(compare_runs._cli_commands(tmp_path))
        assert compare_runs.CHECK_SUITES == tuple(checks.SUITES)
        for suite in checks.SUITES:
            assert commands[f"check {suite}"] == ["check", suite, "--seed", "0"]
        assert sorted({arguments[0] for arguments in commands.values()}) == [
            "check", "diagnose", "run"]
        diagnosed = [json.loads(Path(arguments[1]).read_text(encoding="ascii"))["deflation"]
                     for arguments in commands.values() if arguments[0] == "diagnose"]
        assert diagnosed == [{"eigen_indices": "1-5,51-55"}, {"breakdown_indices": "1-5"}]
        # the file generator reads files written beside the specs
        spec = json.loads(Path(commands["run file-m50 json"][1]).read_text(encoding="ascii"))
        assert spec["problem"]["generator"] == "file"
        for path in (spec["problem"]["a"], spec["problem"]["b"], spec["deflation"]["file"]):
            assert Path(path).parent == tmp_path and Path(path).is_file()
