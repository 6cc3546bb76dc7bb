import json

import numpy as np
import pytest

import dkrylov
from dkrylov import cli
from dkrylov import io as dkio
from dkrylov import linalg
from dkrylov.problems import symmetric_indefinite_problem

SIX_VARIANTS = ["minres", "rminres-explicit", "rminres-deflation-only",
                "deflated-minres", "deflated-minres-adapted-guess", "deflated-gmres"]


def write_spec(tmp_path, spec, name="spec.json"):
    path = tmp_path / name
    path.write_text(json.dumps(spec), encoding="ascii")
    return str(path)


def paper_spec(m=20, **deflation):
    return {
        "problem": {"generator": "symmetric-indefinite", "m": m},
        "deflation": deflation or {"eigen_indices": f"1-5,{m + 1}-{m + 5}"},
        "run": {"variants": SIX_VARIANTS, "x0": "zero"},
        "output": {"format": "json"},
    }


def breakdown_spec(m=20):
    spec = paper_spec(m, breakdown_indices="1-5")
    spec["run"]["x0"] = "breakdown-guess"
    return spec


def run_json(tmp_path, spec):
    out = tmp_path / "out.json"
    code = cli.main(["run", write_spec(tmp_path, spec), "--output", str(out)])
    payload = json.loads(out.read_text(encoding="ascii")) if out.exists() else None
    return code, payload


class TestRun:
    def test_paper_spec_converges(self, tmp_path):
        code, payload = run_json(tmp_path, paper_spec())
        assert code == 0
        results = {r["variant"]: r for r in payload["results"]}
        assert list(results) == SIX_VARIANTS
        assert all(r["status"] == "converged" for r in results.values())

    def test_histories_share_the_norm_of_b(self, tmp_path):
        code, payload = run_json(tmp_path, paper_spec())
        p = symmetric_indefinite_problem(20, 0)
        assert payload["reference_norm"] == pytest.approx(np.linalg.norm(p.b), rel=1e-14)
        starts = {r["variant"]: r["relative_residuals"]["original"][0]
                  for r in payload["results"]}
        # plain MINRES starts from r0 = b; the deflated variants from the
        # orthogonal projection of b, which is no longer
        assert starts.pop("minres") == pytest.approx(1.0, rel=1e-12)
        assert all(s <= 1.0 + 1e-12 for s in starts.values())

    def test_breakdown_spec(self, tmp_path, capsys):
        code, payload = run_json(tmp_path, breakdown_spec())
        assert code == 0
        results = {r["variant"]: r for r in payload["results"]}
        for name in ("rminres-explicit", "rminres-deflation-only", "deflated-gmres"):
            assert results[name]["status"] == "breakdown"
            assert results[name]["breakdown_iteration"] == 1
        for name in ("deflated-minres", "deflated-minres-adapted-guess"):
            assert results[name]["status"] == "converged"
            assert results[name]["relative_residuals"]["original"][-1] <= 1e-12
        assert "rminres-explicit: breakdown at step 1" in capsys.readouterr().err

    def test_csv_output(self, tmp_path):
        spec = paper_spec()
        spec["output"]["format"] = "csv"
        out = tmp_path / "out.csv"
        assert cli.main(["run", write_spec(tmp_path, spec), "--output", str(out)]) == 0
        lines = out.read_text(encoding="ascii").splitlines()
        assert lines[0] == cli.CSV_HEADER
        assert {line.split(",")[0] for line in lines[1:]} == set(SIX_VARIANTS)

    def test_unknown_key_exits_2(self, tmp_path):
        spec = paper_spec()
        spec["solver"] = {"tolerence": 1e-8}
        assert cli.main(["run", write_spec(tmp_path, spec)]) == 2

    @pytest.mark.parametrize("spec", [
        {**paper_spec(), "deflation": {"eigen_indices": "1-x"}},
        {**paper_spec(), "output": {"format": "xml"}},
        {"problem": {"generator": "toy-breakdown", "m": "abc"}, "run": {"variants": "minres"}},
        {**paper_spec(), "problem": 5},
        b"\xff[problem]\n",
        {**paper_spec(), "problem": {"generator": "symmetric-indefinite", "m": 5.7}},
        {**paper_spec(), "problem": {"generator": "symmetric-indefinite", "m": True}},
        {**paper_spec(), "solver": {"tolerance": "inf"}},
        {**paper_spec(), "solver": {"breakdown_threshold": "inf"}},
        {**paper_spec(), "problem": {"generator": "near-invariant", "alpha": "nan"}},
        {**paper_spec(), "problem": {"generator": "near-invariant", "alpha": True}},
    ], ids=["bad-index-list", "bad-format", "bad-unused-key", "section-not-object",
            "not-utf8", "fractional-int", "boolean-int", "infinite-tolerance",
            "infinite-breakdown-threshold", "nan-alpha", "boolean-float"])
    def test_bad_spec_exits_2_before_any_solve(self, tmp_path, monkeypatch, spec):
        calls = []
        monkeypatch.setattr(cli, "run_method", lambda *args: calls.append(args))
        monkeypatch.setattr(cli, "build_problem", lambda *args: calls.append(args))
        path = tmp_path / "spec"
        path.write_bytes(spec if isinstance(spec, bytes) else json.dumps(spec).encode())
        assert cli.main(["run", str(path)]) == 2
        assert calls == []

    def test_integral_values_are_integers(self, tmp_path):
        spec = paper_spec(m=20)
        spec["problem"]["m"] = 20.0
        spec["solver"] = {"max_iterations": "200"}
        code, payload = run_json(tmp_path, spec)
        assert code == 0
        assert len(payload["results"]) == len(SIX_VARIANTS)

    def test_output_into_missing_directory_exits_2_before_any_solve(self, tmp_path, monkeypatch,
                                                                    capsys):
        calls = []
        monkeypatch.setattr(cli, "run_method", lambda *args: calls.append(args))
        out = tmp_path / "missing" / "out.json"
        assert cli.main(["run", write_spec(tmp_path, paper_spec()), "--output", str(out)]) == 2
        assert calls == []
        assert "does not exist" in capsys.readouterr().err

    def test_failed_write_exits_3(self, tmp_path, capsys):
        # the destination's directory exists, but the destination is a directory
        assert cli.main(["run", write_spec(tmp_path, paper_spec()), "--output", str(tmp_path)]) == 3
        assert capsys.readouterr().err.startswith("error: cannot write output")

    def test_ini_spec_matches_json_spec(self, tmp_path):
        spec = paper_spec()
        spec["solver"] = {"explicit_residuals": True, "tolerance": 1e-10}
        json_out, ini_out = tmp_path / "json.out", tmp_path / "ini.out"
        assert cli.main(["run", write_spec(tmp_path, spec), "--output", str(json_out)]) == 0
        ini = tmp_path / "spec.ini"
        ini.write_text(
            "[problem]\ngenerator = symmetric-indefinite\nm = 20\n"
            "[deflation]\neigen_indices = 1-5,21-25\n"
            f"[run]\nvariants = {', '.join(SIX_VARIANTS)}\nx0 = zero\n"
            "[solver]\nexplicit_residuals = yes\ntolerance = 1e-10\n"
            "[output]\nformat = json\n", encoding="ascii")
        assert cli.main(["run", str(ini), "--output", str(ini_out)]) == 0
        assert ini_out.read_bytes() == json_out.read_bytes()

    def test_deflated_variant_without_basis_exits_3(self, tmp_path):
        spec = paper_spec()
        del spec["deflation"]
        assert cli.main(["run", write_spec(tmp_path, spec)]) == 3


class TestCheck:
    @pytest.mark.parametrize("suite", ["projections", "equivalence", "spectrum", "breakdown"])
    def test_suite_passes(self, suite, tmp_path):
        out = tmp_path / "check.json"
        assert cli.main(["check", suite, "--seed", "0", "--output", str(out)]) == 0
        assert json.loads(out.read_text(encoding="ascii"))["passed"] is True

    def test_output_errors(self, monkeypatch, tmp_path):
        calls = []
        monkeypatch.setattr(cli, "run_suite", lambda name, seed: calls.append(name) or {
            "suite": name, "passed": True, "checks": []})
        missing = tmp_path / "missing" / "c.json"
        assert cli.main(["check", "spectrum", "--output", str(missing)]) == 2
        assert calls == []
        assert cli.main(["check", "spectrum", "--output", str(tmp_path)]) == 3

    def test_failed_suite_exits_1(self, monkeypatch, tmp_path):
        monkeypatch.setattr(cli, "run_suite",
                            lambda name, seed: {"suite": name, "passed": False, "checks": []})
        assert cli.main(["check", "spectrum", "--output", str(tmp_path / "c.json")]) == 1


class TestDiagnose:
    @pytest.mark.parametrize("deflation, flagged", [
        ({"breakdown_indices": "1-5"}, True),
        ({"eigen_indices": "1-5,21-25"}, False),
    ])
    def test_flags_only_the_breakdown_basis(self, tmp_path, deflation, flagged):
        out = tmp_path / "diag.json"
        spec = write_spec(tmp_path, paper_spec(**deflation))
        assert cli.main(["diagnose", spec, "--output", str(out)]) == 0
        assert json.loads(out.read_text(encoding="ascii"))["intersection_nontrivial"] is flagged

    def test_output_errors(self, tmp_path, monkeypatch):
        calls = []
        monkeypatch.setattr(cli, "diagnose_breakdown", lambda *args: calls.append(args))
        spec = write_spec(tmp_path, paper_spec())
        assert cli.main(["diagnose", spec, "--output", str(tmp_path / "no" / "d.json")]) == 2
        assert calls == []
        monkeypatch.undo()
        assert cli.main(["diagnose", spec, "--output", str(tmp_path)]) == 3


class TestPackage:
    def test_public_names_resolve_and_kernels_stay_in_linalg(self):
        assert all(hasattr(dkrylov, name) for name in dkrylov.__all__)
        for name in ("GivensRotation", "givens_qr_step", "inner", "solve_dense",
                     "random_orthogonal", "hermitian_eigen", "HermitianEigenDecomposition"):
            assert hasattr(linalg, name), name
            assert not hasattr(dkrylov, name), name


class TestIo:
    def test_problem_container_round_trip(self, tmp_path):
        p = symmetric_indefinite_problem(6, seed=3)
        path = tmp_path / "p.txt"
        dkio.save_problem(path, p)
        q = dkio.load_problem(path)
        assert (q.label, q.seed) == (p.label, p.seed)
        for name in ("a", "b", "x0", "known_spectrum", "eigenvectors"):
            original, loaded = getattr(p, name), getattr(q, name)
            assert loaded.shape == original.shape, name
            assert np.array_equal(loaded, original), name

    def test_bad_magic_line_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("not-a-problem 1\n", encoding="ascii")
        with pytest.raises(ValueError, match="magic"):
            dkio.load_problem(path)

    @pytest.mark.parametrize("shape", [(5,), (4, 3)])
    def test_matrix_market_round_trip(self, tmp_path, shape):
        rng = np.random.default_rng(7)
        arr = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        path = tmp_path / "arr.mtx"
        dkio.write_matrix_market(path, arr)
        loaded = dkio.read_matrix_market(path)
        assert loaded.shape == arr.shape
        assert np.array_equal(loaded, arr)

    def test_container_problem_runs_from_spec(self, tmp_path):
        dkio.save_problem(tmp_path / "p.txt", symmetric_indefinite_problem(10, seed=1))
        spec = {"problem": {"generator": "container", "path": str(tmp_path / "p.txt")},
                "run": {"variants": "minres"}, "output": {"format": "json"}}
        code, payload = run_json(tmp_path, spec)
        assert code == 0
        assert payload["results"][0]["status"] == "converged"
