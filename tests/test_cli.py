import collections
import copy
import dataclasses
import enum
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dkrylov
from dkrylov import cli, deflated
from dkrylov.deflated import run_methods
from dkrylov import io as dkio
from dkrylov import linalg
from dkrylov.problems import eigenvector_basis, perturb_basis, symmetric_indefinite_problem
from dkrylov.projection import Deflator

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


#: Specs with a key that the generator or the other keys leave unread, and
#: the message that names it.
UNREAD_KEYS = [
    ({**paper_spec(), "problem": {"generator": "toy-breakdown", "m": 5}},
     "generator toy-breakdown does not read [problem] m"),
    ({**paper_spec(), "problem": {"generator": "symmetric-indefinite", "m": 5, "n": 10}},
     "generator symmetric-indefinite does not read [problem] n"),
    (paper_spec(eigen_indices="1-5", perturb_seed=3),
     "[deflation] perturb_seed is read only with perturb_eps"),
    ({**paper_spec(), "run": {"variants": "minres", "x0": "zero", "x0_seed": 4}},
     '[run] x0_seed is read only with x0 = "random" or "breakdown-guess", '
     'or with x0_perturbation'),
    ({**paper_spec(), "problem": {"generator": "file", "a": "a.mtx", "b": "b.mtx", "seed": 5}},
     "generator file does not read [problem] seed"),
]
UNREAD_KEY_IDS = ["unread-toy-m", "unread-paper-n", "perturb-seed-without-eps",
                  "x0-seed-without-random", "unread-file-seed"]


def with_value(spec, section, key, value):
    """A copy of ``spec`` with ``[section] key`` set to ``value``."""
    spec = copy.deepcopy(spec)
    spec.setdefault(section, {})[key] = value
    return spec


#: Values outside their key's range: (section, key, value, what the key
#: expects, a spec whose choices read the key).
OUT_OF_RANGE = [
    ("problem", "m", 0, "an integer of at least 1", paper_spec()),
    ("problem", "n", 1, "an integer of at least 2",
     {**paper_spec(), "problem": {"generator": "clustered-spd"}}),
    ("problem", "outliers", 0, "an integer of at least 1",
     {**paper_spec(), "problem": {"generator": "clustered-spd"}}),
    ("problem", "alpha", 0, "a positive finite number",
     {**paper_spec(), "problem": {"generator": "near-invariant"}}),
    ("deflation", "perturb_eps", -1e-3, "a positive finite number",
     paper_spec(eigen_indices="1-5")),
    ("run", "x0_perturbation", -1, "a non-negative finite number", paper_spec()),
    ("solver", "tolerance", 0, "a positive finite number", paper_spec()),
    ("solver", "max_iterations", 0, "an integer of at least 1", paper_spec()),
]
OUT_OF_RANGE_IDS = [f"{key}-{value}" for _, key, value, _, _ in OUT_OF_RANGE]


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

    @pytest.mark.parametrize("problem, variants, statuses", [
        ({"generator": "clustered-spd", "n": 40, "outliers": 3, "seed": 1},
         ["cg", "deflated-cg"], ["converged", "converged"]),
        ({"generator": "toy-breakdown"}, ["minres", "rminres-deflation-only"],
         ["converged", "breakdown"]),
        ({"generator": "near-invariant", "alpha": 1e-3}, ["deflated-gmres"], ["breakdown"]),
    ], ids=["clustered-spd", "toy-breakdown", "near-invariant"])
    def test_generators(self, tmp_path, problem, variants, statuses):
        # clustered-spd deflates its three outliers; the toy and
        # near-invariant problems carry their own basis
        spec = {"problem": problem, "run": {"variants": variants}, "output": {"format": "json"}}
        if problem["generator"] == "clustered-spd":
            spec["deflation"] = {"eigen_indices": "1-3"}
        code, payload = run_json(tmp_path, spec)
        assert code == 0
        assert [r["status"] for r in payload["results"]] == statuses

    @pytest.mark.parametrize("text, message", [
        ('{"problem": {"generator": ', "spec.json: invalid JSON"),
        ("[problem]\ngenerator = toy-breakdown\n[run]\nvariants = minres\n",
         "spec.json: invalid JSON"),
        ('[{"generator": "toy-breakdown"}]',
         "spec.json: JSON spec must be an object of section objects"),
        ('{"problem": {"generator": "toy-breakdown"}, "run": {}}', "[run] variants is required"),
        (json.dumps({"problem": {"generator": "file", "a": "a.mtx"},
                     "run": {"variants": "minres"}}),
         "[problem] file generator requires a and b"),
        (json.dumps(paper_spec(eigen_indices="1-5", breakdown_indices="1-5")),
         "[deflation] choose one basis source, got eigen_indices, breakdown_indices"),
        (json.dumps({"problem": {"generator": "symmetric-indefinite", "m": 5},
                     "run": {"variants": "minres", "x0": "breakdown-guess"}}),
         "[run] x0 = breakdown-guess requires a deflation basis"),
        (json.dumps({"problem": {"generator": "symmetric-indefinite", "m": 5},
                     "run": {"variants": ["minres", "deflated-minres", "deflated-gmres"]}}),
         "variants deflated-minres, deflated-gmres require a deflation basis from [deflation]"),
    ], ids=["invalid-json", "ini-sections", "not-an-object", "missing-variants",
            "file-without-b", "two-basis-sources", "breakdown-guess-without-basis",
            "missing-basis"])
    def test_rejected_spec_exits_2_before_any_solve(self, tmp_path, monkeypatch, capsys, text,
                                                    message):
        calls = []
        monkeypatch.setattr(cli, "run_methods", lambda *args: calls.append(args))
        path = tmp_path / "spec.json"
        path.write_text(text, encoding="ascii")
        assert cli.main(["run", str(path)]) == 2
        assert message in capsys.readouterr().err and calls == []

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

    @pytest.mark.parametrize("key", ["reorthogonalize", "explicit_residuals",
                                     "breakdown_threshold"])
    def test_retired_solver_key_is_named(self, tmp_path, capsys, key):
        # Each retired SolveConfig field is a rule of the solvers now, and
        # the spec key that set it is rejected as unknown.
        spec = paper_spec()
        spec["solver"] = {key: "inf"}
        assert cli.main(["run", write_spec(tmp_path, spec)]) == 2
        assert f"unknown key(s) in [solver]: {key}" in capsys.readouterr().err

    @pytest.mark.parametrize("spec", [
        {**paper_spec(), "deflation": {"eigen_indices": "1-x"}},
        {**paper_spec(), "deflation": {"eigen_indices": "3,1"}},
        {**paper_spec(), "deflation": {"eigen_indices": "5-1"}},
        {**paper_spec(), "deflation": {"eigen_indices": ","}},
        {**paper_spec(), "deflation": {"eigen_indices": "1-5,3"}},
        {**paper_spec(), "deflation": {"eigen_indices": "2-2,2"}},
        {**paper_spec(), "deflation": {"eigen_indices": "0-2"}},
        {**paper_spec(), "deflation": {"breakdown_indices": "-1,2"}},
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
        {**paper_spec(), "solver": {"reorthogonalize": True}},
        {**paper_spec(), "solver": {"explicit_residuals": True}},
        {**paper_spec(), "problem": {"generator": "container"}},
        {**paper_spec(), "output": {"path": "out.json"}},
        with_value(breakdown_spec(), "run", "breakdown_coefficient_seed", 4),
        {**paper_spec(), "plot": {"format": "png"}},
        {"problem": {"m": 20}, "run": {"variants": "minres"}},
        *(with_value(spec, section, key, value)
          for section, key, value, _, spec in OUT_OF_RANGE),
        *(spec for spec, _ in UNREAD_KEYS),
    ], ids=["bad-index-list", "descending-indices", "descending-range", "empty-index-list",
            "overlapping-ranges", "repeated-index",
            "index-zero", "negative-breakdown-index", "bad-format", "bad-unused-key",
            "section-not-object", "not-utf8", "fractional-int", "boolean-int", "infinite-tolerance",
            "infinite-breakdown-threshold", "nan-alpha", "boolean-float",
            "removed-reorthogonalize-key", "removed-explicit-residuals-key",
            "removed-container-generator", "removed-output-path-key",
            "removed-breakdown-coefficient-seed-key", "unknown-section", "missing-generator",
            *OUT_OF_RANGE_IDS,
            *UNREAD_KEY_IDS])
    def test_bad_spec_exits_2_before_any_solve(self, tmp_path, monkeypatch, spec):
        calls = []
        monkeypatch.setattr(cli, "run_methods", lambda *args: calls.append(args))
        monkeypatch.setattr(cli, "build_problem", lambda *args: calls.append(args))
        path = tmp_path / "spec"
        path.write_bytes(spec if isinstance(spec, bytes) else json.dumps(spec).encode())
        assert cli.main(["run", str(path)]) == 2
        assert calls == []

    @pytest.mark.parametrize("spec, message", UNREAD_KEYS, ids=UNREAD_KEY_IDS)
    def test_unread_key_is_named_with_its_choice(self, tmp_path, capsys, spec, message):
        assert cli.main(["run", write_spec(tmp_path, spec)]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("section, key, spec", [
        ("problem", "seed", {**paper_spec(),
                             "problem": {"generator": "symmetric-indefinite", "m": 20}}),
        ("deflation", "perturb_seed", paper_spec(eigen_indices="1-5", perturb_eps=1e-3)),
        ("run", "x0_seed", {**paper_spec(), "run": {"variants": ["minres"], "x0": "random"}}),
        ("run", "x0_seed", breakdown_spec()),
    ], ids=lambda v: v if isinstance(v, str) else None)
    def test_negative_seed_is_named(self, tmp_path, monkeypatch, capsys, section, key, spec):
        # numpy would reject it only once the generator is built, naming no key.
        calls = []
        monkeypatch.setattr(cli, "build_problem", lambda *args: calls.append(args))
        assert cli.main(["run", write_spec(tmp_path, with_value(spec, section, key, -1))]) == 2
        err = capsys.readouterr().err
        assert f"[{section}] {key} must be a non-negative integer, got -1" in err
        assert calls == []

    @pytest.mark.parametrize("section, key, value, expected, spec", OUT_OF_RANGE,
                             ids=OUT_OF_RANGE_IDS)
    def test_out_of_range_value_is_named(self, tmp_path, monkeypatch, capsys, section, key,
                                         value, expected, spec):
        # Each bound is the schema's, so the message names the key and no
        # problem is built; the generators' own messages name no key.
        calls = []
        monkeypatch.setattr(cli, "build_problem", lambda *args: calls.append(args))
        assert cli.main(["run", write_spec(tmp_path, with_value(spec, section, key, value))]) == 2
        err = capsys.readouterr().err
        assert f"[{section}] {key} must be {expected}, got {value!r}" in err
        assert calls == []

    @pytest.mark.parametrize("option", ["--format", "--tol", "--maxit"])
    def test_spec_key_is_no_option(self, tmp_path, capsys, option):
        # The output format, tolerance and step limit are set in the spec only.
        with pytest.raises(SystemExit) as info:
            cli.main(["run", write_spec(tmp_path, paper_spec()), option, "1"])
        assert info.value.code == 2
        assert f"unrecognized arguments: {option} 1" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "diagnose", "check"])
    def test_negative_seed_option_exits_2(self, tmp_path, capsys, command):
        target = "projections" if command == "check" else write_spec(tmp_path, paper_spec())
        with pytest.raises(SystemExit) as info:
            cli.main([command, target, "--seed", "-1"])
        assert info.value.code == 2
        assert ("argument --seed: must be a non-negative integer, got '-1'"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("command", ["run", "diagnose"])
    @pytest.mark.parametrize("problem", [
        {"generator": "file", "a": "a.mtx", "b": "b.mtx"}, {"generator": "toy-breakdown"},
        {"generator": "near-invariant", "alpha": 1e-3}], ids=lambda p: p["generator"])
    def test_seed_option_of_an_unseeded_generator_exits_2(self, tmp_path, monkeypatch, capsys,
                                                         command, problem):
        # As [problem] seed is rejected for a generator that reads no seed,
        # so is --seed, before the generator runs.
        calls = []
        for name in ("toy_breakdown_problem", "near_invariant_problem"):
            monkeypatch.setattr(cli, name, lambda *args: calls.append(args))
        monkeypatch.setattr(dkio, "read_matrix_market", lambda *args: calls.append(args))
        spec = write_spec(tmp_path, {"problem": problem, "run": {"variants": "minres"}})
        assert cli.main([command, spec, "--seed", "1"]) == 2
        assert (f"error: --seed: generator {problem['generator']} reads no seed"
                in capsys.readouterr().err)
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
        monkeypatch.setattr(cli, "run_methods", lambda *args: calls.append(args))
        out = tmp_path / "missing" / "out.json"
        assert cli.main(["run", write_spec(tmp_path, paper_spec()), "--output", str(out)]) == 2
        assert calls == []
        assert "does not exist" in capsys.readouterr().err

    def test_six_variants_share_one_set_up(self, tmp_path, monkeypatch):
        counts = collections.Counter()

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(Deflator, "__init__", counting("Deflator", Deflator.__init__))
        for name in ("cg_solve", "minres_solve", "gmres_solve"):
            monkeypatch.setattr(deflated, name, counting(name, getattr(deflated, name)))
        code, payload = run_json(tmp_path, paper_spec())
        assert code == 0
        assert [r["variant"] for r in payload["results"]] == SIX_VARIANTS
        assert counts == {"Deflator": 1, "minres_solve": 3, "gmres_solve": 1}

    def test_failed_write_exits_3(self, tmp_path, capsys):
        # the destination's directory exists, but the destination is a directory
        assert cli.main(["run", write_spec(tmp_path, paper_spec()), "--output", str(tmp_path)]) == 3
        assert capsys.readouterr().err.startswith("error: cannot write output")

    def test_run_records_no_history_and_prints_the_same(self, tmp_path, monkeypatch):
        spec = write_spec(tmp_path, paper_spec())
        build = cli.build_solve_config
        assert build(cli.parse_spec(spec)).record_history is False
        without, with_history = tmp_path / "without.out", tmp_path / "with.out"
        assert cli.main(["run", spec, "--output", str(without)]) == 0
        monkeypatch.setattr(cli, "build_solve_config",
                            lambda *args: dataclasses.replace(build(*args), record_history=True))
        assert cli.main(["run", spec, "--output", str(with_history)]) == 0
        assert without.read_bytes() == with_history.read_bytes()

    def test_paper_run_does_not_load_arpack(self, tmp_path):
        # No set-up step of the paper's run estimates ||A||_2, so the run
        # never imports scipy.sparse.linalg; it reads and writes no Matrix
        # Market file and is given no sparse matrix, so it imports neither
        # scipy.io nor scipy.sparse.  Neither does importing the package.
        spec = write_spec(tmp_path, paper_spec(200))
        out = str(tmp_path / "out.json")
        watched = ("scipy.sparse", "scipy.sparse.linalg", "scipy.io")
        script = (f"import sys, dkrylov; watched = {watched!r}\n"
                  "after_import = [m for m in watched if m in sys.modules]\n"
                  "from dkrylov import cli\n"
                  f"code = cli.main(['run', {spec!r}, '--output', {out!r}])\n"
                  "print(code, after_import, [m for m in watched if m in sys.modules])\n")
        src = str(Path(dkrylov.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env=env, timeout=300)
        assert proc.stdout.strip() == "0 [] []", proc.stderr

    def test_matrix_market_inputs(self, tmp_path, monkeypatch):
        # A, b, x0 and the deflation basis come from Matrix Market files; A
        # in the coordinate format that scipy writes for a sparse matrix,
        # which is densified.  With no [run] x0 key the run starts from the
        # problem's x0, here the file's.  The basis is perturbed.
        import scipy.io
        import scipy.sparse

        p = symmetric_indefinite_problem(10, seed=2)
        u = eigenvector_basis(p, [1, 2, 11, 12])
        x0 = np.random.default_rng(5).standard_normal(20)
        scipy.io.mmwrite(str(tmp_path / "a.mtx"), scipy.sparse.coo_array(p.a))
        assert "coordinate" in (tmp_path / "a.mtx").read_text(encoding="ascii").splitlines()[0]
        for name, value in (("b", p.b), ("x0", x0), ("u", u)):
            dkio.write_matrix_market(tmp_path / f"{name}.mtx", value)
        spec = {"problem": {"generator": "file", "a": str(tmp_path / "a.mtx"),
                            "b": str(tmp_path / "b.mtx"), "x0": str(tmp_path / "x0.mtx")},
                "deflation": {"file": str(tmp_path / "u.mtx"), "perturb_eps": 1e-6,
                              "perturb_seed": 3},
                "run": {"variants": ["minres", "deflated-minres"]},
                "solver": {"tolerance": 1e-11, "max_iterations": 300},
                "output": {"format": "json"}}
        received = []
        monkeypatch.setattr(cli, "run_methods",
                            lambda *args: received.append(args) or run_methods(*args))
        out = tmp_path / "out.json"
        assert cli.main(["run", write_spec(tmp_path, spec), "--output", str(out)]) == 0
        (variants, a, b, basis, given, cfg), = received
        assert [v.value for v in variants] == ["minres", "deflated-minres"]
        assert np.array_equal(a, p.a) and a.dtype == np.float64
        assert np.array_equal(b, p.b) and np.array_equal(given, x0)
        assert np.array_equal(basis, perturb_basis(u, 1e-6, 3))
        assert (cfg.residual_tolerance, cfg.max_iterations) == (1e-11, 300)
        payload = json.loads(out.read_text(encoding="ascii"))
        assert [r["status"] for r in payload["results"]] == ["converged", "converged"]

    def test_x0_zero_starts_from_zero_over_the_files_x0(self, tmp_path, monkeypatch):
        p = symmetric_indefinite_problem(10, seed=2)
        for name, value in (("a", p.a), ("b", p.b), ("x0", np.ones(20))):
            dkio.write_matrix_market(tmp_path / f"{name}.mtx", value)
        spec = {"problem": {"generator": "file", **{name: str(tmp_path / f"{name}.mtx")
                                                    for name in ("a", "b", "x0")}},
                "run": {"variants": ["minres"], "x0": "zero"}}
        received = []
        monkeypatch.setattr(cli, "run_methods",
                            lambda *args: received.append(args) or run_methods(*args))
        assert cli.main(["run", write_spec(tmp_path, spec),
                         "--output", str(tmp_path / "out.csv")]) == 0
        (_, _, _, _, given, _), = received
        assert given.shape == (20,) and not given.any()

    def test_construction_error_exits_3(self, tmp_path, capsys):
        # The index bound depends on the problem, so the basis's builder
        # checks it: a failure of construction, not of the spec's schema.
        spec = write_spec(tmp_path, paper_spec(eigen_indices="1-5,41"))
        assert cli.main(["run", spec]) == 3
        assert "error: indices must lie in 1..40" in capsys.readouterr().err

    def test_run_without_output_prints_what_output_writes(self, tmp_path, capsys):
        spec = write_spec(tmp_path, paper_spec())
        out = tmp_path / "out.json"
        assert cli.main(["run", spec, "--output", str(out)]) == 0
        capsys.readouterr()
        assert cli.main(["run", spec]) == 0
        assert capsys.readouterr().out == out.read_text(encoding="ascii")


class TestCheck:
    @pytest.mark.parametrize("suite", ["projections", "equivalence", "spectrum", "breakdown",
                                       "status"])
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

    def test_suite_that_raises_exits_3(self, monkeypatch, tmp_path, capsys):
        # Exit 2 is for a bad output path only; a suite's own ValueError is
        # a failure of the run, as in ``run`` and ``diagnose``.
        def raising(name, seed):
            raise ValueError("deflated matrix is not Hermitian")
        monkeypatch.setattr(cli, "run_suite", raising)
        assert cli.main(["check", "spectrum", "--output", str(tmp_path / "c.json")]) == 3
        assert "error: deflated matrix is not Hermitian" in capsys.readouterr().err

    def test_spectrum_mismatch_is_reported(self, monkeypatch, tmp_path):
        # A deflated matrix shifted by 1e-6 I moves every eigenvalue past the
        # tolerance: the suite reports the failure instead of raising.
        dense = Deflator.dense_deflated_matrix
        monkeypatch.setattr(Deflator, "dense_deflated_matrix",
                            lambda d: dense(d) + 1e-6 * np.eye(d.dim))
        out = tmp_path / "c.json"
        assert cli.main(["check", "spectrum", "--seed", "0", "--output", str(out)]) == 1
        report = json.loads(out.read_text(encoding="ascii"))
        assert report["passed"] is False
        assert report["checks"][0]["max_violation"] > report["checks"][0]["tolerance"]

    def test_non_hermitian_deflated_matrix_is_reported(self, monkeypatch, tmp_path):
        # Bases of the spectrum suite are exact eigenvector bases, so a
        # deflated matrix that is not Hermitian is a defect of the deflator:
        # the suite reports it instead of raising.
        dense = Deflator.dense_deflated_matrix
        monkeypatch.setattr(Deflator, "dense_deflated_matrix",
                            lambda d: dense(d) + 1e-6 * np.triu(np.ones((d.dim, d.dim))))
        out = tmp_path / "c.json"
        assert cli.main(["check", "spectrum", "--seed", "0", "--output", str(out)]) == 1
        report = json.loads(out.read_text(encoding="ascii"))
        assert report["passed"] is False
        assert report["checks"][0]["max_violation"] > report["checks"][0]["tolerance"]


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

    def test_invariant_basis_angle_is_at_roundoff(self, tmp_path):
        # An arccos of the indicator would read about 1.5e-8 rad here.
        out = tmp_path / "diag.json"
        spec = write_spec(tmp_path, paper_spec(50))
        assert cli.main(["diagnose", spec, "--output", str(out)]) == 0
        payload = json.loads(out.read_text(encoding="ascii"))
        assert payload["largest_principal_angle_radians"] <= 1e-12
        assert payload["intersection_nontrivial"] is False

    def test_output_errors(self, tmp_path, monkeypatch):
        calls = []
        monkeypatch.setattr(cli, "diagnose_breakdown", lambda *args: calls.append(args))
        spec = write_spec(tmp_path, paper_spec())
        assert cli.main(["diagnose", spec, "--output", str(tmp_path / "no" / "d.json")]) == 2
        assert calls == []
        monkeypatch.undo()
        assert cli.main(["diagnose", spec, "--output", str(tmp_path)]) == 3

    def test_missing_basis_exits_2_before_any_diagnosis(self, tmp_path, monkeypatch, capsys):
        calls = []
        monkeypatch.setattr(cli, "diagnose_breakdown", lambda *args: calls.append(args))
        spec = paper_spec()
        del spec["deflation"]
        assert cli.main(["diagnose", write_spec(tmp_path, spec)]) == 2
        assert ("error: diagnose requires a deflation basis from [deflation]"
                in capsys.readouterr().err)
        assert calls == []


#: Parameter names of every public callable, a class through its ``__init__``
#: (None where that is inherited from outside the package).  A new option
#: shows up here as a failing test.
PUBLIC_PARAMETERS = {
    "BreakdownDiagnosis": ["intersection_nontrivial", "smallest_indicator",
                           "largest_principal_angle_rad"],
    "Deflator": ["a", "u", "mode"],
    "DualReport": ["variant", "deflated_report", "original_residual_norms",
                   "corrected_iterate", "correction_count", "deflator", "diagnostics"],
    "GalerkinMode": None,
    "GuessInvalidError": None,
    "IndefiniteOperatorError": None,
    "LinearOperator": ["dim", "matvec", "hermitian", "dtype"],
    "MethodVariant": None,
    "NotInvariantError": None,
    "SingularCouplingError": None,
    "SingularMatrixError": None,
    "SolveConfig": ["residual_tolerance", "max_iterations", "record_history"],
    "SolveReport": ["final_iterate", "residual_norms", "status", "iterations_used",
                    "breakdown_iteration", "recurrence_residual_norms", "iterates",
                    "diagnostics"],
    "SolveStatus": None,
    "SpectrumCheck": ["computed", "expected", "max_mismatch", "tolerance", "passed"],
    "TestProblem": ["a", "b", "x0", "u", "known_solution", "known_spectrum",
                    "eigenvectors"],
    "breakdown_initial_guess": ["a", "b", "u", "coefficients"],
    "breakdown_prone_basis": ["problem", "indices"],
    "cg_solve": ["op", "b", "x0", "cfg"],
    "check_deflated_spectrum": ["a", "u", "mode"],
    "clustered_spd_problem": ["n", "n_outliers", "seed"],
    "deflated_operator": ["deflator", "kind"],
    "dense_operator": ["a"],
    "diagnose_breakdown": ["a", "u"],
    "eigenvector_basis": ["problem", "indices"],
    "gmres_solve": ["op", "b", "x0", "cfg"],
    "minres_solve": ["op", "b", "x0", "cfg"],
    "near_invariant_problem": ["alpha"],
    "perturb_basis": ["u", "eps", "seed"],
    "principal_angles": ["x", "y"],
    "run_method": ["variant", "a", "b", "u", "x0", "cfg"],
    "symmetric_indefinite_problem": ["m", "seed"],
    "toy_breakdown_problem": [],
}


#: Parameter names of every public method of the public classes that have
#: any.  A new or a deleted method shows up here as a failing test.
PUBLIC_METHODS = {
    "Deflator": {
        "adapted_initial_guess": ["x0", "b"],
        "correct_iterate": ["x_hat", "b"],
        "dense_deflated_matrix": [],
        "initial_correction": ["x_prev", "b"],
        "project_residual": ["v"],
    },
    "LinearOperator": {"apply": ["v"]},
}


def parameter_names(obj):
    target = obj.__init__ if isinstance(obj, type) else obj
    if not getattr(target, "__module__", "").startswith("dkrylov."):
        return None
    return [name for name in inspect.signature(target).parameters if name != "self"]


class TestPackage:
    def test_public_names_resolve_and_kernels_stay_in_linalg(self):
        assert all(hasattr(dkrylov, name) for name in dkrylov.__all__)
        for name in ("make_givens", "givens_cascade", "inner", "random_orthogonal"):
            assert hasattr(linalg, name), name
            assert not hasattr(dkrylov, name), name

    def test_public_options_are_pinned(self):
        found = {name: parameter_names(getattr(dkrylov, name)) for name in dkrylov.__all__}
        assert found == PUBLIC_PARAMETERS
        fields = [f.name for f in dataclasses.fields(dkrylov.SolveConfig)]
        assert fields == PUBLIC_PARAMETERS["SolveConfig"]

    def test_public_methods_are_pinned(self):
        found = {}
        for name in dkrylov.__all__:
            obj = getattr(dkrylov, name)
            if not isinstance(obj, type) or issubclass(obj, (enum.Enum, BaseException)):
                continue
            methods = {attr: parameter_names(value) for attr, value in vars(obj).items()
                       if not attr.startswith("_") and inspect.isfunction(value)}
            if methods:
                found[name] = methods
        assert found == PUBLIC_METHODS


class TestIo:
    @pytest.mark.parametrize("shape", [(5,), (4, 3)])
    def test_matrix_market_round_trip(self, tmp_path, shape):
        rng = np.random.default_rng(7)
        arr = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        path = tmp_path / "arr.mtx"
        dkio.write_matrix_market(path, arr)
        loaded = dkio.read_matrix_market(path)
        assert loaded.shape == arr.shape
        assert np.array_equal(loaded, arr)

    @pytest.mark.parametrize("deflation, x0", [
        ({"eigen_indices": "1-5,11-15"}, "zero"), ({"eigen_indices": "1-5,11-15"}, "random"),
        ({"breakdown_indices": "1-5"}, "breakdown-guess")], ids=["zero", "random", "breakdown"])
    @pytest.mark.parametrize("seed", [0, 5])
    def test_generator_problem_written_as_files_runs_the_same(self, tmp_path, seed, deflation,
                                                              x0):
        # A seeded problem's A and b and its deflation basis, written as
        # Matrix Market files, carry every array a run reads: the six
        # variants' JSON equals the generator spec's byte for byte.
        spec = {**paper_spec(10, **deflation), "run": {"variants": SIX_VARIANTS, "x0": x0}}
        spec["problem"]["seed"] = seed
        parsed = cli.parse_spec(write_spec(tmp_path, spec, "generator-spec.json"))
        p = cli.build_problem(parsed)
        for name, value in (("a", p.a), ("b", p.b), ("u", cli.build_basis(parsed, p))):
            dkio.write_matrix_market(tmp_path / f"{name}.mtx", value)
        files = {**spec, "problem": {"generator": "file", "a": str(tmp_path / "a.mtx"),
                                     "b": str(tmp_path / "b.mtx")},
                 "deflation": {"file": str(tmp_path / "u.mtx")}}
        outputs = []
        for name, run_spec in (("generator", spec), ("files", files)):
            out = tmp_path / f"{name}.json"
            assert cli.main(["run", write_spec(tmp_path, run_spec, f"{name}-spec.json"),
                             "--output", str(out)]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]
        assert len(json.loads(outputs[0])["results"]) == 6
