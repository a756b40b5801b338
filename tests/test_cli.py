import ast
import contextlib
import dataclasses
import io
import json
import os
import pathlib
import subprocess
import sys
import tempfile
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import metaprop
from metaprop import engine
from metaprop.cli import main
from metaprop.simulate import load_simconfig, recovery_experiment

TESTDATA = pathlib.Path(__file__).resolve().parent / "data"


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def strict_json(text):
    """json.loads that rejects NaN and Infinity, which RFC 8259 does not allow."""
    def reject(token):
        raise ValueError(f"{token} is not JSON")
    return json.loads(text, parse_constant=reject)


def unconverged(monkeypatch, marked):
    """Patch ``engine.fit_designs`` so that each fit ``marked`` picks reads converged=False."""
    fit_designs = engine.fit_designs

    def patched(*args, **kwargs):
        for k, result in fit_designs(*args, **kwargs):
            if isinstance(result, engine.FitResult) and marked(result):
                result = dataclasses.replace(result, converged=False)
            yield k, result
    monkeypatch.setattr(engine, "fit_designs", patched)


class TestFit:
    def test_text_output(self, capsys, example_paths):
        code, out, _ = run(capsys, "fit", example_paths["data"], example_paths["schema"])
        assert code == 0
        for token in ("Pooled accuracy", "sigma2_xi", "Cochran Q", "I2"):
            assert token in out

    def test_json_output(self, capsys, example_paths):
        code, out, _ = run(capsys, "fit", example_paths["data"], example_paths["schema"],
                           "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["m"] == 195 and payload["h"] == 20
        assert 0.0 < payload["prop"] < 1.0
        assert payload["q_df"] == 194

    def test_diagnostics_flag(self, capsys, example_paths):
        code, out, _ = run(capsys, "fit", example_paths["data"], example_paths["schema"],
                           "--diagnostics", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        kinds = {d["kind"] for d in payload["transform_diagnostics"]}
        assert "double_arcsine" in kinds

    def test_malformed_csv_exit_2(self, capsys, tmp_path, example_paths):
        bad = tmp_path / "bad.csv"
        bad.write_text("study_id,trial_id,k,n\nS1,t1,101,100\n")
        code, _, err = run(capsys, "fit", bad, example_paths["schema"])
        assert code == 2
        assert "error" in err

    def test_non_finite_feature_exit_2(self, capsys, tmp_path, example_paths):
        lines = pathlib.Path(example_paths["data"]).read_text().splitlines()
        cells = lines[1].split(",")
        cells[4] = "nan"  # train_test_ratio
        bad = tmp_path / "nan.csv"
        bad.write_text("\n".join([lines[0], ",".join(cells)] + lines[2:]) + "\n")
        code, _, err = run(capsys, "fit", bad, example_paths["schema"])
        assert code == 2
        assert "line 2" in err and "not finite" in err

    def test_perfect_accuracy_ci_brackets_estimate(self, capsys, tmp_path):
        # the CI's upper end lies beyond theta(n, n) at the pooled n_equiv
        data = tmp_path / "perfect.csv"
        data.write_text("study_id,trial_id,k,n\nS1,t1,10,10\nS1,t2,10,10\n"
                        "S2,t1,10,10\nS2,t2,10,10\n")
        schema = tmp_path / "schema.yaml"
        schema.write_text("features: {}\n")
        code, out, _ = run(capsys, "fit", data, schema, "--format", "json")
        assert code == 0
        payload = json.loads(out)
        low, high = payload["prop_ci"]
        assert low <= payload["prop"] <= high

    def test_diagnostics_computed_once(self, capsys, monkeypatch, example_paths):
        from metaprop import cli

        calls = []
        original = cli.transform_diagnostic
        monkeypatch.setattr(cli, "transform_diagnostic",
                            lambda dataset: calls.append(1) or original(dataset))
        code, _, _ = run(capsys, "fit", example_paths["data"], example_paths["schema"],
                         "--diagnostics")
        assert code == 0
        assert len(calls) == 1

    @pytest.mark.parametrize("spec, needle", [
        ("a: [1, 2]", "feature 'a' must be a mapping"),
        ("a: {kind: numeric, scale: abc}", "feature 'a': scale"),
        ("a: {kind: numeric, scale: [1]}", "feature 'a': scale"),
        ("a: {kind: numeric, scale: .inf}", "feature 'a': scale"),
        ("a: {kind: numeric, scale: 1e-320}", "line 2: feature 'a' is not finite"),
        ("c: {kind: categorical, reference_level: x, grouping: [1]}", "feature 'c': grouping"),
        ("c: {kind: categorical, reference_level: [x]}", "feature 'c': categorical features need a reference_level"),
        ("a: {kind: numeric", "line 2"),
    ], ids=["list", "scale-text", "scale-list", "scale-inf", "scale-tiny", "grouping-list",
            "reference-list", "yaml-syntax"])
    def test_hostile_schema_exit_2(self, capsys, tmp_path, spec, needle):
        data = tmp_path / "data.csv"
        data.write_text("study_id,trial_id,k,n,a,c\nS1,t1,8,10,1,x\nS1,t2,7,10,2,y\n"
                        "S2,t1,9,10,3,x\nS2,t2,6,10,4,y\n")
        schema = tmp_path / "schema.yaml"
        schema.write_text(f"features:\n  {spec}\n")
        code, _, err = run(capsys, "regress", data, schema, "--features", "all")
        assert code == 2
        assert needle in err

    @pytest.mark.parametrize("schema, expected", [
        ("features:\n  a: {kind: numeric\n", "line 2: invalid YAML: while parsing a flow mapping: "
                                              "expected ',' or '}', but got '<stream end>'"),
        ("features:\n  a: \x07\n", "line 2: invalid YAML: unacceptable character #x0007: "
                                   "special characters are not allowed"),
    ], ids=["flow-mapping", "control-character"])
    def test_yaml_syntax_error_is_one_line(self, capsys, tmp_path, schema, expected):
        data = tmp_path / "data.csv"
        data.write_text("study_id,trial_id,k,n,a\nS1,t1,8,10,1\nS2,t1,7,10,2\n")
        (tmp_path / "schema.yaml").write_text(schema)
        code, out, err = run(capsys, "fit", data, tmp_path / "schema.yaml")
        assert (code, out, err) == (2, "", f"error: {expected}\n")

    @pytest.mark.parametrize("target, raw, needle", [
        ("data", b"S2,t2,6,10\nS3,t1,5,10\n".replace(b"S3", b"S\xe93"), "line 6: not valid UTF-8"),
        ("schema", "features: {a: {kind: \xe9}}\n".encode("latin-1"), "line 2: not valid UTF-8"),
        ("data", b"S2,t2,6,1e20\n", "line 5: n exceeds 2**53"),
        ("data", b"S2,t2,9007199254740994,10\n", "line 5: k exceeds 2**53"),
        ("data", b"S2,t2,6," + b"9" * 200_000 + b"\n", "line 5: field larger"),
        ("data", b"S2,t2,,10\n", "line 5: accuracy is not a number"),
        ("data", b"S2,t2,6,10,7\n", "line 5: 5 fields where the header has 4"),
        ("data", b"S2,t2,6\n", "line 5: 3 fields where the header has 4"),
        ("schema", b"features: {a: {kind: numeric}}\n", "line 2: key 'features' is given twice"),
    ], ids=["data-latin1", "schema-latin1", "n-1e20", "k-2**53+2", "long-field", "no-k",
            "extra-field", "missing-field", "schema-key-twice"])
    def test_malformed_file_exit_2_with_line(self, capsys, tmp_path, target, raw, needle):
        files = {"data": b"study_id,trial_id,k,n\nS1,t1,8,10\nS1,t2,7,10\nS2,t1,9,10\n",
                 "schema": b"features: {}\n"}
        files[target] += raw
        for name, content in files.items():
            (tmp_path / name).write_bytes(content)
        code, _, err = run(capsys, "fit", tmp_path / "data", tmp_path / "schema")
        assert code == 2
        assert needle in err

    def test_header_naming_a_column_twice_exit_2(self, capsys, tmp_path):
        # csv.DictReader would keep the second n, 5000, and fit accuracies near 0
        data, schema = tmp_path / "data.csv", tmp_path / "schema.yaml"
        data.write_text("study_id,trial_id,k,n,n,x\nS1,t1,80,100,5000,1\nS1,t2,70,100,5000,2\n"
                        "S2,t1,60,100,5000,3\nS2,t2,75,100,5000,4\n")
        schema.write_text("features:\n  x:\n    kind: numeric\n")
        code, out, err = run(capsys, "fit", data, schema)
        assert code == 2 and out == ""
        assert err == "error: line 1: the header names column 'n' twice\n"

    @pytest.mark.parametrize("command", ["fit", "select"])
    def test_one_trial_exit_2(self, capsys, tmp_path, command):
        # no model fits one trial: ingest says so, not the engine or the search
        data, schema = tmp_path / "one.csv", tmp_path / "schema.yaml"
        data.write_text("study_id,trial_id,k,n\nS1,t1,8,10\n")
        schema.write_text("features: {}\n")
        code, out, err = run(capsys, command, data, schema, "--out-dir", tmp_path / "out")
        assert code == 2 and out == ""
        assert "line 2: the file has one data row and needs at least 2" in err

    def test_byte_order_mark_fits_as_plain(self, capsys, tmp_path, example_paths):
        marked = tmp_path / "marked.csv"
        marked.write_bytes(b"\xef\xbb\xbf" + pathlib.Path(example_paths["data"]).read_bytes())
        plain = run(capsys, "fit", example_paths["data"], example_paths["schema"])
        assert plain[0] == 0
        assert run(capsys, "fit", marked, example_paths["schema"]) == plain

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_nonconvergence_exit_3_warns(self, capsys, monkeypatch, example_paths, fmt):
        monkeypatch.setattr(engine, "MAX_EVALUATIONS", 1)
        code, out, err = run(capsys, "fit", example_paths["data"], example_paths["schema"],
                             "--format", fmt)
        assert code == 3
        assert err == "warning: fit did not converge\n"
        if fmt == "json":
            assert json.loads(out)["converged"] is False

    def test_missing_file_exit_2(self, capsys, example_paths):
        code, _, err = run(capsys, "fit", "/nonexistent.csv", example_paths["schema"])
        assert code == 2

    def test_writes_manifest_and_artifact(self, capsys, tmp_path, example_paths):
        out_dir = tmp_path / "out"
        code, _, _ = run(capsys, "fit", example_paths["data"], example_paths["schema"],
                         "--out-dir", out_dir)
        assert code == 0
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["command"] == "fit"
        assert (out_dir / "fit.json").exists()


class TestRegress:
    def test_single_feature(self, capsys, example_paths):
        code, out, _ = run(capsys, "regress", example_paths["data"],
                           example_paths["schema"], "--features", "ml_model")
        assert code == 0
        assert "(Ref: Classical machine learning)" in out
        assert "R2 vs null" in out

    def test_all_features_table_shape(self, capsys, example_paths):
        code, out, _ = run(capsys, "regress", example_paths["data"],
                           example_paths["schema"], "--features", "all",
                           "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["f"] == 29
        assert len(payload["coefficients"]) == 29
        assert payload["dropped"] == ["topic=Not specified"]

    def test_unknown_feature_exit_2(self, capsys, example_paths):
        code, _, err = run(capsys, "regress", example_paths["data"],
                           example_paths["schema"], "--features", "bogus")
        assert code == 2
        assert "unknown feature" in err

    def test_repeated_column_label_exit_2(self, capsys, tmp_path):
        # the numeric "intercept" would be reported dropped while the intercept is kept
        data, schema = tmp_path / "d.csv", tmp_path / "s.yaml"
        data.write_text("study_id,trial_id,k,n,intercept,m\n" + "".join(
            f"S{i // 3},t{i % 3},{60 + i},100,1,{'abc'[i % 3]}\n" for i in range(12)))
        schema.write_text("features:\n  intercept: {kind: numeric}\n"
                          "  m: {kind: categorical, reference_level: a}\n")
        code, out, err = run(capsys, "regress", data, schema, "--features", "intercept,m")
        assert (code, out) == (2, "")
        assert err == ("error: column label 'intercept' names a column of the intercept and "
                       "one of feature 'intercept': rename a feature\n")

    @pytest.mark.parametrize("command", ["regress", "select"])
    @pytest.mark.parametrize("magnitude", ["1e160", "1e-200"])
    def test_unsquarable_numeric_exit_2(self, capsys, tmp_path, command, magnitude):
        # 1e160 overflowed the rank rule's column norm, 1e-200 made X'V^-1X singular
        data, schema = tmp_path / "d.csv", tmp_path / "s.yaml"
        data.write_text("study_id,trial_id,k,n,x\n" + "".join(
            f"S{i // 2},t{i % 2},{60 + 3 * i},100,{1.3 + 0.37 * i:.2f}{magnitude[1:]}\n"
            for i in range(8)))
        schema.write_text("features:\n  x: {kind: numeric}\n")
        args = ["--features", "x"] if command == "regress" else ["--out-dir", tmp_path / "out"]
        code, out, err = run(capsys, command, data, schema, *args)
        assert (code, out) == (2, "")
        assert err == (f"error: line 2: feature 'x' is outside [1e-100, 1e+100] in magnitude "
                       f"after scaling: '1.30{magnitude[1:]}' / 1.0; choose its schema 'scale' "
                       "to bring it in range\n")

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_nonconvergence_exit_3_warns(self, capsys, monkeypatch, example_paths, fmt):
        monkeypatch.setattr(engine, "MAX_EVALUATIONS", 1)
        code, out, err = run(capsys, "regress", example_paths["data"], example_paths["schema"],
                             "--features", "ml_model", "--format", fmt)
        assert code == 3
        assert err == "warning: fit did not converge\n"
        if fmt == "json":
            assert json.loads(out)["converged"] is False

    def test_intercept_only_nonconvergence_exit_3(self, capsys, monkeypatch, tmp_path,
                                                  example_paths):
        # only the intercept-only fit, which R2 is measured against, fails to converge
        unconverged(monkeypatch, lambda fit: fit.f == 1)
        code, out, err = run(capsys, "regress", example_paths["data"], example_paths["schema"],
                             "--features=ml_model", "--format", "json", "--out-dir", tmp_path)
        assert (code, err) == (3, "warning: fit did not converge\n")
        assert json.loads(out)["converged"] is True                 # the model's own fit
        assert (tmp_path / "regression.md").is_file() and (tmp_path / "regression.csv").is_file()


class TestSelect:
    def test_small_protocol_and_artifacts(self, capsys, tmp_path, example_paths):
        out_dir = tmp_path / "sel"
        code, out, _ = run(capsys, "select", example_paths["data"],
                           str(TESTDATA / "small_schema.yaml"), "--out-dir", out_dir)
        assert code == 0
        assert out.count("\n") >= 7
        assert (out_dir / "comparison.md").exists()
        assert (out_dir / "comparison.csv").exists()
        trail = [json.loads(line) for line in
                 (out_dir / "search_trail.jsonl").read_text().splitlines()]
        assert len(trail) == 8  # 3 feature groups
        assert (out_dir / "manifest.json").exists()

    def test_byte_identical_reruns(self, capsys, tmp_path, example_paths):
        outs = []
        for name in ("a", "b"):
            out_dir = tmp_path / name
            code, _, _ = run(capsys, "select", example_paths["data"],
                             str(TESTDATA / "small_schema.yaml"), "--out-dir", out_dir)
            assert code == 0
            outs.append({p.name: p.read_bytes()
                         for p in out_dir.iterdir() if p.name != "manifest.json"})
        assert outs[0] == outs[1]

    def test_stepwise_not_better_than_exhaustive(self, capsys, tmp_path, example_paths):
        vals = {}
        for strategy in ("exhaustive", "stepwise"):
            out_dir = tmp_path / strategy
            code, _, _ = run(capsys, "select", example_paths["data"],
                             str(TESTDATA / "small_schema.yaml"),
                             "--strategy", strategy, "--out-dir", out_dir)
            assert code == 0
            lines = (out_dir / "comparison.csv").read_text().splitlines()
            header = lines[0].split(",")
            aic_rows = [dict(zip(header, ln.split(","))) for ln in lines[1:]]
            vals[strategy] = min(float(r["aic"]) for r in aic_rows if r["model"] == "AIC")
        assert vals["exhaustive"] <= vals["stepwise"] + 1e-9

    def test_failed_row_exit_3_with_artifacts(self, capsys, tmp_path):
        # four trials and a four-level feature: the Full model has m == f
        data = tmp_path / "tiny.csv"
        data.write_text("study_id,trial_id,k,n,grp\nS1,t1,80,100,a\nS1,t2,70,90,b\n"
                        "S2,t1,60,100,c\nS2,t2,75,80,d\n")
        schema = tmp_path / "schema.yaml"
        schema.write_text("features:\n  grp:\n    kind: categorical\n    reference_level: a\n")
        out_dir = tmp_path / "sel"
        code, out, err = run(capsys, "select", data, schema, "--out-dir", out_dir)
        assert (code, err) == (3, "warning: fit did not converge\n")
        assert "Full: fit failed" in out
        for name in ("comparison.md", "comparison.csv", "search_trail.jsonl", "manifest.json"):
            assert (out_dir / name).exists()
        code, out, err = run(capsys, "select", data, schema, "--format", "json",
                             "--out-dir", out_dir)
        assert (code, err) == (3, "warning: fit did not converge\n")
        full = next(row for row in strict_json(out)["rows"] if row["name"] == "Full")
        assert full["aic"] is None and full["mu_prop"] is None
        strict_json((out_dir / "manifest.json").read_text())
        for line in (out_dir / "search_trail.jsonl").read_text().splitlines():
            strict_json(line)

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_nonconvergence_exit_3_warns(self, capsys, monkeypatch, tmp_path, example_paths,
                                         fmt):
        # every fit with a moderator fails to converge; the search's forked
        # children inherit the patch
        unconverged(monkeypatch, lambda fit: fit.f > 1)
        out_dir = tmp_path / "sel"
        code, out, err = run(capsys, "select", example_paths["data"],
                             str(TESTDATA / "small_schema.yaml"), "--format", fmt,
                             "--out-dir", out_dir)
        assert (code, err) == (3, "warning: fit did not converge\n")
        if fmt == "json":
            rows = {row["name"]: row["converged"] for row in json.loads(out)["rows"]}
            assert rows["Null"] is True and rows["Full"] is False
        for name in ("comparison.md", "comparison.csv", "search_trail.jsonl", "manifest.json"):
            assert (out_dir / name).is_file()

    @pytest.mark.parametrize("command", ["fit", "select"])
    def test_one_study_warns(self, capsys, tmp_path, command):
        # sigma2_xi is held at the floor with one study, and every command says so
        data = tmp_path / "one.csv"
        data.write_text("study_id,trial_id,k,n,x\n" + "".join(
            f"S1,t{i},{k},100,{x}\n" for i, (k, x) in enumerate(
                [(80, 0.1), (70, 0.7), (60, 0.2), (75, 0.9), (90, 0.4), (65, 0.3)])))
        schema = tmp_path / "schema.yaml"
        schema.write_text("features:\n  x:\n    kind: numeric\n")
        code, _, err = run(capsys, command, data, schema, "--out-dir", tmp_path / "out")
        assert code == 0
        assert err == "warning: only one study: sigma2_xi is not identifiable and is fixed at 0\n"

    def test_one_study_warns_once_per_command(self, tmp_path):
        # select fits the search's subsets and the five rows, fit one model: each
        # command's stderr carries the warning once
        data = tmp_path / "one.csv"
        data.write_text("study_id,trial_id,k,n,x\n" + "".join(
            f"S1,t{i},{k},100,{x}\n" for i, (k, x) in enumerate(
                [(80, 0.1), (70, 0.7), (60, 0.2), (75, 0.9), (90, 0.4), (65, 0.3)])))
        schema = tmp_path / "schema.yaml"
        schema.write_text("features:\n  x:\n    kind: numeric\n")
        src = str(pathlib.Path(metaprop.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        for command in ("select", "fit"):
            out = subprocess.run([sys.executable, "-m", "metaprop.cli", command, str(data),
                                  str(schema), "--out-dir", str(tmp_path / command)],
                                 env=env, capture_output=True, text=True, timeout=120)
            assert out.returncode == 0, out.stderr
            lines = [line for line in out.stderr.splitlines() if "only one study" in line]
            assert len(lines) == 1, (command, out.stderr)

    def test_ml_likelihood_flag_in_manifest(self, capsys, tmp_path, example_paths):
        out_dir = tmp_path / "ml"
        code, _, _ = run(capsys, "select", example_paths["data"],
                         str(TESTDATA / "small_schema.yaml"),
                         "--criterion-likelihood", "ml", "--out-dir", out_dir)
        assert code == 0
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["inputs"]["criterion_likelihood"] == "ml"


class TestForest:
    def test_svg_written_and_golden_match(self, capsys, tmp_path, example_paths):
        out = tmp_path / "forest.svg"
        code, _, _ = run(capsys, "forest", example_paths["data"],
                         example_paths["schema"], out)
        assert code == 0
        got = out.read_bytes()
        assert got == (TESTDATA / "forest_golden.svg").read_bytes()

    def test_rerun_byte_identical(self, capsys, tmp_path, example_paths):
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        run(capsys, "forest", example_paths["data"], example_paths["schema"], a)
        run(capsys, "forest", example_paths["data"], example_paths["schema"], b)
        assert a.read_bytes() == b.read_bytes()

    def test_malformed_input_exit_2(self, capsys, tmp_path, example_paths):
        bad = tmp_path / "bad.csv"
        bad.write_text("not,a,real,header\n1,2,3,4\n")
        code, _, _ = run(capsys, "forest", bad, example_paths["schema"],
                         tmp_path / "x.svg")
        assert code == 2

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_nonconvergence_exit_3_warns(self, capsys, monkeypatch, tmp_path, example_paths,
                                         fmt):
        monkeypatch.setattr(engine, "MAX_EVALUATIONS", 1)
        out_svg = tmp_path / "forest.svg"
        code, out, err = run(capsys, "forest", example_paths["data"], example_paths["schema"],
                             out_svg, "--format", fmt)
        assert code == 3
        assert err == "warning: fit did not converge\n"
        assert out_svg.exists()
        if fmt == "json":
            assert json.loads(out)["out"] == str(out_svg)


class TestSimulateAndRecover:
    def test_simulate_byte_identical(self, capsys, tmp_path, example_paths):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(capsys, "simulate", example_paths["simconfig"], a)[0] == 0
        assert run(capsys, "simulate", example_paths["simconfig"], b)[0] == 0
        assert a.read_bytes() == b.read_bytes()

    def test_simulated_csv_fits_with_emitted_schema(self, capsys, tmp_path, example_paths):
        out = tmp_path / "sim.csv"
        run(capsys, "simulate", example_paths["simconfig"], out)
        schema = tmp_path / "sim_schema.yaml"
        assert schema.exists()  # written even without moderators
        code, payload, _ = run(capsys, "fit", out, schema, "--format", "json")
        assert code == 0
        data = json.loads(payload)
        assert data["m"] == 195 and data["h"] == 20

    def test_invalid_config_exit_2(self, capsys, tmp_path):
        cfg = tmp_path / "bad.yaml"
        cfg.write_text("simulation:\n  h: 0\n  trials_per_study: 2\n  mu: 1\n"
                       "  sigma2_xi: 0\n  sigma2_zeta: 0\n  n_range: [10, 20]\n")
        code, _, err = run(capsys, "simulate", cfg, tmp_path / "x.csv")
        assert code == 2

    @pytest.mark.parametrize("line, needle", [
        ("h: abc", "'h'"),
        ("mu: .nan", "'mu'"),
        ("sigma2_xi: .inf", "'sigma2_xi'"),
        ("n_range: 5", "'n_range'"),
        ("n_range: [10, 20, 30]", "n_range"),
        ("moderators: [{effect: 1}]", "'moderators'"),
        ("moderators: [{name: a, effect: x}]", "'moderators'"),
        ("h: [", "line"),
        ("seed: 3.7", "'seed'"),
        ("seed: true", "'seed'"),
        ("h: true", "'h'"),
        ("h: 2.5", "'h'"),
        ("trials_per_study: [2.5, 3, 2]", "'trials_per_study'"),
        ("trials_per_study: false", "'trials_per_study'"),
        ("n_range: [10.5, 20]", "'n_range'"),
        ("seed: 18446744073709551616", "'seed'"),
        ("seed: 9223372036854775808", "'seed'"),
        ("seed: -9223372036854775809", "'seed'"),
        ("h: 100000000000000000000", "'h'"),
        ("trials_per_study: 100000000000000000000", "'trials_per_study'"),
        ("trials_per_study: [2, 100000000000000000000, 2]", "'trials_per_study'"),
        ("h: 4; trials_per_study: 10000000000", "'trials_per_study'"),
        ("h: 4611686018427387904; trials_per_study: 3", "'h'"),
        ("trials_per_study: [2, 10000000000, 2]", "'trials_per_study'"),
    ], ids=["h-text", "mu-nan", "xi-inf", "n_range-scalar", "n_range-triple", "moderator-no-name",
            "moderator-effect-text", "yaml-syntax", "seed-fraction", "seed-bool", "h-bool",
            "h-fraction", "trials-fraction", "trials-bool", "n_range-fraction", "seed-2**64",
            "seed-2**63", "seed-below-int64", "h-beyond-int64", "trials-beyond-int64",
            "trials-entry-beyond-int64", "trials-beyond-memory", "h-beyond-memory",
            "trials-entry-beyond-memory"])
    def test_hostile_config_exit_2(self, capsys, tmp_path, line, needle):
        fields = {"h": "3", "trials_per_study": "2", "mu": "1", "sigma2_xi": "0",
                  "sigma2_zeta": "0", "n_range": "[10, 20]"}
        for setting in line.split("; "):
            key, value = setting.split(": ", 1)
            fields[key] = value
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("simulation:\n" + "".join(f"  {k}: {v}\n" for k, v in fields.items()))
        code, _, err = run(capsys, "simulate", cfg, tmp_path / "x.csv")
        assert code == 2
        assert needle in err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert files_under(tmp_path) == ["cfg.yaml"]

    def test_config_yaml_syntax_error_is_one_line(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("simulation:\n  h: [\n  mu: 1\n")
        code, out, err = run(capsys, "simulate", cfg, tmp_path / "x.csv")
        assert (code, out) == (2, "")
        assert err == ("error: line 2: invalid YAML: while parsing a flow sequence: "
                       "expected ',' or ']', but got '<stream end>'\n")

    def test_config_giving_a_key_twice_exit_2(self, capsys, tmp_path):
        # safe_load would keep h: 30 and write 60 trials in 30 studies
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("simulation:\n  h: 3\n  trials_per_study: 2\n  mu: 1\n  sigma2_xi: 0\n"
                       "  sigma2_zeta: 0\n  n_range: [10, 20]\n  h: 30\n")
        code, out, err = run(capsys, "simulate", cfg, tmp_path / "x.csv")
        assert code == 2 and out == ""
        assert err == "error: line 8: key 'h' is given twice\n"
        assert files_under(tmp_path) == ["cfg.yaml"]

    @pytest.mark.parametrize("moderators, label, owners", [
        ("[{name: intercept, kind: numeric, effect: 0.1}]", "intercept", "the intercept"),
        ("[{name: a, kind: categorical, effect: 0.1}, {name: 'a=b', kind: numeric, effect: 0.1}]",
         "a=b", "feature 'a'"),
    ], ids=["numeric-intercept", "numeric-equals-dummy"])
    def test_repeated_column_label_exit_2(self, capsys, tmp_path, moderators, label, owners):
        # fit would refuse the written dataset, so simulate writes none;
        # seed 3 draws level b of 'a' in one of the 4 studies
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("simulation:\n  h: 4\n  trials_per_study: 3\n  mu: 1\n  sigma2_xi: 0.01\n"
                       "  sigma2_zeta: 0.01\n  n_range: [50, 100]\n  seed: 3\n"
                       f"  moderators: {moderators}\n")
        code, out, err = run(capsys, "simulate", cfg, tmp_path / "s.csv")
        assert (code, out) == (2, "")
        assert err.startswith(f"error: column label {label!r} names a column of {owners} ")
        assert files_under(tmp_path) == ["cfg.yaml"]

    @pytest.mark.parametrize("setting, error", [
        ("moderators: [{name: n, effect: 0.1, kind: numeric}]",
         "line 1: the header names column 'n' twice"),
        ("moderators: [{name: k, effect: 0.1, kind: numeric}]",
         "line 1: the header names column 'k' twice"),
        ("moderators: [{name: study_id, effect: 0.1, kind: numeric}]",
         "line 1: the header names column 'study_id' twice"),
        ("moderators: [{name: trial_id, effect: 0.1, kind: numeric}]",
         "line 1: the header names column 'trial_id' twice"),
        ("n_range: [1e16, 2e16]", "n_range may not exceed 2**53, "),
    ], ids=["moderator-n", "moderator-k", "moderator-study_id", "moderator-trial_id",
            "n-beyond-2**53"])
    def test_csv_that_fit_refuses_exit_2(self, capsys, tmp_path, setting, error):
        # simulate reads back the CSV it would write, so it writes none that fit refuses
        fields = {"h": "4", "trials_per_study": "3", "mu": "1", "sigma2_xi": "0.01",
                  "sigma2_zeta": "0.01", "n_range": "[50, 100]"}
        key, value = setting.split(": ", 1)
        fields[key] = value
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("simulation:\n" + "".join(f"  {k}: {v}\n" for k, v in fields.items()))
        code, out, err = run(capsys, "simulate", cfg, tmp_path / "s.csv")
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {error}") and err.count("\n") == 1
        assert files_under(tmp_path) == ["cfg.yaml"]

    @pytest.mark.parametrize("command, mode", [
        ("simulate", "binomial"), ("recover", "gaussian"), ("recover", "binomial"),
    ], ids=["simulate-binomial", "recover-gaussian", "recover-binomial"])   # simulate-gaussian: above
    @pytest.mark.parametrize("setting, error", [
        ("moderators: [{name: n, effect: 0.1, kind: numeric}]",
         "error: line 1: the header names column 'n' twice\n"),
        ("n_range: [1e16, 2e16]", "error: n_range may not exceed 2**53, the largest n a "
                                  "dataset holds, got max 20000000000000000\n"),
    ], ids=["moderator-n", "n-beyond-2**53"])
    def test_layout_no_file_can_carry_exit_2(self, capsys, tmp_path, monkeypatch, setting,
                                             error, command, mode):
        # recover reads replicate 0 back as simulate does; a binomial draw of n
        # beyond 2**53 once ran out of memory in both commands
        monkeypatch.chdir(tmp_path)
        fields = {"h": "4", "trials_per_study": "3", "mu": "1", "sigma2_xi": "0.01",
                  "sigma2_zeta": "0.01", "n_range": "[50, 100]", "seed": "3", "mode": mode}
        key, value = setting.split(": ", 1)
        fields[key] = value
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("simulation:\n" + "".join(f"  {k}: {v}\n" for k, v in fields.items()))
        argv = {"simulate": ["simulate", cfg, "s.csv"], "recover": ["recover", cfg, "--reps", "3"]}
        assert run(capsys, *argv[command], "--out-dir", "out") == (2, "", error)
        assert files_under(tmp_path) == ["cfg.yaml"]

    @pytest.mark.parametrize("command", ["simulate", "recover"])
    @pytest.mark.parametrize("low, high", [(9000000000000000, 2 ** 53), (2 ** 24 + 1, 2 ** 24 + 1)],
                             ids=["2**53", "2**24+1"])
    def test_binomial_n_beyond_bound_exit_2(self, capsys, tmp_path, monkeypatch, low, high,
                                            command):
        # a binomial draw reads n numbers: at n = 2**53 it once asked for 64 TiB
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("simulation:\n  h: 4\n  trials_per_study: 3\n  mu: 1\n  sigma2_xi: 0.01\n"
                       f"  sigma2_zeta: 0.01\n  n_range: [{low}, {high}]\n  mode: binomial\n")
        argv = {"simulate": ["simulate", cfg, "s.csv"], "recover": ["recover", cfg, "--reps", "3"]}
        code, out, err = run(capsys, *argv[command], "--out-dir", "out")
        assert (code, out) == (2, "")
        assert err == ("error: n_range may not exceed 2**24 (rng.BINOMIAL_N_MAX) in binomial mode, "
                       f"whose draws take time in proportion to n, got max {high}\n")
        assert files_under(tmp_path) == ["cfg.yaml"]

    @pytest.mark.parametrize("replicate", ["99999999999999999999", "-9223372036854775809"])
    def test_replicate_beyond_int64_exit_2(self, capsys, tmp_path, example_paths, replicate):
        code, out, err = run(capsys, "simulate", example_paths["simconfig"], tmp_path / "s.csv",
                             "--replicate", replicate)
        assert (code, out) == (2, "")
        assert err == ("error: --replicate must lie in the signed 64-bit range "
                       f"[-2**63, 2**63 - 1], got {replicate}\n")
        assert files_under(tmp_path) == []

    def test_warning_precedes_error_and_nothing_is_written(self, tmp_path):
        # the clamp note is printed once, without a source path, before the error
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("simulation:\n  h: 10\n  trials_per_study: 10\n  mu: 1.55\n"
                       "  sigma2_xi: 0.05\n  sigma2_zeta: 0.002\n  n_range: [100, 500]\n")
        src = str(pathlib.Path(metaprop.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = subprocess.run([sys.executable, "-m", "metaprop.cli", "simulate", str(cfg),
                              "missing/sim.csv"], cwd=tmp_path, env=env, capture_output=True,
                             text=True, timeout=120)
        assert out.returncode == 2 and out.stdout == ""
        warning, error = out.stderr.splitlines()
        assert warning.startswith("warning: ") and warning.endswith(
            "% of generated effects fell outside [0, pi/2] and were clamped; the "
            "configuration pushes proportions against the boundary")
        assert error == ("error: [Errno 2] No such file or directory: "
                         f"'{tmp_path / 'missing' / 'sim.csv'}'")
        assert files_under(tmp_path) == ["cfg.yaml"]

    def test_recover_prints_one_clamp_summary(self, capsys, tmp_path):
        # every replicate clamps, at 31 distinct rates: one summary line, not 31 notes
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("simulation:\n  h: 10\n  trials_per_study: 10\n  mu: 1.55\n"
                       "  sigma2_xi: 0.05\n  sigma2_zeta: 0.002\n  n_range: [100, 500]\n")
        code, _, err = run(capsys, "recover", cfg, "--reps", "50")
        assert code == 0
        assert err == ("warning: 50 of 50 replicates had more than 5% of their generated "
                       "effects clamped to [0, pi/2] (at most 77.0%)\n")

    def test_recover_small(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("simulation:\n  h: 5\n  trials_per_study: 3\n  mu: 1.1\n"
                       "  sigma2_xi: 0.01\n  sigma2_zeta: 0.005\n"
                       "  n_range: [300, 900]\n  seed: 4\n")
        code, out, _ = run(capsys, "recover", cfg, "--reps", "3", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert list(payload) == [
            "replications", "truth", "mean_mu", "mean_sigma2_xi", "mean_sigma2_zeta",
            "coverage", "bias_sigma2_xi", "bias_sigma2_zeta", "n_nonconverged", "coverage_se",
            "abs_bias_sigma2_xi", "abs_bias_sigma2_zeta"]
        assert payload["truth"] == {"mu": 1.1, "sigma2_xi": 0.01, "sigma2_zeta": 0.005}
        summary = recovery_experiment(load_simconfig(cfg), 3)
        fields = [key for key in payload if key != "truth"]
        assert [payload[key] for key in fields] == [getattr(summary, key) for key in fields]

    def test_fit_payload_keys_are_pinned(self, capsys, tmp_path, example_paths):
        data, schema = example_paths["data"], example_paths["schema"]
        fit_keys = ["m", "h", "f", "method", "converged", "loglik", "mu", "se", "ci", "prop",
                    "prop_ci", "sigma2_xi", "sigma2_zeta", "q", "q_df", "q_pvalue", "sigma2_eps",
                    "i2_xi", "i2_zeta", "i2_total"]
        for extra, keys in (([], fit_keys),
                            (["--diagnostics"], fit_keys + ["transform_diagnostics"])):
            out_dir = tmp_path / f"fit{len(extra)}"
            code, out, _ = run(capsys, "fit", data, schema, *extra, "--format", "json",
                               "--out-dir", out_dir)
            assert code == 0
            assert list(json.loads(out)) == keys
            assert list(json.loads((out_dir / "fit.json").read_text())) == keys
        code, out, _ = run(capsys, "regress", data, schema, "--features=ml_model",
                           "--format", "json")
        assert code == 0
        assert list(json.loads(out)) == [
            "features", "f", "m", "h", "method", "converged", "loglik", "sigma2_xi",
            "sigma2_zeta", "r2_xi", "r2_zeta", "dropped", "coefficients"]
        code, out, _ = run(capsys, "select", data, str(TESTDATA / "small_schema.yaml"),
                           "--format", "json", "--out-dir", tmp_path / "sel")
        assert code == 0
        rows = json.loads(out)["rows"]
        assert len(rows) == 5
        for row in rows:
            assert list(row) == [
                "name", "features", "f", "aic", "bic", "rmse", "q", "q_df", "q_pvalue",
                "sigma2_xi", "sigma2_zeta", "i2_xi", "i2_zeta", "mu", "mu_se", "mu_prop",
                "mu_prop_low", "mu_prop_high", "r2_xi", "r2_zeta", "converged", "note"]

    def test_recover_zero_xi_json_is_strict(self, capsys, tmp_path):
        # the relative bias of a true sigma2_xi of 0 is not a number: JSON null
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("simulation:\n  h: 5\n  trials_per_study: 3\n  mu: 1.1\n"
                       "  sigma2_xi: 0\n  sigma2_zeta: 0.005\n"
                       "  n_range: [300, 900]\n  seed: 4\n")
        code, out, _ = run(capsys, "recover", cfg, "--reps", "3", "--format", "json")
        assert code == 0
        payload = strict_json(out)
        assert payload["bias_sigma2_xi"] is None
        assert payload["bias_sigma2_zeta"] is not None
        code, out, _ = run(capsys, "recover", cfg, "--reps", "3")
        assert code == 0
        assert "(rel. bias +nan)" in out                 # text output is unchanged

    def test_recover_zero_xi_absolute_bias_is_finite(self, capsys, tmp_path):
        # the absolute bias of a true sigma2_xi of 0 is its mean estimate
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("simulation:\n  h: 5\n  trials_per_study: 3\n  mu: 1.1\n"
                       "  sigma2_xi: 0\n  sigma2_zeta: 0.005\n"
                       "  n_range: [300, 900]\n  seed: 4\n")
        code, out, _ = run(capsys, "recover", cfg, "--reps", "3", "--format", "json")
        assert code == 0
        payload = strict_json(out)
        assert list(payload)[-3:] == ["coverage_se", "abs_bias_sigma2_xi", "abs_bias_sigma2_zeta"]
        assert payload["abs_bias_sigma2_xi"] == payload["mean_sigma2_xi"]
        assert payload["abs_bias_sigma2_zeta"] == pytest.approx(
            payload["mean_sigma2_zeta"] - 0.005, abs=1e-15)
        code, out, _ = run(capsys, "recover", cfg, "--reps", "3")
        assert code == 0
        lines = out.splitlines()
        assert f"mean {payload['mean_sigma2_xi']:.4f}, " \
            f"bias {payload['abs_bias_sigma2_xi']:+.3g} (rel. bias +nan)" in lines[2]
        assert f", bias {payload['abs_bias_sigma2_zeta']:+.3g} (rel. bias " in lines[3]
        assert "nan" not in lines[3]

    def test_recover_zero_reps_exit_2(self, capsys, example_paths):
        code, _, err = run(capsys, "recover", example_paths["simconfig"], "--reps", "0")
        assert code == 2
        assert "replications must be >= 1" in err

    @pytest.mark.parametrize("command", ["forest", "simulate", "recover"])
    def test_manifest_goes_to_out_dir(self, capsys, tmp_path, monkeypatch, example_paths,
                                      command):
        monkeypatch.delenv("METAPROP_OUT_DIR", raising=False)
        file_dir, out_dir = tmp_path / "file", tmp_path / "out"
        file_dir.mkdir()
        argv = {"forest": ["forest", example_paths["data"], example_paths["schema"],
                           file_dir / "forest.svg", "--method", "ml", "--study-effects", "pool"],
                "simulate": ["simulate", example_paths["simconfig"], file_dir / "sim.csv",
                             "--replicate", "3"],
                "recover": ["recover", example_paths["simconfig"], "--reps", "2"]}[command]
        code, _, _ = run(capsys, *argv, "--out-dir", out_dir)
        assert code == 0
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["command"] == command and manifest["out_dir"] == str(out_dir)
        recorded = {"forest": {"method": "ml", "study_effects": "pool"},
                    "simulate": {"replicate": 3}, "recover": {"reps": 2}}[command]
        assert recorded.items() <= manifest["inputs"].items()
        if command != "forest":
            assert manifest["seed"] == load_simconfig(example_paths["simconfig"]).seed
        assert not (file_dir / "manifest.json").exists()


def files_under(root):
    return sorted(p.relative_to(root).as_posix() for p in pathlib.Path(root).rglob("*"))


class TestOutputPaths:
    """forest and simulate return their named outputs as artifacts, and a
    command that cannot write every output writes none."""

    def argv(self, command, example_paths, out, *extra):
        inputs = {"forest": [example_paths["data"], example_paths["schema"]],
                  "simulate": [example_paths["simconfig"]]}[command]
        return [command, *inputs, out, *extra]

    @pytest.mark.parametrize("command, name", [("forest", "forest.svg"),
                                               ("simulate", "sim.csv")])
    def test_out_dir_naming_a_file_exit_2_writes_nothing(self, capsys, tmp_path, example_paths,
                                                         command, name):
        (tmp_path / "f").mkdir()
        (tmp_path / "f" / "notadir").write_text("")
        code, out, err = run(capsys, *self.argv(command, example_paths, tmp_path / "f" / name,
                                                "--out-dir", tmp_path / "f" / "notadir"))
        assert code == 2 and out == ""
        assert err.startswith("error: [Errno 17] File exists")
        assert files_under(tmp_path) == ["f", "f/notadir"]

    @pytest.mark.parametrize("command, out, extra", [
        ("forest", "missing/forest.svg", ()),
        ("forest", "missing/forest.svg", ("--out-dir", "out")),
        ("simulate", "missing/sim.csv", ()),
        ("simulate", "sim.csv", ("--schema-out", "missing/s.yaml")),
        ("simulate", "sim.csv", ("--schema-out", "missing/s.yaml", "--out-dir", "out")),
    ], ids=["forest", "forest-out-dir", "simulate", "simulate-schema",
            "simulate-schema-out-dir"])
    def test_output_in_missing_directory_exit_2_writes_nothing(self, capsys, tmp_path,
                                                               monkeypatch, example_paths,
                                                               command, out, extra):
        monkeypatch.chdir(tmp_path)
        code, _, err = run(capsys, *self.argv(command, example_paths, out, *extra))
        assert code == 2
        assert err.startswith("error: [Errno 2] No such file or directory") and "missing" in err
        assert files_under(tmp_path) == []

    @pytest.mark.parametrize("command, out, extra, directory", [
        ("forest", "adir", (), "adir"),
        ("simulate", "sim.csv", ("--schema-out", "adir"), "adir"),
        ("forest", "forest.svg", ("--out-dir", "out"), "out/manifest.json"),
    ], ids=["forest", "simulate-schema", "manifest"])
    def test_output_naming_a_directory_exit_2_writes_nothing(self, capsys, tmp_path,
                                                             monkeypatch, example_paths,
                                                             command, out, extra, directory):
        monkeypatch.chdir(tmp_path)
        (tmp_path / directory).mkdir(parents=True)
        before = files_under(tmp_path)
        code, _, err = run(capsys, *self.argv(command, example_paths, out, *extra))
        assert code == 2
        assert err.startswith("error: [Errno 21] Is a directory") and directory in err
        assert files_under(tmp_path) == before

    @pytest.mark.parametrize("command, extra, path", [
        ("simulate", ("--schema-out", "sim.csv"), "sim.csv"),
        ("forest", (), "manifest.json"),
    ], ids=["simulate-schema", "forest-manifest"])
    def test_two_outputs_at_one_path_exit_2_writes_nothing(self, capsys, tmp_path, monkeypatch,
                                                           example_paths, command, extra, path):
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, *self.argv(command, example_paths, path, *extra))
        assert (code, out) == (2, "")
        assert err == f"error: two outputs resolve to one path: {tmp_path.resolve() / path}\n"
        assert files_under(tmp_path) == []

    @pytest.mark.parametrize("command, argv, existing, written", [
        ("regress", ["--features", "ml_model", "--out-dir", "out"], [],
         ["out", "out/manifest.json", "out/regression.csv", "out/regression.md"]),
        ("regress", ["--features", "ml_model", "--out-dir", "a/b"], [],
         ["a", "a/b", "a/b/manifest.json", "a/b/regression.csv", "a/b/regression.md"]),
        ("regress", ["--features", "ml_model", "--out-dir", "a/b"], ["a"],
         ["a", "a/b", "a/b/manifest.json", "a/b/regression.csv", "a/b/regression.md"]),
        ("simulate", ["sim.csv", "--schema-out", "s.yaml"], [],
         ["manifest.json", "s.yaml", "sim.csv"]),
    ], ids=["regress", "regress-nested", "regress-nested-in-existing", "simulate"])
    @pytest.mark.parametrize("fail", [False, True], ids=["ok", "second-write-fails"])
    def test_failed_write_leaves_no_file(self, capsys, tmp_path, monkeypatch, example_paths,
                                         command, argv, existing, written, fail):
        # every output goes to a temporary name first; when the second file's
        # write raises, no output, no temporary and no directory made for the
        # out-dir remains, and a directory that existed before stays
        from metaprop import cli

        opened = []

        def opening(path, *args, **kwargs):
            fh = open(path, *args, **kwargs)
            opened.append(os.path.basename(path))
            if fail and len(opened) == 2:
                real = fh.write

                def write(text):                 # part of the text reaches the file
                    real(text[:10])
                    raise OSError(28, "No space left on device", path)
                fh.write = write
            return fh

        monkeypatch.setattr(cli, "open", opening, raising=False)
        monkeypatch.chdir(tmp_path)
        for directory in existing:
            os.mkdir(directory)
        inputs = {"regress": [example_paths["data"], example_paths["schema"]],
                  "simulate": [example_paths["simconfig"]]}[command]
        code, out, err = run(capsys, command, *inputs, *argv)
        assert all(name.startswith(".") and name.endswith(f".{os.getpid()}.tmp")
                   for name in opened)
        if fail:
            assert (code, out) == (2, "") and err.startswith("error: [Errno 28] No space left")
            assert len(opened) == 2 and files_under(tmp_path) == existing
        else:
            assert code == 0 and files_under(tmp_path) == written

    def test_commands_return_outputs_and_write_nothing(self, tmp_path, monkeypatch,
                                                       example_paths):
        from metaprop.cli import build_parser, cmd_forest, cmd_simulate

        monkeypatch.chdir(tmp_path)
        forest = cmd_forest(build_parser().parse_args(
            self.argv("forest", example_paths, "forest.svg")))
        simulated = cmd_simulate(build_parser().parse_args(
            self.argv("simulate", example_paths, "sim.csv", "--schema-out", "s.yaml")))
        assert files_under(tmp_path) == []
        assert forest.artifacts == [
            (str(tmp_path / "forest.svg"), (TESTDATA / "forest_golden.svg").read_text())]
        [(csv_path, csv), (schema_path, schema)] = simulated.artifacts
        assert [csv_path, schema_path] == [str(tmp_path / "sim.csv"), str(tmp_path / "s.yaml")]
        assert schema == "features: {}\n"
        assert csv.startswith("study_id,trial_id,k,n\nS01,S01-t1,")


FUZZ_CSV = [["study_id", "trial_id", "k", "n", "size", "model"],
            ["S1", "t1", "8", "10", "1500", "lr"],
            ["S1", "t2", "45", "50", "3000", "svm"],
            ["S2", "t1", "70", "100", "2000", "nn"],
            ["S2", "t2", "40", "50", "2500", "svm"],
            ["S3", "t1", "30", "40", "1800", "lr"]]
FUZZ_SCHEMA = ["features:", "  size:", "    kind: numeric", "    scale: 1000", "  model:",
               "    kind: categorical", "    reference_level: base", "    grouping:",
               "      lr: base", "      svm: svm", "      nn: nn"]
CELL_TOKENS = ["", "0", "-1", "1.5", "1e20", "9007199254740993", "nan", "inf", "1e-320",
               "1e308", "1e160", "1e-200", "abc", "base", "accuracy", "k", "S1", "t1", '"', ",", "\x00", "\r", "\u00e9"]
YAML_TOKENS = ["    scale: abc", "    scale: [1]", "    scale: .inf", "    scale: 1e-320",
               "    scale: 0", "    kind: [1]", "    kind: numeric", "    reference_level: [x]",
               "    reference_level: 7", "    grouping: [1]", "  size: [1, 2]", "  size: abc",
               "  model:", "features: [", "features: 3", "    bogus: 1", "  k: {kind: numeric}",
               "      base: svm", "      nn: base", "  size: {kind: numeric"]


class TestFuzz:
    @given(cells=st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5),
                                    st.sampled_from(CELL_TOKENS) | st.text(max_size=6)),
                          max_size=4),
           dropped=st.sets(st.integers(0, 5), max_size=2),
           rows=st.integers(1, 6),
           yaml_lines=st.lists(st.tuples(st.integers(0, len(FUZZ_SCHEMA) - 1),
                                         st.sampled_from(YAML_TOKENS) | st.text(max_size=12)),
                               max_size=3),
           raw=st.lists(st.tuples(st.sampled_from(["d.csv", "s.yaml"]), st.integers(0, 400),
                                  st.binary(min_size=1, max_size=2)),
                        max_size=1))
    @settings(max_examples=150, deadline=None)
    def test_fit_on_mutated_input_exits_0_or_2(self, cells, dropped, rows, yaml_lines, raw):
        """Mutated header, cells, YAML and bytes: exit 0 or 2, no exception, no RuntimeWarning."""
        table = [list(row) for row in FUZZ_CSV[:rows]]
        for i, j, token in cells:
            if i < len(table):
                table[i][j] = token
        schema = list(FUZZ_SCHEMA)
        for i, line in yaml_lines:
            schema[i] = line
        files = {"d.csv": "".join(",".join(cell for j, cell in enumerate(row) if j not in dropped)
                                  + "\n" for row in table).encode(),
                 "s.yaml": "".join(line + "\n" for line in schema).encode()}
        for name, at, chunk in raw:
            files[name] = files[name][:at] + chunk + files[name][at:]
        with tempfile.TemporaryDirectory() as tmp:
            for name, content in files.items():
                pathlib.Path(tmp, name).write_bytes(content)
            with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()) as err:
                warnings.simplefilter("error", RuntimeWarning)
                warnings.simplefilter("ignore", UserWarning)  # the one-study note
                code = main(["fit", os.path.join(tmp, "d.csv"), os.path.join(tmp, "s.yaml")])
        assert code in (0, 2), err.getvalue()


class TestVersionAndHelp:
    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0

    def test_no_command_errors(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2


REFUSE_SCIPY = """
import contextlib, io, sys

class RefuseScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ModuleNotFoundError(f"import of {name} refused")

sys.meta_path.insert(0, RefuseScipy())
from metaprop.cli import main
data, schema = sys.argv[1:]
commands = [["fit", data, schema, "--diagnostics", "--format=json"],
            ["regress", data, schema, "--features=all"],
            ["forest", data, schema, "forest.svg"],
            ["select", data, schema, "--out-dir", "select"]]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [main(argv) for argv in commands]
print(codes)
"""


class TestImport:
    @staticmethod
    def python(*args, cwd=None, env=None):
        src = str(pathlib.Path(metaprop.__file__).resolve().parents[1])
        env = os.environ if env is None else env
        env = dict(env, PYTHONPATH=os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")])))
        out = subprocess.run([sys.executable, *args], env=env, cwd=cwd, capture_output=True,
                             text=True, check=True, timeout=120)
        return out.stdout.strip()

    def test_import_leaves_out_scipy_optimize_and_stats(self):
        # each command is a fresh interpreter, so import time is part of its wall time;
        # scipy is a test dependency only, so no scipy module may load at all
        code = ("import sys, metaprop.cli; "
                "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])")
        assert self.python("-c", code) == "[]"

    def test_import_leaves_out_xml_sax_and_urllib(self):
        # xml.sax.saxutils pulls in urllib and http.client, ~40 ms of every command
        code = ("import sys, metaprop.cli; "
                "print(sorted(m for m in sys.modules "
                "if m.startswith(('xml.sax', 'urllib.request', 'http'))))")
        assert self.python("-c", code) == "[]"

    def test_import_leaves_out_process_pools(self):
        # the exhaustive search forks with os alone; selection imports nothing
        # that its engine, heterogeneity and ingest imports have not loaded
        code = ("import sys, metaprop.cli; "
                "print(sorted(m for m in sys.modules "
                "if m.split('.')[0] in ('multiprocessing', 'concurrent')))")
        assert self.python("-c", code) == "[]"
        code = ("import sys, numpy, metaprop.engine, metaprop.heterogeneity, metaprop.ingest; "
                "before = set(sys.modules); import metaprop.selection; "
                "print(sorted(set(sys.modules) - before))")
        assert self.python("-c", code) == "['metaprop.selection']"
        tree = ast.parse(pathlib.Path(metaprop.__file__).with_name("selection.py").read_text())
        imported = {"." * node.level + (node.module or "") if isinstance(node, ast.ImportFrom)
                    else alias.name for node in tree.body
                    if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names}
        assert sorted(imported) == [".", ".ingest", "__future__", "dataclasses", "math", "numpy"]

    def test_package_import_leaves_out_numpy(self):
        # metaprop.cli must set the BLAS thread count before numpy loads, and
        # python -m metaprop.cli imports the package first
        assert self.python("-c", "import sys, metaprop; print('numpy' in sys.modules)") == "False"

    @pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc/self/task")
    @pytest.mark.parametrize("given, threads", [(None, 1), ("2", 2)], ids=["unset", "user-set"])
    def test_one_blas_thread_unless_the_user_sets_it(self, given, threads):
        if threads > len(os.sched_getaffinity(0)):
            pytest.skip(f"OpenBLAS runs at most one thread per core, and {threads} are needed")
        env = {key: value for key, value in os.environ.items() if key != "OPENBLAS_NUM_THREADS"}
        if given is not None:
            env["OPENBLAS_NUM_THREADS"] = given
        code = ("import os, metaprop.cli; "
                "print(os.environ['OPENBLAS_NUM_THREADS'], len(os.listdir('/proc/self/task')))")
        assert self.python("-c", code, env=env) == f"{given or 1} {threads}"

    def test_select_output_does_not_depend_on_blas_threads(self, tmp_path, example_paths):
        outputs = []
        for threads in ("1", "2"):
            out_dir = tmp_path / threads
            stdout = self.python("-m", "metaprop.cli", "select", example_paths["data"],
                                 str(TESTDATA / "small_schema.yaml"), "--out-dir", str(out_dir),
                                 env=dict(os.environ, OPENBLAS_NUM_THREADS=threads))
            outputs.append([stdout] + [(out_dir / name).read_bytes() for name in (
                "comparison.md", "comparison.csv", "search_trail.jsonl")])
        assert outputs[0] == outputs[1]

    def test_commands_run_with_scipy_import_refused(self, tmp_path, example_paths):
        # a lazy import inside any command would fail under the refusing finder
        out = self.python("-c", REFUSE_SCIPY, example_paths["data"],
                          str(pathlib.Path(__file__).parent / "data" / "small_schema.yaml"),
                          cwd=tmp_path)
        assert out == "[0, 0, 0, 0]"
        assert (tmp_path / "forest.svg").is_file() and (tmp_path / "select").is_dir()
