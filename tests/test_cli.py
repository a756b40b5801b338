import json
import pathlib

import pytest

from metaprop.cli import main

TESTDATA = pathlib.Path(__file__).resolve().parent / "data"


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
        code, out, _ = run(capsys, "select", data, schema, "--out-dir", out_dir)
        assert code == 3
        assert "Full: fit failed" in out
        for name in ("comparison.md", "comparison.csv", "search_trail.jsonl", "manifest.json"):
            assert (out_dir / name).exists()

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

    def test_recover_small(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("simulation:\n  h: 5\n  trials_per_study: 3\n  mu: 1.1\n"
                       "  sigma2_xi: 0.01\n  sigma2_zeta: 0.005\n"
                       "  n_range: [300, 900]\n  seed: 4\n")
        code, out, _ = run(capsys, "recover", cfg, "--reps", "3", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["replications"] == 3
        assert 0.0 <= payload["coverage"] <= 1.0


class TestVersionAndHelp:
    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0

    def test_no_command_errors(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2
