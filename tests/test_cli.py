"""Command-line interface: round trips, exit codes, and deterministic output."""

import csv
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.special import expit

import sslogit
import sslogit.cli as cli_mod
import sslogit.select as select_mod
from sslogit.cli import main
from sslogit.data import make_rng
from sslogit.em import FittedModel, predict
from sslogit.errors import DataError, NumericalError, ParameterError, SslogitError
from sslogit.experiments import BENCHMARK_SPECS

# Lists that begin with a minus sign must use the = form, otherwise the
# argument parser reads them as option names.
TINY_GRID = [
    "--grid-gamma1=0.0,0.5",
    "--grid-log10-lambda=-1.0,0.0",
]


def write_labeled(path, n, p, seed):
    rng = make_rng(seed)
    x = rng.normal(size=(n, p))
    y = (rng.random(n) < expit(x[:, 0])).astype(int)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"x{j}" for j in range(p)] + ["label"])
        for row, lab in zip(x, y):
            writer.writerow([f"{v:.8f}" for v in row] + [str(lab)])
    return x, y


def write_features(path, n, p, seed):
    rng = make_rng(seed)
    x = rng.normal(size=(n, p))
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"x{j}" for j in range(p)])
        for row in x:
            writer.writerow([repr(float(v)) for v in row])
    return x


def read_predictions(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["probability", "label"]
    probs = np.array([float(r[0]) for r in rows[1:]])
    labels = np.array([int(r[1]) for r in rows[1:]])
    return probs, labels


@pytest.fixture
def workdir(tmp_path):
    write_labeled(tmp_path / "labeled.csv", 30, 2, seed=0)
    write_features(tmp_path / "unlabeled.csv", 20, 2, seed=1)
    write_labeled(tmp_path / "test.csv", 25, 2, seed=2)
    return tmp_path


class TestFitPredictRoundTrip:
    def test_fit_writes_valid_model(self, workdir, capsys):
        model_path = workdir / "model.json"
        code = main([
            "fit", "--labeled", str(workdir / "labeled.csv"),
            "--unlabeled", str(workdir / "unlabeled.csv"),
            "--method", "lsslr", "--log10-lambda", "-1.0",
            "--model-out", str(model_path),
        ])
        assert code == 0
        assert "fit lsslr" in capsys.readouterr().out
        doc = json.loads(model_path.read_text())
        assert doc["format"] == "sslogit-model"
        assert doc["version"] == 1
        assert doc["n_features"] == 2
        assert len(doc["coefficients"]) == 3
        assert doc["converged"] is True

    def test_predict_matches_saved_coefficients(self, workdir):
        model_path = workdir / "model.json"
        main([
            "fit", "--labeled", str(workdir / "labeled.csv"),
            "--unlabeled", str(workdir / "unlabeled.csv"),
            "--method", "lsslr", "--model-out", str(model_path),
        ])
        x = write_features(workdir / "new.csv", 12, 2, seed=3)
        out_path = workdir / "preds.csv"
        code = main([
            "predict", "--model", str(model_path),
            "--data", str(workdir / "new.csv"), "--output", str(out_path),
        ])
        assert code == 0
        probs, labels = read_predictions(out_path)
        w = np.asarray(json.loads(model_path.read_text())["coefficients"])
        expected = expit(w[0] + x @ w[1:])
        np.testing.assert_allclose(probs, expected, rtol=1e-12)
        np.testing.assert_array_equal(labels, (expected > 0.5).astype(int))

    def test_hand_built_model_gives_hand_logits(self, tmp_path, capsys):
        model_path = tmp_path / "model.json"
        model_path.write_text(json.dumps({
            "format": "sslogit-model",
            "version": 1,
            "n_features": 1,
            "coefficients": [0.5, 1.0],
        }))
        with open(tmp_path / "x.csv", "w") as fh:
            fh.write("x0\n0.1\n-1.0\n")
        code = main(["predict", "--model", str(model_path), "--data", str(tmp_path / "x.csv")])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "probability,label"
        p0, l0 = lines[1].split(",")
        p1, l1 = lines[2].split(",")
        assert float(p0) == pytest.approx(expit(0.6), rel=1e-12)
        assert float(p1) == pytest.approx(expit(-0.5), rel=1e-12)
        assert (l0, l1) == ("1", "0")

    @pytest.mark.parametrize("to_file", [True, False], ids=["output", "stdout"])
    def test_predict_writes_repr_lines(self, tmp_path, capsys, to_file):
        # Saturated, tiny and tied (p = 0.5, label 0) probabilities included.
        w = np.array([0.0, 40.0, -3.0])
        model_path = tmp_path / "model.json"
        model_path.write_text(json.dumps({
            "format": "sslogit-model", "version": 1,
            "n_features": 2, "coefficients": w.tolist(),
        }))
        x = write_features(tmp_path / "x.csv", 30, 2, seed=4)
        with open(tmp_path / "x.csv", "a") as fh:
            fh.write("0.0,0.0\n")
        x = np.vstack([x, np.zeros((1, 2))])
        probs, labels = predict(FittedModel(w, None, None, None, None, None, None), x)
        expected = "probability,label\n" + "".join(
            f"{repr(float(p))},{int(l)}\n" for p, l in zip(probs, labels)
        )
        out_path = tmp_path / "preds.csv"
        argv = ["predict", "--model", str(model_path), "--data", str(tmp_path / "x.csv")]
        code = main(argv + (["--output", str(out_path)] if to_file else []))
        assert code == 0
        out = capsys.readouterr().out
        if to_file:
            assert out == f"wrote {out_path} (31 rows)\n"
            out = out_path.read_bytes().decode()
        assert out == expected
        assert {"1.0,1", "0.5,0"} <= set(out.splitlines())

    def test_standardization_is_stored_and_applied(self, tmp_path):
        # Features on a huge scale: the saved model must carry the pool
        # statistics and predict must undo them before the dot product.
        rng = make_rng(4)
        x = rng.normal(loc=500.0, scale=50.0, size=(40, 1))
        y = (rng.random(40) < expit((x[:, 0] - 500.0) / 50.0)).astype(int)
        with open(tmp_path / "labeled.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["x0", "label"])
            for xi, yi in zip(x, y):
                writer.writerow([f"{xi[0]:.8f}", str(yi)])
        model_path = tmp_path / "model.json"
        code = main([
            "fit", "--labeled", str(tmp_path / "labeled.csv"),
            "--method", "slr", "--standardize", "--model-out", str(model_path),
        ])
        assert code == 0
        doc = json.loads(model_path.read_text())
        std = doc["standardization"]
        assert std["mean"][0] == pytest.approx(x.mean(), rel=1e-9)

        x_new = write_features(tmp_path / "new.csv", 8, 1, seed=5) * 50.0 + 500.0
        np.savetxt(tmp_path / "new.csv", x_new, delimiter=",", header="x0", comments="")
        out_path = tmp_path / "preds.csv"
        main(["predict", "--model", str(model_path), "--data", str(tmp_path / "new.csv"),
              "--output", str(out_path)])
        probs, _ = read_predictions(out_path)
        w = np.asarray(doc["coefficients"])
        z = (x_new[:, 0] - std["mean"][0]) / std["scale"][0]
        np.testing.assert_allclose(probs, expit(w[0] + w[1] * z), rtol=1e-9)


class TestFitFlags:
    """gamma2 is accepted and has no effect; the EM and no-op flags are gone."""

    def fit_args(self, workdir, gamma2, model):
        return [
            "fit", "--labeled", str(workdir / "labeled.csv"),
            "--unlabeled", str(workdir / "unlabeled.csv"),
            "--method", "sslrcs", "--gamma1", "0.5", "--gamma2", gamma2,
            "--log10-lambda=-2", "--seed", "4", "--model-out", str(model),
        ]

    def test_gamma2_does_not_change_the_coefficients(self, workdir):
        coefs = []
        for gamma2 in ("0.5", "0.0"):
            model = workdir / f"model-{gamma2}.json"
            assert main(self.fit_args(workdir, gamma2, model)) == 0
            doc = json.loads(model.read_text())
            assert doc["params"]["gamma2"] == float(gamma2)
            coefs.append(doc["coefficients"])
        assert coefs[0] == coefs[1]

    @pytest.mark.parametrize(
        "command, flag, value",
        [
            ("fit", "--epsilon", "1e-3"),
            ("fit", "--test", "x.csv"),
            ("select", "--grid-gamma2", "0.0"),
        ],
        ids=["epsilon", "test", "grid-gamma2"],
    )
    def test_removed_em_flag_is_a_usage_error(self, workdir, capsys, command, flag, value):
        argv = self.fit_args(workdir, "0.5", workdir / "m.json")
        if command == "select":
            argv = ["select", "--labeled", str(workdir / "labeled.csv"), "--methods", "slr"]
        assert main(argv + [flag, value]) == 1
        assert flag in capsys.readouterr().err


class TestModelValidation:
    def make_inputs(self, tmp_path):
        with open(tmp_path / "x.csv", "w") as fh:
            fh.write("x0\n0.0\n")
        return tmp_path / "x.csv"

    def test_wrong_format_marker(self, tmp_path, capsys):
        data = self.make_inputs(tmp_path)
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"format": "other", "version": 1}))
        assert main(["predict", "--model", str(path), "--data", str(data)]) == 2
        assert "not a sslogit-model" in capsys.readouterr().err

    def test_unsupported_version(self, tmp_path, capsys):
        data = self.make_inputs(tmp_path)
        path = tmp_path / "m.json"
        path.write_text(json.dumps({
            "format": "sslogit-model", "version": 99,
            "n_features": 1, "coefficients": [0.0, 0.0],
        }))
        assert main(["predict", "--model", str(path), "--data", str(data)]) == 2
        assert "version" in capsys.readouterr().err

    def test_coefficient_length_mismatch(self, tmp_path, capsys):
        data = self.make_inputs(tmp_path)
        path = tmp_path / "m.json"
        path.write_text(json.dumps({
            "format": "sslogit-model", "version": 1,
            "n_features": 3, "coefficients": [0.0, 0.0],
        }))
        assert main(["predict", "--model", str(path), "--data", str(data)]) == 2
        assert "coefficient length" in capsys.readouterr().err

    def test_invalid_json(self, tmp_path, capsys):
        data = self.make_inputs(tmp_path)
        path = tmp_path / "m.json"
        path.write_text("{nope")
        assert main(["predict", "--model", str(path), "--data", str(data)]) == 2
        assert "invalid JSON" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field, code",
        [
            # predict does not read the fit details, so a bad one is ignored.
            ({"em_iterations": "x"}, 0),
            ({"coefficients": [0.5, "b"]}, 2),
            ({"standardization": {"mean": [0]}}, 2),
            ({"n_features": "1"}, 2),
        ],
        ids=["em_iterations", "coefficients", "standardization", "n_features"],
    )
    def test_malformed_field_does_not_crash(self, tmp_path, capsys, field, code):
        data = self.make_inputs(tmp_path)
        path = tmp_path / "m.json"
        doc = {"format": "sslogit-model", "version": 1,
               "n_features": 1, "coefficients": [0.5, 1.0]}
        path.write_text(json.dumps({**doc, **field}))
        assert main(["predict", "--model", str(path), "--data", str(data)]) == code
        err = capsys.readouterr().err
        assert err.startswith("error: ") if code else err == ""

    def test_feature_count_mismatch(self, tmp_path, capsys):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({
            "format": "sslogit-model", "version": 1,
            "n_features": 2, "coefficients": [0.0, 0.0, 0.0],
        }))
        data = self.make_inputs(tmp_path)
        assert main(["predict", "--model", str(path), "--data", str(data)]) == 2
        assert "model expects 2" in capsys.readouterr().err


class TestSelect:
    def test_table_and_json_for_all_methods(self, workdir, capsys):
        out_path = workdir / "select.json"
        code = main([
            "select", "--labeled", str(workdir / "labeled.csv"),
            "--unlabeled", str(workdir / "unlabeled.csv"),
            "--test", str(workdir / "test.csv"),
            "--methods", "sslrcs,lsslr,slr",
            "--output", str(out_path), *TINY_GRID,
        ])
        assert code == 0
        out = capsys.readouterr().out
        for token in ("selected", "sslrcs", "lsslr", "slr", "GIC",
                      "weighted NLL", "trace term", "test PE (%)"):
            assert token in out

        doc = json.loads(out_path.read_text())
        assert doc["command"] == "select"
        assert doc["config"]["grid"]["gamma1"] == [0.0, 0.5]
        methods = doc["methods"]
        assert set(methods) == {"sslrcs", "lsslr", "slr"}
        assert len(methods["sslrcs"]["candidates"]) == 2 * 1 * 2
        assert len(methods["lsslr"]["candidates"]) == 2
        assert len(methods["slr"]["candidates"]) == 2
        for m in methods.values():
            assert len(m["coefficients"]) == 3
            assert m["test_pe_percent"] is not None
            assert m["gic"] == pytest.approx(
                m["weighted_nll"] + 2.0 * m["trace_term"], rel=1e-12
            )

    def test_semisupervised_methods_require_unlabeled(self, workdir, capsys):
        code = main([
            "select", "--labeled", str(workdir / "labeled.csv"),
            "--methods", "sslrcs", *TINY_GRID,
        ])
        assert code == 1
        assert "--unlabeled is required" in capsys.readouterr().err

    def test_labeled_only_method_runs_without_unlabeled(self, workdir, capsys):
        code = main([
            "select", "--labeled", str(workdir / "labeled.csv"),
            "--methods", "slr", *TINY_GRID,
        ])
        assert code == 0
        assert "slr" in capsys.readouterr().out

    def test_unit_weight_method_runs_without_unlabeled(self, workdir):
        # lsslr never reads the unlabeled block, and it coincides with slr.
        results = {}
        for method in ("lsslr", "slr"):
            select_path = workdir / f"select-{method}.json"
            model_path = workdir / f"model-{method}.json"
            assert main([
                "select", "--labeled", str(workdir / "labeled.csv"),
                "--methods", method, "--output", str(select_path), *TINY_GRID,
            ]) == 0
            assert main([
                "fit", "--labeled", str(workdir / "labeled.csv"),
                "--method", method, "--model-out", str(model_path),
            ]) == 0
            model = json.loads(model_path.read_text())
            results[method] = (
                json.loads(select_path.read_text())["methods"][method],
                model["coefficients"],
                model["params"],
            )
        assert results["lsslr"] == results["slr"]

    @pytest.mark.parametrize(
        "error, code",
        [(ParameterError, 1), (DataError, 2), (NumericalError, 3), (SslogitError, 1)],
        ids=["ParameterError", "DataError", "NumericalError", "SslogitError"],
    )
    def test_numerical_failure_exit_code(self, workdir, monkeypatch, capsys, error, code):
        def boom(*args, **kwargs):
            raise error("all 4 grid candidates failed")

        monkeypatch.setattr(cli_mod, "grid_search", boom)
        assert main([
            "select", "--labeled", str(workdir / "labeled.csv"),
            "--methods", "slr", *TINY_GRID,
        ]) == code
        assert "grid candidates failed" in capsys.readouterr().err

    def test_ratio_weights_are_fit_only_for_sslrcs(self, workdir, monkeypatch):
        # slr and lsslr never read the ratio weights, so a request without
        # sslrcs must not pay for a uLSIF fit.
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return sslogit.weights_from_ulsif(*args, **kwargs)

        monkeypatch.setattr(cli_mod, "weights_from_ulsif", counting)
        results = {}
        for methods in ("slr,lsslr", "sslrcs,lsslr,slr"):
            calls.clear()
            path = workdir / f"select-{methods}.json"
            assert main([
                "select", "--labeled", str(workdir / "labeled.csv"),
                "--unlabeled", str(workdir / "unlabeled.csv"),
                "--methods", methods, "--output", str(path), *TINY_GRID,
            ]) == 0
            results[methods] = (len(calls), json.loads(path.read_text())["methods"])
        assert results["slr,lsslr"][0] == 0
        assert results["sslrcs,lsslr,slr"][0] == 1
        for m in ("slr", "lsslr"):
            assert results["slr,lsslr"][1][m] == results["sslrcs,lsslr,slr"][1][m]


class TestExitCodes:
    def test_missing_input_file(self, tmp_path, capsys):
        code = main([
            "select", "--labeled", str(tmp_path / "nope.csv"), "--methods", "slr",
        ])
        assert code == 2
        assert "cannot read" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, text, message",
        [
            ("--data", "x0,x1\n1.0,2.0\n3.0\n", "row 3 has 1 fields, expected 2"),
            ("--data", "x0,x1\n1.0,oops\n", "row 2 has a non-numeric feature"),
            ("--data", "x0,x1\n", "no data rows"),
            ("--data", "", "empty file"),
            ("--labeled", "x0,label\n1.0,1\n2.0\n", "row 3 has 1 fields, expected 2"),
            ("--labeled", "x0,label\noops,1\n", "row 2 has a non-numeric feature"),
            ("--labeled", "x0,y\n1.0,1\n", "final column must be named 'label'"),
            ("--labeled", "x0,label\n1.0,2\n", "row 2 label '2' not in {0,1}"),
            ("--labeled", "x0,label\n", "no data rows"),
            ("--labeled", "", "empty file"),
        ],
    )
    def test_malformed_csv_is_a_data_error(self, tmp_path, capsys, flag, text, message):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        if flag == "--data":
            model = tmp_path / "m.json"
            model.write_text(json.dumps({
                "format": "sslogit-model", "version": 1,
                "n_features": 2, "coefficients": [0.0, 0.0, 0.0],
            }))
            argv = ["predict", "--model", str(model), "--data", str(path)]
        else:
            argv = ["fit", "--labeled", str(path), "--method", "slr",
                    "--model-out", str(tmp_path / "m.json")]
        assert main(argv) == 2
        assert message in capsys.readouterr().err

    def test_unknown_flag(self, workdir, capsys):
        code = main([
            "select", "--labeled", str(workdir / "labeled.csv"), "--bogus",
        ])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_unknown_method_name(self, workdir, capsys):
        code = main([
            "select", "--labeled", str(workdir / "labeled.csv"), "--methods", "svm",
        ])
        assert code == 1
        assert "unknown method" in capsys.readouterr().err

    def test_repeated_method_name(self, workdir, capsys):
        code = main([
            "select", "--labeled", str(workdir / "labeled.csv"), "--methods", "slr,slr",
        ])
        assert code == 1
        assert "repeated method" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["sim2", "--n", "25"], "--n"),
            (["sim1", "--case", "3"], "--case"),
            (["sim1", "--dataset", "synthetic"], "--dataset"),
            (["sim2", "--fractions", "20"], "--fractions"),
            (["sim1", "--n", "25", "--standardize"], "--standardize"),
            (["bench", "--dataset", "synthetic", "--standardize"], "--standardize"),
            (["bench", "--dataset", "synthetic", "--data-dir", "/nonexistent"], "--data-dir"),
            (["bench", "--dataset", "synthetic", "--no-strict"], "--no-strict"),
        ],
        ids=[
            "n-sim2", "case-sim1", "dataset-sim1", "fractions-sim2",
            "standardize-sim1", "standardize-synthetic", "data-dir-synthetic",
            "no-strict-synthetic",
        ],
    )
    def test_replicate_flag_outside_its_study(self, tmp_path, capsys, argv, flag):
        # The study would ignore the flag, yet the JSON would record it.
        output = tmp_path / "out.json"
        code = main([
            "replicate", *argv, "--trials", "1", "--methods", "slr",
            "--output", str(output), *TINY_GRID,
        ])
        assert code == 1
        assert f"error: {flag} does not apply" in capsys.readouterr().err
        assert not output.exists()

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["sim1", "--n", "0"], "sample sizes must be positive"),
            (["sim2", "--case", "0"], "case must be one of"),
        ],
        ids=["n-0", "case-0"],
    )
    def test_replicate_zero_setting_is_rejected(self, tmp_path, capsys, argv, message):
        # 0 is a given value, not a missing flag: it must not run every setting.
        output = tmp_path / "out.json"
        code = main([
            "replicate", *argv, "--trials", "1", "--methods", "slr",
            "--output", str(output), *TINY_GRID,
        ])
        assert code == 1
        assert message in capsys.readouterr().err
        assert not output.exists()

    @pytest.mark.parametrize("label", ["0", "1"])
    @pytest.mark.parametrize("command", ["select", "fit"])
    def test_one_class_labeled_block_is_a_data_error(self, tmp_path, capsys, command, label):
        # A one-class block has no finite maximizer; the fit would report a
        # saturated intercept as converged.
        path = tmp_path / "one_class.csv"
        path.write_text("x0,label\n" + "".join(f"{0.1 * i},{label}\n" for i in range(20)))
        output = tmp_path / "out.json"
        if command == "select":
            argv = ["select", "--methods", "slr", "--output", str(output)]
        else:
            argv = ["fit", "--method", "slr", "--model-out", str(output)]
        assert main(argv + ["--labeled", str(path)]) == 2
        assert "labeled rows must include both classes" in capsys.readouterr().err
        assert not output.exists()

    @pytest.mark.parametrize("exponent", ["400", "-400"])
    def test_out_of_range_lambda_exponent_fits_nothing(
        self, workdir, monkeypatch, capsys, exponent
    ):
        # 10**400 overflows to inf and 10**-400 underflows to 0: the grid is
        # rejected before any ratio or logistic fit, with no numpy warning.
        def no_fit(*args, **kwargs):
            raise AssertionError("a fit ran")

        monkeypatch.setattr(select_mod, "fit_step1_batch", no_fit)
        monkeypatch.setattr(cli_mod, "weights_from_ulsif", no_fit)
        output = workdir / "out.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main([
                "select", "--labeled", str(workdir / "labeled.csv"),
                "--unlabeled", str(workdir / "unlabeled.csv"),
                f"--grid-log10-lambda={exponent}", "--output", str(output),
            ])
        assert code == 1
        assert "log10_lambda_values" in capsys.readouterr().err
        assert not output.exists()

    @pytest.mark.parametrize(
        "exponent, lam", [("400", "inf"), ("-400", "0.0"), ("nan", "nan")]
    )
    def test_out_of_range_fit_lambda_is_a_usage_error(
        self, workdir, capsys, exponent, lam
    ):
        # 10.0**400 raises OverflowError in Python; it is rejected as an
        # infinite lambda, like the underflow to 0, before any file is read.
        output = workdir / "m.json"
        code = main([
            "fit", "--labeled", str(workdir / "labeled.csv"), "--method", "slr",
            f"--log10-lambda={exponent}", "--model-out", str(output),
        ])
        assert code == 1
        assert capsys.readouterr().err == f"error: lam must be positive and finite, got {lam}\n"
        assert not output.exists()

    @pytest.mark.parametrize(
        "flags, name",
        [
            (["--ratio-floor", "5", "--ratio-cap", "2"], "ratio_cap"),
            (["--ratio-floor", "0"], "ratio_floor"),
            (["--ratio-floor", "-1"], "ratio_floor"),
            (["--ratio-floor", "nan"], "ratio_floor"),
            (["--ratio-cap", "0"], "ratio_cap"),
            (["--ratio-cap", "nan"], "ratio_cap"),
        ],
        ids=["floor-above-cap", "floor-0", "floor-neg", "floor-nan", "cap-0", "cap-nan"],
    )
    @pytest.mark.parametrize("method", ["sslrcs", "slr"])
    @pytest.mark.parametrize("command", ["fit", "select"])
    def test_bad_ratio_range_is_rejected(self, workdir, capsys, command, method, flags, name):
        # Checked for every method, before any file is read: numpy's clip
        # with floor > cap would set every weight to the cap.
        output = workdir / "out.json"
        if command == "select":
            argv = ["select", "--methods", method, "--output", str(output), *TINY_GRID]
        else:
            argv = ["fit", "--method", method, "--gamma1", "1", "--model-out", str(output)]
        code = main(argv + [
            "--labeled", str(workdir / "labeled.csv"),
            "--unlabeled", str(workdir / "unlabeled.csv"), *flags,
        ])
        assert code == 1
        assert f"error: {name}" in capsys.readouterr().err
        assert not output.exists()

    def test_ratio_range_is_checked_before_reading(self, tmp_path, capsys):
        code = main([
            "fit", "--method", "slr", "--labeled", str(tmp_path / "missing.csv"),
            "--ratio-floor", "0", "--model-out", str(tmp_path / "model.json"),
        ])
        assert code == 1
        assert "ratio_floor" in capsys.readouterr().err

    def test_replicate_bench_needs_dataset(self, capsys):
        code = main(["replicate", "bench", "--trials", "1"])
        assert code == 1
        assert "requires --dataset" in capsys.readouterr().err

    def test_bad_fraction_rejected(self, capsys):
        code = main([
            "replicate", "bench", "--dataset", "synthetic",
            "--fractions", "150", "--trials", "1",
        ])
        assert code == 1
        assert "out of (0, 1)" in capsys.readouterr().err

    def test_bad_grid_list_rejected(self, workdir, capsys):
        code = main([
            "select", "--labeled", str(workdir / "labeled.csv"),
            "--methods", "slr", "--grid-gamma1", "a,b",
        ])
        assert code == 1
        assert "cannot parse" in capsys.readouterr().err


class TestReplicate:
    def test_sim1_single_setting_table(self, tmp_path, capsys):
        code = main([
            "replicate", "sim1", "--n", "25", "--trials", "1",
            "--methods", "slr", *TINY_GRID,
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "labeled n" in out
        assert "n=25" in out
        assert "PE slr" in out

    def test_synthetic_bench_runs_identically_twice(self, tmp_path, capsys):
        args = [
            "replicate", "bench", "--dataset", "synthetic",
            "--fractions", "20", "--trials", "2", "--methods", "slr,lsslr",
            *TINY_GRID,
        ]
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        assert main(args + ["--output", str(first)]) == 0
        assert main(args + ["--output", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()

        doc = json.loads(first.read_text())
        assert doc["study"] == "bench"
        run = doc["results"]["20%"]
        assert run["n_trials"] == 2
        assert len(run["records"]) == 4
        for summary in run["summaries"]:
            assert summary["n_failed"] == 0
            assert np.isfinite(summary["mean_pe_percent"])

    def test_output_bytes_do_not_depend_on_blas_threads(self, tmp_path):
        # The thread count is read when numpy loads, so each run gets its
        # own interpreter with the variables set before the import.
        src = str(Path(sslogit.__file__).resolve().parents[1])
        outputs = []
        for threads in ("1", "2"):
            path = tmp_path / f"threads{threads}.json"
            env = dict(
                os.environ,
                OPENBLAS_NUM_THREADS=threads,
                OMP_NUM_THREADS=threads,
                PYTHONPATH=src,
            )
            subprocess.run(
                [sys.executable, "-m", "sslogit.cli", "replicate", "sim1",
                 "--n", "25", "--trials", "2", "--seed", "7",
                 "--output", str(path)],
                env=env, check=True, capture_output=True, timeout=600,
            )
            outputs.append(path.read_bytes())
        assert outputs[0] == outputs[1]

    def test_benchmark_csvs_via_env_dir(self, tmp_path, monkeypatch, capsys):
        spec = BENCHMARK_SPECS["pima"]
        rng = make_rng(6)
        for stem, n in (("pima_train", spec.n_train), ("pima_test", spec.n_test)):
            with open(tmp_path / f"{stem}.csv", "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow([f"x{j}" for j in range(spec.n_features)] + ["label"])
                for i in range(n):
                    row = [f"{v:.6f}" for v in rng.normal(size=spec.n_features)]
                    writer.writerow(row + [str(i % 2)])
        monkeypatch.setenv("SSLOGIT_DATA_DIR", str(tmp_path))
        code = main([
            "replicate", "bench", "--dataset", "pima",
            "--fractions", "20", "--trials", "1", "--methods", "slr",
            *TINY_GRID,
        ])
        assert code == 0
        assert "20%" in capsys.readouterr().out
