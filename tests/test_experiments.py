"""Study generators, benchmark ingestion, and the Monte Carlo driver."""

import csv
import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

import sslogit.experiments as experiments_mod
import sslogit.objective as objective_mod
import sslogit.select as select_mod
from sslogit.data import SplitDataset, make_rng, read_csv
from sslogit.em import fit_step1_batch, predict
from sslogit.errors import DataError, NumericalError, ParameterError, SslogitError
from sslogit.experiments import (
    BENCHMARK_FRACTIONS,
    BENCHMARK_SPECS,
    BenchmarkExperiment,
    ShiftedSyntheticExperiment,
    Sim1Config,
    Sim2Config,
    TrialRecord,
    gen_shifted_benchmark,
    gen_sim1,
    gen_sim2,
    load_benchmark,
    prediction_error,
    run_trials,
    sim1_conditional_prob,
    sim1_experiment,
    sim1_labeled_density,
    sim1_unlabeled_density,
    sim2_experiment,
)
from sslogit.ratios import unit_weights
from sslogit.select import METHODS, Grid, grid_search, shared_search

ONE_POINT_GRID = Grid((0.0,), (0.0,), (0.0,))


class _ToyExperiment:
    """Minimal in-memory experiment for driver tests."""

    name = "toy"

    def make_trial(self, seed):
        rng = make_rng(seed)
        data = SplitDataset(
            labeled_x=rng.normal(size=(30, 2)),
            labeled_y=(rng.random(30) < 0.5).astype(np.uint8),
            unlabeled_x=rng.normal(size=(20, 2)),
            test_x=rng.normal(size=(40, 2)),
            test_y=(rng.random(40) < 0.5).astype(np.uint8),
        )
        return data, unit_weights(data)


class TestSim1:
    def test_config_rejects_nonpositive_sizes(self):
        with pytest.raises(ParameterError, match="positive"):
            Sim1Config(n_labeled=0)

    def test_density_constants(self):
        lab = sim1_labeled_density()
        unl = sim1_unlabeled_density()
        assert lab.mean[0] == -0.9 and unl.mean[0] == -0.4
        assert lab.mean[1] == pytest.approx(0.467049803619, abs=1e-10)
        assert unl.mean[1] == pytest.approx(0.536666035303, abs=1e-10)
        np.testing.assert_array_equal(lab.var, [0.0015, 2.0])
        np.testing.assert_array_equal(unl.var, [0.05, 1.0])

    def test_conditional_prob_hand_values(self):
        # sin(2 pi x1^2) vanishes at x1 = 0 and equals 1 at x1 = 0.5.
        assert sim1_conditional_prob(0.0, 1.0) == 0.5
        assert sim1_conditional_prob(0.5, 1.0) == pytest.approx(
            0.731058578630, abs=1e-10
        )
        assert isinstance(sim1_conditional_prob(0.3, 0.2), float)
        out = sim1_conditional_prob(np.zeros(4), np.ones(4))
        np.testing.assert_array_equal(out, np.full(4, 0.5))

    def test_shapes(self):
        data = gen_sim1(Sim1Config(n_labeled=25), seed=0)
        assert data.labeled_x.shape == (25, 2)
        assert data.unlabeled_x.shape == (500, 2)
        assert data.test_x.shape == (1000, 2)
        assert data.test_y.shape == (1000,)

    def test_block_moments_match_densities(self):
        cfg = Sim1Config(n_labeled=100_000, n_unlabeled=100_000, n_test=200_000)
        data = gen_sim1(cfg, seed=1)
        assert data.labeled_x[:, 0].mean() == pytest.approx(-0.9, abs=0.005)
        assert data.unlabeled_x[:, 0].mean() == pytest.approx(-0.4, abs=0.005)
        # Test covariates are the even mixture of the two sampling densities.
        assert data.test_x[:, 0].mean() == pytest.approx(-0.65, abs=0.005)

    def test_labels_follow_conditional(self):
        cfg = Sim1Config(n_labeled=100_000, n_unlabeled=2, n_test=2)
        data = gen_sim1(cfg, seed=2)
        expected = sim1_conditional_prob(
            data.labeled_x[:, 0], data.labeled_x[:, 1]
        ).mean()
        assert data.labeled_y.mean() == pytest.approx(expected, abs=0.01)

    def test_deterministic(self):
        a = gen_sim1(Sim1Config(n_labeled=50), seed=3)
        b = gen_sim1(Sim1Config(n_labeled=50), seed=3)
        np.testing.assert_array_equal(a.labeled_x, b.labeled_x)
        np.testing.assert_array_equal(a.test_y, b.test_y)

    def test_experiment_name_and_weights(self):
        exp = sim1_experiment(25)
        assert exp.name == "sim1(n=25)"
        data, weights = exp.make_trial(seed=0)
        assert weights.r_labeled.shape == (25,)
        assert np.all(weights.r_labeled > 0)


class TestSim2:
    def test_config_validation(self):
        with pytest.raises(ParameterError, match="case"):
            Sim2Config(case=4)
        with pytest.raises(ParameterError, match="two points"):
            Sim2Config(case=1, n_labeled=1)

    @pytest.mark.parametrize("case,p", [(1, 2), (2, 10), (3, 2)])
    def test_feature_counts(self, case, p):
        cfg = Sim2Config(case=case, n_labeled=10, n_unlabeled=10, n_test=10)
        assert cfg.n_features == p
        data = gen_sim2(cfg, seed=0)
        assert data.labeled_x.shape == (10, p)
        assert data.unlabeled_x.shape == (10, p)
        assert data.test_x.shape == (10, p)

    def test_exact_class_balance(self):
        cfg = Sim2Config(case=1, n_labeled=101, n_unlabeled=10, n_test=57)
        data = gen_sim2(cfg, seed=1)
        assert int(data.labeled_y.sum()) == 50
        assert int(data.test_y.sum()) == 28

    def test_case1_class_means(self):
        cfg = Sim2Config(case=1, n_labeled=20_000, n_unlabeled=10, n_test=10)
        data = gen_sim2(cfg, seed=2)
        pos = data.labeled_x[data.labeled_y == 1]
        neg = data.labeled_x[data.labeled_y == 0]
        assert pos.mean() == pytest.approx(2.0, abs=0.03)
        assert neg.mean() == pytest.approx(-2.0, abs=0.03)

    def test_case2_has_no_shift(self):
        cfg = Sim2Config(case=2, n_labeled=4000, n_unlabeled=4000, n_test=10)
        data = gen_sim2(cfg, seed=3)
        stat = stats.ks_2samp(data.labeled_x[:, 0], data.unlabeled_x[:, 0])
        assert stat.pvalue > 0.01

    def test_case3_shifted_class_means(self):
        cfg = Sim2Config(case=3, n_labeled=20_000, n_unlabeled=20_000, n_test=10)
        data = gen_sim2(cfg, seed=4)
        pos = data.labeled_x[data.labeled_y == 1]
        neg = data.labeled_x[data.labeled_y == 0]
        assert pos.mean() == pytest.approx(5.0, abs=0.05)
        assert neg.mean() == pytest.approx(8.0, abs=0.05)
        # Unlabeled block shifts both classes up by one.
        assert data.unlabeled_x.mean() == pytest.approx(7.5, abs=0.05)

    def test_case2_bayes_error_is_the_closed_form(self):
        # Classes N(+-1, 3 I) in 10 dimensions: the Bayes rule is sign(sum x),
        # and sum x ~ N(+-10, 30) gives the error Phi(-sqrt(10/3)) = 3.394%.
        n = 400_000
        cfg = Sim2Config(case=2, n_labeled=2, n_unlabeled=2, n_test=n)
        data = gen_sim2(cfg, seed=0)
        error = np.mean((data.test_x.sum(axis=1) > 0.0) != (data.test_y == 1))
        bayes = 0.5 * math.erfc(math.sqrt(10.0 / 3.0) / math.sqrt(2.0))
        assert bayes == pytest.approx(0.03394, abs=5e-6)
        # Four Monte Carlo standard errors, about 0.12 percentage points.
        assert abs(error - bayes) <= 4.0 * math.sqrt(bayes * (1.0 - bayes) / n)

    def test_deterministic_and_named(self):
        exp = sim2_experiment(1)
        assert exp.name == "sim2(case=1)"
        a = gen_sim2(Sim2Config(case=1), seed=5)
        b = gen_sim2(Sim2Config(case=1), seed=5)
        np.testing.assert_array_equal(a.labeled_x, b.labeled_x)
        np.testing.assert_array_equal(a.unlabeled_x, b.unlabeled_x)


def write_csv(path, n_rows, n_features, seed=0, label_values=("0", "1")):
    rng = make_rng(seed)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"x{j}" for j in range(n_features)] + ["label"])
        for i in range(n_rows):
            row = [f"{v:.6f}" for v in rng.normal(size=n_features)]
            row.append(label_values[i % len(label_values)])
            writer.writerow(row)


class TestLoadBenchmark:
    def test_published_sizes_load_cleanly(self, tmp_path):
        spec = BENCHMARK_SPECS["pima"]
        write_csv(tmp_path / "pima_train.csv", spec.n_train, spec.n_features, seed=0)
        write_csv(tmp_path / "pima_test.csv", spec.n_test, spec.n_features, seed=1)
        train_x, train_y, test_x, test_y = load_benchmark("pima", tmp_path)
        assert train_x.shape == (300, 7)
        assert test_x.shape == (232, 7)
        assert train_y.dtype == np.uint8
        assert set(np.unique(test_y)) <= {0, 1}

    def test_unknown_name_rejected(self, tmp_path):
        with pytest.raises(ParameterError, match="unknown benchmark"):
            load_benchmark("digits", tmp_path)

    def test_feature_mismatch_always_fails(self, tmp_path):
        write_csv(tmp_path / "g10_train.csv", 250, 9)
        write_csv(tmp_path / "g10_test.csv", 300, 9)
        with pytest.raises(DataError, match="features"):
            load_benchmark("g10", tmp_path, strict=False)

    def test_row_mismatch_strict_vs_warn(self, tmp_path):
        write_csv(tmp_path / "g10_train.csv", 200, 10)
        write_csv(tmp_path / "g10_test.csv", 300, 10)
        with pytest.raises(DataError, match="split sizes"):
            load_benchmark("g10", tmp_path, strict=True)
        with pytest.warns(UserWarning) as caught:
            train_x, _, _, _ = load_benchmark("g10", tmp_path, strict=False)
        messages = [str(w.message) for w in caught]
        assert any("split sizes" in m for m in messages)
        assert any("published count" in m for m in messages)
        assert train_x.shape == (200, 10)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="cannot read"):
            load_benchmark("pima", tmp_path)

    def test_malformed_rows(self, tmp_path):
        spec = BENCHMARK_SPECS["pima"]
        write_csv(tmp_path / "pima_test.csv", spec.n_test, spec.n_features)

        bad = tmp_path / "pima_train.csv"
        bad.write_text("x0,label\n1.0,2\n")
        with pytest.raises(DataError, match="not in"):
            load_benchmark("pima", tmp_path)

        bad.write_text("x0,label\noops,1\n")
        with pytest.raises(DataError, match="non-numeric"):
            load_benchmark("pima", tmp_path)

        bad.write_text("x0,label\n1.0,1,9\n")
        with pytest.raises(DataError, match="fields"):
            load_benchmark("pima", tmp_path)

        bad.write_text("x0,y\n1.0,1\n")
        with pytest.raises(DataError, match="'label'"):
            load_benchmark("pima", tmp_path)

        bad.write_text("")
        with pytest.raises(DataError, match="empty"):
            load_benchmark("pima", tmp_path)

    def test_convert_script_output_loads(self, tmp_path, capsys):
        # scripts/convert_benchmarks.py must write what the loader reads: a
        # seeded reshuffle of the input rows, split at the published sizes.
        script = Path(__file__).resolve().parents[1] / "scripts" / "convert_benchmarks.py"
        spec = importlib.util.spec_from_file_location("convert_benchmarks", script)
        convert = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(convert)
        raw = tmp_path / "g10.csv"
        write_csv(raw, 550, 10, seed=4)
        out = tmp_path / "data"
        assert convert.main(["g10", "--input", str(raw), "--output-dir", str(out)]) == 0
        assert "wrote" in capsys.readouterr().out
        train_x, train_y, test_x, test_y = load_benchmark("g10", out)
        assert train_x.shape == (250, 10)
        assert test_x.shape == (300, 10)
        raw_x, raw_y = read_csv(raw, has_label=True)
        pooled = np.column_stack([np.vstack([train_x, test_x]), np.r_[train_y, test_y]])
        original = np.column_stack([raw_x, raw_y])
        assert sorted(map(tuple, pooled)) == sorted(map(tuple, original))

    def test_fraction_table(self):
        assert BENCHMARK_FRACTIONS == (0.05, 0.10, 0.20, 0.30, 0.40, 0.50)


class TestGenShiftedBenchmark:
    def test_shapes_and_label_range(self):
        train_x, train_y, test_x, test_y = gen_shifted_benchmark(
            n_train=60, n_test=40, n_features=3, seed=0
        )
        assert train_x.shape == (60, 3)
        assert test_x.shape == (40, 3)
        assert set(np.unique(np.concatenate([train_y, test_y]))) <= {0, 1}

    def test_needs_two_features(self):
        with pytest.raises(ParameterError, match="at least 2"):
            gen_shifted_benchmark(n_features=1)

    def test_deterministic_by_seed(self):
        a = gen_shifted_benchmark(seed=5)
        b = gen_shifted_benchmark(seed=5)
        c = gen_shifted_benchmark(seed=6)
        np.testing.assert_array_equal(a[0], b[0])
        assert not np.array_equal(a[0], c[0])

    def test_flat_boundary_reduces_to_second_coordinate(self):
        from scipy.special import expit

        train_x, train_y, _, _ = gen_shifted_benchmark(
            n_train=100_000, n_test=2, curvature=0.0, seed=7
        )
        expected = expit(1.5 * train_x[:, 1]).mean()
        assert train_y.mean() == pytest.approx(expected, abs=0.01)


class TestShiftedSyntheticExperiment:
    def test_partition_sizes(self):
        exp = ShiftedSyntheticExperiment()
        data, weights = exp.make_trial(seed=0)
        assert data.n_labeled == 50
        assert data.unlabeled_x.shape == (200, 3)
        assert data.test_x.shape == (300, 3)
        assert weights.r_labeled.shape == (50,)

    def test_fraction_scales_labeled_count(self):
        exp = ShiftedSyntheticExperiment(labeled_fraction=0.1)
        data, _ = exp.make_trial(seed=0)
        assert data.n_labeled == 25
        assert data.unlabeled_x.shape[0] == 225

    def test_labeled_block_is_tilted(self):
        exp = ShiftedSyntheticExperiment()
        data, _ = exp.make_trial(seed=1)
        assert data.labeled_x[:, 0].mean() > data.unlabeled_x[:, 0].mean() + 0.5

    def test_deterministic(self):
        exp = ShiftedSyntheticExperiment()
        a_data, a_w = exp.make_trial(seed=2)
        b_data, b_w = exp.make_trial(seed=2)
        np.testing.assert_array_equal(a_data.labeled_x, b_data.labeled_x)
        np.testing.assert_array_equal(a_w.r_labeled, b_w.r_labeled)

    def test_name(self):
        assert ShiftedSyntheticExperiment().name == "bench(synthetic, 20%)"

    @pytest.mark.parametrize("fraction", [0.0, 1.0, -0.1, 1.5, float("nan")])
    @pytest.mark.parametrize("kind", ["synthetic", "benchmark"])
    def test_fraction_outside_the_open_unit_interval_is_rejected(self, kind, fraction):
        # f = 0 would label one point (max(1, ...)), and f = 1 leaves no unlabeled rows.
        x, y = np.zeros((4, 2)), np.array([0, 1, 0, 1])
        with pytest.raises(ParameterError, match=r"out of \(0, 1\)"):
            if kind == "synthetic":
                ShiftedSyntheticExperiment(labeled_fraction=fraction)
            else:
                BenchmarkExperiment("toy", x, y, x, y, labeled_fraction=fraction)


class TestPredictionError:
    def test_hand_values(self):
        assert prediction_error(np.array([0, 1, 1, 0]), np.array([0, 1, 0, 0])) == 25.0
        assert prediction_error(np.array([1, 1]), np.array([1, 1])) == 0.0
        assert prediction_error(np.array([1, 1]), np.array([0, 0])) == 100.0

    def test_rejects_mismatched_or_empty(self):
        with pytest.raises(DataError, match="equal-length"):
            prediction_error(np.array([1, 0]), np.array([1]))
        with pytest.raises(DataError, match="nonempty"):
            prediction_error(np.array([]), np.array([]))


class TestRunTrials:
    def test_records_and_summaries(self):
        result = run_trials(
            _ToyExperiment(),
            methods=("sslrcs", "slr"),
            n_trials=3,
            base_seed=10,
            grid=ONE_POINT_GRID,
        )
        assert result.experiment == "toy"
        assert result.methods == ("sslrcs", "slr")
        assert len(result.records) == 6
        assert [r.seed for r in result.records if r.method == "sslrcs"] == [10, 11, 12]

        for method in ("sslrcs", "slr"):
            recs = [r for r in result.records if r.method == method]
            summ = result.summary(method)
            assert summ.n_trials == 3 and summ.n_failed == 0
            assert summ.mean_pe_percent == pytest.approx(
                np.mean([r.pe_percent for r in recs])
            )
            assert summ.mean_log10_lambda == 0.0
            assert summ.mean_gamma1 == 0.0

    def test_records_echo_the_grids_log10_lambda(self):
        # np.log10(10**-0.3) is -0.30000000000000004.
        result = run_trials(_ToyExperiment(), methods=("slr",), n_trials=1,
                            grid=Grid((0.0,), (0.0,), (-0.3,)))
        assert [r.log10_lambda for r in result.records] == [-0.3]
        assert result.summary("slr").mean_log10_lambda == -0.3

    def test_unknown_method_and_bad_count(self):
        with pytest.raises(ParameterError, match="unknown method"):
            run_trials(_ToyExperiment(), methods=("svm",), n_trials=1)
        with pytest.raises(ParameterError, match="no methods requested"):
            run_trials(_ToyExperiment(), methods=(), n_trials=1)
        with pytest.raises(ParameterError, match="repeated method in 'slr,SLR'"):
            run_trials(_ToyExperiment(), methods=("slr", "SLR"), n_trials=1)
        with pytest.raises(ParameterError, match="positive"):
            run_trials(_ToyExperiment(), n_trials=0)

    def test_negative_base_seed_is_rejected_before_trial_0(self):
        class Unreached(_ToyExperiment):
            def make_trial(self, seed):
                raise AssertionError("a trial ran")

        with pytest.raises(ParameterError, match="seed must be a non-negative integer, got -1"):
            run_trials(Unreached(), n_trials=3, base_seed=-1)

    def test_trial_failures_are_counted_not_fatal(self):
        class Flaky(_ToyExperiment):
            name = "flaky"

            def make_trial(self, seed):
                if seed % 2 == 1:
                    raise DataError("bad trial")
                return super().make_trial(seed)

        result = run_trials(
            Flaky(), methods=("slr",), n_trials=4, base_seed=0, grid=ONE_POINT_GRID
        )
        summ = result.summary("slr")
        assert summ.n_trials == 2
        assert summ.n_failed == 2
        errors = [r.error for r in result.records if r.error is not None]
        assert errors == ["bad trial", "bad trial"]
        assert np.isfinite(summ.mean_pe_percent)

    def test_requires_test_block(self):
        class NoTest(_ToyExperiment):
            def make_trial(self, seed):
                rng = make_rng(seed)
                data = SplitDataset(
                    labeled_x=rng.normal(size=(10, 2)),
                    labeled_y=(rng.random(10) < 0.5).astype(np.uint8),
                    unlabeled_x=rng.normal(size=(5, 2)),
                )
                return data, unit_weights(data)

        with pytest.raises(ParameterError, match="test block"):
            run_trials(NoTest(), methods=("slr",), n_trials=1, grid=ONE_POINT_GRID)

    def test_missing_summary_method_raises(self):
        result = run_trials(
            _ToyExperiment(), methods=("slr",), n_trials=1, grid=ONE_POINT_GRID
        )
        with pytest.raises(KeyError):
            result.summary("sslrcs")


class TestNewtonStatusOnTheStudies:
    """The Newton batch stops on its decrement, so rows that reached
    rounding read converged rather than stalled."""

    @pytest.mark.parametrize(
        "experiment",
        [sim1_experiment(25), sim1_experiment(250), sim2_experiment(2)],
        ids=["sim1-n25", "sim1-n250", "sim2-case2"],
    )
    def test_every_default_grid_row_converges(self, experiment):
        for seed in range(5):
            data, weights = experiment.make_trial(seed)
            state = shared_search(data, weights).state
            assert set(state.status) == {"converged"}, seed


def records_by_separate_searches(experiment, methods, n_trials, base_seed, grid):
    """run_trials' records from one grid_search per method and trial: the
    reference that the shared search must reproduce."""
    records = []
    for i in range(n_trials):
        seed = base_seed + i
        data, weights = experiment.make_trial(seed)
        for m in methods:
            try:
                sel = grid_search(data, weights, grid=grid, method=m)
            except SslogitError as exc:
                records.append(TrialRecord(i, seed, m, *[None] * 6, str(exc)))
                continue
            _, labels = predict(sel.best_model, data.test_x)
            p = sel.best_model.params
            records.append(TrialRecord(
                i, seed, m, prediction_error(labels, data.test_y), p.gamma1, p.gamma2,
                float(np.log10(p.lam)), sel.best_report.gic, sel.best_model.converged,
            ))
    return records


class TestSharedTrialSearch:
    """One search per trial serves every method, with each method's own
    records and failures."""

    @pytest.mark.parametrize(
        "experiment, methods, grid",
        [
            (sim1_experiment(25), METHODS, None),
            (sim1_experiment(100), ("slr", "sslrcs"), None),
            (
                sim1_experiment(50),
                ("lsslr", "sslrcs", "slr"),
                Grid((0.5, 1.0), (0.0,), (-3.0, -1.0, 1.0)),
            ),
            (_ToyExperiment(), ("lsslr",), None),
        ],
        ids=["sim1-25", "sim1-100-two", "sim1-50-no-zero-gamma1", "toy-lsslr"],
    )
    def test_records_equal_separate_searches(self, experiment, methods, grid):
        result = run_trials(experiment, methods=methods, n_trials=3, base_seed=40, grid=grid)
        assert result.records == records_by_separate_searches(experiment, methods, 3, 40, grid)

    def test_one_prediction_per_winner(self, monkeypatch):
        # lsslr and slr share one winner, so a trial of all three methods
        # predicts the test block twice, and their records carry one PE.
        calls = []

        def spy(model, x):
            calls.append(model)
            return predict(model, x)

        monkeypatch.setattr(experiments_mod, "predict", spy)
        result = run_trials(sim1_experiment(50), n_trials=2, base_seed=3)
        assert len(calls) == 2 * 2
        assert result.records == records_by_separate_searches(
            sim1_experiment(50), METHODS, 2, 3, None
        )

    def test_one_fit_per_trial(self, monkeypatch):
        calls = []

        def spy(*args):
            calls.append(len(args[3]))
            return fit_step1_batch(*args)

        monkeypatch.setattr(select_mod, "fit_step1_batch", spy)
        run_trials(_ToyExperiment(), n_trials=2, grid=Grid((0.0, 1.0), (0.0,), (0.0, 1.0)))
        assert calls == [4, 4]

    def test_a_method_fails_alone(self, monkeypatch):
        def fail_zero_gamma(data, weights, gammas, lams):
            state = fit_step1_batch(data, weights, gammas, lams)
            for b in np.flatnonzero(np.asarray(gammas) == 0.0):
                state.status[b] = objective_mod._FAILED
            return state

        monkeypatch.setattr(select_mod, "fit_step1_batch", fail_zero_gamma)
        grid = Grid((0.0, 1.0), (0.0,), (0.0, 1.0))
        result = run_trials(_ToyExperiment(), methods=("sslrcs", "slr"), n_trials=2, grid=grid)
        assert result.summary("sslrcs").n_failed == 0
        assert result.summary("slr").n_failed == 2
        assert {r.error for r in result.records if r.method == "slr"} == {
            "all 2 grid candidates failed; first error: singular Hessian"
        }

    def test_a_failed_search_is_recorded_for_every_method(self, monkeypatch):
        def boom(*args):
            raise NumericalError("search broke")

        monkeypatch.setattr(experiments_mod, "shared_search", boom)
        result = run_trials(_ToyExperiment(), n_trials=2, grid=ONE_POINT_GRID)
        assert len(result.records) == 2 * len(METHODS)
        assert {r.error for r in result.records} == {"search broke"}
        assert all(result.summary(m).n_failed == 2 for m in METHODS)


class TestRatiosOnlyWhenRead:
    """Without sslrcs no method reads the ratio weights, so run_trials makes
    the trial's data alone and weights it by ones."""

    def test_baseline_records_equal_those_of_a_full_run(self, monkeypatch):
        experiment = sim2_experiment(3)
        full = run_trials(experiment, n_trials=2, base_seed=5)
        fits = []
        fit = experiments_mod.weights_from_ulsif

        def spy(*args, **kwargs):
            fits.append(args)
            return fit(*args, **kwargs)

        monkeypatch.setattr(experiments_mod, "weights_from_ulsif", spy)
        baselines = run_trials(experiment, methods=("slr", "lsslr"), n_trials=2, base_seed=5)
        assert fits == []
        by_key = {(r.trial, r.method): r for r in full.records}
        assert baselines.records == [by_key[(r.trial, r.method)] for r in baselines.records]
        assert [r.method for r in baselines.records] == ["slr", "lsslr"] * 2
        run_trials(experiment, methods=("lsslr", "sslrcs"), n_trials=1, base_seed=5)
        assert len(fits) == 1

    def test_make_trial_is_make_data_then_make_weights(self):
        for experiment in (sim1_experiment(25), sim2_experiment(1), ShiftedSyntheticExperiment()):
            data, weights = experiment.make_trial(7)
            alone = experiment.make_data(7)
            for block in ("labeled_x", "labeled_y", "unlabeled_x", "test_x", "test_y"):
                np.testing.assert_array_equal(getattr(data, block), getattr(alone, block))
            again = experiment.make_weights(data, 7)
            np.testing.assert_array_equal(weights.r_labeled, again.r_labeled)
            np.testing.assert_array_equal(weights.s_unlabeled, again.s_unlabeled)
