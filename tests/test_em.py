"""Step1 fit, E/M steps, the EM fixed point, and prediction."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sslogit.objective as objective_mod
from sslogit.data import SplitDataset, build_design, make_rng
from sslogit.em import (
    FittedModel,
    e_step,
    fit_lambda_batch,
    fit_semisupervised,
    fit_step1,
    fit_step1_batch,
    fit_supervised,
    m_step,
    predict,
)
from sslogit.errors import NumericalError
from sslogit.objective import (
    TuningParams,
    newton_maximize,
    posterior,
    weighted_objective,
)
from sslogit.ratios import RatioWeights, unit_weights
from sslogit.select import default_grid


def make_instance(n1, n0, p, seed, gamma1=0.5, gamma2=0.5, lam=0.1):
    rng = make_rng(seed)
    data = SplitDataset(
        labeled_x=rng.normal(size=(n1, p)),
        labeled_y=(rng.random(n1) < 0.5).astype(np.uint8),
        unlabeled_x=rng.normal(size=(n0, p)),
    )
    weights = RatioWeights(
        r_labeled=rng.uniform(0.3, 2.5, n1),
        s_unlabeled=rng.uniform(0.3, 2.5, n0),
    )
    return data, weights, TuningParams(gamma1, gamma2, lam)


class TestFitStep1:
    def test_matches_grid_scan_oracle(self):
        # Brute-force scan of the labeled-only objective on a 1-feature
        # instance; the Newton fit must land inside the winning grid cell.
        data, weights, params = make_instance(15, 6, 1, seed=0)
        no_unl = SplitDataset(
            labeled_x=data.labeled_x,
            labeled_y=data.labeled_y,
            unlabeled_x=np.empty((0, 1)),
        )
        w_hat = fit_step1(data, weights, params)

        empty_w = RatioWeights(weights.r_labeled, np.empty(0))
        grid = np.linspace(-3.0, 3.0, 241)
        best = (-np.inf, None, None)
        for w0 in grid:
            for w1 in grid:
                val = weighted_objective(
                    np.array([w0, w1]), no_unl, empty_w, np.empty(0), params
                )
                if val > best[0]:
                    best = (val, w0, w1)
        assert abs(w_hat[0] - best[1]) < 0.025
        assert abs(w_hat[1] - best[2]) < 0.025

    def test_independent_of_unlabeled_rows_and_s_weights(self):
        data, weights, params = make_instance(10, 8, 2, seed=1)
        rng = make_rng(99)
        other = SplitDataset(
            labeled_x=data.labeled_x,
            labeled_y=data.labeled_y,
            unlabeled_x=rng.normal(size=(20, 2)),
        )
        other_weights = RatioWeights(weights.r_labeled, rng.uniform(0.1, 5.0, 20))
        np.testing.assert_array_equal(
            fit_step1(data, weights, params), fit_step1(other, other_weights, params)
        )

    def test_unweighted_reduction_is_ridge_logistic(self):
        # gamma1 = 0 turns all weights into exact ones, so the fit must agree
        # with the same solver run on explicitly unit weights.
        data, weights, _ = make_instance(12, 5, 2, seed=2)
        params = TuningParams(0.0, 0.0, 0.05)
        w_weighted = fit_step1(data, weights, params)
        w_unit = fit_step1(data, unit_weights(data), params)
        np.testing.assert_array_equal(w_weighted, w_unit)


class TestEStep:
    def test_zero_coefficients_give_half(self):
        data, _, _ = make_instance(5, 7, 2, seed=3)
        np.testing.assert_array_equal(e_step(np.zeros(3), data), np.full(7, 0.5))

    def test_strictly_inside_unit_interval(self):
        data, _, _ = make_instance(5, 7, 2, seed=4)
        t = e_step(np.array([0.3, -1.2, 2.0]), data)
        assert np.all(t > 0.0) and np.all(t < 1.0)

    def test_matches_posterior(self):
        data, _, _ = make_instance(4, 6, 2, seed=5)
        w = np.array([0.1, -0.4, 0.8])
        np.testing.assert_array_equal(
            e_step(w, data), posterior(w, build_design(data.unlabeled_x))
        )

    def test_no_unlabeled_gives_empty(self):
        data = SplitDataset(
            labeled_x=np.ones((2, 1)),
            labeled_y=np.array([0, 1]),
            unlabeled_x=np.empty((0, 1)),
        )
        assert e_step(np.zeros(2), data).size == 0


class TestMStep:
    def test_never_decreases_objective_at_fixed_targets(self):
        for seed in range(4):
            data, weights, params = make_instance(12, 9, 2, seed=seed)
            rng = make_rng(100 + seed)
            t_hat = rng.uniform(0.1, 0.9, 9)
            w_init = rng.normal(scale=0.5, size=3)
            w_out = m_step(w_init, data, weights, t_hat, params)
            before = weighted_objective(w_init, data, weights, t_hat, params)
            after = weighted_objective(w_out, data, weights, t_hat, params)
            assert after >= before

    def test_matches_grid_scan_with_half_targets(self):
        data, weights, _ = make_instance(10, 6, 1, seed=6)
        params = TuningParams(0.4, 0.0, 0.2)
        t_hat = np.full(6, 0.5)
        w_out = m_step(np.zeros(2), data, weights, t_hat, params)

        grid = np.linspace(-3.0, 3.0, 241)
        best = (-np.inf, None, None)
        for w0 in grid:
            for w1 in grid:
                val = weighted_objective(np.array([w0, w1]), data, weights, t_hat, params)
                if val > best[0]:
                    best = (val, w0, w1)
        assert abs(w_out[0] - best[1]) < 0.025
        assert abs(w_out[1] - best[2]) < 0.025

    def test_no_unlabeled_equals_step1(self):
        data = SplitDataset(
            labeled_x=make_rng(7).normal(size=(10, 2)),
            labeled_y=(make_rng(8).random(10) < 0.5).astype(np.uint8),
            unlabeled_x=np.empty((0, 2)),
        )
        weights = RatioWeights(make_rng(9).uniform(0.5, 2.0, 10), np.empty(0))
        params = TuningParams(0.3, 0.7, 0.15)
        w_step1 = fit_step1(data, weights, params)
        w_m = m_step(np.zeros(3), data, weights, np.empty(0), params)
        np.testing.assert_array_equal(w_step1, w_m)


class TestFitSemisupervised:
    def test_zero_gammas_reduce_to_unit_weight_fit(self):
        # With both exponents zero the ratio weights cancel exactly, so the
        # whole trajectory coincides with the unit-weight fit bit for bit.
        data, weights, _ = make_instance(14, 10, 2, seed=10)
        params = TuningParams(0.0, 0.0, 0.08)
        a = fit_semisupervised(data, weights, params)
        b = fit_semisupervised(data, unit_weights(data), params)
        np.testing.assert_array_equal(a.w, b.w)
        np.testing.assert_array_equal(a.t_hat, b.t_hat)
        assert a.em_iterations == b.em_iterations
        assert a.final_objective == b.final_objective

    def test_fixed_point_equals_step1(self):
        # The warm-started refit with posterior targets is already stationary
        # at the Step1 coefficients: the imputed targets zero the unlabeled
        # score there, and Step1 zeroed the weighted labeled score plus the
        # ridge. The alternation therefore stops where it starts, and the
        # fit is returned without running it.
        for seed in range(3):
            data, weights, params = make_instance(15, 12, 2, seed=seed)
            w_step1 = fit_step1(data, weights, params)
            model = fit_semisupervised(data, weights, params)
            np.testing.assert_array_equal(model.w, w_step1)
            assert model.em_iterations == 0
            assert model.converged

    def test_soft_labels_from_last_imputation(self):
        data, weights, params = make_instance(10, 9, 2, seed=13)
        model = fit_semisupervised(data, weights, params)
        assert model.t_hat.shape == (9,)
        assert np.all(model.t_hat > 0.0) and np.all(model.t_hat < 1.0)

    def test_no_unlabeled_equals_step1_exactly(self):
        rng = make_rng(14)
        data = SplitDataset(
            labeled_x=rng.normal(size=(12, 2)),
            labeled_y=(rng.random(12) < 0.5).astype(np.uint8),
            unlabeled_x=np.empty((0, 2)),
        )
        weights = RatioWeights(rng.uniform(0.5, 2.0, 12), np.empty(0))
        params = TuningParams(0.6, 0.2, 0.1)
        model = fit_semisupervised(data, weights, params)
        np.testing.assert_array_equal(model.w, fit_step1(data, weights, params))
        assert model.em_iterations == 0
        assert model.converged

    def test_deterministic(self):
        data, weights, params = make_instance(10, 10, 2, seed=15)
        a = fit_semisupervised(data, weights, params)
        b = fit_semisupervised(data, weights, params)
        np.testing.assert_array_equal(a.w, b.w)


def random_fit_problem(seed, n1, n0, p, lam, gamma1, gamma2):
    """A random instance with both classes among the labeled rows."""
    data, weights, _ = make_instance(n1, n0, p, seed)
    y = data.labeled_y.copy()
    y[:2] = (0, 1)
    data = SplitDataset(data.labeled_x, y, data.unlabeled_x)
    return data, weights, TuningParams(gamma1, gamma2, lam)


fit_problems = st.builds(
    random_fit_problem,
    seed=st.integers(0, 2**32 - 1),
    n1=st.integers(10, 30),
    n0=st.integers(1, 30),
    p=st.integers(1, 4),
    lam=st.floats(1e-2, 10.0),
    gamma1=st.floats(0.0, 1.0),
    gamma2=st.floats(0.0, 1.0),
)

# Invariances hold in exact arithmetic; the Newton stopping rule leaves
# gaps of a few 1e-8 between the two fits.
INVARIANCE_ATOL = 1e-6


class TestFitInvariances:
    @given(problem=fit_problems)
    @settings(max_examples=40, deadline=None)
    def test_flipping_labels_negates_coefficients(self, problem):
        data, weights, params = problem
        flipped = SplitDataset(data.labeled_x, 1 - data.labeled_y, data.unlabeled_x)
        a = fit_semisupervised(data, weights, params)
        b = fit_semisupervised(flipped, weights, params)
        np.testing.assert_allclose(b.w, -a.w, rtol=0, atol=INVARIANCE_ATOL)

    @given(problem=fit_problems, order_seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_row_order_does_not_change_the_fit(self, problem, order_seed):
        data, weights, params = problem
        rng = make_rng(order_seed)
        lab = rng.permutation(data.n_labeled)
        unl = rng.permutation(data.n_unlabeled)
        shuffled = SplitDataset(
            data.labeled_x[lab], data.labeled_y[lab], data.unlabeled_x[unl]
        )
        shuffled_weights = RatioWeights(
            weights.r_labeled[lab], weights.s_unlabeled[unl]
        )
        a = fit_semisupervised(data, weights, params)
        b = fit_semisupervised(shuffled, shuffled_weights, params)
        np.testing.assert_allclose(b.w, a.w, rtol=0, atol=INVARIANCE_ATOL)

    @given(problem=fit_problems, order_seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_permuting_features_permutes_coefficients(self, problem, order_seed):
        data, weights, params = problem
        cols = make_rng(order_seed).permutation(data.n_features)
        permuted = SplitDataset(
            data.labeled_x[:, cols], data.labeled_y, data.unlabeled_x[:, cols]
        )
        a = fit_semisupervised(data, weights, params)
        b = fit_semisupervised(permuted, weights, params)
        assert b.w[0] == pytest.approx(a.w[0], rel=0, abs=INVARIANCE_ATOL)
        np.testing.assert_allclose(b.w[1:], a.w[1:][cols], rtol=0, atol=INVARIANCE_ATOL)

    @given(problem=fit_problems, log10_c=st.floats(-2.0, 2.0))
    @settings(max_examples=40, deadline=None)
    def test_scaling_r_by_c_is_dividing_lambda_by_c(self, problem, log10_c):
        # With gamma1 = 1 the weighted likelihood scales by c, so the
        # maximizer is that of the ridge term at lam / c.
        data, weights, params = problem
        c = 10.0**log10_c
        scaled = RatioWeights(c * weights.r_labeled, weights.s_unlabeled)
        a = fit_semisupervised(data, scaled, TuningParams(1.0, params.gamma2, params.lam))
        b = fit_semisupervised(
            data, weights, TuningParams(1.0, params.gamma2, params.lam / c)
        )
        np.testing.assert_allclose(a.w, b.w, rtol=0, atol=INVARIANCE_ATOL)


class TestEmFixedPoint:
    """Theorem: at t = e_step(w) the unlabeled score vanishes, so the EM
    fixed point is the step-1 fit for every gamma2 and every s."""

    @given(problem=fit_problems, s_seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_semisupervised_fit_is_step1_fit(self, problem, s_seed):
        data, weights, params = problem
        log_s = make_rng(s_seed).uniform(np.log(1e-3), np.log(1e3), data.n_unlabeled)
        weights = RatioWeights(weights.r_labeled, np.exp(log_s))
        w_step1 = fit_step1(data, weights, params)
        np.testing.assert_array_equal(fit_semisupervised(data, weights, params).w, w_step1)
        # One EM iteration from the step-1 fit moves it by no more than the
        # Newton stopping rule allows.
        w_em = m_step(w_step1, data, weights, e_step(w_step1, data), params)
        np.testing.assert_allclose(w_em, w_step1, rtol=0, atol=INVARIANCE_ATOL)


class TestSingularHessian:
    """A failed Newton solve surfaces as NumericalError from every wrapper."""

    @pytest.mark.parametrize(
        "fit",
        [
            lambda d, r, p: newton_maximize(np.zeros(3), d, r, np.full(8, 0.5), p),
            lambda d, r, p: m_step(np.zeros(3), d, r, np.full(8, 0.5), p),
            fit_step1,
            fit_supervised,
            fit_semisupervised,
        ],
        ids=["newton_maximize", "m_step", "fit_step1", "fit_supervised",
             "fit_semisupervised"],
    )
    def test_wrappers_raise(self, fit, monkeypatch):
        def fail_every_row(h, g):
            return np.zeros_like(g), np.ones(g.shape[0], dtype=bool)

        monkeypatch.setattr(objective_mod, "_batch_solve", fail_every_row)
        data, weights, params = make_instance(12, 8, 2, seed=22)
        with pytest.raises(NumericalError, match="singular Hessian"):
            fit(data, weights, params)


class TestFitSupervised:
    def test_ignores_unlabeled_block(self):
        data, weights, params = make_instance(10, 20, 2, seed=16)
        rng = make_rng(17)
        other = SplitDataset(
            labeled_x=data.labeled_x,
            labeled_y=data.labeled_y,
            unlabeled_x=rng.normal(size=(5, 2)),
        )
        other_weights = RatioWeights(weights.r_labeled, rng.uniform(0.5, 2.0, 5))
        a = fit_supervised(data, weights, params)
        b = fit_supervised(other, other_weights, params)
        np.testing.assert_array_equal(a.w, b.w)
        assert a.em_iterations == 0
        assert a.converged


class TestBatchedFits:
    def test_batch_matches_solo_across_lambdas(self):
        # The grid search relies on the batched path; it must reproduce the
        # one-candidate implementation exactly, including diagnostics.
        data, weights, _ = make_instance(20, 15, 3, seed=18)
        lams = [10.0**e for e in (-3.0, -1.5, 0.0, 1.0)]
        batch = fit_lambda_batch(data, weights, 0.7, 0.3, lams)
        for lam, model in zip(lams, batch.models):
            solo = fit_semisupervised(data, weights, TuningParams(0.7, 0.3, lam))
            np.testing.assert_array_equal(model.w, solo.w)
            assert model.newton_diagnostics == solo.newton_diagnostics
            assert model.em_iterations == solo.em_iterations
            assert model.converged == solo.converged

    def test_step1_batch_matches_solo(self):
        data, weights, _ = make_instance(18, 7, 2, seed=19)
        lams = np.array([0.01, 0.1, 1.0])
        batch = fit_step1_batch(data, weights, 0.4, lams)
        for lam, w_b in zip(lams, batch.w):
            w_s = fit_step1(data, weights, TuningParams(0.4, 0.0, lam))
            np.testing.assert_array_equal(w_b, w_s)

    def test_labeled_only_batch_matches_supervised(self):
        data, weights, _ = make_instance(16, 9, 2, seed=20)
        lams = [0.05, 0.5]
        batch = fit_lambda_batch(data, weights, 0.2, 0.0, lams)
        for lam, model in zip(lams, batch.models):
            solo = fit_supervised(data, weights, TuningParams(0.2, 0.0, lam))
            np.testing.assert_array_equal(model.w, solo.w)

    def test_every_column_row_equals_its_solo_fit(self):
        # A ridge column and the same fits run one lambda at a time must
        # agree bit for bit, Newton status and iteration count included,
        # on random instances: the rounding may not depend on the batch.
        lams = np.power(10.0, np.asarray(default_grid().log10_lambda_values))
        gammas = default_grid().gamma1_values
        for seed in range(100):
            rng = make_rng(9000 + seed)
            n1, n0, p = rng.integers(10, 60), rng.integers(5, 100), rng.integers(1, 6)
            data, weights, _ = make_instance(int(n1), int(n0), int(p), seed=int(seed))
            gamma1 = float(gammas[seed % len(gammas)])
            column = fit_step1_batch(data, weights, gamma1, lams)
            for i, lam in enumerate(lams):
                solo = fit_step1_batch(data, weights, gamma1, [lam])
                np.testing.assert_array_equal(column.w[i], solo.w[0])
                assert column.diagnostics(i) == solo.diagnostics(0)

    @pytest.mark.parametrize("max_iters", [None, 3])
    def test_whole_grid_rows_equal_their_columns(self, monkeypatch, max_iters):
        # The grid search fits every (gamma1, lambda) cell as one batch
        # whose rows differ in ridge value and weights; each row must equal
        # its row of a one-gamma1 column bit for bit. A cap of 3 Newton
        # steps makes "max-iterations" rows occur.
        if max_iters is not None:
            monkeypatch.setattr(objective_mod, "MAX_ITERS", max_iters)
        grid = default_grid()
        lams = np.power(10.0, np.asarray(grid.log10_lambda_values))
        gammas = np.asarray(grid.gamma1_values)
        statuses = set()
        for seed in range(100):
            rng = make_rng(9500 + seed)
            n1, n0, p = rng.integers(10, 60), rng.integers(5, 100), rng.integers(1, 6)
            data, weights, _ = make_instance(int(n1), int(n0), int(p), seed=int(seed))
            whole = fit_step1_batch(
                data, weights, np.repeat(gammas, lams.size), np.tile(lams, gammas.size)
            )
            assert whole.w.shape[0] == gammas.size * lams.size
            for j, gamma1 in enumerate(gammas):
                column = fit_step1_batch(data, weights, float(gamma1), lams)
                for i in range(lams.size):
                    row = j * lams.size + i
                    np.testing.assert_array_equal(whole.w[row], column.w[i])
                    assert whole.diagnostics(row) == column.diagnostics(i)
            statuses.update(whole.status)
        if max_iters is not None:
            assert "max-iterations" in statuses


class TestPredict:
    def test_zero_coefficients_tie_goes_to_class_zero(self):
        model = FittedModel(
            w=np.zeros(3),
            t_hat=np.empty(0),
            params=TuningParams(0.0, 0.0, 1.0),
            em_iterations=0,
            final_objective=0.0,
            converged=True,
            newton_diagnostics=None,
        )
        probs, labels = predict(model, np.array([[1.0, -4.0], [2.0, 0.5]]))
        np.testing.assert_array_equal(probs, [0.5, 0.5])
        np.testing.assert_array_equal(labels, [0, 0])

    def test_labels_follow_logit_sign(self):
        model = FittedModel(
            w=np.array([0.5, 1.0]),
            t_hat=np.empty(0),
            params=TuningParams(0.0, 0.0, 1.0),
            em_iterations=0,
            final_objective=0.0,
            converged=True,
            newton_diagnostics=None,
        )
        # Logits 0.5 + x: positive for x = 0.1, negative for x = -1.
        probs, labels = predict(model, np.array([[0.1], [-1.0]]))
        assert labels.tolist() == [1, 0]
        assert probs[0] == pytest.approx(1.0 / (1.0 + np.exp(-0.6)), rel=1e-12)

    def test_negating_coefficients_flips_labels(self):
        rng = make_rng(21)
        w = np.array([0.2, -0.7, 0.4])
        x = rng.normal(size=(10, 2))
        base = FittedModel(w, np.empty(0), TuningParams(0.0, 0.0, 1.0), 0, 0.0, True, None)
        flipped = FittedModel(-w, np.empty(0), TuningParams(0.0, 0.0, 1.0), 0, 0.0, True, None)
        _, a = predict(base, x)
        _, b = predict(flipped, x)
        np.testing.assert_array_equal(a, 1 - b)
