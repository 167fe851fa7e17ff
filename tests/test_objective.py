"""Weighted objective, derivatives, and the damped Newton maximizer."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit

import sslogit.objective as objective_mod
from sslogit.data import SplitDataset, build_design, make_rng
from sslogit.errors import NumericalError, ParameterError
from sslogit.objective import (
    TuningParams,
    gradient,
    hessian,
    loglik_labeled,
    newton_maximize,
    posterior,
    power_weights,
    solve_newton_system,
    weighted_objective,
)
from sslogit.ratios import RatioWeights


def make_instance(n1, n0, p, seed, gamma1=0.6, gamma2=0.4, lam=0.2):
    rng = make_rng(seed)
    data = SplitDataset(
        labeled_x=rng.normal(size=(n1, p)),
        labeled_y=(rng.random(n1) < 0.5).astype(np.uint8),
        unlabeled_x=rng.normal(size=(n0, p)),
    )
    weights = RatioWeights(
        r_labeled=rng.uniform(0.2, 3.0, n1),
        s_unlabeled=rng.uniform(0.2, 3.0, n0),
    )
    t = rng.uniform(0.05, 0.95, n0)
    params = TuningParams(gamma1, gamma2, lam)
    w = rng.normal(scale=0.7, size=p + 1)
    return data, weights, t, params, w


def objective_by_loop(w, data, weights, t, params):
    """Term-by-term reimplementation used as the summation oracle."""
    total = 0.0
    for xi, yi, ri in zip(build_design(data.labeled_x), data.labeled_y, weights.r_labeled):
        z = float(xi @ w)
        total += ri**params.gamma1 * (yi * z - np.log1p(np.exp(z)))
    for xi, ti, si in zip(build_design(data.unlabeled_x), t, weights.s_unlabeled):
        z = float(xi @ w)
        total += si**params.gamma2 * (ti * z - np.log1p(np.exp(z)))
    total -= 0.5 * data.n_labeled * params.lam * float(w[1:] @ w[1:])
    return total


class TestTuningParams:
    def test_valid(self):
        p = TuningParams(0.0, 1.0, 1e-4)
        assert p.lam == 1e-4

    @pytest.mark.parametrize("bad", [(-0.1, 0.0, 1.0), (0.0, 1.5, 1.0), (0.0, 0.0, 0.0)])
    def test_invalid_rejected(self, bad):
        with pytest.raises(ParameterError):
            TuningParams(*bad)


class TestPowerWeights:
    def test_zero_exponent_gives_exact_ones(self):
        v = np.array([1e-3, 0.7, 1.0, 42.0])
        out = power_weights(v, 0.0)
        assert (out == 1.0).all()

    def test_matches_power(self):
        v = np.array([0.25, 1.0, 4.0])
        np.testing.assert_allclose(power_weights(v, 0.5), np.sqrt(v), rtol=1e-15)

    def test_nonpositive_rejected(self):
        with pytest.raises(ParameterError):
            power_weights(np.array([1.0, 0.0]), 0.5)

    def test_vector_exponent_rows_equal_scalar_calls(self):
        v = make_rng(3).uniform(1e-3, 1e3, 25)
        gammas = np.round(np.linspace(0.0, 1.0, 11), 10)
        out = power_weights(v, gammas)
        assert out.shape == (gammas.size, v.size)
        for g, row in zip(gammas, out):
            np.testing.assert_array_equal(row, power_weights(v, float(g)))

    @pytest.mark.parametrize("bad", [-0.1, 1.5, np.nan])
    def test_vector_exponent_rejects_any_out_of_range_entry(self, bad):
        with pytest.raises(ParameterError, match="gamma"):
            power_weights(np.ones(3), np.array([0.0, 0.5, bad, 1.0]))


class TestPosterior:
    def test_zero_coefficients_give_half(self):
        x = build_design(np.array([[1.0, -2.0]]))
        assert posterior(np.zeros(3), x)[0] == 0.5

    @given(z=st.floats(min_value=-30, max_value=30))
    @settings(max_examples=50, deadline=None)
    def test_sigmoid_symmetry(self, z):
        x = build_design(np.array([[z]]))
        w = np.array([0.0, 1.0])
        p_pos = posterior(w, x)[0]
        p_neg = posterior(-w, x)[0]
        assert p_pos == pytest.approx(1.0 - p_neg, abs=1e-12)


class TestObjective:
    def test_matches_summation_oracle(self):
        for seed in range(5):
            data, weights, t, params, w = make_instance(12, 9, 3, seed)
            got = weighted_objective(w, data, weights, t, params)
            want = objective_by_loop(w, data, weights, t, params)
            assert got == pytest.approx(want, rel=1e-12)

    def test_at_zero_coefficients(self):
        # Every log-likelihood term is -log 2 at w=0 and the penalty vanishes.
        data, weights, t, params, _ = make_instance(8, 6, 2, seed=3)
        w = np.zeros(3)
        eta = weights.r_labeled**params.gamma1
        nu = weights.s_unlabeled**params.gamma2
        want = -np.log(2.0) * (eta.sum() + nu.sum())
        got = weighted_objective(w, data, weights, t, params)
        assert got == pytest.approx(want, rel=1e-12)

    def test_soft_targets_validated(self):
        data, weights, _, params, w = make_instance(5, 4, 2, seed=1)
        with pytest.raises(ParameterError):
            weighted_objective(w, data, weights, np.array([0.5, 0.5, 0.5, 1.5]), params)

    @pytest.mark.parametrize("fn", [weighted_objective, gradient, hessian, newton_maximize])
    @pytest.mark.parametrize(
        "bad, message",
        [
            ("r", "r_labeled length"),
            ("s", "s_unlabeled length"),
            ("t", "t has shape"),
            ("w", "w has shape"),
        ],
    )
    def test_input_shapes_validated(self, fn, bad, message):
        data, weights, t, params, w = make_instance(5, 4, 2, seed=1)
        if bad == "r":
            weights = RatioWeights(weights.r_labeled[:-1], weights.s_unlabeled)
        elif bad == "s":
            weights = RatioWeights(weights.r_labeled, weights.s_unlabeled[:-1])
        elif bad == "t":
            t = t[:-1]
        else:
            w = w[:-1]
        with pytest.raises(ParameterError, match=message):
            fn(w, data, weights, t, params)


class TestDerivatives:
    def test_gradient_matches_central_differences(self):
        h = 1e-6
        for seed in range(6):
            data, weights, t, params, w = make_instance(10, 7, 3, seed)
            grad = gradient(w, data, weights, t, params)
            fd = np.empty_like(grad)
            for j in range(w.size):
                e = np.zeros_like(w)
                e[j] = h
                fd[j] = (
                    weighted_objective(w + e, data, weights, t, params)
                    - weighted_objective(w - e, data, weights, t, params)
                ) / (2 * h)
            np.testing.assert_allclose(grad, fd, rtol=1e-6, atol=1e-8)

    def test_hessian_matches_gradient_differences(self):
        h = 1e-6
        for seed in range(4):
            data, weights, t, params, w = make_instance(10, 7, 2, seed)
            hess = hessian(w, data, weights, t, params)
            fd = np.empty_like(hess)
            for j in range(w.size):
                e = np.zeros_like(w)
                e[j] = h
                fd[:, j] = (
                    gradient(w + e, data, weights, t, params)
                    - gradient(w - e, data, weights, t, params)
                ) / (2 * h)
            np.testing.assert_allclose(hess, fd, rtol=1e-5, atol=1e-6)

    def test_hessian_symmetric_and_negative_definite(self):
        data, weights, t, params, w = make_instance(15, 10, 3, seed=8, lam=0.5)
        hess = hessian(w, data, weights, t, params)
        np.testing.assert_array_equal(hess, hess.T)
        eigs = np.linalg.eigvalsh(hess)
        assert eigs.max() < 0.0


class TestLoglikLabeled:
    def test_matches_bernoulli_loop(self):
        data, _, _, _, w = make_instance(9, 5, 2, seed=2)
        x = build_design(data.labeled_x)
        pi = expit(x @ w)
        want = float(
            np.sum(data.labeled_y * np.log(pi) + (1 - data.labeled_y) * np.log1p(-pi))
        )
        assert loglik_labeled(w, x, data.labeled_y) == pytest.approx(want, rel=1e-10)


class TestSolveNewtonSystem:
    def test_solves_well_conditioned_system(self):
        h = -np.eye(3) * 2.0
        g = np.array([2.0, -4.0, 6.0])
        np.testing.assert_allclose(solve_newton_system(h, g), g / -2.0, rtol=1e-12)

    def test_near_singular_matrix_recovered_by_jitter(self):
        h = np.zeros((2, 2))
        delta = solve_newton_system(h, np.ones(2))
        assert np.all(np.isfinite(delta))

    def test_unrecoverable_system_raises(self):
        h = np.full((2, 2), np.nan)
        with pytest.raises(NumericalError, match="singular Hessian"):
            solve_newton_system(h, np.ones(2))


class TestNewton:
    def test_matches_grid_scan_on_two_parameters(self):
        # Independent oracle: brute-force scan of the concave objective over
        # a fine (w0, w1) grid; Newton must land inside the winning cell.
        data, weights, t, params, _ = make_instance(12, 8, 1, seed=5, lam=0.3)
        w_hat, diag = newton_maximize(np.zeros(2), data, weights, t, params)

        grid = np.linspace(-3.0, 3.0, 241)
        best = (-np.inf, None, None)
        for w0 in grid:
            for w1 in grid:
                val = weighted_objective(np.array([w0, w1]), data, weights, t, params)
                if val > best[0]:
                    best = (val, w0, w1)
        assert abs(w_hat[0] - best[1]) < 0.025
        assert abs(w_hat[1] - best[2]) < 0.025
        assert diag.objective >= best[0] - 1e-12
        assert diag.status == "converged"

    def test_objective_never_decreases_from_start(self):
        data, weights, t, params, _ = make_instance(20, 12, 3, seed=6)
        start = np.full(4, 0.5)
        _, diag = newton_maximize(start, data, weights, t, params)
        assert diag.objective >= weighted_objective(start, data, weights, t, params)

    def test_gradient_small_at_optimum(self):
        data, weights, t, params, _ = make_instance(25, 15, 2, seed=7)
        w_hat, _ = newton_maximize(np.zeros(3), data, weights, t, params)
        assert np.linalg.norm(gradient(w_hat, data, weights, t, params)) <= 1e-8

    def test_iteration_cap_respected(self, monkeypatch):
        data, weights, t, params, _ = make_instance(10, 5, 2, seed=9)
        monkeypatch.setattr(objective_mod, "MAX_ITERS", 1)
        _, diag = newton_maximize(np.zeros(3), data, weights, t, params)
        assert diag.status in ("max-iterations", "converged")
        assert diag.iterations <= 1


class TestRowBlocks:
    @pytest.mark.parametrize("n, d", [(25, 3), (250, 3), (2000, 4), (10000, 11)])
    @pytest.mark.parametrize("n_rows", [1, 14, 154])
    def test_blocks_cover_the_rows_in_order(self, n, d, n_rows):
        x = np.ones((n, d))
        step = max(objective_mod.MIN_BLOCK_ROWS, objective_mod.BLOCK_DOUBLES // x.size)
        blocks = objective_mod.row_blocks(n_rows, x)
        covered = np.concatenate([np.arange(n_rows)[b] for b in blocks])
        np.testing.assert_array_equal(covered, np.arange(n_rows))
        assert all(0 < len(range(n_rows)[b]) <= step for b in blocks)
        assert len(blocks) == -(-n_rows // step)


class TestBatchIndependence:
    """Every row of the batched kernel equals the same row run as a batch of
    one, bit for bit, so a fit or a score never depends on its batch."""

    @pytest.mark.parametrize("seed", range(20))
    def test_rows_equal_batches_of_one(self, seed):
        rng = make_rng(500 + seed)
        n, d, b = int(rng.integers(5, 120)), int(rng.integers(2, 7)), int(rng.integers(2, 16))
        x = build_design(rng.normal(size=(n, d - 1)))
        v = rng.uniform(0.2, 3.0, n)
        yt = rng.uniform(0.0, 1.0, (b, n))
        lams = np.power(10.0, rng.uniform(-4.0, 2.5, b))
        w = rng.normal(scale=1.5, size=(b, d))
        n1 = int(rng.integers(1, n + 1))

        def pieces(rows):
            pi = objective_mod._batch_posterior(w[rows], x)
            return (
                objective_mod._batch_objective(w[rows], x, v, yt[rows], lams[rows], n1),
                pi,
                objective_mod._batch_gradient(pi, w[rows], x, v, yt[rows], lams[rows], n1),
                objective_mod._batch_hessian(pi, x, v, lams[rows], n1),
                objective_mod._batch_score(pi, x, v, yt[rows]),
                objective_mod._batch_loglik(w[rows], x, v, yt[rows]),
            )

        batch = pieces(slice(None))
        for i in range(b):
            for got, want in zip(batch, pieces(slice(i, i + 1))):
                np.testing.assert_array_equal(got[i], want[0])
