"""Weighted objective, derivatives, and the damped Newton maximizer."""

import warnings

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
    newton_maximize,
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


def posterior(w, x):
    """The posterior that _loglik_posterior returns for the rows w (B, d)."""
    return objective_mod._loglik_posterior(w, x, 1.0, np.zeros(x.shape[0]))[1]


class TestPosterior:
    def test_zero_coefficients_give_half(self):
        x = build_design(np.array([[1.0, -2.0]]))
        assert posterior(np.zeros((1, 3)), x)[0, 0] == 0.5

    @given(z=st.floats(min_value=-30, max_value=30))
    @settings(max_examples=50, deadline=None)
    def test_sigmoid_symmetry(self, z):
        x = build_design(np.array([[z]]))
        w = np.array([[0.0, 1.0]])
        p_pos = posterior(w, x)[0, 0]
        p_neg = posterior(-w, x)[0, 0]
        assert p_pos == pytest.approx(1.0 - p_neg, abs=1e-12)


def ulp_distance(a, b):
    """How many doubles lie between a and b, elementwise (0 when equal)."""
    ia, ib = a.view(np.int64), b.view(np.int64)
    # Map the sign-magnitude bit patterns onto one monotone integer line.
    ia = np.where(ia < 0, np.int64(-(2**63)) - ia, ia)
    ib = np.where(ib < 0, np.int64(-(2**63)) - ib, ib)
    return np.abs(ia - ib)


class TestSoftplusPosterior:
    """The fused kernel behind every objective and posterior evaluation."""

    def test_within_four_ulp_of_logaddexp_and_expit(self):
        z = np.concatenate([
            np.linspace(-745.0, 745.0, 400_001),
            make_rng(3).uniform(-40.0, 40.0, 200_000),
        ])
        softplus, pi = objective_mod._softplus_posterior(z)
        assert ulp_distance(softplus, np.logaddexp(0.0, z)).max() <= 4
        # Below log(DBL_MIN) scipy's expit, 1/(1 + exp(-z)), rounds to 0
        # because exp(-z) overflows; the posterior is the subnormal e^z
        # there, which is e^z / (1 + e^z) correctly rounded.
        tiny = z < -709.0
        reference = np.where(tiny, np.exp(np.minimum(z, -709.0)), expit(z))
        assert ulp_distance(pi, reference).max() <= 4
        assert tiny.any() and np.all(pi[tiny] > 0.0)

    def test_exact_at_zeros_infinities_and_nan(self):
        z = np.array([0.0, -0.0, np.inf, -np.inf, np.nan])
        softplus, pi = objective_mod._softplus_posterior(z)
        np.testing.assert_array_equal(softplus, [np.log(2.0), np.log(2.0), np.inf, 0.0, np.nan])
        np.testing.assert_array_equal(pi, [0.5, 0.5, 1.0, 0.0, np.nan])
        with np.errstate(invalid="ignore"):
            np.testing.assert_array_equal(softplus, np.logaddexp(0.0, z))
        np.testing.assert_array_equal(pi, expit(z))

    def test_bits_do_not_depend_on_the_array_position(self):
        # numpy runs exp and log1p in SIMD lanes with a scalar or masked
        # tail; an element must come out the same in a lane and in a tail.
        values = make_rng(4).normal(scale=20.0, size=64)
        want = [objective_mod._softplus_posterior(values[i : i + 1]) for i in range(64)]

        def check(z, at):
            for got, ref in zip(objective_mod._softplus_posterior(z), zip(*want)):
                np.testing.assert_array_equal(got, np.concatenate(ref)[at])

        for offset in range(17):
            for length in range(1, 34):
                if offset + length <= 64:
                    buffer = np.empty(offset + length)
                    buffer[offset:] = values[offset : offset + length]
                    check(buffer[offset:], slice(offset, offset + length))
        stack = values[:63].reshape(7, 9)
        for got, ref in zip(objective_mod._softplus_posterior(stack), zip(*want)):
            np.testing.assert_array_equal(got, np.concatenate(ref)[:63].reshape(7, 9))


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
        # Unit weights: the plain binomial log-likelihood of the labeled rows.
        data, _, _, _, w = make_instance(9, 5, 2, seed=2)
        x = build_design(data.labeled_x)
        pi = expit(x @ w)
        y = data.labeled_y.astype(np.float64)
        want = float(np.sum(y * np.log(pi) + (1 - y) * np.log1p(-pi)))
        loglik, _ = objective_mod._loglik_posterior(w[None], x, 1.0, y)
        assert loglik[0] == pytest.approx(want, rel=1e-10)


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

    @pytest.mark.parametrize("seed", range(30))
    def test_diagnostics_equal_a_fresh_evaluation_at_the_fit(self, seed):
        # Bit for bit: the fit keeps the objective and the score of the
        # line search evaluation that accepted it, and weighted_objective
        # and gradient evaluate the returned w afresh.
        rng = make_rng(9000 + seed)
        n1, n0, p = int(rng.integers(4, 40)), int(rng.integers(0, 30)), int(rng.integers(1, 5))
        lam = rng.uniform(0.01, 2.0)
        data, weights, t, params, w = make_instance(n1, n0, p, seed=seed, lam=lam)
        start = w * rng.uniform(0.0, 3.0)
        w_hat, diag = newton_maximize(start, data, weights, t, params)
        assert diag.objective == weighted_objective(w_hat, data, weights, t, params)
        g = gradient(w_hat, data, weights, t, params)
        # The kernel takes the norm of a (1, d) stack, which can round
        # differently from np.linalg.norm of the vector.
        assert diag.grad_norm == np.linalg.norm(g[None], axis=1)[0]
        x, v, yt, lams, n1, w0 = objective_mod._batch_of_one(start, data, weights, t, params)
        state = objective_mod._newton_batch(x, v, yt, lams, n1, w0)
        kernel_g = objective_mod._penalized_gradient(state.score, state.w, lams, n1)[0]
        assert kernel_g.tobytes() == g.tobytes()

    def test_iteration_cap_respected(self, monkeypatch):
        data, weights, t, params, _ = make_instance(10, 5, 2, seed=9)
        monkeypatch.setattr(objective_mod, "MAX_ITERS", 1)
        _, diag = newton_maximize(np.zeros(3), data, weights, t, params)
        assert diag.status in ("max-iterations", "converged")
        assert diag.iterations <= 1


class TestBatchIndependence:
    """Every row of the batched kernel equals the same row run as a batch of
    one, bit for bit, so a fit or a score never depends on its batch."""

    @pytest.mark.parametrize("seed", range(20))
    def test_rows_equal_batches_of_one(self, seed):
        rng = make_rng(500 + seed)
        n, d, b = int(rng.integers(5, 120)), int(rng.integers(2, 7)), int(rng.integers(2, 16))
        x = build_design(rng.normal(size=(n, d - 1)))
        v = rng.uniform(0.2, 3.0, n)
        yt = rng.uniform(0.0, 1.0, n)
        lams = np.power(10.0, rng.uniform(-4.0, 2.5, b))
        w = rng.normal(scale=1.5, size=(b, d))
        n1 = int(rng.integers(1, n + 1))

        def pieces(rows):
            state = objective_mod._newton_batch(x, v, yt, lams[rows], n1, w[rows], max_iters=0)
            return (
                state.objective,
                state.loglik,
                state.score,
                state.hessian,
                state.score_gram,
                state.grad_norm,
                objective_mod._loglik_posterior(w[rows], x, v, yt)[1],
            )

        batch = pieces(slice(None))
        for i in range(b):
            for got, want in zip(batch, pieces(slice(i, i + 1))):
                np.testing.assert_array_equal(got[i], want[0])


def penalized_objective(w, x, v, yt, lams, n1):
    loglik = objective_mod._loglik_posterior(w, x, v, yt)[0]
    return objective_mod._penalized(loglik, w, lams, n1)


def line_search_by_halving(x, v, yt, lams, n1, w, obj, delta):
    """The line search as one objective call per halving on a running step
    size, the reference that _line_search must equal bit for bit on the
    rows it accepts."""
    step = np.ones(w.shape[0])
    w_try = w - delta
    obj_try = penalized_objective(w_try, x, v, yt, lams, n1)
    need = ~(np.isfinite(obj_try) & (obj_try > obj))
    for _ in range(objective_mod.MAX_HALVINGS):
        if not need.any():
            break
        step[need] *= 0.5
        w_try[need] = w[need] - step[need, None] * delta[need]
        obj_try[need] = penalized_objective(w_try[need], x, v[need], yt, lams[need], n1)
        need = ~(np.isfinite(obj_try) & (obj_try > obj))
    loglik_try, pi_try = objective_mod._loglik_posterior(w_try, x, v, yt)
    return w_try, obj_try, loglik_try, pi_try, ~need


def newton_instance(seed, n, d, b, separable):
    """Kernel arguments for b step-1 rows; separable labels follow the sign
    of a linear score, which drives the weak-ridge rows far out."""
    rng = make_rng(seed)
    x = build_design(rng.normal(size=(n, d - 1)) * rng.uniform(0.5, 3.0))
    score = x @ rng.normal(scale=3.0, size=d)
    y = (score > 0) if separable else (rng.random(n) < expit(score))
    v = np.exp(rng.normal(0.0, 1.5, (b, n)) * rng.uniform(0.0, 1.0, (b, 1)))
    lams = np.power(10.0, rng.uniform(-6.0, 2.5, b))
    return x, v, y.astype(np.float64), lams, n, np.zeros((b, d))


def far_start(args, scale, seed):
    """args with w0 drawn at the given scale: far out on saturated rows the
    Hessian is nearly flat and the full Newton step overshoots."""
    w0 = args[-1]
    return (*args[:-1], scale * make_rng(seed).normal(size=w0.shape))


def newton_state_bytes(args):
    s = objective_mod._newton_batch(*args)
    arrays = (s.w, s.objective, s.iterations, s.grad_norm, s.loglik, s.score, s.hessian,
              s.score_gram)
    return tuple(a.tobytes() for a in arrays) + (s.status,)


class TestChunkedLineSearch:
    """_line_search halves each row's step on its own; the Newton states
    must be those of the reference, which halves a running step size."""

    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 120),
        d=st.integers(2, 5),
        b=st.integers(1, 40),
        separable=st.booleans(),
        max_iters=st.sampled_from([3, 100]),
        start=st.sampled_from([0.0, 5.0]),
    )
    @settings(max_examples=60, deadline=None)
    def test_states_equal_one_halving_per_call(self, seed, n, d, b, separable, max_iters, start):
        # Full steps from zero are accepted; far starts make the search halve,
        # and their full steps can overflow the objective, which the search
        # rejects as non-finite.
        args = far_start(newton_instance(seed, n, d, b, separable), start, seed)
        quiet = np.errstate(over="ignore", invalid="ignore") if start else np.errstate()
        with pytest.MonkeyPatch.context() as mp, quiet:
            mp.setattr(objective_mod, "MAX_ITERS", max_iters)
            searched = newton_state_bytes(args)
            mp.setattr(objective_mod, "_line_search", line_search_by_halving)
            assert newton_state_bytes(args) == searched

    def test_one_evaluation_per_halving_of_the_rows_that_need_one(self, monkeypatch):
        # Per line search: the full step, then one evaluation per halving,
        # each of the rows that the one before did not accept.
        per_search, searching = [], [False]
        loglik_posterior = objective_mod._loglik_posterior
        line_search = objective_mod._line_search

        def counting(w, *args):
            if searching[0]:
                per_search[-1].append(w.shape[0])
            return loglik_posterior(w, *args)

        def search(*args):
            per_search.append([])
            searching[0] = True
            try:
                return line_search(*args)
            finally:
                searching[0] = False

        monkeypatch.setattr(objective_mod, "_loglik_posterior", counting)
        monkeypatch.setattr(objective_mod, "_line_search", search)
        for seed in range(10):
            args = newton_instance(seed, 60, 3, 30, separable=seed % 2 == 1)
            objective_mod._newton_batch(*far_start(args, 5.0, seed))
        assert all(len(rows) <= objective_mod.MAX_HALVINGS + 1 for rows in per_search)
        assert all(rows == sorted(rows, reverse=True) for rows in per_search)
        assert max(len(rows) for rows in per_search) > 2


class TestDecrementStop:
    """A row retires on its half Newton decrement, before taking that step."""

    def test_a_converged_row_keeps_its_last_iterate(self, monkeypatch):
        x, v, yt, lams, n1, w0 = newton_instance(7, 80, 4, 20, separable=False)
        done = objective_mod._newton_batch(x, v, yt, lams, n1, w0)
        assert set(done.status) == {"converged"}
        # Capped at the steps they took, the rows end at the same iterates:
        # the check that retired them took no step.
        capped = objective_mod._newton_batch(x, v, yt, lams, n1, w0, done.iterations.max())
        assert capped.w.tobytes() == done.w.tobytes()
        np.testing.assert_array_equal(capped.iterations, done.iterations)
        g = objective_mod._penalized_gradient(done.score, done.w, lams, n1)
        delta = np.linalg.solve(done.hessian, g[..., None])[..., 0]
        tol = objective_mod.DECREMENT_TOL * v.sum(axis=1)
        assert np.all(-0.5 * (g * delta).sum(axis=1) <= tol)
        # Started there, every row stops at once, without a step.
        again = objective_mod._newton_batch(x, v, yt, lams, n1, done.w)
        assert again.w.tobytes() == done.w.tobytes()
        np.testing.assert_array_equal(again.iterations, 0)
        assert set(again.status) == {"converged"}
        # A tolerance nothing exceeds stops every row at its start.
        monkeypatch.setattr(objective_mod, "DECREMENT_TOL", np.inf)
        start = objective_mod._newton_batch(x, v, yt, lams, n1, w0)
        assert start.w.tobytes() == w0.tobytes()
        np.testing.assert_array_equal(start.iterations, 0)
        assert set(start.status) == {"converged"}

    def test_a_failed_line_search_with_a_large_decrement_stalls(self, monkeypatch):
        args = far_start(newton_instance(0, 60, 3, 8, separable=False), 10.0, 0)
        x, v, yt, lams, n1, w0 = args
        assert "stalled" not in objective_mod._newton_batch(*args).status
        monkeypatch.setattr(objective_mod, "MAX_HALVINGS", 0)
        state = objective_mod._newton_batch(*args)
        assert set(state.status) == {"stalled"}
        g = objective_mod._penalized_gradient(state.score, state.w, lams, n1)
        delta = np.linalg.solve(state.hessian, g[..., None])[..., 0]
        tol = objective_mod.DECREMENT_TOL * v.sum(axis=1)
        assert np.all(-0.5 * (g * delta).sum(axis=1) > tol)
        # A row whose first full step failed keeps its start.
        first = state.iterations == 1
        assert first.any()
        assert state.w[first].tobytes() == w0[first].tobytes()


class TestFarStarts:
    """From a far start the full step can be huge; the line search halves
    it down to the smallest positive step size before a row stalls."""

    def test_the_last_halving_is_the_smallest_positive_double(self):
        assert np.ldexp(1.0, -objective_mod.MAX_HALVINGS) == np.nextafter(0.0, 1.0)

    @pytest.mark.parametrize("seed, n, d, b", [(14, 19, 5, 27), (25, 62, 2, 35), (30, 14, 2, 31)])
    def test_far_starts_converge_where_30_halvings_stall(self, monkeypatch, seed, n, d, b):
        args = far_start(newton_instance(seed, n, d, b, seed % 2 == 1), 20.0, seed)
        with np.errstate(over="ignore", invalid="ignore"):
            assert set(objective_mod._newton_batch(*args).status) == {"converged"}
            monkeypatch.setattr(objective_mod, "MAX_HALVINGS", 30)
            assert "stalled" in objective_mod._newton_batch(*args).status


class TestEvaluationOnlyBatch:
    """max_iters=0 evaluates the rows at w0: gic scores a model alone this way."""

    def test_zero_steps_return_the_start_rows(self):
        x, v, yt, lams, n1, _ = newton_instance(3, 80, 4, 40, separable=False)
        w0 = make_rng(4).normal(scale=2.0, size=(40, 4))
        state = objective_mod._newton_batch(x, v, yt, lams, n1, w0, max_iters=0)
        assert state.w.tobytes() == w0.tobytes()
        assert not np.shares_memory(state.w, w0)
        np.testing.assert_array_equal(state.iterations, 0)
        assert state.grad_norm.min() > 1.0
        assert set(state.status) == {"max-iterations"}
        loglik, _ = objective_mod._loglik_posterior(w0, x, v, yt)
        assert state.loglik.tobytes() == loglik.tobytes()
        penalized = objective_mod._penalized(loglik, w0, lams, n1)
        assert state.objective.tobytes() == penalized.tobytes()

    def test_a_default_call_reads_max_iters_at_call_time(self, monkeypatch):
        args = newton_instance(5, 60, 3, 20, separable=True)
        assert objective_mod._newton_batch(*args).iterations.max() > 2
        monkeypatch.setattr(objective_mod, "MAX_ITERS", 2)
        capped = objective_mod._newton_batch(*args)
        assert capped.iterations.max() == 2
        assert "max-iterations" in capped.status
        assert newton_state_bytes(args) == newton_state_bytes((*args, 2))


def grouped_instance(seed, n, d, n_groups, n_rows, separable, scale):
    """Kernel arguments for n_rows rows drawn from n_groups groups, each
    with its own weights and start (drawn at the given scale), followed by
    the group of each row."""
    x, v, yt, _, n1, w0 = newton_instance(seed, n, d, n_groups, separable)
    rng = make_rng(seed + 1)
    groups = rng.integers(0, n_groups, n_rows)
    lams = np.power(10.0, rng.uniform(-6.0, 2.5, n_rows))
    return x, v, yt, lams, n1, scale * rng.normal(size=w0.shape), groups


BATCH_SOLVE = objective_mod._batch_solve


def fail_positive_intercept_gradient(h, g):
    """A _batch_solve that fails every row whose intercept gradient is
    positive: a decision that reads only the row itself."""
    delta, failed = BATCH_SOLVE(h, g)
    failed |= g[:, 0] > 0.0
    delta[failed] = 0.0
    return delta, failed


class TestGroupedStarts:
    """A row that starts from its group's weights and start equals the same
    row given its own copies, bit for bit: grouping only shares work."""

    @given(
        seed=st.integers(0, 2**32 - 2),
        n=st.integers(2, 120),
        d=st.integers(2, 5),
        n_groups=st.integers(1, 12),
        n_rows=st.integers(1, 60),
        separable=st.booleans(),
        scale=st.sampled_from([0.0, 5.0, 20.0]),
        max_iters=st.sampled_from([0, 3, None]),
        fail=st.booleans(),
    )
    @settings(max_examples=80, deadline=None)
    def test_grouped_rows_equal_ungrouped_rows(
        self, seed, n, d, n_groups, n_rows, separable, scale, max_iters, fail
    ):
        x, v, yt, lams, n1, w0, groups = grouped_instance(
            seed, n, d, n_groups, n_rows, separable, scale
        )
        with pytest.MonkeyPatch.context() as mp:
            if fail:
                mp.setattr(objective_mod, "_batch_solve", fail_positive_intercept_gradient)
            grouped = newton_state_bytes((x, v, yt, lams, n1, w0, max_iters, groups))
            rows = newton_state_bytes((x, v[groups], yt, lams, n1, w0[groups], max_iters))
        assert grouped == rows

    def test_a_patched_failure_reaches_grouped_rows(self, monkeypatch):
        x, v, yt, lams, n1, w0, groups = grouped_instance(3, 60, 3, 4, 30, False, 5.0)
        monkeypatch.setattr(objective_mod, "_batch_solve", fail_positive_intercept_gradient)
        state = objective_mod._newton_batch(x, v, yt, lams, n1, w0, None, groups)
        assert 0 < state.status.count("failed") < len(groups)
        assert newton_state_bytes((x, v, yt, lams, n1, w0, None, groups)) == newton_state_bytes(
            (x, v[groups], yt, lams, n1, w0[groups])
        )

    def test_each_group_start_is_evaluated_once(self, monkeypatch):
        # The first Hessian built holds one row per group, and every later
        # Hessian row is one accepted step.
        built = []
        unpenalized_hessian = objective_mod._unpenalized_hessian

        def spy(pi, *args):
            built.append(pi.shape[0])
            return unpenalized_hessian(pi, *args)

        monkeypatch.setattr(objective_mod, "_unpenalized_hessian", spy)
        x, v, yt, lams, n1, w0, groups = grouped_instance(2, 250, 3, 40, 120, False, 0.0)
        groups[:40] = np.arange(40)
        state = objective_mod._newton_batch(x, v, yt, lams, n1, w0, None, groups)
        assert built[0] == 40
        assert sum(built) == 40 + state.iterations.sum() - state.status.count("stalled")


class TestLineSearchWarnings:
    def test_an_overflowing_full_step_raises_no_warning(self, monkeypatch):
        # From this far start some full steps overflow the objective; the
        # search rejects them as non-finite and halves, without a
        # RuntimeWarning reaching the caller.
        trials = []
        trial = objective_mod._trial

        def spy(*args):
            out = trial(*args)
            trials.append(np.isfinite(out[2]).all())
            return out

        monkeypatch.setattr(objective_mod, "_trial", spy)
        args = far_start(newton_instance(4582, 5, 5, 28, False), 5.0, 4582)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            state = objective_mod._newton_batch(*args)
        assert not all(trials)
        assert np.isfinite(state.objective).all()
        assert "failed" not in state.status

    def test_an_overflowing_decrement_raises_no_warning(self):
        # From this far, separable start one row's intercept curvature is
        # about 1e-305: its step is finite, near 4e306, but g * delta
        # overflows. The row is not converged; it steps as any other, and
        # grouping still only shares work.
        x, v, yt, lams, n1, w0, groups = grouped_instance(366847, 93, 2, 12, 32, True, 20.0)
        deltas = []
        batch_solve = objective_mod._batch_solve

        def spy(h, g):
            delta, failed = batch_solve(h, g)
            deltas.append(np.abs(delta).max())
            return delta, failed

        with warnings.catch_warnings(), pytest.MonkeyPatch.context() as mp:
            warnings.simplefilter("error")
            mp.setattr(objective_mod, "_batch_solve", spy)
            grouped = newton_state_bytes((x, v, yt, lams, n1, w0, 3, groups))
            rows = newton_state_bytes((x, v[groups], yt, lams, n1, w0[groups], 3))
        assert max(deltas) > 1e306
        assert grouped == rows
