"""Information criterion: matrix construction, trace term, and reductions."""

import numpy as np
import pytest
from scipy.special import expit

from sslogit.data import SplitDataset, build_design, make_rng
from sslogit.em import FittedModel, fit_semisupervised
from sslogit.errors import NumericalError, ParameterError
from sslogit.gic import (
    _trace_terms,
    column_from_fit,
    gic_lsslr,
    gic_matrices,
    gic_score,
    gic_slr,
)
from sslogit.objective import TuningParams, _newton_batch, power_weights
from sslogit.ratios import RatioWeights, unit_weights


def make_instance(n1, n0, p, seed):
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
    return data, weights


def make_model(w, params):
    return FittedModel(
        w=np.asarray(w, dtype=np.float64),
        t_hat=np.empty(0),
        params=params,
        em_iterations=1,
        final_objective=0.0,
        converged=True,
        newton_diagnostics=None,
    )


def matrices_by_loop(w, x_lab, y, eta, lam):
    """Per-point accumulation of the score outer products and the curvature.

    The scaled matrices are built one labeled point at a time: psi_i is the
    point's score contribution, the penalty couples in through the fitted
    slope vector, and the curvature adds the ridge after averaging.
    """
    n1, d = x_lab.shape
    kw = w.copy()
    kw[0] = 0.0
    q = np.zeros((d, d))
    r = np.zeros((d, d))
    psi_sum = np.zeros(d)
    for i in range(n1):
        xi = x_lab[i]
        pi = float(expit(xi @ w))
        psi = eta[i] * (y[i] - pi) * xi
        q += np.outer(psi, psi)
        psi_sum += psi
        r += eta[i] * pi * (1.0 - pi) * np.outer(xi, xi)
    q -= lam * np.outer(kw, psi_sum)
    r = r / n1
    r[np.arange(1, d), np.arange(1, d)] += lam
    return q / n1, r


def nll_by_loop(w, x_lab, y, eta):
    total = 0.0
    for i in range(x_lab.shape[0]):
        z = float(x_lab[i] @ w)
        total += eta[i] * (y[i] * z - np.log1p(np.exp(z)))
    return -2.0 * total


class TestGicMatrices:
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_per_point_oracle(self, seed):
        data, weights = make_instance(20, 8, 3, seed=seed)
        params = TuningParams(0.6, 0.3, 0.2)
        rng = make_rng(1000 + seed)
        model = make_model(rng.normal(scale=0.7, size=4), params)

        mats = gic_matrices(model, data, weights)
        eta = power_weights(weights.r_labeled, params.gamma1)
        q_ref, r_ref = matrices_by_loop(
            model.w, build_design(data.labeled_x), data.labeled_y.astype(float),
            eta, params.lam,
        )
        np.testing.assert_allclose(mats.q, q_ref, rtol=1e-12)
        np.testing.assert_allclose(mats.r, r_ref, rtol=1e-12)

    def test_r_symmetric_positive_definite(self):
        data, weights = make_instance(30, 5, 2, seed=7)
        model = make_model([0.2, -0.5, 1.1], TuningParams(0.8, 0.0, 0.5))
        mats = gic_matrices(model, data, weights)
        np.testing.assert_array_equal(mats.r, mats.r.T)
        assert np.all(np.linalg.eigvalsh(mats.r) > 0)

    def test_unlabeled_block_does_not_enter(self):
        data, weights = make_instance(15, 10, 2, seed=8)
        other = SplitDataset(
            labeled_x=data.labeled_x,
            labeled_y=data.labeled_y,
            unlabeled_x=make_rng(1).normal(size=(25, 2)),
        )
        other_weights = RatioWeights(
            weights.r_labeled, make_rng(2).uniform(0.1, 3.0, 25)
        )
        model = make_model([0.1, 0.4, -0.3], TuningParams(0.5, 0.9, 0.1))
        a = gic_matrices(model, data, weights)
        b = gic_matrices(model, other, other_weights)
        np.testing.assert_array_equal(a.q, b.q)
        np.testing.assert_array_equal(a.r, b.r)


class TestWeightLengths:
    """Weights of the wrong length are a ParameterError, as in every fit."""

    @pytest.mark.parametrize("fn", [gic_score, gic_matrices])
    @pytest.mark.parametrize("block", ["r_labeled", "s_unlabeled"])
    def test_mismatched_weights_rejected(self, fn, block):
        data, weights = make_instance(12, 6, 2, seed=21)
        r, s = weights.r_labeled, weights.s_unlabeled
        bad = RatioWeights(r[:-1], s) if block == "r_labeled" else RatioWeights(r, s[:-1])
        model = make_model([0.1, 0.4, -0.3], TuningParams(0.5, 0.5, 0.1))
        with pytest.raises(ParameterError, match=f"{block} length"):
            fn(model, data, bad)


def no_step_column(x_lab, y, eta, lams, w):
    """column_from_fit of the rows w (B, d) on the labeled block, evaluated
    as a Newton batch that takes no step."""
    n1 = x_lab.shape[0]
    return column_from_fit(_newton_batch(x_lab, eta, y, lams, n1, w, max_iters=0), lams, n1)


class TestGicColumn:
    """The batched kernel, row by row, against the per-point oracles."""

    LAMS = np.array([1e-3, 0.05, 0.2, 1.5, 30.0])

    def column_inputs(self, seed, lams):
        data, weights = make_instance(20, 8, 3, seed=seed)
        rng = make_rng(2000 + seed)
        w = rng.normal(scale=0.7, size=(lams.size, 4))
        eta = power_weights(weights.r_labeled, 0.6)
        x_lab = build_design(data.labeled_x)
        return data, weights, w, x_lab, data.labeled_y.astype(float), eta

    @pytest.mark.parametrize("seed", range(5))
    def test_every_row_matches_per_point_oracle(self, seed):
        _, _, w, x_lab, y, eta = self.column_inputs(seed, self.LAMS)
        col = no_step_column(x_lab, y, eta, self.LAMS, w)
        for b, lam in enumerate(self.LAMS):
            q_ref, r_ref = matrices_by_loop(w[b], x_lab, y, eta, lam)
            np.testing.assert_allclose(col.q[b], q_ref, rtol=1e-12)
            np.testing.assert_allclose(col.r[b], r_ref, rtol=1e-12)
            nll_ref = nll_by_loop(w[b], x_lab, y, eta)
            assert col.weighted_nll[b] == pytest.approx(nll_ref, rel=1e-12)
            trace_ref = float(np.trace(np.linalg.solve(r_ref, q_ref)))
            assert col.trace_term[b] == pytest.approx(trace_ref, rel=1e-10)

    @pytest.mark.parametrize("seed", range(3))
    def test_every_row_equals_solo_score(self, seed):
        # Bit for bit: the grid search scores columns, and its selections
        # and printed criteria must not depend on the batch a model sat in.
        data, weights, w, x_lab, y, eta = self.column_inputs(seed, self.LAMS)
        col = no_step_column(x_lab, y, eta, self.LAMS, w)
        for b, lam in enumerate(self.LAMS):
            params = TuningParams(0.6, 0.3, float(lam))
            assert col.report(b, params) == gic_score(make_model(w[b], params), data, weights)

    def test_indefinite_row_fails_alone(self):
        # A negative ridge value drives one row's R indefinite; the other
        # rows of the column must still score as they do on their own.
        lams = np.array([0.05, -50.0, 1.5])
        data, weights, w, x_lab, y, eta = self.column_inputs(7, lams)
        col = no_step_column(x_lab, y, eta, lams, w)
        with pytest.raises(NumericalError, match="degenerate information matrix"):
            col.report(1, TuningParams(0.6, 0.3, 1.0))
        for b in (0, 2):
            params = TuningParams(0.6, 0.3, float(lams[b]))
            assert col.report(b, params) == gic_score(make_model(w[b], params), data, weights)


class TestGicScore:
    def test_matches_from_scratch_oracle(self):
        data, weights = make_instance(25, 6, 2, seed=9)
        params = TuningParams(0.7, 0.2, 0.1)
        model = make_model([0.3, -0.8, 0.6], params)

        report = gic_score(model, data, weights)
        x_lab = build_design(data.labeled_x)
        eta = power_weights(weights.r_labeled, params.gamma1)
        y = data.labeled_y.astype(float)
        q_ref, r_ref = matrices_by_loop(model.w, x_lab, y, eta, params.lam)
        nll_ref = nll_by_loop(model.w, x_lab, y, eta)
        trace_ref = float(np.trace(q_ref @ np.linalg.inv(r_ref)))

        assert report.weighted_nll == pytest.approx(nll_ref, rel=1e-10)
        assert report.trace_term == pytest.approx(trace_ref, rel=1e-10)
        assert report.gic == pytest.approx(nll_ref + 2.0 * trace_ref, rel=1e-10)

    def test_terms_compose_exactly(self):
        data, weights = make_instance(12, 4, 2, seed=10)
        params = TuningParams(0.4, 0.0, 0.3)
        model = make_model([0.0, 0.5, -0.5], params)
        report = gic_score(model, data, weights)
        assert report.gic == report.weighted_nll + 2.0 * report.trace_term
        assert report.params == params

    def test_fitted_model_has_finite_score(self):
        data, weights = make_instance(30, 15, 2, seed=11)
        params = TuningParams(0.5, 0.5, 0.2)
        model = fit_semisupervised(data, weights, params)
        report = gic_score(model, data, weights)
        assert np.isfinite(report.gic)
        assert report.trace_term > 0

    def test_labeled_permutation_invariance(self):
        data, weights = make_instance(18, 5, 2, seed=12)
        params = TuningParams(0.9, 0.1, 0.25)
        model = make_model([0.2, 0.7, -0.4], params)
        perm = make_rng(3).permutation(18)
        shuffled = SplitDataset(
            labeled_x=data.labeled_x[perm],
            labeled_y=data.labeled_y[perm],
            unlabeled_x=data.unlabeled_x,
        )
        shuffled_weights = RatioWeights(
            weights.r_labeled[perm], weights.s_unlabeled
        )
        a = gic_score(model, data, weights)
        b = gic_score(model, shuffled, shuffled_weights)
        assert a.gic == pytest.approx(b.gic, rel=1e-10)


class TestVariantReductions:
    def test_zero_gamma1_equals_unit_weight_criterion(self):
        # gamma1 = 0 flattens the weights to exact ones, so the weighted
        # criterion must coincide with the unit-weight one bit for bit.
        data, weights = make_instance(16, 6, 2, seed=13)
        params = TuningParams(0.0, 0.5, 0.15)
        model = make_model([0.1, -0.6, 0.9], params)
        a = gic_score(model, data, weights)
        b = gic_lsslr(model, data)
        assert a.gic == b.gic
        assert a.weighted_nll == b.weighted_nll
        assert a.trace_term == b.trace_term

    def test_unit_weights_equal_lsslr(self):
        data, _ = make_instance(16, 6, 2, seed=14)
        params = TuningParams(1.0, 0.5, 0.15)
        model = make_model([0.1, -0.6, 0.9], params)
        a = gic_score(model, data, unit_weights(data))
        b = gic_lsslr(model, data)
        assert a.gic == b.gic

    def test_nonunit_weights_differ(self):
        data, weights = make_instance(16, 6, 2, seed=15)
        params = TuningParams(1.0, 0.0, 0.15)
        model = make_model([0.1, -0.6, 0.9], params)
        assert gic_score(model, data, weights).gic != gic_lsslr(model, data).gic

    def test_slr_uses_unit_weight_formula(self):
        data, _ = make_instance(14, 0, 2, seed=16)
        params = TuningParams(0.3, 0.0, 0.4)
        model = make_model([0.5, 0.2, -0.1], params)
        a = gic_slr(model, data)
        b = gic_lsslr(model, data)
        assert a == b


class TestTraceTerm:
    def test_rank_deficient_rescued_by_jitter(self):
        # A positive semidefinite curvature matrix with one zero eigenvalue
        # is still usable after the diagonal bump.
        assert np.isfinite(_trace_terms(np.eye(2)[None], np.diag([1.0, 0.0])[None]))

    def test_indefinite_matrix_raises(self):
        data, _ = make_instance(12, 4, 2, seed=17)
        x_lab, y = build_design(data.labeled_x), data.labeled_y.astype(float)
        w = np.array([[0.1, 0.4, -0.3]])
        col = no_step_column(x_lab, y, np.ones(12), np.array([-50.0]), w)
        with pytest.raises(NumericalError, match="degenerate information matrix"):
            col.report(0, TuningParams(0.0, 0.0, 1.0))

    def test_rows_fall_back_independently(self):
        q = np.stack([np.eye(2)] * 3)
        r = np.stack([np.diag([1.0, 0.0]), -np.eye(2), 2.0 * np.eye(2)])
        trace = _trace_terms(q, r)
        assert np.isfinite(trace[0])
        assert np.isnan(trace[1])
        assert trace[2] == pytest.approx(1.0, rel=1e-15)
