"""Density-ratio weights: closed-form ratios and the least-squares estimator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.spatial.distance import pdist

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import sslogit.ratios as ratios_mod
from sslogit.data import SplitDataset, derive_seed, make_rng
from sslogit.errors import DataError, NumericalError, ParameterError
from sslogit.ratios import (
    MEDIAN_POINTS,
    RATIO_CAP,
    RATIO_FLOOR,
    DiagGaussian,
    _gram,
    _kernel,
    _loocv_scores,
    _ridge_solve,
    _sq_dist,
    RatioWeights,
    UlsifConfig,
    exact_ratio,
    log_density,
    median_pairwise_distance,
    ulsif_fit,
    ulsif_predict,
    unit_weights,
    weights_from_exact,
    weights_from_ulsif,
)


def make_split(n1, n0, p, seed):
    rng = make_rng(seed)
    return SplitDataset(
        labeled_x=rng.normal(size=(n1, p)),
        labeled_y=(rng.random(n1) < 0.5).astype(np.uint8),
        unlabeled_x=rng.normal(size=(n0, p)),
    )


class TestDiagGaussian:
    def test_scalar_arguments_promoted(self):
        dist = DiagGaussian(mean=1.0, var=2.0)
        assert dist.dim == 1
        np.testing.assert_array_equal(dist.mean, [1.0])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ParameterError, match="equal length"):
            DiagGaussian(mean=np.zeros(2), var=np.ones(3))

    def test_nonpositive_variance_rejected(self):
        with pytest.raises(ParameterError, match="positive"):
            DiagGaussian(mean=np.zeros(2), var=np.array([1.0, 0.0]))

    def test_sample_shape_and_moments(self):
        dist = DiagGaussian(mean=np.array([2.0, -1.0]), var=np.array([4.0, 0.25]))
        x = dist.sample(200_000, make_rng(0))
        assert x.shape == (200_000, 2)
        np.testing.assert_allclose(x.mean(axis=0), [2.0, -1.0], atol=0.02)
        np.testing.assert_allclose(x.var(axis=0), [4.0, 0.25], rtol=0.02)


class TestLogDensity:
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_independent_normal_oracle(self, seed):
        rng = make_rng(seed)
        mean = rng.normal(size=3)
        var = rng.uniform(0.5, 3.0, 3)
        dist = DiagGaussian(mean, var)
        pts = rng.normal(size=(16, 3))
        ref = stats.norm.logpdf(pts, loc=mean, scale=np.sqrt(var)).sum(axis=1)
        np.testing.assert_allclose(log_density(dist, pts), ref, rtol=1e-12)

    def test_single_point_returns_scalar(self):
        dist = DiagGaussian(np.zeros(2), np.ones(2))
        out = log_density(dist, np.zeros(2))
        assert isinstance(out, float)
        assert out == pytest.approx(-np.log(2.0 * np.pi), rel=1e-12)

    def test_dimension_mismatch_rejected(self):
        dist = DiagGaussian(np.zeros(2), np.ones(2))
        with pytest.raises(ParameterError, match="dim"):
            log_density(dist, np.zeros((4, 3)))


class TestExactRatio:
    def test_matches_density_quotient(self):
        num = DiagGaussian(np.array([0.5, 0.0]), np.array([1.0, 2.0]))
        den = DiagGaussian(np.zeros(2), np.ones(2))
        pts = make_rng(1).normal(size=(20, 2))
        ref = np.exp(
            stats.norm.logpdf(pts, num.mean, np.sqrt(num.var)).sum(axis=1)
            - stats.norm.logpdf(pts, den.mean, np.sqrt(den.var)).sum(axis=1)
        )
        out = exact_ratio(num, den, pts, floor=0.0, cap=np.inf)
        np.testing.assert_allclose(out, ref, rtol=1e-12)

    def test_reciprocal_identity(self):
        a = DiagGaussian(np.array([1.0]), np.array([1.5]))
        b = DiagGaussian(np.array([-0.5]), np.array([0.8]))
        pts = make_rng(2).normal(size=(25, 1))
        fwd = exact_ratio(a, b, pts, floor=0.0, cap=np.inf)
        rev = exact_ratio(b, a, pts, floor=0.0, cap=np.inf)
        np.testing.assert_allclose(fwd * rev, np.ones(25), rtol=1e-10)

    def test_clipped_into_bounds(self):
        num = DiagGaussian(np.array([10.0]), np.array([1.0]))
        den = DiagGaussian(np.array([0.0]), np.array([1.0]))
        far = np.array([[30.0], [-30.0]])
        out = exact_ratio(num, den, far)
        assert out[0] == 1e3
        assert out[1] == 1e-3

    def test_single_point_returns_scalar(self):
        num = DiagGaussian(np.zeros(1), np.ones(1))
        out = exact_ratio(num, num, np.array([0.3]))
        assert isinstance(out, float)
        assert out == 1.0


class TestRatioWeights:
    def test_rejects_nonpositive(self):
        with pytest.raises(ParameterError, match="positive"):
            RatioWeights(np.array([1.0, 0.0]), np.array([1.0]))

    def test_rejects_nonfinite(self):
        with pytest.raises(ParameterError, match="finite"):
            RatioWeights(np.array([1.0, np.inf]), np.array([1.0]))

    def test_rejects_matrix_input(self):
        with pytest.raises(ParameterError, match="1-d"):
            RatioWeights(np.ones((2, 2)), np.ones(2))

    def test_unit_weights_are_ones(self):
        data = make_split(5, 3, 2, seed=0)
        w = unit_weights(data)
        np.testing.assert_array_equal(w.r_labeled, np.ones(5))
        np.testing.assert_array_equal(w.s_unlabeled, np.ones(3))


class TestWeightsFromExact:
    def test_matches_pointwise_ratios(self):
        data = make_split(8, 6, 2, seed=3)
        lab = DiagGaussian(np.zeros(2), np.ones(2))
        unl = DiagGaussian(np.array([0.5, 0.5]), np.array([2.0, 1.0]))
        w = weights_from_exact(lab, unl, data)
        np.testing.assert_array_equal(w.r_labeled, exact_ratio(unl, lab, data.labeled_x))
        np.testing.assert_array_equal(w.s_unlabeled, exact_ratio(lab, unl, data.unlabeled_x))

    def test_requires_unlabeled_rows(self):
        data = SplitDataset(
            labeled_x=np.ones((3, 1)),
            labeled_y=np.array([0, 1, 0]),
            unlabeled_x=np.empty((0, 1)),
        )
        gauss = DiagGaussian(np.zeros(1), np.ones(1))
        with pytest.raises(DataError, match="unlabeled"):
            weights_from_exact(gauss, gauss, data)


class TestMedianPairwiseDistance:
    def test_three_point_hand_value(self):
        # Points 0, 1, 3 on a line: distances {1, 3, 2}, median 2.
        x = np.array([[0.0], [1.0], [3.0]])
        assert median_pairwise_distance(x) == 2.0

    def test_duplicates_fall_back_to_unit(self):
        assert median_pairwise_distance(np.ones((4, 2))) == 1.0

    def test_needs_two_points(self):
        with pytest.raises(DataError, match="two points"):
            median_pairwise_distance(np.ones((1, 3)))

    @given(
        n=st.integers(min_value=2, max_value=30),
        p=st.integers(min_value=1, max_value=3),
        data=st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_bitwise_equal_to_numpy_median(self, n, p, data):
        # Small integers give ties and repeated points; n(n-1)/2 takes both
        # parities. Distances are nonnegative, so == is bitwise here.
        value = st.one_of(
            st.integers(min_value=-2, max_value=2).map(float),
            st.floats(min_value=-1e6, max_value=1e6),
        )
        x = np.array(data.draw(st.lists(value, min_size=n * p, max_size=n * p)))
        x = x.reshape(n, p)
        med = float(np.median(pdist(x)))
        assert median_pairwise_distance(x) == (med if med > 0 else 1.0)

    @pytest.mark.parametrize(
        "x",
        [
            make_rng(49).normal(size=(49, 4)),
            make_rng(50).normal(size=(50, 4)),
            np.array([[0.0], [2.0]]),
            np.array([[0.0], [1.0], [2.0], [3.0]]),
            np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0], [1.0, 1.0], [0.0, 1.0]]),
            np.vstack([make_rng(3).normal(size=(6, 2))] * 2),
        ],
        ids=[
            "1176-pairs", "1225-pairs", "two-points", "even-ties",
            "duplicate-points", "duplicate-halves",
        ],
    )
    def test_equals_the_median_of_a_fresh_pdist(self, x):
        # The median is taken in place on the call's own pdist array; it
        # must equal the plain median for even and odd pair counts.
        assert median_pairwise_distance(x) == float(np.median(pdist(x)))


def loocv_by_refit(k_nu, k_de, rho):
    """Leave-one-out score by brute force: for each of the first
    min(n_nu, n_de) pairs, drop the pair from both kernel matrices, refit
    the clipped coefficients, and score the held-out pair."""
    n_nu, b = k_nu.shape
    n_de = k_de.shape[0]
    n = min(n_nu, n_de)
    total = 0.0
    for i in range(n):
        kn = np.delete(k_nu, i, axis=0)
        kd = np.delete(k_de, i, axis=0)
        alpha = np.linalg.solve(kd.T @ kd / (n_de - 1) + rho * np.eye(b), kn.mean(axis=0))
        alpha = np.maximum(alpha, 0.0)
        total += (k_de[i] @ alpha) ** 2 / 2.0 - k_nu[i] @ alpha
    return total / n


class TestKernel:
    @pytest.mark.parametrize("sigma", [1e-3, 0.1, 0.7, 1.0, 3.3, 1e4])
    def test_in_place_kernel_matches_the_plain_formula_bit_for_bit(self, sigma):
        rng = make_rng(16)
        sq = np.concatenate([
            np.zeros(5), np.abs(rng.normal(scale=10.0, size=200)),
            [1e-300, 5e-324, 1e-10, 1e3, 1e30, 1e300, np.finfo(float).max],
        ]).reshape(-1, 1)
        buf, into_sq = np.full_like(sq, np.nan), sq.copy()
        with np.errstate(over="ignore"):  # the largest distances overflow to -inf
            expected = np.exp(-sq / (2.0 * sigma**2))
            assert _kernel(sq, sigma, buf) is buf
            # Into the distances themselves, as ulsif_predict does.
            assert _kernel(into_sq, sigma, into_sq) is into_sq
        assert buf.tobytes() == expected.tobytes()
        assert into_sq.tobytes() == expected.tobytes()


class TestLoocvScore:
    @pytest.mark.parametrize("n_nu,n_de", [(6, 11), (9, 9), (14, 7)])
    @pytest.mark.parametrize("rho", [1e-3, 0.1, 1.0])
    def test_closed_form_matches_refit_oracle(self, n_nu, n_de, rho):
        rng = make_rng(n_nu * 100 + n_de)
        x_nu = rng.normal(0.3, 1.0, size=(n_nu, 2))
        x_de = rng.normal(0.0, 1.2, size=(n_de, 2))
        centers = x_nu[:5]
        for sigma in (0.5, 1.5):
            k_nu = _kernel(_sq_dist(x_nu, centers), sigma)
            k_de = _kernel(_sq_dist(x_de, centers), sigma)
            expected = loocv_by_refit(k_nu, k_de, rho)
            (score,) = _loocv_scores(
                k_nu, k_de, _gram(k_de), k_nu.mean(axis=0), [rho], n_nu
            )
            assert score == pytest.approx(expected, rel=1e-12)


class TestUlsifFit:
    def test_validates_inputs(self):
        x = make_rng(4).normal(size=(10, 2))
        with pytest.raises(DataError, match="nonempty"):
            ulsif_fit(np.empty((0, 2)), x, [1.0], [0.1], seed=0)
        with pytest.raises(DataError, match="feature dimension"):
            ulsif_fit(x, np.ones((5, 3)), [1.0], [0.1], seed=0)
        with pytest.raises(ParameterError, match="nonempty"):
            ulsif_fit(x, x, [], [0.1], seed=0)
        with pytest.raises(ParameterError, match="positive"):
            ulsif_fit(x, x, [1.0, -1.0], [0.1], seed=0)

    def test_deterministic_for_fixed_seed(self):
        rng = make_rng(5)
        x_nu = rng.normal(size=(60, 2))
        x_de = rng.normal(size=(60, 2))
        a = ulsif_fit(x_nu, x_de, [0.5, 1.0], [0.01, 0.1], seed=42)
        b = ulsif_fit(x_nu, x_de, [0.5, 1.0], [0.01, 0.1], seed=42)
        np.testing.assert_array_equal(a.alpha, b.alpha)
        np.testing.assert_array_equal(a.centers, b.centers)
        assert a.sigma == b.sigma and a.rho == b.rho

    def test_coefficients_nonnegative(self):
        rng = make_rng(6)
        model = ulsif_fit(
            rng.normal(size=(80, 1)), rng.normal(size=(80, 1)),
            [0.5, 1.0, 2.0], [0.01, 0.1, 1.0], seed=0,
        )
        assert np.all(model.alpha >= 0)

    def test_center_count_capped(self, monkeypatch):
        rng = make_rng(7)
        monkeypatch.setattr(ratios_mod, "DEFAULT_MAX_CENTERS", 12)
        model = ulsif_fit(
            rng.normal(size=(50, 1)), rng.normal(size=(50, 1)), [1.0], [0.1], seed=0,
        )
        assert model.centers.shape == (12, 1)

    def test_identical_distributions_give_near_unit_ratio(self):
        rng = make_rng(8)
        x_nu = rng.normal(size=(400, 2))
        x_de = rng.normal(size=(400, 2))
        sigmas = [f * median_pairwise_distance(np.vstack([x_nu, x_de])) for f in (0.25, 0.5, 1.0, 2.0)]
        model = ulsif_fit(x_nu, x_de, sigmas, [1e-3, 1e-2, 1e-1, 1.0], seed=0)
        ratios = ulsif_predict(model, x_de)
        assert np.mean((ratios > 0.5) & (ratios < 2.0)) > 0.9

    def test_indefinite_final_system_raises(self, monkeypatch):
        # Every factorization fails: the scan scores every pair inf, and
        # the fallback pair's final system is reported, not raised raw.
        def failing_dpotrf(a, **kwargs):
            return a, 1

        # _ridge_solve imports dpotrf when it is called.
        monkeypatch.setattr("scipy.linalg.lapack.dpotrf", failing_dpotrf)
        rng = make_rng(10)
        with pytest.raises(NumericalError, match="not positive definite"):
            ulsif_fit(rng.normal(size=(30, 2)), rng.normal(size=(30, 2)),
                      [0.5, 1.0], [0.01, 0.1], seed=0)

    def test_prediction_respects_clip_bounds(self):
        rng = make_rng(9)
        model = ulsif_fit(
            rng.normal(size=(40, 1)), rng.normal(size=(40, 1)),
            [1.0], [0.1], seed=0, ratio_floor=0.2, ratio_cap=3.0,
        )
        out = ulsif_predict(model, rng.normal(scale=10.0, size=(200, 1)))
        assert np.all(out >= 0.2) and np.all(out <= 3.0)


class TestUlsifConfig:
    @pytest.mark.parametrize(
        "floor, cap, name",
        [
            (0.0, 1e3, "ratio_floor"),
            (-1.0, 1e3, "ratio_floor"),
            (np.nan, 1e3, "ratio_floor"),
            (np.inf, np.inf, "ratio_floor"),
            (5.0, 2.0, "ratio_cap"),
            (1e-3, 0.0, "ratio_cap"),
            (1e-3, np.nan, "ratio_cap"),
        ],
    )
    def test_rejects_an_empty_or_nonpositive_range(self, floor, cap, name):
        with pytest.raises(ParameterError, match=name) as config:
            UlsifConfig(ratio_floor=floor, ratio_cap=cap)
        # ulsif_fit's own clip range is held to the same rule, in the same words.
        x = make_rng(0).normal(size=(20, 1))
        with pytest.raises(ParameterError) as fit:
            ulsif_fit(x, x, [1.0], [0.1], seed=0, ratio_floor=floor, ratio_cap=cap)
        assert str(fit.value) == str(config.value)

    def test_accepts_a_one_point_range_and_an_infinite_cap(self):
        UlsifConfig(ratio_floor=2.0, ratio_cap=2.0)
        UlsifConfig(ratio_floor=1e-3, ratio_cap=np.inf)


class TestWeightsFromUlsif:
    def test_requires_unlabeled_rows(self):
        data = SplitDataset(
            labeled_x=np.ones((3, 1)),
            labeled_y=np.array([0, 1, 0]),
            unlabeled_x=np.empty((0, 1)),
        )
        with pytest.raises(DataError, match="unlabeled"):
            weights_from_ulsif(data)

    def test_shapes_and_positivity(self):
        data = make_split(40, 60, 2, seed=10)
        w = weights_from_ulsif(data, seed=0)
        assert w.r_labeled.shape == (40,)
        assert w.s_unlabeled.shape == (60,)
        assert np.all(w.r_labeled > 0) and np.all(w.s_unlabeled > 0)

    def test_deterministic_and_seed_sensitive(self):
        data = make_split(50, 50, 2, seed=11)
        a = weights_from_ulsif(data, seed=7)
        b = weights_from_ulsif(data, seed=7)
        np.testing.assert_array_equal(a.r_labeled, b.r_labeled)
        np.testing.assert_array_equal(a.s_unlabeled, b.s_unlabeled)

    def test_one_fit_gives_both_directions(self, monkeypatch):
        fitted = []

        def counting_fit(*args):
            fitted.append(fit(*args))
            return fitted[-1]

        # Both ratios must equal ulsif_predict's bit for bit. One unlabeled
        # row leaves too few points for leave-one-out, so that fit falls
        # back to the middle width and the strongest ridge.
        fit = ratios_mod.ulsif_fit
        monkeypatch.setattr(ratios_mod, "ulsif_fit", counting_fit)
        cfg = UlsifConfig(ratio_floor=0.7, ratio_cap=1.2)
        for n0, fallback in ((60, False), (1, True)):
            data = make_split(40, n0, 2, seed=13)
            fitted.clear()
            w = weights_from_ulsif(data, cfg, seed=3)
            assert len(fitted) == 1
            r_model = fitted[0]
            assert (r_model.loocv_score == np.inf) == fallback
            if fallback:
                factors = ratios_mod.DEFAULT_SIGMA_FACTORS
                scale = median_pairwise_distance(np.vstack([data.labeled_x, data.unlabeled_x]))
                assert r_model.sigma == factors[len(factors) // 2] * scale
                assert r_model.rho == ratios_mod.DEFAULT_RHO_VALUES[-1]
            np.testing.assert_array_equal(w.r_labeled, ulsif_predict(r_model, data.labeled_x))
            s_expected = np.clip(1.0 / ulsif_predict(r_model, data.unlabeled_x), 0.7, 1.2)
            np.testing.assert_array_equal(w.s_unlabeled, s_expected)

    @staticmethod
    def median_inputs(monkeypatch, data, seed):
        seen = []

        def spy(x):
            seen.append(x)
            return median_pairwise_distance(x)

        monkeypatch.setattr(ratios_mod, "median_pairwise_distance", spy)
        weights_from_ulsif(data, seed=seed)
        assert len(seen) == 1
        return seen[0]

    @pytest.mark.parametrize("n0", [60, MEDIAN_POINTS - 40])
    def test_median_sees_every_pooled_row_up_to_the_cap(self, monkeypatch, n0):
        data = make_split(40, n0, 2, seed=14)
        seen = self.median_inputs(monkeypatch, data, seed=5)
        np.testing.assert_array_equal(seen, np.vstack([data.labeled_x, data.unlabeled_x]))

    def test_median_subsample_above_the_cap(self, monkeypatch):
        data = make_split(60, MEDIAN_POINTS + 140, 2, seed=15)
        pooled = np.vstack([data.labeled_x, data.unlabeled_x])
        index = {row.tobytes(): i for i, row in enumerate(pooled)}
        assert len(index) == pooled.shape[0]

        def drawn(seed):
            seen = self.median_inputs(monkeypatch, data, seed)
            assert seen.shape == (MEDIAN_POINTS, 2)
            rows = {index[row.tobytes()] for row in seen}
            assert len(rows) == MEDIAN_POINTS
            return rows

        assert drawn(seed=5) == drawn(seed=5)
        assert drawn(seed=5) != drawn(seed=6)

    def test_config_widths_scale_with_median_distance(self, monkeypatch):
        # A tiny one-factor grid still produces a valid fit; the factor is
        # applied to the pooled median distance rather than used raw.
        data = make_split(30, 30, 1, seed=12)
        monkeypatch.setattr(ratios_mod, "DEFAULT_SIGMA_FACTORS", (1.0,))
        monkeypatch.setattr(ratios_mod, "DEFAULT_RHO_VALUES", (0.1,))
        monkeypatch.setattr(ratios_mod, "DEFAULT_MAX_CENTERS", 10)
        w = weights_from_ulsif(data, seed=0)
        assert np.all(np.isfinite(w.r_labeled))


def unblocked_fit(x_nu, x_de, sigmas, rhos, seed, floor=RATIO_FLOOR, cap=RATIO_CAP):
    """The uLSIF fit by the unblocked algebra: whole (n_nu, b) kernels at
    every width and h = k_nu.mean(axis=0). Returns (alpha, sigma, rho,
    score, centers) and the clipped ratios at x_nu and at x_de."""
    n_nu = x_nu.shape[0]
    b = min(ratios_mod.DEFAULT_MAX_CENTERS, n_nu)
    centers = x_nu[make_rng(seed).choice(n_nu, size=b, replace=False)]
    sq_nu, sq_de = _sq_dist(x_nu, centers), _sq_dist(x_de, centers)
    score, i, j = np.inf, len(sigmas) // 2, len(rhos) - 1
    for w, sigma in enumerate(sigmas):
        k_nu, k_de = _kernel(sq_nu, sigma), _kernel(sq_de, sigma)
        scores = _loocv_scores(k_nu, k_de, _gram(k_de), k_nu.mean(axis=0), rhos, n_nu)
        r = int(np.argmin(scores))
        if scores[r] < score:
            score, i, j = scores[r], w, r
    k_nu, k_de = _kernel(sq_nu, sigmas[i]), _kernel(sq_de, sigmas[i])
    alpha = np.maximum(_ridge_solve(_gram(k_de), rhos[j], k_nu.mean(axis=0)), 0.0)
    fit = (alpha, sigmas[i], rhos[j], float(score), centers)
    return fit, np.clip(k_nu @ alpha, floor, cap), np.clip(k_de @ alpha, floor, cap)


def unblocked_weights(data, seed):
    """weights_from_ulsif by the unblocked algebra: the pooled copy of the
    covariates for the median, then unblocked_fit."""
    pooled = np.vstack([data.labeled_x, data.unlabeled_x])
    if pooled.shape[0] > MEDIAN_POINTS:
        rng = make_rng(derive_seed(seed, 2))
        pooled = pooled[rng.choice(pooled.shape[0], size=MEDIAN_POINTS, replace=False)]
    scale = median_pairwise_distance(pooled)
    sigmas = [f * scale for f in ratios_mod.DEFAULT_SIGMA_FACTORS]
    _, r_nu, r_de = unblocked_fit(
        data.unlabeled_x, data.labeled_x, sigmas, ratios_mod.DEFAULT_RHO_VALUES,
        derive_seed(seed, 1),
    )
    return r_de, np.clip(1.0 / r_nu, RATIO_FLOOR, RATIO_CAP)


B = ratios_mod._BLOCK_ROWS


class TestBlockedUlsif:
    """The fit reads the unlabeled rows in blocks; its bits are those of
    the unblocked algebra."""

    @staticmethod
    def assert_same_bits(data, seed):
        w = weights_from_ulsif(data, seed=seed)
        r_labeled, s_unlabeled = unblocked_weights(data, seed)
        assert w.r_labeled.tobytes() == r_labeled.tobytes()
        assert w.s_unlabeled.tobytes() == s_unlabeled.tobytes()
        sigmas, rhos = [0.3, 1.0, 3.0], [1e-3, 0.1, 1.0]
        model = ulsif_fit(data.unlabeled_x, data.labeled_x, sigmas, rhos, seed=seed)
        fit, r_nu, r_de = unblocked_fit(data.unlabeled_x, data.labeled_x, sigmas, rhos, seed)
        alpha, sigma, rho, score, centers = fit
        assert model.alpha.tobytes() == alpha.tobytes()
        assert (model.sigma, model.rho, model.loocv_score) == (sigma, rho, score)
        assert model.centers.tobytes() == centers.tobytes()
        assert ulsif_predict(model, data.unlabeled_x).tobytes() == r_nu.tobytes()
        assert ulsif_predict(model, data.labeled_x).tobytes() == r_de.tobytes()

    @pytest.mark.parametrize(
        "n1, n0",
        [
            (100, B - 1), (100, B), (100, B + 1), (100, 3 * B + 7),
            # More labeled rows than one block: the leave-one-out pairs
            # are the first n_labeled unlabeled rows, across blocks.
            (B + 188, 3 * B + 64),
            (300, 50),  # fewer unlabeled rows than labeled ones
            (40, 1),  # too few for leave-one-out: the fallback width
        ],
    )
    def test_equals_the_unblocked_algebra_bit_for_bit(self, n1, n0):
        self.assert_same_bits(make_split(n1, n0, 3, seed=n1 + n0), seed=n0)

    @pytest.mark.parametrize("n1, n0", [(30, 41), (45, 100), (70, 33), (9, 9)])
    def test_small_blocks_equal_the_unblocked_algebra(self, monkeypatch, n1, n0):
        # Many blocks of 8 rows, a last block of 9 rather than of 1 (41,
        # 33, 9), and labeled rows spanning several blocks.
        monkeypatch.setattr(ratios_mod, "_BLOCK_ROWS", 8)
        self.assert_same_bits(make_split(n1, n0, 2, seed=n1 * n0), seed=1)

    @pytest.mark.parametrize("n", [0, 1, 2, B - 1, B, B + 1, B + 2, 2 * B + 1, 3 * B + 7])
    def test_blocks_cover_the_rows_without_a_lone_row(self, n):
        blocks = ratios_mod._blocks(n)
        assert [s.start for s in blocks] == list(range(0, len(blocks) * B, B))
        assert blocks[-1].stop == n
        sizes = [s.stop - s.start for s in blocks]
        assert sizes[:-1] == [B] * (len(blocks) - 1)
        assert 2 <= sizes[-1] <= B + 1 if n > 1 else sizes == [n]

    def test_peak_memory_does_not_grow_with_the_unlabeled_rows(self):
        peaks = []
        for n0 in (4_000, 40_000):
            data = make_split(100, n0, 10, seed=20)
            tracemalloc.start()
            try:
                weights_from_ulsif(data, seed=0)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        # The unblocked fit grew by some 86 MB between the two.
        assert peaks[1] - peaks[0] <= 2e6

    def test_bytes_do_not_depend_on_blas_threads_past_ten_thousand_rows(self):
        # A whole-matrix product over 10,003 rows splits its rows between
        # threads at a boundary where the kernels' sums differ; each block
        # splits alike at any thread count.
        code = (
            "import hashlib, numpy as np\n"
            "from sslogit.data import SplitDataset, make_rng\n"
            "from sslogit.ratios import weights_from_ulsif\n"
            "rng = make_rng(108)\n"
            "d = SplitDataset(rng.normal(size=(100, 5)), rng.random(100) < 0.5,\n"
            "                 rng.normal(0.4, 1.2, size=(10003, 5)))\n"
            "w = weights_from_ulsif(d, seed=8)\n"
            "print(hashlib.sha256(w.r_labeled.tobytes() + w.s_unlabeled.tobytes()).hexdigest())\n"
        )
        src = str(Path(ratios_mod.__file__).resolve().parents[1])
        digests = [
            subprocess.run(
                [sys.executable, "-c", code], capture_output=True, text=True, check=True,
                env=dict(os.environ, OPENBLAS_NUM_THREADS=t, OMP_NUM_THREADS=t, PYTHONPATH=src),
                timeout=300,
            ).stdout
            for t in ("1", "2")
        ]
        assert digests[0] == digests[1]


class TestUlsifInputChecks:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_fit_rejects_nonfinite_points(self, bad):
        x = make_rng(21).normal(size=(20, 2))
        y = x.copy()
        y[3, 1] = bad
        for x_nu, x_de in ((y, x), (x, y)):
            with pytest.raises(DataError, match="finite"):
                ulsif_fit(x_nu, x_de, [1.0], [0.1], seed=0)

    @pytest.fixture
    def model(self):
        x = make_rng(22).normal(size=(30, 3))
        return ulsif_fit(x, x[::-1], [1.0], [0.1], seed=0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_predict_rejects_nonfinite_points(self, model, bad):
        x = np.zeros((4, 3))
        x[2, 0] = bad
        with pytest.raises(DataError, match="finite"):
            ulsif_predict(model, x)

    def test_predict_rejects_a_dimension_mismatch(self, model):
        with pytest.raises(DataError, match="2 features.*3"):
            ulsif_predict(model, np.zeros((5, 2)))
        with pytest.raises(DataError, match="4 features"):
            ulsif_predict(model, np.zeros(4))

    def test_predict_shapes(self, model):
        assert ulsif_predict(model, np.empty((0, 3))).shape == (0,)
        one = ulsif_predict(model, np.zeros(3))
        assert one.shape == (1,)
        assert one.tobytes() == ulsif_predict(model, np.zeros((1, 3))).tobytes()
