"""Density-ratio weights: closed-form ratios and the least-squares estimator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.spatial.distance import pdist

import sslogit.ratios as ratios_mod
from sslogit.data import SplitDataset, make_rng
from sslogit.errors import DataError, ParameterError
from sslogit.ratios import (
    DiagGaussian,
    _kernel,
    _loocv_score,
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
            assert _loocv_score(k_nu, k_de, rho) == pytest.approx(expected, rel=1e-12)


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
        with pytest.raises(ParameterError, match=name):
            UlsifConfig(ratio_floor=floor, ratio_cap=cap)

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
        data = make_split(40, 60, 2, seed=13)
        fitted = []

        def counting_fit(*args, **kwargs):
            fitted.append(ulsif_fit(*args, **kwargs))
            return fitted[-1]

        monkeypatch.setattr(ratios_mod, "ulsif_fit", counting_fit)
        cfg = UlsifConfig(ratio_floor=0.7, ratio_cap=1.2)
        w = weights_from_ulsif(data, cfg, seed=3)
        assert len(fitted) == 1
        r_model = fitted[0]
        np.testing.assert_array_equal(w.r_labeled, ulsif_predict(r_model, data.labeled_x))
        s_expected = np.clip(1.0 / ulsif_predict(r_model, data.unlabeled_x), 0.7, 1.2)
        np.testing.assert_array_equal(w.s_unlabeled, s_expected)

    def test_config_widths_scale_with_median_distance(self, monkeypatch):
        # A tiny one-factor grid still produces a valid fit; the factor is
        # applied to the pooled median distance rather than used raw.
        data = make_split(30, 30, 1, seed=12)
        monkeypatch.setattr(ratios_mod, "DEFAULT_SIGMA_FACTORS", (1.0,))
        monkeypatch.setattr(ratios_mod, "DEFAULT_RHO_VALUES", (0.1,))
        monkeypatch.setattr(ratios_mod, "DEFAULT_MAX_CENTERS", 10)
        w = weights_from_ulsif(data, seed=0)
        assert np.all(np.isfinite(w.r_labeled))
