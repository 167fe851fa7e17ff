"""Grid construction, criterion-minimum selection, and failure handling."""

import numpy as np
import pytest

import sslogit.select as select_mod
from sslogit.data import SplitDataset, make_rng
import sslogit.gic as gic_mod
from sslogit.em import _BatchFits, fit_lambda_batch, fit_semisupervised
from sslogit.errors import NumericalError, ParameterError
from sslogit.gic import gic_lsslr, gic_score, gic_slr
from sslogit.objective import TuningParams
from sslogit.ratios import RatioWeights, unit_weights
from sslogit.select import Grid, default_grid, grid_search


def make_instance(n1, n0, p, seed):
    rng = make_rng(seed)
    data = SplitDataset(
        labeled_x=rng.normal(size=(n1, p)),
        labeled_y=(rng.random(n1) < 0.5).astype(np.uint8),
        unlabeled_x=rng.normal(size=(n0, p)),
    )
    weights = RatioWeights(
        r_labeled=rng.uniform(0.5, 2.0, n1),
        s_unlabeled=rng.uniform(0.5, 2.0, n0),
    )
    return data, weights


TINY = Grid(
    gamma1_values=(0.0, 0.5),
    gamma2_values=(0.0, 1.0),
    log10_lambda_values=(-1.0, 0.0, 1.0),
)


class TestGrid:
    def test_default_grid_contents(self):
        g = default_grid()
        np.testing.assert_allclose(g.gamma1_values, np.linspace(0.0, 1.0, 11))
        np.testing.assert_allclose(g.gamma2_values, np.linspace(0.0, 1.0, 11))
        np.testing.assert_allclose(g.log10_lambda_values, np.linspace(-4.0, 2.5, 14))

    def test_rejects_empty_axes(self):
        with pytest.raises(ParameterError, match="gamma1_values"):
            Grid((), (0.0,), (0.0,))
        with pytest.raises(ParameterError, match="log10_lambda_values"):
            Grid((0.0,), (0.0,), ())

    def test_rejects_out_of_range_gamma(self):
        with pytest.raises(ParameterError, match="lie in"):
            Grid((0.0, 1.5), (0.0,), (0.0,))

    def test_rejects_nonfinite_lambda_exponent(self):
        with pytest.raises(ParameterError, match="finite"):
            Grid((0.0,), (0.0,), (0.0, np.inf))


class TestGridSearch:
    def test_rejects_unknown_method(self):
        data, weights = make_instance(10, 5, 2, seed=0)
        with pytest.raises(ParameterError, match="method"):
            grid_search(data, weights, TINY, method="ridge")

    def test_candidate_counts_per_method(self):
        data, weights = make_instance(12, 8, 2, seed=1)
        full = grid_search(data, weights, TINY, method="sslrcs")
        assert len(full.candidates) == 2 * 2 * 3
        for method in ("lsslr", "slr"):
            res = grid_search(data, weights, TINY, method=method)
            assert len(res.candidates) == 3

    def test_single_candidate_is_selected(self):
        data, weights = make_instance(12, 8, 2, seed=2)
        grid = Grid((0.5,), (0.5,), (0.0,))
        res = grid_search(data, weights, grid, method="sslrcs")
        assert res.best_model.params == TuningParams(0.5, 0.5, 1.0)
        assert res.best_report.params == res.best_model.params
        assert len(res.candidates) == 1

    def test_two_candidates_pick_hand_computed_minimum(self):
        data, weights = make_instance(20, 10, 2, seed=3)
        grid = Grid((0.5,), (0.5,), (-1.0, 0.5))
        by_hand = {}
        for log_lam in grid.log10_lambda_values:
            params = TuningParams(0.5, 0.5, 10.0**log_lam)
            model = fit_semisupervised(data, weights, params)
            by_hand[params.lam] = gic_score(model, data, weights).gic
        expected_lam = min(by_hand, key=by_hand.get)

        res = grid_search(data, weights, grid, method="sslrcs")
        assert res.best_model.params.lam == pytest.approx(expected_lam, rel=1e-12)
        assert res.best_report.gic == pytest.approx(by_hand[expected_lam], rel=1e-9)

    def test_best_report_is_candidate_minimum(self):
        data, weights = make_instance(15, 10, 2, seed=4)
        res = grid_search(data, weights, TINY, method="sslrcs")
        scored = [c.report.gic for c in res.candidates if c.report is not None]
        assert res.best_report.gic == min(scored)

    def test_enumeration_order_does_not_matter(self):
        data, weights = make_instance(15, 10, 2, seed=5)
        reversed_grid = Grid(
            tuple(reversed(TINY.gamma1_values)),
            tuple(reversed(TINY.gamma2_values)),
            tuple(reversed(TINY.log10_lambda_values)),
        )
        a = grid_search(data, weights, TINY, method="sslrcs")
        b = grid_search(data, weights, reversed_grid, method="sslrcs")
        assert a.best_model.params == b.best_model.params
        assert a.best_report.gic == b.best_report.gic

    def test_deterministic(self):
        data, weights = make_instance(15, 10, 2, seed=6)
        a = grid_search(data, weights, TINY, method="sslrcs")
        b = grid_search(data, weights, TINY, method="sslrcs")
        assert a.best_model.params == b.best_model.params
        np.testing.assert_array_equal(a.best_model.w, b.best_model.w)

    def test_unit_weight_method_ignores_ratio_weights(self):
        data, weights = make_instance(15, 10, 2, seed=7)
        a = grid_search(data, weights, TINY, method="lsslr")
        b = grid_search(data, unit_weights(data), TINY, method="lsslr")
        np.testing.assert_array_equal(a.best_model.w, b.best_model.w)
        assert a.best_report.gic == b.best_report.gic

    def test_labeled_only_method_ignores_unlabeled_block(self):
        data, weights = make_instance(15, 10, 2, seed=8)
        rng = make_rng(100)
        other = SplitDataset(
            labeled_x=data.labeled_x,
            labeled_y=data.labeled_y,
            unlabeled_x=rng.normal(size=(30, 2)),
        )
        other_weights = RatioWeights(weights.r_labeled, rng.uniform(0.5, 2.0, 30))
        a = grid_search(data, weights, TINY, method="slr")
        b = grid_search(other, other_weights, TINY, method="slr")
        np.testing.assert_array_equal(a.best_model.w, b.best_model.w)
        assert a.best_report.gic == b.best_report.gic

    def test_baseline_candidates_record_zero_gammas(self):
        data, weights = make_instance(12, 8, 2, seed=9)
        res = grid_search(data, weights, TINY, method="lsslr")
        for cand in res.candidates:
            assert cand.params.gamma1 == 0.0
            assert cand.params.gamma2 == 0.0


class TestColumnScoring:
    """Each column is scored by one kernel call; the records must equal
    what the single-model wrappers give on the same refitted models."""

    @pytest.mark.parametrize("method", ["sslrcs", "lsslr", "slr"])
    def test_records_equal_solo_scores(self, method):
        data, weights = make_instance(15, 10, 2, seed=11)
        res = grid_search(data, weights, TINY, method=method)
        lams = np.power(10.0, np.asarray(TINY.log10_lambda_values))
        if method == "sslrcs":
            cells = [(g1, g2) for g1 in TINY.gamma1_values for g2 in TINY.gamma2_values]
        else:
            cells = [(0.0, 0.0)]
        solo = []
        for g1, g2 in cells:
            if method == "sslrcs":
                fits = fit_lambda_batch(data, weights, g1, g2, lams)
                solo += [gic_score(m, data, weights) for m in fits.models]
            else:
                ones = unit_weights(data)
                fits = fit_lambda_batch(
                    data, ones, 0.0, 0.0, lams, labeled_only=method == "slr"
                )
                score = gic_lsslr if method == "lsslr" else gic_slr
                solo += [score(m, data) for m in fits.models]
        assert len(res.candidates) == len(solo)
        for cand, ref in zip(res.candidates, solo):
            assert cand.error is None
            assert cand.params == ref.params
            assert cand.report.params is cand.params
            assert cand.report.gic == pytest.approx(ref.gic, rel=1e-12)

    def test_degenerate_row_is_recorded_alone(self, monkeypatch):
        data, weights = make_instance(15, 10, 2, seed=12)

        def one_bad_row(*args):
            col = gic_mod.gic_column(*args)
            col.trace_term[1] = np.nan
            return col

        monkeypatch.setattr(select_mod, "gic_column", one_bad_row)
        res = grid_search(data, weights, TINY, method="lsslr")
        bad = res.candidates[1]
        assert bad.report is None
        assert bad.error == "degenerate information matrix"
        assert all(c.report is not None for i, c in enumerate(res.candidates) if i != 1)


class TestAllCandidatesFailed:
    def test_raises_with_candidate_records(self, monkeypatch):
        data, weights = make_instance(10, 5, 2, seed=10)

        def broken_batch(data, weights, gamma1, gamma2, lams, config=None, **kwargs):
            n = np.asarray(lams).size
            return _BatchFits([None] * n, ["singular Hessian"] * n)

        monkeypatch.setattr(select_mod, "fit_lambda_batch", broken_batch)
        with pytest.raises(NumericalError, match="all 3 grid candidates failed") as info:
            grid_search(data, weights, TINY, method="lsslr")
        records = info.value.candidates
        assert len(records) == 3
        assert all(r.report is None for r in records)
        assert all(r.error == "singular Hessian" for r in records)
