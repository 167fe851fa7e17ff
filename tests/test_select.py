"""Grid construction, criterion-minimum selection, and failure handling."""

import numpy as np
import pytest

import sslogit.em as em_mod
import sslogit.objective as objective_mod
import sslogit.select as select_mod
from sslogit.data import SplitDataset, make_rng
import sslogit.gic as gic_mod
from sslogit.em import e_step, fit_semisupervised, fit_step1_batch
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

    @pytest.mark.parametrize("exponent", [309.0, 400.0, -324.0, -400.0])
    def test_rejects_exponent_whose_lambda_overflows_or_underflows(self, exponent):
        # 10**v must be a positive finite double: 10**309 is inf, 10**-324 is 0.
        with pytest.raises(ParameterError, match="log10_lambda_values"):
            Grid((0.0,), (0.0,), (0.0, exponent))


class TestGridSearch:
    def test_rejects_unknown_method(self):
        data, weights = make_instance(10, 5, 2, seed=0)
        with pytest.raises(ParameterError, match="method"):
            grid_search(data, weights, TINY, method="ridge")

    def test_candidate_counts_per_method(self):
        data, weights = make_instance(12, 8, 2, seed=1)
        full = grid_search(data, weights, TINY, method="sslrcs")
        assert len(full.candidates) == 2 * 3
        for method in ("lsslr", "slr"):
            res = grid_search(data, weights, TINY, method=method)
            assert len(res.candidates) == 3

    def test_single_candidate_is_selected(self):
        data, weights = make_instance(12, 8, 2, seed=2)
        grid = Grid((0.5,), (0.5,), (0.0,))
        res = grid_search(data, weights, grid, method="sslrcs")
        assert res.best_model.params == TuningParams(0.5, 0.0, 1.0)
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
    """The grid is scored by one kernel call; the records must equal what
    the single-model wrappers give on the same refitted models."""

    @pytest.mark.parametrize("method", ["sslrcs", "lsslr", "slr"])
    def test_records_equal_solo_scores(self, method):
        # Bit for bit: each candidate is refitted and scored on its own.
        data, weights = make_instance(15, 10, 2, seed=11)
        res = grid_search(data, weights, TINY, method=method)
        lams = np.power(10.0, np.asarray(TINY.log10_lambda_values))
        gamma1s = TINY.gamma1_values if method == "sslrcs" else (0.0,)
        solo = []
        for g1 in gamma1s:
            for lam in lams:
                params = TuningParams(g1, 0.0, float(lam))
                if method == "sslrcs":
                    model = fit_semisupervised(data, weights, params)
                    solo.append(gic_score(model, data, weights))
                else:
                    model = fit_semisupervised(data, unit_weights(data), params)
                    solo.append((gic_lsslr if method == "lsslr" else gic_slr)(model, data))
        assert len(res.candidates) == len(solo)
        for cand, ref in zip(res.candidates, solo):
            assert cand.error is None
            assert cand.params == ref.params
            assert cand.report.params is cand.params
            assert cand.report == ref

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


class TestStep1Search:
    """The weighted search is step-1 fits over (gamma1, lambda): the EM
    step and the gamma2 grid cannot move a fit (see sslogit.em)."""

    def test_candidates_are_step1_fits(self, monkeypatch):
        data, weights = make_instance(15, 10, 2, seed=13)
        scored = []

        def spy(w, *args):
            scored.append(np.array(w))
            return gic_mod.gic_column(w, *args)

        monkeypatch.setattr(select_mod, "gic_column", spy)
        res = grid_search(data, weights, TINY, method="sslrcs")
        n_lams = len(TINY.log10_lambda_values)
        assert len(res.candidates) == len(TINY.gamma1_values) * n_lams
        assert all(c.params.gamma2 == 0.0 for c in res.candidates)
        lams = np.power(10.0, np.asarray(TINY.log10_lambda_values))
        assert len(scored) == 1
        for j, g1 in enumerate(TINY.gamma1_values):
            step1 = fit_step1_batch(data, weights, g1, lams)
            np.testing.assert_array_equal(scored[0][j * n_lams : (j + 1) * n_lams], step1.w)
        best = res.best_model.params
        row = list(lams).index(best.lam)
        step1 = fit_step1_batch(data, weights, best.gamma1, lams)
        np.testing.assert_array_equal(res.best_model.w, step1.w[row])

    @pytest.mark.parametrize("method", ["sslrcs", "lsslr", "slr"])
    def test_one_fit_and_one_score_call_per_search(self, monkeypatch, method):
        data, weights = make_instance(15, 10, 2, seed=15)
        calls = {"fit": [], "score": []}

        def fit_spy(*args):
            calls["fit"].append(args)
            return fit_step1_batch(*args)

        def score_spy(*args):
            calls["score"].append(args)
            return gic_mod.gic_column(*args)

        monkeypatch.setattr(select_mod, "fit_step1_batch", fit_spy)
        monkeypatch.setattr(select_mod, "gic_column", score_spy)
        res = grid_search(data, weights, default_grid(), method=method)
        assert len(calls["fit"]) == 1
        assert len(calls["score"]) == 1
        n_rows = len(res.candidates)
        assert n_rows == (154 if method == "sslrcs" else 14)
        assert calls["score"][0][0].shape[0] == n_rows

    def test_only_the_winner_is_built_into_a_model(self, monkeypatch):
        # Candidates are scored as arrays; imputing t_hat for a FittedModel
        # happens once per search, for the winner.
        data, weights = make_instance(15, 10, 2, seed=14)
        imputed = []

        def spy(w, data):
            imputed.append(np.array(w))
            return e_step(w, data)

        monkeypatch.setattr(em_mod, "e_step", spy)
        res = grid_search(data, weights, TINY, method="sslrcs")
        assert len(res.candidates) == 6
        assert len(imputed) == 1
        np.testing.assert_array_equal(imputed[0], res.best_model.w)
        np.testing.assert_array_equal(res.best_model.t_hat, e_step(res.best_model.w, data))


class TestRowBlocks:
    """The kernels run a search's rows in blocks of bounded size; the
    records must not depend on where the block edges fall."""

    @pytest.mark.parametrize("max_iters", [None, 3])
    @pytest.mark.parametrize("method", ["sslrcs", "lsslr"])
    def test_records_do_not_depend_on_the_block_size(self, monkeypatch, method, max_iters):
        if max_iters is not None:
            monkeypatch.setattr(objective_mod, "MAX_ITERS", max_iters)
        monkeypatch.setattr(objective_mod, "MIN_BLOCK_ROWS", 1)
        for seed in range(10):
            rng = make_rng(7700 + seed)
            n1, n0, p = (int(k) for k in rng.integers([10, 5, 1], [80, 40, 5]))
            data, weights = make_instance(n1, n0, p, seed=7700 + seed)
            runs = []
            for block_doubles in (1, 7 * (p + 1) * n1, 10**9):  # 1 row, 7 rows, all rows
                monkeypatch.setattr(objective_mod, "BLOCK_DOUBLES", block_doubles)
                runs.append(grid_search(data, weights, default_grid(), method=method))
            for other in runs[1:]:
                assert other.candidates == runs[0].candidates
                np.testing.assert_array_equal(other.best_model.w, runs[0].best_model.w)

    def test_hessian_rows_stay_within_one_block(self, monkeypatch):
        # At n1 = 250 and two features a 154-row grid runs in blocks of
        # BLOCK_DOUBLES // (250 * 3) rows, and no Hessian temporary spans more.
        data, weights = make_instance(250, 20, 2, seed=16)
        rows = []
        hessian = objective_mod._batch_hessian

        def spy(pi, *args):
            rows.append(pi.shape[0])
            return hessian(pi, *args)

        monkeypatch.setattr(objective_mod, "_batch_hessian", spy)
        monkeypatch.setattr(gic_mod, "_batch_hessian", spy)
        res = grid_search(data, weights, default_grid(), method="sslrcs")
        block = max(objective_mod.MIN_BLOCK_ROWS, objective_mod.BLOCK_DOUBLES // (250 * 3))
        assert block < len(res.candidates) == 154
        assert max(rows) == block


class TestAllCandidatesFailed:
    def test_raises_with_candidate_records(self, monkeypatch):
        data, weights = make_instance(10, 5, 2, seed=10)

        def fail_every_row(h, g):
            return np.zeros_like(g), np.ones(g.shape[0], dtype=bool)

        monkeypatch.setattr(objective_mod, "_batch_solve", fail_every_row)
        with pytest.raises(NumericalError, match="all 3 grid candidates failed") as info:
            grid_search(data, weights, TINY, method="lsslr")
        records = info.value.candidates
        assert len(records) == 3
        assert all(r.report is None for r in records)
        assert all(r.error == "singular Hessian" for r in records)
