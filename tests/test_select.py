"""Grid construction, criterion-minimum selection, and failure handling."""

import gc
import itertools
import weakref

import numpy as np
import pytest

import sslogit.em as em_mod
import sslogit.objective as objective_mod
import sslogit.select as select_mod
from sslogit.data import SplitDataset, make_rng
import sslogit.gic as gic_mod
from sslogit.em import e_step, fit_semisupervised, fit_step1_batch
from sslogit.errors import NumericalError, ParameterError
from sslogit.gic import column_from_fit, gic_lsslr, gic_score, gic_slr
from sslogit.objective import TuningParams, power_weights
from sslogit.ratios import RatioWeights, unit_weights
from sslogit.select import CandidateRecord, Grid, default_grid, grid_search, shared_search


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

    def test_negative_zero_gamma_is_stored_as_zero(self):
        g = Grid((-0.0, 0.5), (np.float64(-0.0),), (-0.0,))
        assert [np.copysign(1.0, v) for v in g.gamma1_values + g.gamma2_values] == [1.0] * 3
        assert np.copysign(1.0, g.log10_lambda_values[0]) == -1.0

    @pytest.mark.parametrize("exponent", [309.0, 400.0, -324.0, -400.0])
    def test_rejects_exponent_whose_lambda_overflows_or_underflows(self, exponent):
        # 10**v must be a positive finite double: 10**309 is inf, 10**-324 is 0.
        with pytest.raises(ParameterError, match="log10_lambda_values"):
            Grid((0.0,), (0.0,), (0.0, exponent))

    def test_log10_lambda_off_the_grid_raises(self):
        with pytest.raises(ParameterError, match="lam 0.3 "):
            default_grid().log10_lambda(0.3)


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
            col = gic_mod.column_from_fit(*args)
            col.trace_term[1] = np.nan
            return col

        monkeypatch.setattr(select_mod, "column_from_fit", one_bad_row)
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

        def spy(fit, *args):
            scored.append(np.array(fit.w))
            return gic_mod.column_from_fit(fit, *args)

        monkeypatch.setattr(select_mod, "column_from_fit", spy)
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
            return gic_mod.column_from_fit(*args)

        monkeypatch.setattr(select_mod, "fit_step1_batch", fit_spy)
        monkeypatch.setattr(select_mod, "column_from_fit", score_spy)
        res = grid_search(data, weights, default_grid(), method=method)
        assert len(calls["fit"]) == 1
        assert len(calls["score"]) == 1
        n_rows = len(res.candidates)
        assert n_rows == (154 if method == "sslrcs" else 14)
        assert calls["score"][0][0].w.shape[0] == n_rows

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

    def test_one_start_per_gamma1_and_one_hessian_per_accepted_step(self, monkeypatch):
        # The 14 ridge values of one gamma1 share its weights and its start:
        # power_weights builds one weight row per distinct gamma1, and the
        # Hessian rows built are the 11 starts plus one per accepted step.
        data, weights = make_instance(60, 20, 2, seed=17)
        built = {"weights": 0, "hessian": 0}
        power = objective_mod.power_weights
        hessian = objective_mod._unpenalized_hessian

        def power_spy(values, gamma):
            out = power(values, gamma)
            built["weights"] += out.size // values.size
            return out

        def hessian_spy(pi, *args):
            built["hessian"] += pi.shape[0]
            return hessian(pi, *args)

        monkeypatch.setattr(objective_mod, "power_weights", power_spy)
        monkeypatch.setattr(objective_mod, "_unpenalized_hessian", hessian_spy)
        grid = default_grid()
        lams = select_mod.ridge_values(grid.log10_lambda_values)
        gammas = np.repeat(grid.gamma1_values, lams.size)
        state = fit_step1_batch(data, weights, gammas, np.tile(lams, len(grid.gamma1_values)))
        accepted = state.iterations.sum() - state.status.count("stalled")
        assert len(state.status) == 154
        assert built["weights"] == len(grid.gamma1_values) == 11
        assert built["hessian"] == 11 + accepted


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


class TestOneOwnerPerDecision:
    def test_a_failed_row_reads_the_same_through_every_fit(self, monkeypatch):
        # The batch state alone turns a failed Newton row into an error
        # text; every fit entry point and the search records report it.
        data, weights = make_instance(12, 8, 2, seed=25)
        params = TuningParams(0.5, 0.0, 0.1)

        def fail_every_row(h, g):
            return np.zeros_like(g), np.ones(g.shape[0], dtype=bool)

        monkeypatch.setattr(objective_mod, "_batch_solve", fail_every_row)
        state = fit_step1_batch(data, weights, 0.5, [0.1])
        text = state.error(0)
        assert text is not None
        texts = []
        for fit in (
            lambda: objective_mod.newton_maximize(
                np.zeros(3), data, weights, np.full(8, 0.5), params
            ),
            lambda: em_mod.fit_step1(data, weights, params),
            lambda: fit_semisupervised(data, weights, params),
            lambda: em_mod.fitted_model(data, state, 0, params),
            lambda: state.checked_w(0),
        ):
            with pytest.raises(NumericalError) as info:
                fit()
            texts.append(str(info.value))
        fits = em_mod.fit_lambda_batch(data, weights, 0.5, 0.0, [0.1, 1.0])
        assert fits.models == [None, None]
        texts += fits.errors
        with pytest.raises(NumericalError) as info:
            shared_search(data, weights, TINY).select("sslrcs")
        texts += [r.error for r in info.value.candidates]
        assert texts == [text] * len(texts)

    def test_one_build_per_slice(self):
        # A one-gamma1 grid of 0 gives sslrcs and the baselines the same
        # rows, and so one set of records and one winner.
        data, weights = make_instance(15, 10, 2, seed=27)
        grid = Grid((-0.0,), (0.0,), (-1.0, 0.0))
        search = shared_search(data, weights, grid)
        sslrcs, slr = search.select("sslrcs"), search.select("slr")
        assert sslrcs.best_model is slr.best_model
        assert sslrcs.candidates == slr.candidates
        assert [np.copysign(1.0, c.params.gamma1) for c in sslrcs.candidates] == [1.0, 1.0]


def assert_same_selection(got, want):
    assert got.method == want.method
    assert got.candidates == want.candidates
    assert got.best_report == want.best_report
    a, b = got.best_model, want.best_model
    np.testing.assert_array_equal(a.w, b.w)
    np.testing.assert_array_equal(a.t_hat, b.t_hat)
    assert (a.params, a.final_objective, a.converged, a.newton_diagnostics) == (
        b.params, b.final_objective, b.converged, b.newton_diagnostics
    )


class TestSharedSearch:
    """One batch serves every requested method, and each method's selection
    equals its own grid_search bit for bit."""

    @pytest.mark.parametrize(
        "grid",
        [
            default_grid(),
            Grid((0.5, 1.0), (0.0,), (-2.0, 0.0, 1.0)),
            Grid((1.0, 0.0), (0.0,), (-1.0, 2.0)),
        ],
        ids=["default", "no-zero-gamma1", "zero-gamma1-last"],
    )
    def test_every_subset_and_order_equals_separate_searches(self, monkeypatch, grid):
        data, weights = make_instance(40, 20, 2, seed=21)
        solo = {m: grid_search(data, weights, grid, method=m) for m in select_mod.METHODS}
        fitted_rows = []

        def fit_spy(*args):
            fitted_rows.append(len(args[3]))
            return fit_step1_batch(*args)

        monkeypatch.setattr(select_mod, "fit_step1_batch", fit_spy)
        n_lams = len(grid.log10_lambda_values)
        n_grid = len(grid.gamma1_values) * n_lams
        for k in (1, 2, 3):
            for methods in itertools.permutations(select_mod.METHODS, k):
                fitted_rows.clear()
                search = shared_search(data, weights, grid, methods)
                for m in methods:
                    assert_same_selection(search.select(m), solo[m])
                baseline = "lsslr" in methods or "slr" in methods
                expected = n_grid if "sslrcs" in methods else 0
                if baseline and (expected == 0 or 0.0 not in grid.gamma1_values):
                    expected += n_lams
                assert fitted_rows == [expected]

    def test_baselines_share_one_build(self, monkeypatch):
        # lsslr and slr read the same rows: their records, reports and
        # winner are built once per search, however often they are asked.
        data, weights = make_instance(15, 10, 2, seed=24)
        reports, imputed = [], []
        report = gic_mod.GicColumn.report

        def report_spy(self, b, params):
            reports.append(b)
            return report(self, b, params)

        def e_step_spy(w, data):
            imputed.append(w)
            return e_step(w, data)

        monkeypatch.setattr(gic_mod.GicColumn, "report", report_spy)
        monkeypatch.setattr(em_mod, "e_step", e_step_spy)
        search = shared_search(data, weights, TINY)
        results = [search.select(m) for m in ("sslrcs", "lsslr", "slr", "lsslr")]
        # Selecting builds one winner per slice; the records wait for a read.
        assert len(reports) == 2 and len(imputed) == 2
        for result in results:
            assert result.candidates
        assert len(reports) == 2 + 6 + 3
        assert [r.method for r in results] == ["sslrcs", "lsslr", "slr", "lsslr"]
        assert results[1].candidates == results[2].candidates
        assert results[1].best_model is results[2].best_model

    def test_method_outside_the_search_is_rejected(self):
        data, weights = make_instance(15, 10, 2, seed=22)
        search = shared_search(data, weights, TINY, ("slr",))
        with pytest.raises(ParameterError, match="not part of this search"):
            search.select("sslrcs")
        with pytest.raises(ParameterError, match="method must be one of"):
            shared_search(data, weights, TINY, ("slr", "svm"))

    def test_failed_baseline_rows_leave_sslrcs_standing(self, monkeypatch):
        # Every gamma1 = 0 row fails: the baselines raise as their own
        # searches do, and sslrcs still selects from its other rows.
        data, weights = make_instance(15, 10, 2, seed=23)

        def fail_zero_gamma(data, weights, gammas, lams):
            state = fit_step1_batch(data, weights, gammas, lams)
            for b in np.flatnonzero(np.asarray(gammas) == 0.0):
                state.status[b] = objective_mod._FAILED
            return state

        monkeypatch.setattr(select_mod, "fit_step1_batch", fail_zero_gamma)
        search = shared_search(data, weights, TINY)
        assert_same_selection(search.select("sslrcs"), grid_search(data, weights, TINY, "sslrcs"))
        assert search.select("sslrcs").best_model.params.gamma1 == 0.5
        for m in ("lsslr", "slr"):
            with pytest.raises(NumericalError, match="all 3 grid candidates failed") as shared:
                search.select(m)
            with pytest.raises(NumericalError) as solo:
                grid_search(data, weights, TINY, m)
            assert str(shared.value) == str(solo.value)
            assert shared.value.candidates == solo.value.candidates


class TestLazyRecords:
    """The winner comes from the criterion arrays; the records are built
    when first read, from the batch the search scored."""

    @pytest.mark.parametrize("seed", range(3))
    def test_every_record_equals_a_solo_score(self, seed):
        # Bit for bit: the search reads the criterion pieces from its Newton
        # batch, and a candidate fitted and scored alone recomputes them.
        data, weights = make_instance(60, 20, 2, seed=30 + seed)
        search = shared_search(data, weights)
        for method in ("sslrcs", "slr"):
            for cand in search.select(method).candidates:
                assert cand.error is None
                model = fit_semisupervised(data, weights, cand.params)
                assert cand.report == gic_score(model, data, weights)

    def test_lazy_candidates_equal_eager_records(self):
        data, weights = make_instance(40, 20, 2, seed=33)
        grid = Grid((0.0, 0.5, 1.0), (0.0,), (-3.0, -1.0, 1.0))
        gammas = np.repeat(grid.gamma1_values, 3)
        lams = np.tile(np.power(10.0, grid.log10_lambda_values), 3)
        eta = power_weights(weights.r_labeled, gammas)
        state = fit_step1_batch(data, weights, gammas, lams)
        x_lab, y, n1 = data.labeled_design, data.labeled_y.astype(float), data.n_labeled
        col = column_from_fit(
            objective_mod._newton_batch(x_lab, eta, y, lams, n1, state.w, max_iters=0), lams, n1
        )
        eager = []
        for b in range(gammas.size):
            params = TuningParams(float(gammas[b]), 0.0, float(lams[b]))
            eager.append(CandidateRecord(params, col.report(b, params), True))
        search = shared_search(data, weights, grid)
        sslrcs, slr = search.select("sslrcs"), search.select("slr")
        assert sslrcs.candidates == eager
        assert slr.candidates == eager[:3]
        assert sslrcs.candidates is not sslrcs.candidates
        assert sslrcs.best_report == min(eager, key=lambda c: c.report.gic).report

    def test_a_finished_search_is_freed_without_the_cycle_collector(self):
        data, weights = make_instance(30, 10, 2, seed=34)
        enabled = gc.isenabled()
        gc.disable()
        try:
            search = shared_search(data, weights, TINY)
            results = [search.select(m) for m in select_mod.METHODS]
            results[0].candidates
            freed = weakref.ref(search)
            del search
            assert freed() is None
        finally:
            if enabled:
                gc.enable()
        assert [len(r.candidates) for r in results] == [6, 3, 3]
