"""Exhaustive tuning-parameter selection by information-criterion minimum.

Three method flavors share the machinery: the weighted fit searches over
(gamma1, lambda); the unit-weight and labeled-only baselines search over
lambda alone and, since the EM step cannot move a fit (see em), coincide.
The gamma2 grid is accepted and ignored: every candidate is recorded with
gamma2 = 0. The search works on arrays: every (gamma1, lambda) cell is one
row of a single em.fit_step1_batch call, scored by a single
gic.column_from_fit call that reads its pieces from that batch alone. Each
lambda is ridge_values(log10 lambda), as in Grid's check and in the
command line's fit, and printed results name it by the grid value it came
from (Grid.log10_lambda). The baselines are the gamma1 = 0 rows, whose weights
r^0 are exactly ones, so one batch serves all three methods (shared_search)
and each picks its winner from its own slice of rows, built once whichever
method asks. The winner is the first minimum of (gic, lambda, gamma1, row)
over the criterion arrays. The slice's CandidateRecords are built only when
SelectionResult.candidates is read, and hold no reference to the search. A
failed fit keeps the batch's error text, and only a slice's winner becomes
a FittedModel. check_method checks every method name, and check_methods
every method list.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .data import SplitDataset
from .em import FittedModel, fit_step1_batch, fitted_model
from .em import fit_lambda_batch  # noqa: F401  (wrapped by name in perfbench/tracing.py)
from .errors import NumericalError, ParameterError
from .gic import GicColumn, GicReport, column_from_fit
from .gic import gic_lsslr, gic_score, gic_slr  # noqa: F401  (wrapped by name in perfbench/tracing.py)
from .objective import TuningParams, _NewtonBatchState
from .ratios import RatioWeights

METHODS = ("sslrcs", "lsslr", "slr")
WEIGHTED_METHOD = "sslrcs"  # the one method that reads the ratio weights


def ridge_values(log10_values: Sequence[float]) -> np.ndarray:
    """10**v for each log10 lambda v by numpy's array power, inf without a
    warning on overflow. Every search and fit takes its lambdas from here:
    Python's 10.0**v can differ in the last bit, which is another model."""
    with np.errstate(over="ignore"):
        return np.power(10.0, np.asarray(log10_values, dtype=np.float64))


@dataclass(frozen=True)
class Grid:
    """Candidate values; lambdas are specified on the log10 scale.

    gamma2_values is validated but has no effect on the search. A gamma
    given as -0 is stored as 0.0 (-0.0 + 0.0 is 0.0).
    """

    gamma1_values: tuple[float, ...]
    gamma2_values: tuple[float, ...]
    log10_lambda_values: tuple[float, ...]

    def __post_init__(self):
        for name in ("gamma1_values", "gamma2_values"):
            vals = tuple(float(v) + 0.0 for v in getattr(self, name))
            if not vals:
                raise ParameterError(f"{name} must be nonempty")
            if any(not 0.0 <= v <= 1.0 for v in vals):
                raise ParameterError(f"{name} entries must lie in [0, 1]")
            object.__setattr__(self, name, vals)
        logs = tuple(float(v) for v in self.log10_lambda_values)
        if not logs:
            raise ParameterError("log10_lambda_values must be nonempty")
        lams = ridge_values(logs)
        bad = [v for v, lam in zip(logs, lams) if not (np.isfinite(lam) and lam > 0.0)]
        if bad:
            raise ParameterError(
                f"log10_lambda_values entries v must give a positive finite 10**v, got {bad[0]}"
            )
        object.__setattr__(self, "log10_lambda_values", logs)

    def log10_lambda(self, lam: float) -> float:
        """The grid value v that lambda lam came from, ridge_values(v) == lam
        (the first, if two give one lambda). Results print v, which can
        differ from np.log10(lam) in the last digit: -0.3, not
        -0.30000000000000004. ParameterError if no grid value gives lam."""
        hits = np.flatnonzero(ridge_values(self.log10_lambda_values) == lam)
        if not hits.size:
            raise ParameterError(f"lam {lam} is not the ridge value of any grid entry")
        return self.log10_lambda_values[int(hits[0])]


def default_grid() -> Grid:
    """Eleven gamma steps of 0.1 and fourteen half-decade ridge values."""
    gammas = tuple(np.round(np.linspace(0.0, 1.0, 11), 10))
    logs = tuple(np.linspace(-4.0, 2.5, 14))
    return Grid(gamma1_values=gammas, gamma2_values=gammas, log10_lambda_values=logs)


@dataclass(frozen=True)
class CandidateRecord:
    """Outcome for one grid point; report is None when the fit or the
    criterion failed (error says why), and converged is True when the
    Newton status is "converged"."""

    params: TuningParams
    report: Optional[GicReport]
    converged: bool
    error: Optional[str] = None


class _SliceRecords:
    """The candidate records of rows start..stop of a search, built on the
    first read and then kept. It holds the batch state and the criterion
    column, never the search, so a finished search is freed as soon as
    nothing refers to it."""

    def __init__(self, state: _NewtonBatchState, col: GicColumn, rows: slice,
                 row_gammas: np.ndarray, row_lams: np.ndarray):
        self._state, self._col, self._rows = state, col, rows
        self._gammas, self._lams = row_gammas[rows], row_lams[rows]
        self._records: Optional[list[CandidateRecord]] = None

    def params(self, k: int) -> TuningParams:
        """Row k of the slice as parameters: its gamma1 and lambda, gamma2 = 0."""
        return TuningParams(float(self._gammas[k]), 0.0, float(self._lams[k]))

    def get(self) -> list[CandidateRecord]:
        if self._records is None:
            self._records = [self._record(k) for k in range(self._gammas.size)]
        return self._records

    def _record(self, k: int) -> CandidateRecord:
        b, params = self._rows.start + k, self.params(k)
        err, report = self._state.error(b), None
        if err is None:
            try:
                report = self._col.report(b, params)
            except NumericalError as exc:
                err = str(exc)
        return CandidateRecord(params, report, self._state.status[b] == "converged", err)


@dataclass(frozen=True)
class SelectionResult:
    """A method's criterion minimizer and its winning report. candidates
    lists one record per row of the method's slice, in grid order; the
    records are built when first read."""

    method: str
    best_model: FittedModel
    best_report: GicReport
    records: _SliceRecords = field(repr=False, compare=False)

    @property
    def candidates(self) -> list[CandidateRecord]:
        return list(self.records.get())


def check_method(method: str) -> str:
    """The method's lower-case name; ParameterError if it is not one of METHODS."""
    meth = str(method).lower()
    if meth not in METHODS:
        raise ParameterError(f"unknown method {method!r}; the method must be one of {METHODS}")
    return meth


def check_methods(methods: Sequence[str]) -> tuple[str, ...]:
    """Each name through check_method, in order; ParameterError if none or a repeat."""
    meths = tuple(check_method(m) for m in methods)
    if not meths:
        raise ParameterError("no methods requested")
    if len(set(meths)) != len(meths):
        raise ParameterError(f"repeated method in {','.join(map(str, methods))!r}")
    return meths


@dataclass(frozen=True)
class SharedSearch:
    """One fitted and scored batch of grid rows, serving several methods.

    rows maps each requested method to its slice of the batch: sslrcs's
    (gamma1, lambda) rows, and one gamma1 = 0 block of lambda rows that
    the baselines share. Each slice's records and winner are built once,
    on the first request, keyed by the slice's bounds.
    """

    data: SplitDataset
    row_gammas: np.ndarray
    row_lams: np.ndarray
    state: _NewtonBatchState
    col: GicColumn
    rows: dict[str, slice]

    _built: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def select(self, method: str) -> SelectionResult:
        """The criterion minimizer over this method's rows.

        Each record carries its row's gamma1 (0 on the baseline rows), so
        lsslr and slr share one set of records and one winner. The winner
        is the first minimum of (gic, lambda, gamma1, row) over the rows
        that were fitted and scored. NumericalError if every row failed.
        """
        meth = check_method(method)
        if meth not in self.rows:
            raise ParameterError(f"method {meth!r} was not part of this search")
        rows = self.rows[meth]
        key = (rows.start, rows.stop)
        if key not in self._built:
            self._built[key] = self._build(rows)
        records, best_model, best_report = self._built[key]
        return SelectionResult(meth, best_model, best_report, records)

    def _build(self, rows: slice) -> tuple[_SliceRecords, FittedModel, GicReport]:
        records = _SliceRecords(self.state, self.col, rows, self.row_gammas, self.row_lams)
        fitted = np.array([self.state.error(b) is None for b in range(rows.start, rows.stop)])
        trace = self.col.trace_term[rows]
        ok = np.flatnonzero(fitted & ~np.isnan(trace))
        if ok.size == 0:
            cands = records.get()
            exc = NumericalError(
                f"all {len(cands)} grid candidates failed; first error: {cands[0].error}"
            )
            exc.candidates = cands  # type: ignore[attr-defined]
            raise exc
        gic = self.col.weighted_nll[rows][ok] + 2.0 * trace[ok]
        lams, gammas = self.row_lams[rows][ok], self.row_gammas[rows][ok]
        best = ok[np.lexsort((gammas, lams, gic))[0]]  # stable: full ties go to the first row
        params = records.params(best)
        b = rows.start + best
        return records, fitted_model(self.data, self.state, b, params), self.col.report(b, params)


def shared_search(
    data: SplitDataset,
    weights: RatioWeights,
    grid: Optional[Grid] = None,
    methods: Sequence[str] = METHODS,
) -> SharedSearch:
    """Fit and score, in one batch, every grid row the methods need.

    sslrcs needs every (gamma1, lambda) cell; the baselines drop the gamma
    grids, so their one gamma1 = 0 weights the rows by ones, and they
    read the grid's own gamma1 = 0 rows when it has them. No method fits
    to the unlabeled block; it enters only through the ratio weights.
    """
    meths = check_methods(methods)
    g = grid or default_grid()
    lams = ridge_values(g.log10_lambda_values)
    gammas = list(g.gamma1_values) if WEIGHTED_METHOD in meths else []
    rows = {WEIGHTED_METHOD: slice(0, len(gammas) * lams.size)}
    if any(m != WEIGHTED_METHOD for m in meths):
        if 0.0 not in gammas:
            gammas.append(0.0)
        z = gammas.index(0.0) * lams.size
        rows["lsslr"] = rows["slr"] = slice(z, z + lams.size)
    row_gammas = np.repeat(np.asarray(gammas), lams.size)
    row_lams = np.tile(lams, len(gammas))
    state = fit_step1_batch(data, weights, row_gammas, row_lams)
    col = column_from_fit(state, row_lams, data.n_labeled)
    return SharedSearch(
        data, row_gammas, row_lams, state, col, {m: rows[m] for m in meths}
    )


def grid_search(
    data: SplitDataset,
    weights: RatioWeights,
    grid: Optional[Grid] = None,
    method: str = "sslrcs",
) -> SelectionResult:
    """Fit and score every candidate of one method; return the criterion
    minimizer (see shared_search and SharedSearch.select)."""
    return shared_search(data, weights, grid, (method,)).select(method)
