"""Exhaustive tuning-parameter selection by information-criterion minimum.

Three method flavors share the machinery: the weighted fit searches over
(gamma1, lambda); the unit-weight and labeled-only baselines search over
lambda alone and, since the EM step cannot move a fit (see em), coincide.
The gamma2 grid is accepted and ignored: every candidate is recorded with
gamma2 = 0. The search works on arrays: each ridge column is one
em.fit_step1_batch call, the whole column is scored by one gic.gic_column
call with the matching weights (r^gamma1 for the weighted method, ones for
the baselines), a failed fit's score is dropped as "singular Hessian", and
only the winner is built into a FittedModel.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .data import SplitDataset
from .em import FittedModel, fit_step1_batch, fitted_model
from .em import fit_lambda_batch  # noqa: F401  (wrapped by name in perfbench/tracing.py)
from .errors import NumericalError, ParameterError
from .gic import GicReport, gic_column
from .gic import gic_lsslr, gic_score, gic_slr  # noqa: F401  (wrapped by name in perfbench/tracing.py)
from .objective import _FAILED, TuningParams, power_weights
from .ratios import RatioWeights, unit_weights

METHODS = ("sslrcs", "lsslr", "slr")


@dataclass(frozen=True)
class Grid:
    """Candidate values; lambdas are specified on the log10 scale.

    gamma2_values is validated but has no effect on the search.
    """

    gamma1_values: tuple[float, ...]
    gamma2_values: tuple[float, ...]
    log10_lambda_values: tuple[float, ...]

    def __post_init__(self):
        for name in ("gamma1_values", "gamma2_values"):
            vals = tuple(float(v) for v in getattr(self, name))
            if not vals:
                raise ParameterError(f"{name} must be nonempty")
            if any(not 0.0 <= v <= 1.0 for v in vals):
                raise ParameterError(f"{name} entries must lie in [0, 1]")
            object.__setattr__(self, name, vals)
        logs = tuple(float(v) for v in self.log10_lambda_values)
        if not logs:
            raise ParameterError("log10_lambda_values must be nonempty")
        if any(not np.isfinite(v) for v in logs):
            raise ParameterError("log10_lambda_values entries must be finite")
        object.__setattr__(self, "log10_lambda_values", logs)


def default_grid() -> Grid:
    """Eleven gamma steps of 0.1 and fourteen half-decade ridge values."""
    gammas = tuple(np.round(np.linspace(0.0, 1.0, 11), 10))
    logs = tuple(np.linspace(-4.0, 2.5, 14))
    return Grid(gamma1_values=gammas, gamma2_values=gammas, log10_lambda_values=logs)


@dataclass(frozen=True)
class CandidateRecord:
    """Outcome for one grid point; report is None when the fit or the
    criterion failed (error says why)."""

    params: TuningParams
    report: Optional[GicReport]
    converged: bool
    error: Optional[str] = None


@dataclass(frozen=True)
class SelectionResult:
    method: str
    best_model: FittedModel
    best_report: GicReport
    candidates: list[CandidateRecord] = field(repr=False)


def grid_search(
    data: SplitDataset,
    weights: RatioWeights,
    grid: Optional[Grid] = None,
    method: str = "sslrcs",
) -> SelectionResult:
    """Fit and score every candidate; return the criterion minimizer.

    The baselines drop the ratio weights and the gamma grids. No method
    fits to the unlabeled block; it enters only through the ratio weights.
    Ties go to the first minimum of (gic, lambda, gamma1).
    """
    meth = str(method).lower()
    if meth not in METHODS:
        raise ParameterError(f"method must be one of {METHODS}, got {method!r}")
    g = grid or default_grid()
    lams = np.power(10.0, np.asarray(g.log10_lambda_values, dtype=np.float64))
    if meth == "sslrcs":
        columns = [(gamma1, weights) for gamma1 in g.gamma1_values]
    else:
        columns = [(0.0, unit_weights(data))]

    records: list[CandidateRecord] = []
    states = []
    for gamma1, wts in columns:
        state = fit_step1_batch(data, wts, gamma1, lams)
        states.append(state)
        col = gic_column(state.w, data, power_weights(wts.r_labeled, gamma1), lams)
        for b, (lam, status) in enumerate(zip(lams, state.status)):
            params = TuningParams(gamma1=gamma1, gamma2=0.0, lam=float(lam))
            fitted = status != _FAILED
            report, err = None, "singular Hessian"
            if fitted:
                try:
                    report, err = col.report(b, params), None
                except NumericalError as exc:
                    err = str(exc)
            records.append(CandidateRecord(params, report, fitted, err))

    scored = [
        (r.report.gic, r.params.lam, r.params.gamma1, k)
        for k, r in enumerate(records)
        if r.report is not None
    ]
    if not scored:
        n_failed = sum(1 for r in records if r.error is not None)
        first = next((r.error for r in records if r.error is not None), "unknown")
        exc = NumericalError(
            f"all {n_failed} grid candidates failed; first error: {first}"
        )
        exc.candidates = records  # type: ignore[attr-defined]
        raise exc
    best = min(scored)[-1]
    column, row = divmod(best, lams.size)
    model = fitted_model(data, states[column], row, records[best].params)
    return SelectionResult(
        method=meth,
        best_model=model,
        best_report=records[best].report,
        candidates=records,
    )
