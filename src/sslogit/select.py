"""Exhaustive tuning-parameter selection by information-criterion minimum.

Three method flavors share the machinery: the weighted semi-supervised fit
searches over (gamma1, gamma2, lambda); the unit-weight semi-supervised and
labeled-only baselines search over lambda alone. Candidates are fitted a
ridge column at a time (see em.fit_lambda_batch), and each column is scored
by one gic.gic_column call with the matching weights: r^gamma1 for the
weighted method, ones for the baselines.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .data import SplitDataset
from .em import EmConfig, FittedModel, fit_lambda_batch, fit_step1_batch
from .errors import NumericalError, ParameterError
from .gic import GicReport, gic_column
from .gic import gic_lsslr, gic_score, gic_slr  # noqa: F401  (wrapped by name in perfbench/tracing.py)
from .objective import TuningParams, power_weights
from .ratios import RatioWeights, unit_weights

METHODS = ("sslrcs", "lsslr", "slr")


@dataclass(frozen=True)
class Grid:
    """Candidate values; lambdas are specified on the log10 scale."""

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


class _Best:
    """Running argmin with the deterministic tie-break (gic, lambda,
    gamma1, gamma2); converged candidates kept separately so they win
    whenever any exists."""

    def __init__(self):
        self._best = {True: None, False: None}

    def offer(self, model: FittedModel, report: GicReport):
        key = (report.gic, model.params.lam, model.params.gamma1, model.params.gamma2)
        slot = self._best[model.converged]
        if slot is None or key < slot[0]:
            self._best[model.converged] = (key, model, report)

    def winner(self) -> Optional[tuple[FittedModel, GicReport]]:
        slot = self._best[True] or self._best[False]
        return None if slot is None else (slot[1], slot[2])


def grid_search(
    data: SplitDataset,
    weights: RatioWeights,
    grid: Optional[Grid] = None,
    method: str = "sslrcs",
    config: Optional[EmConfig] = None,
) -> SelectionResult:
    """Fit and score every candidate; return the criterion minimizer.

    The baselines ignore parts of their inputs by construction: the
    unit-weight method drops the ratio weights and the gamma grids, the
    labeled-only method additionally drops the unlabeled block.
    """
    meth = str(method).lower()
    if meth not in METHODS:
        raise ParameterError(f"method must be one of {METHODS}, got {method!r}")
    g = grid or default_grid()
    cfg = config or EmConfig()
    lams = np.power(10.0, np.asarray(g.log10_lambda_values, dtype=np.float64))

    records: list[CandidateRecord] = []
    best = _Best()

    def handle(fits, gamma1: float, gamma2: float, eta: np.ndarray):
        fitted = [m for m in fits.models if m is not None]
        col = gic_column(
            np.array([m.w for m in fitted]).reshape(-1, data.n_features + 1),
            data,
            eta,
            [m.params.lam for m in fitted],
        )
        rows = iter(range(len(fitted)))
        for i, (model, err) in enumerate(zip(fits.models, fits.errors)):
            if model is None:
                params = TuningParams(gamma1=gamma1, gamma2=gamma2, lam=float(lams[i]))
                records.append(CandidateRecord(params, None, False, err))
                continue
            try:
                report = col.report(next(rows), model.params)
            except NumericalError as exc:
                report, err = None, str(exc)
            else:
                best.offer(model, report)
            records.append(CandidateRecord(model.params, report, model.converged, err))

    if meth == "sslrcs":
        for gamma1 in g.gamma1_values:
            step1 = fit_step1_batch(data, weights, gamma1, lams, cfg.newton)
            eta = power_weights(weights.r_labeled, gamma1)
            for gamma2 in g.gamma2_values:
                fits = fit_lambda_batch(
                    data, weights, gamma1, gamma2, lams, cfg, step1=step1
                )
                handle(fits, gamma1, gamma2, eta)
    else:
        ones = unit_weights(data)
        fits = fit_lambda_batch(
            data, ones, 0.0, 0.0, lams, cfg, labeled_only=meth == "slr"
        )
        handle(fits, 0.0, 0.0, ones.r_labeled)

    winner = best.winner()
    if winner is None:
        n_failed = sum(1 for r in records if r.error is not None)
        first = next((r.error for r in records if r.error is not None), "unknown")
        exc = NumericalError(
            f"all {n_failed} grid candidates failed; first error: {first}"
        )
        exc.candidates = records  # type: ignore[attr-defined]
        raise exc
    model, report = winner
    return SelectionResult(
        method=meth, best_model=model, best_report=report, candidates=records
    )
