"""Information criterion for tuning-parameter selection.

The criterion is a weighted deviance on the labeled block plus twice the
trace of Q R^{-1}, where Q collects outer products of the per-point score
contributions and R is the penalized observed information, both averaged
over the labeled count. Only labeled points and the r-direction weights
enter; the unlabeled block influences the criterion through the ratio
weights alone.

column_from_fit scores the B rows of a Newton batch in one call: they
share the labeled block, and each has its own ridge value and weights. It
reads each row's log-likelihood, score, Hessian and score outer-product
sum from the batch and adds only the ridge term of Q, the scaling by n1
and the trace: one Cholesky check and one solve over the whole stack. The
grid search scores the batch that fitted its rows; the single-model
functions below score one model as a batch of one that takes no Newton
step (objective._batch_of_one), which equals its row of the batch that
fitted it bit for bit. Reports and the search's argmin read GicColumn.gic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import SplitDataset
from .data import build_design  # noqa: F401  (wrapped by name in perfbench/tracing.py)
from .em import FittedModel
from .errors import NumericalError
from .objective import TuningParams, _batch_of_one, _newton_batch, _NewtonBatchState
from .ratios import RatioWeights, unit_weights


@dataclass(frozen=True)
class GicMatrices:
    """Score-outer-product matrix Q and penalized information matrix R."""

    q: np.ndarray
    r: np.ndarray


@dataclass(frozen=True)
class GicReport:
    """Criterion value with its two terms: gic = weighted_nll + 2 trace_term."""

    gic: float
    weighted_nll: float
    trace_term: float
    params: TuningParams


@dataclass(frozen=True)
class GicColumn:
    """Criterion pieces for B candidates, row b for coefficient row b:
    Q and R (B, d, d), weighted NLL and trace term (B,). The trace term is
    NaN where R stayed indefinite after the jitter rescue."""

    q: np.ndarray
    r: np.ndarray
    weighted_nll: np.ndarray
    trace_term: np.ndarray

    def gic(self, rows=slice(None)) -> np.ndarray:
        """weighted_nll + 2 trace_term at rows (all by default), derived when
        read: NaN where R was degenerate."""
        return self.weighted_nll[rows] + 2.0 * self.trace_term[rows]

    def report(self, b: int, params: TuningParams) -> GicReport:
        """Row b as a report; NumericalError if its R was degenerate."""
        gic = float(self.gic(b))
        if np.isnan(gic):
            raise NumericalError("degenerate information matrix")
        return GicReport(gic, float(self.weighted_nll[b]), float(self.trace_term[b]), params)


def _trace_terms(q: np.ndarray, r: np.ndarray) -> np.ndarray:
    """tr(R_b^{-1} Q_b) per row, NaN where R_b is not positive definite
    even after a 1e-10 diagonal bump.

    One Cholesky factorisation checks the whole stack and one solve gives
    every R_b^{-1} Q_b. numpy factors and solves each matrix of a stack on
    its own, so a row's value does not depend on its stack. Only when some
    R_b is not positive definite does each row go alone, through the same
    two calls, bumped where it needs it.
    """
    try:
        return _checked_traces(q, r)
    except np.linalg.LinAlgError:
        pass
    out = np.full(r.shape[0], np.nan)
    bump = 1e-10 * np.eye(r.shape[-1])
    for b in range(r.shape[0]):
        for r_b in (r[b : b + 1], r[b : b + 1] + bump):
            try:
                out[b] = _checked_traces(q[b : b + 1], r_b)[0]
                break
            except np.linalg.LinAlgError:
                pass
    return out


def _checked_traces(q: np.ndarray, r: np.ndarray) -> np.ndarray:
    """tr(R_b^{-1} Q_b) for a stack; LinAlgError unless every R_b is
    positive definite."""
    np.linalg.cholesky(r)
    return np.trace(np.linalg.solve(r, q), axis1=1, axis2=2)


def column_from_fit(fit: _NewtonBatchState, lams: np.ndarray, n1: int) -> GicColumn:
    """Q, R, weighted NLL and trace term for every row of a Newton batch on
    the labeled block (objective._newton_batch), whose ridge values are
    lams (B,); n1 is the labeled count."""
    q = fit.score_gram.copy()
    q[:, 1:] -= lams[:, None, None] * (fit.w[:, 1:, None] * fit.score[:, None, :])
    q /= n1
    r = -fit.hessian / n1
    return GicColumn(q, r, -2.0 * fit.loglik, _trace_terms(q, r))


def _model_column(model: FittedModel, data: SplitDataset, weights: RatioWeights) -> GicColumn:
    """column_from_fit of one model, evaluated on the labeled block as a
    Newton batch that takes no step."""
    x, v, y, lams, n1, w = _batch_of_one(model.w, data, weights, None, model.params)
    return column_from_fit(_newton_batch(x, v, y, lams, n1, w, max_iters=0), lams, n1)


def gic_matrices(
    model: FittedModel,
    data: SplitDataset,
    weights: RatioWeights,
) -> GicMatrices:
    """Q and R for the weighted fit, averaged over the labeled count."""
    col = _model_column(model, data, weights)
    return GicMatrices(q=col.q[0], r=col.r[0])


def gic_score(
    model: FittedModel,
    data: SplitDataset,
    weights: RatioWeights,
) -> GicReport:
    """Criterion for a density-ratio-weighted semi-supervised fit."""
    return _model_column(model, data, weights).report(0, model.params)


def gic_lsslr(model: FittedModel, data: SplitDataset) -> GicReport:
    """Criterion for the unit-weight semi-supervised fit."""
    return gic_score(model, data, unit_weights(data))


# The labeled-only fit is scored by the same unit-weight formula.
gic_slr = gic_lsslr
