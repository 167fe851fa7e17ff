"""Information criterion for tuning-parameter selection.

The criterion is a weighted deviance on the labeled block plus twice the
trace of Q R^{-1}, where Q collects outer products of the per-point score
contributions and R is the penalized observed information, both averaged
over the labeled count. Only labeled points and the r-direction weights
enter; the unlabeled block influences the criterion through the ratio
weights alone.

One kernel, gic_column, scores B coefficient rows in one call: they share the
labeled block, and each has its own ridge value and may have its own
weights. It reads each row's log-likelihood, score, Hessian and score
outer-product sum from the Newton batch that fitted the rows, or builds
them with the Newton kernel's own functions (objective._curvature), and
adds the ridge term of Q, the scaling by n1 and the trace: one Cholesky
check and one solve over the whole stack. The single-model functions below
are batch-of-one wrappers around it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import SplitDataset
from .data import build_design  # noqa: F401  (wrapped by name in perfbench/tracing.py)
from .em import FittedModel
from .errors import NumericalError
from .objective import TuningParams, power_weights, row_blocks
from .objective import _NewtonBatchState, _curvature, _loglik_posterior, _pair_products
from .ratios import RatioWeights


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

    def report(self, b: int, params: TuningParams) -> GicReport:
        """Row b as a report; NumericalError if its R was degenerate."""
        nll, trace = float(self.weighted_nll[b]), float(self.trace_term[b])
        if np.isnan(trace):
            raise NumericalError("degenerate information matrix")
        return GicReport(nll + 2.0 * trace, nll, trace, params)


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


def gic_column(
    w: np.ndarray,
    data: SplitDataset,
    eta: np.ndarray,
    lams: np.ndarray,
    fit: _NewtonBatchState | None = None,
) -> GicColumn:
    """Q, R, weighted NLL and trace term for every row of w (B, d).

    All rows share the labeled block of data; eta holds the per-point
    weights, shared (n1,) or one row each (B, n1), and lams each row's
    ridge value. fit is the Newton state that produced w on these rows,
    weights and ridge values, when the caller has it: its log-likelihood,
    score, Hessian and score outer-product sum are then read, not
    recomputed. Either way they are the Newton kernel's own pieces
    (objective._curvature), so each row equals its single-model score bit
    for bit.
    """
    lams, n1 = np.asarray(lams, dtype=np.float64), data.n_labeled
    if fit is None:
        loglik, score, hessian, score_gram = _fit_pieces(w, data, eta, lams)
    else:
        loglik, score, hessian, score_gram = fit.loglik, fit.score, fit.hessian, fit.score_gram
    q = score_gram.copy()
    q[:, 1:] -= lams[:, None, None] * (w[:, 1:, None] * score[:, None, :])
    q /= n1
    r = -hessian / n1
    return GicColumn(q, r, -2.0 * loglik, _trace_terms(q, r))


def _fit_pieces(w, data, eta, lams):
    """Log-likelihood, score, Hessian and score outer-product sum of the
    rows w, built as the Newton kernel builds them, in its row blocks."""
    x_lab, y = data.labeled_design, data.labeled_y.astype(np.float64)
    eta = np.broadcast_to(eta, (w.shape[0], x_lab.shape[0]))
    xx = _pair_products(x_lab)
    blocks = []
    for b in row_blocks(w.shape[0], x_lab):
        loglik, pi = _loglik_posterior(w[b], x_lab, eta[b], y)
        blocks.append((loglik, *_curvature(pi, x_lab, xx, eta[b], y, lams[b], data.n_labeled)))
    return tuple(np.concatenate(pieces) for pieces in zip(*blocks))


def gic_matrices(
    model: FittedModel,
    data: SplitDataset,
    weights: RatioWeights,
) -> GicMatrices:
    """Q and R for the weighted fit, averaged over the labeled count."""
    eta = power_weights(weights.r_labeled, model.params.gamma1)
    col = gic_column(model.w[None], data, eta, [model.params.lam])
    return GicMatrices(q=col.q[0], r=col.r[0])


def gic_score(
    model: FittedModel,
    data: SplitDataset,
    weights: RatioWeights,
) -> GicReport:
    """Criterion for a density-ratio-weighted semi-supervised fit."""
    eta = power_weights(weights.r_labeled, model.params.gamma1)
    col = gic_column(model.w[None], data, eta, [model.params.lam])
    return col.report(0, model.params)


def gic_lsslr(model: FittedModel, data: SplitDataset) -> GicReport:
    """Criterion for the unit-weight semi-supervised fit."""
    col = gic_column(model.w[None], data, np.ones(data.n_labeled), [model.params.lam])
    return col.report(0, model.params)


# The labeled-only fit is scored by the same unit-weight formula.
gic_slr = gic_lsslr
