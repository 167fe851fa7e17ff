"""Information criterion for tuning-parameter selection.

The criterion is a weighted deviance on the labeled block plus twice the
trace of Q R^{-1}, where Q collects outer products of the per-point score
contributions and R is the penalized observed information, both averaged
over the labeled count. Only labeled points and the r-direction weights
enter; the unlabeled block influences the criterion through the ratio
weights alone.

One kernel, gic_column, scores a whole ridge column at once: B coefficient
rows that share the labeled block and weights, each with its own ridge
value. It reads the posterior, score, R and NLL from the Newton kernel in
objective and adds only Q and the trace; the single-model functions below
are batch-of-one wrappers around it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs

from .data import SplitDataset
from .data import build_design  # noqa: F401  (wrapped by name in perfbench/tracing.py)
from .em import FittedModel
from .errors import NumericalError
from .objective import TuningParams, power_weights
from .objective import _batch_hessian, _batch_loglik, _batch_posterior, _batch_score
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
    """tr(R_b^{-1} Q_b) per row by a Cholesky solve, NaN where R_b is not
    positive definite even after a 1e-10 diagonal bump.

    Calls the LAPACK routines behind scipy's cho_factor / cho_solve
    directly, so each row is solved exactly as a single-model call would.
    """
    out = np.full(r.shape[0], np.nan)
    bump = 1e-10 * np.eye(r.shape[-1])
    for b in range(r.shape[0]):
        factor, info = dpotrf(r[b], lower=0, clean=0)
        if info > 0:
            factor, info = dpotrf(r[b] + bump, lower=0, clean=0)
        if info == 0:
            out[b] = dpotrs(factor, q[b], lower=0)[0].trace()
    return out


def gic_column(
    w: np.ndarray,
    data: SplitDataset,
    eta: np.ndarray,
    lams: np.ndarray,
) -> GicColumn:
    """Q, R, weighted NLL and trace term for every row of w (B, d).

    All rows share the labeled block of data and the per-point weights eta;
    lams holds each row's ridge value. The posterior, the score, R (minus
    the Hessian over n1) and the NLL are the Newton kernel's own pieces, so
    each row equals its single-model score bit for bit.
    """
    x_lab, y = data.labeled_design, data.labeled_y.astype(np.float64)
    n1 = data.n_labeled
    lams = np.asarray(lams, dtype=np.float64)
    pi = _batch_posterior(w, x_lab)
    score = _batch_score(pi, x_lab, eta, y)
    u = eta * (y - pi)  # per-point score weight on the design row
    q = (x_lab.T[None] * (u**2)[:, None, :]) @ x_lab
    q[:, 1:] -= lams[:, None, None] * (w[:, 1:, None] * score[:, None, :])
    q /= n1
    r = -_batch_hessian(pi, x_lab, eta, lams, n1) / n1
    nll = -2.0 * _batch_loglik(w, x_lab, eta, y)
    return GicColumn(q=q, r=r, weighted_nll=nll, trace_term=_trace_terms(q, r))


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
