"""Information criterion for tuning-parameter selection.

The criterion is a weighted deviance on the labeled block plus twice the
trace of Q R^{-1}, where Q collects outer products of the per-point score
contributions and R is the penalized observed information, both averaged
over the labeled count. Only labeled points and the r-direction weights
enter; the unlabeled block influences the criterion through the ratio
weights alone.

One kernel, gic_column, scores a whole ridge column at once: B coefficient
rows that share the labeled block and weights, each with its own ridge
value. The grid search calls it once per gamma1 column; the single-model
functions below are batch-of-one wrappers around it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs
from scipy.special import expit

from .data import SplitDataset
from .data import build_design  # noqa: F401  (wrapped by name in perfbench/tracing.py)
from .em import FittedModel
from .errors import NumericalError
from .objective import TuningParams, power_weights
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
    lams holds each row's ridge value. The matrix-vector products run row
    by row: one batched product sums in another order, which moves the
    criterion in its last bits and can reorder near-tied candidates.
    """
    x_lab, y = data.labeled_design, data.labeled_y.astype(np.float64)
    n1 = data.n_labeled
    lams = np.asarray(lams, dtype=np.float64)
    z = np.array([x_lab @ wb for wb in w]).reshape(len(w), n1)
    pi = expit(z)
    u = eta * (y - pi)  # per-point score weight on the design row
    score = np.array([ub @ x_lab for ub in u]).reshape(w.shape)
    kw = w.copy()
    kw[:, 0] = 0.0
    xt = x_lab.T[None]
    q = (xt * (u**2)[:, None, :]) @ x_lab
    q -= lams[:, None, None] * (kw[:, :, None] * score[:, None, :])
    r = (xt * (eta * pi * (1.0 - pi))[:, None, :]) @ x_lab
    r = 0.5 * (r + r.transpose(0, 2, 1))
    idx = np.arange(1, x_lab.shape[1])
    r[:, idx, idx] += n1 * lams[:, None]
    q /= n1
    r /= n1
    loglik = y * z - np.logaddexp(0.0, z)
    nll = -2.0 * np.array([eta @ row for row in loglik])
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
