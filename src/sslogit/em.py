"""Model fitting: the weighted ridge logistic fit and its EM fixed point.

The paper fits its semi-supervised model by EM: impute soft targets
t = expit(X_u w) for the unlabeled rows, refit the full weighted objective,
repeat. In this objective that alternation cannot move the fit. At
t = expit(X_u w) the unlabeled score sum_u s^gamma2 (t_u - expit(x_u w)) x_u
is exactly zero, so the gradient of the full objective equals that of the
labeled-only objective, and every EM fixed point is a stationary point of
the labeled-only problem. That problem is strictly concave and, when both
classes are labeled, has a maximizer; its stationary point is unique and
is the step-1 fit, because both steps use the same n1-scaled penalty. This
holds for every gamma2, every s and every start: a discriminative model
cannot learn from p(x) alone (Zhang & Oles, ICML 2000; Seeger, "Learning
with labeled and unlabeled data", 2000).

So a fitted model is the step-1 fit, with t_hat = e_step(w) and no EM
iterations. fit_step1_batch fits a batch of (gamma1, lambda) rows as
arrays, and fitted_model turns one of its rows into a FittedModel: the
grid search (sslogit.select) fits and scores its whole grid as one batch
and builds a model for its winner alone. fit_lambda_batch builds a model
for every ridge value of one gamma1; fit_semisupervised (alias
fit_supervised) is a batch of one.
gamma2 is carried in the model's parameters and changes nothing. e_step
and m_step stay as the two halves of the alternation, for checking the
fixed point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.special import expit

from .data import SplitDataset, build_design
from .errors import NumericalError
from .objective import (
    _FAILED,
    NewtonDiagnostics,
    TuningParams,
    _newton_batch,
    _NewtonBatchState,
    newton_maximize,
    weighted_rows,
)
from .ratios import RatioWeights


@dataclass(frozen=True)
class FittedModel:
    """One fitted coefficient vector with its imputation and diagnostics."""

    w: np.ndarray
    t_hat: np.ndarray
    params: TuningParams
    em_iterations: int
    final_objective: float
    converged: bool
    newton_diagnostics: NewtonDiagnostics


def fit_step1(
    data: SplitDataset,
    weights: RatioWeights,
    params: TuningParams,
) -> np.ndarray:
    """Maximize the weighted labeled-only penalized likelihood from zero."""
    state = fit_step1_batch(data, weights, params.gamma1, [params.lam])
    if state.status[0] == _FAILED:
        raise NumericalError("singular Hessian")
    return state.w[0]


def e_step(w: np.ndarray, data: SplitDataset) -> np.ndarray:
    """Impute soft targets: current posterior at every unlabeled point."""
    return expit(data.unlabeled_design @ np.asarray(w, dtype=np.float64))


def m_step(
    w_init: np.ndarray,
    data: SplitDataset,
    weights: RatioWeights,
    t_hat: np.ndarray,
    params: TuningParams,
) -> np.ndarray:
    """Refit the full weighted objective at fixed targets, warm-started."""
    return newton_maximize(w_init, data, weights, t_hat, params)[0]


def fit_semisupervised(
    data: SplitDataset,
    weights: RatioWeights,
    params: TuningParams,
) -> FittedModel:
    """The EM fixed point for one candidate, which is its step-1 fit (see
    the module docstring); NumericalError if the Newton solve failed."""
    fits = fit_lambda_batch(data, weights, params.gamma1, params.gamma2, [params.lam])
    if fits.models[0] is None:
        raise NumericalError(fits.errors[0])
    return fits.models[0]


# The labeled-only fit is the same fit: the unlabeled block never moves it.
fit_supervised = fit_semisupervised


def predict(model: FittedModel, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Class-1 probabilities and hard labels (threshold 1/2, ties to 0)."""
    probs = expit(build_design(x) @ model.w)
    return probs, (probs > 0.5).astype(np.uint8)


# ---------------------------------------------------------------------------
# Batched fitting across the tuning grid
# ---------------------------------------------------------------------------


@dataclass
class _BatchFits:
    """Per-candidate outcome of one batched run (None where a fit failed)."""

    models: list[Optional[FittedModel]]
    errors: list[Optional[str]]


def fit_step1_batch(
    data: SplitDataset,
    weights: RatioWeights,
    gamma1: float | np.ndarray,
    lams: np.ndarray,
    eta: Optional[np.ndarray] = None,
) -> _NewtonBatchState:
    """Step-1 fits, one row per entry of lams, gamma1 shared or per row.

    eta is the row weights r^gamma1 of weighted_rows(data, weights,
    gamma1, 0.0), when the caller has built them already.
    """
    x_lab, y = data.labeled_design, data.labeled_y.astype(np.float64)
    if eta is None:
        eta = weighted_rows(data, weights, gamma1, 0.0)[1]
    lams = np.asarray(lams, dtype=np.float64)
    w0 = np.zeros((lams.size, x_lab.shape[1]))
    return _newton_batch(x_lab, eta, y, lams, data.n_labeled, w0)


def fitted_model(
    data: SplitDataset, state: _NewtonBatchState, i: int, params: TuningParams
) -> FittedModel:
    """Row i of a fit_step1_batch state as a model, with t_hat = e_step(w)."""
    w = state.w[i].copy()
    return FittedModel(
        w=w,
        t_hat=e_step(w, data),
        params=params,
        em_iterations=0,
        final_objective=float(state.objective[i]),
        converged=True,
        newton_diagnostics=state.diagnostics(i),
    )


def fit_lambda_batch(
    data: SplitDataset,
    weights: RatioWeights,
    gamma1: float,
    gamma2: float,
    lams: np.ndarray,
) -> _BatchFits:
    """Fitted models for every ridge value of one gamma1, from one
    fit_step1_batch call.

    gamma2 is recorded in each model's parameters and has no other effect.
    A failed candidate's model is None and its error is "singular Hessian".
    """
    lams = np.asarray(lams, dtype=np.float64)
    state = fit_step1_batch(data, weights, gamma1, lams)
    models: list[Optional[FittedModel]] = []
    errors: list[Optional[str]] = []
    for i, lam in enumerate(lams):
        if state.status[i] == _FAILED:
            models.append(None)
            errors.append("singular Hessian")
            continue
        params = TuningParams(gamma1=gamma1, gamma2=gamma2, lam=float(lam))
        models.append(fitted_model(data, state, i, params))
        errors.append(None)
    return _BatchFits(models, errors)
