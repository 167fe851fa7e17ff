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
arrays, and its state carries what gic.column_from_fit reads to score
them; fitted_model alone builds a FittedModel from one of its rows.
fit_semisupervised (alias fit_supervised) is fitted_model over a one-row
batch; the grid search (sslogit.select) builds one for each winner, and
fit_lambda_batch one for every ridge value of one gamma1.
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
from .objective import (
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
    return fit_step1_batch(data, weights, params.gamma1, [params.lam]).checked_w(0)


def _linear_predictor(design: np.ndarray, w: np.ndarray) -> np.ndarray:
    """design @ w summed by numpy's own loop, so each row's value does not
    depend on the rows around it: a BLAS matrix-vector product can sum a
    row in another order inside another row count."""
    return np.einsum("ij,j->i", design, np.asarray(w, dtype=np.float64))


def e_step(w: np.ndarray, data: SplitDataset) -> np.ndarray:
    """Impute soft targets: current posterior at every unlabeled point."""
    return expit(_linear_predictor(data.unlabeled_design, w))


def m_step(
    w_init: np.ndarray,
    data: SplitDataset,
    weights: RatioWeights,
    t_hat: np.ndarray,
    params: TuningParams,
) -> np.ndarray:
    """Refit the full weighted objective at fixed targets, warm-started.

    A warm start far from the optimum can, rarely, leave the Newton row
    "stalled" short of it (see objective.newton_maximize), and this
    returns its last iterate without saying so.
    """
    return newton_maximize(w_init, data, weights, t_hat, params)[0]


def fit_semisupervised(
    data: SplitDataset,
    weights: RatioWeights,
    params: TuningParams,
) -> FittedModel:
    """The EM fixed point for one candidate, which is its step-1 fit (see
    the module docstring); NumericalError if the Newton solve failed."""
    state = fit_step1_batch(data, weights, params.gamma1, [params.lam])
    return fitted_model(data, state, 0, params)


# The labeled-only fit is the same fit: the unlabeled block never moves it.
fit_supervised = fit_semisupervised


def predict(model: FittedModel, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Class-1 probabilities and hard labels (threshold 1/2, ties to 0).
    Each row's values do not depend on the other rows of x."""
    probs = expit(_linear_predictor(build_design(x), model.w))
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
) -> _NewtonBatchState:
    """Step-1 fits from zero, one row per entry of lams, gamma1 shared or
    per row, on the labeled design, weights r^gamma1 and targets that
    weighted_rows gives.

    Rows of equal gamma1 share their weights and their start, so the
    weights are built and the start is evaluated once per distinct gamma1
    (the groups of objective._newton_batch): 11 times, not 154, on the
    default grid.
    """
    lams = np.asarray(lams, dtype=np.float64)
    gammas, groups = np.unique(np.broadcast_to(gamma1, lams.shape), return_inverse=True)
    x_lab, eta, y = weighted_rows(data, weights, gammas, 0.0)
    w0 = np.zeros((gammas.size, x_lab.shape[1]))
    return _newton_batch(x_lab, eta, y, lams, data.n_labeled, w0, groups=groups)


def fitted_model(
    data: SplitDataset, state: _NewtonBatchState, i: int, params: TuningParams
) -> FittedModel:
    """Row i of a fit_step1_batch state as a model, with t_hat = e_step(w)
    and converged when the row's Newton status is "converged";
    NumericalError if the row's fit failed."""
    w = state.checked_w(i).copy()
    return FittedModel(
        w=w,
        t_hat=e_step(w, data),
        params=params,
        em_iterations=0,
        final_objective=float(state.objective[i]),
        converged=state.status[i] == "converged",
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
    A failed candidate's model is None and its error is the batch's text.
    """
    lams = np.asarray(lams, dtype=np.float64)
    state = fit_step1_batch(data, weights, gamma1, lams)
    errors = [state.error(i) for i in range(lams.size)]
    models = [
        None if err else fitted_model(data, state, i, TuningParams(gamma1, gamma2, float(lam)))
        for i, (lam, err) in enumerate(zip(lams, errors))
    ]
    return _BatchFits(models, errors)
