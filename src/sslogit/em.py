"""EM fitting: supervised warm start, posterior imputation, weighted refits.

fit_lambda_batch runs the alternation for a whole ridge-grid column at once,
with masked retirement of converged candidates; fit_step1_batch gives it
its warm starts. The grid search calls both, because a full search touches
thousands of fits, and scores each returned column with one gic.gic_column
call. fit_step1, fit_supervised and fit_semisupervised are columns of one
lambda, and m_step is one objective.newton_maximize call. Designs come from
the dataset's cached copies, so a column rebuilds none of them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.special import expit

from .data import SplitDataset, build_design
from .errors import NumericalError, ParameterError
from .objective import (
    _FAILED,
    NewtonConfig,
    NewtonDiagnostics,
    TuningParams,
    _batch_objective,
    _newton_batch,
    _NewtonBatchState,
    newton_maximize,
    weighted_rows,
)
from .ratios import RatioWeights


@dataclass(frozen=True)
class EmConfig:
    """Stopping rule |obj_k - obj_{k-1}| < epsilon plus iteration caps."""

    epsilon: float = 1e-5
    max_em_iters: int = 500
    newton: NewtonConfig = field(default_factory=NewtonConfig)

    def __post_init__(self):
        if not self.epsilon > 0:
            raise ParameterError("epsilon must be positive")
        if self.max_em_iters < 1:
            raise ParameterError("max_em_iters must be at least 1")


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
    config: Optional[NewtonConfig] = None,
) -> np.ndarray:
    """Maximize the weighted labeled-only penalized likelihood from zero."""
    state = fit_step1_batch(
        data, weights, params.gamma1, [params.lam], config or NewtonConfig()
    )
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
    config: Optional[NewtonConfig] = None,
) -> np.ndarray:
    """Refit the full weighted objective at fixed targets, warm-started."""
    return newton_maximize(w_init, data, weights, t_hat, params, config)[0]


def _fit_one(data, weights, params, config, labeled_only) -> FittedModel:
    fits = fit_lambda_batch(
        data, weights, params.gamma1, params.gamma2, [params.lam], config,
        labeled_only=labeled_only,
    )
    if fits.models[0] is None:
        raise NumericalError(fits.errors[0])
    return fits.models[0]


def fit_supervised(
    data: SplitDataset,
    weights: RatioWeights,
    params: TuningParams,
    config: Optional[EmConfig] = None,
) -> FittedModel:
    """Labeled-only fit; the unlabeled block is ignored entirely."""
    return _fit_one(data, weights, params, config, labeled_only=True)


def fit_semisupervised(
    data: SplitDataset,
    weights: RatioWeights,
    params: TuningParams,
    config: Optional[EmConfig] = None,
) -> FittedModel:
    """Alternate posterior imputation with weighted refits until the
    objective stabilizes.

    The first convergence check compares the first refit against the warm
    start evaluated under the same imputation, so an infinite epsilon stops
    after exactly one EM iteration. Without unlabeled rows this is the
    supervised fit.
    """
    return _fit_one(data, weights, params, config, labeled_only=False)


def predict(model: FittedModel, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Class-1 probabilities and hard labels (threshold 1/2, ties to 0)."""
    probs = expit(build_design(x) @ model.w)
    return probs, (probs > 0.5).astype(np.uint8)


# ---------------------------------------------------------------------------
# Batched fitting across a ridge column of the tuning grid
# ---------------------------------------------------------------------------


@dataclass
class _BatchFits:
    """Per-candidate outcome of one batched run (None where a fit failed)."""

    models: list[Optional[FittedModel]]
    errors: list[Optional[str]]


def fit_step1_batch(
    data: SplitDataset,
    weights: RatioWeights,
    gamma1: float,
    lams: np.ndarray,
    config: NewtonConfig,
) -> _NewtonBatchState:
    """Step-1 fits for one gamma1 and a whole ridge column (gamma2-free)."""
    x_lab, vr, y = weighted_rows(data, weights, gamma1, 0.0)
    lams = np.asarray(lams, dtype=np.float64)
    yt = np.broadcast_to(y, (lams.size, data.n_labeled))
    w0 = np.zeros((lams.size, x_lab.shape[1]))
    obj0 = _batch_objective(w0, x_lab, vr, yt, lams, data.n_labeled)
    return _newton_batch(x_lab, vr, yt, lams, data.n_labeled, w0, obj0, config)


def fit_lambda_batch(
    data: SplitDataset,
    weights: RatioWeights,
    gamma1: float,
    gamma2: float,
    lams: np.ndarray,
    config: Optional[EmConfig] = None,
    labeled_only: bool = False,
    step1: Optional[_NewtonBatchState] = None,
) -> _BatchFits:
    """Fit every ridge value of one (gamma1, gamma2) cell in lockstep.

    labeled_only keeps every candidate at its step-1 fit (the supervised
    baseline); otherwise each alternates imputation and refit until its
    objective moves by less than epsilon. A failed candidate's model is
    None and its error is "singular Hessian".
    """
    cfg = config or EmConfig()
    lams = np.asarray(lams, dtype=np.float64)
    n_batch = lams.size
    if step1 is None:
        step1 = fit_step1_batch(data, weights, gamma1, lams, cfg.newton)

    # Labeled-only candidates skip the EM loop and keep their step-1 fits.
    n_unl = 0 if labeled_only else data.n_unlabeled
    n1 = data.n_labeled
    # Each E-step overwrites the unlabeled targets of its active rows.
    x, v, y = weighted_rows(data, weights, gamma1, gamma2, np.zeros(data.n_unlabeled))
    yt = np.tile(y, (n_batch, 1))

    w = step1.w.copy()
    failed = np.array([s == _FAILED for s in step1.status])
    t_hat = np.zeros((n_batch, n_unl))
    obj_cur = step1.objective.copy()
    obj_prev = np.zeros(n_batch)
    em_iters = np.zeros(n_batch, dtype=np.int64)
    converged = np.full(n_batch, n_unl == 0)
    last_diag: list[Optional[NewtonDiagnostics]] = [None] * n_batch

    active = np.flatnonzero(~failed) if n_unl else np.empty(0, dtype=np.intp)
    for k in range(1, cfg.max_em_iters + 1):
        if active.size == 0:
            break
        t_act = expit(w[active] @ data.unlabeled_design.T)
        t_hat[active] = t_act
        yt[active, n1:] = t_act
        # The objective at the warm start under the new targets; at k = 1
        # it is also the reference for the first convergence check.
        obj0 = _batch_objective(w[active], x, v, yt[active], lams[active], n1)
        if k == 1:
            obj_prev[active] = obj0
        state = _newton_batch(
            x, v, yt[active], lams[active], n1, w[active], obj0, cfg.newton
        )
        newly_failed = np.array([s == _FAILED for s in state.status])
        w[active] = state.w
        obj_cur[active] = state.objective
        em_iters[active] = k
        for pos, i in enumerate(active):
            last_diag[i] = state.diagnostics(pos)
        if newly_failed.any():
            failed[active[newly_failed]] = True
        done = np.abs(state.objective - obj_prev[active]) < cfg.epsilon
        converged[active[done & ~newly_failed]] = True
        obj_prev[active] = state.objective
        active = active[~done & ~newly_failed]

    models: list[Optional[FittedModel]] = []
    errors: list[Optional[str]] = []
    for i in range(n_batch):
        if failed[i]:
            models.append(None)
            errors.append("singular Hessian")
            continue
        diag = last_diag[i] or step1.diagnostics(i)
        models.append(
            FittedModel(
                w=w[i].copy(),
                t_hat=t_hat[i].copy(),
                params=TuningParams(gamma1=gamma1, gamma2=gamma2, lam=float(lams[i])),
                em_iterations=int(em_iters[i]),
                final_objective=float(obj_cur[i]),
                converged=bool(converged[i]),
                newton_diagnostics=diag,
            )
        )
        errors.append(None)
    return _BatchFits(models, errors)
