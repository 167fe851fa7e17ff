"""EM fitting: supervised warm start, posterior imputation, weighted refits.

The solo path (fit_semisupervised) is the reference implementation of the
alternation. fit_lambda_batch runs the identical update rules for a whole
ridge-grid column at once with masked retirement of converged candidates;
the grid search uses it because a full search touches thousands of fits,
and scores each returned column with one gic.gic_column call. Designs come
from the dataset's cached copies, so a column rebuilds none of them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.special import expit

from .data import SplitDataset, build_design
from .errors import NumericalError, ParameterError
from .objective import (
    NewtonConfig,
    NewtonDiagnostics,
    TuningParams,
    Workspace,
    power_weights,
    solve_newton_system,
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
    return _step1_fit(data, weights, params, config or NewtonConfig())[0]


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
    ws = Workspace(data, weights, params)
    yt = ws.targets(t_hat)
    w, _ = ws.newton(np.asarray(w_init, dtype=np.float64), yt, config or NewtonConfig())
    return w


def _step1_fit(
    data: SplitDataset,
    weights: RatioWeights,
    params: TuningParams,
    config: NewtonConfig,
) -> tuple[np.ndarray, NewtonDiagnostics]:
    ws = Workspace(data, weights, params, include_unlabeled=False)
    return ws.newton(np.zeros(ws.dim), ws.targets(np.empty(0)), config)


def fit_supervised(
    data: SplitDataset,
    weights: RatioWeights,
    params: TuningParams,
    config: Optional[EmConfig] = None,
) -> FittedModel:
    """Labeled-only fit; the unlabeled block is ignored entirely."""
    cfg = config or EmConfig()
    w, diag = _step1_fit(data, weights, params, cfg.newton)
    return FittedModel(
        w=w,
        t_hat=np.empty(0),
        params=params,
        em_iterations=0,
        final_objective=diag.objective,
        converged=True,
        newton_diagnostics=diag,
    )


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
    after exactly one EM iteration.
    """
    cfg = config or EmConfig()
    if data.n_unlabeled == 0:
        return fit_supervised(data, weights, params, cfg)
    w, diag = _step1_fit(data, weights, params, cfg.newton)
    ws = Workspace(data, weights, params)
    converged = False
    iterations = 0
    t_hat = np.empty(0)
    obj_prev = 0.0
    obj = 0.0
    for k in range(1, cfg.max_em_iters + 1):
        t_hat = expit(ws.x_unl @ w)
        yt = ws.targets(t_hat)
        if k == 1:
            obj_prev = ws.objective(w, yt)
        w, diag = ws.newton(w, yt, cfg.newton)
        obj = diag.objective
        iterations = k
        if abs(obj - obj_prev) < cfg.epsilon:
            converged = True
            break
        obj_prev = obj
    return FittedModel(
        w=w,
        t_hat=t_hat,
        params=params,
        em_iterations=iterations,
        final_objective=obj,
        converged=converged,
        newton_diagnostics=diag,
    )


def predict(model: FittedModel, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Class-1 probabilities and hard labels (threshold 1/2, ties to 0)."""
    probs = expit(build_design(x) @ model.w)
    return probs, (probs > 0.5).astype(np.uint8)


# ---------------------------------------------------------------------------
# Batched fitting across a ridge column of the tuning grid
# ---------------------------------------------------------------------------

_FAILED = "failed"


@dataclass
class _BatchFits:
    """Per-candidate outcome of one batched run (None where a fit failed)."""

    models: list[Optional[FittedModel]]
    errors: list[Optional[str]]


@dataclass
class _NewtonBatchState:
    w: np.ndarray  # (B, d)
    objective: np.ndarray  # (B,)
    iterations: np.ndarray  # (B,) int
    grad_norm: np.ndarray  # (B,)
    status: list[str]


def _batch_objective(w, x, v, yt, lams, n1):
    z = w @ x.T
    fit = ((yt * z - np.logaddexp(0.0, z)) * v).sum(axis=1)
    pen = (w[:, 1:] ** 2).sum(axis=1)
    return fit - 0.5 * n1 * lams * pen


def _batch_gradient(w, x, v, yt, lams, n1):
    pi = expit(w @ x.T)
    g = ((yt - pi) * v) @ x
    g[:, 1:] -= (n1 * lams)[:, None] * w[:, 1:]
    return g


def _batch_hessian(w, x, v, yt, lams, n1):
    pi = expit(w @ x.T)
    d = v * pi * (1.0 - pi)
    tmp = d[:, :, None] * x[None, :, :]
    h = -np.matmul(tmp.transpose(0, 2, 1), x)
    idx = np.arange(1, x.shape[1])
    h[:, idx, idx] -= (n1 * lams)[:, None]
    return 0.5 * (h + h.transpose(0, 2, 1))


def _batch_solve(h, g):
    """Batched Newton systems; fall back per candidate on failure.

    Returns (delta, failed_mask). Failed rows get a zero step and are
    retired by the caller.
    """
    try:
        delta = np.linalg.solve(h, g[..., None])[..., 0]
        if np.all(np.isfinite(delta)):
            return delta, np.zeros(g.shape[0], dtype=bool)
    except np.linalg.LinAlgError:
        pass
    delta = np.zeros_like(g)
    failed = np.zeros(g.shape[0], dtype=bool)
    for i in range(g.shape[0]):
        try:
            delta[i] = solve_newton_system(h[i], g[i])
        except NumericalError:
            failed[i] = True
    return delta, failed


def _newton_batch(x, v, yt, lams, n1, w0, obj0, config: NewtonConfig) -> _NewtonBatchState:
    """Run Workspace.newton's exact update rules on B candidates at once.

    yt has shape (B, n); rows differ only through the imputed targets.
    obj0 is the objective at w0, which every caller already holds.
    Candidates retire independently: small gradient, stalled improvement,
    exhausted line search, or a solver failure.
    """
    n_batch, dim = w0.shape
    w = w0.copy()
    obj = np.array(obj0, dtype=np.float64)
    iters = np.zeros(n_batch, dtype=np.int64)
    hit_max = np.ones(n_batch, dtype=bool)
    failed = np.zeros(n_batch, dtype=bool)
    active = np.arange(n_batch)
    for _ in range(config.max_iters):
        if active.size == 0:
            break
        g = _batch_gradient(w[active], x, v, yt[active], lams[active], n1)
        small = np.linalg.norm(g, axis=1) <= config.grad_tol
        hit_max[active[small]] = False
        active = active[~small]
        if active.size == 0:
            break
        g = g[~small]
        h = _batch_hessian(w[active], x, v, yt[active], lams[active], n1)
        delta, solve_failed = _batch_solve(h, g)
        if solve_failed.any():
            bad = active[solve_failed]
            failed[bad] = True
            hit_max[bad] = False
            active = active[~solve_failed]
            delta = delta[~solve_failed]
            if active.size == 0:
                break
        w_act = w[active]
        yt_act = yt[active]
        lam_act = lams[active]
        step = np.ones(active.size)
        w_try = w_act - delta
        obj_try = _batch_objective(w_try, x, v, yt_act, lam_act, n1)
        need = ~(np.isfinite(obj_try) & (obj_try > obj[active]))
        for _ in range(config.max_halvings):
            if not need.any():
                break
            step[need] *= 0.5
            w_try[need] = w_act[need] - step[need, None] * delta[need]
            obj_try[need] = _batch_objective(
                w_try[need], x, v, yt_act[need], lam_act[need], n1
            )
            need = ~(np.isfinite(obj_try) & (obj_try > obj[active]))
        accepted = ~need
        iters[active] += 1
        hit_max[active[~accepted]] = False
        improvement = obj_try - obj[active]
        upd = active[accepted]
        w[upd] = w_try[accepted]
        obj[upd] = obj_try[accepted]
        stalled = accepted & (improvement <= config.obj_tol)
        hit_max[active[stalled]] = False
        active = active[accepted & (improvement > config.obj_tol)]
    grad_norm = np.linalg.norm(
        _batch_gradient(w, x, v, yt, lams, n1), axis=1
    )
    status = []
    for i in range(n_batch):
        if failed[i]:
            status.append(_FAILED)
        elif grad_norm[i] <= config.grad_tol:
            status.append("converged")
        elif hit_max[i]:
            status.append("max-iterations")
        else:
            status.append("stalled")
    return _NewtonBatchState(w, obj, iters, grad_norm, status)


def fit_step1_batch(
    data: SplitDataset,
    weights: RatioWeights,
    gamma1: float,
    lams: np.ndarray,
    config: NewtonConfig,
) -> _NewtonBatchState:
    """Step-1 fits for one gamma1 and a whole ridge column (gamma2-free)."""
    x_lab = data.labeled_design
    lams = np.asarray(lams, dtype=np.float64)
    vr = power_weights(weights.r_labeled, gamma1)
    yt = np.broadcast_to(
        data.labeled_y.astype(np.float64), (lams.size, data.n_labeled)
    )
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

    Candidate trajectories match fit_semisupervised / fit_supervised up to
    floating-point reduction order; convergence flags and iteration counts
    follow the same rules.
    """
    cfg = config or EmConfig()
    lams = np.asarray(lams, dtype=np.float64)
    n_batch = lams.size
    if step1 is None:
        step1 = fit_step1_batch(data, weights, gamma1, lams, cfg.newton)

    def diag_for(state: _NewtonBatchState, i: int) -> NewtonDiagnostics:
        return NewtonDiagnostics(
            iterations=int(state.iterations[i]),
            objective=float(state.objective[i]),
            grad_norm=float(state.grad_norm[i]),
            status=state.status[i],
        )

    # Labeled-only candidates skip the EM loop and keep their step-1 fits.
    n_unl = 0 if labeled_only else data.n_unlabeled
    x = data.stacked_design
    n1 = data.n_labeled
    v = np.concatenate(
        [
            power_weights(weights.r_labeled, gamma1),
            power_weights(weights.s_unlabeled, gamma2),
        ]
    )
    yt = np.empty((n_batch, x.shape[0]))
    yt[:, :n1] = data.labeled_y

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
            last_diag[i] = diag_for(state, pos)
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
        diag = last_diag[i] or diag_for(step1, i)
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
