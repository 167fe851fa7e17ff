"""Weighted penalized binomial log-likelihood and its Newton maximizer.

The design matrix carries an explicit intercept column. Labeled rows enter
with hard 0/1 responses and weights r^gamma1; unlabeled rows enter with soft
targets t in [0, 1] and weights s^gamma2. The ridge penalty excludes the
intercept and is scaled by the labeled count n1, not the total count, so
adding unlabeled rows never changes the penalty strength.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .data import SplitDataset
from .errors import NumericalError, ParameterError
from .ratios import RatioWeights


@dataclass(frozen=True)
class TuningParams:
    """One candidate (gamma1, gamma2, lambda) triple."""

    gamma1: float
    gamma2: float
    lam: float

    def __post_init__(self):
        for name in ("gamma1", "gamma2"):
            g = getattr(self, name)
            if not np.isfinite(g) or not 0.0 <= g <= 1.0:
                raise ParameterError(f"{name} must lie in [0, 1], got {g}")
        if not np.isfinite(self.lam) or self.lam <= 0:
            raise ParameterError(f"lam must be positive and finite, got {self.lam}")


@dataclass(frozen=True)
class NewtonConfig:
    max_iters: int = 100
    grad_tol: float = 1e-8
    obj_tol: float = 1e-10
    max_halvings: int = 30

    def __post_init__(self):
        if self.max_iters < 1 or self.max_halvings < 0:
            raise ParameterError("iteration limits must be positive")
        if self.grad_tol <= 0 or self.obj_tol <= 0:
            raise ParameterError("tolerances must be positive")


@dataclass(frozen=True)
class NewtonDiagnostics:
    iterations: int
    objective: float
    grad_norm: float
    status: str  # "converged" | "stalled" | "max-iterations"


def posterior(w: np.ndarray, x_star: np.ndarray):
    """Class-1 probability expit(w . x_star) for one design row or a stack."""
    z = np.asarray(x_star, dtype=np.float64) @ np.asarray(w, dtype=np.float64)
    out = expit(z)
    return float(out) if np.ndim(out) == 0 else out


def loglik_labeled(w: np.ndarray, design: np.ndarray, y: np.ndarray) -> float:
    """Unweighted, unpenalized binomial log-likelihood on labeled rows."""
    z = design @ np.asarray(w, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    return float(y @ z - np.logaddexp(0.0, z).sum())


def power_weights(values: np.ndarray, gamma: float) -> np.ndarray:
    """values**gamma as exp(gamma * log values) on positive clipped ratios.

    gamma = 0 yields exact ones (0 * log v == 0.0), so weighting switches
    off without any floating-point residue.
    """
    if not 0.0 <= gamma <= 1.0:
        raise ParameterError(f"gamma must lie in [0, 1], got {gamma}")
    v = np.asarray(values, dtype=np.float64)
    if np.any(v <= 0):
        raise ParameterError("power weights need positive inputs")
    return np.exp(gamma * np.log(v))


def _penalty_vector(w: np.ndarray) -> np.ndarray:
    """K w with K = diag(0, I): the intercept never feels the ridge."""
    kw = w.copy()
    kw[0] = 0.0
    return kw


def solve_newton_system(h: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Solve H delta = g with one jittered retry before giving up."""
    try:
        delta = np.linalg.solve(h, g)
        if np.all(np.isfinite(delta)):
            return delta
    except np.linalg.LinAlgError:
        pass
    jitter = 1e-8 * max(1.0, float(np.max(np.abs(np.diagonal(h, 0, -2, -1)))))
    try:
        delta = np.linalg.solve(h - jitter * np.eye(h.shape[-1]), g)
        if np.all(np.isfinite(delta)):
            return delta
    except np.linalg.LinAlgError:
        pass
    raise NumericalError("singular Hessian")


class Workspace:
    """Preassembled design and weights for repeated evaluations.

    Stacks labeled rows first, then unlabeled rows. The per-row weight
    vector v = (r^gamma1, s^gamma2) is fixed; only the soft targets t vary
    across calls.
    """

    def __init__(
        self,
        data: SplitDataset,
        weights: RatioWeights,
        params: TuningParams,
        include_unlabeled: bool = True,
    ):
        if weights.r_labeled.shape[0] != data.n_labeled:
            raise ParameterError("r_labeled length must match the labeled count")
        if weights.s_unlabeled.shape[0] != data.n_unlabeled:
            raise ParameterError("s_unlabeled length must match the unlabeled count")
        self.n1 = data.n_labeled
        self.lam = params.lam
        vr = power_weights(weights.r_labeled, params.gamma1)
        if include_unlabeled and data.n_unlabeled > 0:
            self.n_unl = data.n_unlabeled
            self.x = data.stacked_design
            self.v = np.concatenate([vr, power_weights(weights.s_unlabeled, params.gamma2)])
        else:
            self.n_unl = 0
            self.x = data.labeled_design
            self.v = vr
        self.x_unl = self.x[self.n1 :]
        self.dim = self.x.shape[1]
        self._yt = np.empty(self.x.shape[0])
        self._yt[: self.n1] = data.labeled_y

    def targets(self, t: np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=np.float64)
        if t.shape != (self.n_unl,):
            raise ParameterError(f"t has shape {t.shape}, expected ({self.n_unl},)")
        self._yt[self.n1 :] = t
        return self._yt

    def objective(self, w: np.ndarray, yt: np.ndarray) -> float:
        z = self.x @ w
        fit = self.v @ (yt * z - np.logaddexp(0.0, z))
        kw = _penalty_vector(w)
        return float(fit - 0.5 * self.n1 * self.lam * (kw @ kw))

    def gradient(self, w: np.ndarray, yt: np.ndarray) -> np.ndarray:
        z = self.x @ w
        resid = self.v * (yt - expit(z))
        return resid @ self.x - self.n1 * self.lam * _penalty_vector(w)

    def hessian(self, w: np.ndarray, yt: np.ndarray) -> np.ndarray:
        pi = expit(self.x @ w)
        d = self.v * pi * (1.0 - pi)
        h = -(self.x * d[:, None]).T @ self.x
        idx = np.arange(1, self.dim)
        h[idx, idx] -= self.n1 * self.lam
        return 0.5 * (h + h.T)

    def newton(
        self, w0: np.ndarray, yt: np.ndarray, config: NewtonConfig
    ) -> tuple[np.ndarray, NewtonDiagnostics]:
        """Maximize the objective at fixed targets by damped Newton steps.

        Full steps are halved until the objective strictly increases; the
        loop ends on a small gradient, a sub-tolerance improvement, or an
        exhausted line search.
        """
        w = np.array(w0, dtype=np.float64, copy=True)
        if w.shape != (self.dim,):
            raise ParameterError(f"w has shape {w.shape}, expected ({self.dim},)")
        obj = self.objective(w, yt)
        iters = 0
        hit_max = True
        for _ in range(config.max_iters):
            g = self.gradient(w, yt)
            if np.linalg.norm(g) <= config.grad_tol:
                hit_max = False
                break
            delta = solve_newton_system(self.hessian(w, yt), g)
            step = 1.0
            accepted = False
            for _ in range(config.max_halvings + 1):
                w_try = w - step * delta
                obj_try = self.objective(w_try, yt)
                if np.isfinite(obj_try) and obj_try > obj:
                    accepted = True
                    break
                step *= 0.5
            iters += 1
            if not accepted:
                hit_max = False
                break
            improvement = obj_try - obj
            w, obj = w_try, obj_try
            if improvement <= config.obj_tol:
                hit_max = False
                break
        grad_norm = float(np.linalg.norm(self.gradient(w, yt)))
        if grad_norm <= config.grad_tol:
            status = "converged"
        elif hit_max:
            status = "max-iterations"
        else:
            status = "stalled"
        return w, NewtonDiagnostics(iters, obj, grad_norm, status)


def _check_soft_targets(t: np.ndarray, n_unl: int) -> np.ndarray:
    t = np.asarray(t, dtype=np.float64)
    if t.shape != (n_unl,):
        raise ParameterError(f"t has shape {t.shape}, expected ({n_unl},)")
    if t.size and not (np.all(t >= 0.0) and np.all(t <= 1.0)):
        raise ParameterError("soft targets must lie in [0, 1]")
    return t


def weighted_objective(
    w: np.ndarray,
    data: SplitDataset,
    weights: RatioWeights,
    t: np.ndarray,
    params: TuningParams,
) -> float:
    """Full objective: weighted labeled fit + weighted soft fit - ridge."""
    ws = Workspace(data, weights, params)
    yt = ws.targets(_check_soft_targets(t, data.n_unlabeled))
    return ws.objective(np.asarray(w, dtype=np.float64), yt)


def gradient(
    w: np.ndarray,
    data: SplitDataset,
    weights: RatioWeights,
    t: np.ndarray,
    params: TuningParams,
) -> np.ndarray:
    ws = Workspace(data, weights, params)
    yt = ws.targets(_check_soft_targets(t, data.n_unlabeled))
    return ws.gradient(np.asarray(w, dtype=np.float64), yt)


def hessian(
    w: np.ndarray,
    data: SplitDataset,
    weights: RatioWeights,
    t: np.ndarray,
    params: TuningParams,
) -> np.ndarray:
    ws = Workspace(data, weights, params)
    yt = ws.targets(_check_soft_targets(t, data.n_unlabeled))
    return ws.hessian(np.asarray(w, dtype=np.float64), yt)


def newton_maximize(
    init: np.ndarray,
    data: SplitDataset,
    weights: RatioWeights,
    t: np.ndarray,
    params: TuningParams,
    config: NewtonConfig | None = None,
) -> tuple[np.ndarray, NewtonDiagnostics]:
    """Public entry point around Workspace.newton."""
    ws = Workspace(data, weights, params)
    yt = ws.targets(_check_soft_targets(t, data.n_unlabeled))
    return ws.newton(np.asarray(init, dtype=np.float64), yt, config or NewtonConfig())
