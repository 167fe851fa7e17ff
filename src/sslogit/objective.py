"""Weighted penalized binomial log-likelihood and its Newton maximizer.

The design matrix carries an explicit intercept column. Labeled rows enter
with hard 0/1 responses and weights r^gamma1; unlabeled rows enter with soft
targets t in [0, 1] and weights s^gamma2. The ridge penalty excludes the
intercept and is scaled by the labeled count n1, not the total count, so
adding unlabeled rows never changes the penalty strength.

The objective, its gradient and Hessian, and the damped Newton loop are
written once, for a batch of B coefficient vectors that share the design
rows and differ in ridge value, row weights and targets. No row's value
depends on its batch (see _rowwise): a fit run alone equals its row of a
whole grid bit for bit, and gic reads its criterion pieces from here. A
batch runs in row blocks of bounded size (see row_blocks).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .data import SplitDataset
from .errors import NumericalError, ParameterError
from .ratios import RatioWeights

# Newton stopping rules; MAX_HALVINGS bounds each line search.
MAX_ITERS = 100
GRAD_TOL = 1e-8
OBJ_TOL = 1e-10
MAX_HALVINGS = 30


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
    w = np.asarray(w, dtype=np.float64)[None]
    return float(_batch_loglik(w, design, 1.0, y)[0])


def power_weights(values: np.ndarray, gamma: float | np.ndarray) -> np.ndarray:
    """values**gamma = exp(gamma * log values), a row per entry of a vector gamma.

    gamma = 0 yields exact ones (0 * log v == 0.0), so weighting switches
    off without any floating-point residue.
    """
    g = np.asarray(gamma, dtype=np.float64)
    if not np.all((g >= 0.0) & (g <= 1.0)):
        raise ParameterError(f"gamma must lie in [0, 1], got {gamma}")
    v = np.asarray(values, dtype=np.float64)
    if np.any(v <= 0):
        raise ParameterError("power weights need positive inputs")
    return np.exp(np.multiply.outer(g, np.log(v)))


def solve_newton_system(h: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Solve H delta = g with one jittered retry before giving up."""
    jitter = 1e-8 * max(1.0, float(np.max(np.abs(np.diagonal(h, 0, -2, -1)))))
    for bump in (0.0, jitter):
        try:
            delta = np.linalg.solve(h - bump * np.eye(h.shape[-1]), g)
            if np.all(np.isfinite(delta)):
                return delta
        except np.linalg.LinAlgError:
            pass
    raise NumericalError("singular Hessian")


# ---------------------------------------------------------------------------
# Batched kernel: B coefficient rows share one design, in row blocks
# ---------------------------------------------------------------------------

_FAILED = "failed"


@dataclass
class _NewtonBatchState:
    w: np.ndarray  # (B, d)
    objective: np.ndarray  # (B,)
    iterations: np.ndarray  # (B,) int
    grad_norm: np.ndarray  # (B,)
    status: list[str]

    def diagnostics(self, i: int) -> NewtonDiagnostics:
        return NewtonDiagnostics(
            iterations=int(self.iterations[i]),
            objective=float(self.objective[i]),
            grad_norm=float(self.grad_norm[i]),
            status=self.status[i],
        )


# Rows per kernel block: BLOCK_DOUBLES // (n * d), at least MIN_BLOCK_ROWS.
# As one block, a 154-row grid at n = 250 holds about 2 MB of temporaries
# per Newton step, past a core's L2 cache, and the allocator faults those
# pages in again at each step. Rows are independent, so no bit depends on it.
BLOCK_DOUBLES = 24_000
MIN_BLOCK_ROWS = 16


def row_blocks(n_rows: int, x: np.ndarray) -> list[slice]:
    """Slices covering range(n_rows) in blocks sized for the design x (n, d)."""
    step = max(MIN_BLOCK_ROWS, BLOCK_DOUBLES // x.size)
    return [slice(i, i + step) for i in range(0, n_rows, step)]


def _rowwise(a, m):
    """a (B, k) @ m (k, n) row by row: numpy's stacked matmul makes one
    BLAS call per row. One batched product sums in an order that depends
    on B, which moves a fit and its criterion in their last bits and can
    reorder near-tied candidates."""
    return (a[:, None, :] @ m)[:, 0]


def _batch_loglik(w, x, v, yt):
    """Weighted, unpenalized log-likelihood per row."""
    z = _rowwise(w, x.T)
    return ((yt * z - np.logaddexp(0.0, z)) * v).sum(axis=1)


def _batch_objective(w, x, v, yt, lams, n1):
    pen = (w[:, 1:] ** 2).sum(axis=1)
    return _batch_loglik(w, x, v, yt) - 0.5 * n1 * lams * pen


def _batch_posterior(w, x):
    return expit(_rowwise(w, x.T))


def _batch_score(pi, x, v, yt):
    """Unpenalized gradient per row, at the posterior pi (B, n)."""
    return _rowwise((yt - pi) * v, x)


def _batch_gradient(pi, w, x, v, yt, lams, n1):
    g = _batch_score(pi, x, v, yt)
    g[:, 1:] -= (n1 * lams)[:, None] * w[:, 1:]
    return g


def _batch_hessian(pi, x, v, lams, n1):
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


def _newton_batch(x, v, yt, lams, n1, w0) -> _NewtonBatchState:
    """Maximize the objective at fixed targets by damped Newton steps, for
    B candidates, one row block (see row_blocks) at a time.

    Rows differ in ridge value lams (B,) and in weights v and targets yt,
    each (B, n) or shared (n,). Full steps are halved until the objective
    strictly increases. Candidates retire independently: small gradient,
    sub-tolerance improvement, exhausted line search, or a solver failure.
    """
    n_batch = w0.shape[0]
    v = np.broadcast_to(v, (n_batch, x.shape[0]))
    yt = np.broadcast_to(yt, (n_batch, x.shape[0]))
    blocks = [
        _newton_block(x, v[b], yt[b], lams[b], n1, w0[b]) for b in row_blocks(n_batch, x)
    ]
    return _NewtonBatchState(
        w=np.concatenate([s.w for s in blocks]),
        objective=np.concatenate([s.objective for s in blocks]),
        iterations=np.concatenate([s.iterations for s in blocks]),
        grad_norm=np.concatenate([s.grad_norm for s in blocks]),
        status=[status for s in blocks for status in s.status],
    )


def _newton_block(x, v, yt, lams, n1, w0) -> _NewtonBatchState:
    """_newton_batch on one block of rows."""
    n_batch = w0.shape[0]
    w = w0.copy()
    obj = _batch_objective(w, x, v, yt, lams, n1)
    iters = np.zeros(n_batch, dtype=np.int64)
    failed = np.zeros(n_batch, dtype=bool)
    active = np.arange(n_batch)
    for _ in range(MAX_ITERS):
        if active.size == 0:
            break
        pi = _batch_posterior(w[active], x)
        g = _batch_gradient(pi, w[active], x, v[active], yt[active], lams[active], n1)
        small = np.linalg.norm(g, axis=1) <= GRAD_TOL
        active = active[~small]
        if active.size == 0:
            break
        g = g[~small]
        h = _batch_hessian(pi[~small], x, v[active], lams[active], n1)
        delta, solve_failed = _batch_solve(h, g)
        failed[active[solve_failed]] = True
        active = active[~solve_failed]
        delta = delta[~solve_failed]
        w_act = w[active]
        v_act = v[active]
        yt_act = yt[active]
        lam_act = lams[active]
        step = np.ones(active.size)
        w_try = w_act - delta
        obj_try = _batch_objective(w_try, x, v_act, yt_act, lam_act, n1)
        need = ~(np.isfinite(obj_try) & (obj_try > obj[active]))
        for _ in range(MAX_HALVINGS):
            if not need.any():
                break
            step[need] *= 0.5
            w_try[need] = w_act[need] - step[need, None] * delta[need]
            obj_try[need] = _batch_objective(
                w_try[need], x, v_act[need], yt_act[need], lam_act[need], n1
            )
            need = ~(np.isfinite(obj_try) & (obj_try > obj[active]))
        accepted = ~need
        iters[active] += 1
        improvement = obj_try - obj[active]
        upd = active[accepted]
        w[upd] = w_try[accepted]
        obj[upd] = obj_try[accepted]
        active = active[accepted & (improvement > OBJ_TOL)]
    hit_max = np.isin(np.arange(n_batch), active)
    g = _batch_gradient(_batch_posterior(w, x), w, x, v, yt, lams, n1)
    grad_norm = np.linalg.norm(g, axis=1)
    status = []
    for i in range(n_batch):
        if failed[i]:
            status.append(_FAILED)
        elif grad_norm[i] <= GRAD_TOL:
            status.append("converged")
        elif hit_max[i]:
            status.append("max-iterations")
        else:
            status.append("stalled")
    return _NewtonBatchState(w, obj, iters, grad_norm, status)


# ---------------------------------------------------------------------------
# One problem: the public entry points are batches of one
# ---------------------------------------------------------------------------


def weighted_rows(
    data: SplitDataset,
    weights: RatioWeights,
    gamma1: float | np.ndarray,
    gamma2: float,
    t: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Design, row weights (r^gamma1, s^gamma2) and targets (y, t).

    Labeled rows come first. Without t the unlabeled rows are left out,
    which is the labeled-only (step-1) problem, and gamma1 may be a vector.
    """
    if weights.r_labeled.shape[0] != data.n_labeled:
        raise ParameterError("r_labeled length must match the labeled count")
    if weights.s_unlabeled.shape[0] != data.n_unlabeled:
        raise ParameterError("s_unlabeled length must match the unlabeled count")
    vr = power_weights(weights.r_labeled, gamma1)
    y = data.labeled_y.astype(np.float64)
    if t is None:
        return data.labeled_design, vr, y
    t = np.asarray(t, dtype=np.float64)
    if t.shape != (data.n_unlabeled,):
        raise ParameterError(f"t has shape {t.shape}, expected ({data.n_unlabeled},)")
    if t.size and not (np.all(t >= 0.0) and np.all(t <= 1.0)):
        raise ParameterError("soft targets must lie in [0, 1]")
    v = np.concatenate([vr, power_weights(weights.s_unlabeled, gamma2)])
    return data.stacked_design, v, np.concatenate([y, t])


def _batch_of_one(w, data, weights, t, params):
    """(w, x, v, yt, lams, n1) for one coefficient vector, as the kernel takes them."""
    x, v, yt = weighted_rows(data, weights, params.gamma1, params.gamma2, t)
    w = np.asarray(w, dtype=np.float64)
    if w.shape != (x.shape[1],):
        raise ParameterError(f"w has shape {w.shape}, expected ({x.shape[1]},)")
    return w[None], x, v, yt[None], np.array([params.lam]), data.n_labeled


def weighted_objective(
    w: np.ndarray,
    data: SplitDataset,
    weights: RatioWeights,
    t: np.ndarray,
    params: TuningParams,
) -> float:
    """Full objective: weighted labeled fit + weighted soft fit - ridge."""
    return float(_batch_objective(*_batch_of_one(w, data, weights, t, params))[0])


def gradient(
    w: np.ndarray,
    data: SplitDataset,
    weights: RatioWeights,
    t: np.ndarray,
    params: TuningParams,
) -> np.ndarray:
    w, x, v, yt, lams, n1 = _batch_of_one(w, data, weights, t, params)
    return _batch_gradient(_batch_posterior(w, x), w, x, v, yt, lams, n1)[0]


def hessian(
    w: np.ndarray,
    data: SplitDataset,
    weights: RatioWeights,
    t: np.ndarray,
    params: TuningParams,
) -> np.ndarray:
    w, x, v, _, lams, n1 = _batch_of_one(w, data, weights, t, params)
    return _batch_hessian(_batch_posterior(w, x), x, v, lams, n1)[0]


def newton_maximize(
    init: np.ndarray,
    data: SplitDataset,
    weights: RatioWeights,
    t: np.ndarray,
    params: TuningParams,
) -> tuple[np.ndarray, NewtonDiagnostics]:
    """Maximize the objective at fixed targets t from init."""
    w, x, v, yt, lams, n1 = _batch_of_one(init, data, weights, t, params)
    state = _newton_batch(x, v, yt, lams, n1, w)
    if state.status[0] == _FAILED:
        raise NumericalError("singular Hessian")
    return state.w[0], state.diagnostics(0)
