"""Weighted penalized binomial log-likelihood and its Newton maximizer.

The design matrix carries an explicit intercept column. Labeled rows enter
with hard 0/1 responses and weights r^gamma1; unlabeled rows enter with soft
targets t in [0, 1] and weights s^gamma2. The ridge penalty excludes the
intercept and is scaled by the labeled count n1, not the total count, so
adding unlabeled rows never changes the penalty strength.

The objective, its gradient and Hessian, and the damped Newton loop are
written once, for a batch of B coefficient vectors that share the design
rows and targets and differ in ridge value and row weights. A batch is
one Newton loop over all its rows, which retire one by one. No row's value
depends on its batch (see _rowwise): a fit run alone equals its row of a
whole grid bit for bit. The batch's state alone decides that a failed row
has no fit and why (_NewtonBatchState.error); every caller reads that text
from it.

Rows may share a start: rows of one group share their weights and their
start coefficients, and the start is evaluated once per group. The grid
search's 154 (gamma1, lambda) rows start from zero in 11 groups, one per
gamma1 (em.fit_step1_batch).

Each evaluation takes the softplus and the posterior from one exp of the
linear predictor (_softplus_posterior). A Newton iterate keeps the
log-likelihood of the evaluation that accepted it, and from its posterior
builds, once, the unpenalized score and Hessian (_derivatives); each
iteration adds only the ridge, and the final state reuses them. Weighted
Gram matrices, the Hessian and the score outer products, are one row-wise
product against the design's pair products (_gram). The posterior is kept
only as the score weights v (yt - pi), whose squares give the final score
outer-product sum; gic reads these pieces from the state alone. A model
evaluated alone is a batch of one that takes no step (max_iters=0), so
gradient, hessian and the GIC of one model are built by this same code;
weighted_objective evaluates that row as the line search evaluates a trial
point (_trial).

A row stops on its Newton decrement (Boyd & Vandenberghe, Convex
Optimization, 2004, sec. 9.5.1). With g the gradient and delta the step
the iteration solves for, -(g . delta) = g^T A^-1 g for A the negative
Hessian, and half of it estimates how far the objective lies below its
maximum. It does not depend on how w is parametrized, but it scales with
the objective, and so does the objective's rounding: both grow with the
row's total weight sum(v). So a row retires as converged, without taking
that step, once its half decrement is at most DECREMENT_TOL per unit of
total weight. A problem whose weights and ridge value are scaled by c stops
at the same iterate, and every step a row does take strictly raises its
objective.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import SplitDataset
from .errors import NumericalError, ParameterError
from .ratios import RatioWeights

# A row converges once its half Newton decrement is at most DECREMENT_TOL
# times its total weight; MAX_ITERS bounds its steps and MAX_HALVINGS each
# line search. 2^-1074 is the smallest positive double, so the search tries
# every step size that can still move w.
MAX_ITERS = 100
DECREMENT_TOL = 1e-14
MAX_HALVINGS = 1074


@dataclass(frozen=True)
class TuningParams:
    """One candidate (gamma1, gamma2, lambda) triple."""

    gamma1: float
    gamma2: float
    lam: float

    def __post_init__(self):
        for name in ("gamma1", "gamma2"):
            g = getattr(self, name)
            if not math.isfinite(g) or not 0.0 <= g <= 1.0:
                raise ParameterError(f"{name} must lie in [0, 1], got {g}")
        if not math.isfinite(self.lam) or self.lam <= 0:
            raise ParameterError(f"lam must be positive and finite, got {self.lam}")


@dataclass(frozen=True)
class NewtonDiagnostics:
    iterations: int
    objective: float
    grad_norm: float
    # "converged": the half Newton decrement fell to DECREMENT_TOL per unit
    # of total weight.
    # "stalled": a line search found no improving step while it was larger.
    # "max-iterations": the step budget ran out first (max_iters=0 included).
    # "failed": the Newton system could not be solved; the row has no fit.
    status: str


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
# Batched kernel: B coefficient rows share one design
# ---------------------------------------------------------------------------

_FAILED = "failed"
# Row statuses (see NewtonDiagnostics.status): a batch holds each row's as
# its index here and names it once, when the batch ends.
_STATUSES = ("max-iterations", "converged", "stalled", _FAILED)
_MAX_ITERATIONS, _CONVERGED, _STALLED, _FAILED_INDEX = range(len(_STATUSES))


@dataclass
class _NewtonBatchState:
    w: np.ndarray  # (B, d)
    objective: np.ndarray  # (B,)
    iterations: np.ndarray  # (B,) int
    grad_norm: np.ndarray  # (B,)
    status: list[str]
    # At the final w, from the evaluation that accepted it, for
    # gic.column_from_fit: the unpenalized log-likelihood, the unpenalized
    # score, the Hessian of the objective and the score outer-product sum.
    loglik: np.ndarray  # (B,)
    score: np.ndarray  # (B, d)
    hessian: np.ndarray  # (B, d, d)
    score_gram: np.ndarray  # (B, d, d)

    def error(self, i: int) -> str | None:
        """Why row i has no fit, or None when it has one."""
        return "singular Hessian" if self.status[i] == _FAILED else None

    def checked_w(self, i: int) -> np.ndarray:
        """Row i's coefficients; NumericalError if its fit failed."""
        if self.error(i):
            raise NumericalError(self.error(i))
        return self.w[i]

    def diagnostics(self, i: int) -> NewtonDiagnostics:
        return NewtonDiagnostics(
            iterations=int(self.iterations[i]),
            objective=float(self.objective[i]),
            grad_norm=float(self.grad_norm[i]),
            status=self.status[i],
        )


def _rowwise(a, m):
    """a (B, k) @ m (k, n) row by row: numpy's stacked matmul makes one
    BLAS call per row. One batched product sums in an order that depends
    on B, which moves a fit and its criterion in their last bits and can
    reorder near-tied candidates."""
    return (a[:, None, :] @ m)[:, 0]


def _softplus_posterior(z):
    """log(1 + e^z) and expit(z), elementwise, from one e = exp(-|z|).

    softplus = max(z, 0) + log1p(e), and expit = 1/(1 + e) for z >= 0 and
    e/(1 + e) below: both stable at any z (Maechler, "Accurately computing
    log(1 - exp(-|a|))", Rmpfr vignette, 2012). One vectorised exp replaces
    np.logaddexp's scalar exp and log1p, and expit's second pass over z.
    Exact at +-0, +-inf and NaN, within a few ulp of np.logaddexp(0, z)
    and scipy's expit elsewhere, and the same bits at any array position.
    e is reused in place for each step that no longer needs it.
    """
    e = np.abs(z)
    np.negative(e, out=e)
    np.exp(e, out=e)
    softplus = np.maximum(z, 0.0)
    softplus += np.log1p(e)
    pi = np.where(z >= 0.0, 1.0, e)
    e += 1.0
    pi /= e
    return softplus, pi


def _loglik_posterior(w, x, v, yt):
    """Weighted, unpenalized log-likelihood per row and the posterior
    (B, n), from one pass over the linear predictor z, which the sum
    (yt z - softplus) v then overwrites."""
    z = _rowwise(w, x.T)
    softplus, pi = _softplus_posterior(z)
    z *= yt
    z -= softplus
    z *= v
    return z.sum(axis=1), pi


def _penalized(loglik, w, lams, n1):
    """The objective from the unpenalized log-likelihood of the rows w."""
    return loglik - 0.5 * n1 * lams * (w[:, 1:] ** 2).sum(axis=1)


def _score_weights(pi, v, yt):
    """(yt - pi) v per row at the posterior pi (B, n): the score is their
    row-wise product with the design, and the score outer-product sum the
    Gram matrix of their squares."""
    c = yt - pi
    c *= v
    return c


def _penalized_gradient(score, w, lams, n1):
    g = score.copy()
    g[:, 1:] -= (n1 * lams)[:, None] * w[:, 1:]
    return g


_UPPER: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}


def _upper(d):
    """np.triu_indices(d) and the (d, d) map from each entry to its
    upper-triangle position, built once per d: they cost more than a
    small _gram."""
    if d not in _UPPER:
        j, k = np.triu_indices(d)
        sym = np.empty((d, d), dtype=np.intp)
        sym[j, k] = sym[k, j] = np.arange(j.size)
        _UPPER[d] = j, k, sym
    return _UPPER[d]


def _pair_products(x):
    """x_ij * x_ik for every j <= k: (n, d(d+1)/2), the design side of
    _gram, built once per batch."""
    j, k, _ = _upper(x.shape[1])
    return x[:, j] * x[:, k]


def _gram(c, xx, d):
    """sum_i c_bi x_i x_i^T per row b of c (B, n), from xx = _pair_products(x).

    One row-wise product gives the upper triangle, which one gather
    spreads over both triangles, so no (B, n, d) temporary is built and
    each result is exactly symmetric.
    """
    return np.take(_rowwise(c, xx), _upper(d)[2], axis=1)


def _unpenalized_hessian(pi, xx, v, d):
    """Hessian of the unpenalized log-likelihood per row at the posterior
    pi (B, n), for a design of d columns with xx = _pair_products of it."""
    c = v * pi
    c *= 1.0 - pi
    np.negative(c, out=c)
    return _gram(c, xx, d)


def _add_ridge(h, lams, n1):
    """Subtract the ridge n1 * lam from every diagonal entry of the
    Hessians h (B, d, d) but the intercept's, in place; returns h."""
    d = h.shape[-1]
    h.reshape(-1, d * d)[:, d + 1 :: d + 1] -= (n1 * lams)[:, None]
    return h


def _derivatives(pi, x, xx, v, yt):
    """What a Newton iterate keeps of its posterior pi (B, n): the score
    weights (see _score_weights), the unpenalized score and the
    unpenalized Hessian."""
    c = _score_weights(pi, v, yt)
    return c, _rowwise(c, x), _unpenalized_hessian(pi, xx, v, x.shape[1])


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


def _trial(w, x, v, yt, lams, n1):
    """Unpenalized log-likelihood, posterior and objective at the trial
    rows w. A full step from a far start can overflow them; the line
    search rejects a non-finite objective, so numpy does not warn here."""
    with np.errstate(over="ignore", invalid="ignore"):
        loglik, pi = _loglik_posterior(w, x, v, yt)
        return loglik, pi, _penalized(loglik, w, lams, n1)


def _line_search(x, v, yt, lams, n1, w, obj, delta):
    """Damped Newton steps w - 2^-k delta for a batch of rows.

    Per row, k is the first of 0, 1, ..., MAX_HALVINGS at which the
    objective is finite and strictly above obj. Each halving is one
    evaluation of the rows that still need a step. Returns the stepped
    rows, their objectives, unpenalized log-likelihoods and posteriors,
    all from the evaluation that accepted them, and the mask of rows that
    found such a k; a row that found none holds k = MAX_HALVINGS.
    """
    w_try = w - delta
    loglik_try, pi_try, obj_try = _trial(w_try, x, v, yt, lams, n1)
    need = ~(np.isfinite(obj_try) & (obj_try > obj))
    for k in range(1, MAX_HALVINGS + 1):
        if not need.any():
            break
        idx = np.flatnonzero(need)
        w_try[idx] = w[idx] - np.ldexp(1.0, -k) * delta[idx]
        loglik_try[idx], pi_try[idx], obj_try[idx] = _trial(
            w_try[idx], x, v[idx], yt, lams[idx], n1
        )
        need[idx] = ~(np.isfinite(obj_try[idx]) & (obj_try[idx] > obj[idx]))
    return w_try, obj_try, loglik_try, pi_try, ~need


def _evaluate(w, x, xx, v, yt):
    """Unpenalized log-likelihood and _derivatives of the rows w (B, d)."""
    loglik, pi = _loglik_posterior(w, x, v, yt)
    return (loglik, *_derivatives(pi, x, xx, v, yt))


def _newton_batch(x, v, yt, lams, n1, w0, max_iters=None, groups=None) -> _NewtonBatchState:
    """Maximize the objective at fixed targets by damped Newton steps, for
    B candidates at once.

    Rows share the targets yt (n,) and differ in ridge value lams (B,) and
    in their group: row b starts at w0[groups[b]] with weights
    v[groups[b]], for w0 (G, d) and v (G, n) or shared (n,). groups=None
    makes each row its own group (G = B). Each group's start is evaluated
    once, and its rows gather it: its log-likelihood, its score weights and
    its unpenalized score and Hessian.

    Each row holds its unpenalized score and Hessian at its iterate, built
    once from the posterior of the evaluation that accepted it; an
    iteration adds only the ridge, and the final state reuses them. The
    posterior itself is reduced to the score weights, whose squares give
    the final score outer-product sum.

    A row retires as converged once its half Newton decrement is at most
    DECREMENT_TOL times its total weight, before taking the step (see the
    module docstring). Otherwise the full step is halved until the
    objective strictly increases (see _line_search), and a row whose line
    search finds no such step retires as stalled. A row the solver fails
    on retires as failed. At most max_iters steps are taken, MAX_ITERS
    (read at call time) when None; max_iters=0 evaluates the rows at their
    starts.
    """
    max_iters = MAX_ITERS if max_iters is None else max_iters
    groups = np.arange(w0.shape[0]) if groups is None else groups
    v = np.broadcast_to(v, (w0.shape[0], x.shape[0]))
    xx = _pair_products(x)
    start = (w0, *_evaluate(w0, x, xx, v, yt), v.sum(axis=1))
    w, loglik, c, score, hess, weight = (a[groups] for a in start)
    obj = _penalized(loglik, w, lams, n1)
    iters = np.zeros(groups.size, dtype=np.int64)
    status = np.full(groups.size, _MAX_ITERATIONS, dtype=np.int8)
    active = np.arange(groups.size)
    for _ in range(max_iters):
        if active.size == 0:
            break
        w_a, lams_a = w[active], lams[active]
        g = _penalized_gradient(score[active], w_a, lams_a, n1)
        delta, failed = _batch_solve(_add_ridge(hess[active], lams_a, n1), g)
        # On a nearly flat Hessian the step can be finite but g * delta
        # overflow; such a decrement is not below the tolerance, so the row
        # steps and the line search decides, and numpy does not warn here.
        with np.errstate(over="ignore", invalid="ignore"):
            decrement = -0.5 * (g * delta).sum(axis=1)
        converged = ~failed & (decrement <= DECREMENT_TOL * weight[active])
        step = ~(failed | converged)
        if not step.all():
            status[active[failed]] = _FAILED_INDEX
            status[active[converged]] = _CONVERGED
            active, w_a, lams_a, delta = active[step], w_a[step], lams_a[step], delta[step]
        v_a = v[groups[active]]
        w_a, obj_a, loglik_a, pi_a, accepted = _line_search(
            x, v_a, yt, lams_a, n1, w_a, obj[active], delta
        )
        iters[active] += 1
        if not accepted.all():
            status[active[~accepted]] = _STALLED
            active, v_a = active[accepted], v_a[accepted]
            w_a, obj_a, loglik_a, pi_a = (a[accepted] for a in (w_a, obj_a, loglik_a, pi_a))
        w[active], obj[active], loglik[active] = w_a, obj_a, loglik_a
        c[active], score[active], hess[active] = _derivatives(pi_a, x, xx, v_a, yt)
    grad_norm = np.linalg.norm(_penalized_gradient(score, w, lams, n1), axis=1)
    score_gram = _gram(np.square(c, out=c), xx, x.shape[1])
    return _NewtonBatchState(
        w, obj, iters, grad_norm, [_STATUSES[k] for k in status.tolist()], loglik, score,
        _add_ridge(hess, lams, n1), score_gram,
    )


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
    """(x, v, yt, lams, n1, w0) for one coefficient vector, in the order
    _newton_batch takes them: with max_iters=0 that batch evaluates it."""
    x, v, yt = weighted_rows(data, weights, params.gamma1, params.gamma2, t)
    w = np.asarray(w, dtype=np.float64)
    if w.shape != (x.shape[1],):
        raise ParameterError(f"w has shape {w.shape}, expected ({x.shape[1]},)")
    return x, v, yt, np.array([params.lam]), data.n_labeled, w[None]


def weighted_objective(
    w: np.ndarray,
    data: SplitDataset,
    weights: RatioWeights,
    t: np.ndarray,
    params: TuningParams,
) -> float:
    """Full objective: weighted labeled fit + weighted soft fit - ridge.

    Evaluated as the line search evaluates a trial point (_trial), without
    the derivatives that a batch that takes no step would build.
    """
    x, v, yt, lams, n1, w = _batch_of_one(w, data, weights, t, params)
    return float(_penalized(_loglik_posterior(w, x, v, yt)[0], w, lams, n1)[0])


def gradient(
    w: np.ndarray,
    data: SplitDataset,
    weights: RatioWeights,
    t: np.ndarray,
    params: TuningParams,
) -> np.ndarray:
    x, v, yt, lams, n1, w = _batch_of_one(w, data, weights, t, params)
    state = _newton_batch(x, v, yt, lams, n1, w, max_iters=0)
    return _penalized_gradient(state.score, w, lams, n1)[0]


def hessian(
    w: np.ndarray,
    data: SplitDataset,
    weights: RatioWeights,
    t: np.ndarray,
    params: TuningParams,
) -> np.ndarray:
    return _newton_batch(*_batch_of_one(w, data, weights, t, params), max_iters=0).hessian[0]


def newton_maximize(
    init: np.ndarray,
    data: SplitDataset,
    weights: RatioWeights,
    t: np.ndarray,
    params: TuningParams,
) -> tuple[np.ndarray, NewtonDiagnostics]:
    """Maximize the objective at fixed targets t from init.

    Every fit in this package starts from zero. A start far from the
    optimum, where the Hessian is nearly flat, makes the full step huge,
    and the line search halves it until the objective improves. On random
    problems started from coefficients drawn at scale 20, about one row in
    six needs more than 30 halvings (144 of 842), and every row finds its
    step within MAX_HALVINGS. A row still stalls once no representable
    step improves it; the diagnostics' status says when it happens.
    """
    state = _newton_batch(*_batch_of_one(init, data, weights, t, params))
    return state.checked_w(0), state.diagnostics(0)
