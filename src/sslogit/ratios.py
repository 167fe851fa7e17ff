"""Density-ratio weights: exact Gaussian ratios and least-squares fitting.

Two routes produce the same RatioWeights container. When the sampling
densities are known (simulation studies) the ratio is evaluated in closed
form; otherwise it is estimated by a least-squares importance fitting
procedure with Gaussian kernel centers and closed-form leave-one-out
selection of the kernel width and ridge amount.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.spatial.distance import pdist

from .data import SplitDataset, Seed, derive_seed, make_rng
from .errors import DataError, ParameterError

# Estimated or exact ratios are clipped into [RATIO_FLOOR, RATIO_CAP] so a
# single point cannot dominate or erase the weighted likelihood.
RATIO_FLOOR = 1e-3
RATIO_CAP = 1e3

DEFAULT_SIGMA_FACTORS = (0.1, 0.25, 0.5, 1.0, 2.0, 5.0, 10.0)
DEFAULT_RHO_VALUES = (1e-3, 1e-2, 1e-1, 1.0)
DEFAULT_MAX_CENTERS = 100


@dataclass(frozen=True)
class DiagGaussian:
    """Multivariate normal with diagonal covariance."""

    mean: np.ndarray
    var: np.ndarray

    def __post_init__(self):
        mean = np.atleast_1d(np.asarray(self.mean, dtype=np.float64))
        var = np.atleast_1d(np.asarray(self.var, dtype=np.float64))
        if mean.shape != var.shape or mean.ndim != 1:
            raise ParameterError("mean and var must be 1-d arrays of equal length")
        if np.any(var <= 0):
            raise ParameterError("variances must be positive")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "var", var)

    @property
    def dim(self) -> int:
        return self.mean.shape[0]

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return rng.normal(self.mean, np.sqrt(self.var), size=(n, self.dim))


def log_density(dist: DiagGaussian, x: np.ndarray):
    """Log density of `dist` at one point (p,) or a batch (m, p)."""
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    pts = np.atleast_2d(x)
    if pts.shape[1] != dist.dim:
        raise ParameterError(f"points have dim {pts.shape[1]}, density has {dist.dim}")
    z2 = (pts - dist.mean) ** 2 / dist.var
    out = -0.5 * (dist.dim * np.log(2.0 * np.pi) + np.sum(np.log(dist.var)) + z2.sum(axis=1))
    return float(out[0]) if single else out


def exact_ratio(
    numerator: DiagGaussian,
    denominator: DiagGaussian,
    x: np.ndarray,
    floor: float = RATIO_FLOOR,
    cap: float = RATIO_CAP,
):
    """Closed-form density ratio numerator/denominator, clipped to [floor, cap]."""
    log_diff = np.asarray(log_density(numerator, x)) - np.asarray(log_density(denominator, x))
    with np.errstate(over="ignore"):
        ratio = np.exp(log_diff)
    out = np.clip(ratio, floor, cap)
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class RatioWeights:
    """Per-point importance weights for one labeled/unlabeled split.

    r_labeled holds q_unlabeled/q_labeled at the labeled points; s_unlabeled
    holds the reciprocal ratio at the unlabeled points. Both are clipped
    before they get here, so entries are finite and positive.
    """

    r_labeled: np.ndarray
    s_unlabeled: np.ndarray

    def __post_init__(self):
        r = np.asarray(self.r_labeled, dtype=np.float64)
        s = np.asarray(self.s_unlabeled, dtype=np.float64)
        if r.ndim != 1 or s.ndim != 1:
            raise ParameterError("weights must be 1-d arrays")
        if not (np.all(np.isfinite(r)) and np.all(np.isfinite(s))):
            raise ParameterError("weights must be finite")
        if np.any(r <= 0) or np.any(s <= 0):
            raise ParameterError("weights must be positive")
        object.__setattr__(self, "r_labeled", r)
        object.__setattr__(self, "s_unlabeled", s)


def unit_weights(data: SplitDataset) -> RatioWeights:
    """All-ones weights: reduces the weighted fit to the unweighted one."""
    return RatioWeights(
        r_labeled=np.ones(data.n_labeled),
        s_unlabeled=np.ones(data.n_unlabeled),
    )


def weights_from_exact(
    labeled_density: DiagGaussian,
    unlabeled_density: DiagGaussian,
    data: SplitDataset,
) -> RatioWeights:
    """Evaluate both clipped ratios from known sampling densities."""
    if data.n_unlabeled == 0:
        raise DataError("ratios require unlabeled data")
    return RatioWeights(
        r_labeled=exact_ratio(unlabeled_density, labeled_density, data.labeled_x),
        s_unlabeled=exact_ratio(labeled_density, unlabeled_density, data.unlabeled_x),
    )


# ---------------------------------------------------------------------------
# Least-squares density-ratio estimation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class UlsifConfig:
    """The clipping range [ratio_floor, ratio_cap] of estimated ratios."""

    ratio_floor: float = RATIO_FLOOR
    ratio_cap: float = RATIO_CAP

    def __post_init__(self):
        floor, cap = self.ratio_floor, self.ratio_cap
        if not (np.isfinite(floor) and floor > 0.0):
            raise ParameterError(f"ratio_floor must be positive and finite, got {floor}")
        if not cap >= floor:
            raise ParameterError(f"ratio_cap must be at least ratio_floor {floor}, got {cap}")


@dataclass(frozen=True)
class UlsifModel:
    """Fitted ratio model: mixture of Gaussian kernels at sampled centers."""

    centers: np.ndarray
    sigma: float
    rho: float
    alpha: np.ndarray
    loocv_score: float
    ratio_floor: float = RATIO_FLOOR
    ratio_cap: float = RATIO_CAP


def median_pairwise_distance(x: np.ndarray) -> float:
    """Median Euclidean inter-point distance, the kernel width scale."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    if x.shape[0] < 2:
        raise DataError("median distance needs at least two points")
    # np.median's arithmetic with one partition: the upper middle d[k],
    # and for an even count its mean with the largest entry left of k.
    d = pdist(x)
    k = d.size // 2
    d.partition(k)
    med = float(d[k] if d.size % 2 else np.mean([d[:k].max(), d[k]]))
    # All-duplicate samples give zero; fall back to a unit scale.
    return med if med > 0 else 1.0


def _sq_dist(x: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Squared distances ||x - c||^2, shape (n, b), floored at zero."""
    sq = (
        np.sum(x**2, axis=1)[:, None]
        + np.sum(centers**2, axis=1)[None, :]
        - 2.0 * x @ centers.T
    )
    np.maximum(sq, 0.0, out=sq)
    return sq


def _kernel(sq: np.ndarray, sigma: float) -> np.ndarray:
    """Gaussian kernel matrix exp(-sq / (2 sigma^2)) of the squared distances sq."""
    return np.exp(-sq / (2.0 * sigma**2))


def _loocv_score(
    k_nu: np.ndarray,
    k_de: np.ndarray,
    rho: float,
) -> float:
    """Closed-form leave-one-out squared-error score for one (sigma, rho).

    Uses the matrix-inversion shortcut over held-out pairs: the first
    min(n_nu, n_de) rows of each kernel matrix are treated as paired
    leave-one-out cases, which is exact for the least-squares objective.
    """
    n_nu, b = k_nu.shape
    n_de = k_de.shape[0]
    n = min(n_nu, n_de)
    if n < 2:
        return np.inf
    h_hat = k_de.T @ k_de / n_de
    h_vec = k_nu.mean(axis=0)

    bmat = h_hat + rho * (n_de - 1) / n_de * np.eye(b)
    knu = k_nu[:n].T  # (b, n)
    kde = k_de[:n].T
    try:
        binv_kde = np.linalg.solve(bmat, kde)
        binv_h = np.linalg.solve(bmat, h_vec)
        binv_knu = np.linalg.solve(bmat, knu)
    except np.linalg.LinAlgError:
        return np.inf
    denom = n_de - np.sum(kde * binv_kde, axis=0)  # (n,)
    if np.any(np.abs(denom) < 1e-12):
        return np.inf
    b0 = binv_h[:, None] + binv_kde * ((h_vec @ binv_kde) / denom)
    b1 = binv_knu + binv_kde * (np.sum(knu * binv_kde, axis=0) / denom)
    b2 = (n_de - 1) / (n_de * (n_nu - 1)) * (n_nu * b0 - b1)
    np.maximum(b2, 0.0, out=b2)
    r_de = np.sum(kde * b2, axis=0)
    r_nu = np.sum(knu * b2, axis=0)
    score = (r_de @ r_de / 2.0 - r_nu.sum()) / n
    return float(score) if np.isfinite(score) else np.inf


def ulsif_fit(
    numerator_samples: np.ndarray,
    denominator_samples: np.ndarray,
    candidate_sigmas: Sequence[float],
    candidate_rhos: Sequence[float],
    seed: Seed,
    ratio_floor: float = RATIO_FLOOR,
    ratio_cap: float = RATIO_CAP,
) -> UlsifModel:
    """Fit kernel coefficients alpha so that sum_l alpha_l k(x, c_l) ~ ratio.

    At most DEFAULT_MAX_CENTERS centers are subsampled from the numerator
    set. Every (sigma, rho) pair is scored by the closed-form leave-one-out
    criterion; the winner's coefficients solve (H + rho I) alpha = h and
    are clipped at zero.
    """
    x_nu = np.atleast_2d(np.asarray(numerator_samples, dtype=np.float64))
    x_de = np.atleast_2d(np.asarray(denominator_samples, dtype=np.float64))
    if x_nu.shape[0] == 0 or x_de.shape[0] == 0:
        raise DataError("both sample sets must be nonempty")
    if x_nu.shape[1] != x_de.shape[1]:
        raise DataError("sample sets must share the feature dimension")
    sigmas = [float(s) for s in candidate_sigmas]
    rhos = [float(r) for r in candidate_rhos]
    if not sigmas or not rhos:
        raise ParameterError("candidate_sigmas and candidate_rhos must be nonempty")
    if min(sigmas) <= 0 or min(rhos) <= 0:
        raise ParameterError("kernel widths and ridge values must be positive")

    rng = make_rng(seed)
    b = min(DEFAULT_MAX_CENTERS, x_nu.shape[0])
    centers = x_nu[rng.choice(x_nu.shape[0], size=b, replace=False)]

    sq_nu, sq_de = _sq_dist(x_nu, centers), _sq_dist(x_de, centers)
    best = (np.inf, 0, 0)  # (score, sigma index, rho index)
    for i, sigma in enumerate(sigmas):
        k_nu = _kernel(sq_nu, sigma)
        k_de = _kernel(sq_de, sigma)
        for j, rho in enumerate(rhos):
            score = _loocv_score(k_nu, k_de, rho)
            if score < best[0]:
                best = (score, i, j)
    score, i, j = best
    if not np.isfinite(score):
        # Degenerate sets (too few points for leave-one-out); take the
        # middle width and the strongest ridge deterministically.
        i, j = len(sigmas) // 2, len(rhos) - 1
        score = np.inf
    sigma, rho = sigmas[i], rhos[j]

    k_nu = _kernel(sq_nu, sigma)
    k_de = _kernel(sq_de, sigma)
    h_hat = k_de.T @ k_de / x_de.shape[0]
    h_vec = k_nu.mean(axis=0)
    alpha = np.linalg.solve(h_hat + rho * np.eye(b), h_vec)
    np.maximum(alpha, 0.0, out=alpha)
    return UlsifModel(
        centers=centers,
        sigma=sigma,
        rho=rho,
        alpha=alpha,
        loocv_score=float(score) if np.isfinite(score) else np.inf,
        ratio_floor=ratio_floor,
        ratio_cap=ratio_cap,
    )


def ulsif_predict(model: UlsifModel, x: np.ndarray) -> np.ndarray:
    """Evaluate the fitted ratio at new points, clipped like exact ratios."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    raw = _kernel(_sq_dist(x, model.centers), model.sigma) @ model.alpha
    return np.clip(raw, model.ratio_floor, model.ratio_cap)


def weights_from_ulsif(
    data: SplitDataset,
    config: UlsifConfig = UlsifConfig(),
    seed: Seed = 0,
) -> RatioWeights:
    """Estimate r = q_unlabeled/q_labeled on one split with one fit.

    The width grid is DEFAULT_SIGMA_FACTORS times the median pairwise
    distance of the pooled covariates, and the ridge grid is
    DEFAULT_RHO_VALUES. s_unlabeled is 1/r at the unlabeled points from
    the same model, clipped like r; it cannot move a fit (see sslogit.em).
    """
    if data.n_unlabeled == 0:
        raise DataError("ratios require unlabeled data")
    pooled = np.vstack([data.labeled_x, data.unlabeled_x])
    scale = median_pairwise_distance(pooled)
    sigmas = [f * scale for f in DEFAULT_SIGMA_FACTORS]

    r_model = ulsif_fit(
        numerator_samples=data.unlabeled_x,
        denominator_samples=data.labeled_x,
        candidate_sigmas=sigmas,
        candidate_rhos=DEFAULT_RHO_VALUES,
        seed=derive_seed(seed, 1),
        ratio_floor=config.ratio_floor,
        ratio_cap=config.ratio_cap,
    )
    r_unlabeled = ulsif_predict(r_model, data.unlabeled_x)
    return RatioWeights(
        r_labeled=ulsif_predict(r_model, data.labeled_x),
        s_unlabeled=np.clip(1.0 / r_unlabeled, config.ratio_floor, config.ratio_cap),
    )
