"""Density-ratio weights: exact Gaussian ratios and least-squares fitting.

Two routes produce the same RatioWeights container. When the sampling
densities are known (simulation studies) the ratio is evaluated in closed
form; otherwise it is estimated by a least-squares importance fitting
procedure with Gaussian kernel centers and closed-form leave-one-out
selection of the kernel width and ridge amount. Its systems are solved by
Cholesky factors, and its long sums run in numpy's own loops, so the
weights carry the same bytes at any BLAS thread count. The fit reads
its numerator (unlabeled) rows, and ulsif_predict its points, in blocks
of _BLOCK_ROWS, so their memory is O((block + n_labeled) x centers),
with no term in the number of unlabeled rows, and the blocks give the
bits of the whole-matrix algebra. A fitted model is evaluated one way,
by ulsif_predict's blocked pass, at the labeled and the unlabeled rows
alike, which repeats one exp at the chosen width; a point's ratio does
not depend on the points around it. ulsif_fit checks its
clip range by UlsifConfig's rule; exact_ratio keeps its own range.
scipy.linalg and scipy.spatial are imported on the first estimate, not
with the module: a process that never estimates a ratio loads neither.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .data import SplitDataset, Seed, derive_seed, make_rng
from .errors import DataError, NumericalError, ParameterError

# Estimated or exact ratios are clipped into [RATIO_FLOOR, RATIO_CAP] so a
# single point cannot dominate or erase the weighted likelihood.
RATIO_FLOOR = 1e-3
RATIO_CAP = 1e3

DEFAULT_SIGMA_FACTORS = (0.1, 0.25, 0.5, 1.0, 2.0, 5.0, 10.0)
DEFAULT_RHO_VALUES = (1e-3, 1e-2, 1e-1, 1.0)
DEFAULT_MAX_CENTERS = 100
# The kernel width scale is the median distance over at most this many
# seeded pooled rows (Garreau, Jitkrittum & Kanagawa 2017).
MEDIAN_POINTS = 1000
# uLSIF reads its numerator rows, and ulsif_predict its points, in blocks
# of this many rows, so its memory does not grow with their count.
_BLOCK_ROWS = 512


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
    from scipy.spatial.distance import pdist

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


def _kernel(sq: np.ndarray, sigma: float, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Gaussian kernel matrix exp(-sq / (2 sigma^2)) of the squared distances
    sq, written into out when given (out may be sq). Dividing by the negated
    width gives the bits of -sq / (2 sigma^2): IEEE division is symmetric
    in sign."""
    return np.exp(np.divide(sq, -2.0 * sigma**2, out=out), out=out)


def _gram(k_de: np.ndarray) -> np.ndarray:
    """H = k_de^T k_de / n_de, summed by numpy's own loop: unlike a threaded
    BLAS product, its summation order does not depend on the thread count."""
    return np.einsum("ij,ik->jk", k_de, k_de) / k_de.shape[0]


def _blocks(n: int) -> list[slice]:
    """Slices of _BLOCK_ROWS consecutive rows that cover range(n); the last
    is shorter, or one row longer rather than one row alone. A product of
    one row goes to another BLAS routine, whose sums differ from those of
    the same row in a larger product."""
    edges = [*range(0, max(n - 1, 1), _BLOCK_ROWS), n]
    return [slice(a, b) for a, b in zip(edges, edges[1:])]


def _kernel_column_sums(x: np.ndarray, centers: np.ndarray, sigmas: list[float]) -> np.ndarray:
    """Column sums of each width's kernel matrix of x against centers, shape
    (len(sigmas), b), reading x _BLOCK_ROWS rows at a time. Each block's
    distances are built once, and each width's kernel of the block goes
    into rows 1.. of one buffer whose row 0 holds that width's running
    sum, so np.add.reduce continues the row-by-row sum that the whole
    kernel's sum(axis=0) makes: numpy sums a non-contiguous axis one row
    at a time."""
    sums = np.zeros((len(sigmas), centers.shape[0]))
    buf = np.empty((min(_BLOCK_ROWS + 1, x.shape[0]) + 1, centers.shape[0]))
    for rows in _blocks(x.shape[0]):
        sq = _sq_dist(x[rows], centers)
        k = buf[: sq.shape[0] + 1]
        for i, sigma in enumerate(sigmas):
            k[0] = sums[i]
            _kernel(sq, sigma, k[1:])
            sums[i] = np.add.reduce(k, axis=0)
    return sums


def _ridge_solve(h_hat: np.ndarray, ridge: float, rhs: np.ndarray):
    """(h_hat + ridge I)^{-1} rhs by one Cholesky factor, or None when the
    system is not positive definite."""
    from scipy.linalg.lapack import dpotrf, dpotrs

    factor, info = dpotrf(h_hat + ridge * np.eye(h_hat.shape[0]), lower=0, clean=0)
    return dpotrs(factor, rhs, lower=0)[0] if info == 0 else None


def _loocv_scores(
    k_nu: np.ndarray,
    k_de: np.ndarray,
    h_hat: np.ndarray,
    h_vec: np.ndarray,
    rhos: Sequence[float],
    n_nu: int,
) -> list[float]:
    """Closed-form leave-one-out squared-error score of each rho at one sigma.

    Uses the matrix-inversion shortcut over held-out pairs: the first
    min(n_nu, n_de) rows of each kernel matrix are treated as paired
    leave-one-out cases, which is exact for the least-squares objective.
    k_nu needs only those first rows of the numerator kernel, whose full
    row count is n_nu; h_hat is _gram(k_de) and h_vec the mean row of the
    full numerator kernel. Each rho costs one Cholesky factor and one
    solve for the stacked right-hand side [kde | h | knu].
    """
    n_de = k_de.shape[0]
    n = min(n_nu, n_de)
    if n < 2:
        return [np.inf] * len(rhos)
    knu = k_nu[:n].T  # (b, n)
    kde = k_de[:n].T
    rhs = np.vstack([k_de[:n], h_vec, k_nu[:n]]).T  # Fortran order, as LAPACK reads it
    scores = []
    for rho in rhos:
        sol = _ridge_solve(h_hat, rho * (n_de - 1) / n_de, rhs)
        if sol is None:
            scores.append(np.inf)
            continue
        binv_kde, binv_h, binv_knu = sol[:, :n], sol[:, n], sol[:, n + 1:]
        denom = n_de - np.sum(kde * binv_kde, axis=0)  # (n,)
        if np.any(np.abs(denom) < 1e-12):
            scores.append(np.inf)
            continue
        b0 = binv_h[:, None] + binv_kde * ((h_vec @ binv_kde) / denom)
        b1 = binv_knu + binv_kde * (np.sum(knu * binv_kde, axis=0) / denom)
        b2 = (n_de - 1) / (n_de * (n_nu - 1)) * (n_nu * b0 - b1)
        np.maximum(b2, 0.0, out=b2)
        r_de = np.sum(kde * b2, axis=0)
        r_nu = np.sum(knu * b2, axis=0)
        # np.sum, not a BLAS dot: the dot threads its sum above 10,000 entries.
        score = (np.sum(r_de * r_de) / 2.0 - r_nu.sum()) / n
        scores.append(float(score) if np.isfinite(score) else np.inf)
    return scores


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
    criterion, with one Cholesky factor per pair and H and h built once
    per sigma. The winner's coefficients solve (H + rho I) alpha = h, with
    the winner's H kept from the scan, and are clipped at zero. When the
    sets are too small for leave-one-out, the middle width and the
    strongest ridge are taken.

    The numerator rows are read _BLOCK_ROWS at a time: one pass builds
    each block's distances once and adds every width's kernel columns to
    that width's h (_kernel_column_sums), and the leave-one-out pairs take
    the kernels of the first min(n_nu, n_de) numerator rows alone. Each
    width's denominator kernel is built whole. So memory is
    O(block b + n_de b), with no term in n_nu.
    DataError for empty or non-finite sample sets or unequal feature
    counts; NumericalError if that final system is not positive definite.
    """
    x_nu = np.atleast_2d(np.asarray(numerator_samples, dtype=np.float64))
    x_de = np.atleast_2d(np.asarray(denominator_samples, dtype=np.float64))
    if x_nu.shape[0] == 0 or x_de.shape[0] == 0:
        raise DataError("both sample sets must be nonempty")
    if x_nu.shape[1] != x_de.shape[1]:
        raise DataError("sample sets must share the feature dimension")
    if not (np.isfinite(x_nu).all() and np.isfinite(x_de).all()):
        raise DataError("sample sets must be finite")
    sigmas = [float(s) for s in candidate_sigmas]
    rhos = [float(r) for r in candidate_rhos]
    if not sigmas or not rhos:
        raise ParameterError("candidate_sigmas and candidate_rhos must be nonempty")
    if min(sigmas) <= 0 or min(rhos) <= 0:
        raise ParameterError("kernel widths and ridge values must be positive")
    UlsifConfig(ratio_floor, ratio_cap)

    rng = make_rng(seed)
    n_nu = x_nu.shape[0]
    b = min(DEFAULT_MAX_CENTERS, n_nu)
    centers = x_nu[rng.choice(n_nu, size=b, replace=False)]

    h_sums = _kernel_column_sums(x_nu, centers, sigmas)
    sq_pairs = _sq_dist(x_nu[: x_de.shape[0]], centers)
    sq_de = _sq_dist(x_de, centers)
    score, i, j, h_kept = np.inf, len(sigmas) // 2, len(rhos) - 1, None
    for s, sigma in enumerate(sigmas):
        k_de = _kernel(sq_de, sigma)
        h_hat = _gram(k_de)
        scores = _loocv_scores(
            _kernel(sq_pairs, sigma), k_de, h_hat, h_sums[s] / n_nu, rhos, n_nu
        )
        r = int(np.argmin(scores))  # the first minimum, as a strict < scan keeps
        if scores[r] < score:
            score, i, j, h_kept = scores[r], s, r, h_hat
    if h_kept is None:  # every pair scored inf: the middle width's H
        h_kept = _gram(_kernel(sq_de, sigmas[i], sq_de))
    sigma, rho = sigmas[i], rhos[j]

    alpha = _ridge_solve(h_kept, rho, h_sums[i] / n_nu)
    if alpha is None:
        raise NumericalError(
            f"uLSIF system at sigma={sigma:g}, rho={rho:g} is not positive definite"
        )
    np.maximum(alpha, 0.0, out=alpha)
    return UlsifModel(
        centers=centers,
        sigma=sigma,
        rho=rho,
        alpha=alpha,
        loocv_score=float(score),
        ratio_floor=ratio_floor,
        ratio_cap=ratio_cap,
    )


def ulsif_predict(model: UlsifModel, x: np.ndarray) -> np.ndarray:
    """Evaluate the fitted ratio at new points, clipped like exact ratios.

    A point's ratio does not depend on the points around it: the points
    are read _BLOCK_ROWS at a time, each kernel row is summed against
    alpha by numpy's own loop, not a BLAS product, and a lone point goes
    through a block of two copies, since a one-row distance product takes
    another BLAS routine. DataError for non-finite points or a feature
    count other than the centers'."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    if x.shape[1] != model.centers.shape[1]:
        raise DataError(
            f"points have {x.shape[1]} features, the model's centers have "
            f"{model.centers.shape[1]}"
        )
    if not np.isfinite(x).all():
        raise DataError("points must be finite")
    n = x.shape[0]
    pts = np.vstack([x, x]) if n == 1 else x
    r = np.empty(pts.shape[0])
    for rows in _blocks(pts.shape[0]):
        sq = _sq_dist(pts[rows], model.centers)
        r[rows] = np.einsum("ij,j->i", _kernel(sq, model.sigma, sq), model.alpha)
    return np.clip(r[:n], model.ratio_floor, model.ratio_cap, out=r[:n])


def weights_from_ulsif(
    data: SplitDataset,
    config: UlsifConfig = UlsifConfig(),
    seed: Seed = 0,
) -> RatioWeights:
    """Estimate r = q_unlabeled/q_labeled on one split with one fit.

    The width grid is DEFAULT_SIGMA_FACTORS times the median pairwise
    distance of the pooled covariates (labeled rows, then unlabeled). Above
    MEDIAN_POINTS pooled rows the median is taken over MEDIAN_POINTS of
    them, drawn without replacement from derive_seed(seed, 2); the centers
    are drawn from derive_seed(seed, 1). The median's rows are gathered
    from the two blocks, so no pooled copy of the covariates is built. The
    ridge grid is DEFAULT_RHO_VALUES. r at the labeled rows is
    ulsif_predict's, and s_unlabeled is 1/r at the unlabeled points from
    the same model, clipped like r; it cannot move a fit (see sslogit.em).
    """
    if data.n_unlabeled == 0:
        raise DataError("ratios require unlabeled data")
    n1, n = data.n_labeled, data.n_labeled + data.n_unlabeled
    if n > MEDIAN_POINTS:
        idx = make_rng(derive_seed(seed, 2)).choice(n, size=MEDIAN_POINTS, replace=False)
    else:
        idx = np.arange(n)
    # The pooled rows idx, in that order, without the pooled copy.
    pooled = np.empty((idx.size, data.labeled_x.shape[1]))
    labeled = idx < n1
    pooled[labeled] = data.labeled_x[idx[labeled]]
    pooled[~labeled] = data.unlabeled_x[idx[~labeled] - n1]
    scale = median_pairwise_distance(pooled)
    sigmas = [f * scale for f in DEFAULT_SIGMA_FACTORS]

    r_model = ulsif_fit(
        data.unlabeled_x, data.labeled_x, sigmas, DEFAULT_RHO_VALUES,
        derive_seed(seed, 1), config.ratio_floor, config.ratio_cap,
    )
    s_unlabeled = ulsif_predict(r_model, data.unlabeled_x)  # r, then 1/r in place
    np.divide(1.0, s_unlabeled, out=s_unlabeled)
    return RatioWeights(
        r_labeled=ulsif_predict(r_model, data.labeled_x),
        s_unlabeled=np.clip(s_unlabeled, config.ratio_floor, config.ratio_cap, out=s_unlabeled),
    )
