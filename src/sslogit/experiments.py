"""Study generators, benchmark ingestion, and the Monte Carlo driver.

Covers the two synthetic studies (a nonlinear 2-d problem with known
sampling densities; three Gaussian class-conditional cases), the benchmark
CSV protocol with repeated labeled/unlabeled splits, and a clearly labeled
synthetic stand-in benchmark for environments without the original files.
The benchmark experiments check their labeled fraction when they are built.
"""

from __future__ import annotations

import math
import os
import warnings
from dataclasses import dataclass, replace
from typing import Optional, Protocol, Sequence

import numpy as np
from scipy.special import expit

from .data import Seed, SplitDataset, check_seed, derive_seed, make_rng, read_csv
from .data import split_labeled_unlabeled
from .em import predict
from .errors import DataError, ParameterError, SslogitError
from .ratios import (
    DiagGaussian,
    RatioWeights,
    unit_weights,
    weights_from_exact,
    weights_from_ulsif,
)
from .select import METHODS, WEIGHTED_METHOD, Grid, check_methods, default_grid, shared_search
from .select import grid_search  # noqa: F401  (wrapped by name in perfbench/tracing.py)

SIM1_N_LABELED = (25, 50, 100, 150, 200, 250)
SIM2_CASES = (1, 2, 3)


# ---------------------------------------------------------------------------
# Study 1: nonlinear 2-d problem with known sampling densities
# ---------------------------------------------------------------------------


def sim1_labeled_density() -> DiagGaussian:
    return DiagGaussian(
        mean=(-0.9, 1.0 - math.sin(math.sin(0.9**2 * math.pi))),
        var=(0.0015, 2.0),
    )


def sim1_unlabeled_density() -> DiagGaussian:
    return DiagGaussian(
        mean=(-0.4, 1.0 - math.sin(math.sin(0.4**2 * math.pi))),
        var=(0.05, 1.0),
    )


@dataclass(frozen=True)
class Sim1Config:
    n_labeled: int
    n_unlabeled: int = 500
    n_test: int = 1000

    def __post_init__(self):
        if min(self.n_labeled, self.n_unlabeled, self.n_test) < 1:
            raise ParameterError("sample sizes must be positive")


def sim1_conditional_prob(x1, x2):
    """P(Y=1 | x1, x2) = expit(sin(2 pi x1^2) + x2 - 1)."""
    x1 = np.asarray(x1, dtype=np.float64)
    x2 = np.asarray(x2, dtype=np.float64)
    out = expit(np.sin(2.0 * np.pi * x1**2) + x2 - 1.0)
    return float(out) if np.ndim(out) == 0 else out


def gen_sim1(config: Sim1Config, seed: Seed) -> SplitDataset:
    """Labeled and unlabeled covariates from two known Gaussians; test
    covariates from their equal-weight per-point mixture; labels Bernoulli
    from the shared conditional."""
    rng = make_rng(seed)
    lab, unl = sim1_labeled_density(), sim1_unlabeled_density()

    labeled_x = lab.sample(config.n_labeled, rng)
    labeled_y = rng.random(config.n_labeled) < sim1_conditional_prob(
        labeled_x[:, 0], labeled_x[:, 1]
    )
    unlabeled_x = unl.sample(config.n_unlabeled, rng)

    from_lab = rng.random(config.n_test) < 0.5
    means = np.where(from_lab[:, None], lab.mean, unl.mean)
    sds = np.where(from_lab[:, None], np.sqrt(lab.var), np.sqrt(unl.var))
    test_x = rng.normal(means, sds)
    test_y = rng.random(config.n_test) < sim1_conditional_prob(
        test_x[:, 0], test_x[:, 1]
    )
    return SplitDataset(
        labeled_x=labeled_x,
        labeled_y=labeled_y.astype(np.uint8),
        unlabeled_x=unlabeled_x,
        test_x=test_x,
        test_y=test_y.astype(np.uint8),
    )


# ---------------------------------------------------------------------------
# Study 2: Gaussian class-conditional cases with estimated ratios
# ---------------------------------------------------------------------------

# Per case: feature count and, per block, the per-class mixture of
# (mean, variance) pairs applied i.i.d. to every coordinate; one component
# is drawn per point, not per coordinate.
_MixSpec = tuple[tuple[float, float], ...]

_SIM2_TABLE: dict[int, dict] = {
    1: {
        "p": 2,
        "labeled": {1: ((2.0, 1.0),), 0: ((-2.0, 1.0),)},
        "unlabeled": {1: ((2.0, 2.0),), 0: ((-2.0, 2.0),)},
        "test": {1: ((2.0, 1.0), (2.0, 2.0)), 0: ((-2.0, 1.0), (-2.0, 2.0))},
    },
    2: {
        "p": 10,
        "labeled": {1: ((1.0, 3.0),), 0: ((-1.0, 3.0),)},
        "unlabeled": {1: ((1.0, 3.0),), 0: ((-1.0, 3.0),)},
        "test": {1: ((1.0, 3.0),), 0: ((-1.0, 3.0),)},
    },
    3: {
        "p": 2,
        "labeled": {1: ((5.0, 2.0),), 0: ((8.0, 2.0),)},
        "unlabeled": {1: ((6.0, 2.0),), 0: ((9.0, 2.0),)},
        "test": {1: ((5.0, 2.0), (6.0, 2.0)), 0: ((8.0, 2.0), (9.0, 2.0))},
    },
}


@dataclass(frozen=True)
class Sim2Config:
    case: int
    n_labeled: int = 100
    n_unlabeled: int = 1000
    n_test: int = 1000

    def __post_init__(self):
        if self.case not in _SIM2_TABLE:
            raise ParameterError(f"case must be one of {sorted(_SIM2_TABLE)}")
        if min(self.n_labeled, self.n_unlabeled, self.n_test) < 2:
            raise ParameterError("each block needs at least two points")

    @property
    def n_features(self) -> int:
        return _SIM2_TABLE[self.case]["p"]


def _sample_mix(mix: _MixSpec, n: int, p: int, rng: np.random.Generator) -> np.ndarray:
    """Equal-probability mixture over (mean, var) components, per point."""
    comp = rng.integers(0, len(mix), size=n)
    params = np.asarray(mix)  # (k, 2)
    mu = params[comp, 0][:, None]
    sd = np.sqrt(params[comp, 1])[:, None]
    return rng.normal(mu, sd, size=(n, p))


def _sample_block(spec: dict, n: int, p: int, rng: np.random.Generator):
    """Half the points from each class (class 1 first), then shuffled."""
    n1 = n // 2
    x1 = _sample_mix(spec[1], n1, p, rng)
    x0 = _sample_mix(spec[0], n - n1, p, rng)
    x = np.vstack([x1, x0])
    y = np.concatenate([np.ones(n1, dtype=np.uint8), np.zeros(n - n1, dtype=np.uint8)])
    perm = rng.permutation(n)
    return x[perm], y[perm]


def gen_sim2(config: Sim2Config, seed: Seed) -> SplitDataset:
    """Equal class priors in every block; per-case covariate distributions
    from the fixed table (the middle case has no shift at all)."""
    table = _SIM2_TABLE[config.case]
    p = table["p"]
    rng = make_rng(seed)
    labeled_x, labeled_y = _sample_block(table["labeled"], config.n_labeled, p, rng)
    unlabeled_x, _ = _sample_block(table["unlabeled"], config.n_unlabeled, p, rng)
    test_x, test_y = _sample_block(table["test"], config.n_test, p, rng)
    return SplitDataset(
        labeled_x=labeled_x,
        labeled_y=labeled_y,
        unlabeled_x=unlabeled_x,
        test_x=test_x,
        test_y=test_y,
    )


# ---------------------------------------------------------------------------
# Benchmark CSV protocol
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BenchmarkSpec:
    n_train: int
    n_test: int
    n_features: int
    paper_total: int


BENCHMARK_SPECS = {
    "g10": BenchmarkSpec(n_train=250, n_test=300, n_features=10, paper_total=550),
    "ionosphere": BenchmarkSpec(n_train=150, n_test=206, n_features=33, paper_total=356),
    "pima": BenchmarkSpec(n_train=300, n_test=232, n_features=7, paper_total=532),
}

BENCHMARK_FRACTIONS = (0.05, 0.10, 0.20, 0.30, 0.40, 0.50)


def check_labeled_fraction(fraction: float) -> float:
    """A study's labeled share of its training pool: ParameterError unless 0 < f < 1."""
    if not 0.0 < fraction < 1.0:
        raise ParameterError(f"labeled fraction {fraction} out of (0, 1)")
    return fraction


def load_benchmark(name: str, path, strict: bool = True):
    """Read <name>_train.csv and <name>_test.csv from a directory.

    Feature-count mismatches always fail; row-count mismatches fail only
    under strict=True, and a total unequal to the published count warns.
    """
    if name not in BENCHMARK_SPECS:
        raise ParameterError(
            f"unknown benchmark {name!r}; expected one of {sorted(BENCHMARK_SPECS)}"
        )
    spec = BENCHMARK_SPECS[name]
    train_x, train_y = read_csv(os.path.join(path, f"{name}_train.csv"), has_label=True)
    test_x, test_y = read_csv(os.path.join(path, f"{name}_test.csv"), has_label=True)
    for which, x in (("train", train_x), ("test", test_x)):
        if x.shape[1] != spec.n_features:
            raise DataError(
                f"{name} {which} split has {x.shape[1]} features, expected {spec.n_features}"
            )
    sizes = (train_x.shape[0], test_x.shape[0])
    if sizes != (spec.n_train, spec.n_test):
        msg = (
            f"{name} split sizes {sizes} differ from the published "
            f"({spec.n_train}, {spec.n_test})"
        )
        if strict:
            raise DataError(msg)
        warnings.warn(msg)
    total = sizes[0] + sizes[1]
    if total != spec.paper_total:
        warnings.warn(
            f"{name} has {total} points in total; the published count is {spec.paper_total}"
        )
    return train_x, train_y, test_x, test_y


def gen_shifted_benchmark(
    n_train: int = 250,
    n_test: int = 300,
    n_features: int = 3,
    curvature: float = 2.0,
    seed: Seed = 0,
):
    """Synthetic stand-in benchmark with a curved class boundary.

    Covariates are standard normal and the conditional class probability
    is expit(curvature*sin(1.5*x1) + 1.5*x2). The x1 direction carries a
    wave whose local slope flips sign across the covariate range, so the
    best linear fit depends on where the covariates concentrate; that is
    the regime where density-ratio weighting of a biased labeled subset
    pays off. Not a replication of any published dataset."""
    if n_features < 2:
        raise ParameterError("synthetic benchmark needs at least 2 features")
    rng = make_rng(seed)

    def block(n: int):
        x = rng.normal(0.0, 1.0, size=(n, n_features))
        prob = expit(curvature * np.sin(1.5 * x[:, 0]) + 1.5 * x[:, 1])
        y = (rng.random(n) < prob).astype(np.uint8)
        return x, y

    train_x, train_y = block(n_train)
    test_x, test_y = block(n_test)
    return train_x, train_y, test_x, test_y


def prediction_error(predicted: np.ndarray, truth: np.ndarray) -> float:
    """Misclassification percentage."""
    predicted = np.asarray(predicted)
    truth = np.asarray(truth)
    if predicted.shape != truth.shape or predicted.ndim != 1 or predicted.size == 0:
        raise DataError(
            f"label vectors must be equal-length and nonempty, got "
            f"{predicted.shape} and {truth.shape}"
        )
    return 100.0 * float(np.mean(predicted != truth))


# ---------------------------------------------------------------------------
# Trial protocols
# ---------------------------------------------------------------------------


class Experiment(Protocol):
    """A trial source. The built-in experiments also split make_trial into
    make_data and make_weights, so that run_trials can skip the weights
    when no requested method reads them."""

    name: str

    def make_trial(self, seed: Seed) -> tuple[SplitDataset, RatioWeights]: ...


def _make_trial(self, seed: Seed) -> tuple[SplitDataset, RatioWeights]:
    """The trial's data, then its ratio weights."""
    data = self.make_data(seed)
    return data, self.make_weights(data, seed)


@dataclass(frozen=True)
class Sim1Experiment:
    """One labeled-size setting of study 1; exact ratios, no estimation."""

    config: Sim1Config

    @property
    def name(self) -> str:
        return f"sim1(n={self.config.n_labeled})"

    def make_data(self, seed: Seed) -> SplitDataset:
        return gen_sim1(self.config, seed)

    def make_weights(self, data: SplitDataset, seed: Seed) -> RatioWeights:
        return weights_from_exact(sim1_labeled_density(), sim1_unlabeled_density(), data)

    make_trial = _make_trial


@dataclass(frozen=True)
class Sim2Experiment:
    """One case of study 2; ratios estimated from the covariates."""

    config: Sim2Config

    @property
    def name(self) -> str:
        return f"sim2(case={self.config.case})"

    def make_data(self, seed: Seed) -> SplitDataset:
        return gen_sim2(self.config, seed)

    def make_weights(self, data: SplitDataset, seed: Seed) -> RatioWeights:
        return weights_from_ulsif(data, seed=seed)

    make_trial = _make_trial


@dataclass(frozen=True)
class BenchmarkExperiment:
    """Fixed train/test matrices; per-trial random labeled/unlabeled split."""

    dataset: str
    train_x: np.ndarray
    train_y: np.ndarray
    test_x: np.ndarray
    test_y: np.ndarray
    labeled_fraction: float

    def __post_init__(self):
        check_labeled_fraction(self.labeled_fraction)

    @property
    def name(self) -> str:
        return f"bench({self.dataset}, {round(100 * self.labeled_fraction)}%)"

    def make_data(self, seed: Seed) -> SplitDataset:
        split = split_labeled_unlabeled(
            self.train_x, self.train_y, self.labeled_fraction, seed
        )
        return replace(split, test_x=self.test_x, test_y=self.test_y)

    def make_weights(self, data: SplitDataset, seed: Seed) -> RatioWeights:
        return weights_from_ulsif(data, seed=seed)

    make_trial = _make_trial


SHIFT_TILT = 2.0


@dataclass(frozen=True)
class ShiftedSyntheticExperiment:
    """Synthetic benchmark stand-in with a biased labeled subset.

    Each trial regenerates a gen_shifted_benchmark pool at its default
    sizes, picks labeled points with probability proportional to
    exp(SHIFT_TILT * x1), and splits the unselected remainder at random
    into the unlabeled and test blocks. Labeled covariates are
    therefore tilted toward large x1 while the unlabeled and test blocks
    share the complementary distribution, which is the shift the ratio
    weights are meant to correct.
    """

    labeled_fraction: float = 0.2

    def __post_init__(self):
        check_labeled_fraction(self.labeled_fraction)

    @property
    def name(self) -> str:
        return f"bench(synthetic, {round(100 * self.labeled_fraction)}%)"

    def make_data(self, seed: Seed) -> SplitDataset:
        train_x, train_y, test_x, test_y = gen_shifted_benchmark(seed=derive_seed(seed, 10))
        n_train, n_test = train_x.shape[0], test_x.shape[0]
        pool_x = np.vstack([train_x, test_x])
        pool_y = np.concatenate([train_y, test_y])
        rng = make_rng(derive_seed(seed, 11))
        n_pool = pool_x.shape[0]
        n_lab = max(1, int(np.floor(self.labeled_fraction * n_train + 0.5)))
        probs = np.exp(SHIFT_TILT * pool_x[:, 0])
        probs /= probs.sum()
        labeled_idx = rng.choice(n_pool, size=n_lab, replace=False, p=probs)
        mask = np.zeros(n_pool, dtype=bool)
        mask[labeled_idx] = True
        rest = rng.permutation(np.flatnonzero(~mask))
        test_idx, unlabeled_idx = rest[:n_test], rest[n_test:]
        return SplitDataset(
            labeled_x=pool_x[mask],
            labeled_y=pool_y[mask],
            unlabeled_x=pool_x[unlabeled_idx],
            test_x=pool_x[test_idx],
            test_y=pool_y[test_idx],
        )

    def make_weights(self, data: SplitDataset, seed: Seed) -> RatioWeights:
        return weights_from_ulsif(data, seed=seed)

    make_trial = _make_trial


def sim1_experiment(n_labeled: int) -> Sim1Experiment:
    return Sim1Experiment(Sim1Config(n_labeled=n_labeled))


def sim2_experiment(case: int) -> Sim2Experiment:
    return Sim2Experiment(Sim2Config(case=case))


# ---------------------------------------------------------------------------
# Monte Carlo driver
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TrialRecord:
    trial: int
    seed: int
    method: str
    pe_percent: Optional[float]
    gamma1: Optional[float]
    gamma2: Optional[float]
    log10_lambda: Optional[float]
    gic: Optional[float]
    converged: Optional[bool]
    error: Optional[str] = None


@dataclass(frozen=True)
class TrialSummary:
    """Means over completed trials plus the failure count."""

    method: str
    mean_pe_percent: float
    mean_log10_lambda: float
    mean_gamma1: float
    mean_gamma2: float
    n_trials: int
    n_failed: int


@dataclass(frozen=True)
class RunResult:
    experiment: str
    base_seed: int
    n_trials: int
    methods: tuple[str, ...]
    records: list[TrialRecord]
    summaries: list[TrialSummary]

    def summary(self, method: str) -> TrialSummary:
        for s in self.summaries:
            if s.method == method:
                return s
        raise KeyError(method)


def run_trials(
    experiment: Experiment,
    methods: Sequence[str] = METHODS,
    n_trials: int = 50,
    base_seed: Seed = 0,
    grid: Optional[Grid] = None,
) -> RunResult:
    """Trial i uses seed base_seed + i (checked before trial 0); per-trial
    failures are recorded and excluded from the means. One shared_search per trial serves every
    method; a method whose rows all fail records its own error. The test
    block is predicted once per distinct winner: lsslr and slr share one.
    Without sslrcs no method reads the ratio weights, so an experiment with
    make_data gets unit weights instead of fitting them."""
    if n_trials < 1:
        raise ParameterError("n_trials must be positive")
    check_seed(base_seed)
    methods = check_methods(methods)
    g = grid or default_grid()
    make_data = None if WEIGHTED_METHOD in methods else getattr(experiment, "make_data", None)
    records: list[TrialRecord] = []

    def failure(i, seed, m, exc):
        return TrialRecord(i, seed, m, None, None, None, None, None, None, str(exc))

    for i in range(n_trials):
        seed = base_seed + i
        try:
            if make_data is None:
                data, weights = experiment.make_trial(seed)
            else:
                data = make_data(seed)
                weights = unit_weights(data)
        except SslogitError as exc:
            records.extend(failure(i, seed, m, exc) for m in methods)
            continue
        if data.test_x is None:
            raise ParameterError("experiment trials must carry a test block")
        try:
            search = shared_search(data, weights, g, methods)
        except SslogitError as exc:
            records.extend(failure(i, seed, m, exc) for m in methods)
            continue
        pes: dict[int, float] = {}  # test PE per winner, by id
        for m in methods:
            try:
                sel = search.select(m)
                key = id(sel.best_model)
                if key not in pes:
                    _, labels = predict(sel.best_model, data.test_x)
                    pes[key] = prediction_error(labels, data.test_y)
                pe = pes[key]
            except SslogitError as exc:
                records.append(failure(i, seed, m, exc))
                continue
            p = sel.best_model.params
            records.append(
                TrialRecord(
                    trial=i,
                    seed=seed,
                    method=m,
                    pe_percent=pe,
                    gamma1=p.gamma1,
                    gamma2=p.gamma2,
                    log10_lambda=g.log10_lambda(p.lam),
                    gic=sel.best_report.gic,
                    converged=sel.best_model.converged,
                )
            )
    summaries = []
    for m in methods:
        ok = [r for r in records if r.method == m and r.error is None]
        failed = sum(1 for r in records if r.method == m and r.error is not None)

        def mean(key):
            return float(np.mean([getattr(r, key) for r in ok])) if ok else float("nan")

        summaries.append(
            TrialSummary(
                method=m,
                mean_pe_percent=mean("pe_percent"),
                mean_log10_lambda=mean("log10_lambda"),
                mean_gamma1=mean("gamma1"),
                mean_gamma2=mean("gamma2"),
                n_trials=len(ok),
                n_failed=failed,
            )
        )
    return RunResult(
        experiment=experiment.name,
        base_seed=base_seed,
        n_trials=n_trials,
        methods=methods,
        records=records,
        summaries=summaries,
    )
