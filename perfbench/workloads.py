"""The benchmark's workloads: their inputs, their op, and the checks on
what the op returns.

An op is one unit of timed work. Replication ops are one Monte Carlo
trial through ``sslogit.experiments.run_trials``; a CLI op is one
``fit`` + ``predict`` request pair through ``sslogit.cli.main``.
Replication ops cycle over labeled sizes of different cost; a run stops
only at a cycle boundary, so it always holds the same mix. Every workload
also has a minimum op count: its accuracy metrics are taken over exactly
that many ops, so they do not depend on speed.

sslogit is imported in ``load``, not at module import, so the set-up
probe can time the import.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np
from scipy.special import expit

METHODS = ("sslrcs", "lsslr", "slr")

# The paper's tuning grid, kept here as the oracle for the on-grid check:
# gamma1 and gamma2 in steps of 0.1 over [0, 1], log10 lambda in steps of
# 0.5 over [-4, 2.5].
GRID_GAMMAS = tuple(round(0.1 * k, 10) for k in range(11))
GRID_LOG10_LAMBDAS = tuple(-4.0 + 0.5 * k for k in range(14))


@dataclass(frozen=True)
class Size:
    """How big each workload's inputs are."""

    sim1_labeled: tuple[int, ...]
    sim1_unlabeled: int
    sim1_test: int
    cli_sets: int
    cli_labeled: int
    cli_unlabeled: int
    cli_predict: int
    # None runs the program's default grid; a subset of the paper grid
    # keeps the tiny size fast.
    grid: Optional[tuple[tuple[float, ...], tuple[float, ...], tuple[float, ...]]]
    sim1_min_ops: int
    cli_min_ops: int
    setup_samples: int


FULL = Size(
    sim1_labeled=(25, 50, 100, 150, 200, 250),
    sim1_unlabeled=500,
    sim1_test=1000,
    cli_sets=16,
    cli_labeled=100,
    cli_unlabeled=4000,
    cli_predict=20000,
    grid=None,
    sim1_min_ops=30,
    cli_min_ops=32,
    setup_samples=3,
)

TINY = Size(
    sim1_labeled=(25, 40),
    sim1_unlabeled=60,
    sim1_test=60,
    cli_sets=2,
    cli_labeled=30,
    cli_unlabeled=100,
    cli_predict=200,
    grid=((0.0, 0.5, 1.0), (0.0, 1.0), (-2.0, 0.0)),
    sim1_min_ops=2,
    cli_min_ops=2,
    setup_samples=2,
)


def op_seed(seed: int, i: int) -> int:
    """Seed of op i in a run started with ``seed``."""
    return 100_000 * seed + i


def _on_grid(value: Optional[float], grid: tuple[float, ...]) -> bool:
    return value is not None and any(abs(value - g) <= 1e-9 for g in grid)


class Replication:
    """One Monte Carlo trial of study 1 per op, all three methods."""

    def __init__(self, seed: int, size: Size):
        self.name = "sim1-exact"
        self.seed = seed
        self.size = size
        self.cycle, self.min_ops = len(size.sim1_labeled), size.sim1_min_ops
        self._experiments: list = []
        self._grid = None

    def generate(self, workdir: Path) -> None:
        """Replication inputs are the op seeds alone; nothing to write."""

    def load(self, workdir: Path) -> None:
        import sslogit.experiments as ex
        from sslogit.select import Grid

        s = self.size
        self._experiments = [
            ex.Sim1Experiment(
                ex.Sim1Config(n_labeled=n, n_unlabeled=s.sim1_unlabeled, n_test=s.sim1_test)
            )
            for n in s.sim1_labeled
        ]
        if s.grid is not None:
            self._grid = Grid(*s.grid)

    def op(self, i: int, tag: str = ""):
        import sslogit.experiments as ex

        return ex.run_trials(
            self._experiments[i % self.cycle],
            methods=METHODS,
            n_trials=1,
            base_seed=op_seed(self.seed, i),
            grid=self._grid,
        )

    @staticmethod
    def serialize(result) -> bytes:
        records = [dataclasses.asdict(r) for r in result.records]
        return json.dumps(records, sort_keys=True).encode()

    @staticmethod
    def failed(result) -> bool:
        return any(r.error is not None for r in result.records)

    @staticmethod
    def check(result) -> list[str]:
        errors = []
        if sorted(r.method for r in result.records) != sorted(METHODS):
            errors.append(f"methods {[r.method for r in result.records]}")
        for r in result.records:
            where = f"seed {r.seed} {r.method}"
            if r.error is not None:
                errors.append(f"{where}: trial failed: {r.error}")
                continue
            if not (r.pe_percent is not None and 0.0 <= r.pe_percent <= 100.0):
                errors.append(f"{where}: PE {r.pe_percent} outside [0, 100]")
            if not (_on_grid(r.gamma1, GRID_GAMMAS) and _on_grid(r.gamma2, GRID_GAMMAS)):
                errors.append(f"{where}: gammas ({r.gamma1}, {r.gamma2}) off the grid")
            if not _on_grid(r.log10_lambda, GRID_LOG10_LAMBDAS):
                errors.append(f"{where}: log10 lambda {r.log10_lambda} off the grid")
        return errors

    def mean_pe(self, results) -> dict[str, float]:
        pes: dict[str, list[float]] = {m: [] for m in METHODS}
        for result in results:
            for r in result.records:
                if r.error is None:
                    pes[r.method].append(r.pe_percent)
        return {m: _mean(v) for m, v in pes.items()}


@dataclass(frozen=True)
class CliOutput:
    fit_code: int
    predict_code: Optional[int]
    model: Path
    predictions: Path


class CliFitPredict:
    """One ``fit --method sslrcs`` + ``predict`` request pair per op.

    The inputs are shaped like study 2, case 2 (10 features, class means
    +1 and -1 in every coordinate, variance 3) and are drawn here with the
    benchmark's own generator, so the program sees only CSV files. Ops
    cycle over ``cli_sets`` labeled/unlabeled file pairs and share one
    feature file to predict; the labels of that file stay in memory.
    """

    n_features = 10

    def __init__(self, seed: int, size: Size):
        self.name = "cli-fit-predict"
        self.seed = seed
        self.size = size
        self.cycle = 1  # every op costs the same
        self.min_ops = size.cli_min_ops
        self.workdir = Path(".")
        self.test_x: Optional[np.ndarray] = None
        self.test_y: Optional[np.ndarray] = None

    def _paths(self, k: int) -> tuple[Path, Path]:
        return self.workdir / f"labeled-{k}.csv", self.workdir / f"unlabeled-{k}.csv"

    def _draw(self, rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
        y = rng.permutation(np.arange(n) < n // 2).astype(np.uint8)
        mean = np.where(y[:, None] == 1, 1.0, -1.0)
        x = rng.normal(mean, math.sqrt(3.0), size=(n, self.n_features))
        return x, y

    def _write(self, path: Path, x: np.ndarray, y: Optional[np.ndarray]) -> None:
        cols = [f"x{j + 1}" for j in range(x.shape[1])]
        fmt = ["%.17g"] * x.shape[1]
        if y is not None:
            x = np.column_stack([x, y])
            cols.append("label")
            fmt.append("%d")
        np.savetxt(path, x, fmt=fmt, delimiter=",", header=",".join(cols), comments="")

    def generate(self, workdir: Path) -> None:
        self.workdir = workdir
        rng = np.random.default_rng(self.seed)
        s = self.size
        for k in range(s.cli_sets):
            labeled, unlabeled = self._paths(k)
            self._write(labeled, *self._draw(rng, s.cli_labeled))
            self._write(unlabeled, self._draw(rng, s.cli_unlabeled)[0], None)
        self.test_x, self.test_y = self._draw(rng, s.cli_predict)
        self._write(workdir / "predict.csv", self.test_x, None)

    def load(self, workdir: Path) -> None:
        self.workdir = workdir
        import sslogit.cli  # noqa: F401

    def _request(self, k: int, method: str, seed: int, tag: str) -> CliOutput:
        import sslogit.cli as cli

        labeled, unlabeled = self._paths(k)
        model = self.workdir / f"model-{tag}.json"
        predictions = self.workdir / f"pred-{tag}.csv"
        with contextlib.redirect_stdout(io.StringIO()):
            fit_code = cli.main([
                "fit", "--labeled", str(labeled), "--unlabeled", str(unlabeled),
                "--method", method, "--gamma1", "0.5", "--gamma2", "0.5",
                "--log10-lambda=-2", "--seed", str(seed), "--model-out", str(model),
            ])
            predict_code = None
            if fit_code == 0:
                predict_code = cli.main([
                    "predict", "--model", str(model),
                    "--data", str(self.workdir / "predict.csv"),
                    "--output", str(predictions),
                ])
        return CliOutput(fit_code, predict_code, model, predictions)

    def op(self, i: int, tag: str = ""):
        k = i % self.size.cli_sets
        return self._request(k, "sslrcs", op_seed(self.seed, i), f"{i}{tag}")

    @staticmethod
    def serialize(out: CliOutput) -> bytes:
        return out.model.read_bytes() + b"\0" + out.predictions.read_bytes()

    @staticmethod
    def failed(out: CliOutput) -> bool:
        return out.fit_code != 0 or out.predict_code != 0

    def _read_predictions(self, out: CliOutput) -> tuple[np.ndarray, np.ndarray]:
        with open(out.predictions, encoding="utf-8") as fh:
            header = fh.readline().strip()
            if header != "probability,label":
                raise ValueError(f"header {header!r}")
            table = np.loadtxt(fh, delimiter=",", ndmin=2)
        return table[:, 0], table[:, 1]

    def check(self, out: CliOutput) -> list[str]:
        if self.failed(out):
            return [f"exit codes fit={out.fit_code} predict={out.predict_code}"]
        try:
            probs, labels = self._read_predictions(out)
        except (OSError, ValueError) as exc:
            return [f"{out.predictions.name}: unreadable ({exc})"]
        errors = []
        if probs.shape[0] != self.size.cli_predict:
            errors.append(f"{probs.shape[0]} output rows for {self.size.cli_predict} inputs")
        if not np.all((probs >= 0.0) & (probs <= 1.0)):
            errors.append("probability outside [0, 1]")
        if not np.array_equal(labels, (probs > 0.5).astype(float)):
            errors.append("label differs from probability > 0.5")
        return errors

    def _pe(self, out: CliOutput) -> Optional[float]:
        try:
            _, labels = self._read_predictions(out)
        except (OSError, ValueError):
            return None  # check() reports it
        return 100.0 * float(np.mean(labels != self.test_y))

    def _baseline_pe(self, k: int, method: str) -> Optional[float]:
        """PE of one untimed ``fit`` request, scored from the saved
        coefficients here rather than through ``predict``."""
        import sslogit.cli as cli

        labeled, unlabeled = self._paths(k)
        model = self.workdir / f"model-{method}-{k}.json"
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main([
                "fit", "--labeled", str(labeled), "--unlabeled", str(unlabeled),
                "--method", method, "--log10-lambda=-2", "--model-out", str(model),
            ])
        if code != 0:
            return None
        w = np.asarray(json.loads(model.read_text())["coefficients"])
        labels = expit(w[0] + self.test_x @ w[1:]) > 0.5
        return 100.0 * float(np.mean(labels != self.test_y))

    def mean_pe(self, outputs) -> dict[str, float]:
        """sslrcs from the timed ops' ``predict`` output; lsslr and slr,
        which the timed op does not fit, from one untimed ``fit`` per
        labeled set."""
        pes = {"sslrcs": _mean([self._pe(o) for o in outputs if not self.failed(o)])}
        for method in ("lsslr", "slr"):
            pes[method] = _mean(
                [self._baseline_pe(k, method) for k in range(self.size.cli_sets)]
            )
        return pes


def _mean(values: list[Optional[float]]) -> float:
    """Mean of the values that exist; NaN, which fails the run, if none."""
    present = [v for v in values if v is not None]
    return float(np.mean(present)) if present else float("nan")


def make(name: str, seed: int, size: Size):
    if name == "cli-fit-predict":
        return CliFitPredict(seed, size)
    if name == "sim1-exact":
        return Replication(seed, size)
    raise ValueError(f"unknown workload {name!r}")
