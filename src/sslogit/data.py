"""Dataset containers, design matrices, seeded labeled/unlabeled splits,
and the CSV reader.
"""

from __future__ import annotations

import csv
import itertools
import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .errors import DataError, ParameterError

# 64-bit seed fed to numpy's PCG64 generator.
Seed = int


def check_seed(seed: Seed) -> Seed:
    """The seed; ParameterError if negative, which numpy's seeding rejects."""
    if seed < 0:
        raise ParameterError(f"seed must be a non-negative integer, got {seed}")
    return seed


def make_rng(seed: Seed) -> np.random.Generator:
    """Return the generator used everywhere randomness is needed."""
    return np.random.default_rng(check_seed(seed))


def derive_seed(seed: Seed, salt: int) -> int:
    """Deterministically derive an independent child seed.

    Keeps consumers that share one user-facing seed (data generation,
    ratio-model fitting, ...) on distinct PCG64 streams.
    """
    return int(np.random.SeedSequence((check_seed(seed), salt)).generate_state(1, np.uint64)[0])


def _as_matrix(x, name: str) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise DataError(f"{name} must be a 2-d array, got ndim={x.ndim}")
    if not np.all(np.isfinite(x)):
        raise DataError(f"{name} contains non-finite values")
    return np.ascontiguousarray(x)


def _as_labels(y, n: int) -> np.ndarray:
    y = np.asarray(y)
    if y.shape != (n,):
        raise DataError(f"labels have shape {y.shape}, expected ({n},)")
    vals = np.unique(y)
    if not np.all(np.isin(vals, (0, 1))):
        raise DataError("labels must take values in {0, 1}")
    return y.astype(np.uint8)


@dataclass(frozen=True)
class SplitDataset:
    """Labeled block, unlabeled block, and optional held-out test block.

    Labeled and unlabeled feature matrices must share the same number of
    columns; the unlabeled block may be empty (supervised-only fitting).
    The intercept-prefixed designs are built once, on first use, and are
    read-only; the blocks must not be modified after construction.
    """

    labeled_x: np.ndarray
    labeled_y: np.ndarray
    unlabeled_x: np.ndarray
    test_x: Optional[np.ndarray] = None
    test_y: Optional[np.ndarray] = None

    def __post_init__(self):
        lx = _as_matrix(self.labeled_x, "labeled_x")
        if lx.shape[0] == 0:
            raise DataError("empty design")
        ly = _as_labels(self.labeled_y, lx.shape[0])
        ux = _as_matrix(self.unlabeled_x, "unlabeled_x")
        if ux.shape[0] > 0 and ux.shape[1] != lx.shape[1]:
            raise DataError(
                f"unlabeled_x has {ux.shape[1]} columns, labeled_x has {lx.shape[1]}"
            )
        if ux.shape[0] == 0:
            ux = ux.reshape(0, lx.shape[1])
        object.__setattr__(self, "labeled_x", lx)
        object.__setattr__(self, "labeled_y", ly)
        object.__setattr__(self, "unlabeled_x", ux)
        if (self.test_x is None) != (self.test_y is None):
            raise DataError("test_x and test_y must be provided together")
        if self.test_x is not None:
            tx = _as_matrix(self.test_x, "test_x")
            if tx.shape[1] != lx.shape[1]:
                raise DataError(
                    f"test_x has {tx.shape[1]} columns, labeled_x has {lx.shape[1]}"
                )
            ty = _as_labels(self.test_y, tx.shape[0])
            object.__setattr__(self, "test_x", tx)
            object.__setattr__(self, "test_y", ty)

    @property
    def n_labeled(self) -> int:
        return self.labeled_x.shape[0]

    @property
    def n_unlabeled(self) -> int:
        return self.unlabeled_x.shape[0]

    @property
    def n_features(self) -> int:
        return self.labeled_x.shape[1]

    @cached_property
    def stacked_design(self) -> np.ndarray:
        """build_design of the labeled rows followed by the unlabeled rows."""
        design = build_design(np.vstack([self.labeled_x, self.unlabeled_x]))
        design.flags.writeable = False
        return design

    @property
    def labeled_design(self) -> np.ndarray:
        return self.stacked_design[: self.n_labeled]

    @property
    def unlabeled_design(self) -> np.ndarray:
        return self.stacked_design[self.n_labeled :]


def build_design(x: np.ndarray) -> np.ndarray:
    """Prepend an all-ones intercept column: (n, p) -> (n, p + 1)."""
    x = _as_matrix(x, "x")
    if x.shape[0] == 0:
        raise DataError("empty design")
    return np.hstack([np.ones((x.shape[0], 1)), x])


def split_labeled_unlabeled(
    x: np.ndarray,
    y: np.ndarray,
    labeled_fraction: float,
    seed: Seed,
) -> SplitDataset:
    """Randomly split a fully labeled pool, discarding labels on the rest.

    The labeled count is round(labeled_fraction * n) with exact halves
    rounded up, floored at one point so a model can always be fit.
    """
    x = _as_matrix(x, "x")
    if x.shape[0] == 0:
        raise DataError("empty design")
    y = _as_labels(y, x.shape[0])
    if not 0.0 < labeled_fraction <= 1.0:
        raise ParameterError(
            f"labeled_fraction must lie in (0, 1], got {labeled_fraction}"
        )
    n = x.shape[0]
    n_labeled = min(n, max(1, int(np.floor(labeled_fraction * n + 0.5))))
    perm = make_rng(seed).permutation(n)
    lab, unlab = perm[:n_labeled], perm[n_labeled:]
    return SplitDataset(
        labeled_x=x[lab],
        labeled_y=y[lab],
        unlabeled_x=x[unlab],
    )


def _csv_rows(fh, path):
    """(row number, fields) per CSV record of fh, from row 1; a record that
    ends inside a quote, or a byte that is not UTF-8, is a DataError."""
    reader = csv.reader(fh, strict=True)
    for lineno in itertools.count(1):
        try:
            row = next(reader)
        except StopIteration:
            return
        except csv.Error as exc:
            raise DataError(f"{path}: row {lineno}: {exc}") from None
        except UnicodeDecodeError as exc:
            raise DataError(f"{path}: not UTF-8 text ({exc.reason})") from None
        yield lineno, row


def read_csv(path, has_label: bool) -> tuple[np.ndarray, Optional[np.ndarray]]:
    """Parse a header row plus float feature columns.

    With has_label the final column must be named 'label' and hold values
    in {0, 1}; they are returned as the second element, which is None
    otherwise. Blank lines are skipped; every format problem is a DataError.
    A features-only body is first parsed in one C call; whenever that
    parse fails or its shape is off, the checked row loop reads it again.
    """
    try:
        fh = open(path, newline="", encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from None
    with fh:
        rows = _csv_rows(fh, path)
        _, header = next(rows, (1, None))
        if header is None:
            raise DataError(f"{path}: empty file")
        if has_label and (len(header) < 2 or header[-1].strip().lower() != "label"):
            raise DataError(f"{path}: final column must be named 'label'")
        if not has_label:
            try:
                with warnings.catch_warnings():  # an empty body warns
                    warnings.simplefilter("ignore", UserWarning)
                    x = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2, dtype=np.float64)
            except ValueError:
                pass
            else:
                if x.shape[0] > 0 and x.shape[1] == len(header):
                    return x, None
            fh.seek(0)
            rows = _csv_rows(fh, path)
            next(rows)
        n_feat = len(header) - has_label
        feats, labels = [], []
        for lineno, row in rows:
            if not row:
                continue
            if len(row) != len(header):
                raise DataError(
                    f"{path}: row {lineno} has {len(row)} fields, expected {len(header)}"
                )
            try:
                feats.append([float(v) for v in row[:n_feat]])
            except ValueError:
                raise DataError(f"{path}: row {lineno} has a non-numeric feature") from None
            if has_label:
                lab = row[-1].strip()
                if lab not in ("0", "1"):
                    raise DataError(f"{path}: row {lineno} label {lab!r} not in {{0,1}}")
                labels.append(int(lab))
    if not feats:
        raise DataError(f"{path}: no data rows")
    x = np.asarray(feats, dtype=np.float64)
    return x, np.asarray(labels, dtype=np.uint8) if has_label else None
