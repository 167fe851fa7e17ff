#!/usr/bin/env python3
"""Convert locally obtained benchmark source files into the loader's format.

The replication protocol reads <name>_train.csv / <name>_test.csv files with
a header row, float feature columns, and a final 0/1 column named 'label'
(see sslogit.experiments.load_benchmark). The original datasets are not
redistributed with this package; obtain them yourself and point this script
at the raw files:

  ionosphere  UCI 'Ionosphere' (ionosphere.data): 34 numeric columns plus a
              g/b class column. The second column is constant zero in the
              public file and is dropped, leaving 33 features.
  pima        The 532-row diabetes subset shipped with the R MASS package as
              Pima.tr and Pima.te (7 features plus a Yes/No 'type' column).
              Export both to CSV and pass them in either order.
  g10         Any CSV already in feature+label layout with 10 features; the
              script only reshuffles and splits it.

Rows are pooled, shuffled with the given seed, and split to the published
train/test sizes where the supplied row count allows it (otherwise the same
proportions are used and a warning is printed, matching the loader's
non-strict mode). Splits produced here are seeded reshuffles, not the
original study's partition, so downstream numbers are comparable but not
identical. The files keep the raw feature scale; `sslogit replicate bench
--standardize` z-scores them with the training split's statistics.

Examples:
  python scripts/convert_benchmarks.py ionosphere --input ionosphere.data --output-dir data
  python scripts/convert_benchmarks.py pima --input Pima.tr.csv Pima.te.csv --output-dir data
  python scripts/convert_benchmarks.py g10 --input g10.csv --output-dir data
"""

import argparse
import csv
import os
import sys

import numpy as np

from sslogit.data import make_rng
from sslogit.experiments import BENCHMARK_SPECS


def fail(message: str):
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(2)


def read_rows(path):
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = [row for row in csv.reader(fh) if row]
    except OSError as exc:
        fail(f"cannot read {path}: {exc}")
    if not rows:
        fail(f"{path}: empty file")
    return rows


def parse_ionosphere(paths):
    """UCI .data file: no header, 34 floats, final column g/b."""
    if len(paths) != 1:
        fail("ionosphere expects exactly one input file")
    rows = read_rows(paths[0])
    feats, labels = [], []
    for lineno, row in enumerate(rows, start=1):
        if len(row) != 35:
            fail(f"{paths[0]}: line {lineno} has {len(row)} fields, expected 35")
        cls = row[-1].strip().lower()
        if cls not in ("g", "b"):
            fail(f"{paths[0]}: line {lineno} class {cls!r} not in g/b")
        try:
            feats.append([float(v) for v in row[:-1]])
        except ValueError:
            fail(f"{paths[0]}: line {lineno} has a non-numeric feature")
        labels.append(1 if cls == "g" else 0)
    x = np.asarray(feats)
    y = np.asarray(labels, dtype=np.uint8)
    constant = np.all(x == x[0], axis=0)
    if constant.any():
        kept = int((~constant).sum())
        print(f"dropping {int(constant.sum())} constant column(s); {kept} features remain")
        x = x[:, ~constant]
    return x, y


def _label_from(text, path, lineno):
    t = text.strip().lower()
    if t in ("1", "yes", "true"):
        return 1
    if t in ("0", "no", "false"):
        return 0
    fail(f"{path}: line {lineno} label {text!r} not recognized")


def parse_headed_csv(path):
    """Header row, float features, final column holding the class."""
    rows = read_rows(path)
    header, body = rows[0], rows[1:]
    if len(header) < 2:
        fail(f"{path}: expected at least one feature column plus a label")
    feats, labels = [], []
    for lineno, row in enumerate(body, start=2):
        if len(row) != len(header):
            fail(f"{path}: line {lineno} has {len(row)} fields, expected {len(header)}")
        try:
            feats.append([float(v) for v in row[:-1]])
        except ValueError:
            fail(f"{path}: line {lineno} has a non-numeric feature")
        labels.append(_label_from(row[-1], path, lineno))
    return np.asarray(feats), np.asarray(labels, dtype=np.uint8)


def parse_pima(paths):
    if len(paths) not in (1, 2):
        fail("pima expects one pooled file or the two MASS exports")
    blocks = [parse_headed_csv(p) for p in paths]
    widths = {b[0].shape[1] for b in blocks}
    if len(widths) != 1:
        fail(f"input files disagree on feature count: {sorted(widths)}")
    x = np.vstack([b[0] for b in blocks])
    y = np.concatenate([b[1] for b in blocks])
    return x, y


def parse_generic(paths):
    if len(paths) != 1:
        fail("expected exactly one input file")
    return parse_headed_csv(paths[0])


PARSERS = {"ionosphere": parse_ionosphere, "pima": parse_pima, "g10": parse_generic}


def write_split(path, x, y):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"x{j + 1}" for j in range(x.shape[1])] + ["label"])
        for row, lab in zip(x, y):
            writer.writerow([repr(float(v)) for v in row] + [str(int(lab))])
    print(f"wrote {path} ({x.shape[0]} rows, {x.shape[1]} features)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("dataset", choices=sorted(BENCHMARK_SPECS))
    parser.add_argument("--input", nargs="+", required=True,
                        help="raw source file(s); see the module docstring")
    parser.add_argument("--output-dir", default=".",
                        help="directory for <name>_train.csv and <name>_test.csv")
    parser.add_argument("--seed", type=int, default=0,
                        help="shuffle seed for the train/test split")
    args = parser.parse_args(argv)

    spec = BENCHMARK_SPECS[args.dataset]
    x, y = PARSERS[args.dataset](args.input)
    if x.shape[1] != spec.n_features:
        fail(
            f"{args.dataset} should have {spec.n_features} features after "
            f"conversion, got {x.shape[1]}"
        )

    n = x.shape[0]
    if n != spec.paper_total:
        print(
            f"warning: {n} rows instead of the published {spec.paper_total}; "
            "splitting proportionally (use the loader's non-strict mode)"
        )
        n_train = round(n * spec.n_train / spec.paper_total)
    else:
        n_train = spec.n_train

    order = make_rng(args.seed).permutation(n)
    train_idx, test_idx = order[:n_train], order[n_train:]
    train_x, train_y = x[train_idx], y[train_idx]
    test_x, test_y = x[test_idx], y[test_idx]

    os.makedirs(args.output_dir, exist_ok=True)
    write_split(os.path.join(args.output_dir, f"{args.dataset}_train.csv"), train_x, train_y)
    write_split(os.path.join(args.output_dir, f"{args.dataset}_test.csv"), test_x, test_y)
    return 0


if __name__ == "__main__":
    sys.exit(main())
