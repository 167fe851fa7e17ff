"""Command-line front end: select, fit, predict, and replicate.

Every command is deterministic given its flags and seed. JSON outputs embed
the effective configuration and carry no timestamps, so identical
invocations produce identical bytes. Exit code 0 is success; an error
exits with the code its class in sslogit.errors carries (1 usage, 2 data
error, 3 numerical failure).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, replace
from typing import Optional, Sequence

import numpy as np

from .data import SplitDataset, check_seed, read_csv
from .em import FittedModel, fit_semisupervised, predict
from .errors import DataError, ParameterError, SslogitError
from .experiments import (
    BENCHMARK_FRACTIONS,
    BENCHMARK_SPECS,
    SIM1_N_LABELED,
    SIM2_CASES,
    BenchmarkExperiment,
    ShiftedSyntheticExperiment,
    check_labeled_fraction,
    load_benchmark,
    prediction_error,
    run_trials,
    sim1_experiment,
    sim2_experiment,
)
from .objective import TuningParams
from .ratios import (
    RATIO_CAP,
    RATIO_FLOOR,
    RatioWeights,
    UlsifConfig,
    unit_weights,
    weights_from_ulsif,
)
from .select import METHODS, WEIGHTED_METHOD, Grid, check_method, check_methods
from .select import default_grid, ridge_values, shared_search

DATA_DIR_ENV = "SSLOGIT_DATA_DIR"
MODEL_FORMAT = "sslogit-model"
MODEL_VERSION = 1
# predict formats and writes its rows this many at a time.
_PREDICT_BLOCK_ROWS = 4096


class _Parser(argparse.ArgumentParser):
    """argparse maps usage problems to exit code 2; we reserve 2 for data
    errors, so route them through ParameterError instead."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise ParameterError(message)


# ---------------------------------------------------------------------------
# Small IO helpers
# ---------------------------------------------------------------------------


def _float_list(text: str) -> tuple[float, ...]:
    try:
        vals = tuple(float(v) for v in text.split(",") if v.strip() != "")
    except ValueError:
        raise ParameterError(f"cannot parse float list {text!r}") from None
    if not vals:
        raise ParameterError(f"empty list {text!r}")
    return vals


def _write_json(path, payload) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def _render_table(title: str, col_labels: Sequence[str], rows) -> str:
    """Aligned text table; rows are (label, [cell strings])."""
    head = [title] + list(col_labels)
    table = [head] + [[label] + list(cells) for label, cells in rows]
    widths = [max(len(r[i]) for r in table) for i in range(len(head))]
    lines = []
    for r in table:
        cells = [r[0].ljust(widths[0])] + [
            c.rjust(widths[i + 1]) for i, c in enumerate(r[1:])
        ]
        lines.append("  ".join(cells).rstrip())
    lines.insert(1, "-" * len(lines[0]))
    return "\n".join(lines)


def _fmt(value: Optional[float], spec: str) -> str:
    return "-" if value is None or not np.isfinite(value) else format(value, spec)


# ---------------------------------------------------------------------------
# Standardization
# ---------------------------------------------------------------------------


def _mean_scale(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Column means and standard deviations, with scale 1 for a constant column."""
    scale = x.std(axis=0)
    scale[scale == 0.0] = 1.0
    return x.mean(axis=0), scale


def _standardized(data: SplitDataset) -> tuple[SplitDataset, dict]:
    """Every block scaled by the labeled + unlabeled pool's statistics."""
    mean, scale = _mean_scale(np.vstack([data.labeled_x, data.unlabeled_x]))
    std = {"mean": mean.tolist(), "scale": scale.tolist()}
    return replace(
        data,
        labeled_x=(data.labeled_x - mean) / scale,
        unlabeled_x=(data.unlabeled_x - mean) / scale,
        test_x=None if data.test_x is None else (data.test_x - mean) / scale,
    ), std


# ---------------------------------------------------------------------------
# Shared option groups
# ---------------------------------------------------------------------------


def _add_grid_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--grid-gamma1", type=_float_list, default=None,
                   help="comma-separated gamma1 grid (default 0.0..1.0 step 0.1)")
    p.add_argument("--grid-log10-lambda", type=_float_list, default=None,
                   help="comma-separated log10(lambda) grid (default -4.0..2.5 step 0.5)")


def _grid_from_args(args) -> Grid:
    given = {
        "gamma1_values": args.grid_gamma1,
        "log10_lambda_values": args.grid_log10_lambda,
    }
    return replace(default_grid(), **{k: v for k, v in given.items() if v is not None})


def _grid_echo(grid: Grid) -> dict:
    return {
        "gamma1": list(grid.gamma1_values),
        "gamma2": list(grid.gamma2_values),
        "log10_lambda": list(grid.log10_lambda_values),
    }


def _add_ratio_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--ratio-floor", type=float, default=RATIO_FLOOR)
    p.add_argument("--ratio-cap", type=float, default=RATIO_CAP)


def _split_methods(text: str) -> tuple[str, ...]:
    return check_methods([m.strip() for m in text.split(",") if m.strip()])


# ---------------------------------------------------------------------------
# select
# ---------------------------------------------------------------------------


def _load_user_data(
    args, methods: Sequence[str], test: Optional[str] = None
) -> tuple[SplitDataset, Optional[dict], RatioWeights]:
    """The user's CSVs, standardized if asked, with their standardization
    and ratio weights. Only WEIGHTED_METHOD reads the weights, so uLSIF runs
    only when it is among the methods; otherwise the weights are ones. The
    ratio flags and the seed are checked before any file is read."""
    config = UlsifConfig(ratio_floor=args.ratio_floor, ratio_cap=args.ratio_cap)
    check_seed(args.seed)
    weighted = WEIGHTED_METHOD in methods
    labeled_x, labeled_y = read_csv(args.labeled, has_label=True)
    if np.unique(labeled_y).size < 2:
        raise DataError(f"{args.labeled}: labeled rows must include both classes")
    if args.unlabeled:
        unlabeled_x, _ = read_csv(args.unlabeled, has_label=False)
    elif weighted:
        raise ParameterError("--unlabeled is required for the requested methods")
    else:
        unlabeled_x = np.empty((0, labeled_x.shape[1]))
    test_x = test_y = None
    if test:
        test_x, test_y = read_csv(test, has_label=True)
    data = SplitDataset(
        labeled_x=labeled_x,
        labeled_y=labeled_y,
        unlabeled_x=unlabeled_x,
        test_x=test_x,
        test_y=test_y,
    )
    data, std = _standardized(data) if args.standardize else (data, None)
    if weighted:
        return data, std, weights_from_ulsif(data, config, seed=args.seed)
    return data, std, unit_weights(data)


def _params_json(p: TuningParams, grid: Grid) -> dict:
    return {"gamma1": p.gamma1, "gamma2": p.gamma2, "log10_lambda": grid.log10_lambda(p.lam)}


# The select table: one row per (label, cell text of a method's JSON record).
_SELECT_ROWS = (
    ("gamma1", lambda r: _fmt(r["selected"]["gamma1"], ".2f")),
    ("log10 lambda", lambda r: _fmt(r["selected"]["log10_lambda"], ".2f")),
    ("GIC", lambda r: format(r["gic"], ".6g")),
    ("weighted NLL", lambda r: format(r["weighted_nll"], ".6g")),
    ("trace term", lambda r: format(r["trace_term"], ".6g")),
    ("converged", lambda r: str(r["converged"]).lower()),
    ("test PE (%)", lambda r: _fmt(r["test_pe_percent"], ".3g")),
)


def cmd_select(args) -> int:
    methods = _split_methods(args.methods)
    grid = _grid_from_args(args)
    data, std, weights = _load_user_data(args, methods, test=args.test)

    json_methods = {}
    pes: dict[int, float] = {}  # test PE per winner, by id
    search = shared_search(data, weights, grid, methods)
    for m in methods:
        sel = search.select(m)
        best, report = sel.best_model, sel.best_report
        if id(best) not in pes and data.test_x is not None:
            _, labels = predict(best, data.test_x)
            pes[id(best)] = prediction_error(labels, data.test_y)
        json_methods[m] = {
            "selected": _params_json(best.params, grid),
            "gic": report.gic,
            "weighted_nll": report.weighted_nll,
            "trace_term": report.trace_term,
            "converged": best.converged,
            "test_pe_percent": pes.get(id(best)),
            "coefficients": best.w.tolist(),
            "candidates": [
                {
                    **_params_json(c.params, grid),
                    "gic": None if c.report is None else c.report.gic,
                    "converged": c.converged,
                    "error": c.error,
                }
                for c in sel.candidates
            ],
        }
    rows = [(label, [cell(json_methods[m]) for m in methods]) for label, cell in _SELECT_ROWS]
    print(_render_table("selected", methods, rows))
    if args.output:
        payload = {
            "command": "select",
            "config": {
                "labeled": str(args.labeled),
                "unlabeled": str(args.unlabeled) if args.unlabeled else None,
                "test": str(args.test) if args.test else None,
                "methods": list(methods),
                "grid": _grid_echo(grid),
                "seed": args.seed,
                "ratio_floor": args.ratio_floor,
                "ratio_cap": args.ratio_cap,
                "standardize": bool(args.standardize),
            },
            "standardization": std,
            "methods": json_methods,
        }
        _write_json(args.output, payload)
        print(f"wrote {args.output}")
    return 0


# ---------------------------------------------------------------------------
# fit / predict
# ---------------------------------------------------------------------------


def cmd_fit(args) -> int:
    lam = float(ridge_values([args.log10_lambda])[0])
    params = TuningParams(gamma1=args.gamma1, gamma2=args.gamma2, lam=lam)
    data, std, weights = _load_user_data(args, (args.method,))
    model = fit_semisupervised(data, weights, params)
    payload = {
        "format": MODEL_FORMAT,
        "version": MODEL_VERSION,
        "method": args.method,
        "n_features": data.n_features,
        "coefficients": model.w.tolist(),
        "params": {
            "gamma1": params.gamma1,
            "gamma2": params.gamma2,
            "log10_lambda": args.log10_lambda,
        },
        "ratio_floor": args.ratio_floor,
        "ratio_cap": args.ratio_cap,
        "standardization": std,
        "seed": args.seed,
        "converged": model.converged,
        "final_objective": model.final_objective,
    }
    _write_json(args.model_out, payload)
    print(f"fit {args.method}: converged={str(model.converged).lower()} -> {args.model_out}")
    return 0


def _model_array(path, name: str, value, size: int) -> np.ndarray:
    """A saved list of numbers as a float vector of the given length."""
    try:
        arr = np.asarray(value, dtype=np.float64)
    except (TypeError, ValueError):
        raise DataError(f"{path}: {name} must be a list of numbers") from None
    if arr.shape != (size,):
        raise DataError(f"{path}: {name} length does not match n_features")
    if not np.all(np.isfinite(arr)):
        raise DataError(f"{path}: {name} values must be finite")
    return arr


def _load_model(path) -> tuple[np.ndarray, Optional[tuple[np.ndarray, np.ndarray]]]:
    """The saved coefficients and standardization (mean, scale), if any.

    Only the fields predict uses are read; DataError names the first one
    that is missing or malformed.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: invalid JSON ({exc})") from None
    if not isinstance(doc, dict) or doc.get("format") != MODEL_FORMAT:
        raise DataError(f"{path}: not a {MODEL_FORMAT} document")
    if doc.get("version") != MODEL_VERSION:
        raise DataError(f"{path}: unsupported model version {doc.get('version')}")
    for key in ("coefficients", "n_features"):
        if key not in doc:
            raise DataError(f"{path}: missing field {key!r}")
    n = doc["n_features"]
    if type(n) is not int or n < 1:
        raise DataError(f"{path}: n_features must be a positive integer")
    w = _model_array(path, "coefficient", doc["coefficients"], n + 1)
    std = doc.get("standardization")
    if std is not None:
        if not isinstance(std, dict):
            raise DataError(f"{path}: standardization must be an object")
        mean, scale = (
            _model_array(path, f"standardization {key}", std.get(key), n)
            for key in ("mean", "scale")
        )
        if np.any(scale <= 0.0):
            raise DataError(f"{path}: standardization scale must be positive")
        std = (mean, scale)
    return w, std


def cmd_predict(args) -> int:
    w, std = _load_model(args.model)
    x, _ = read_csv(args.data, has_label=False)
    n_features = w.size - 1
    if x.shape[1] != n_features:
        raise DataError(
            f"{args.data}: {x.shape[1]} features, model expects {n_features}"
        )
    if std is not None:
        mean, scale = std
        x = (x - mean) / scale
    # predict reads the coefficients alone; the saved fit details are not loaded.
    model = FittedModel(w, None, None, None, None, None, None)
    probs, labels = predict(model, x)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            _write_predictions(fh, probs, labels)
        print(f"wrote {args.output} ({len(probs)} rows)")
    else:
        _write_predictions(sys.stdout, probs, labels)
    return 0


def _write_predictions(fh, probs: np.ndarray, labels: np.ndarray) -> None:
    """The predictions CSV, formatted and written _PREDICT_BLOCK_ROWS rows at
    a time, so its text never holds more than one block."""
    fh.write("probability,label\n")
    for i in range(0, len(probs), _PREDICT_BLOCK_ROWS):
        block = slice(i, i + _PREDICT_BLOCK_ROWS)
        fh.write("".join(map("{!r},{}\n".format, probs[block].tolist(), labels[block].tolist())))


# ---------------------------------------------------------------------------
# replicate
# ---------------------------------------------------------------------------


def _replicate_tables(setting_label, settings, runs, methods) -> str:
    """One aligned table: PE and mean selected parameters per method."""
    rows = []
    for m in methods:
        rows.append(
            (f"PE {m}", [_fmt(r.summary(m).mean_pe_percent, ".3g") for r in runs])
        )
    for m in methods:
        if m == WEIGHTED_METHOD:
            rows.append(
                (f"gamma1 {m}", [_fmt(r.summary(m).mean_gamma1, ".2f") for r in runs])
            )
        rows.append(
            (f"log10 lambda {m}", [_fmt(r.summary(m).mean_log10_lambda, ".2f") for r in runs])
        )
    failures = [
        "/".join(str(r.summary(m).n_failed) for m in methods) for r in runs
    ]
    if any(f.strip("/0") for f in failures):
        rows.append((f"failed trials ({'/'.join(methods)})", failures))
    return _render_table(setting_label, settings, rows)


def _check_study_flags(args) -> None:
    """Reject the replicate flags that the chosen study would ignore."""
    study = args.study
    if study == "bench" and not args.dataset:
        raise ParameterError("replicate bench requires --dataset")
    from_files = study == "bench" and args.dataset != "synthetic"
    for flag, value, applies in (
        ("--n", args.n, study == "sim1"),
        ("--case", args.case, study == "sim2"),
        ("--dataset", args.dataset, study == "bench"),
        ("--fractions", args.fractions, study == "bench"),
        ("--data-dir", args.data_dir, from_files),
        ("--no-strict", args.no_strict, from_files),
        ("--standardize", args.standardize, from_files),
    ):
        if value is not None and value is not False and not applies:
            where = "bench --dataset synthetic" if study == "bench" else study
            raise ParameterError(f"{flag} does not apply to replicate {where}")


def cmd_replicate(args) -> int:
    _check_study_flags(args)
    methods = _split_methods(args.methods)
    grid = _grid_from_args(args)
    study = args.study

    experiments = []
    if study == "sim1":
        ns = [args.n] if args.n is not None else list(SIM1_N_LABELED)
        for n in ns:
            experiments.append((f"n={n}", sim1_experiment(n)))
    elif study == "sim2":
        cases = [args.case] if args.case is not None else list(SIM2_CASES)
        for c in cases:
            experiments.append((f"case={c}", sim2_experiment(c)))
    else:
        fractions = (
            tuple(check_labeled_fraction(f / 100.0) for f in args.fractions)
            if args.fractions is not None
            else BENCHMARK_FRACTIONS
        )
        if args.dataset == "synthetic":
            for f in fractions:
                experiments.append(
                    (f"{round(100 * f)}%", ShiftedSyntheticExperiment(labeled_fraction=f))
                )
        else:
            data_dir = args.data_dir or os.environ.get(DATA_DIR_ENV) or "."
            train_x, train_y, test_x, test_y = load_benchmark(
                args.dataset, data_dir, strict=not args.no_strict
            )
            if args.standardize:
                mean, scale = _mean_scale(train_x)
                train_x = (train_x - mean) / scale
                test_x = (test_x - mean) / scale
            for f in fractions:
                experiments.append(
                    (
                        f"{round(100 * f)}%",
                        BenchmarkExperiment(
                            dataset=args.dataset,
                            train_x=train_x,
                            train_y=train_y,
                            test_x=test_x,
                            test_y=test_y,
                            labeled_fraction=f,
                        ),
                    )
                )

    runs = []
    for label, exp in experiments:
        run = run_trials(
            exp,
            methods=methods,
            n_trials=args.trials,
            base_seed=args.seed,
            grid=grid,
        )
        runs.append((label, run))

    col_title = {"sim1": "labeled n", "sim2": "case", "bench": "labeled %"}[study]
    print(
        _replicate_tables(
            col_title, [label for label, _ in runs], [r for _, r in runs], methods
        )
    )

    if args.output:
        payload = {
            "command": "replicate",
            "study": study,
            "config": {
                "methods": list(methods),
                "trials": args.trials,
                "seed": args.seed,
                "grid": _grid_echo(grid),
                "settings": [label for label, _ in runs],
                "dataset": args.dataset,
                "standardize": args.standardize,
            },
            "results": {label: asdict(run) for label, run in runs},
        }
        _write_json(args.output, payload)
        print(f"wrote {args.output}")
    return 0


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="sslogit",
        description=(
            "Semi-supervised logistic discrimination under covariate shift: "
            "density-ratio-weighted ridge logistic fitting with "
            "information-criterion tuning."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sel = sub.add_parser("select", help="grid-search tuning parameters on user CSVs")
    p_sel.add_argument("--labeled", required=True, help="CSV with features + final 'label' column")
    p_sel.add_argument("--unlabeled", default=None, help="CSV with feature columns only")
    p_sel.add_argument("--test", default=None, help="optional labeled CSV for test PE")
    p_sel.add_argument("--methods", default="sslrcs",
                       help="comma-separated subset of sslrcs,lsslr,slr")
    p_sel.add_argument("--seed", type=int, default=0)
    p_sel.add_argument("--standardize", action="store_true",
                       help="z-score features using the labeled+unlabeled pool")
    p_sel.add_argument("--output", default=None, help="write full results JSON here")
    _add_grid_flags(p_sel)
    _add_ratio_flags(p_sel)
    p_sel.set_defaults(func=cmd_select)

    p_fit = sub.add_parser("fit", help="fit a single model and save it as JSON")
    p_fit.add_argument("--labeled", required=True)
    p_fit.add_argument("--unlabeled", default=None)
    p_fit.add_argument("--method", default="sslrcs", type=check_method,
                       metavar="{" + ",".join(METHODS) + "}")
    p_fit.add_argument("--gamma1", type=float, default=0.0)
    p_fit.add_argument("--gamma2", type=float, default=0.0,
                       help="accepted; has no effect")
    p_fit.add_argument("--log10-lambda", type=float, default=-2.0)
    p_fit.add_argument("--seed", type=int, default=0)
    p_fit.add_argument("--standardize", action="store_true")
    p_fit.add_argument("--model-out", dest="model_out", required=True)
    _add_ratio_flags(p_fit)
    p_fit.set_defaults(func=cmd_fit)

    p_pred = sub.add_parser("predict", help="apply a saved model to feature rows")
    p_pred.add_argument("--model", required=True)
    p_pred.add_argument("--data", required=True, help="CSV with feature columns only")
    p_pred.add_argument("--output", default=None, help="CSV path (default stdout)")
    p_pred.set_defaults(func=cmd_predict)

    p_rep = sub.add_parser("replicate", help="run the published study protocols")
    p_rep.add_argument("study", choices=("sim1", "sim2", "bench"))
    p_rep.add_argument("--trials", type=int, default=50)
    p_rep.add_argument("--seed", type=int, default=0)
    p_rep.add_argument("--methods", default="sslrcs,lsslr,slr")
    p_rep.add_argument("--n", type=int, default=None,
                       help="sim1 only: restrict to one labeled size")
    p_rep.add_argument("--case", type=int, default=None,
                       help="sim2 only: restrict to one case")
    p_rep.add_argument("--dataset", default=None,
                       help="bench only: g10, ionosphere, pima, or synthetic")
    p_rep.add_argument("--data-dir", default=None,
                       help=f"bench only: directory with CSVs (default ${DATA_DIR_ENV} or .)")
    p_rep.add_argument("--fractions", type=_float_list, default=None,
                       help="bench only: comma-separated labeled percentages")
    p_rep.add_argument("--no-strict", action="store_true",
                       help="bench only: warn instead of fail on split-size mismatch")
    p_rep.add_argument("--standardize", action="store_true",
                       help="bench only: z-score features using the training pool")
    p_rep.add_argument("--output", default=None, help="write full results JSON here")
    _add_grid_flags(p_rep)
    p_rep.set_defaults(func=cmd_replicate)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except SslogitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
