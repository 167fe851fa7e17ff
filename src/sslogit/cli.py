"""Command-line front end: select, fit, predict, and replicate.

Every command is deterministic given its flags and seed. JSON outputs embed
the effective configuration and carry no timestamps, so identical
invocations produce identical bytes. Exit codes: 0 success, 1 usage,
2 data error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict
from typing import Optional, Sequence

import numpy as np

from .data import SplitDataset, read_csv
from .em import FittedModel, fit_semisupervised, predict
from .errors import DataError, NumericalError, ParameterError, SslogitError
from .experiments import (
    BENCHMARK_FRACTIONS,
    BENCHMARK_SPECS,
    SIM1_N_LABELED,
    SIM2_CASES,
    BenchmarkExperiment,
    ShiftedSyntheticExperiment,
    load_benchmark,
    run_trials,
    sim1_experiment,
    sim2_experiment,
)
from .objective import TuningParams
from .ratios import RATIO_CAP, RATIO_FLOOR, UlsifConfig, unit_weights, weights_from_ulsif
from .select import METHODS, Grid, default_grid, grid_search

DATA_DIR_ENV = "SSLOGIT_DATA_DIR"
MODEL_FORMAT = "sslogit-model"
MODEL_VERSION = 1


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


def _fmt_pe(value: float) -> str:
    return "-" if value is None or not np.isfinite(value) else f"{value:.3g}"


def _fmt2(value: float) -> str:
    return "-" if value is None or not np.isfinite(value) else f"{value:.2f}"


# ---------------------------------------------------------------------------
# Standardization
# ---------------------------------------------------------------------------


def _standardize_stats(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    mean = x.mean(axis=0)
    scale = x.std(axis=0)
    scale[scale == 0.0] = 1.0
    return mean, scale


def _apply_standardize(x: Optional[np.ndarray], mean, scale):
    return None if x is None else (x - mean) / scale


def _standardized(data: SplitDataset) -> tuple[SplitDataset, dict]:
    """Every block scaled by the labeled + unlabeled pool's statistics."""
    mean, scale = _standardize_stats(np.vstack([data.labeled_x, data.unlabeled_x]))
    std = {"mean": mean.tolist(), "scale": scale.tolist()}
    return SplitDataset(
        labeled_x=_apply_standardize(data.labeled_x, mean, scale),
        labeled_y=data.labeled_y,
        unlabeled_x=_apply_standardize(data.unlabeled_x, mean, scale),
        test_x=_apply_standardize(data.test_x, mean, scale),
        test_y=data.test_y,
    ), std


# ---------------------------------------------------------------------------
# Shared option groups
# ---------------------------------------------------------------------------


def _add_grid_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--grid-gamma1", type=str, default=None,
                   help="comma-separated gamma1 grid (default 0.0..1.0 step 0.1)")
    p.add_argument("--grid-gamma2", type=str, default=None,
                   help="comma-separated gamma2 grid; accepted; has no effect")
    p.add_argument("--grid-log10-lambda", type=str, default=None,
                   help="comma-separated log10(lambda) grid (default -4.0..2.5 step 0.5)")


def _grid_from_args(args) -> Grid:
    # None means the flag was omitted; an empty string is a user error and
    # must fail in _float_list rather than silently fall back to the default.
    base = default_grid()
    return Grid(
        gamma1_values=(
            _float_list(args.grid_gamma1)
            if args.grid_gamma1 is not None
            else base.gamma1_values
        ),
        gamma2_values=(
            _float_list(args.grid_gamma2)
            if args.grid_gamma2 is not None
            else base.gamma2_values
        ),
        log10_lambda_values=(
            _float_list(args.grid_log10_lambda)
            if args.grid_log10_lambda is not None
            else base.log10_lambda_values
        ),
    )


def _grid_echo(grid: Grid) -> dict:
    return {
        "gamma1": list(grid.gamma1_values),
        "gamma2": list(grid.gamma2_values),
        "log10_lambda": list(grid.log10_lambda_values),
    }


def _add_ratio_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--ratio-floor", type=float, default=RATIO_FLOOR)
    p.add_argument("--ratio-cap", type=float, default=RATIO_CAP)


def _ulsif_config(args) -> UlsifConfig:
    return UlsifConfig(ratio_floor=args.ratio_floor, ratio_cap=args.ratio_cap)


def _split_methods(text: str) -> tuple[str, ...]:
    methods = tuple(m.strip().lower() for m in text.split(",") if m.strip())
    for m in methods:
        if m not in METHODS:
            raise ParameterError(f"unknown method {m!r}; choose from {METHODS}")
    if not methods:
        raise ParameterError("no methods requested")
    return methods


# ---------------------------------------------------------------------------
# select
# ---------------------------------------------------------------------------


def _load_user_data(args, need_unlabeled: bool) -> SplitDataset:
    labeled_x, labeled_y = read_csv(args.labeled, has_label=True)
    if args.unlabeled:
        unlabeled_x, _ = read_csv(args.unlabeled, has_label=False)
    elif need_unlabeled:
        raise ParameterError("--unlabeled is required for the requested methods")
    else:
        unlabeled_x = np.empty((0, labeled_x.shape[1]))
    test_x = test_y = None
    if args.test:
        test_x, test_y = read_csv(args.test, has_label=True)
    return SplitDataset(
        labeled_x=labeled_x,
        labeled_y=labeled_y,
        unlabeled_x=unlabeled_x,
        test_x=test_x,
        test_y=test_y,
    )


def cmd_select(args) -> int:
    methods = _split_methods(args.methods)
    need_unl = any(m in ("sslrcs", "lsslr") for m in methods)
    data = _load_user_data(args, need_unl)
    data, std = _standardized(data) if args.standardize else (data, None)
    if data.n_unlabeled > 0:
        weights = weights_from_ulsif(data, _ulsif_config(args), seed=args.seed)
    else:
        weights = unit_weights(data)
    grid = _grid_from_args(args)

    col_labels = list(methods)
    field_rows = {name: [] for name in (
        "gamma1", "gamma2", "log10 lambda", "GIC", "weighted NLL",
        "trace term", "EM iterations", "converged", "test PE (%)",
    )}
    json_methods = {}
    for m in methods:
        sel = grid_search(data, weights, grid=grid, method=m)
        best, report = sel.best_model, sel.best_report
        pe = None
        if data.test_x is not None:
            _, labels = predict(best, data.test_x)
            from .experiments import prediction_error

            pe = prediction_error(labels, data.test_y)
        field_rows["gamma1"].append(_fmt2(best.params.gamma1))
        field_rows["gamma2"].append(_fmt2(best.params.gamma2))
        field_rows["log10 lambda"].append(_fmt2(float(np.log10(best.params.lam))))
        field_rows["GIC"].append(f"{report.gic:.6g}")
        field_rows["weighted NLL"].append(f"{report.weighted_nll:.6g}")
        field_rows["trace term"].append(f"{report.trace_term:.6g}")
        field_rows["EM iterations"].append(str(best.em_iterations))
        field_rows["converged"].append(str(best.converged).lower())
        field_rows["test PE (%)"].append(_fmt_pe(pe) if pe is not None else "-")
        json_methods[m] = {
            "selected": {
                "gamma1": best.params.gamma1,
                "gamma2": best.params.gamma2,
                "log10_lambda": float(np.log10(best.params.lam)),
            },
            "gic": report.gic,
            "weighted_nll": report.weighted_nll,
            "trace_term": report.trace_term,
            "em_iterations": best.em_iterations,
            "converged": best.converged,
            "test_pe_percent": pe,
            "coefficients": best.w.tolist(),
            "candidates": [
                {
                    "gamma1": c.params.gamma1,
                    "gamma2": c.params.gamma2,
                    "log10_lambda": float(np.log10(c.params.lam)),
                    "gic": None if c.report is None else c.report.gic,
                    "converged": c.converged,
                    "error": c.error,
                }
                for c in sel.candidates
            ],
        }
    print(_render_table("selected", col_labels, list(field_rows.items())))
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
    method = args.method.lower()
    if method not in METHODS:
        raise ParameterError(f"unknown method {args.method!r}")
    data = _load_user_data(args, need_unlabeled=method in ("sslrcs", "lsslr"))
    data, std = _standardized(data) if args.standardize else (data, None)
    params = TuningParams(
        gamma1=args.gamma1, gamma2=args.gamma2, lam=10.0**args.log10_lambda
    )
    if method == "sslrcs":
        weights = weights_from_ulsif(data, _ulsif_config(args), seed=args.seed)
    else:
        weights = unit_weights(data)
    model = fit_semisupervised(data, weights, params)
    payload = {
        "format": MODEL_FORMAT,
        "version": MODEL_VERSION,
        "method": method,
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
        "em_iterations": model.em_iterations,
        "converged": model.converged,
        "final_objective": model.final_objective,
    }
    _write_json(args.model_out, payload)
    print(
        f"fit {method}: em_iterations={model.em_iterations} "
        f"converged={str(model.converged).lower()} -> {args.model_out}"
    )
    return 0


def _load_model(path) -> dict:
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
    if len(doc["coefficients"]) != doc["n_features"] + 1:
        raise DataError(f"{path}: coefficient length does not match n_features")
    return doc


def cmd_predict(args) -> int:
    doc = _load_model(args.model)
    x, _ = read_csv(args.data, has_label=False)
    if x.shape[1] != doc["n_features"]:
        raise DataError(
            f"{args.data}: {x.shape[1]} features, model expects {doc['n_features']}"
        )
    std = doc.get("standardization")
    if std:
        x = _apply_standardize(
            x, np.asarray(std["mean"]), np.asarray(std["scale"])
        )
    w = np.asarray(doc["coefficients"], dtype=np.float64)
    params = doc.get("params", {})
    model = FittedModel(
        w=w,
        t_hat=np.empty(0),
        params=TuningParams(
            gamma1=params.get("gamma1", 0.0),
            gamma2=params.get("gamma2", 0.0),
            lam=10.0 ** params.get("log10_lambda", 0.0),
        ),
        em_iterations=int(doc.get("em_iterations", 0)),
        final_objective=float(doc.get("final_objective", 0.0)),
        converged=bool(doc.get("converged", True)),
        newton_diagnostics=None,
    )
    probs, labels = predict(model, x)
    lines = ["probability,label"]
    lines += [f"{repr(float(p))},{int(l)}" for p, l in zip(probs, labels)]
    text = "\n".join(lines) + "\n"
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {args.output} ({len(probs)} rows)")
    else:
        sys.stdout.write(text)
    return 0


# ---------------------------------------------------------------------------
# replicate
# ---------------------------------------------------------------------------


def _run_payload(run) -> dict:
    doc = asdict(run)
    doc["methods"] = list(run.methods)
    return doc


def _replicate_tables(setting_label, settings, runs, methods) -> str:
    """One aligned table: PE and mean selected parameters per method."""
    rows = []
    for m in methods:
        rows.append(
            (f"PE {m}", [_fmt_pe(r.summary(m).mean_pe_percent) for r in runs])
        )
    for m in methods:
        if m == "sslrcs":
            rows.append(
                ("gamma1 sslrcs", [_fmt2(r.summary(m).mean_gamma1) for r in runs])
            )
        rows.append(
            (f"log10 lambda {m}", [_fmt2(r.summary(m).mean_log10_lambda) for r in runs])
        )
    failures = [
        "/".join(str(r.summary(m).n_failed) for m in methods) for r in runs
    ]
    if any(f.strip("/0") for f in failures):
        rows.append((f"failed trials ({'/'.join(methods)})", failures))
    return _render_table(setting_label, settings, rows)


def cmd_replicate(args) -> int:
    methods = _split_methods(args.methods)
    grid = _grid_from_args(args)
    study = args.study

    experiments = []
    if study == "sim1":
        ns = [args.n] if args.n else list(SIM1_N_LABELED)
        for n in ns:
            experiments.append((f"n={n}", sim1_experiment(n)))
    elif study == "sim2":
        cases = [args.case] if args.case else list(SIM2_CASES)
        for c in cases:
            experiments.append((f"case={c}", sim2_experiment(c)))
    else:
        fractions = (
            tuple(f / 100.0 for f in _float_list(args.fractions))
            if args.fractions
            else BENCHMARK_FRACTIONS
        )
        for f in fractions:
            if not 0.0 < f < 1.0:
                raise ParameterError(f"labeled fraction {f} out of (0, 1)")
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
                mean, scale = _standardize_stats(train_x)
                train_x = _apply_standardize(train_x, mean, scale)
                test_x = _apply_standardize(test_x, mean, scale)
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
                "dataset": getattr(args, "dataset", None),
                "standardize": bool(getattr(args, "standardize", False)),
            },
            "results": {label: _run_payload(run) for label, run in runs},
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
    p_fit.add_argument("--test", default=None)
    p_fit.add_argument("--method", default="sslrcs", help="sslrcs, lsslr, or slr")
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
    p_rep.add_argument("--fractions", default=None,
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
        if args.command == "replicate" and args.study == "bench" and not args.dataset:
            raise ParameterError("replicate bench requires --dataset")
        return args.func(args)
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except SslogitError as exc:  # defensive: unmapped subclass
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
