#!/usr/bin/env python3
"""Digests of the command line's output bytes, for checking that a change keeps them.

    python scripts/output_digests.py CHECKOUT WORKDIR

Imports sslogit from CHECKOUT/src and runs a fixed set of commands through
sslogit.cli.main, one after another in this process, with WORKDIR as the
working directory and one BLAS thread. The input CSVs are written to
WORKDIR/data by this script's own seeded generator, so they do not depend
on the checkout; the commands write to WORKDIR/out. For each command it
prints one line, "<sha256>  <name>", where the hash covers the exit code,
standard output, standard error and the bytes of every file the command
writes. A warning is printed as "<category>: <message>", without the
source path, which names the checkout.

To compare two trees, run both with the same WORKDIR (the commands print
relative paths, and the JSON outputs echo them) and diff the two outputs:

    python scripts/output_digests.py old-tree /tmp/digests > old.txt
    python scripts/output_digests.py . /tmp/digests > new.txt
    diff old.txt new.txt
"""

import contextlib
import hashlib
import io
import os
import sys
import traceback
import warnings
from pathlib import Path

# Inputs: (name, labeled rows, unlabeled rows, test rows, features, seed).
# b10 pools more than 1,000 rows, so uLSIF's median heuristic subsamples,
# and has the 10 features of the benchmark's predict file;
# c3 has more labeled rows than one of uLSIF's 512-row blocks.
DATASETS = (
    ("a2", 40, 60, 50, 2, 11), ("b10", 120, 1000, 200, 10, 12),
    ("c3", 700, 1600, 100, 3, 13),
)


def _select(name, data, *flags):
    """A select command on one input set, writing its JSON."""
    argv = ["select", "--labeled", f"data/{data}_lab.csv", *flags,
            "--output", f"out/{name}.json"]
    return name, argv, [f"out/{name}.json"]


def _fit_predict(method, *flags, data="a2"):
    """A fit on one input set and a predict of its unlabeled rows; the names
    carry the set unless it is a2."""
    tag = method if data == "a2" else f"{data}-{method}"
    model, preds = f"out/model-{tag}.json", f"out/pred-{tag}.csv"
    fit = ["fit", "--labeled", f"data/{data}_lab.csv", "--unlabeled", f"data/{data}_unl.csv",
           "--method", method, *flags, "--model-out", model]
    predict = ["predict", "--model", model, "--data", f"data/{data}_unl.csv"]
    if method != "slr":  # slr's predictions go to standard output
        predict += ["--output", preds]
    return [(f"fit-{tag}", fit, [model]),
            (f"predict-{tag}", predict, [preds] if method != "slr" else [])]


def _replicate(name, *args):
    return name, ["replicate", *args, "--output", f"out/{name}.json"], [f"out/{name}.json"]


COMMANDS = [
    *(
        cmd
        for d in ("a2", "b10")
        for cmd in (
            _select(f"select-{d}-sslrcs", d, "--unlabeled", f"data/{d}_unl.csv"),
            _select(f"select-{d}-all-test", d, "--unlabeled", f"data/{d}_unl.csv",
                    "--methods", "sslrcs,lsslr,slr", "--test", f"data/{d}_test.csv"),
            _select(f"select-{d}-baselines", d, "--methods", "slr,lsslr"),
            _select(f"select-{d}-grid", d, "--unlabeled", f"data/{d}_unl.csv",
                    "--methods", "lsslr,sslrcs", "--grid-gamma1=0.25,1",
                    "--grid-log10-lambda=-3,-1,1"),
            _select(f"select-{d}-standardize", d, "--unlabeled", f"data/{d}_unl.csv",
                    "--methods", "sslrcs,slr", "--standardize", "--test",
                    f"data/{d}_test.csv", "--seed", "3"),
        )
    ),
    _select("select-a2-negative-zero", "a2", "--unlabeled", "data/a2_unl.csv",
            "--methods", "sslrcs,lsslr,slr", "--grid-gamma1=-0,0.5"),
    # -0.3 and -0.4 are grid values whose np.log10(10**v) is not v.
    _select("select-user-lambda-grid", "a2", "--unlabeled", "data/a2_unl.csv",
            "--methods", "sslrcs,slr", "--grid-gamma1=0,0.5",
            "--grid-log10-lambda=-0.3,-0.4,0.5"),
    _select("select-c3-sslrcs", "c3", "--unlabeled", "data/c3_unl.csv"),
    ("fit-c3-sslrcs", ["fit", "--labeled", "data/c3_lab.csv", "--unlabeled", "data/c3_unl.csv",
                       "--method", "sslrcs", "--gamma1", "0.5", "--log10-lambda", "-1",
                       "--model-out", "out/model-c3-sslrcs.json"],
     ["out/model-c3-sslrcs.json"]),
    *_fit_predict("sslrcs", "--gamma1", "0.5", "--log10-lambda", "-1"),
    *_fit_predict("lsslr", "--gamma2", "0.5"),
    *_fit_predict("slr", "--standardize", "--log10-lambda", "0.5"),
    # 10 features, as the benchmark's fit and predict use.
    *_fit_predict("sslrcs", "--gamma1", "0.5", "--log10-lambda", "-1", data="b10"),
    ("fit-slr-top-lambda", ["fit", "--labeled", "data/a2_lab.csv", "--method", "slr",
                            "--log10-lambda", "2.5", "--model-out", "out/model-slr-top.json"],
     ["out/model-slr-top.json"]),
    _replicate("replicate-sim1", "sim1", "--trials", "2"),
    _replicate("replicate-sim1-methods", "sim1", "--n", "50", "--trials", "3",
               "--methods", "slr,sslrcs"),
    _replicate("replicate-sim1-grid", "sim1", "--n", "25", "--trials", "2",
               "--grid-gamma1=0,0.5,1", "--grid-log10-lambda=-2,0"),
    _replicate("replicate-sim2", "sim2", "--trials", "1"),
    _replicate("replicate-sim2-baselines", "sim2", "--methods", "slr,lsslr", "--trials", "2"),
    _replicate("replicate-bench-synthetic", "bench", "--dataset", "synthetic",
               "--trials", "1", "--fractions", "10,20"),
    ("usage-unknown-method", ["select", "--labeled", "data/a2_lab.csv", "--methods", "svm"], []),
    ("usage-fit-unknown-method", ["fit", "--labeled", "data/a2_lab.csv", "--method", "svm",
                                  "--model-out", "out/model-svm.json"], ["out/model-svm.json"]),
    ("usage-repeated-method", ["select", "--labeled", "data/a2_lab.csv", "--methods", "slr,SLR"],
     []),
    ("usage-bad-fraction", ["replicate", "bench", "--dataset", "pima", "--data-dir", "missing",
                            "--fractions", "10,150"], []),
    ("usage-missing-flag", ["fit", "--labeled", "data/a2_lab.csv"], []),
    ("usage-negative-seed", ["select", "--labeled", "data/a2_lab.csv", "--seed", "-1"], []),
    ("help", ["--help"], []),
    *((f"help-{c}", [c, "--help"], []) for c in ("select", "fit", "predict", "replicate")),
]


def _write_inputs(workdir: Path) -> None:
    import numpy as np

    (workdir / "data").mkdir(parents=True, exist_ok=True)
    for name, n_lab, n_unl, n_test, p, seed in DATASETS:
        rng = np.random.default_rng(seed)
        coef = rng.normal(size=p)

        def write(path, x, labels):
            head = [f"x{j}" for j in range(p)] + (["label"] if labels else [])
            lines = [",".join(head)]
            for row in x:
                cells = [f"{v:.6f}" for v in row]
                if labels:
                    cells.append(str(int(rng.random() < 1.0 / (1.0 + np.exp(-row @ coef)))))
                lines.append(",".join(cells))
            (workdir / "data" / path).write_text("\n".join(lines) + "\n", encoding="utf-8")

        write(f"{name}_lab.csv", rng.normal(size=(n_lab, p)), True)
        write(f"{name}_unl.csv", rng.normal(0.5, 1.2, size=(n_unl, p)), False)
        write(f"{name}_test.csv", rng.normal(0.25, 1.1, size=(n_test, p)), True)


def _run(main, argv, outputs) -> str:
    """One command's digest over its exit code, streams and written files."""
    for path in outputs:
        Path(path).unlink(missing_ok=True)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # --help, and argparse's own exits
            code = exc.code
        except Exception as exc:  # hashed as output; the traceback names the checkout
            code = f"{type(exc).__name__}: {exc}"
            traceback.print_exc(file=sys.__stderr__)
    h = hashlib.sha256()
    for part in (f"exit {code}", out.getvalue(), err.getvalue()):
        h.update(part.encode("utf-8") + b"\0")
    for path in outputs:
        h.update(path.encode("utf-8") + b"\0")
        h.update(Path(path).read_bytes() if Path(path).exists() else b"<missing>")
        h.update(b"\0")
    return h.hexdigest()


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__.strip().split("\n\n")[1], file=sys.stderr)
        return 1
    checkout, workdir = Path(args[0]).resolve(), Path(args[1]).resolve()
    src = checkout / "src"
    sys.path.insert(0, str(src))
    import sslogit.cli

    if not Path(sslogit.cli.__file__).resolve().is_relative_to(src):
        print(f"sslogit was not imported from {src}", file=sys.stderr)
        return 1
    _write_inputs(workdir)
    (workdir / "out").mkdir(exist_ok=True)
    os.chdir(workdir)
    os.environ.pop("SSLOGIT_DATA_DIR", None)
    warnings.simplefilter("always")
    warnings.showwarning = lambda message, category, *rest: sys.stderr.write(
        f"{category.__name__}: {message}\n"
    )
    for name, cmd, outputs in COMMANDS:
        print(f"{_run(sslogit.cli.main, cmd, outputs)}  {name}", flush=True)
    return 0


if __name__ == "__main__":
    # Before numpy is imported: output bytes must not depend on BLAS threads,
    # and help text must not depend on the terminal.
    os.environ.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                       "MKL_NUM_THREADS": "1", "COLUMNS": "80"})
    sys.exit(main())
