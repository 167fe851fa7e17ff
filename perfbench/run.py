#!/usr/bin/env python3
"""Benchmark for sslogit: end-to-end timings per workload, or a traced
pass that splits an op's time across the package's layers.

    python3 perfbench/run.py --workload sim1-exact --seed 1 --seconds 45 --trace 0

Run it from anywhere inside a checkout; it imports sslogit from the
checkout's ``src`` directory. One process runs the ops in a closed loop
with one client: the next op starts when the previous one returns.
``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones. The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds the environment and the details behind each number. The exit code
is 0 only when every correctness check passed.

See perfbench/README.md for the workloads and how to read the output.
"""

import os

# Pin BLAS to one thread before anything imports numpy: at the default
# thread count a contended host slows single small solves by orders of
# magnitude, and the timings would measure the scheduler.
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
os.environ.update(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"

END_TO_END = {
    "op_s_p50": "s",
    "op_s_tail": "s",
    "ops_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "fraction",
    "mean_pe_sslrcs": "%",
    "mean_pe_lsslr": "%",
    "mean_pe_slr": "%",
}


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("sim1-exact", "cli-fit-predict"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=45.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="tiny inputs, for testing the benchmark itself")
    p.add_argument("--setup-probe", metavar="DIR", default=None,
                   help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    return args


def _import_sslogit() -> None:
    """Import sslogit from this checkout, never from an installed copy."""
    sys.path.insert(0, str(SRC))
    import sslogit

    if Path(sslogit.__file__).resolve().parent != SRC / "sslogit":
        raise ImportError(f"sslogit imported from {sslogit.__file__}, not {SRC}")


def setup_probe(args) -> int:
    """Child process: time importing sslogit plus one warm-up op."""
    start = time.perf_counter()
    _import_sslogit()
    import workloads

    wl = workloads.make(args.workload, args.seed, _size(args))
    wl.load(Path(args.setup_probe))
    wl.op(0, "probe")
    print(time.perf_counter() - start)
    return 0


def _size(args):
    import workloads

    return workloads.TINY if args.tiny else workloads.FULL


def _measure_setup(args, workdir: Path, samples: int) -> list[float]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe", str(workdir)]
    if args.tiny:
        cmd.append("--tiny")
    out = []
    for _ in range(samples):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=150)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        out.append(float(proc.stdout.strip().splitlines()[-1]))
    return out


def _run_op(wl, i: int, tag: str, failures: list):
    """One op; an exception is recorded as a failed op, not raised."""
    try:
        return wl.op(i, tag)
    except Exception:  # the op's failure is a result, the run goes on
        failures.append(traceback.format_exc())
        return None


def _tail(times: list[float]) -> tuple[float, float]:
    """Value and percentile of the highest percentile with at least ten
    ops beyond it (the maximum when there are ten ops or fewer)."""
    xs = sorted(times)
    if len(xs) <= 10:
        return xs[-1], 100.0
    k = len(xs) - 11
    return xs[k], 100.0 * (k + 1) / len(xs)


def _blas() -> dict:
    import numpy as np

    try:
        dep = np.__config__.CONFIG["Build Dependencies"]["blas"]
        return {"name": dep.get("name"), "version": dep.get("version")}
    except (AttributeError, KeyError, TypeError):
        return {"name": "unknown", "version": "unknown"}


def _git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; "unknown"
    outside a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _environment() -> dict:
    import numpy as np
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "blas": _blas(),
        "blas_threads": {k: os.environ.get(k) for k in BLAS_THREADS},
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "git_commit": _git_commit(),
        "load": "closed loop, one client, one process",
    }


def _timed_loop(wl, seconds: float, min_ops: int, run_one):
    """Run ops until ``seconds`` have passed and at least ``min_ops`` ops
    ran, stopping at a cycle boundary. Returns (outputs, wall)."""
    outputs = []
    start = time.perf_counter()
    i = 0
    while True:
        outputs.append(run_one(i))
        i += 1
        if i % wl.cycle == 0 and i >= min_ops and time.perf_counter() - start >= seconds:
            return outputs, time.perf_counter() - start


class _Phases:
    """Wall seconds spent in each phase of a run, for the report."""

    def __init__(self):
        self.seconds: dict[str, float] = {}
        self._last = time.perf_counter()

    def mark(self, name: str) -> None:
        now = time.perf_counter()
        self.seconds[name] = now - self._last
        self._last = now


def _check_all(wl, outs) -> tuple[int, list[str]]:
    failed, errors = 0, []
    for i, out in enumerate(outs):
        if out is None:
            failed += 1
            errors.append(f"op {i}: raised")
            continue
        if wl.failed(out):
            failed += 1
        errors += [f"op {i}: {e}" for e in wl.check(out)]
    return failed, errors


def _same_bytes(wl, a, b) -> bool:
    return a is not None and b is not None and wl.serialize(a) == wl.serialize(b)


def end_to_end(args, wl, workdir: Path, failures: list) -> tuple[dict, dict]:
    phases = _Phases()
    setup = _measure_setup(args, workdir, wl.size.setup_samples)
    wl.load(workdir)
    _run_op(wl, 0, "warm", failures)
    phases.mark("setup")

    times: list[float] = []

    def run_one(i):
        t = time.perf_counter()
        out = _run_op(wl, i, "", failures)
        times.append(time.perf_counter() - t)
        return out

    outs, wall = _timed_loop(wl, args.seconds, wl.min_ops, run_one)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    phases.mark("timed")

    failed, errors = _check_all(wl, outs)
    if not _same_bytes(wl, outs[0], _run_op(wl, 0, "rerun", failures)):
        errors.append("op 0 re-run: output bytes differ from the first run")
    phases.mark("checks")
    pe = wl.mean_pe([o for o in outs[: wl.min_ops] if o is not None])
    phases.mark("accuracy")
    tail, tail_pct = _tail(times)
    values = {
        "op_s_p50": statistics.median(times),
        "op_s_tail": tail,
        "ops_per_s": len(outs) / wall,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": rss_mb,
        "ok_frac": 1.0 - failed / len(outs),
        "mean_pe_sslrcs": pe["sslrcs"],
        "mean_pe_lsslr": pe["lsslr"],
        "mean_pe_slr": pe["slr"],
    }
    detail = {
        "ops": len(outs),
        "failed": failed,
        "timed_wall_s": wall,
        "op_s_p50_samples": len(times),
        "op_s_tail_percentile": tail_pct,
        "setup_s_samples": setup,
        "pe_ops": min(wl.min_ops, len(outs)),
        "phases_s": phases.seconds,
        "errors": errors,
    }
    return values, detail


def traced(args, wl, workdir: Path, failures: list) -> tuple[dict, dict]:
    """Each op runs twice, once traced and once not, alternating which
    goes first; the pair gives the tracing overhead on identical work."""
    import tracing

    wl.load(workdir)
    tracer = tracing.layer_tracer()
    _run_op(wl, 0, "warm", failures)

    untraced_s: list[float] = []
    traced_s: list[float] = []
    pairs = []

    def run_plain(i):
        t = time.perf_counter()
        out = _run_op(wl, i, "u", failures)
        untraced_s.append(time.perf_counter() - t)
        return out

    def run_traced(i):
        tracer.install()
        try:
            out, seconds = tracer.run_op(i, _run_op, wl, i, "t", failures)
        finally:
            tracer.uninstall()
        traced_s.append(seconds)
        return out

    def run_pair(i):
        if i % 2 == 0:
            t = run_traced(i)
            u = run_plain(i)
        else:
            u = run_plain(i)
            t = run_traced(i)
        pairs.append((t, u))
        return t

    outs, wall = _timed_loop(wl, args.seconds, wl.cycle, run_pair)
    plain = [p[1] for p in pairs]
    failed, errors = _check_all(wl, outs + plain)
    for i, (a, b) in enumerate(pairs):
        if not _same_bytes(wl, a, b):
            errors.append(f"op {i}: traced and untraced outputs differ")
    if not _same_bytes(wl, plain[0], _run_op(wl, 0, "rerun", failures)):
        errors.append("op 0 re-run: output bytes differ from the first run")

    n = len(traced_s)
    values = tracer.per_op(n)
    p50_plain = statistics.median(untraced_s)
    p50_traced = statistics.median(traced_s)
    values.update({
        "trace.op_s_p50_untraced": p50_plain,
        "trace.op_s_p50_traced": p50_traced,
        "trace.overhead_s": p50_traced - p50_plain,
        "trace.op_s_mean_untraced": statistics.fmean(untraced_s),
        "trace.self_s_sum": statistics.fmean(tracer.op_self_sums()),
    })
    spans_path = WORK / f"spans-{args.workload}.jsonl"
    tracer.write(spans_path)
    detail = {
        "ops": 2 * n,
        "traced_ops": n,
        "failed": failed,
        "timed_wall_s": wall,
        "paired_overhead_s_p50": statistics.median(
            t - u for t, u in zip(traced_s, untraced_s)
        ),
        "spans": len(tracer.spans),
        "spans_file": str(spans_path.relative_to(ROOT)),
        "errors": errors,
    }
    return values, detail


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "sslogit" / "__init__.py").is_file():
        print(f"error: no sslogit package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.setup_probe is not None:
        return setup_probe(args)

    import tracing
    import workloads

    wl = workloads.make(args.workload, args.seed, _size(args))
    WORK.mkdir(parents=True, exist_ok=True)
    failures: list[str] = []
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        workdir = Path(tmp)
        wl.generate(workdir)
        _import_sslogit()
        run = traced if args.trace else end_to_end
        values, detail = run(args, wl, workdir, failures)

    units = tracing.metric_units() if args.trace else END_TO_END
    errors = detail["errors"]
    bad = [name for name, v in values.items() if not math.isfinite(v)]
    errors += [f"{name} is not finite" for name in bad]
    values.update({name: None for name in bad})  # JSON has no NaN
    if failures:
        print(failures[0], file=sys.stderr)
    correct = not errors and not failures and detail["failed"] == 0
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "environment": _environment(),
        "detail": {**detail, "errors": errors[:20], "n_errors": len(errors)},
    }
    for name in units:
        print(f"{name:<36} {values[name]!s:>20} {units[name]}")
    print(json.dumps(report, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": detail["ops"],
        "failed": detail["failed"],
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
