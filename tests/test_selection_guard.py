"""scripts/selection_guard.py: changed selections between two replicate outputs."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "selection_guard.py"


def load_guard():
    spec = importlib.util.spec_from_file_location("selection_guard", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def record(trial, method, gic, gamma1=0.5, log10_lambda=-1.0, pe=12.5, error=None):
    return {"trial": trial, "seed": trial, "method": method, "pe_percent": pe,
            "gamma1": gamma1, "gamma2": 0.0, "log10_lambda": log10_lambda, "gic": gic,
            "converged": True, "error": error}


def replicate(records, trials=2):
    return {"command": "replicate", "study": "sim1",
            "config": {"methods": ["sslrcs", "slr"], "trials": trials, "seed": 0},
            "results": {"n=25": {"records": records}}}


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def test_trailing_digits_pass_and_changed_selections_fail(tmp_path, capsys):
    guard = load_guard()
    old = replicate([record(0, "sslrcs", 2.0), record(0, "slr", 4.0), record(1, "slr", 3.0)])
    moved = replicate([record(0, "sslrcs", 2.0 + 2e-9), record(0, "slr", 4.0),
                       record(1, "slr", 3.0)])
    a, b = write(tmp_path, "old.json", old), write(tmp_path, "moved.json", moved)
    assert guard.main([a, b]) == 0
    assert capsys.readouterr().out == "largest relative GIC change: 1e-09\n"

    changed = replicate([record(0, "sslrcs", 2.0, gamma1=1.0), record(0, "slr", 4.0),
                         record(1, "slr", None, pe=None, error="singular Hessian")])
    assert guard.main([a, write(tmp_path, "changed.json", changed)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "n=25 trial 0 sslrcs: gamma1 0.5 -> 1.0",
        "n=25 trial 1 slr: pe_percent 12.5 -> None, error None -> singular Hessian",
        "largest relative GIC change: 0",
    ]


def test_differing_configs_fail(tmp_path, capsys):
    guard = load_guard()
    records = [record(0, "slr", 1.0)]
    a = write(tmp_path, "a.json", replicate(records))
    b = write(tmp_path, "b.json", replicate(records, trials=3))
    assert guard.main([a, b]) == 1
    assert capsys.readouterr().out.splitlines()[0] == "configs differ"
