#!/usr/bin/env python3
"""Compare the selections of two `replicate --output` files of one command.

    python scripts/selection_guard.py OLD.json NEW.json

Both files must come from the same replicate command (same study, methods,
trials, seed and grid) run on two trees. For every trial record, in order,
it prints the record when its method, gamma1, log10 lambda, prediction
error or error text differs, then the largest relative change of the GIC
over the records that have one in both files. It exits 1 when the configs
differ or any record does, and 0 otherwise: a change that only moves
trailing digits of the criterion keeps every selection.
"""

import json
import sys

# The fields of a trial record that a selection decides.
FIELDS = ("method", "gamma1", "log10_lambda", "pe_percent", "error")


def _records(doc):
    for setting, run in doc["results"].items():
        for record in run["records"]:
            yield setting, record


def compare(old: dict, new: dict) -> tuple[list[str], float]:
    """Lines that name each difference, and the largest relative GIC change."""
    keys = ("command", "study", "config")
    if [old.get(k) for k in keys] != [new.get(k) for k in keys]:
        return ["configs differ"], 0.0
    lines, largest = [], 0.0
    old_records, new_records = list(_records(old)), list(_records(new))
    if len(old_records) != len(new_records):
        lines.append(f"record counts differ: {len(old_records)} vs {len(new_records)}")
    for (setting, a), (_, b) in zip(old_records, new_records):
        changed = [f for f in FIELDS if a.get(f) != b.get(f)]
        if changed:
            where = f"{setting} trial {a['trial']} {a['method']}"
            lines.append(where + ": " + ", ".join(f"{f} {a.get(f)} -> {b.get(f)}" for f in changed))
        if a.get("gic") is not None and b.get("gic") is not None and a["gic"] != b["gic"]:
            largest = max(largest, abs(b["gic"] - a["gic"]) / abs(a["gic"]))
    return lines, largest


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__.strip().split("\n\n")[1], file=sys.stderr)
        return 2
    docs = []
    for path in args:
        with open(path, encoding="utf-8") as fh:
            docs.append(json.load(fh))
    lines, largest = compare(*docs)
    for line in lines:
        print(line)
    print(f"largest relative GIC change: {largest:.3g}")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
