"""scripts/output_digests.py: one digest line per command, on this checkout."""

import importlib.util
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "output_digests.py"


def test_prints_one_digest_per_command(tmp_path):
    spec = importlib.util.spec_from_file_location("output_digests", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    names = [name for name, _, _ in module.COMMANDS]
    assert len(set(names)) == len(names)

    proc = subprocess.run(
        [sys.executable, str(SCRIPT), str(ROOT), str(tmp_path)],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert [line.split("  ")[1] for line in lines] == names
    assert all(re.fullmatch(r"[0-9a-f]{64}  \S+", line) for line in lines)
