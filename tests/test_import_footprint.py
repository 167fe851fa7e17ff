"""Importing sslogit and running work that estimates no ratio loads only
numpy and scipy.special; scipy.linalg and scipy.spatial wait for uLSIF."""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

SCRIPT = textwrap.dedent(
    """
    import json, sys
    from pathlib import Path

    import numpy as np
    import sslogit, sslogit.cli
    from sslogit.data import SplitDataset
    from sslogit.experiments import Sim1Config, Sim1Experiment, run_trials
    from sslogit.ratios import weights_from_ulsif
    from sslogit.select import Grid

    tmp = Path(sys.argv[1])
    grid = Grid((0.0, 1.0), (0.0,), (-1.0, 0.0))
    run = run_trials(Sim1Experiment(Sim1Config(n_labeled=25)), n_trials=1, grid=grid)
    assert all(r.error is None for r in run.records), run.records
    (tmp / "model.json").write_text(json.dumps(
        {"format": "sslogit-model", "version": 1, "n_features": 2,
         "coefficients": [0.5, 1.0, -1.0]}))
    (tmp / "x.csv").write_text("x0,x1\\n0.1,0.2\\n-1.0,3.0\\n")
    code = sslogit.cli.main(["predict", "--model", str(tmp / "model.json"),
                             "--data", str(tmp / "x.csv")])
    loaded = sorted(m for m in ("scipy.linalg", "scipy.spatial", "scipy.sparse")
                    if m in sys.modules)

    rng = np.random.default_rng(0)
    data = SplitDataset(labeled_x=rng.normal(size=(20, 2)), labeled_y=np.arange(20) % 2,
                        unlabeled_x=rng.normal(0.5, 1.0, size=(30, 2)))
    w = weights_from_ulsif(data, seed=0)
    after = [m in sys.modules for m in ("scipy.linalg", "scipy.spatial")]
    print(json.dumps({"predict_exit": code, "loaded": loaded,
                      "ratios": [w.r_labeled.size, w.s_unlabeled.size], "after_ulsif": after}))
    """
)


def test_work_without_ratio_estimates_leaves_linalg_and_spatial_unloaded(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(tmp_path)],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(SRC), "OPENBLAS_NUM_THREADS": "1"},
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["predict_exit"] == 0
    assert result["loaded"] == []
    # The first ratio estimate still finds both modules.
    assert result["ratios"] == [20, 30]
    assert result["after_ulsif"] == [True, True]
