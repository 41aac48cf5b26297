"""Smoke test of the benchmark's span tracer (``perfbench/spans.py``).

The tracer wraps package functions and methods by name, so a rename in the
package breaks ``spans.install`` or ``spans.summarize``.  A tiny traced
check-smp run, in a fresh interpreter as ``perfbench/worker.py`` runs it,
must finish and report one value per ``PER_LAYER`` metric.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

TRACED_RUN = """
import json, sys, time
import spans
recorder = spans.install()
from smplab import harness
cfg = harness.parse_config(sys.argv[1])
started = time.perf_counter()
result = harness.run(cfg, out_dir=sys.argv[2])
metrics = spans.summarize(recorder.spans, time.perf_counter() - started)
print(json.dumps({"exit_code": result.exit_code, "metrics": metrics, "per_layer": [m for m, _ in spans.PER_LAYER]}))
"""

CONFIG = """[experiment]
kind = check-smp
[grid]
n_steps = 20
[mc]
n_paths = 200
seed = 5
[model]
family = lq
x0 = 1.0
[smp]
candidate = lq-opt
tau_grid = 0.5
v_grid = 0.0, 1.0
eps_grid = 0.2, 0.1
"""


def test_traced_check_smp_reports_every_per_layer_metric(tmp_path):
    config = tmp_path / "check_smp.ini"
    config.write_text(CONFIG)
    paths = [str(ROOT / "src"), str(ROOT / "perfbench"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    proc = subprocess.run(
        [sys.executable, "-c", TRACED_RUN, str(config), str(tmp_path / "out")],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["exit_code"] in (0, 1)  # a verdict, pass or fail, and no error
    metrics = result["metrics"]
    names = result["per_layer"]
    assert len(set(names)) == len(names) and set(names) <= set(metrics)
    assert all(isinstance(metrics[name], (int, float)) for name in names)
    # the run went through the traced layers
    assert metrics["simulate.euler_forward.calls"] > 0 and metrics["lqsolver.solve_constrained.sweeps"] > 0
    assert metrics["smp.partials_along.calls"] > 0
