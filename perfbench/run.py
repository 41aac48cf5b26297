"""smplab benchmark: time to a verdict on three acceptance-scale workloads.

Usage:
    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout; the package is imported from
``src/``.  Every workload run is a fresh interpreter (``worker.py``) that
does what a CLI user does: ``parse_config`` with the seed as an override,
then ``harness.run`` writing its reports to a scratch directory.  Runs go
one at a time until ``--seconds`` have passed.  Without ``--seed`` a workload
runs at the seed pinned in its config under ``workloads/``.

``--trace 0`` prints the end-to-end metrics: median ``run_s``, median
``setup_s`` over the run processes and extra set-up-only processes, and
median ``peak_rss_mb``.  ``--trace 1`` makes one untraced and one traced run
and prints the per-layer metrics of ``spans.py`` plus the tracing overhead.

Every run is checked: expected exit code, finite payload, ``report.json``
payload equal to the in-memory one, and one payload digest across all runs
of the invocation (the determinism contract).  The last stdout line is the
result JSON; the line before it holds diagnostics (samples, digest, failures,
CPU seconds, environment).
"""

from __future__ import annotations

import argparse
import configparser
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# name -> (config under workloads/, expected exit code); the reasons for each
# choice are in README.md.
WORKLOADS = {
    "lq-verdict": ("lq-verdict.ini", 0),
    "adjoint-cross": ("adjoint-cross.ini", 0),
    "jump-duality": ("jump-duality.ini", 0),
}

# Set-up-only processes per workload run: set-up is short and noisy, so its
# median needs more samples than one per run.
SETUP_PROBES_PER_RUN = 2
# Stop starting processes this long after launch; the benchmark must end
# within 180 s.
DEADLINE_S = 170.0
MIN_COVERAGE = 0.90
# Traced-run metrics reported next to spans.PER_LAYER.
TRACE_METRICS = (("trace.coverage", "ratio"), ("trace.overhead_s", "s"), ("process.cpu_s", "s"))
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class Workload:
    """Spawns worker processes for one config and seed and checks their results."""

    def __init__(self, name: str, seed: int | None, work_dir: Path, deadline: float):
        config, self.expected_exit = WORKLOADS[name]
        self.config = HERE / "workloads" / config
        if seed is None:
            parser = configparser.ConfigParser()
            parser.read(self.config)
            seed = parser.getint("mc", "seed")
        self.seed = seed
        self.work_dir = work_dir
        self.deadline = deadline
        self.threads = len(os.sched_getaffinity(0))
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.env.update({var: str(self.threads) for var in BLAS_THREAD_VARS})

    def spawn(self, mode: str) -> dict:
        """One worker process; returns its result dict plus wall and set-up seconds."""
        out_dir = Path(tempfile.mkdtemp(dir=self.work_dir))
        result_path = out_dir / "result.json"
        cmd = [sys.executable, str(HERE / "worker.py"), str(self.config), str(self.seed), str(out_dir / "out"),
               str(result_path), mode]
        started = time.monotonic()
        try:
            proc = subprocess.run(cmd, env=self.env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                                  text=True, timeout=max(1.0, self.deadline - started))
            with open(result_path) as fh:
                result = json.load(fh)
            if proc.returncode != 0:
                result.setdefault("error", f"worker exited with {proc.returncode}: {proc.stderr[-2000:]}")
        except subprocess.TimeoutExpired:
            result = {"error": f"worker ran past the {DEADLINE_S:.0f} s deadline"}
        except (OSError, json.JSONDecodeError) as exc:
            result = {"error": f"no worker result: {exc}"}
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        result["wall_s"] = time.monotonic() - started
        if "parsed_at" in result:
            result["setup_s"] = result["parsed_at"] - started
        return result

    def failure(self, result: dict) -> str | None:
        """Why one run failed, or None."""
        if "error" in result:
            return result["error"].strip().splitlines()[-1]
        if result["exit_code"] != self.expected_exit:
            return f"exit code {result['exit_code']}, expected {self.expected_exit}"
        if not result["finite"]:
            return "non-finite payload value"
        if result["written_digest"] != result["digest"]:
            return "report.json payload differs from the returned payload"
        if not Path(result["smplab_file"]).resolve().is_relative_to(ROOT / "src"):
            return f"smplab imported from {result['smplab_file']}, not from this checkout"
        return None


def _check(workload: Workload, runs: list[dict]) -> tuple[list[str], str | None]:
    """Failure reasons of a set of runs, and their common payload digest.

    A run whose digest differs from the most common one in the set fails.
    """
    reasons = [workload.failure(r) for r in runs]
    digests = Counter(r["digest"] for r, why in zip(runs, reasons) if why is None)
    digest = digests.most_common(1)[0][0] if digests else None
    for i, r in enumerate(runs):
        if reasons[i] is None and r["digest"] != digest:
            reasons[i] = f"payload digest {r['digest'][:12]} differs from {digest[:12]}"
    return reasons, digest


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def measure(workload: Workload, seconds: float) -> tuple[dict, dict]:
    """Untraced runs for ``seconds``; returns (result, diagnostics)."""
    runs, setups = [], []
    started = time.monotonic()
    while not runs or (time.monotonic() - started < seconds
                       and time.monotonic() + _median([r["wall_s"] for r in runs]) < workload.deadline):
        setups += [workload.spawn("setup") for _ in range(SETUP_PROBES_PER_RUN)]
        runs.append(workload.spawn("run"))
    reasons, digest = _check(workload, runs)
    ok = [r for r, why in zip(runs, reasons) if why is None]
    setup_samples = [r["setup_s"] for r in setups + runs if "setup_s" in r]
    probe_errors = [r["error"].strip().splitlines()[-1] for r in setups if "error" in r]
    failed = sum(why is not None for why in reasons)
    metrics = {
        "run_s": {"value": _median([r["run_s"] for r in ok]), "unit": "s"},
        "setup_s": {"value": _median(setup_samples), "unit": "s"},
        "peak_rss_mb": {"value": _median([r["peak_rss_mb"] for r in ok]), "unit": "MB"},
    }
    diagnostics = {
        "run_s_samples": [r["run_s"] for r in ok],
        "setup_s_samples": len(setup_samples),
        "failed_frac": failed / len(runs),
        "failures": [why for why in reasons if why] + probe_errors,
        "payload_digest": digest,
        "process.cpu_s": _median([r["cpu_s"] for r in ok]),
        "environment": ok[0]["environment"] if ok else None,
    }
    result = {"correct": failed == 0 and not probe_errors, "attempted": len(runs), "failed": failed,
              "metrics": metrics}
    return result, diagnostics


def trace(workload: Workload) -> tuple[dict, dict]:
    """One untraced and one traced run; returns (result, diagnostics)."""
    runs = [workload.spawn("run"), workload.spawn("trace")]
    reasons, digest = _check(workload, runs)
    failed = sum(why is not None for why in reasons)
    base, traced = runs
    units = dict(spans.PER_LAYER + TRACE_METRICS)
    if failed:
        layer = dict.fromkeys(units, 0.0)
    else:
        layer = spans.summarize(traced["spans"], traced["run_s"])
        layer["trace.overhead_s"] = traced["run_s"] - base["run_s"]
        layer["process.cpu_s"] = base["cpu_s"]
        if layer["trace.coverage"] < MIN_COVERAGE:
            reasons.append(f"top-level spans cover {layer['trace.coverage']:.3f} of run_s, need {MIN_COVERAGE}")
    metrics = {name: {"value": value, "unit": units[name]} for name, value in layer.items()}
    diagnostics = {
        "run_s": {"untraced": base.get("run_s"), "traced": traced.get("run_s")},
        "failures": [why for why in reasons if why],
        "payload_digest": digest,
        "environment": base.get("environment"),
    }
    result = {"correct": not diagnostics["failures"], "attempted": len(runs), "failed": failed, "metrics": metrics}
    return result, diagnostics


def main(argv=None) -> int:
    launched = time.monotonic()
    # Turn SIGTERM into SystemExit so subprocess.run kills and reaps the
    # running worker and the scratch directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None, help="smplab [mc] seed (default: the pinned one)")
    parser.add_argument("--seconds", type=float, default=35.0, help="start runs for this long (default 35)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "smplab" / "__init__.py").is_file():
        print(f"perfbench: no smplab sources under {ROOT / 'src'}; run from a source checkout", file=sys.stderr)
        return 2

    work_dir = Path(tempfile.mkdtemp(prefix=".perfbench_work-", dir=ROOT))
    try:
        workload = Workload(args.workload, args.seed, work_dir, launched + DEADLINE_S)
        result, diagnostics = trace(workload) if args.trace else measure(workload, args.seconds)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    diagnostics = dict(workload=args.workload, seed=workload.seed, trace=args.trace, nproc=workload.threads,
                       **diagnostics)
    print(json.dumps({"diagnostics": diagnostics}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
