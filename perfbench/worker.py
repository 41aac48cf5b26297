"""One workload run in a fresh interpreter, as a CLI user pays for it.

Usage: python3 worker.py CONFIG SEED OUT_DIR RESULT_JSON MODE

MODE is ``setup`` (stop once the config is parsed), ``run`` or ``trace``
(run with the span recorder installed).  The parent passes PYTHONPATH and
the BLAS thread settings.  The result JSON carries the CLOCK_MONOTONIC
instant the config was parsed (the parent subtracts its spawn instant),
the wall seconds of ``harness.run``, the exit code, the payload digest and
finiteness, peak RSS, CPU seconds and, when traced, the spans.
"""

import math
import sys
import time


def _finite(value) -> bool:
    if isinstance(value, float):
        return math.isfinite(value)
    if isinstance(value, dict):
        return all(_finite(v) for v in value.values())
    if isinstance(value, (list, tuple)):
        return all(_finite(v) for v in value)
    return True


def main(config: str, seed: str, out_dir: str, result_path: str, mode: str) -> None:
    result = {}
    try:
        recorder = None
        if mode == "trace":
            import spans

            recorder = spans.install()
        from smplab import harness

        cfg = harness.parse_config(config, overrides={"seed": int(seed)})
        result["parsed_at"] = time.monotonic()
        if mode != "setup":
            started = time.perf_counter()
            run = harness.run(cfg, out_dir=out_dir)
            result["run_s"] = time.perf_counter() - started
            _describe(run, result)
            if recorder is not None:
                result["spans"] = recorder.spans
    except Exception:
        import traceback

        result["error"] = traceback.format_exc()

    import json

    with open(result_path, "w") as fh:
        json.dump(result, fh)


def _describe(run, result: dict) -> None:
    import hashlib
    import json
    import os
    import platform
    import resource

    import numpy as np
    import smplab

    def digest(payload):
        # the canonical form `replay` compares
        return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()

    with open(run.report_path) as fh:
        written = json.load(fh)["payload"]
    usage = resource.getrusage(resource.RUSAGE_SELF)
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    payload = run.report["payload"]
    result.update(
        exit_code=run.exit_code,
        digest=digest(payload),
        written_digest=digest(written),
        finite=_finite(payload),
        peak_rss_mb=usage.ru_maxrss / 1024.0,
        cpu_s=usage.ru_utime + usage.ru_stime,
        smplab_file=smplab.__file__,
        environment={
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": blas,
            "blas_threads": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
        },
    )


if __name__ == "__main__":
    main(*sys.argv[1:6])
