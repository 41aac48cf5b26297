"""Payload digest of every shipped config and benchmark workload, run in-process.

Usage, from the root of a source checkout:
    python3 tools/payload_digests.py [--out DIR]

Each ``configs/*.ini`` and ``perfbench/workloads/*.ini`` runs at the seed and
path count of its file.  One line per run gives its name, its exit code and
the sha256 of its canonical payload, the form ``replay`` compares, so two
checkouts whose tables agree produce bit-identical payloads.  With ``--out``
each run also writes its artifacts to DIR/<folder>/<name>/, ready for ``cmp``.
The script exits 1 when a run raises, 0 otherwise.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from smplab import harness  # noqa: E402
from smplab.errors import SmplabError  # noqa: E402

FOLDERS = ("configs", "perfbench/workloads")


def payload_digest(config: Path, out_dir: Path | None) -> tuple[int, str]:
    """Exit code and canonical-payload sha256 of one config's run."""
    result = harness.run(harness.parse_config(config), out_dir=out_dir)
    canonical = harness._canonical(result.report["payload"])
    return result.exit_code, hashlib.sha256(canonical.encode()).hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=None, help="write each run's artifacts under this directory")
    args = parser.parse_args(argv)
    raised = False
    print(f"{'run':<40} exit  payload sha256")
    for folder in FOLDERS:
        for config in sorted((ROOT / folder).glob("*.ini")):
            name = f"{folder}/{config.stem}"
            try:
                code, sha = payload_digest(config, None if args.out is None else args.out / folder / config.stem)
            except SmplabError as exc:
                raised = True
                code, sha = "-", f"raised {type(exc).__name__}: {exc}"
            print(f"{name:<40} {code:<5} {sha}", flush=True)
    return 1 if raised else 0


if __name__ == "__main__":
    sys.exit(main())
