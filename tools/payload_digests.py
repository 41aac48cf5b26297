"""Payload and artifact digests of every shipped config and benchmark workload, run in-process.

Usage, from the root of a source checkout:
    python3 tools/payload_digests.py [--out DIR]

Each ``configs/*.ini`` and ``perfbench/workloads/*.ini`` runs at the seed and
path count of its file.  One line per run gives its name, its exit code, the
sha256 of its canonical payload, the form ``replay`` compares, and the sha256
of the artifacts it writes: the name and bytes of every file but report.json
and summary.txt, which hold the runtime.  Two checkouts whose tables agree
produce bit-identical payloads and artifact files.  The artifacts go to
DIR/<folder>/<name>/ with ``--out``, ready for ``cmp``, and to a temporary
directory without it.  The script exits 1 when a run raises, 0 otherwise.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from smplab import harness  # noqa: E402
from smplab.errors import SmplabError  # noqa: E402

FOLDERS = ("configs", "perfbench/workloads")
# files of a run that hold its runtime, so that no two runs write the same bytes
TIMED = ("report.json", "summary.txt")


def artifact_digest(out_dir: Path) -> str:
    """sha256 over the name and bytes of every file in ``out_dir`` but the ``TIMED`` ones, by name."""
    digest = hashlib.sha256()
    for path in sorted(out_dir.iterdir()):
        if path.name not in TIMED:
            data = path.read_bytes()
            digest.update(f"{path.name}\0{len(data)}\0".encode())
            digest.update(data)
    return digest.hexdigest()


def run_digests(config: Path, out_dir: Path | None = None) -> tuple[int, str, str]:
    """Exit code, canonical-payload sha256 and artifact sha256 of one config's run."""
    if out_dir is None:
        with tempfile.TemporaryDirectory() as tmp:
            return run_digests(config, Path(tmp))
    result = harness.run(harness.parse_config(config), out_dir=out_dir)
    canonical = harness._canonical(result.report["payload"])
    return result.exit_code, hashlib.sha256(canonical.encode()).hexdigest(), artifact_digest(out_dir)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=None, help="write each run's artifacts under this directory")
    args = parser.parse_args(argv)
    raised = False
    print(f"{'run':<40} exit  {'payload sha256':<64}  artifact sha256")
    for folder in FOLDERS:
        for config in sorted((ROOT / folder).glob("*.ini")):
            name = f"{folder}/{config.stem}"
            try:
                code, payload, artifacts = run_digests(config, None if args.out is None else args.out / folder / config.stem)
                shas = f"{payload}  {artifacts}"
            except SmplabError as exc:
                raised = True
                code, shas = "-", f"raised {type(exc).__name__}: {exc}"
            print(f"{name:<40} {code:<5} {shas}", flush=True)
    return 1 if raised else 0


if __name__ == "__main__":
    sys.exit(main())
