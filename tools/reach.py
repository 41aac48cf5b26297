"""List the functions, methods and lambdas of ``src/smplab`` that no shipped run enters.

Usage, from the root of a source checkout:
    python3 tools/reach.py

Each ``configs/*.ini`` and ``perfbench/workloads/*.ini`` runs in-process at
``N_PATHS`` paths through ``harness.run`` and then ``harness.replay``.  At that
size every run stays below the fork floor of ``simulate.run_chunks``, so no
work happens in a forked child, where a profiler cannot see it.  A profile
hook, installed in this thread and in every later one before ``smplab`` is
imported, records each code object that is called, so functions run at
import time count as entered.  The script prints each code object of the
package that was never entered, by file and line, and exits 0: it gates
nothing.
"""

from __future__ import annotations

import inspect
import sys
import tempfile
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "smplab"
FOLDERS = ("configs", "perfbench/workloads")
N_PATHS = 600
# code objects of comprehensions, which are parts of the function they sit in
COMPREHENSIONS = {"<listcomp>", "<dictcomp>", "<setcomp>", "<genexpr>"}


def functions(code, prefix=""):
    """(qualified name, code object) of every function, method and lambda in ``code``:
    the optimized code objects, which class and module bodies are not."""
    for const in code.co_consts:
        if not inspect.iscode(const) or const.co_name in COMPREHENSIONS:
            continue
        name = prefix + const.co_name
        if const.co_flags & inspect.CO_OPTIMIZED:
            yield name, const
            yield from functions(const, name + ".<locals>.")
        else:
            yield from functions(const, name + ".")


def key(code) -> tuple:
    return Path(code.co_filename).resolve(), code.co_firstlineno, code.co_name


def run_all() -> None:
    from smplab import harness
    from smplab.errors import SmplabError

    for folder in FOLDERS:
        for config in sorted((ROOT / folder).glob("*.ini")):
            with tempfile.TemporaryDirectory() as tmp:
                try:
                    cfg = harness.parse_config(config, overrides={"n_paths": N_PATHS})
                    harness.run(cfg, out_dir=tmp)
                    harness.replay(Path(tmp) / "report.json")
                    outcome = "ran and replayed"
                except SmplabError as exc:
                    outcome = f"raised {type(exc).__name__}: {exc}"
            print(f"{folder}/{config.stem}: {outcome}", flush=True)


def main() -> int:
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    # before smplab is imported, so that what runs at import time counts as entered
    sys.setprofile(profile)
    threading.setprofile(profile)
    sys.path.insert(0, str(ROOT / "src"))
    try:
        run_all()
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
    reached = {key(code) for code in entered}
    unreached = []
    for path in sorted(PACKAGE.glob("*.py")):
        module = compile(path.read_text(encoding="utf-8"), str(path), "exec")
        for name, code in functions(module):
            if key(code) not in reached:
                unreached.append(f"{path.name}:{code.co_firstlineno} {name}")
    print(f"{len(unreached)} functions of src/smplab no run enters:")
    for line in unreached:
        print(f"  {line}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
