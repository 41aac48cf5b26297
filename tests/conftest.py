import os

import pytest

from smplab import simulate
from smplab.harness import parse_config, run


@pytest.fixture
def run_ini(tmp_path):
    """Runs an experiment from INI sections and returns the directory the run wrote."""

    def run_text(kind, sections):
        path = tmp_path / "run.ini"
        path.write_text(f"[experiment]\nkind = {kind}\n{sections}")
        out = tmp_path / "out"
        run(parse_config(path), out_dir=out)
        return out

    return run_text


@pytest.fixture
def fork_seams(monkeypatch):
    """Set the CPU count and the path-step floor ``simulate.FORK_CHUNK_PATH_STEPS``
    that ``simulate.run_chunks`` plans its chunks by, and record its forks.
    After the test no child process may be left."""
    forks = []
    real_fork = os.fork

    def counting_fork():
        pid = real_fork()
        if pid:
            forks.append(pid)
        return pid

    def set_seams(cpus, chunk_path_steps):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        monkeypatch.setattr(simulate, "FORK_CHUNK_PATH_STEPS", chunk_path_steps)

    monkeypatch.setattr(os, "fork", counting_fork)
    yield set_seams, forks
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
