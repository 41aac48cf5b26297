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
    """Set the CPU count and the chunk size that ``simulate.fork_chunk_count``
    reads, and record the forks of ``simulate.run_chunks``.  After the test no
    child process may be left."""
    forks = []
    real_fork = os.fork

    def counting_fork():
        pid = real_fork()
        if pid:
            forks.append(pid)
        return pid

    def set_seams(cpus, chunk_paths):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        monkeypatch.setattr(simulate, "FORK_CHUNK_PATHS", chunk_paths)

    monkeypatch.setattr(os, "fork", counting_fork)
    yield set_seams, forks
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
