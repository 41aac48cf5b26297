import os

import pytest

from smplab import simulate
from smplab.harness import parse_config, run

# (map, variable) of every partial a ControlledCoefficients carries
PARTIALS = [(name, var) for name in ("b", "sigma", "gamma", "f") for var in ("x", "u")] + [("g", "x")]


def _at(coeffs, name, t, x, u, zeta):
    if name in ("g", "g_x"):
        return float(getattr(coeffs, name)(x))
    return float(getattr(coeffs, name)(*((t, x, u, zeta) if name.startswith("gamma") else (t, x, u))))


def assert_partials_match_differences(coeffs, probes, rtol=1e-4):
    """Each partial of ``coeffs`` equals the central difference of its map at every
    (t, x, u, zeta) probe, to ``rtol`` times max(1, |partial|); the step in x or u
    is 1e-5 times max(1, |x| or |u|)."""
    for t, x, u, zeta in probes:
        for name, var in PARTIALS:
            h = 1e-5 * max(1.0, abs(x if var == "x" else u))
            dx, du = (h, 0.0) if var == "x" else (0.0, h)
            hi, lo = _at(coeffs, name, t, x + dx, u + du, zeta), _at(coeffs, name, t, x - dx, u - du, zeta)
            exact = _at(coeffs, f"{name}_{var}", t, x, u, zeta)
            assert abs((hi - lo) / (2.0 * h) - exact) <= rtol * max(1.0, abs(exact)), (f"{name}_{var}", t, x, u, zeta)


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
