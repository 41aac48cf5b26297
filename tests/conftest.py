import pytest

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
