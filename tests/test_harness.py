import importlib.util
import json
import math
import re
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from conftest import assert_partials_match_differences
from smplab.cli import main
from smplab.errors import ConfigError, ReplayMismatch
from smplab.harness import EXPERIMENTS, _family_keys, build_model, parse_config, replay, run, schema_for
from smplab.model import OpenLoopLaw, TimeGrid
from smplab.simulate import euler_forward, sample_noise
from smplab.smp import _along, partials_along

ROOT = Path(__file__).resolve().parent.parent
BASE = """
[experiment]
kind = {kind}

[grid]
horizon = {horizon}
n_steps = {n_steps}

[mc]
n_paths = {n_paths}
seed = {seed}
"""


def write_config(tmp_path, kind, extra="", n_steps=40, n_paths=2000, seed=5, name="cfg.ini", horizon="1.0"):
    text = BASE.format(kind=kind, horizon=horizon, n_steps=n_steps, n_paths=n_paths, seed=seed) + extra
    path = tmp_path / name
    path.write_text(text)
    return path


# the runs that solve the closed form: kind -> its run section
CLOSED_FORM_RUNS = {
    "simulate": "[simulate]\nscheme = closed-form\n",
    "convergence-study": "[convergence]\nn_steps_list = 16, 32\n",
}
# [model] keys of the deleted 'linear' family
DELETED_LINEAR_KEYS = (
    "drift_const", "drift_x", "drift_u", "diff_const", "diff_x", "diff_u",
    "jump_const", "jump_x", "jump_u", "run_cost_x", "run_cost_u", "terminal_x",
)


class TestConfigParsing:
    def test_unknown_key_rejected(self, tmp_path):
        path = write_config(tmp_path, "simulate, ", name="a.ini")
        path.write_text(path.read_text().replace("kind = simulate, ", "kind = simulate\nbogus = 1"))
        with pytest.raises(ConfigError):
            parse_config(path)

    def test_unknown_section_rejected(self, tmp_path):
        path = write_config(tmp_path, "simulate", extra="\n[wat]\nx = 1\n")
        with pytest.raises(ConfigError):
            parse_config(path)

    def test_negative_paths_rejected(self, tmp_path):
        path = write_config(tmp_path, "simulate", n_paths=-3)
        with pytest.raises(ConfigError):
            parse_config(path)

    def test_kind_mismatch_rejected(self, tmp_path):
        path = write_config(tmp_path, "simulate")
        with pytest.raises(ConfigError):
            parse_config(path, kind="solve-lq")

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            parse_config(tmp_path / "nope.ini")

    def test_atoms_parsing(self, tmp_path):
        path = write_config(tmp_path, "simulate", extra="\n[model]\nfamily = lq\natoms = -0.1:0.5; 0.2:1.0\n")
        cfg = parse_config(path)
        assert cfg["model"]["atoms"] == [(-0.1, 0.5), (0.2, 1.0)]

    def test_overrides(self, tmp_path):
        path = write_config(tmp_path, "simulate")
        cfg = parse_config(path, overrides={"seed": 42, "n_paths": 7})
        assert cfg["mc"]["seed"] == 42
        assert cfg["mc"]["n_paths"] == 7

    def test_schema_covers_all_kinds(self):
        for kind in ("simulate", "check-duality", "clark-ocone", "solve-bsde", "check-smp", "solve-lq", "convergence-study"):
            assert "grid" in schema_for(kind)
        with pytest.raises(ConfigError):
            schema_for("nope")

    def test_bad_atom_syntax(self, tmp_path):
        path = write_config(tmp_path, "simulate", extra="\n[model]\natoms = 0.1;0.5\n")
        with pytest.raises(ConfigError):
            parse_config(path)

    @pytest.mark.parametrize(
        "kind, extra, grid",
        [
            ("simulate", "", {"horizon": "nan"}),
            ("simulate", "\n[model]\nsigma = inf\n", {}),
            ("simulate", "\n[model]\nfamily = custom-polynomial\nu_cost = 0\nu_min = nan\n", {}),
            ("check-smp", "\n[smp]\ntau_grid = 0.5, -inf\n", {}),
            ("simulate", "\n[model]\nfamily = custom-polynomial\nu_cost = 0\nu_min = 2.0\nu_max = 1.0\n", {}),
            ("simulate", "\n[model]\nfamily = lq\nu_min = -1.0\n", {}),
            ("solve-lq", "\n[model]\nu_max = 5.0\n", {}),
            ("simulate", "\n[model]\natoms = 0.001:800000\n", {}),
            (
                "convergence-study",
                "\n[model]\nfamily = custom-polynomial\nu_cost = 0\natoms = 0.001:300000\n[convergence]\nn_steps_list = 16, 32\n",
                {},
            ),
            ("clark-ocone", "\n[model]\natoms = 0.2:3.0\n", {}),
            ("convergence-study", "\n[model]\nfamily = custom-polynomial\nu_cost = 0\n[convergence]\nn_steps_list = 1, 2\n", {}),
            ("simulate", "\n[simulate]\ncontrol = bogus\n", {}),
            ("simulate", "\n[simulate]\nscheme = milstein\n", {}),
            ("simulate", "\n[simulate]\nscheme = closed-form\n", {}),
            ("check-duality", "\n[duality]\nfunctional = bogus\n", {}),
            ("check-duality", "\n[duality]\nmode = bogus\n", {}),
            ("check-duality", "\n[duality]\nintegrand = zeta\n", {}),
            ("check-duality", "\n[model]\natoms = 0.2:1.0\n[duality]\nmode = jump\nintegrand = brownian\n", {}),
            ("check-duality", "\n[duality]\nfunctional = jump_squared\nmode = jump\nintegrand = zeta\n", {}),
            ("clark-ocone", "\n[clark_ocone]\nfunctional = bogus\n", {}),
            ("solve-bsde", "\n[bsde]\ncontrol = bogus\n", {}),
            ("check-smp", "\n[smp]\ncandidate = bogus\n", {}),
            ("check-smp", "\n[model]\nfamily = custom-polynomial\nu_cost = 0\n[smp]\ncandidate = lq-opt\n", {}),
            ("solve-lq", "\n[model]\nfamily = custom-polynomial\nu_cost = 0\n", {}),
            ("convergence-study", "", {}),
            ("simulate", "", {"horizon": "0.0"}),
            ("simulate", "", {"n_steps": 1}),
            ("simulate", "\n[model]\natoms = 0.0:1.0\n", {}),
            ("simulate", "\n[model]\natoms = 0.2:-1.0\n", {}),
            ("check-duality", "\n[model]\natoms = 0.2:1.0; 0.2:3.0\n[duality]\nmode = jump\nintegrand = constant\n", {}),
            ("check-smp", "\n[smp]\ntau_grid = 1.0\n", {}),
            ("check-smp", "\n[smp]\neps_grid = 0.0\n", {}),
            ("check-smp", "\n[smp]\neps_grid = -0.1\n", {}),
            ("check-smp", "\n[smp]\ntau_grid = 0.75\neps_grid = 0.5\n", {}),
            ("check-smp", "\n[smp]\ntau_grid = 0.5\neps_grid = 0.1, 1e-12\n", {}),
            ("check-smp", "\n[smp]\ntau_grid = 0.5\neps_grid = 0.05, 0.04\n", {}),
            ("solve-lq", "\n[iteration]\ndamping = 1.5\n", {}),
            ("solve-lq", "\n[iteration]\ntol = 0\n", {}),
            ("solve-lq", "\n[iteration]\nmax_iters = 0\n", {}),
            ("check-smp", "\n[smp]\nv_grid = -1.0\n", {}),
            ("check-smp", "\n[smp]\ntau_grid =\n", {}),
            ("check-smp", "\n[smp]\nv_grid =\n", {}),
            ("check-smp", "\n[smp]\neps_grid =\n", {}),
            ("convergence-study", "\n[model]\nfamily = custom-polynomial\nu_cost = 0\n[convergence]\nn_steps_list = 64\n", {}),
            ("convergence-study", "\n[model]\nfamily = custom-polynomial\nu_cost = 0\n[convergence]\nn_steps_list =\n", {}),
            ("convergence-study", "\n[model]\nfamily = custom-polynomial\nu_cost = 0\n[convergence]\nn_steps_list = 64, 96, 100\n", {}),
            ("convergence-study", "\n[model]\nfamily = custom-polynomial\nu_cost = 0\n[convergence]\nn_steps_list = 32, 16\n", {}),
            ("convergence-study", "\n[model]\nfamily = custom-polynomial\nu_cost = 0\n[convergence]\nratio_low = 2.6\nratio_high = 1.4\n", {}),
            ("solve-bsde", "\n[bsde]\nmax_rel_distance = -1.0\n", {}),
            ("clark-ocone", "\n[clark_ocone]\nmax_rel_error = -0.01\n", {}),
            (
                "simulate",
                "\n[model]\nfamily = custom-polynomial\nu_cost = 0\nb_u = 1\nsigma_poly = 0.1\n"
                "[simulate]\nscheme = closed-form\ncontrol = constant\ncontrol_value = 2\n",
                {},
            ),
            ("check-duality", "\n[duality]\nmode = jump\nintegrand = zeta\n", {}),
            ("simulate", "\n[output]\ncsv_paths = -3\n", {}),
            ("check-smp", "\n[output]\ncsv_paths = 3\n", {}),
            ("simulate", "\n[model]\nfamily = linear\n", {}),
            ("convergence-study", "\n[model]\nfamily = linear\n[convergence]\nn_steps_list = 16, 32\n", {}),
            *(
                (kind, f"\n[model]\nfamily = custom-polynomial\nu_cost = 0\natoms = 0.2:1.0\n{key} = 0.1, 0.2, 0.3\n{run}", {})
                for kind, run in CLOSED_FORM_RUNS.items()
                for key in ("b_poly", "sigma_poly", "gamma_poly")
            ),
        ],
        ids=[
            "nan-horizon",
            "inf-sigma",
            "nan-u_min",
            "inf-in-list",
            "u_min-above-u_max",
            "lq-u_min",
            "lq-u_max",
            "jump-rate-above-bound",
            "jump-rate-above-bound-on-study-grid",
            "clark-ocone-atoms",
            "study-grid-below-two-steps",
            "unknown-control",
            "unknown-scheme",
            "closed-form-on-lq",
            "unknown-functional",
            "unknown-mode",
            "jump-integrand-in-brownian-mode",
            "brownian-integrand-in-jump-mode",
            "jump-squared-without-atoms",
            "unknown-clark-ocone-functional",
            "unknown-bsde-control",
            "unknown-candidate",
            "lq-opt-on-linear",
            "solve-lq-on-linear",
            "convergence-study-on-lq",
            "zero-horizon",
            "one-step-grid",
            "zero-jump-size",
            "negative-intensity",
            "repeated-jump-size",
            "spike-at-horizon",
            "zero-spike-length",
            "negative-spike-length",
            "spike-past-horizon",
            "spike-window-meeting-no-step",
            "spike-grid-repeating-a-window",
            "damping-above-one",
            "zero-tol",
            "zero-max-iters",
            "spike-value-outside-control-set",
            "empty-tau-grid",
            "empty-v-grid",
            "empty-eps-grid",
            "one-study-grid",
            "no-study-grid",
            "study-grids-not-doubling",
            "study-grids-halving",
            "ratio-band-inverted",
            "negative-bsde-threshold",
            "negative-clark-ocone-threshold",
            "closed-form-with-control",
            "jump-mode-without-atoms",
            "negative-csv-paths",
            "path-table-of-a-kind-without-one",
            "linear-family",
            "linear-family-in-a-study",
            *(f"{kind}-with-quadratic-{key}" for kind in CLOSED_FORM_RUNS for key in ("b_poly", "sigma_poly", "gamma_poly")),
        ],
    )
    def test_bad_numbers_are_config_errors(self, tmp_path, kind, extra, grid):
        path = write_config(tmp_path, kind, extra=extra, **grid)
        with pytest.raises(ConfigError):
            parse_config(path)
        out = tmp_path / "out"
        assert main([kind, "--config", str(path), "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("kind", EXPERIMENTS)
    def test_basis_section_is_unknown(self, tmp_path, kind):
        # one fixed regression basis: no kind takes a [basis] section
        path = write_config(tmp_path, kind, extra="\n[basis]\ndegree = 3\n")
        with pytest.raises(ConfigError, match=re.escape(f"unknown config section [basis] for experiment {kind!r}")):
            parse_config(path)
        out = tmp_path / "out"
        assert main([kind, "--config", str(path), "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize(
        "text",
        ["[mc]\nseed = 1\n[mc]\nn_paths = 50\n", "[mc]\nseed = 1\nseed = 2\n", "seed = 1\n[mc]\nn_paths = 50\n"],
        ids=["duplicate-section", "duplicate-key", "missing-section-header"],
    )
    def test_malformed_files_are_config_errors(self, tmp_path, text):
        path = tmp_path / "bad.ini"
        path.write_text(text)
        with pytest.raises(ConfigError):
            parse_config(path, kind="simulate")
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize(
        "family, key",
        [("lq", "drift_x"), ("lq", "gamma_u"), ("custom-polynomial", "sigma"), ("custom-polynomial", "gamma_scale")]
        + [("custom-polynomial", key) for key in DELETED_LINEAR_KEYS],
    )
    def test_keys_of_another_family_rejected(self, tmp_path, family, key):
        path = write_config(tmp_path, "simulate", extra=f"\n[model]\nfamily = {family}\n{key} = 5.0\n")
        with pytest.raises(ConfigError, match=key):
            parse_config(path)
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == 2
        assert not out.exists()


# model -> its family, a [model] block with a value in every key the family reads,
# and the model it states at (x, u, zeta): (b, sigma, gamma, f, g) and the control set
FAMILY_MODELS = {
    "lq": (
        "lq",
        "sigma = 0.3\ngamma_scale = 0.7\nx0 = 0.5\natoms = -0.1:0.5\n",
        lambda x, u, z: (u, 0.3, 0.7 * z, -0.5 * u * u, -0.5 * x * x),
        (0.0, math.inf),
    ),
    # an affine model with no u**2 cost, the form of configs/solve_bsde.ini
    "affine": (
        "custom-polynomial",
        "b_poly = 0.1, 0.05\nb_u = 0.4\nsigma_poly = 0.2, 0.1\nsigma_u = 0.3\n"
        "gamma_poly = 0.3, 0.5\ngamma_u = 0.2\nf_poly = 0, 0.6\nf_u = -0.2\nu_cost = 0\ng_poly = 0, 1.5\n"
        "u_min = -0.5\nu_max = 0.8\nx0 = 0.5\natoms = -0.1:0.5\n",
        lambda x, u, z: (
            0.1 + 0.05 * x + 0.4 * u,
            0.2 + 0.1 * x + 0.3 * u,
            z * (0.3 + 0.5 * x + 0.2 * u),
            0.6 * x - 0.2 * u,
            1.5 * x,
        ),
        (-0.5, 0.8),
    ),
    "custom-polynomial": (
        "custom-polynomial",
        "b_poly = 0.1, 0.2, -0.05\nb_u = 1.5\nsigma_poly = 0.3, 0.1\nsigma_u = 0.2\ngamma_poly = 0.2, 0.3, 0.1\n"
        "gamma_u = 0.25\nf_poly = 0.1, 0.2, -0.3\nf_u = -0.4\nu_cost = 0.6\ng_poly = 0.4, -1.0, -0.5\n"
        "u_min = -0.5\nu_max = 0.8\nx0 = 0.5\natoms = -0.1:0.5\n",
        lambda x, u, z: (
            0.1 + 0.2 * x - 0.05 * x * x + 1.5 * u,
            0.3 + 0.1 * x + 0.2 * u,
            z * (0.2 + 0.3 * x + 0.1 * x * x + 0.25 * u),
            0.1 + 0.2 * x - 0.3 * x * x - 0.4 * u - 0.3 * u * u,
            0.4 - x - 0.5 * x * x,
        ),
        (-0.5, 0.8),
    ),
}

# lq and its custom-polynomial restatement, run on one noise
LQ_BLOCK = "\n[model]\nfamily = lq\nsigma = 0.1\ngamma_scale = 0.5\natoms = 0.2:1.0\n"
RESTATED_BLOCK = (
    "\n[model]\nfamily = custom-polynomial\nsigma_poly = 0.1\ngamma_poly = 0.5\nb_u = 1\n"
    "g_poly = 0, 0, -0.5\nu_min = 0\natoms = 0.2:1.0\n"
)
RESTATEMENT_RUNS = {
    "simulate": "\n[simulate]\ncontrol = constant\ncontrol_value = 0.3\n",
    "solve-bsde": "",
    "check-smp": "\n[smp]\ncandidate = constant\ncandidate_value = 0.3\ntau_grid = 0.25, 0.5\nv_grid = 0.0, 1.0\n"
    "eps_grid = 0.2, 0.1\n",
    # a [model] key: solve-lq needs a model of the LQ form, not the lq family,
    # and from x0 = -1 its Picard loop runs several sweeps
    "solve-lq": "x0 = -1\n",
}


class TestBuildModel:
    @pytest.mark.parametrize("model", sorted(FAMILY_MODELS))
    def test_every_key_reaches_the_model(self, tmp_path, model):
        family, block, expected, control_set = FAMILY_MODELS[model]
        keys = {line.split(" = ")[0] for line in block.splitlines()}
        assert keys | {"family"} == _family_keys(family)
        path = write_config(tmp_path, "simulate", extra=f"\n[model]\nfamily = {family}\n{block}")
        coeffs, levy, x0 = build_model(parse_config(path))
        assert (levy.atoms, x0, coeffs.control_set) == (((-0.1, 0.5),), 0.5, control_set)
        x, u, z = 0.7, 0.3, -0.1
        got = (coeffs.b(0.0, x, u), coeffs.sigma(0.0, x, u), coeffs.gamma(0.0, x, u, z), coeffs.f(0.0, x, u), coeffs.g(x))
        assert [float(v) for v in got] == pytest.approx(expected(x, u, z), rel=1e-12, abs=1e-15)
        probes = [(0.0, x, u, z) for x in (-1.0, 0.5, 1.2) for u in (0.1, 0.3)]
        assert_partials_match_differences(coeffs, probes)

    def test_lq_partials_are_zero_stride_views(self, tmp_path):
        path = write_config(tmp_path, "simulate", extra="\n[model]\nfamily = lq\natoms = 0.2:1.0\n")
        coeffs, levy, x0 = build_model(parse_config(path))
        grid = TimeGrid(1.0, 40)
        forward = euler_forward(coeffs, OpenLoopLaw(np.full(40, 0.3)), sample_noise(grid, levy, 200, 5), x0)
        part = partials_along(coeffs, forward)
        for name in ("b_x", "sigma_x", "f_x"):
            assert getattr(part, name).strides == (0, 0), name
        # the control partials, which variational_Z evaluates with the same helper
        for name in ("b_u", "sigma_u"):
            assert _along(coeffs, forward, name).strides == (0, 0), name

    @pytest.mark.parametrize("kind", sorted(RESTATEMENT_RUNS))
    def test_lq_and_its_polynomial_restatement_agree(self, tmp_path, kind):
        payloads = []
        for name, block in (("lq.ini", LQ_BLOCK), ("poly.ini", RESTATED_BLOCK)):
            extra = block + RESTATEMENT_RUNS[kind]
            path = write_config(tmp_path, kind, extra=extra, n_steps=20, n_paths=3000, seed=5, name=name)
            payloads.append(json.dumps(run(parse_config(path)).report["payload"], sort_keys=True))
        assert payloads[0] == payloads[1]
        assert kind != "solve-lq" or json.loads(payloads[0])["iterations"] > 1

    def test_linear_family_partials_validate(self, tmp_path):
        path = write_config(
            tmp_path,
            "simulate",
            extra="\n[model]\nfamily = custom-polynomial\nu_cost = 0\nb_poly = 0, 0.05\nsigma_poly = 0, 0.2\ngamma_poly = 0, 1.0\natoms = -0.1:0.5\n",
        )
        cfg = parse_config(path)
        coeffs, levy, x0 = build_model(cfg)
        assert_partials_match_differences(coeffs, [(0.0, 1.0, 0.3, -0.1), (0.5, -1.0, 0.1, -0.1)])

    def test_custom_polynomial_family(self, tmp_path):
        path = write_config(
            tmp_path,
            "simulate",
            extra="\n[model]\nfamily = custom-polynomial\nb_poly = 0.1, 0.2\nb_u = 1.0\nsigma_poly = 0.3\ng_poly = 0.0, -1.0\n",
        )
        cfg = parse_config(path)
        coeffs, levy, x0 = build_model(cfg)
        assert float(coeffs.b(0.0, 2.0, 1.0)) == pytest.approx(0.1 + 0.4 + 1.0)
        assert float(coeffs.g_x(3.0)) == pytest.approx(-1.0)
        assert_partials_match_differences(coeffs, [(0.0, 0.5, 0.2, 0.1)])


class TestRunAndReplay:
    def test_duality_run_and_replay(self, tmp_path):
        extra = "\n[duality]\nfunctional = bm_squared\nmode = brownian\nintegrand = brownian\n"
        path = write_config(tmp_path, "check-duality", extra=extra)
        cfg = parse_config(path)
        result = run(cfg, out_dir=tmp_path / "out")
        assert result.exit_code == 0
        report = json.load(open(result.report_path))
        assert set(report) == {"version", "kind", "seed", "config", "runtime_seconds", "payload"}
        assert (tmp_path / "out" / "summary.txt").exists()
        assert (tmp_path / "out" / "duality.json").exists()
        assert replay(result.report_path) == 0

    @pytest.mark.parametrize("family", ["lq", "custom-polynomial"])
    def test_report_embeds_only_its_family_keys(self, tmp_path, family):
        # a report does not depend on the [model] keys of another family
        other = {"lq": "custom-polynomial", "custom-polynomial": "lq"}[family]
        extra = f"\n[model]\nfamily = {family}\n" + ("u_cost = 0\n" if family == "custom-polynomial" else "")
        out = tmp_path / "out"
        run(parse_config(write_config(tmp_path, "simulate", extra=extra, n_paths=50)), out_dir=out)
        blob = json.load(open(out / "report.json"))
        assert set(blob["config"]["model"]) == _family_keys(family)
        assert main(["replay", str(out / "report.json")]) == 0
        # a key of the other family is refused, with the message of a config file
        stray = sorted(_family_keys(other) - _family_keys(family))[0]
        blob["config"]["model"][stray] = schema_for("simulate")["model"][stray][1]
        json.dump(blob, open(out / "report.json", "w"))
        with pytest.raises(ConfigError, match=rf"\[model\] {stray} not read by the '{family}' family"):
            replay(out / "report.json")

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("model", "atoms", [[0.001, 4000000.0]]),
            ("mc", "n_paths", 0),
            ("model", "family", "nope"),
            ("mc", "n_paths", "abc"),
            ("model", "sigma", None),
            ("grid", "n_steps", 10.5),
            ("model", "atoms", "0.2:1.0"),
            ("mc", "seed", True),
        ],
        ids=[
            "jump-rate-above-bound",
            "no-paths",
            "unknown-family",
            "string-paths",
            "null-sigma",
            "fractional-steps",
            "string-atoms",
            "bool-seed",
        ],
    )
    def test_replay_validates_embedded_config(self, tmp_path, section, key, value):
        extra = "\n[model]\natoms = 0.2:1.0\n\n[duality]\nfunctional = jump_squared\nmode = jump\nintegrand = zeta\n"
        path = write_config(tmp_path, "check-duality", extra=extra, n_paths=500)
        out = tmp_path / "out"
        run(parse_config(path), out_dir=out)
        blob = json.load(open(out / "report.json"))
        blob["config"][section][key] = value
        json.dump(blob, open(out / "report.json", "w"))
        with pytest.raises(ConfigError):
            replay(out / "report.json")
        assert main(["replay", str(out / "report.json")]) == 2

    @pytest.mark.parametrize(
        "kind, section, edits",
        [
            ("check-smp", "smp", {"tau_grid": [1.0]}),
            ("check-smp", "smp", {"eps_grid": [0.0]}),
            ("check-smp", "smp", {"eps_grid": [-0.1]}),
            ("check-smp", "smp", {"tau_grid": [0.75], "eps_grid": [0.5]}),
            ("check-smp", "smp", {"eps_grid": [1e-12]}),
            ("check-smp", "smp", {"eps_grid": [0.2, 0.15]}),
            ("solve-lq", "iteration", {"damping": 1.5}),
            ("solve-lq", "iteration", {"tol": 0.0}),
            ("solve-lq", "iteration", {"max_iters": 0}),
            ("convergence-study", "convergence", {"ratio_low": 2.6, "ratio_high": 1.4}),
            ("convergence-study", "convergence", {"n_steps_list": [8, 12]}),
            ("solve-bsde", "bsde", {"max_rel_distance": -1.0}),
            ("clark-ocone", "clark_ocone", {"max_rel_error": -0.01}),
        ],
        ids=[
            "spike-at-horizon",
            "zero-spike-length",
            "negative-spike-length",
            "spike-past-horizon",
            "spike-window-meeting-no-step",
            "spike-grid-repeating-a-window",
            "damping-above-one",
            "zero-tol",
            "zero-max-iters",
            "ratio-band-inverted",
            "study-grids-not-doubling",
            "negative-bsde-threshold",
            "negative-clark-ocone-threshold",
        ],
    )
    def test_replay_applies_library_rules(self, tmp_path, kind, section, edits):
        extra = {
            "check-smp": "\n[smp]\ntau_grid = 0.5\nv_grid = 1.0\neps_grid = 0.2\n",
            "convergence-study": "\n[model]\nfamily = custom-polynomial\nu_cost = 0\nsigma_poly = 0, 0.2\n[convergence]\nn_steps_list = 8, 16\n",
        }.get(kind, "")
        path = write_config(tmp_path, kind, extra=extra, n_steps=10, n_paths=200)
        out = tmp_path / "out"
        run(parse_config(path), out_dir=out)
        blob = json.load(open(out / "report.json"))
        blob["config"][section].update(edits)
        json.dump(blob, open(out / "report.json", "w"))
        with pytest.raises(ConfigError, match=rf"\[{section}\]"):
            replay(out / "report.json")
        assert main(["replay", str(out / "report.json")]) == 2

    @pytest.mark.parametrize(
        "kind, section, key, ini",
        [
            ("check-smp", "output", "csv_paths", "\n[output]\ncsv_paths = 3\n"),
            ("simulate", "mc", "threads", "threads = 3\n"),
            # reports written while [basis] was a section embed it
            ("solve-bsde", "basis", "degree", "\n[basis]\ndegree = 3\n"),
        ],
        ids=["section-of-another-kind", "unknown-key", "basis-of-an-older-report"],
    )
    def test_replay_rejects_what_the_kind_does_not_take(self, tmp_path, kind, section, key, ini):
        # the embedded config obeys the section rules of a config file, with its message
        with pytest.raises(ConfigError) as parsed:
            parse_config(write_config(tmp_path, kind, extra=ini, n_paths=50, name="edited.ini"))
        out = tmp_path / "out"
        run(parse_config(write_config(tmp_path, kind, n_paths=50)), out_dir=out)
        blob = json.load(open(out / "report.json"))
        blob["config"].setdefault(section, {})[key] = 3
        json.dump(blob, open(out / "report.json", "w"))
        with pytest.raises(ConfigError, match=re.escape(str(parsed.value))):
            replay(out / "report.json")
        assert main(["replay", str(out / "report.json")]) == 2

    def test_reports_are_strict_json(self, tmp_path):
        extra = "\n[duality]\nfunctional = bm_squared\nmode = brownian\nintegrand = brownian\n"
        path = write_config(tmp_path, "check-duality", extra=extra)
        result = run(parse_config(path), out_dir=tmp_path / "out")
        text = result.report_path.read_text()
        json.loads(text, parse_constant=lambda name: pytest.fail(f"non-strict JSON token {name}"))

    def test_replay_detects_tampering(self, tmp_path):
        extra = "\n[duality]\nfunctional = bm_squared\nmode = brownian\nintegrand = brownian\n"
        path = write_config(tmp_path, "check-duality", extra=extra)
        result = run(parse_config(path), out_dir=tmp_path / "out")
        blob = json.load(open(result.report_path))
        blob["payload"]["lhs"] += 1e-13
        json.dump(blob, open(result.report_path, "w"))
        with pytest.raises(ReplayMismatch):
            replay(result.report_path)

    def test_runs_are_bit_identical(self, tmp_path):
        extra = "\n[duality]\nfunctional = bm_squared\nmode = brownian\nintegrand = brownian\n"
        path = write_config(tmp_path, "check-duality", extra=extra)
        a = run(parse_config(path), out_dir=tmp_path / "a")
        b = run(parse_config(path), out_dir=tmp_path / "b")
        assert json.dumps(a.report["payload"], sort_keys=True) == json.dumps(b.report["payload"], sort_keys=True)

    def test_simulate_writes_csv(self, tmp_path):
        extra = "\n[model]\nfamily = lq\natoms = -0.1:0.5\n\n[output]\ncsv_paths = 4\n"
        path = write_config(tmp_path, "simulate", extra=extra, n_paths=50)
        result = run(parse_config(path), out_dir=tmp_path / "out")
        assert result.exit_code == 0
        lines = (tmp_path / "out" / "paths.csv").read_text().splitlines()
        assert lines[0] == "path_id,step,t,X,u,dB,jump_sum"
        assert len(lines) == 1 + 4 * 41

    def test_solve_lq_run(self, tmp_path):
        path = write_config(tmp_path, "solve-lq", n_paths=3000)
        result = run(parse_config(path), out_dir=tmp_path / "out")
        assert result.exit_code == 0
        assert result.report["payload"]["converged"]
        assert result.report["payload"]["control_norm"] < 0.05
        assert (tmp_path / "out" / "feedback_coefficients.csv").exists()
        assert (tmp_path / "out" / "residuals.csv").exists()
        assert (tmp_path / "out" / "comparison.json").exists()

    def test_check_smp_run(self, tmp_path):
        extra = "\n[smp]\ncandidate = zero\ntau_grid = 0.5\nv_grid = 1.0\neps_grid = 0.2, 0.1\n"
        path = write_config(tmp_path, "check-smp", extra=extra)
        result = run(parse_config(path), out_dir=tmp_path / "out")
        assert result.exit_code == 0
        assert (tmp_path / "out" / "smp_verdict.csv").exists()

    def test_solve_bsde_run(self, tmp_path):
        path = write_config(tmp_path, "solve-bsde", n_paths=4000)
        result = run(parse_config(path), out_dir=tmp_path / "out")
        assert result.exit_code == 0
        assert result.report["payload"]["verdict"]

    def test_solve_bsde_sweeps_once(self, tmp_path, monkeypatch):
        # both adjoint triples come from one backward sweep: one projector per
        # step and one pass over the coefficient partials
        from smplab import bsde, harness, smp

        built, passes = [], []

        class CountingProjector(bsde.StateProjector):
            def __init__(self, *args, **kwargs):
                built.append(1)
                super().__init__(*args, **kwargs)

        def counting_partials(*args, **kwargs):
            passes.append(1)
            return partials_along(*args, **kwargs)

        monkeypatch.setattr(bsde, "StateProjector", CountingProjector)
        monkeypatch.setattr(smp, "partials_along", counting_partials)
        monkeypatch.setattr(harness, "partials_along", counting_partials, raising=False)
        path = write_config(tmp_path, "solve-bsde", extra="\n[model]\natoms = 0.2:1.0\n")
        assert run(parse_config(path)).exit_code == 0
        assert (len(built), len(passes)) == (40, 1)

    def test_clark_ocone_run(self, tmp_path):
        extra = "\n[clark_ocone]\nfunctional = bm_squared\n"
        path = write_config(tmp_path, "clark-ocone", extra=extra, n_paths=20_000)
        result = run(parse_config(path), out_dir=tmp_path / "out")
        assert result.exit_code == 0

    def test_convergence_study_run(self, tmp_path):
        extra = (
            "\n[model]\nfamily = custom-polynomial\nu_cost = 0\nb_poly = 0, 0.05\nsigma_poly = 0, 0.2\ngamma_poly = 0, 1.0\natoms = -0.1:0.5\n"
            "\n[convergence]\nn_steps_list = 32, 64, 128\nratio_low = 1.2\nratio_high = 1.8\n"
        )
        path = write_config(tmp_path, "convergence-study", extra=extra, n_paths=4000)
        result = run(parse_config(path), out_dir=tmp_path / "out")
        assert result.exit_code == 0

    def test_simulate_closed_form_scheme(self, tmp_path):
        extra = (
            "\n[model]\nfamily = custom-polynomial\nu_cost = 0\nb_poly = 0, 0.05\nsigma_poly = 0, 0.2\ngamma_poly = 0, 1.0\natoms = -0.1:0.5\n"
            "\n[simulate]\nscheme = closed-form\n"
        )
        path = write_config(tmp_path, "simulate", extra=extra, n_paths=200)
        result = run(parse_config(path), out_dir=tmp_path / "out")
        assert result.exit_code == 0
        assert math.isfinite(result.report["payload"]["mean_terminal"])

    @pytest.mark.parametrize("control", ["control = zero\ncontrol_value = 2", "control = constant\ncontrol_value = 0"])
    def test_closed_form_scheme_takes_a_zero_control(self, tmp_path, control):
        extra = f"\n[model]\nfamily = custom-polynomial\nu_cost = 0\nb_u = 1\nsigma_poly = 0.1\n[simulate]\nscheme = closed-form\n{control}\n"
        path = write_config(tmp_path, "simulate", extra=extra, n_paths=200)
        assert run(parse_config(path)).exit_code == 0

    def test_closed_form_scheme_needs_linear_family(self, tmp_path):
        path = write_config(tmp_path, "simulate", extra="\n[simulate]\nscheme = closed-form\n")
        with pytest.raises(ConfigError, match="custom-polynomial"):
            run(parse_config(path), out_dir=tmp_path / "out")

    @pytest.mark.parametrize("kind", sorted(CLOSED_FORM_RUNS))
    def test_closed_form_trims_trailing_zeros(self, tmp_path, kind):
        # a polynomial of degree <= 1 padded with zeros is the same model, as in polynomial_coefficients
        payloads = []
        for name, polys in (("short.ini", "b_poly = 0, 0.05\ngamma_poly = 0.5"), ("padded.ini", "b_poly = 0, 0.05, 0, 0\ngamma_poly = 0.5, 0")):
            extra = f"\n[model]\nfamily = custom-polynomial\nsigma_poly = 0, 0.2\natoms = 0.2:1.0\n{polys}\n"
            extra += CLOSED_FORM_RUNS[kind]
            path = write_config(tmp_path, kind, extra=extra, n_steps=16, n_paths=200, name=name)
            payloads.append(json.dumps(run(parse_config(path)).report["payload"], sort_keys=True))
        assert payloads[0] == payloads[1]

    def test_jump_duality_run(self, tmp_path):
        extra = (
            "\n[model]\nfamily = lq\natoms = 0.2:1.0\n"
            "\n[duality]\nfunctional = jump_squared\nmode = jump\nintegrand = zeta\n"
        )
        path = write_config(tmp_path, "check-duality", extra=extra, n_paths=5000)
        result = run(parse_config(path), out_dir=tmp_path / "out")
        assert result.exit_code == 0


@pytest.mark.parametrize(
    "path", sorted((ROOT / "configs").glob("*.ini")) + sorted((ROOT / "perfbench" / "workloads").glob("*.ini")),
    ids=lambda path: f"{path.parent.name}/{path.name}",
)
def test_shipped_configs_parse(path):
    # every shipped config and benchmark workload holds only keys of the current schema
    assert parse_config(path)["experiment"]["kind"]


def test_digest_tool_covers_the_artifacts(tmp_path):
    # tools/payload_digests.py: one run's digests repeat, and the artifact digest
    # sees the path rows of adjoint.csv, which the payload does not hold
    spec = importlib.util.spec_from_file_location("payload_digests", ROOT / "tools" / "payload_digests.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    path = write_config(tmp_path, "solve-bsde", n_steps=10, n_paths=500)
    first = tool.run_digests(path)
    assert tool.run_digests(path) == first
    fewer = write_config(tmp_path, "solve-bsde", extra="\n[output]\ncsv_paths = 3\n", n_steps=10, n_paths=500, name="fewer.ini")
    code, payload, artifacts = tool.run_digests(fewer)
    assert (code, payload) == first[:2]
    assert artifacts != first[2]


def assert_solve_bsde_run_holds_only_its_arrays(tmp_path):
    # a zero control is stored once and (q, r) are per-step fits, so at its peak the run
    # holds X, the explicit p, the cross-check's p and less than half of one (n_paths, N)
    # array besides: the distance's and the digests' row blocks, of ROW_BLOCK rows each
    # whatever the path count, and the CSV's (q, r) on ROW_BLOCK leading paths
    n_paths, n_steps = 20_000, 100
    extra = "\n[model]\nfamily = lq\nsigma = 0.1\nx0 = 1.0\n\n[bsde]\ncontrol = zero\n"
    cfg = parse_config(write_config(tmp_path, "solve-bsde", extra=extra, n_steps=n_steps, n_paths=n_paths, seed=77))
    before = threading.active_count()
    tracemalloc.start()
    try:
        result = run(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.exit_code == 0
    assert threading.active_count() == before
    step_array = n_paths * n_steps * 8
    node_array = n_paths * (n_steps + 1) * 8
    assert peak < 3 * node_array + step_array / 2


def test_solve_bsde_run_holds_only_its_arrays(tmp_path):
    assert_solve_bsde_run_holds_only_its_arrays(tmp_path)


def test_solve_bsde_run_beside_helper_threads_holds_only_its_arrays(tmp_path, fork_seams, monkeypatch):
    # two CPUs and a floor of one path-step: the cross-check runs beside the sweep and the
    # digests beside the distance, and neither thread raises the peak past the same bound
    set_seams, _ = fork_seams
    set_seams(2, 1)
    started, real_start = [], threading.Thread.start

    def counted_start(thread):
        started.append(thread)
        real_start(thread)

    monkeypatch.setattr(threading.Thread, "start", counted_start)
    assert_solve_bsde_run_holds_only_its_arrays(tmp_path)
    assert len(started) == 2


# experiment -> (config extra, {artifact: payload key it holds, None for the whole payload})
ARTIFACTS = {
    "simulate": ("", {"paths.csv": None}),
    "check-duality": ("\n[duality]\nfunctional = bm_squared\n", {"duality.json": None}),
    "clark-ocone": ("", {"clark_ocone.json": None}),
    "solve-bsde": ("", {"adjoint.csv": None}),
    "check-smp": (
        "\n[smp]\ntau_grid = 0.5\nv_grid = 1.0\neps_grid = 0.2, 0.1\n",
        {"smp_verdict.json": None, "smp_verdict.csv": None},
    ),
    "solve-lq": ("", {"feedback_coefficients.csv": None, "residuals.csv": None, "comparison.json": "comparison"}),
    "convergence-study": (
        "\n[model]\nfamily = custom-polynomial\nu_cost = 0\nsigma_poly = 0, 0.2\n\n[convergence]\nn_steps_list = 16, 32\n",
        {"convergence.json": None},
    ),
}


@pytest.mark.parametrize("kind", sorted(ARTIFACTS))
def test_artifacts_written(tmp_path, kind):
    extra, artifacts = ARTIFACTS[kind]
    path = write_config(tmp_path, kind, extra=extra, n_steps=20, n_paths=1000)
    out = tmp_path / "out"
    run(parse_config(path), out_dir=out)
    assert {f.name for f in out.iterdir()} == {"report.json", "summary.txt"} | set(artifacts)
    payload = json.load(open(out / "report.json"))["payload"]
    for name, key in artifacts.items():
        if name.endswith(".json"):
            assert json.load(open(out / name)) == (payload if key is None else payload[key])


class TestCli:
    def test_exit_codes(self, tmp_path, capsys):
        extra = "\n[duality]\nfunctional = bm_squared\nmode = brownian\nintegrand = brownian\n"
        path = write_config(tmp_path, "check-duality", extra=extra)
        out = tmp_path / "out"
        assert main(["check-duality", "--config", str(path), "--out", str(out)]) == 0
        assert main(["replay", str(out / "report.json")]) == 0
        # config error: 2, and nothing written
        bad = write_config(tmp_path, "check-duality", extra=extra, n_paths=-1, name="bad.ini")
        out2 = tmp_path / "out2"
        assert main(["check-duality", "--config", str(bad), "--out", str(out2)]) == 2
        assert not out2.exists()
        # missing replay file: 2
        assert main(["replay", str(tmp_path / "missing.json")]) == 2

    def test_config_file_not_utf8_exit_2(self, tmp_path, capsys):
        path = write_config(tmp_path, "simulate")
        path.write_bytes(path.read_bytes() + b"# \xff\n")
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == 2
        assert "config error" in capsys.readouterr().err
        assert not out.exists()

    def test_report_file_not_utf8_exit_2(self, tmp_path, capsys):
        path = write_config(tmp_path, "simulate", n_paths=200)
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == 0
        report = out / "report.json"
        report.write_bytes(report.read_bytes().replace(b'"config"', b'"\xffconfig"', 1))
        written = sorted(tmp_path.rglob("*"))
        capsys.readouterr()
        assert main(["replay", str(report)]) == 2
        assert "config error" in capsys.readouterr().err
        assert sorted(tmp_path.rglob("*")) == written

    def test_cli_seed_override_changes_payload(self, tmp_path):
        extra = "\n[duality]\nfunctional = bm_squared\nmode = brownian\nintegrand = brownian\n"
        path = write_config(tmp_path, "check-duality", extra=extra)
        main(["check-duality", "--config", str(path), "--out", str(tmp_path / "a")])
        main(["check-duality", "--config", str(path), "--out", str(tmp_path / "b"), "--seed", "77"])
        a = json.load(open(tmp_path / "a" / "report.json"))
        b = json.load(open(tmp_path / "b" / "report.json"))
        assert a["seed"] == 5 and b["seed"] == 77
        assert a["payload"]["lhs"] != b["payload"]["lhs"]

    def test_cli_paths_override(self, tmp_path):
        extra = "\n[duality]\nfunctional = bm_squared\nmode = brownian\nintegrand = brownian\n"
        path = write_config(tmp_path, "check-duality", extra=extra)
        main(["check-duality", "--config", str(path), "--out", str(tmp_path / "c"), "--paths", "500"])
        c = json.load(open(tmp_path / "c" / "report.json"))
        assert c["payload"]["n_paths"] == 500

    def test_numerical_error_exit_3(self, tmp_path):
        # jump slope pushes 1 + dgamma/dx below the admissible margin: the
        # adjoint weight process is singular and the run exits 3
        extra = (
            "\n[model]\nfamily = custom-polynomial\nu_cost = 0\ngamma_poly = 0, -2.0\natoms = 0.9:1.0\ng_poly = 0, 1.0\n"
        )
        path = write_config(tmp_path, "solve-bsde", extra=extra, n_paths=500)
        assert main(["solve-bsde", "--config", str(path), "--out", str(tmp_path / "out")]) == 3

    def test_unstable_implicit_step_exit_3(self, tmp_path, capsys):
        # b_x dt = 5 * 0.25 >= 1: the implicit adjoint step has no stable solution
        extra = "\n[model]\nfamily = custom-polynomial\nu_cost = 0\nb_poly = 0, 5.0\nsigma_poly = 0.1\ng_poly = 0, -1.0\n"
        path = write_config(tmp_path, "solve-bsde", extra=extra, n_steps=4, n_paths=500)
        assert main(["solve-bsde", "--config", str(path), "--out", str(tmp_path / "out")]) == 3
        assert "1 - b_x dt" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_degenerate_convergence_study_exit_3(self, tmp_path, capsys):
        # every custom-polynomial coefficient defaults to 0, so the Euler scheme and
        # the closed form agree exactly and the finer grid has no error to divide by
        extra = "\n[model]\nfamily = custom-polynomial\nu_cost = 0\n[convergence]\nn_steps_list = 16, 32\n"
        path = write_config(tmp_path, "convergence-study", extra=extra, n_paths=200)
        assert main(["convergence-study", "--config", str(path), "--out", str(tmp_path / "out")]) == 3
        assert "32-step grid" in capsys.readouterr().err

    def test_tampered_replay_exit_1(self, tmp_path):
        extra = "\n[duality]\nfunctional = bm_squared\nmode = brownian\nintegrand = brownian\n"
        path = write_config(tmp_path, "check-duality", extra=extra)
        out = tmp_path / "out"
        main(["check-duality", "--config", str(path), "--out", str(out)])
        blob = json.load(open(out / "report.json"))
        blob["payload"]["rhs"] *= 1.0 + 1e-12
        json.dump(blob, open(out / "report.json", "w"))
        assert main(["replay", str(out / "report.json")]) == 1
