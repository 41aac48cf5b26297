"""Experiment orchestration: config parsing, runs, reports, bit-exact replay.

Configs are INI files with one section per block (see README for the full
schema).  Every numeric result of a run lands in ``report.json`` under
``payload`` together with the resolved config, the seed, the artifact
version, and the wall-clock runtime; ``replay`` re-runs the embedded config
and demands a byte-identical payload.
"""

from __future__ import annotations

import configparser
import csv
import json
import math
import time
from dataclasses import asdict, dataclass
from hashlib import sha256
from pathlib import Path

import numpy as np

from . import __version__
from .bsde import l2_dtP_norm, relative_l2_dtP, solve_adjoint
from .errors import ConfigError, DegenerateStudy, ReplayMismatch
from .malliavin import (
    Compose,
    bm_integral,
    check_duality,
    check_duality_mode,
    clark_ocone_reconstruct,
    constant,
    jump_integral,
    square_map,
)
from .model import (
    ControlledCoefficients,
    LevyMeasure,
    OpenLoopLaw,
    TimeGrid,
    build_lq_coefficients,
    polynomial_coefficients,
)
from .simulate import (
    LinearCoefficients,
    NoiseBundle,
    beside,
    euler_forward,
    linear_closed_form,
    row_blocks,
    sample_noise,
    step_rates,
)
from .smp import check_necessary_condition, check_spike_grids, partials_along
from .lqsolver import (
    LqParams,
    check_lq_structure,
    check_picard_settings,
    compare_to_unconstrained,
    solve_constrained,
)

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


def _float(raw, key):
    try:
        value = float(raw)
    except ValueError as exc:
        raise ConfigError(f"{key}: expected a real number, got {raw!r}") from exc
    if not math.isfinite(value):
        raise ConfigError(f"{key}: expected a finite real number, got {raw!r}")
    return value


def _int(raw, key):
    try:
        return int(raw)
    except ValueError as exc:
        raise ConfigError(f"{key}: expected an integer, got {raw!r}") from exc


def _list_of(parse):
    """Parser of a comma- (or semicolon-) separated list of ``parse`` values."""
    return lambda raw, key: [parse(tok, key) for tok in str(raw).replace(";", ",").split(",") if tok.strip()]


def _atoms(raw, key):
    """Parse 'zeta:intensity;zeta:intensity' pairs."""
    pairs = []
    text = str(raw).strip()
    if not text:
        return pairs
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = chunk.split(":")
        if len(parts) != 2:
            raise ConfigError(f"{key}: expected 'zeta:intensity' pairs, got {chunk!r}")
        pairs.append((_float(parts[0], key), _float(parts[1], key)))
    return pairs


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_real(value) -> bool:
    return (_is_int(value) or isinstance(value, float)) and math.isfinite(value)


def _is_atom(value) -> bool:
    return isinstance(value, list) and len(value) == 2 and all(map(_is_real, value))


# Schema value types: name -> (parser of an INI value, check of an embedded JSON value).
_TYPES = {
    "float": (_float, _is_real),
    "int": (_int, _is_int),
    "float_list": (_list_of(_float), lambda v: isinstance(v, list) and all(map(_is_real, v))),
    "int_list": (_list_of(_int), lambda v: isinstance(v, list) and all(map(_is_int, v))),
    "atoms": (_atoms, lambda v: isinstance(v, list) and all(map(_is_atom, v))),
    "str": (lambda raw, key: str(raw).strip(), lambda v: isinstance(v, str)),
}


def _type_name(typ) -> str:
    """The ``_TYPES`` name of a schema type; a named option (a tuple of choices) is a str."""
    return "str" if isinstance(typ, tuple) else typ


# Functionals of [duality] and [clark_ocone]: name -> F(grid, levy).
_FUNCTIONALS = {
    "bm_squared": lambda grid, levy: Compose(square_map(), (bm_integral(grid, 1.0),)),
    "bm_integral": lambda grid, levy: bm_integral(grid, 1.0),
    "jump_squared": lambda grid, levy: Compose(square_map(), (jump_integral(grid, levy, levy.zetas),)),
    "constant": lambda grid, levy: constant(1.0),
}
_INTEGRANDS = {"brownian": ("brownian", "constant"), "jump": ("zeta", "constant")}
_CONTROLS = ("zero", "constant")

# Model families: a builder and its arguments, each a [model] key or a tuple
# of keys.  The keys a row names (plus family, x0 and atoms) are the keys the
# family reads; any other [model] key is an error.
_FAMILIES = {
    "lq": (build_lq_coefficients, {"sigma": "sigma", "gamma_scale": "gamma_scale"}),
    "custom-polynomial": (
        polynomial_coefficients,
        {key: key for key in ("b_poly", "b_u", "sigma_poly", "sigma_u", "gamma_poly", "gamma_u", "f_poly", "f_u")}
        | {"u_cost": "u_cost", "g_poly": "g_poly", "control_set": ("u_min", "u_max")},
    ),
}

# Section schemas: key -> (type, default); a tuple type is a string that must be
# one of its values.
_COMMON_SCHEMA = {
    "experiment": {"kind": ("str", None)},
    "grid": {"horizon": ("float", 1.0), "n_steps": ("int", 100)},
    "mc": {"n_paths": ("int", 10000), "seed": ("int", 1)},
    "model": {
        "family": (tuple(_FAMILIES), "lq"),
        "sigma": ("float", 0.1),
        "x0": ("float", 1.0),
        "atoms": ("atoms", []),
        "gamma_scale": ("float", 1.0),
        "b_poly": ("float_list", [0.0]),
        "b_u": ("float", 0.0),
        "sigma_poly": ("float_list", [0.0]),
        "sigma_u": ("float", 0.0),
        "gamma_poly": ("float_list", [0.0]),
        "gamma_u": ("float", 0.0),
        "f_poly": ("float_list", [0.0]),
        "f_u": ("float", 0.0),
        "u_cost": ("float", 1.0),
        "g_poly": ("float_list", [0.0]),
        # effectively unbounded defaults kept finite so reports stay strict JSON
        "u_min": ("float", -1e308),
        "u_max": ("float", 1e308),
    },
}
# [output], a section of the kinds that write a path table
_OUTPUT_SCHEMA = {"csv_paths": ("int", 10)}

_EXPERIMENT_SCHEMA = {
    "simulate": {
        "simulate": {
            "control": (_CONTROLS, "zero"),
            "control_value": ("float", 0.0),
            "scheme": (("euler", "closed-form"), "euler"),
        },
        "output": _OUTPUT_SCHEMA,
    },
    "check-duality": {
        "duality": {
            "functional": (tuple(_FUNCTIONALS), "bm_squared"),
            "mode": (tuple(_INTEGRANDS), "brownian"),
            "integrand": (("brownian", "zeta", "constant"), "brownian"),
            "integrand_value": ("float", 1.0),
        }
    },
    "clark-ocone": {
        "clark_ocone": {"functional": (tuple(_FUNCTIONALS), "bm_squared"), "max_rel_error": ("float", 0.03)}
    },
    "solve-bsde": {
        "bsde": {
            "control": (_CONTROLS, "zero"),
            "control_value": ("float", 0.0),
            "max_rel_distance": ("float", 0.05),
        },
        "output": _OUTPUT_SCHEMA,
    },
    "check-smp": {
        "smp": {
            "candidate": (_CONTROLS + ("lq-opt",), "zero"),
            "candidate_value": ("float", 0.0),
            "tau_grid": ("float_list", [0.25, 0.5, 0.75]),
            "v_grid": ("float_list", [0.0, 0.5, 1.0]),
            "eps_grid": ("float_list", [0.2, 0.1, 0.05]),
        }
    },
    "solve-lq": {
        "iteration": {"max_iters": ("int", 80), "damping": ("float", 0.5), "tol": ("float", 2e-4)}
    },
    "convergence-study": {
        "convergence": {
            "n_steps_list": ("int_list", [64, 128, 256]),
            "ratio_low": ("float", 1.4),
            "ratio_high": ("float", 2.6),
        }
    },
}

EXPERIMENTS = tuple(_EXPERIMENT_SCHEMA)

def _family_keys(family: str) -> set:
    specs = _FAMILIES[family][1].values()
    return {"family", "x0", "atoms"} | {key for spec in specs for key in (spec if isinstance(spec, tuple) else (spec,))}


def schema_for(kind: str, family: str | None = None) -> dict:
    """Sections and keys of ``kind``; with a ``family``, [model] holds only the keys it reads."""
    if kind not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment kind {kind!r}; expected one of {', '.join(EXPERIMENTS)}")
    schema = {section: dict(keys) for section, keys in _COMMON_SCHEMA.items()}
    if family is not None:
        if family not in _FAMILIES:
            raise ConfigError(f"[model] family must be one of {', '.join(_FAMILIES)}, got {family!r}")
        schema["model"] = {key: spec for key, spec in schema["model"].items() if key in _family_keys(family)}
    for section, keys in _EXPERIMENT_SCHEMA[kind].items():
        schema[section] = dict(keys)
    return schema


def _check_known(given: dict, kind: str, family: str) -> dict:
    """Every section of ``given`` is one that ``kind`` takes, every key one of its
    section and every [model] key one that ``family`` reads; returns
    ``schema_for(kind, family)``."""
    schema = schema_for(kind)
    for section, keys in given.items():
        if section not in schema:
            raise ConfigError(f"unknown config section [{section}] for experiment {kind!r}")
        for key in keys:
            if key not in schema[section]:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
    schema = schema_for(kind, family)
    stray = [key for key in given.get("model", {}) if key not in _family_keys(family)]
    if stray:
        raise ConfigError(f"[model] {', '.join(stray)} not read by the {family!r} family")
    return schema


def parse_config(path, kind: str | None = None, overrides: dict | None = None) -> dict:
    """Read and validate an INI config; returns a flat {section: {key: value}} dict.

    Unknown sections or keys are rejected.  ``kind`` from the caller (the CLI
    subcommand) must agree with [experiment] kind when both are given.
    """
    parser = configparser.ConfigParser()
    try:
        read = parser.read(path, encoding="utf-8")
        given = {section: dict(parser[section]) for section in parser.sections()}
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"config file {path} is malformed: {exc}") from exc
    if not read:
        raise ConfigError(f"config file {path} not found or unreadable")
    file_kind = given.get("experiment", {}).get("kind")
    if kind is None:
        kind = file_kind
    if kind is None:
        raise ConfigError("no experiment kind: pass a subcommand or set [experiment] kind")
    if file_kind is not None and file_kind != kind:
        raise ConfigError(f"config declares kind {file_kind!r} but {kind!r} was requested")

    family = given.get("model", {}).get("family", _COMMON_SCHEMA["model"]["family"][1])
    schema = _check_known(given, kind, _TYPES["str"][0](family, "[model] family"))
    resolved: dict = {"experiment": {"kind": kind}}
    for section, keys in schema.items():
        resolved.setdefault(section, {})
        for key, (typ, default) in keys.items():
            if section == "experiment" and key == "kind":
                continue
            if key in given.get(section, {}):
                resolved[section][key] = _TYPES[_type_name(typ)][0](given[section][key], f"[{section}] {key}")
            else:
                resolved[section][key] = default

    if overrides:
        if overrides.get("seed") is not None:
            resolved["mc"]["seed"] = int(overrides["seed"])
        if overrides.get("n_paths") is not None:
            resolved["mc"]["n_paths"] = int(overrides["n_paths"])
    _validate_resolved(resolved)
    return resolved


def _checked(where: str, rule, *args, **kwargs):
    """``rule(*args, **kwargs)``, its ValueError reported as a ConfigError naming the section ``where``."""
    try:
        return rule(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


@dataclass(frozen=True)
class _Setup:
    """The library objects of a resolved config, built once, by ``_validate_resolved``."""

    grids: tuple[TimeGrid, ...]  # [grid], or one per [convergence] n_steps_list entry in a study
    coeffs: ControlledCoefficients
    levy: LevyMeasure
    x0: float
    linear: LinearCoefficients | None  # the closed form's coefficients; None for runs that do not solve it
    n_paths: int
    seed: int

    @property
    def grid(self) -> TimeGrid:
        return self.grids[0]

    def noise(self, grid: TimeGrid | None = None) -> NoiseBundle:
        """The run's noise on ``grid``, by default on its first grid."""
        return sample_noise(grid or self.grid, self.levy, self.n_paths, self.seed)


def _validate_resolved(cfg: dict) -> _Setup:
    """Check a resolved config and build its library objects; numeric rules are their checks."""
    kind = cfg["experiment"]["kind"]
    for section, keys in schema_for(kind, cfg["model"]["family"]).items():
        for key, (typ, _) in keys.items():
            if isinstance(typ, tuple) and cfg[section][key] not in typ:
                raise ConfigError(f"[{section}] {key} must be one of {', '.join(typ)}, got {cfg[section][key]!r}")
    if kind == "check-duality" and cfg["duality"]["integrand"] not in _INTEGRANDS[cfg["duality"]["mode"]]:
        raise ConfigError(f"[duality] integrand {cfg['duality']['integrand']!r} does not apply in its mode")
    sim = cfg.get("simulate", {})
    if sim.get("scheme") == "closed-form" and sim["control"] == "constant" and sim["control_value"] != 0.0:
        raise ConfigError("[simulate] scheme = closed-form solves the uncontrolled equation; the control must be zero")
    functionals = [cfg[section]["functional"] for section in ("duality", "clark_ocone") if section in cfg]
    if "jump_squared" in functionals and not cfg["model"]["atoms"]:
        raise ConfigError("functional 'jump_squared' needs at least one atom")
    if kind == "clark-ocone" and cfg["model"]["atoms"]:
        raise ConfigError("[model] atoms: clark-ocone reconstructs Brownian functionals and takes no atoms")
    study = kind == "convergence-study"
    step_counts = cfg["convergence"]["n_steps_list"] if study else [cfg["grid"]["n_steps"]]
    if study and len(step_counts) < 2:
        raise ConfigError("[convergence] n_steps_list needs at least two entries to measure a ratio")
    # The ratio band is a band for halving ratios: each grid halves the step of the one before.
    if any(finer != 2 * coarser for coarser, finer in zip(step_counts, step_counts[1:])):
        raise ConfigError(f"[convergence] n_steps_list must double from entry to entry, got {step_counts}")
    # A verdict threshold no run can meet would turn every run into a FAIL.
    if study and cfg["convergence"]["ratio_low"] > cfg["convergence"]["ratio_high"]:
        raise ConfigError("[convergence] ratio_low must not exceed ratio_high")
    for section, key, low in (("mc", "n_paths", 1), ("output", "csv_paths", 0),
                              ("bsde", "max_rel_distance", 0), ("clark_ocone", "max_rel_error", 0)):
        if section in cfg and cfg[section][key] < low:
            raise ConfigError(f"[{section}] {key} must be >= {low}, got {cfg[section][key]}")
    where = "[grid] or [convergence]" if study else "[grid]"
    grids = tuple(_checked(where, TimeGrid, cfg["grid"]["horizon"], n) for n in step_counts)
    coeffs, levy, x0 = _checked("[model]", build_model, cfg)
    for grid in grids:
        _checked("[model]", step_rates, grid, levy)
    linear = None
    if study or sim.get("scheme") == "closed-form":
        where = "[experiment] kind = convergence-study" if study else "[simulate] scheme = closed-form"
        linear = _checked(where, _linear_coefficients, cfg["model"], levy)
    if kind == "check-duality":
        _checked("[duality]", check_duality_mode, cfg["duality"]["mode"], levy)
    if kind == "check-smp":
        s = cfg["smp"]
        _checked("[smp]", check_spike_grids, coeffs, grids[0], s["tau_grid"], s["v_grid"], s["eps_grid"])
    if kind == "solve-lq":
        _checked("[iteration]", check_picard_settings, **cfg["iteration"])
    if kind == "solve-lq" or cfg.get("smp", {}).get("candidate") == "lq-opt":
        _checked("[model]", check_lq_structure, coeffs, grids[0], levy)
    return _Setup(grids, coeffs, levy, x0, linear, cfg["mc"]["n_paths"], cfg["mc"]["seed"])


# --------------------------------------------------------------------------
# Model families


def build_model(cfg: dict) -> tuple[ControlledCoefficients, LevyMeasure, float]:
    """Instantiate the configured model family."""
    m = cfg["model"]
    build, row = _FAMILIES[m["family"]]
    args = {arg: tuple(m[key] for key in spec) if isinstance(spec, tuple) else m[spec] for arg, spec in row.items()}
    return build(**args), LevyMeasure.from_pairs(m["atoms"]), m["x0"]


def _linear_coefficients(model: dict, levy: LevyMeasure) -> LinearCoefficients:
    """Closed-form coefficients of the uncontrolled part of a [model]: it must be 'custom-polynomial'
    with ``b_poly``, ``sigma_poly`` and ``gamma_poly`` of degree <= 1 once trailing zeros are
    trimmed, as ``polynomial_coefficients`` trims them; any other model raises ``ValueError``."""
    if model["family"] != "custom-polynomial":
        raise ValueError(f"needs a 'custom-polynomial' model, got family {model['family']!r}")
    polys = [np.trim_zeros(np.asarray(model[key], dtype=float), "b") for key in ("b_poly", "sigma_poly", "gamma_poly")]
    if max(map(len, polys)) > 2:
        raise ValueError(f"needs b_poly, sigma_poly and gamma_poly of degree <= 1, got {[c.tolist() for c in polys]}")
    (b0, b1), (s0, s1), (j0, j1) = (np.pad(c, (0, 2 - len(c))) for c in polys)
    return LinearCoefficients(b0=b0, b1=b1, s0=s0, s1=s1, g0=levy.zetas * j0, g1=levy.zetas * j1)


def _control_law(name: str, value: float, grid: TimeGrid) -> OpenLoopLaw:
    """The 'zero' or 'constant' open-loop control."""
    return OpenLoopLaw(np.full(grid.n_steps, value if name == "constant" else 0.0))


def _integrand(name: str, value: float, mode: str):
    """The [duality] integrand of the noise bundle; ``name`` is one of ``_INTEGRANDS[mode]``."""
    if name == "brownian":
        return lambda b: b.brownian()[:, :-1]
    if name == "zeta":
        return lambda b: np.broadcast_to(b.levy.zetas[None, None, :], (b.n_paths, b.grid.n_steps, b.levy.n_atoms))
    if mode == "brownian":
        return lambda b: np.full((b.n_paths, b.grid.n_steps), value)
    return lambda b: np.full((b.n_paths, b.grid.n_steps, b.levy.n_atoms), value)


# --------------------------------------------------------------------------
# Experiments


def _digest(arr: np.ndarray) -> str:
    """sha256 of the array's C-ordered bytes, hashed one row block at a time."""
    digest = sha256()
    for block in row_blocks(arr):
        digest.update(block)
    return digest.hexdigest()


def _plain(report) -> dict:
    """A report dataclass as a JSON-ready dict, arrays as nested lists."""
    return {key: value.tolist() if isinstance(value, np.ndarray) else value for key, value in asdict(report).items()}


def _write_json(path: Path, obj) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)


def _write_csv(path: Path, header, rows) -> None:
    """Write a header row and data rows as CSV.

    Floats (``np.float64`` included) carry 17 significant digits; every
    other cell, such as an int, a bool or ``""``, is written as it is.
    """
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([format(v, ".17g") if isinstance(v, float) else v for v in row])


def _path_table(grid: TimeGrid, columns: dict) -> tuple:
    """Header and rows of a per-path CSV: ``path_id, step, t``, the node column, then the step columns.

    The first of ``columns`` is the node column, one value per grid node; the
    others have one value per step.  Each column holds the paths to write.
    The terminal row (step = N) has blanks after the node value.
    """
    (node_name, node), *steps = columns.items()
    times, n_steps = grid.times(), grid.n_steps

    def rows():
        for j in range(len(node)):
            for i in range(n_steps):
                yield [j, i, times[i], node[j, i], *(values[j, i] for _, values in steps)]
            yield [j, n_steps, times[-1], node[j, -1]] + [""] * len(steps)

    return ["path_id", "step", "t", node_name] + [name for name, _ in steps], rows()


# Each runner returns its exit code, payload, summary lines and artifacts, a
# {file name: content} dict: JSON content, or the (header, rows) of a CSV file.


def _run_simulate(cfg, setup: _Setup):
    grid, noise, sim = setup.grid, setup.noise(), cfg["simulate"]
    if sim["scheme"] == "euler":
        law = _control_law(sim["control"], sim["control_value"], grid)
        bundle = euler_forward(setup.coeffs, law, noise, setup.x0)
    else:
        bundle = linear_closed_form(setup.linear, noise, setup.x0)
    terminal = bundle.X[:, -1]
    payload = {
        "mean_terminal": float(terminal.mean()),
        "var_terminal": float(terminal.var(ddof=1)) if terminal.shape[0] > 1 else 0.0,
        "total_jumps": int(noise.jump_counts.sum()),
        "state_digest": _digest(bundle.X),
        "noise_digest": _digest(noise.dB),
    }
    k = cfg["output"]["csv_paths"]
    jump_sum = (noise.jump_counts[:k] * setup.levy.zetas).sum(axis=2)
    columns = {"X": bundle.X[:k], "u": bundle.u[:k], "dB": noise.dB[:k], "jump_sum": jump_sum}
    lines = [
        f"simulated {setup.n_paths} paths on {grid.n_steps} steps ({sim['scheme']})",
        f"terminal mean {payload['mean_terminal']:.6g}, variance {payload['var_terminal']:.6g}",
        f"total jump count {payload['total_jumps']}",
    ]
    return EXIT_PASS, payload, lines, {"paths.csv": _path_table(grid, columns)}


def _run_check_duality(cfg, setup: _Setup):
    d = cfg["duality"]
    mode = d["mode"]
    F = _FUNCTIONALS[d["functional"]](setup.grid, setup.levy)
    integrand = _integrand(d["integrand"], d["integrand_value"], mode)
    report = check_duality(F, integrand, mode, setup.noise())
    payload = _plain(report)
    lines = [
        f"duality ({mode}) of {d['functional']} against {d['integrand']}",
        f"lhs {report.lhs:.6g} (se {report.se_lhs:.2g}), rhs {report.rhs:.6g} (se {report.se_rhs:.2g})",
        f"verdict: {'pass' if report.verdict else 'FAIL'} at 3 standard errors",
    ]
    return (EXIT_PASS if report.verdict else EXIT_FAIL), payload, lines, {"duality.json": payload}


def _run_clark_ocone(cfg, setup: _Setup):
    c = cfg["clark_ocone"]
    F = _FUNCTIONALS[c["functional"]](setup.grid, setup.levy)
    report, _, _ = clark_ocone_reconstruct(F, setup.noise())
    ok = report.l2_error <= c["max_rel_error"]
    payload = dict(_plain(report), max_rel_error=c["max_rel_error"], verdict=bool(ok))
    lines = [
        f"martingale reconstruction of {c['functional']} on {setup.grid.n_steps} steps",
        f"relative squared-L2 error {report.l2_error:.4g} (threshold {c['max_rel_error']:.4g})",
        f"verdict: {'pass' if ok else 'FAIL'}",
    ]
    return (EXIT_PASS if ok else EXIT_FAIL), payload, lines, {"clark_ocone.json": payload}


def _run_solve_bsde(cfg, setup: _Setup):
    grid, coeffs = setup.grid, setup.coeffs
    law = _control_law(cfg["bsde"]["control"], cfg["bsde"]["control_value"], grid)
    forward = euler_forward(coeffs, law, setup.noise(), setup.x0)
    # no name holds the partials, so those of full size (f_x = x in the lq family) are freed with the sweep
    explicit, p_implicit = solve_adjoint(
        partials_along(coeffs, forward), coeffs.g_x(forward.X[:, -1]), forward, cross_check=True
    )
    digests = []  # in call order: explicit, then implicit
    with beside(lambda arr: digests.append(_digest(arr)), setup.n_paths * grid.n_steps) as digest:
        digest(explicit.p)
        digest(p_implicit)
        distance = relative_l2_dtP(p_implicit, explicit.p, grid.dt)
    ok = distance <= cfg["bsde"]["max_rel_distance"]
    payload = {
        "cross_solver_distance": float(distance),
        "max_rel_distance": cfg["bsde"]["max_rel_distance"],
        "p_explicit_digest": digests[0],
        "p_regression_digest": digests[1],
        "p0_mean_explicit": float(explicit.p[:, 0].mean()),
        "verdict": bool(ok),
    }
    k = cfg["output"]["csv_paths"]
    r = {f"r_atom{a}": explicit.r[:k, :, a] for a in range(explicit.r.shape[2])}
    columns = {"p": explicit.p[:k], "q": explicit.q[:k]} | r
    lines = [
        f"adjoint equation solved two ways on {setup.n_paths} paths",
        f"relative L2(dt x P) distance {distance:.4g} (threshold {cfg['bsde']['max_rel_distance']:.4g})",
        f"verdict: {'pass' if ok else 'FAIL'}",
    ]
    return (EXIT_PASS if ok else EXIT_FAIL), payload, lines, {"adjoint.csv": _path_table(grid, columns)}


def _run_check_smp(cfg, setup: _Setup):
    noise = setup.noise()
    s = cfg["smp"]
    if s["candidate"] == "lq-opt":
        params = LqParams(x0=setup.x0, coeffs=setup.coeffs, noise=noise)
        candidate = solve_constrained(params).feedback_law()
    else:
        candidate = _control_law(s["candidate"], s["candidate_value"], setup.grid)
    verdict = check_necessary_condition(
        candidate, setup.coeffs, noise, setup.x0, s["tau_grid"], s["v_grid"], s["eps_grid"]
    )
    payload = _plain(verdict)
    rows = (
        [tau, v, eps, verdict.statistic[a, b], verdict.statistic_se[a, b], verdict.diff_quotient[a, b, c],
         bool(verdict.pass_cells[a, b])]
        for a, tau in enumerate(verdict.tau_grid)
        for b, v in enumerate(verdict.v_grid)
        for c, eps in enumerate(verdict.eps_grid)
    )
    header = ["tau", "v", "eps", "statistic", "se", "diff_quotient", "pass"]
    artifacts = {"smp_verdict.json": payload, "smp_verdict.csv": (header, rows)}
    worst = float(np.max(verdict.statistic - 3.0 * verdict.statistic_se))
    lines = [
        f"first-order condition over {len(s['tau_grid'])}x{len(s['v_grid'])} cells, eps grid {s['eps_grid']}",
        f"worst statistic margin {worst:.4g} (pass requires <= 0)",
        f"verdict: {'pass' if verdict.passed else 'FAIL'}",
    ]
    return (EXIT_PASS if verdict.passed else EXIT_FAIL), payload, lines, artifacts


def _run_solve_lq(cfg, setup: _Setup):
    grid = setup.grid
    params = LqParams(x0=setup.x0, coeffs=setup.coeffs, noise=setup.noise(), **cfg["iteration"])
    sol = solve_constrained(params)
    comparison = compare_to_unconstrained(sol, params)
    payload = {
        "converged": bool(sol.converged),
        "iterations": len(sol.residual_history),
        "residual_history": [float(r) for r in sol.residual_history],
        "control_norm": float(l2_dtP_norm(sol.u_values, grid.dt)),
        "fbsde_residual": float(sol.fbsde_residual),
        "comparison": _plain(comparison),
        "control_digest": _digest(sol.u_values),
    }
    fits, times = sol.p_hat.p_fits, grid.times()
    header = ["step", "t", "feature_mean", "feature_scale"] + [f"c{k}" for k in range(len(fits[0].coeffs))]
    rows = ([i, times[i], fit.feature_mean[0], fit.feature_scale[0], *fit.coeffs] for i, fit in enumerate(fits))
    artifacts = {
        "feedback_coefficients.csv": (header, rows),
        "residuals.csv": (["iteration", "residual"], enumerate(sol.residual_history)),
        "comparison.json": payload["comparison"],
    }
    lines = [
        f"constrained solver {'converged' if sol.converged else 'DID NOT converge'} in {len(sol.residual_history)} iterates",
        f"control L2(dt x P) norm {payload['control_norm']:.4g}, fixed-point residual {sol.fbsde_residual:.3g}",
        f"distance to unconstrained feedback {comparison.control_distance:.4g}, binding fraction {comparison.binding_fraction:.3g}",
    ]
    return (EXIT_PASS if sol.converged else EXIT_FAIL), payload, lines, artifacts


def _run_convergence_study(cfg, setup: _Setup):
    conv = cfg["convergence"]
    rmses = []
    for grid in setup.grids:
        noise = setup.noise(grid)
        eul = euler_forward(setup.coeffs, OpenLoopLaw(np.zeros(grid.n_steps)), noise, setup.x0)
        closed = linear_closed_form(setup.linear, noise, setup.x0)
        rmses.append(float(np.sqrt(np.mean((eul.X[:, -1] - closed.X[:, -1]) ** 2))))
        if len(rmses) > 1 and rmses[-1] == 0.0:
            raise DegenerateStudy(f"terminal RMSE is 0 on the {grid.n_steps}-step grid, so no halving ratio can be measured")
    ratios = [rmses[i] / rmses[i + 1] for i in range(len(rmses) - 1)]
    ok = all(conv["ratio_low"] <= r <= conv["ratio_high"] for r in ratios)
    payload = {
        "n_steps_list": [grid.n_steps for grid in setup.grids],
        "rmse": rmses,
        "ratios": ratios,
        "ratio_low": conv["ratio_low"],
        "ratio_high": conv["ratio_high"],
        "verdict": bool(ok),
    }
    lines = [
        "terminal RMSE between the Euler scheme and the closed form on common noise",
        "rmse " + ", ".join(f"{n}: {r:.6g}" for n, r in zip(payload["n_steps_list"], rmses)),
        f"halving ratios {', '.join(f'{r:.3f}' for r in ratios)} within [{conv['ratio_low']}, {conv['ratio_high']}]: "
        + ("pass" if ok else "FAIL"),
    ]
    return (EXIT_PASS if ok else EXIT_FAIL), payload, lines, {"convergence.json": payload}


_RUNNERS = {
    "simulate": _run_simulate,
    "check-duality": _run_check_duality,
    "clark-ocone": _run_clark_ocone,
    "solve-bsde": _run_solve_bsde,
    "check-smp": _run_check_smp,
    "solve-lq": _run_solve_lq,
    "convergence-study": _run_convergence_study,
}


@dataclass
class RunResult:
    exit_code: int
    report: dict
    report_path: Path | None


def run(cfg: dict, out_dir=None) -> RunResult:
    """Execute the configured experiment; with ``out_dir`` it writes report.json,
    summary.txt and the kind's artifacts there once the run has finished.

    Exit code 0 on verdict pass, 1 on verdict fail; configuration problems
    raise ConfigError (exit 2 at the CLI) and numerical failures raise the
    package errors (exit 3), both before anything is written.
    """
    setup = _validate_resolved(cfg)
    kind = cfg["experiment"]["kind"]
    started = time.perf_counter()
    exit_code, payload, lines, artifacts = _RUNNERS[kind](cfg, setup)
    runtime = time.perf_counter() - started
    report = {
        "version": __version__,
        "kind": kind,
        "seed": cfg["mc"]["seed"],
        "config": cfg,
        "runtime_seconds": runtime,
        "payload": payload,
    }
    if out_dir is None:
        return RunResult(exit_code=exit_code, report=report, report_path=None)
    out_path = Path(out_dir)
    out_path.mkdir(parents=True, exist_ok=True)
    for name, content in (artifacts | {"report.json": report}).items():
        if name.endswith(".json"):
            _write_json(out_path / name, content)
        else:
            _write_csv(out_path / name, *content)
    with open(out_path / "summary.txt", "w") as fh:
        fh.write(f"experiment: {kind} (seed {cfg['mc']['seed']}, version {__version__})\n")
        for line in lines:
            fh.write(line + "\n")
        fh.write(f"runtime: {runtime:.2f} s\n")
        fh.write(f"exit code: {exit_code}\n")
    return RunResult(exit_code=exit_code, report=report, report_path=out_path / "report.json")


def _canonical(payload) -> str:
    return json.dumps(payload, sort_keys=True)


def _check_json_types(cfg: dict) -> None:
    """The embedded config holds only the sections and keys of its kind and [model]
    only those of its family (``_check_known``), and every value has the JSON type
    its schema entry resolves to."""
    schema = _check_known(cfg, cfg["experiment"]["kind"], cfg["model"]["family"])
    for section, keys in schema.items():
        for key, (typ, _) in keys.items():
            name = _type_name(typ)
            if not _TYPES[name][1](cfg[section][key]):
                raise ConfigError(f"[{section}] {key}: expected a JSON {name}, got {cfg[section][key]!r}")


def replay(report_path) -> int:
    """Re-run the embedded config and demand a bit-identical numeric payload.

    The embedded config is checked first, for sections and keys its kind
    does not take and for the JSON type of each value, and then, by ``run``,
    with the rules of a resolved config file, so a report edited to break
    one is a ConfigError.
    """
    path = Path(report_path)
    if not path.is_file():
        raise ConfigError(f"report file {path} not found")
    try:
        with open(path, encoding="utf-8") as fh:
            report = json.load(fh)
        cfg = report["config"]
        recorded = report["payload"]
        _check_json_types(cfg)
    except (ValueError, KeyError, TypeError) as exc:
        raise ConfigError(f"report file {path} is not a valid run report: {exc}") from exc
    result = run(cfg)
    if _canonical(result.report["payload"]) != _canonical(recorded):
        raise ReplayMismatch("replayed payload differs from the recorded report")
    return EXIT_PASS
