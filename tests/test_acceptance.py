"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every tolerance is pinned here at the value stated in the criterion; sizes
are the stated ones (path counts, grids).  All runs are seeded and therefore
bit-reproducible.
"""

import json
import math
import time

import numpy as np
import pytest

from smplab.bsde import extract_qr, l2_dtP_norm, relative_l2_dtP, solve_adjoint
from smplab.harness import parse_config, replay, run
from smplab.lqsolver import LqParams, compare_to_unconstrained, solve_constrained
from smplab.malliavin import (
    Compose,
    bm_integral,
    check_duality,
    clark_ocone_reconstruct,
    conditional_derivative,
    jump_integral,
    square_map,
)
from smplab.model import ControlledCoefficients, LevyMeasure, OpenLoopLaw, TimeGrid, build_lq_coefficients, like
from smplab.simulate import LinearCoefficients, PathBundle, euler_forward, linear_closed_form, sample_noise
from smplab.smp import CoefficientPartials, check_necessary_condition, partials_along, spike_perturb, variational_Z


def _report(criterion: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def _linear_jump_model(b1, s1):
    return ControlledCoefficients(
        b=lambda t, x, u: b1 * np.asarray(x, dtype=float),
        sigma=lambda t, x, u: s1 * np.asarray(x, dtype=float),
        gamma=lambda t, x, u, zeta: zeta * np.asarray(x, dtype=float),
        f=lambda t, x, u: like(0.0, x, u),
        g=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        b_x=lambda t, x, u: like(b1, x, u),
        b_u=lambda t, x, u: like(0.0, x, u),
        sigma_x=lambda t, x, u: like(s1, x, u),
        sigma_u=lambda t, x, u: like(0.0, x, u),
        gamma_x=lambda t, x, u, zeta: like(zeta, x, u),
        gamma_u=lambda t, x, u, zeta: like(0.0, x, u),
        f_x=lambda t, x, u: like(0.0, x, u),
        f_u=lambda t, x, u: like(0.0, x, u),
        g_x=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
    )


def test_criterion_01_closed_form_vs_euler_convergence():
    # linear model b1=0.05, s1=0.2, atom (-0.1, 0.5), gamma1=zeta, x0=1, T=1,
    # 1e4 common-noise paths: terminal RMSE halves (+-30%) as N doubles
    started = time.perf_counter()
    coeffs = _linear_jump_model(0.05, 0.2)
    levy = LevyMeasure.from_pairs([(-0.1, 0.5)])
    rmses = []
    for n_steps in (64, 128, 256):
        grid = TimeGrid(1.0, n_steps)
        noise = sample_noise(grid, levy, 10_000, 2024)
        eul = euler_forward(coeffs, OpenLoopLaw(np.zeros(n_steps)), noise, 1.0)
        closed = linear_closed_form(LinearCoefficients(b1=0.05, s1=0.2, g1=-0.1), noise, 1.0)
        rmses.append(float(np.sqrt(np.mean((eul.X[:, -1] - closed.X[:, -1]) ** 2))))
    ratios = [rmses[i] / rmses[i + 1] for i in range(2)]
    elapsed = time.perf_counter() - started
    ok = all(2.0 * 0.7 <= r <= 2.0 * 1.3 for r in ratios) and elapsed < 60.0
    _report(1, ok, f"rmse ratios {ratios[0]:.3f}, {ratios[1]:.3f} in [1.4, 2.6]; runtime {elapsed:.1f}s")


def test_criterion_02_brownian_duality():
    # F = B(T)^2, phi = B(t), T=1: both sides equal 1 analytically; the Monte
    # Carlo verdict passes at 3 standard errors with 1e5 paths
    grid = TimeGrid(1.0, 100)
    F = Compose(square_map(), (bm_integral(grid, 1.0),))
    noise = sample_noise(grid, LevyMeasure.empty(), 100_000, 11)
    report = check_duality(F, lambda b: b.brownian()[:, :-1], "brownian", noise)
    ok = report.verdict and abs(report.lhs - 1.0) < 0.05 and abs(report.rhs - 1.0) < 0.05
    _report(2, ok, f"lhs {report.lhs:.4f}, rhs {report.rhs:.4f}, verdict at 3se: {report.verdict}")


def test_criterion_03_jump_duality():
    # F = eta(T)^2, Psi = zeta, atom (0.2, 1), T=1: both sides 0.008
    grid = TimeGrid(1.0, 100)
    levy = LevyMeasure.from_pairs([(0.2, 1.0)])
    F = Compose(square_map(), (jump_integral(grid, levy, np.tile(levy.zetas, (grid.n_steps, 1))),))
    integrand = lambda b: np.broadcast_to(b.levy.zetas[None, None, :], (b.n_paths, grid.n_steps, 1))
    report = check_duality(F, integrand, "jump", sample_noise(grid, levy, 100_000, 12))
    ok = report.verdict and abs(report.lhs - 0.008) < 0.002 and abs(report.rhs - 0.008) < 0.002
    _report(3, ok, f"lhs {report.lhs:.5f}, rhs {report.rhs:.5f} (oracle 0.008), verdict: {report.verdict}")


def test_criterion_04_martingale_reconstruction():
    # F = B(T)^2, N=200, 1e5 paths: relative L2 reconstruction error < 3%
    # against the Ito oracle B(T)^2 = T + 2 int B dB
    grid = TimeGrid(1.0, 200)
    F = Compose(square_map(), (bm_integral(grid, 1.0),))
    bundle = sample_noise(grid, LevyMeasure.empty(), 100_000, 13)
    report, f_vals, recon = clark_ocone_reconstruct(F, bundle)
    B = bundle.brownian()
    oracle = grid.horizon + 2.0 * np.sum(B[:, :-1] * bundle.dB, axis=1)
    vs_oracle = float(np.mean((recon - oracle) ** 2) / np.mean(oracle**2))
    ok = report.l2_error < 0.03 and vs_oracle < 0.03
    _report(4, ok, f"reconstruction error {report.l2_error:.4f} < 0.03; vs Ito oracle {vs_oracle:.5f}")


def test_criterion_05_martingale_coefficient_surrogate():
    # (a) terminal B(T), zero driver: extracted q within 3% L2 of 1
    grid = TimeGrid(1.0, 100)
    noise = sample_noise(grid, LevyMeasure.empty(), 100_000, 21)
    B = noise.brownian()
    forward = PathBundle(grid=grid, X=B, u=np.zeros((100_000, 100)), noise=noise)
    zeros, no_atoms = np.zeros((100_000, 100)), np.zeros((100_000, 100, 0))
    part = CoefficientPartials(zeros, zeros, zeros, no_atoms)
    triple, _ = solve_adjoint(part, B[:, -1], forward)
    q_err = math.sqrt(float(np.mean((triple.q - 1.0) ** 2)))
    # (b) p(t) = B(t)^2 - t: extracted q within 5% L2 of 2B(t), and the
    # symbolic conditional derivative matches the regression
    p_man = B**2 - grid.times()[None, :]
    q, _, _ = extract_qr(p_man, noise)
    truth = 2.0 * B[:, :-1]
    q2_err = math.sqrt(float(np.mean((q - truth) ** 2) / np.mean(truth**2)))
    F = Compose(square_map(), (bm_integral(grid, 1.0),))
    steps = list(range(0, 100, 10))
    sym = np.column_stack([conditional_derivative(F, noise, i, "brownian") for i in steps])
    gap = math.sqrt(float(np.mean((sym - q[:, steps]) ** 2) / np.mean(sym**2)))
    ok = q_err < 0.03 and q2_err < 0.05 and gap < 0.08
    _report(5, ok, f"q vs 1: {q_err:.4f} < 0.03; q vs 2B: {q2_err:.4f} < 0.05; symbolic gap {gap:.4f}")


def test_criterion_06_cross_solver_equivalence():
    # explicit weighted formula vs backward regression on the constrained-LQ
    # adjoint: <= 5% relative L2(dt x P) distance at 1e5 paths, N = 100
    grid = TimeGrid(1.0, 100)
    levy = LevyMeasure.empty()
    coeffs = build_lq_coefficients(0.1)
    noise = sample_noise(grid, levy, 100_000, 77)
    law = OpenLoopLaw(np.zeros(100))
    forward = euler_forward(coeffs, law, noise, 1.0)
    part = partials_along(coeffs, forward)
    explicit, p_implicit = solve_adjoint(part, coeffs.g_x(forward.X[:, -1]), forward, cross_check=True)
    distance = relative_l2_dtP(p_implicit, explicit.p, grid.dt)
    _report(6, distance <= 0.05, f"relative L2(dt x P) distance {distance:.5f} <= 0.05")


def test_criterion_07_constrained_lq():
    started = time.perf_counter()
    grid = TimeGrid(1.0, 100)
    # (a) x0 = 1: constraint binds, control norm < 0.05
    lq = build_lq_coefficients(0.1)
    params_a = LqParams(x0=1.0, coeffs=lq, noise=sample_noise(grid, LevyMeasure.empty(), 20_000, 201))
    sol_a = solve_constrained(params_a)
    norm_a = l2_dtP_norm(sol_a.u_values, grid.dt)
    # (b) x0 = -1: within 5% of the unconstrained feedback law
    params_b = LqParams(x0=-1.0, coeffs=lq, noise=sample_noise(grid, LevyMeasure.empty(), 20_000, 202))
    sol_b = solve_constrained(params_b)
    rep_b = compare_to_unconstrained(sol_b, params_b)
    # (c) deterministic: sigma = 0, N = 1000, distance < 1e-3
    grid_c = TimeGrid(1.0, 1000)
    noise_c = sample_noise(grid_c, LevyMeasure.empty(), 64, 203)
    params_c = LqParams(x0=-1.0, coeffs=build_lq_coefficients(0.0), noise=noise_c, tol=1e-8)
    sol_c = solve_constrained(params_c)
    rep_c = compare_to_unconstrained(sol_c, params_c)
    elapsed = time.perf_counter() - started
    ok = (
        sol_a.converged
        and norm_a < 0.05
        and sol_b.converged
        and rep_b.control_distance < 0.05
        and sol_c.converged
        and rep_c.control_distance < 1e-3
        and elapsed < 300.0
    )
    _report(
        7,
        ok,
        f"(a) norm {norm_a:.4f} < 0.05; (b) distance {rep_b.control_distance:.4f} < 0.05; "
        f"(c) distance {rep_c.control_distance:.2e} < 1e-3; runtime {elapsed:.1f}s",
    )


def test_criterion_08_maximum_principle_verdict():
    grid = TimeGrid(1.0, 100)
    levy = LevyMeasure.empty()
    coeffs = build_lq_coefficients(0.1)
    noise = sample_noise(grid, levy, 20_000, 301)
    taus, vs, eps = [0.25, 0.5, 0.75], [0.0, 0.5, 1.0], [0.2, 0.1, 0.05]
    # converged constrained solution passes on the 3x3 grid
    params = LqParams(x0=1.0, coeffs=coeffs, noise=noise)
    sol = solve_constrained(params)
    law = OpenLoopLaw(sol.u_values)
    verdict_opt = check_necessary_condition(law, coeffs, noise, 1.0, taus, vs, eps)
    # the deliberately suboptimal constant control 1 fails with a positive
    # statistic beyond 3 standard errors
    bad = OpenLoopLaw(np.ones(100))
    verdict_bad = check_necessary_condition(bad, coeffs, noise, 1.0, taus, [0.0], eps)
    margin = float(np.max(verdict_bad.statistic - 3.0 * verdict_bad.statistic_se))
    ok = verdict_opt.passed and (not verdict_bad.passed) and margin > 0.0
    _report(
        8,
        ok,
        f"optimal candidate passes: {verdict_opt.passed}; constant-1 fails with margin {margin:.3f} > 0",
    )


def test_criterion_09_spike_gateaux_consistency():
    grid = TimeGrid(1.0, 100)
    levy = LevyMeasure.empty()
    coeffs = build_lq_coefficients(0.1)
    noise = sample_noise(grid, levy, 40_000, 401)
    law = OpenLoopLaw(np.zeros(100))
    verdict = check_necessary_condition(law, coeffs, noise, 1.0, [0.5], [1.0], [0.2, 0.1, 0.05])
    stat = float(verdict.statistic[0, 0])
    se = float(verdict.statistic_se[0, 0])
    gaps = np.abs(verdict.diff_quotient[0, 0] - stat)
    bands = 3.0 * (verdict.diff_quotient_se[0, 0, :-1] + verdict.diff_quotient_se[0, 0, 1:] + se)
    monotone = bool(np.all(np.diff(gaps) <= bands))
    # variational scaling: E[Z(T)^2] quarters when eps halves
    ratios = []
    z_prev = None
    for eps in (0.2, 0.1, 0.05):
        Z = variational_Z(
            spike_perturb(law, grid, 0.5, eps, 1.0), coeffs, euler_forward(coeffs, law, noise, 1.0)
        )
        z_sq = float(np.mean(Z[:, -1] ** 2))
        if z_prev is not None:
            ratios.append(z_prev / z_sq)
        z_prev = z_sq
    scaling = all(4.0 * 0.7 <= r <= 4.0 * 1.3 for r in ratios)
    ok = abs(stat - (-1.0)) <= 5 * se + 0.01 and monotone and scaling
    _report(
        9,
        ok,
        f"statistic {stat:.4f} ~ -1; gaps {np.array2string(gaps, precision=3)} shrink monotonically; "
        f"Z-scaling ratios {[f'{r:.2f}' for r in ratios]} = 4 +- 30%",
    )


EXPERIMENT_CONFIGS = {
    "simulate": "\n[model]\nfamily = lq\natoms = -0.1:0.5\n",
    "check-duality": "\n[duality]\nfunctional = bm_squared\nmode = brownian\nintegrand = brownian\n",
    "clark-ocone": "\n[clark_ocone]\nfunctional = bm_squared\n",
    "solve-bsde": "",
    "check-smp": "\n[smp]\ncandidate = zero\ntau_grid = 0.5\nv_grid = 1.0\neps_grid = 0.2, 0.1\n",
    "solve-lq": "",
    "convergence-study": (
        "\n[model]\nfamily = custom-polynomial\nu_cost = 0\nb_poly = 0, 0.05\nsigma_poly = 0, 0.2\ngamma_poly = 0, 1.0\n"
        "atoms = -0.1:0.5\n\n[convergence]\nn_steps_list = 32, 64, 128\nratio_low = 1.2\nratio_high = 1.8\n"
    ),
}


def test_criterion_10_replay_determinism(tmp_path):
    # every experiment kind, replayed from its own report, is bit-identical
    outcomes = {}
    for kind, extra in EXPERIMENT_CONFIGS.items():
        cfg_text = f"[experiment]\nkind = {kind}\n\n[grid]\nhorizon = 1.0\nn_steps = 40\n\n[mc]\nn_paths = 2000\nseed = 5\n" + extra
        cfg_path = tmp_path / f"{kind}.ini"
        cfg_path.write_text(cfg_text)
        cfg = parse_config(cfg_path)
        result = run(cfg, out_dir=tmp_path / kind)
        outcomes[kind] = replay(result.report_path)
    ok = all(code == 0 for code in outcomes.values())
    _report(10, ok, f"replay exit codes: {outcomes}")
