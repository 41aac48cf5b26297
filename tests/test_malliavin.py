import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smplab.errors import (
    InsufficientPaths,
    JumpDependentFunctional,
    NonAdaptedIntegrand,
    UnsupportedNode,
)
from smplab.malliavin import (
    Brownian,
    Compose,
    Constant,
    Jump,
    PolynomialBasis,
    StateProjector,
    affine_map,
    bm_integral,
    check_duality,
    clark_ocone_reconstruct,
    conditional_derivative,
    constant,
    evaluate,
    hm_derivative,
    is_deterministic,
    jump_integral,
    product_map,
    square_map,
    state_features,
)
from smplab import malliavin
from smplab.model import LevyMeasure, TimeGrid
from smplab.simulate import sample_noise

GRID = TimeGrid(1.0, 100)
LEVY = LevyMeasure.from_pairs([(0.2, 1.0)])
NO_JUMPS = LevyMeasure.empty()


def draw(n_paths, seed, levy=NO_JUMPS, grid=GRID):
    return sample_noise(grid, levy, n_paths, seed)


def bm_squared(grid=GRID):
    return Compose(square_map(), (bm_integral(grid, 1.0),))


def eta_squared(grid=GRID, levy=LEVY):
    return Compose(square_map(), (jump_integral(grid, levy, np.tile(levy.zetas, (grid.n_steps, 1))),))


class TestDerivativeRules:
    def test_bm_integral_picks_integrand(self):
        h = np.linspace(0.5, 2.0, GRID.n_steps)
        F = bm_integral(GRID, h)
        d = hm_derivative(F, Brownian(0.375))
        assert isinstance(d, Constant)
        assert d.value == h[GRID.step_of(0.375)]

    def test_brownian_chain_rule_square(self):
        noise = sample_noise(GRID, NO_JUMPS, 4000, 1)
        d = hm_derivative(bm_squared(), Brownian(0.3))
        assert np.allclose(evaluate(d, noise), 2.0 * noise.brownian()[:, -1])

    def test_jump_direction_of_bm_integral_vanishes(self):
        d = hm_derivative(bm_integral(GRID, 1.0), Jump(0.3, 0.2))
        assert isinstance(d, Constant) and d.value == 0.0

    def test_brownian_direction_of_jump_integral_vanishes(self):
        F = jump_integral(GRID, LEVY, np.tile(LEVY.zetas, (GRID.n_steps, 1)))
        d = hm_derivative(F, Brownian(0.3))
        assert isinstance(d, Constant) and d.value == 0.0

    def test_jump_chain_rule_difference(self):
        noise = sample_noise(GRID, LEVY, 4000, 2)
        d = hm_derivative(eta_squared(), Jump(0.3, 0.2))
        eta = noise.compensated_jump_path()[:, -1]
        assert np.allclose(evaluate(d, noise), 2.0 * eta * 0.2 + 0.04)

    def test_jump_rule_on_linear_map_collapses(self):
        # difference rule equals the linear rule for affine maps
        F = jump_integral(GRID, LEVY, np.tile(LEVY.zetas, (GRID.n_steps, 1)))
        lin = Compose(affine_map(1.5, (3.0,)), (F,))
        noise = sample_noise(GRID, LEVY, 2000, 3)
        d = hm_derivative(lin, Jump(0.3, 0.2))
        d_child = hm_derivative(F, Jump(0.3, 0.2))
        assert np.allclose(evaluate(d, noise), 3.0 * evaluate(d_child, noise))

    def test_adaptedness_rule(self):
        # integrand supported on [0, 0.5): derivative vanishes for t > 0.5
        h = np.where(GRID.times()[:-1] < 0.5, 1.0, 0.0)
        F = Compose(square_map(), (bm_integral(GRID, h),))
        noise = sample_noise(GRID, NO_JUMPS, 500, 4)
        for t in (0.55, 0.75, 1.0):
            assert np.all(evaluate(hm_derivative(F, Brownian(t)), noise) == 0.0)
        psi = np.tile(LEVY.zetas, (GRID.n_steps, 1)) * (GRID.times()[:-1] < 0.5)[:, None]
        Fj = Compose(square_map(), (jump_integral(GRID, LEVY, psi),))
        noise_j = sample_noise(GRID, LEVY, 500, 4)
        for t in (0.55, 0.75, 1.0):
            assert np.all(evaluate(hm_derivative(Fj, Jump(t, 0.2)), noise_j) == 0.0)

    @given(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0), st.floats(0.0, 1.0))
    @settings(max_examples=20, deadline=None)
    def test_linearity(self, a, b, t):
        noise = sample_noise(GRID, NO_JUMPS, 300, 5)
        F1 = bm_squared()
        F2 = bm_integral(GRID, np.linspace(0.0, 1.0, GRID.n_steps))
        combo = Compose(affine_map(0.0, (a, b)), (F1, F2))
        d_combo = evaluate(hm_derivative(combo, Brownian(t)), noise)
        d_parts = a * evaluate(hm_derivative(F1, Brownian(t)), noise) + b * evaluate(
            hm_derivative(F2, Brownian(t)), noise
        )
        assert np.allclose(d_combo, d_parts, atol=1e-12)

    def test_product_as_compose(self):
        noise = sample_noise(GRID, NO_JUMPS, 1000, 6)
        F1 = bm_integral(GRID, 1.0)
        F2 = bm_integral(GRID, np.linspace(0.0, 1.0, GRID.n_steps))
        prod = Compose(product_map(), (F1, F2))
        d = evaluate(hm_derivative(prod, Brownian(0.4)), noise)
        i = GRID.step_of(0.4)
        expected = evaluate(F2, noise) * 1.0 + evaluate(F1, noise) * np.linspace(0.0, 1.0, GRID.n_steps)[i]
        assert np.allclose(d, expected)

    def test_constant_derivative_zero(self):
        assert hm_derivative(constant(3.0), Brownian(0.1)).value == 0.0

    def test_second_brownian_derivative_via_hessian(self):
        d = hm_derivative(bm_squared(), Brownian(0.3))
        dd = hm_derivative(d, Brownian(0.2))
        noise = sample_noise(GRID, NO_JUMPS, 100, 6)
        assert np.allclose(evaluate(dd, noise), 2.0)

    def test_gradient_free_map_rejected(self):
        from smplab.malliavin import SmoothMap

        opaque = SmoothMap(fn=lambda a: np.tanh(a[0]), grad=None, name="opaque")
        F = Compose(opaque, (bm_integral(GRID, 1.0),))
        with pytest.raises(UnsupportedNode):
            hm_derivative(F, Brownian(0.3))

    def test_unknown_direction_time_rejected(self):
        with pytest.raises(ValueError):
            hm_derivative(bm_squared(), Brownian(1.5))


class TestProjection:
    def test_constant_values_exact(self):
        noise = sample_noise(GRID, NO_JUMPS, 2000, 7)
        feats = noise.brownian()[:, 50]
        out = StateProjector(feats).fit(np.full(2000, 3.25)).fitted
        assert np.allclose(out, 3.25, atol=1e-8)

    def test_martingale_projection(self):
        noise = sample_noise(GRID, NO_JUMPS, 100_000, 8)
        B = noise.brownian()
        fit = StateProjector(B[:, 50]).fit(2.0 * B[:, -1]).fitted
        truth = 2.0 * B[:, 50]
        rel = math.sqrt(np.mean((fit - truth) ** 2) / np.mean(truth**2))
        assert rel < 0.02

    def test_gaussian_second_moment_projection(self):
        noise = sample_noise(GRID, NO_JUMPS, 100_000, 9)
        B = noise.brownian()
        fit = StateProjector(B[:, 50]).fit(B[:, -1] ** 2).fitted
        truth = B[:, 50] ** 2 + 0.5
        rel = math.sqrt(np.mean((fit - truth) ** 2) / np.mean(truth**2))
        assert rel < 0.02

    def test_insufficient_paths(self):
        with pytest.raises(InsufficientPaths):
            StateProjector(np.zeros(5)).fit(np.zeros(5))

    def test_rank_deficient_falls_back_to_ridge(self):
        values = np.full(100, 2.0)
        feats = np.full(100, 1.3)  # constant feature: deficient design
        fit = StateProjector(feats).fit(values)
        assert fit.rank_deficient
        assert np.allclose(fit.fitted, 2.0, atol=1e-6)

    def test_out_of_sample_evaluation_matches(self):
        noise = sample_noise(GRID, NO_JUMPS, 20_000, 10)
        B = noise.brownian()
        fit = StateProjector(B[:, 50]).fit(B[:, -1])
        fresh = np.linspace(-1.0, 1.0, 7)
        assert np.allclose(fit(fresh), fit(fresh))
        # affine truth: fitted function approximates identity on the bulk
        assert np.abs(fit(fresh) - fresh).max() < 0.05


class TestDuality:
    def test_brownian_duality_squared(self):
        report = check_duality(bm_squared(), lambda b: b.brownian()[:, :-1], "brownian", draw(50_000, 11))
        assert report.verdict
        # discrete oracle: both sides have expectation sum_i 2 t_i dt
        oracle = float(sum(2.0 * t * GRID.dt for t in GRID.times()[:-1]))
        assert abs(report.lhs - oracle) <= 5 * report.se_lhs
        assert abs(report.rhs - oracle) <= 5 * report.se_rhs

    def test_constant_functional_both_sides_zero(self):
        report = check_duality(constant(4.0), lambda b: b.brownian()[:, :-1], "brownian", draw(2000, 12))
        # derivative side is exactly zero; the product side is zero in mean
        assert report.rhs == 0.0
        assert abs(report.lhs) <= 5 * report.se_lhs
        assert report.verdict

    def test_jump_duality_compound_poisson_oracle(self):
        # F = eta(T)^2, Psi = zeta: both sides equal E[eta(T)^3] = zeta^3 lam T
        zeta, lam, horizon = 0.2, 1.0, GRID.horizon
        # independent oracle: enumerate the centered Poisson third moment
        rate = lam * horizon
        oracle, pmf = 0.0, math.exp(-rate)
        for k in range(120):
            oracle += pmf * (zeta * (k - rate)) ** 3
            pmf *= rate / (k + 1)
        oracle = float(oracle)
        assert oracle == pytest.approx(zeta**3 * lam * horizon, rel=1e-9)
        integrand = lambda b: np.broadcast_to(b.levy.zetas[None, None, :], (b.n_paths, GRID.n_steps, 1))
        report = check_duality(eta_squared(), integrand, "jump", draw(50_000, 13, LEVY))
        assert report.verdict
        assert abs(report.lhs - oracle) <= 5 * report.se_lhs + 1e-3

    def test_non_adapted_integrand_detected(self):
        peeking = lambda b: np.broadcast_to(b.brownian()[:, -1][:, None], (b.n_paths, GRID.n_steps))
        with pytest.raises(NonAdaptedIntegrand):
            check_duality(bm_squared(), peeking, "brownian", draw(500, 14))

    def test_reproducible_bit_exact(self):
        a = check_duality(bm_squared(), lambda b: b.brownian()[:, :-1], "brownian", draw(4000, 15))
        b = check_duality(bm_squared(), lambda b: b.brownian()[:, :-1], "brownian", draw(4000, 15))
        assert (a.lhs, a.rhs, a.se_lhs, a.se_rhs) == (b.lhs, b.rhs, b.se_lhs, b.se_rhs)

    def test_report_json_fields(self):
        report = check_duality(bm_squared(), lambda b: b.brownian()[:, :-1], "brownian", draw(2000, 16))
        blob = json.dumps(dataclasses.asdict(report))
        parsed = json.loads(blob)
        assert set(parsed) == {"lhs", "rhs", "se_lhs", "se_rhs", "n_paths", "seed", "mode", "verdict"}
        assert parsed["n_paths"] == 2000 and parsed["seed"] == 16

    def test_verdict_rule(self):
        report = check_duality(bm_squared(), lambda b: b.brownian()[:, :-1], "brownian", draw(2000, 17))
        assert report.verdict == (abs(report.lhs - report.rhs) <= 3.0 * (report.se_lhs + report.se_rhs))


class TestClarkOcone:
    def test_bm_integral_reconstructs_exactly(self):
        h = np.linspace(0.2, 1.0, GRID.n_steps)
        report, f_vals, recon = clark_ocone_reconstruct(bm_integral(GRID, h), draw(5000, 18), return_paths=True)
        # the integrand part reconstructs exactly on a matched grid: the only
        # residual is the estimated mean, itself CLT-sized
        assert np.allclose(recon - f_vals, f_vals.mean(), atol=1e-12)
        assert report.l2_error < 1e-3

    def test_constant_exact(self):
        report = clark_ocone_reconstruct(constant(2.0), draw(1000, 19))
        assert report.l2_error == 0.0

    def test_bm_squared_against_ito_oracle(self):
        grid = TimeGrid(1.0, 200)
        bundle = sample_noise(grid, NO_JUMPS, 50_000, 20)
        report, f_vals, recon = clark_ocone_reconstruct(bm_squared(grid), bundle, return_paths=True)
        assert report.l2_error < 0.03
        # oracle: B(T)^2 = T + 2 int B dB, discretized on the same bundle
        B = bundle.brownian()
        oracle = grid.horizon + 2.0 * np.sum(B[:, :-1] * bundle.dB, axis=1)
        rel = np.mean((recon - oracle) ** 2) / np.mean(oracle**2)
        assert rel < 0.01

    def test_jump_functional_rejected(self):
        with pytest.raises(JumpDependentFunctional):
            clark_ocone_reconstruct(eta_squared(), draw(1000, 21))


class TestConditionalDerivative:
    def test_deterministic_tree_shortcut(self):
        h = np.linspace(0.5, 2.0, GRID.n_steps)
        F = bm_integral(GRID, h)
        noise = sample_noise(GRID, NO_JUMPS, 200, 22)
        cond = conditional_derivative(F, noise, 37, "brownian")
        assert np.all(cond == h[37])

    def test_symbolic_matches_martingale(self):
        # E[D_t B(T)^2 | F_t] = 2 B(t)
        noise = sample_noise(GRID, NO_JUMPS, 100_000, 23)
        cond = conditional_derivative(bm_squared(), noise, 50, "brownian")
        truth = 2.0 * noise.brownian()[:, 50]
        rel = math.sqrt(np.mean((cond - truth) ** 2) / np.mean(truth**2))
        assert rel < 0.02

    def test_jump_mode_shares_one_projector_per_step(self, monkeypatch):
        # two atoms with stochastic derivatives: each column equals the fit on
        # its own projector, bit for bit, and the step builds one projector
        levy = LevyMeasure.from_pairs([(0.2, 1.0), (-0.3, 2.0)])
        F = eta_squared(levy=levy)
        noise = draw(2000, 24, levy)
        step = 40
        expected = []
        for zeta in levy.zetas:
            d = hm_derivative(F, Jump(GRID.times()[step], float(zeta)))
            assert not is_deterministic(d)
            expected.append(StateProjector(state_features(noise, step)).fit(evaluate(d, noise)).fitted)
        built = []

        class CountingProjector(StateProjector):
            def __init__(self, *args, **kwargs):
                built.append(1)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(malliavin, "StateProjector", CountingProjector)
        cond = conditional_derivative(F, noise, step, "jump")
        assert cond.shape == (2000, 2)
        assert not np.array_equal(expected[0], expected[1])
        for k in range(2):
            assert np.array_equal(cond[:, k], expected[k]), k
        assert len(built) == 1


class TestBundleChecks:
    @pytest.mark.parametrize("other", [TimeGrid(1.0, 50), TimeGrid(2.0, 100)], ids=["n_steps", "horizon"])
    def test_functional_on_another_grid_rejected(self, other):
        with pytest.raises(ValueError, match="grid"):
            check_duality(bm_squared(other), lambda b: b.brownian()[:, :-1], "brownian", draw(500, 25))
        with pytest.raises(ValueError, match="grid"):
            clark_ocone_reconstruct(bm_squared(other), draw(500, 25))

    def test_clark_ocone_rejects_bundle_with_atoms(self):
        with pytest.raises(ValueError, match="atoms"):
            clark_ocone_reconstruct(bm_squared(), draw(500, 26, LEVY))
