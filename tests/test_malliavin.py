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
    StateProjector,
    affine_map,
    bm_integral,
    check_duality,
    clark_ocone_reconstruct,
    conditional_derivative,
    constant,
    evaluate,
    hm_derivative,
    mean_se,
    is_deterministic,
    jump_integral,
    product_map,
    square_map,
    state_features,
    tree_degree,
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


# Small trees of BM and jump integrals under square, affine and product maps,
# at most two compositions deep, for checks against independent references.
SMALL = TimeGrid(1.0, 4)
TWO_ATOMS = LevyMeasure.from_pairs([(0.2, 1.5), (-0.3, 2.0)])
_VALUES = st.floats(-2.0, 2.0, allow_nan=False)
_LEAVES = st.one_of(
    _VALUES.map(constant),
    st.lists(_VALUES, min_size=4, max_size=4).map(lambda v: bm_integral(SMALL, v)),
    st.lists(_VALUES, min_size=8, max_size=8).map(lambda v: jump_integral(SMALL, TWO_ATOMS, np.reshape(v, (4, 2)))),
)


def _trees(depth):
    if depth == 0:
        return _LEAVES
    children = _trees(depth - 1)
    return st.one_of(
        children,
        children.map(lambda c: Compose(square_map(), (c,))),
        st.tuples(_VALUES, _VALUES, _VALUES, children, children).map(
            lambda a: Compose(affine_map(a[0], a[1:3]), a[3:])
        ),
        st.tuples(children, children).map(lambda pair: Compose(product_map(), pair)),
    )


_DIRECTIONS = st.one_of(
    st.integers(0, 3).map(lambda i: Brownian(SMALL.times()[i])),
    st.tuples(st.integers(0, 3), st.integers(0, 1)).map(lambda a: Jump(SMALL.times()[a[0]], TWO_ATOMS.zetas[a[1]])),
)


def _scaled(F, s):
    """F with the integrand of every integral leaf multiplied by s."""
    if isinstance(F, Compose):
        return Compose(F.phi, tuple(_scaled(c, s) for c in F.children))
    if isinstance(F, Constant):
        return F
    return dataclasses.replace(F, values=s * F.values)


@pytest.fixture
def projectors_built(monkeypatch):
    """One entry per ``StateProjector`` that the calculus layer builds."""
    built = []

    class CountingProjector(StateProjector):
        def __init__(self, *args, **kwargs):
            built.append(1)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(malliavin, "StateProjector", CountingProjector)
    return built


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

    def test_unknown_node_kind_rejected(self):
        class Odd:
            pass

        for F in (Odd(), Compose(product_map(), (Odd(), bm_integral(GRID, 1.0)))):
            with pytest.raises(UnsupportedNode):
                hm_derivative(F, Brownian(0.1))
            with pytest.raises(UnsupportedNode):
                is_deterministic(F)
            with pytest.raises(UnsupportedNode):
                tree_degree(F)


class TestRulesAgainstReferences:
    noise = sample_noise(SMALL, TWO_ATOMS, 8, 31)

    @given(_trees(2), st.integers(0, 3), st.integers(0, 1))
    @settings(max_examples=60, deadline=None)
    def test_jump_direction_is_the_difference_operator(self, F, i, k):
        # D_{t_i, zeta_k} F = F(omega + one jump of size zeta_k in step i) - F(omega)
        counts = self.noise.jump_counts.copy()
        counts[:, i, k] += 1
        shifted = evaluate(F, dataclasses.replace(self.noise, jump_counts=counts))
        base = evaluate(F, self.noise)
        d = evaluate(hm_derivative(F, Jump(SMALL.times()[i], TWO_ATOMS.zetas[k])), self.noise)
        scale = 1.0 + np.abs(shifted).max() + np.abs(base).max()
        assert np.allclose(d, shifted - base, rtol=0.0, atol=1e-12 * scale)

    @given(_trees(2), st.integers(0, 3))
    @settings(max_examples=60, deadline=None)
    def test_brownian_direction_is_the_derivative_in_dB(self, F, i):
        # every tree here is a polynomial of degree <= 4 in dB_i, on which the
        # five-point central difference is exact up to rounding
        h = 1e-2

        def bumped(delta):
            dB = self.noise.dB.copy()
            dB[:, i] += delta
            return evaluate(F, dataclasses.replace(self.noise, dB=dB))

        values = [bumped(m * h) for m in (-2, -1, 1, 2)]
        central = (values[0] - 8.0 * values[1] + 8.0 * values[2] - values[3]) / (12.0 * h)
        d = evaluate(hm_derivative(F, Brownian(SMALL.times()[i])), self.noise)
        scale = 1.0 + max(np.abs(v).max() for v in values)
        assert np.allclose(d, central, rtol=0.0, atol=1e-10 * scale)

    @given(_trees(2), _DIRECTIONS, _DIRECTIONS)
    @settings(max_examples=60, deadline=None)
    def test_degree_bound_is_sound(self, F, first, second):
        # a tree of degree <= d in its integral leaves is a polynomial of degree
        # <= d in a common scale s of those leaves, so its (d+1)-th finite
        # difference over s = 0, ..., d+1 vanishes; checked for F, D F and D D F
        # (difference trees cancel terms of order one, hence the floor of 1)
        d_F = hm_derivative(F, first)
        for G in (F, d_F, hm_derivative(d_F, second)):
            d = tree_degree(G)
            values = [evaluate(_scaled(G, s), self.noise) for s in range(d + 2)]
            difference = sum((-1) ** (d + 1 - j) * math.comb(d + 1, j) * v for j, v in enumerate(values))
            scale = 1.0 + max(np.abs(v).max() for v in values)
            assert np.all(np.abs(difference) <= 1e-9 * scale)

    def test_brownian_duality_sides_equal_the_written_out_loop(self):
        F, noise = bm_squared(), draw(3000, 32)
        integrand = lambda b: b.brownian()[:, :-1]
        report = check_duality(F, integrand, "brownian", noise)
        phi = integrand(noise)
        lhs_vals = evaluate(F, noise) * (phi * noise.dB).sum(axis=1)
        rhs_vals = np.zeros(noise.n_paths)
        for i in range(GRID.n_steps):
            rhs_vals += conditional_derivative(F, noise, i, "brownian") * phi[:, i] * GRID.dt
        assert (report.lhs, report.se_lhs) == mean_se(lhs_vals)
        assert (report.rhs, report.se_rhs) == mean_se(rhs_vals)

    def test_two_atom_jump_duality_sides_equal_the_written_out_loop(self):
        levy = LevyMeasure.from_pairs([(0.2, 1.0), (-0.3, 2.0)])
        F, noise = eta_squared(levy=levy), draw(3000, 33, levy)
        integrand = lambda b: b.brownian()[:, :-1, None] * b.levy.zetas
        report = check_duality(F, integrand, "jump", noise)
        phi, lam = integrand(noise), levy.intensities
        lhs_vals = evaluate(F, noise) * (phi * noise.compensated_counts()).sum(axis=(1, 2))
        rhs_vals = np.zeros(noise.n_paths)
        for i in range(GRID.n_steps):
            cond = conditional_derivative(F, noise, i, "jump")
            for k in range(levy.n_atoms):
                rhs_vals += cond[:, k] * phi[:, i, k] * lam[k] * GRID.dt
        assert (report.lhs, report.se_lhs) == mean_se(lhs_vals)
        assert (report.rhs, report.se_rhs) == mean_se(rhs_vals)


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


class TestDesign:
    @pytest.mark.parametrize("n_features", [1, 2, 3])
    def test_bits_of_repeated_multiplication(self, n_features):
        # column of exponent e: the powers x_c^p = ((x_c * x_c) ...) of each used
        # feature, multiplied left to right, on signed zeros, inf and nan too
        rng = np.random.default_rng(11)
        x = rng.standard_normal((500, n_features)) * 3.0
        x[:5], x[5:10], x[10, 0], x[11, -1], x[12, 0] = 0.0, -0.0, np.inf, np.nan, -1e-200
        basis = malliavin.PolynomialBasis()
        with np.errstate(over="ignore", invalid="ignore"):
            A = basis.design(x)
            expected = np.empty_like(A)
            for j, exp in enumerate(malliavin._design_plan(n_features)[0]):
                terms = [math.prod([x[:, c]] * p) if p > 1 else x[:, c] for c, p in enumerate(exp) if p]
                expected[:, j] = math.prod(terms) if terms else 1.0
        assert A.shape == (500, math.comb(n_features + malliavin.DEGREE, malliavin.DEGREE))
        assert A.flags.c_contiguous
        assert A.tobytes() == expected.tobytes()
        assert basis.design(x[:, 0]).tobytes() == basis.design(x[:, :1]).tobytes()


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

    @pytest.mark.parametrize("levy", [NO_JUMPS, LevyMeasure.from_pairs([(0.2, 1.0), (-0.3, 2.0)])], ids=["K0", "K2"])
    def test_each_probe_sees_the_future_raised_by_one(self, levy):
        # the probes share one copy of the noise; the bundle each one sees is
        # the drawn bundle with every increment from its step on raised by 1
        noise = draw(300, 36, levy)
        seen = []

        def recording(b):
            seen.append((b.dB.copy(order="K"), b.jump_counts.copy(), b.dB.flags.writeable, b.jump_counts.flags.writeable))
            return np.zeros((b.n_paths, GRID.n_steps))

        check_duality(bm_squared(), recording, "brownian", noise)
        probed = [GRID.n_steps - 1, GRID.n_steps // 2, 0]
        assert len(seen) == 1 + len(probed)
        for step, (dB, counts, *writeable) in zip(probed, seen[1:]):
            expected_dB = noise.dB.copy(order="K")
            expected_dB[:, step:] += 1.0
            expected_counts = noise.jump_counts.copy()
            expected_counts[:, step:] += 1
            assert np.array_equal(dB, expected_dB), step
            assert dB.flags.f_contiguous
            assert np.array_equal(counts, expected_counts), step
            assert writeable == [False, False]

    @pytest.mark.parametrize("step", [0, GRID.n_steps // 2, GRID.n_steps - 1])
    @pytest.mark.parametrize("mode", ["brownian", "jump"])
    def test_future_peeking_caught_at_each_probed_step(self, step, mode):
        # the value at ``step`` reads the increment of that step, so only the
        # probe at ``step`` sees it change
        def peeking(b):
            increments = b.dB[:, :, None] if mode == "brownian" else b.jump_counts.astype(float)
            out = np.zeros(increments.shape)
            out[:, step] = increments[:, step]
            return out[:, :, 0] if mode == "brownian" else out

        F = bm_squared() if mode == "brownian" else eta_squared()
        with pytest.raises(NonAdaptedIntegrand, match=f"at or before step {step} "):
            check_duality(F, peeking, mode, draw(500, 37, LEVY))

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
        report, f_vals, recon = clark_ocone_reconstruct(bm_integral(GRID, h), draw(5000, 18))
        # the integrand part reconstructs exactly on a matched grid: the only
        # residual is the estimated mean, itself CLT-sized
        assert np.allclose(recon - f_vals, f_vals.mean(), atol=1e-12)
        assert report.l2_error < 1e-3

    def test_constant_exact(self):
        report, _, _ = clark_ocone_reconstruct(constant(2.0), draw(1000, 19))
        assert report.l2_error == 0.0

    def test_bm_squared_against_ito_oracle(self):
        grid = TimeGrid(1.0, 200)
        bundle = sample_noise(grid, NO_JUMPS, 50_000, 20)
        report, f_vals, recon = clark_ocone_reconstruct(bm_squared(grid), bundle)
        assert report.l2_error < 0.03
        # oracle: B(T)^2 = T + 2 int B dB, discretized on the same bundle
        B = bundle.brownian()
        oracle = grid.horizon + 2.0 * np.sum(B[:, :-1] * bundle.dB, axis=1)
        rel = np.mean((recon - oracle) ** 2) / np.mean(oracle**2)
        assert rel < 0.01

    def test_jump_functional_rejected(self):
        with pytest.raises(JumpDependentFunctional):
            clark_ocone_reconstruct(eta_squared(), draw(1000, 21))

    def test_bm_squared_residual_is_the_quadratic_variation(self):
        # B_T^2 = sum_i dB_i^2 + 2 sum_i B_{t_i} dB_i, and the exact E[D_t F | F_t] = 2 B_t
        # rebuilds the second sum, so F - Fhat = sum_i dB_i^2 - mean(F) on every path
        noise = draw(5000, 36)
        _, f_vals, recon = clark_ocone_reconstruct(bm_squared(), noise)
        residual = (noise.dB**2).sum(axis=1) - f_vals.mean()
        assert np.allclose(f_vals - recon, residual, rtol=0.0, atol=1e-12)


class TestConditionalDerivative:
    def test_deterministic_tree_shortcut(self):
        h = np.linspace(0.5, 2.0, GRID.n_steps)
        F = bm_integral(GRID, h)
        noise = sample_noise(GRID, NO_JUMPS, 200, 22)
        cond = conditional_derivative(F, noise, 37, "brownian")
        assert np.all(cond == h[37])

    def test_symbolic_matches_martingale(self, projectors_built):
        # E[D_t B(T)^2 | F_t] = 2 B(t), exactly: the derivative tree is affine
        noise = sample_noise(GRID, NO_JUMPS, 5000, 23)
        B = noise.brownian()
        for step in (0, 50, GRID.n_steps - 1):
            cond = conditional_derivative(bm_squared(), noise, step, "brownian")
            assert np.allclose(cond, 2.0 * B[:, step], rtol=0.0, atol=1e-12)
            assert np.array_equal(cond, conditional_derivative(bm_squared(), noise, step, "brownian", _memo={}))
        assert not projectors_built

    def test_jump_squared_is_stopped_exactly(self, projectors_built):
        # E[D_{t,zeta} J(T)^2 | F_t] = 2 zeta J(t) + zeta^2
        noise = draw(5000, 35, LEVY)
        J, zeta = noise.compensated_jump_path(), LEVY.zetas[0]
        for step in (0, 37, GRID.n_steps - 1):
            cond = conditional_derivative(eta_squared(), noise, step, "jump")
            assert np.allclose(cond[:, 0], 2.0 * zeta * J[:, step] + zeta**2, rtol=0.0, atol=1e-12)
        assert not projectors_built

    def test_cubic_tree_goes_to_the_projector(self, projectors_built):
        # F = B_T^3: D_t F = 3 B_T^2 has degree bound 2, and E[D_t F | F_t] =
        # 3 (B_t^2 + T - t) differs from D_t F stopped at t, 3 B_t^2
        B = bm_integral(GRID, 1.0)
        F = Compose(affine_map(0.0, (1.0,)), (Compose(product_map(), (Compose(square_map(), (B,)), B)),))
        step = 50
        d = hm_derivative(F, Brownian(GRID.times()[step]))
        assert tree_degree(d) == 2
        noise = draw(20_000, 34)
        cond = conditional_derivative(F, noise, step, "brownian")
        assert len(projectors_built) == 1
        assert np.array_equal(cond, StateProjector(state_features(noise, step)).fit(evaluate(d, noise)).fitted)
        truth = 3.0 * (noise.brownian()[:, step] ** 2 + GRID.horizon - GRID.times()[step])
        assert math.sqrt(np.mean((cond - truth) ** 2) / np.mean(truth**2)) < 0.05

    def test_jump_mode_shares_one_projector_per_step(self, projectors_built):
        # two atoms with derivatives of degree 2, F = J^2 * J: each column equals
        # the fit on its own projector, bit for bit, and the step builds one projector
        levy = LevyMeasure.from_pairs([(0.2, 1.0), (-0.3, 2.0)])
        J = jump_integral(GRID, levy, levy.zetas)
        F = Compose(product_map(), (Compose(square_map(), (J,)), J))
        noise = draw(2000, 24, levy)
        step = 40
        expected = []
        for zeta in levy.zetas:
            d = hm_derivative(F, Jump(GRID.times()[step], float(zeta)))
            assert not is_deterministic(d)
            assert tree_degree(d) == 2
            expected.append(StateProjector(state_features(noise, step)).fit(evaluate(d, noise)).fitted)
        cond = conditional_derivative(F, noise, step, "jump")
        assert cond.shape == (2000, 2)
        assert not np.array_equal(expected[0], expected[1])
        for k in range(2):
            assert np.array_equal(cond[:, k], expected[k]), k
        assert len(projectors_built) == 1


class TestRunningPath:
    @pytest.mark.parametrize(
        "levy",
        [NO_JUMPS, LevyMeasure.from_pairs([(0.2, 1.0)]), LevyMeasure.from_pairs([(0.2, 1.0), (-0.3, 2.0)])],
        ids=["brownian", "jump-K1", "jump-K2"],
    )
    def test_bits_of_the_cumulative_sum(self, levy):
        # step by step addition gives the bits of np.cumsum along the steps of
        # the increments; h = 0 on the first step makes signed zeros there.  3000
        # paths end inside a block of the blocked jump product
        noise = draw(3000, 38, levy)
        h = np.linspace(-1.0, 2.0, GRID.n_steps)
        h[0] = 0.0
        if levy.n_atoms:
            leaf = jump_integral(GRID, levy, np.outer(h, levy.zetas))
            increments = np.einsum("pik,ik->ip", noise.compensated_counts(), leaf.values)
        else:
            leaf = bm_integral(GRID, h)
            increments = leaf.values[:, None] * noise.dB.T
        expected = np.zeros((GRID.n_steps + 1, noise.n_paths))
        np.cumsum(increments, axis=0, out=expected[1:])
        running = malliavin._running_path(leaf, noise, {})
        assert running.shape == (noise.n_paths, GRID.n_steps + 1) and running.flags.f_contiguous
        running = running.T  # node-major view, as ``expected`` is laid out
        assert np.array_equal(running, expected)
        assert np.array_equal(np.signbit(running), np.signbit(expected))


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
