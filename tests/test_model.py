import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smplab.errors import EmptyProbeSet, NonFiniteEvaluation
from smplab.model import (
    DELTA_SING,
    ControlledCoefficients,
    FeedbackLaw,
    LevyMeasure,
    OpenLoopLaw,
    SpikedLaw,
    TimeGrid,
    build_lq_coefficients,
    like,
    validate_coefficients,
)
from smplab.simulate import euler_forward, sample_noise


def make_coeffs(**overrides):
    """Baseline smooth model b=sin(x), sigma=const, gamma=zeta*x with exact partials."""
    base = dict(
        b=lambda t, x, u: np.sin(np.asarray(x, dtype=float)),
        sigma=lambda t, x, u: like(0.3, x, u),
        gamma=lambda t, x, u, zeta: zeta * 0.1 * np.asarray(x, dtype=float),
        f=lambda t, x, u: -0.5 * np.asarray(u, dtype=float) ** 2 * like(1.0, x, u),
        g=lambda x: -0.5 * np.asarray(x, dtype=float) ** 2,
        b_x=lambda t, x, u: np.cos(np.asarray(x, dtype=float)),
        b_u=lambda t, x, u: like(0.0, x, u),
        sigma_x=lambda t, x, u: like(0.0, x, u),
        sigma_u=lambda t, x, u: like(0.0, x, u),
        gamma_x=lambda t, x, u, zeta: like(zeta * 0.1, x, u),
        gamma_u=lambda t, x, u, zeta: like(0.0, x, u),
        f_x=lambda t, x, u: like(0.0, x, u),
        f_u=lambda t, x, u: -np.asarray(u, dtype=float) * like(1.0, x, u),
        g_x=lambda x: -np.asarray(x, dtype=float),
    )
    base.update(overrides)
    return ControlledCoefficients(**base)


PROBES = [(0.0, 0.0, 0.5, 0.2), (0.3, 0.5, 1.0, 0.2), (0.7, 1.0, 0.1, -0.1)]


class TestTimeGrid:
    def test_nodes_and_dt(self):
        grid = TimeGrid(1.0, 100)
        t = grid.times()
        assert t[0] == 0.0
        assert t[-1] == 1.0
        assert np.all(np.diff(t) > 0)
        assert np.allclose(np.diff(t), grid.dt, rtol=1e-12)
        assert abs(grid.n_steps * grid.dt - grid.horizon) <= 8 * math.ulp(grid.horizon)

    def test_step_of(self):
        grid = TimeGrid(1.0, 100)
        assert grid.step_of(0.0) == 0
        assert grid.step_of(0.5) == 50
        assert grid.step_of(0.505) == 50
        assert grid.step_of(1.0) == 99  # left-limit convention at T

    def test_rejects_bad_grids(self):
        with pytest.raises(ValueError):
            TimeGrid(0.0, 10)
        with pytest.raises(ValueError):
            TimeGrid(1.0, 1)

    @pytest.mark.parametrize(
        "start, length",
        [(0.5, 0.0), (0.5, -0.1), (-0.1, 0.2), (1.0, 0.1), (1.2, 0.1), (0.75, 0.5), (0.5, 1e-12), (1 - 1e-13, 1e-13)],
    )
    def test_window_steps_rejects_windows_off_the_grid(self, start, length):
        with pytest.raises(ValueError):
            TimeGrid(1.0, 100).window_steps(start, length)


class TestControlSet:
    def test_rejects_reversed_bounds(self):
        with pytest.raises(ValueError):
            make_coeffs(control_set=(1.0, 0.0))
        assert make_coeffs(control_set=(0.5, 0.5)).control_set == (0.5, 0.5)


class TestLevyMeasure:
    def test_second_moment(self):
        levy = LevyMeasure.from_pairs([(0.2, 1.0), (-0.1, 0.5)])
        assert levy.second_moment == pytest.approx(1.0 * 0.04 + 0.5 * 0.01)
        assert levy.n_atoms == 2

    def test_rejects_zero_size_or_negative_intensity(self):
        with pytest.raises(ValueError):
            LevyMeasure.from_pairs([(0.0, 1.0)])
        with pytest.raises(ValueError):
            LevyMeasure.from_pairs([(0.1, -1.0)])

    def test_atom_index(self):
        levy = LevyMeasure.from_pairs([(0.2, 1.0), (-0.1, 0.5)])
        assert levy.atom_index(-0.1) == 1
        with pytest.raises(ValueError):
            levy.atom_index(0.3)

    @pytest.mark.parametrize("sizes", [(0.2, 0.2), (0.2, 0.2 * (1.0 + 1e-13)), (0.3, -0.1, 0.3)])
    def test_rejects_sizes_atom_index_cannot_tell_apart(self, sizes):
        # jump directions are addressed by size: a repeated size would make
        # every direction at that size read the first atom's column
        with pytest.raises(ValueError, match="distinct"):
            LevyMeasure.from_pairs([(z, 1.0) for z in sizes])

    def test_accepts_nearby_distinct_sizes(self):
        levy = LevyMeasure.from_pairs([(0.2, 1.0), (0.2 * (1.0 + 1e-9), 3.0)])
        assert [levy.atom_index(z) for z in levy.zetas] == [0, 1]


class TestValidateCoefficients:
    def test_lq_passes_with_zero_discrepancy(self):
        coeffs = build_lq_coefficients(0.1)
        report = validate_coefficients(coeffs, PROBES)
        assert report.passed
        assert report.max_discrepancy == pytest.approx(0.0, abs=1e-10)
        assert report.min_one_plus_gamma_x == pytest.approx(1.0)

    def test_misspecified_partial_fails(self):
        # b = u with b_u claimed to be 0: discrepancy ~ 1
        coeffs = build_lq_coefficients(0.1)
        broken = ControlledCoefficients(
            **{**coeffs.__dict__, "b_u": lambda t, x, u: like(0.0, x, u)}
        )
        report = validate_coefficients(broken, PROBES)
        assert not report.passed
        assert report.discrepancies["b_u"] == pytest.approx(1.0, rel=1e-6)

    def test_sine_drift_central_difference(self):
        report = validate_coefficients(make_coeffs(), [(0.0, 0.0, 0.5, 0.2), (0.0, 0.5, 0.5, 0.2), (0.0, 1.0, 0.5, 0.2)])
        assert report.passed
        assert report.max_discrepancy < 1e-4

    def test_lipschitz_estimate_matches_slope(self):
        # b = 2x dominates; gamma slope 0.1 * zeta adds in quadrature
        coeffs = make_coeffs(
            b=lambda t, x, u: 2.0 * np.asarray(x, dtype=float),
            b_x=lambda t, x, u: like(2.0, x, u),
        )
        report = validate_coefficients(coeffs, PROBES)
        assert report.lipschitz_x == pytest.approx(math.hypot(2.0, 0.1 * 0.2), rel=1e-9)

    def test_empty_probe_set(self):
        with pytest.raises(EmptyProbeSet):
            validate_coefficients(make_coeffs(), [])

    def test_non_finite_evaluation(self):
        bad = make_coeffs(b=lambda t, x, u: like(np.inf, x, u))
        with pytest.raises(NonFiniteEvaluation):
            validate_coefficients(bad, PROBES)

    def test_probe_outside_control_set_rejected(self):
        coeffs = build_lq_coefficients(0.1)
        with pytest.raises(ValueError):
            validate_coefficients(coeffs, [(0.0, 0.0, -1.0, 0.1)])

    def test_gamma_near_singular_fails(self):
        coeffs = make_coeffs(
            gamma=lambda t, x, u, zeta: -np.asarray(x, dtype=float),
            gamma_x=lambda t, x, u, zeta: like(-1.0, x, u),
        )
        report = validate_coefficients(coeffs, PROBES)
        assert report.min_one_plus_gamma_x < DELTA_SING
        assert not report.passed


class TestBuildLq:
    def test_pinned_values(self):
        coeffs = build_lq_coefficients(0.1)
        assert float(coeffs.b(0.0, 0.0, 3.0)) == 3.0
        assert float(coeffs.f(0.0, 0.0, 2.0)) == -2.0
        assert float(coeffs.g(4.0)) == -8.0
        assert float(coeffs.g_x(4.0)) == -4.0
        assert float(coeffs.f(0.0, 1.0, 0.0)) == 0.0
        assert float(coeffs.f_u(0.0, 1.0, 0.0)) == 0.0
        assert coeffs.control_set == (0.0, math.inf)

    @given(st.lists(st.tuples(
        st.floats(0.0, 1.0), st.floats(-2.0, 2.0), st.floats(0.0, 3.0), st.sampled_from([0.2, -0.1])
    ), min_size=1, max_size=6))
    @settings(max_examples=25, deadline=None)
    def test_always_passes_validation(self, probes):
        coeffs = build_lq_coefficients(0.5, 0.3)
        assert validate_coefficients(coeffs, probes).passed

    def test_rejects_non_finite_sigma(self):
        with pytest.raises(ValueError):
            build_lq_coefficients(math.nan)


class TestControlLaws:
    """Laws emit raw values; ``euler_forward`` clamps them to ``coeffs.control_set``."""

    grid = TimeGrid(1.0, 4)

    def forward(self, law, x0=0.0):
        coeffs = make_coeffs(control_set=(0.0, 2.0))
        return euler_forward(coeffs, law, sample_noise(self.grid, LevyMeasure.empty(), 8, 3), x0)

    @given(st.floats(-100.0, 100.0))
    @settings(max_examples=50, deadline=None)
    def test_feedback_clamped_by_euler_forward(self, x0):
        fw = self.forward(FeedbackLaw(lambda step, t, xx: 10.0 * xx), x0)
        assert np.all((0.0 <= fw.u) & (fw.u <= 2.0))
        assert np.array_equal(fw.u, np.clip(10.0 * fw.X[:, :-1], 0.0, 2.0))

    def test_open_loop_values_per_step(self):
        values = np.arange(5.0)
        law = OpenLoopLaw(values)
        assert law.n_steps == 5
        x = np.zeros(3)
        assert np.all(law.control_at(2, 0.0, x) == 2.0)

    def test_open_loop_clamped_by_euler_forward(self):
        fw = self.forward(OpenLoopLaw(np.array([-1.0, 5.0, 0.5, 2.0])))
        assert np.all(fw.u == [0.0, 2.0, 0.5, 2.0])

    def test_spiked_clamped_by_euler_forward(self):
        law = SpikedLaw(OpenLoopLaw(np.full(4, -3.0)), np.array([False, True, True, False]), 7.0)
        fw = self.forward(law)
        assert np.all(fw.u == [0.0, 2.0, 2.0, 0.0])
