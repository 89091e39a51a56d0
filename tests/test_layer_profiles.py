"""Closed-form layer solutions and the derived coefficients."""

import dataclasses
import functools
import importlib
import importlib.util
import inspect
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from knlayer import layer_profiles
from knlayer.boundary_solver import accommodation_factor, wall_system
from knlayer.layer_profiles import (
    LayerOperator,
    _BLOCK_ELEMENTS,
    coefficient_curve,
    convergence_order,
    default_profile_grid,
    defect_slope,
    effective_conductivity,
    jump_coefficient,
    layer_operator,
    normalized_temperature,
    temperature_defect,
    temperature_solution,
    velocity_solution,
    viscous_slip_coefficient,
)
from knlayer.parity_spectral import decompose
from knlayer.special_functions import HalfSpaceTable
from knlayer.system_builder import (
    MAX_KRAMERS_PRANDTL,
    build_kramers_system,
    build_temperature_system,
    reduced_system,
)

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"

KN = math.sqrt(2.0) / 2.0


def order3_reference(chi, kn=KN, pr=1.0, q2=1.0, theta_wall=0.0):
    """Hand-solved order-3 profile pieces."""
    b = accommodation_factor(chi)
    t0 = -q2 / (math.sqrt(5.0) * (6.0 + 3.0 * math.sqrt(5.0) * b))
    c0 = -q2 / (2.0 * b) + theta_wall + 0.3 * t0
    rate = 3.0 / math.sqrt(5.0)
    return t0, c0, rate


class TestOrderThreeClosedForm:
    @pytest.mark.parametrize("chi", [0.1, 0.5, 1.0])
    def test_pieces(self, chi):
        sol = temperature_solution(3, chi)
        t0, c0, rate = order3_reference(chi)
        assert sol.decay_rates[0] == pytest.approx(rate, rel=1e-12)
        assert sol.intercept == pytest.approx(c0, rel=1e-12)
        assert sol.amplitudes[0] == pytest.approx(-0.8 * t0, rel=1e-12)
        # leading defect weight recovers the wall moment itself
        assert sol.defect_amplitudes[0] == pytest.approx(t0, rel=1e-12)

    def test_profile_formula(self):
        chi = 1.0
        sol = temperature_solution(3, chi)
        t0, c0, rate = order3_reference(chi)
        y = np.linspace(0.0, 8.0, 50)
        expected = -0.4 / KN * y + c0 - 0.8 * t0 * np.exp(-math.sqrt(5.0) / (3.0 * KN) * y)
        np.testing.assert_allclose(sol.temperature(y), expected, rtol=1e-12, atol=1e-14)

    def test_wall_consistency(self):
        sol = temperature_solution(3, 0.5)
        assert sol.wall_value == pytest.approx(
            sol.intercept + float(np.sum(sol.amplitudes)), rel=1e-12
        )


class TestJumpCoefficient:
    def test_reference_value_order3(self):
        assert jump_coefficient(temperature_solution(3, 1.0)) == pytest.approx(1.1287, abs=1e-4)

    def test_reference_value_order13_small_chi(self):
        assert jump_coefficient(temperature_solution(13, 0.1)) == pytest.approx(21.426, abs=1e-3)

    def test_prandtl_scaling_against_reference(self):
        z = jump_coefficient(temperature_solution(13, 1.0, pr=2.0 / 3.0))
        assert z == pytest.approx(1.5 * 1.2965, abs=2e-4)

    def test_requires_zero_wall_normalization(self):
        sol = temperature_solution(5, 1.0, theta_wall=0.2)
        with pytest.raises(ValueError):
            jump_coefficient(sol)

    @pytest.mark.parametrize("pr", [0.5, 2.0 / 3.0, 1.0, 1.5])
    @pytest.mark.parametrize("order", [3, 7, 13])
    def test_prandtl_scaling_exact(self, order, pr):
        base = jump_coefficient(temperature_solution(order, 0.8, pr=1.0))
        scaled = jump_coefficient(temperature_solution(order, 0.8, pr=pr))
        assert scaled * pr == pytest.approx(base, rel=1e-12)

    def test_kn_proportionality(self):
        z1 = jump_coefficient(temperature_solution(7, 0.6, kn=0.1))
        z2 = jump_coefficient(temperature_solution(7, 0.6, kn=1.0))
        assert z1 / 0.1 == pytest.approx(z2 / 1.0, rel=1e-12)


class TestOneCoefficientFormula:
    """The coefficient of a solution is its order's curve at its chi, bit for bit."""

    FLUXES = (1.0, 0.3, -2.5, 1e-300)

    @pytest.mark.parametrize("order", [3, 13, 129, 513, 4, 12, 128, 512])
    def test_flux_free_and_equal_to_curve(self, order):
        for chi in (1e-3, 0.37, 0.9, 1.0):
            for pr in (2.0 / 3.0, 1.0):
                curve = coefficient_curve(order, KN, pr)(chi)
                if order % 2:
                    got = [jump_coefficient(temperature_solution(order, chi, KN, pr, q))
                           for q in self.FLUXES]
                else:
                    got = [viscous_slip_coefficient(velocity_solution(order, chi, KN, pr, s))
                           for s in self.FLUXES]
                assert got == [curve] * len(self.FLUXES), (chi, pr, got, curve)


class TestTemperatureDefect:
    def test_decays_to_zero(self):
        sol = temperature_solution(7, 1.0)
        far = 60.0 * sol.decay_rates[0] * sol.kn
        assert abs(temperature_defect(sol, far)) < 1e-12

    def test_normalized_identity(self):
        sol = temperature_solution(9, 0.4)
        y = np.geomspace(1e-3, 20.0, 60)
        lhs = normalized_temperature(sol, y)
        rhs = sol.temperature(y) / (-0.4 * sol.pr * sol.heat_flux / sol.kn)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12)

    def test_flux_independence(self):
        a = temperature_solution(7, 0.8, q2=1.0)
        b = temperature_solution(7, 0.8, q2=3.5)
        y = np.linspace(0.0, 6.0, 25)
        np.testing.assert_allclose(
            temperature_defect(a, y), temperature_defect(b, y), rtol=1e-12
        )

    def test_kn_independence_of_defect_amplitudes(self):
        a = temperature_solution(7, 0.8, kn=0.1)
        b = temperature_solution(7, 0.8, kn=1.0)
        np.testing.assert_allclose(a.defect_amplitudes, b.defect_amplitudes, rtol=1e-12)

    def test_superposition_structure(self):
        sol = temperature_solution(11, 0.9)
        assert sol.defect_amplitudes.shape == (sol.order - 2,)
        assert sol.decay_rates.shape == (sol.order - 2,)
        assert np.all(sol.decay_rates > 0.0)

    def test_far_field_slope_is_fourier(self):
        sol = temperature_solution(9, 0.7)
        far = 60.0 * sol.decay_rates[0] * sol.kn
        assert defect_slope(sol, far) == pytest.approx(0.0, abs=1e-10)


class TestEffectiveConductivity:
    def test_far_field_limit(self):
        sol = temperature_solution(9, 1.0, pr=2.0 / 3.0)
        far = 60.0 * sol.decay_rates[0] * sol.kn
        assert effective_conductivity(sol, far) == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("y", [0.1, 1.0, 5.0])
    def test_slope_matches_finite_difference(self, y):
        sol = temperature_solution(7, 0.8)
        h = 1e-6
        fd = (temperature_defect(sol, y + h) - temperature_defect(sol, y - h)) / (2.0 * h)
        assert defect_slope(sol, y) == pytest.approx(fd, rel=1e-6)

    def test_pole_reported_not_raised(self):
        import dataclasses

        base = temperature_solution(3, 1.0)
        # defect slope of 2 at the wall puts the denominator past the pole
        spoofed = dataclasses.replace(
            base, defect_amplitudes=np.array([base.decay_rates[0] * base.pr])
        )
        with pytest.warns(RuntimeWarning, match="pole.*y = "):
            out = effective_conductivity(spoofed, np.array([0.0, 20.0]))
        assert out.shape == (2,)
        assert out[1] == pytest.approx(1.0, abs=1e-6)

    def test_reduced_near_wall_and_monotone(self):
        sol = temperature_solution(11, 1.0, pr=2.0 / 3.0)
        y = np.linspace(0.0, 25.0, 800)
        ratio = effective_conductivity(sol, y)
        assert ratio[0] < 1.0
        assert np.all(np.diff(ratio) > 0.0)
        far = 60.0 * sol.decay_rates[0] * sol.kn
        assert effective_conductivity(sol, far) == pytest.approx(1.0, abs=1e-10)


class TestVelocitySolution:
    def test_shear_linearity(self):
        a = velocity_solution(8, 0.9, sigma12=1.0)
        b = velocity_solution(8, 0.9, sigma12=2.0)
        y = np.linspace(0.0, 10.0, 30)
        np.testing.assert_allclose(2.0 * a.velocity(y), b.velocity(y), rtol=1e-12)

    def test_wall_offset_linearity(self):
        a = velocity_solution(8, 0.9, u1_wall=0.0)
        b = velocity_solution(8, 0.9, u1_wall=0.25)
        y = np.linspace(0.0, 10.0, 30)
        np.testing.assert_allclose(a.velocity(y) + 0.25, b.velocity(y), rtol=1e-12)

    def test_far_field_slope(self):
        sol = velocity_solution(6, 0.5, sigma12=0.7)
        y0 = 50.0 * sol.decay_rates[0] * sol.kn
        slope = (sol.velocity(y0 + 0.5) - sol.velocity(y0)) / 0.5
        assert slope == pytest.approx(-0.7 / sol.kn, rel=1e-10)

    def test_wall_consistency(self):
        sol = velocity_solution(10, 0.6)
        assert sol.wall_value == pytest.approx(
            sol.intercept + float(np.sum(sol.amplitudes)), rel=1e-12
        )

    def test_slip_coefficient_positive(self):
        assert viscous_slip_coefficient(velocity_solution(8, 1.0)) > 0.0

    def test_parity_rejected(self):
        with pytest.raises(ValueError):
            velocity_solution(7, 1.0)
        with pytest.raises(ValueError):
            temperature_solution(8, 1.0)

    @pytest.mark.parametrize(
        "derive, odd",
        [
            (temperature_defect, True),
            (defect_slope, True),
            (normalized_temperature, True),
            (effective_conductivity, True),
            (jump_coefficient, True),
            (viscous_slip_coefficient, False),
        ],
    )
    def test_wrong_parity_solution_rejected(self, derive, odd):
        # each derived quantity reads the solution of one parity; the other
        # gets the solvers' parity message
        sol = velocity_solution(8, 0.5) if odd else temperature_solution(9, 0.5)
        args = (sol,) if derive in (jump_coefficient, viscous_slip_coefficient) else (sol, 1.0)
        message = "temperature-jump solutions need an odd order, got 8" if odd else (
            "Kramers solutions need an even order, got 9")
        with pytest.raises(ValueError, match=message):
            derive(*args)


class TestHalfSpaceDomain:
    @pytest.mark.parametrize("y", [-1e-300, -5.0, [0.0, 1.0, -0.5]])
    def test_negative_y_raises(self, y):
        sol = temperature_solution(9, 0.7)
        evaluators = [
            sol.temperature,
            velocity_solution(8, 0.7).velocity,
            functools.partial(temperature_defect, sol),
            functools.partial(defect_slope, sol),
            functools.partial(normalized_temperature, sol),
            functools.partial(effective_conductivity, sol),
        ]
        for evaluate in evaluators:
            with pytest.raises(ValueError, match="y >= 0"):
                evaluate(y)
            assert np.all(np.isfinite(evaluate(np.abs(y))))

    def test_wall_is_inside(self):
        sol = temperature_solution(9, 0.7)
        assert temperature_defect(sol, 0.0) == temperature_defect(sol, [0.0, 1.0])[0]
        assert sol.temperature(-0.0) == pytest.approx(sol.wall_value, rel=1e-12)


class TestEigenFreeCrossCheck:
    """Jump coefficient without any eigendecomposition.

    For square even blocks the wall operator equals
    b T - diag(0, sqrtm(B B^T)) and the far-field intercept collapses to
    u_0 + 0.8 w . u_1; Schur-based sqrtm plus an LU solve shares nothing
    with the Jacobi SVD or the Cholesky path.
    """

    @pytest.mark.parametrize("chi", [0.1, 1.0])
    @pytest.mark.parametrize("order", [13, 65])
    def test_matches_production_path(self, order, chi):
        import scipy.linalg

        from knlayer.boundary_solver import accommodation_factor, temperature_boundary_system
        from knlayer.system_builder import build_temperature_system
        from knlayer.verification import coupling_dense

        system = build_temperature_system(order)
        wbs = temperature_boundary_system(order)
        b = accommodation_factor(chi)
        coupling = coupling_dense(system)
        k = b * wbs.scaled_matrix
        k[1:, 1:] -= scipy.linalg.sqrtm(coupling @ coupling.T).real
        u = np.linalg.solve(k, wbs.c_vec)
        weights = np.zeros(system.m_even)
        lead = min(3, system.m_even)
        weights[:lead] = [math.sqrt(3.0) / 3.0, math.sqrt(6.0) / 2.0, math.sqrt(2.0) / 2.0][:lead]
        intercept = u[0] + 0.8 * weights @ u[1:]
        zeta_free = -2.5 * KN * intercept
        zeta = jump_coefficient(temperature_solution(order, chi))
        assert zeta == pytest.approx(zeta_free, rel=1e-11)


class TestChiZeroLimit:
    """(chi / (2 - chi)) zeta -> 5 sqrt(pi) / 8 at Kn = sqrt(2)/2, Pr = 1: the
    wall system degenerates to -2 b theta(0) = q."""

    LIMIT = 5.0 * math.sqrt(math.pi) / 8.0

    def test_numerical_approach(self):
        chi = 1e-4
        z = jump_coefficient(temperature_solution(13, chi))
        assert chi / (2.0 - chi) * z == pytest.approx(self.LIMIT, rel=0.01)

    def test_monotone_approach(self):
        gaps = []
        for chi in (1e-2, 1e-3, 1e-4):
            z = jump_coefficient(temperature_solution(13, chi))
            gaps.append(abs(chi / (2.0 - chi) * z - self.LIMIT))
        assert gaps[0] > gaps[1] > gaps[2]


class TestConvergenceOrder:
    def test_takes_chi_and_k_alone(self):
        # zeta = (5 Kn / 2 Pr) f(b), and the scale cancels from beta exactly
        assert list(inspect.signature(convergence_order).parameters) == ["chi", "k"]

    @pytest.mark.parametrize("k", [1, 4, 6])
    def test_orders_are_the_unscaled_curve_ratio(self, k):
        chis = np.array([0.1, 0.5, 1.0])
        f0, f1, f2 = (layer_operator(2**j + 1).curve(chis) for j in (k + 1, k + 2, k + 3))
        expected = -np.log2((f2 - f1) / (f1 - f0))
        np.testing.assert_array_equal(convergence_order(chis, k), expected)

    @pytest.mark.parametrize("k", [10, 11])
    def test_top_rung_checked_before_any_build(self, k):
        # k = 10 once built orders 2049 and 4097 cold before order 8193 raised
        before = layer_operator.cache_info()
        with pytest.raises(ValueError, match=r"k must be an integer in \[1, 9\]"):
            convergence_order(0.5, k)
        assert layer_operator.cache_info() == before

    def test_largest_k_reaches_the_largest_order(self, monkeypatch):
        # a recording stub serves the ladder 9, 17, 33 (k = 2) in place of
        # 1025, 2049, 4097, so no top order is built
        asked = []
        stand_in = {1025: 9, 2049: 17, 4097: 33}

        def recording(order, *args):
            asked.append(order)
            return layer_operator(stand_in[order], *args)

        monkeypatch.setattr(layer_profiles, "layer_operator", recording)
        beta = convergence_order(0.5, 9)
        assert asked == [1025, 2049, 4097]
        monkeypatch.undo()
        assert beta == convergence_order(0.5, 2)

    def test_unscaled_curve_is_free_of_kn_and_pr(self):
        # the ratio's inputs are the same bits at every Kn and Pr, so beta is
        ref = coefficient_curve(33)
        for kn, pr in ((1e-12, 1.0), (1.0, 0.7), (1e300, 1e-3)):
            curve = coefficient_curve(33, kn, pr)
            assert curve.lead == ref.lead
            np.testing.assert_array_equal(curve.poles, ref.poles)
            np.testing.assert_array_equal(curve.weights, ref.weights)

    def test_array_of_chi_matches_scalar_calls(self):
        chis = np.array([0.1, 0.5, 1.0])
        orders = convergence_order(chis, 4)
        assert orders.shape == chis.shape
        for chi, beta in zip(chis, orders):
            scalar = convergence_order(float(chi), 4)
            assert isinstance(scalar, float)
            # the ladder differences amplify last-bit differences of the curve
            assert beta == pytest.approx(scalar, abs=1e-9)

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            convergence_order(1.0, 0)

    def test_degeneracy_test_is_relative(self, monkeypatch):
        # curves scaled by a power of two give the same orders bit for bit,
        # although their differences lie far below any absolute threshold
        import knlayer.layer_profiles as lp

        chis = np.array([0.1, 0.5, 1.0])
        expected = convergence_order(chis, 4)

        def tiny(order):
            op = layer_operator(order)
            curve = dataclasses.replace(
                op.curve, lead=op.curve.lead * 2.0**-900, weights=op.curve.weights * 2.0**-900
            )
            return dataclasses.replace(op, curve=curve)

        monkeypatch.setattr(lp, "layer_operator", tiny)
        np.testing.assert_array_equal(convergence_order(chis, 4), expected)

    def test_degenerate_differences_reported(self, monkeypatch):
        import knlayer.layer_profiles as lp

        frozen = layer_operator(3)
        monkeypatch.setattr(lp, "layer_operator", lambda *a, **k: frozen)
        # a scalar chi is named as a scalar, an array of chi by its degenerate entries
        with pytest.raises(ArithmeticError, match=r"degenerate difference .* at chi=1\.0, k=2$"):
            convergence_order(1.0, 2)
        with pytest.raises(ArithmeticError, match=r"at chi=\[0\.5 1\. \], k=2$"):
            convergence_order(np.array([0.5, 1.0]), 2)


def intercept_coefficient(sol):
    """The coefficient through the wall solve's intercept, independent of the
    curve: -(5 Kn / 2 Pr) (intercept / q) for the jump, -Kn (intercept / sigma)
    for the slip.  A value that is not finite raises ``ValueError``."""
    if sol.order % 2:
        value = -2.5 * sol.kn / sol.pr * (sol.intercept / sol.heat_flux)
    else:
        value = -sol.kn * (sol.intercept / sol.shear)
    if not math.isfinite(value):
        raise ValueError(f"coefficient for order {sol.order}, chi={sol.chi} is not finite")
    return value


def per_chi_coefficient(order, chi, kn=KN, pr=1.0):
    """The coefficient through one full solution, the path the curve replaces."""
    if order % 2:
        return intercept_coefficient(temperature_solution(order, chi, kn, pr))
    return intercept_coefficient(velocity_solution(order, chi, kn, pr))


class TestCoefficientCurve:
    CHIS = (1e-3, 0.1, 0.5, 1.0)

    @pytest.mark.parametrize(
        "order",
        [*range(3, 16, 2), 129, 513, 1025, *range(4, 17, 2), 128, 512, 1024],
    )
    def test_matches_per_chi_path(self, order):
        for pr in (2.0 / 3.0, 1.0):
            got = coefficient_curve(order, pr=pr)(np.array(self.CHIS))
            ref = [per_chi_coefficient(order, chi, pr=pr) for chi in self.CHIS]
            np.testing.assert_allclose(got, ref, rtol=1e-13, atol=0.0)

    def test_scalar_and_array_calls(self):
        curve = coefficient_curve(9)
        value = curve(0.5)
        assert isinstance(value, float)
        grid = curve(np.full((2, 3), 0.5))
        assert grid.shape == (2, 3)
        assert np.all(grid == value)
        assert not curve.poles.flags.writeable and not curve.weights.flags.writeable
        assert np.all(curve.poles < 0.0)
        assert curve.alpha == curve.scale * curve.lead

    def test_rejects_out_of_domain_input(self):
        curve = coefficient_curve(8)
        for chis in ([0.5, 0.0], [1.5], [0.5, math.nan], [-0.1]):
            with pytest.raises(ValueError, match="accommodation"):
                curve(np.array(chis))
        for kn, pr in ((0.0, 1.0), (math.inf, 1.0), (1.0, math.nan), (1.0, -1.0), (1e-320, 1.0),
                       (1.0, 5e-324)):
            with pytest.raises(ValueError, match="finite and positive"):
                coefficient_curve(9, kn, pr)
        with pytest.raises(ValueError, match="not finite"):
            curve(np.array([0.5, 1e-320]))

    @given(
        kn=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
        pr=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
        order=st.sampled_from([3, 5, 13, 33, 4, 12, 32]),
        chis=st.lists(
            st.floats(min_value=0.0, max_value=1.0, exclude_min=True), min_size=1, max_size=6
        ),
    )
    @example(kn=KN, pr=1.0, order=13, chis=[1e-308, 5e-324, 1.0])
    @example(kn=1e300, pr=1e-300, order=12, chis=[0.5])
    @settings(max_examples=80, deadline=None)
    def test_finite_or_value_error_over_input_domain(self, kn, pr, order, chis):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                values = coefficient_curve(order, kn, pr)(np.array(chis))
            except ValueError:
                values = None
        if values is not None:
            assert np.all(np.isfinite(values))
        for i, chi in enumerate(chis):
            try:
                ref = per_chi_coefficient(order, chi, kn, pr)
            except ValueError:
                continue
            if values is None:
                try:
                    got = coefficient_curve(order, kn, pr)(chi)
                except ValueError:
                    continue
            else:
                got = values[i]
            assert abs(got - ref) <= 1e-13 * abs(ref), (chi, got, ref)

    def test_evaluation_memory_bounded(self):
        curve = coefficient_curve(513)
        chis = np.linspace(1e-3, 1.0, 20000)
        tracemalloc.start()
        try:
            values = curve(chis)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.all(np.isfinite(values))
        # one (20000 x 511) float64 array alone would take 82 MB
        assert peak < 16e6, f"peak {peak / 1e6:.1f} MB"


class TestParameterSweeps:
    def test_jump_coefficient_decreases_with_accommodation(self):
        for order in (3, 33, 99):
            zetas = [
                jump_coefficient(temperature_solution(order, float(chi)))
                for chi in np.geomspace(1e-4, 1.0, 9)
            ]
            assert all(math.isfinite(z) and z > 0.0 for z in zetas)
            assert all(a > b for a, b in zip(zetas, zetas[1:]))

    def test_slip_coefficient_finite_over_sweep(self):
        for chi in (0.05, 0.5, 1.0):
            for order in (4, 20, 48):
                slip = viscous_slip_coefficient(velocity_solution(order, chi))
                assert math.isfinite(slip) and slip > 0.0


class TestOneChi:
    """A solve reads one chi: anything else raises ValueError naming chi
    before any operator build, and a 0-d array is stored as a float."""

    @pytest.mark.parametrize(
        "chi",
        [[0.5, 0.6], [0.5], (0.5,), np.array([0.5]), np.array([[0.5]]), 0.5 + 0.0j, True, "0.5"],
    )
    @pytest.mark.parametrize("order", [3, 4, 1025])
    def test_rejected_before_any_build(self, order, chi):
        solve = temperature_solution if order % 2 else velocity_solution
        before = layer_operator.cache_info()
        with pytest.raises(ValueError, match="chi must be one real number"):
            solve(order, chi)
        assert layer_operator.cache_info() == before

    @pytest.mark.parametrize("order", [9, 8])
    @pytest.mark.parametrize("chi", [np.array(0.5), np.float32(0.5), 1])
    def test_one_number_is_stored_as_float(self, order, chi):
        solve = temperature_solution if order % 2 else velocity_solution
        sol, ref = solve(order, chi), solve(order, float(chi))
        assert type(sol.chi) is float and sol.chi == float(chi)
        assert sol.wall_value == ref.wall_value
        np.testing.assert_array_equal(sol.amplitudes, ref.amplitudes)


class TestOneRealNumber:
    """Kn, Pr, the flux and the wall value are one real number each, as chi
    is: anything else raises ValueError naming the parameter before any
    operator build, and a number is stored as a float, never as the caller's
    array (which a record would freeze)."""

    NAMES = {"kn": "Knudsen number", "pr": "Prandtl number", "flux": "the prescribed",
             "wall": "wall value"}

    @staticmethod
    def solve(order, **values):
        options = {"flux": "q2" if order % 2 else "sigma12",
                   "wall": "theta_wall" if order % 2 else "u1_wall"}
        solve = temperature_solution if order % 2 else velocity_solution
        return solve(order, 0.5, **{options.get(k, k): v for k, v in values.items()})

    @pytest.mark.parametrize(
        "value", [np.array([0.7, 0.8]), np.array([0.7]), [1.0], 1 + 0j, "0.7", True, np.bool_(True)]
    )
    @pytest.mark.parametrize("name", ["kn", "pr", "flux", "wall"])
    @pytest.mark.parametrize("order", [3, 4, 1025])
    def test_rejected_before_any_build(self, order, name, value):
        before = layer_operator.cache_info()
        with pytest.raises(ValueError, match=f"{self.NAMES[name]}.* must be one real number"):
            self.solve(order, **{name: value})
        if name in ("kn", "pr"):
            with pytest.raises(ValueError, match=f"{self.NAMES[name]} must be one real number"):
                coefficient_curve(order, **{name: value})
        assert layer_operator.cache_info() == before

    @pytest.mark.parametrize("order", [9, 8])
    @pytest.mark.parametrize("name", ["kn", "pr", "flux", "wall"])
    def test_one_number_is_stored_as_float(self, order, name):
        value = np.array(0.7)
        sol, ref = self.solve(order, **{name: value}), self.solve(order, **{name: 0.7})
        assert value.flags.writeable
        fields = {"kn": ("kn", "kn"), "pr": ("pr", "pr"), "flux": ("shear", "heat_flux"),
                  "wall": ("wall_velocity", "wall_temperature")}
        stored = getattr(sol, fields[name][order % 2])
        assert type(stored) is float and stored == 0.7
        assert sol.wall_value == ref.wall_value
        np.testing.assert_array_equal(sol.amplitudes, ref.amplitudes)

    def test_operator_key_is_a_float(self):
        assert layer_operator(8, np.array(0.7)) is layer_operator(8, 0.7)
        assert coefficient_curve(13, pr=np.float32(0.5)).scale == 2.5 * KN / float(np.float32(0.5))


class TestGrid:
    @pytest.mark.parametrize("solve", [temperature_solution, velocity_solution])
    def test_default_kn_grid_increases_from_1e_3(self, solve):
        sol = solve(13 if solve is temperature_solution else 12, 1.0)
        grid = default_profile_grid(sol)
        assert grid[0] == 1e-3
        assert grid[-1] == pytest.approx(60.0 * sol.decay_rates[0] * KN, rel=1e-14)
        assert np.all(np.diff(grid) > 0.0)

    @pytest.mark.parametrize(
        "solve, kn",
        [(velocity_solution, 2e-6), (temperature_solution, 1e308)],
    )
    def test_extent_outside_the_grid_contract_raises(self, solve, kn):
        # sixty widths at or below the 1e-3 start would make the grid
        # decrease, and an infinite extent would fill it with inf
        sol = solve(13 if solve is temperature_solution else 12, 1.0, kn=kn)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="sixty widths"):
                default_profile_grid(sol)

    def test_default_grid_shape(self):
        sol = temperature_solution(7, 1.0)
        grid = default_profile_grid(sol)
        assert grid.shape == (400,)
        assert grid[0] == pytest.approx(1e-3)
        assert grid[-1] == pytest.approx(60.0 * sol.decay_rates[0] * sol.kn)
        assert np.all(np.diff(grid) > 0.0)
        # a numpy integer count passes the integer check
        np.testing.assert_array_equal(default_profile_grid(sol, np.int64(400)), grid)

    def test_invalid_inputs(self):
        sol = temperature_solution(7, 1.0)
        for count in (1, 400.0, 2.5):
            with pytest.raises(ValueError, match="count"):
                default_profile_grid(sol, count)
        with pytest.raises(ValueError):
            temperature_solution(7, 1.0, kn=0.0)
        with pytest.raises(ValueError):
            temperature_solution(7, 1.0, pr=-1.0)
        with pytest.raises(ValueError):
            temperature_solution(7, 1.0, q2=0.0)


FINITE = st.floats(allow_nan=False, allow_infinity=False)
FINITE_POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)


@st.composite
def problems(draw):
    """(order, pr): any finite pr > 0, at most MAX_KRAMERS_PRANDTL for even orders."""
    order = draw(st.sampled_from([3, 5, 9, 13, 4, 8, 12]))
    top = None if order % 2 else MAX_KRAMERS_PRANDTL
    return order, draw(st.floats(min_value=0.0, max_value=top, exclude_min=True, allow_infinity=False))


def coefficient_and_profile(order, chi, kn, pr, flux, wall):
    """The per-chi chain: the coefficient, then every profile evaluator at three y.

    Returns (coefficient, profile values, conductivity) with the conductivity
    None for the shear kind; the coefficient comes through the intercept,
    and the profile values include the solution's own coefficient.  The
    profile value at a wall offset comes from its own solve, since the
    coefficients need the zero-wall normalization.
    """
    y = np.array([0.0, 0.3, 3.0])
    if order % 2:
        ref = temperature_solution(order, chi, kn, pr, flux, 0.0)
        coefficient = intercept_coefficient(ref)
        shifted = temperature_solution(order, chi, kn, pr, flux, wall)
        profile = [jump_coefficient(ref), shifted.temperature(y), temperature_defect(ref, y),
                   defect_slope(ref, y), normalized_temperature(ref, y)]
        return coefficient, profile, effective_conductivity(ref, y)
    ref = velocity_solution(order, chi, kn, pr, flux, 0.0)
    coefficient = intercept_coefficient(ref)
    shifted = velocity_solution(order, chi, kn, pr, flux, wall)
    return coefficient, [viscous_slip_coefficient(ref), shifted.velocity(y), ref.velocity(y)], None


class TestPerChiInputDomain:
    """A per-chi solve over the whole input domain: finite values or ValueError."""

    @given(
        problem=problems(),
        kn=FINITE_POSITIVE,
        chi=st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
        flux=FINITE.filter(lambda x: x != 0.0),
        wall=FINITE,
    )
    @example(problem=(13, 1.0), kn=KN, chi=5e-324, flux=1.0, wall=0.0)
    @example(problem=(12, MAX_KRAMERS_PRANDTL), kn=1e300, chi=1.0, flux=1e-300, wall=1e300)
    @settings(max_examples=150, deadline=None)
    def test_finite_or_value_error(self, problem, kn, chi, flux, wall):
        order, pr = problem
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("error")
            warnings.filterwarnings("always", "effective conductivity pole", RuntimeWarning)
            try:
                coefficient, profile, conductivity = coefficient_and_profile(
                    order, chi, kn, pr, flux, wall
                )
            except ValueError:
                return
        assert math.isfinite(coefficient)
        for values in profile:
            assert np.all(np.isfinite(values)), profile
        if conductivity is not None:
            assert not np.any(np.isnan(conductivity))
            assert np.all(np.isfinite(conductivity)) or caught, conductivity
        try:
            curve = coefficient_curve(order, kn, pr)(chi)
        except ValueError:
            return
        assert abs(curve - coefficient) <= 1e-13 * abs(coefficient), (curve, coefficient)


class TestBlockedEvaluation:
    # Order 65 has 63 modes, so a block holds 128 rows; a short last block
    # (1 to 127 rows after whole blocks) is padded to a multiple of 16.
    @pytest.mark.parametrize("count", [1, 2, 17, 128, 129, 130, 257, 4097])
    def test_blocks_match_one_product(self, count):
        sol = temperature_solution(65, 0.5)
        assert _BLOCK_ELEMENTS // sol.decay_rates.size // 16 * 16 == 128
        y = np.geomspace(1e-3, 50.0, count)
        decay = np.exp(-y[:, None] / (sol.kn * sol.decay_rates))
        np.testing.assert_allclose(
            temperature_defect(sol, y),
            -2.0 * sol.kn / sol.pr * (decay @ sol.defect_amplitudes),
            rtol=1e-14,
            atol=0.0,
        )
        np.testing.assert_allclose(
            sol.temperature(y),
            -0.4 * sol.pr / sol.kn * y + sol.intercept + decay @ sol.amplitudes,
            rtol=1e-14,
            atol=1e-15,
        )

    @pytest.mark.parametrize("order", [65, 129])
    def test_values_independent_of_call_size(self, order):
        # A row alone after a whole block, or in the 1 to 3 row tail of a
        # block, goes through another BLAS kernel than a row inside a longer
        # call and can differ in the last bit; windows of 2, 3 and
        # (block rows + 1) samples must match the 1000-sample call exactly.
        curve = coefficient_curve(order)
        rows = _BLOCK_ELEMENTS // curve.poles.size // 16 * 16
        chis = np.linspace(0.01, 1.0, 1000)
        sol = temperature_solution(order, 0.7)
        y = np.geomspace(1e-3, 50.0, 1000)
        full_curve, full_defect = curve(chis), temperature_defect(sol, y)
        for count in (2, 3, rows + 1):
            for start in range(0, 1000 - count, 3):
                window = slice(start, start + count)
                assert np.array_equal(curve(chis[window]), full_curve[window]), (count, start)
                assert np.array_equal(temperature_defect(sol, y[window]), full_defect[window])

    def test_lone_chi_matches_batch(self):
        # A single chi takes the same padded block kernel as a batch of 1000.
        curve = coefficient_curve(33)
        chis = np.geomspace(0.01, 1.0, 1000)
        batch = curve(chis)
        alone = np.array([curve(chi) for chi in chis])
        assert np.array_equal(alone, batch), np.flatnonzero(alone != batch)

    def test_conductivity_memory_bounded(self):
        sol = temperature_solution(65, 0.5)
        y = np.geomspace(1e-3, 100.0, 200_000)
        tracemalloc.start()
        try:
            ratio = effective_conductivity(sol, y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.all(np.isfinite(ratio))
        # one (200000 x 63) float64 array of exponentials alone would take 101 MB
        assert peak < 16e6, f"peak {peak / 1e6:.1f} MB"


def vm_hwm_readable() -> bool:
    """Whether this system reports the high-water RSS as VmHWM (Linux)."""
    try:
        with open("/proc/self/status", encoding="ascii") as status:
            return any(line.startswith("VmHWM:") for line in status)
    except OSError:
        return False


def operator_arrays(op):
    """Every array the operator holds, its wall reduction's and its curve's
    included, keyed by part and field."""
    fields = {}
    for part, record in (("op", op), ("wall", op.wall), ("curve", op.curve)):
        fields.update({(part, f.name): getattr(record, f.name) for f in dataclasses.fields(record)})
    return {name: v for name, v in fields.items() if isinstance(v, np.ndarray)}


class TestLayerOperator:
    @pytest.mark.parametrize("order", [513, 512])
    def test_cold_build_memory_bounded(self, order, monkeypatch):
        m_even = order - 2 if order % 2 else (order - 1) // 2
        at_eigh = []
        true_eigh = np.linalg.eigh

        def eigh(a, *args, **kwargs):
            at_eigh.append(tracemalloc.get_traced_memory()[0])
            return true_eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", eigh)
        layer_operator.cache_clear()
        tracemalloc.start()
        try:
            op = layer_operator(order, 0.7)
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        square = 8.0 * m_even * m_even
        # Five caches kept E, O, T and the table beside the reduced eigh and
        # peaked at 7.3 (order 513) and 8.3 (order 512) m_even^2 blocks.
        assert peak < 6.5 * square, f"peak {peak / square:.2f} m_even^2"
        # Only the Gram matrix is alive when decompose's eigh starts, only N =
        # -T and the Lanczos basis when the wall eigh starts (with T still
        # alive there, 2.3 at order 512), and only the modes after it.
        assert len(at_eigh) == 2
        for name, at in zip(("Gram", "wall"), at_eigh):
            assert at < 1.5 * square, f"{at / square:.2f} m_even^2 at the {name} eigh"
        assert current < 1.5 * square, f"retained {current / square:.2f} m_even^2"
        assert op.rates.shape == (m_even,)

    @pytest.mark.parametrize("order, pr", [(1025, 1.0), (1024, 0.7)])
    def test_cold_build_stays_inside_decompose_peak(self, order, pr):
        # every stage after decompose (the wall system, Lanczos and the
        # Cholesky check of -T) peaks below decompose's own arrays; factoring
        # -T while E and T were alive put the build 0.14 above at M = 1024
        def traced_peak(run):
            tracemalloc.start()
            try:
                run()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        system = reduced_system(order, pr)
        square = 8.0 * system.m_even ** 2
        at_decompose = traced_peak(lambda: decompose(system))
        layer_operator.cache_clear()
        at_build = traced_peak(lambda: layer_operator(order, pr))
        assert at_build < at_decompose + 0.1 * square, (
            f"build {at_build / square:.2f}, decompose {at_decompose / square:.2f} m_even^2")

    @pytest.mark.skipif(not vm_hwm_readable(), reason="needs VmHWM in /proc/self/status")
    def test_cold_build_grows_no_rss_after_decompose(self):
        # in a fresh interpreter, the high-water RSS right after decompose and
        # after the whole build of M = 1024, Pr 0.7 (m_even = 511): factoring
        # -T while T was alive grew it by 1.25 MiB, 0.63 m_even^2, and while E
        # and T were alive by 3.2 MiB
        script = """
from knlayer import layer_profiles

def hwm():
    with open("/proc/self/status", encoding="ascii") as status:
        return next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))

marks = []
true_decompose = layer_profiles.decompose

def decompose(system):
    eigen = true_decompose(system)
    marks.append(hwm())
    return eigen

layer_profiles.decompose = decompose
op = layer_profiles.layer_operator(1024, 0.7)
print(op.rates.size, marks[0], hwm())
"""
        src = str(Path(layer_profiles.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=120,
                              env={**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": "1"})
        assert proc.returncode == 0, proc.stderr
        m_even, at_decompose, at_build = map(int, proc.stdout.split())
        growth = 1024.0 * (at_build - at_decompose)
        assert growth <= 0.25 * 8.0 * m_even ** 2, f"VmHWM grew {growth / 2**10:.0f} KiB after decompose"

    @pytest.mark.parametrize("order, pr", [(65, 1.0), (64, 0.7)])
    def test_holds_one_mode_matrix(self, order, pr):
        # the mode matrix has one column per Ritz pair on the Krylov space of
        # the wall drive, fewer than m_even; every other array is a vector
        op = layer_operator(order, pr)
        assert isinstance(op, LayerOperator)
        arrays = operator_arrays(op)
        m_even, k = op.rates.size, op.wall.inv_mu.size
        assert k < m_even
        assert [name for name, a in arrays.items() if a.ndim > 1] == [("wall", "modes")]
        assert arrays["wall", "modes"].shape == (m_even, k)
        vectors = {name: a.shape for name, a in arrays.items() if a.ndim == 1}
        assert vectors == {
            ("op", "rates"): (m_even,), ("op", "row"): (m_even,), ("wall", "inv_mu"): (k,),
            ("wall", "g"): (k,), ("wall", "w0"): (k,), ("curve", "poles"): (k,), ("curve", "weights"): (k,),
        }
        assert not any(a.flags.writeable for a in arrays.values())

    def test_odd_order_keyed_on_order_alone(self):
        layer_operator.cache_clear()
        op = layer_operator(33)
        assert layer_operator(33, 1.0) is op
        assert layer_operator(33, 0.5) is op
        assert layer_operator(32) is layer_operator(32, 1.0)
        assert layer_operator(32, 0.7) is not layer_operator(32, 1.0)
        info = layer_operator.cache_info()
        assert (info.misses, info.hits) == (3, 4)

    @pytest.mark.parametrize("order, pr", [(33, 1.0), (32, 0.7)])
    def test_curve_is_the_wall_partial_fraction(self, order, pr, monkeypatch):
        op = layer_operator(order, pr)
        wall, curve = op.wall, op.curve
        assert (curve.order, curve.scale, curve.lead) == (order, 1.0, wall.lead)
        assert np.array_equal(curve.poles, -wall.inv_mu)
        weights = (op.row_scale * (op.row @ wall.modes) - wall.w0) * wall.g
        assert np.array_equal(curve.weights, weights)
        expected = coefficient_curve(order, pr=pr)
        # the scaled curve reads the operator's curve alone, never the wall
        # reduction it was built from
        blind_wall = dataclasses.replace(
            wall, **{f.name: np.full_like(getattr(wall, f.name), np.nan)
                     for f in dataclasses.fields(wall) if f.name != "lead"})
        blind = dataclasses.replace(op, wall=blind_wall)
        monkeypatch.setattr(layer_profiles, "layer_operator", lambda *args: blind)
        got = coefficient_curve(order, pr=pr)
        assert np.array_equal(got.weights, expected.weights)
        assert got(0.5) == expected(0.5)

    @pytest.mark.parametrize("order, pr", [(33, 1.0), (32, 0.7)])
    def test_scaled_curve_shares_the_operator_arrays(self, order, pr):
        op = layer_operator(order, pr)
        chis = np.array([1e-3, 0.1, 0.5, 1.0])
        for kn in (KN, 0.3):
            scaled = coefficient_curve(order, kn, pr)
            assert scaled.weights is op.curve.weights and scaled.poles is op.curve.poles
            assert scaled.scale == (2.5 * kn / pr if order % 2 else kn)
            np.testing.assert_array_equal(dataclasses.replace(scaled, scale=1.0)(chis), op.curve(chis))

    def test_operator_shared_by_solutions_and_curve(self):
        layer_operator.cache_clear()
        first = temperature_solution(33, 0.4)
        coefficient_curve(33, pr=0.5)
        second = temperature_solution(33, 0.9, pr=2.0)
        assert layer_operator.cache_info().misses == 1
        assert first.decay_rates is second.decay_rates

    def test_perfbench_targets_resolve(self):
        spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
        spans = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(spans)
        for targets in spans.LAYERS.values():
            for module_name, qualname in targets:
                owner = importlib.import_module(f"knlayer.{module_name}")
                for part in qualname.split("."):
                    owner = getattr(owner, part)
                assert callable(owner), (module_name, qualname)
        table = HalfSpaceTable(9)
        assert table.s_normalized.shape == (5, 5) and table.s_values.shape == (5, 5)


class TestIntegralOrders:
    """An order (and the k of the convergence ladder) is a whole number: a
    float raises ``ValueError`` before it reaches a numpy shape or the
    operator cache, where 9.0 and 9 are one key; numpy integers pass."""

    @pytest.mark.parametrize(
        "call",
        [
            lambda: build_temperature_system(9.0),
            lambda: build_kramers_system(8.0, 1.0),
            lambda: wall_system(9.0),
            lambda: wall_system(8.0, 0.7),
            lambda: coefficient_curve(9.0),
            lambda: temperature_solution(9.0, 0.5),
            lambda: velocity_solution(8.0, 0.5),
            lambda: HalfSpaceTable(8.0),
            lambda: convergence_order(0.5, 1.5),
            lambda: convergence_order(0.5, 2.0),
        ],
    )
    def test_non_integral_order_rejected(self, call):
        with pytest.raises(ValueError, match="integer"):
            call()

    def test_float_order_not_served_from_the_cache(self):
        layer_operator(9)
        before = layer_operator.cache_info()
        with pytest.raises(ValueError, match="integer"):
            temperature_solution(9.0, 0.5)
        with pytest.raises(ValueError, match="integer"):
            layer_operator(9.0)
        assert layer_operator.cache_info() == before

    def test_numpy_integers_pass(self):
        sol = temperature_solution(np.int64(9), 0.5)
        assert sol.wall_value == temperature_solution(9, 0.5).wall_value
        assert velocity_solution(np.int32(8), 0.5).wall_value == velocity_solution(8, 0.5).wall_value
        assert np.array_equal(
            wall_system(np.int64(9)).scaled_matrix, wall_system(9).scaled_matrix
        )
        assert np.array_equal(HalfSpaceTable(np.int64(8)).s_normalized, HalfSpaceTable(8).s_normalized)
        assert convergence_order(0.5, np.int64(1)) == convergence_order(0.5, 1)
