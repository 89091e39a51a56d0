"""Reduced-system construction against the inner-product oracle."""

import math
import sys

import numpy as np
import pytest

from knlayer.boundary_solver import kramers_boundary_system
from knlayer.layer_profiles import (
    coefficient_curve,
    layer_operator,
    temperature_solution,
    velocity_solution,
)
from knlayer import system_builder, verification
from knlayer.system_builder import (
    MAX_KRAMERS_PRANDTL,
    _kramers_a1,
    build_kramers_system,
    build_temperature_system,
    reduced_system,
)
from knlayer.verification import (
    _even_norm,
    coupling_dense,
    inner_product_oracle,
    oracle_entry,
    parity_dense,
)


class TestInnerProductOracle:
    def test_pure_normal_pair(self):
        # xi2 He_3 = 3 He_2 + He_4; only the He_2 term survives
        assert inner_product_oracle((0, 2, 0), (0, 3, 0)) == 6.0

    def test_orthogonal_pair(self):
        assert inner_product_oracle((1, 0, 0), (0, 1, 0)) == 0.0

    def test_upshift_term(self):
        # down-shift of (2,1,0) and up-shift of (2,0,0) both land on a norm
        assert inner_product_oracle((2, 0, 0), (2, 1, 0)) == 2.0
        assert inner_product_oracle((2, 1, 0), (2, 0, 0)) == 2.0

    def test_against_gauss_hermite_quadrature(self):
        # probabilists' nodes/weights; weight integrates to sqrt(2 pi) per axis
        nodes, weights = np.polynomial.hermite_e.hermegauss(24)
        weights = weights / math.sqrt(2.0 * math.pi)

        def he(n, x):
            vals = [np.ones_like(x), x]
            for k in range(1, n + 1):
                vals.append(x * vals[-1] - k * vals[-2])
            return vals[n]

        for a, b in [((0, 2, 0), (0, 3, 0)), ((2, 1, 0), (2, 0, 0)), ((1, 2, 0), (1, 3, 0))]:
            num = 1.0
            for axis in range(3):
                fa = he(a[axis], nodes)
                fb = he(b[axis], nodes)
                extra = nodes if axis == 1 else 1.0
                num *= float(np.sum(weights * fa * fb * extra))
            assert inner_product_oracle(a, b) == pytest.approx(num, rel=1e-10, abs=1e-10)


class TestTemperatureSystem:
    def test_dimensions(self):
        for order in (3, 5, 7, 9, 21):
            system = build_temperature_system(order)
            assert system.m_even == order - 2
            assert coupling_dense(system).shape == (order - 2, order - 2)

    def test_order_three_entries(self):
        system = build_temperature_system(3)
        assert system.m_even == 1
        assert coupling_dense(system)[0, 0] == pytest.approx(3.0 / math.sqrt(5.0), rel=1e-15)
        assert _even_norm(3, 1.0, 1) == pytest.approx(math.sqrt(3.0), rel=1e-15)

    def test_order_five_entries_from_oracle(self):
        system = build_temperature_system(5)
        expected = np.array(
            [[oracle_entry(5, 1.0, i, j) for j in range(1, 4)] for i in range(1, 4)]
        )
        np.testing.assert_allclose(coupling_dense(system), expected, rtol=1e-13, atol=1e-14)
        # diagonal entries in closed form
        dense = coupling_dense(system)
        assert dense[1, 1] == pytest.approx(math.sqrt(5.0), rel=1e-15)
        assert dense[2, 2] == pytest.approx(math.sqrt(3.0), rel=1e-15)

    def test_order_seven_band_entries(self):
        dense = coupling_dense(build_temperature_system(7))
        assert dense[3, 3] == pytest.approx(math.sqrt(7.0), rel=1e-15)
        assert dense[4, 2] == pytest.approx(2.0, rel=1e-15)
        assert dense[3, 1] == pytest.approx(math.sqrt(6.0), rel=1e-15)

    @pytest.mark.parametrize("order", range(3, 32, 2))
    def test_all_entries_match_oracle(self, order):
        system = build_temperature_system(order)
        dense = coupling_dense(system)
        worst = 0.0
        for j in range(1, system.m_even + 1):
            for i in range(1, system.m_even + 1):
                expected = oracle_entry(order, 1.0, i, j)
                got = dense[i - 1, j - 1]
                worst = max(worst, abs(got - expected) / max(1.0, abs(expected)))
        assert worst < 1e-12

    def test_band_structure(self):
        system = build_temperature_system(13)
        dense = coupling_dense(system)
        for i in range(system.m_even):
            for j in range(system.m_even):
                if not 0 <= i - j <= 2:
                    assert dense[i, j] == 0.0

    def test_full_column_rank(self):
        for order in range(3, 100, 2):
            dense = coupling_dense(build_temperature_system(order))
            smallest = np.linalg.svd(dense, compute_uv=False)[-1]
            assert smallest > 0.0

    def test_entry_magnitude_bound(self):
        for order in range(3, 1026, 2):
            system = build_temperature_system(order)
            top = max(
                np.max(np.abs(system.diag_main), initial=0.0),
                np.max(np.abs(system.diag_sub1), initial=0.0),
                np.max(np.abs(system.diag_sub2), initial=0.0),
            )
            assert top <= math.sqrt(order + 3.0)
        for order in range(4, 1025, 2):
            system = build_kramers_system(order, 2.0 / 3.0)
            top = max(
                np.max(np.abs(system.diag_main), initial=0.0),
                np.max(np.abs(system.diag_sub1), initial=0.0),
            )
            assert top <= math.sqrt(order + 3.0)

    def test_rejects_bad_orders(self):
        with pytest.raises(ValueError):
            build_temperature_system(4)
        with pytest.raises(ValueError):
            build_temperature_system(1)
        with pytest.raises(ValueError):
            build_temperature_system(4099)


class TestKramersSystem:
    def test_dimensions(self):
        for order in (4, 6, 8, 20):
            system = build_kramers_system(order, 1.0)
            assert system.m_even == order // 2 - 1
            assert coupling_dense(system).shape == (order // 2 - 1, order // 2 - 1)

    def test_leading_scale_bgk(self):
        assert _kramers_a1(1.0) == pytest.approx(math.sqrt(2.0), rel=1e-15)
        assert _even_norm(4, 1.0, 1) == pytest.approx(math.sqrt(2.0), rel=1e-15)

    def test_leading_scale_prandtl(self):
        a1 = _kramers_a1(2.0 / 3.0)
        assert a1 == pytest.approx(math.sqrt(28.0 / 15.0), rel=1e-15)
        assert _even_norm(4, 2.0 / 3.0, 1) == pytest.approx(math.sqrt(28.0 / 15.0), rel=1e-15)
        assert _kramers_a1(1.0) / a1 == pytest.approx(math.sqrt(5.0 / (4.0 + 2.0 / 3.0)), rel=1e-14)

    def test_leading_entry(self):
        system = build_kramers_system(6, 1.0)
        assert coupling_dense(system)[0, 0] == pytest.approx(math.sqrt(3.0), rel=1e-15)

    @pytest.mark.parametrize("order", range(4, 31, 2))
    @pytest.mark.parametrize("prandtl", [1.0, 2.0 / 3.0])
    def test_all_entries_match_oracle(self, order, prandtl):
        system = build_kramers_system(order, prandtl)
        dense = coupling_dense(system)
        for j in range(1, system.m_even + 1):
            for i in range(1, system.m_even + 1):
                expected = oracle_entry(order, prandtl, i, j)
                got = dense[i - 1, j - 1]
                assert got == pytest.approx(expected, rel=1e-13, abs=1e-14)

    def test_oracle_reads_the_callers_prandtl(self):
        # the system keeps no Pr: the oracle re-derives each entry at the Pr
        # it is given, so a system built at another Pr leaves a residual
        system = build_kramers_system(8, 0.7)
        leading = coupling_dense(system)[0, 0]
        assert oracle_entry(8, 0.7, 1, 1) == pytest.approx(leading, rel=1e-15)
        assert abs(oracle_entry(8, 1.0, 1, 1) - leading) > 1e-2
        assert verification._system_entry_residual(system, 0.7) <= 1e-13
        assert verification._system_entry_residual(system, 1.0) > 1e-2

    def test_bidiagonal(self):
        dense = coupling_dense(build_kramers_system(20, 0.7))
        for i in range(dense.shape[0]):
            for j in range(dense.shape[1]):
                if i - j not in (0, 1):
                    assert dense[i, j] == 0.0

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            build_kramers_system(5, 1.0)
        with pytest.raises(ValueError):
            build_kramers_system(4, 0.0)
        with pytest.raises(ValueError):
            build_kramers_system(4, -1.0)
        with pytest.raises(ValueError):
            build_kramers_system(12, 1e300)  # coupling block rank deficient
        with pytest.raises(ValueError):
            build_kramers_system(12, math.nan)

    @pytest.mark.parametrize(
        "prandtl", [1e-320, 5e-324, math.inf, MAX_KRAMERS_PRANDTL * 1.0000001, math.nan, -1.0]
    )
    def test_one_prandtl_domain(self, prandtl):
        # finite, normal and at most MAX_KRAMERS_PRANDTL, with one message,
        # for the system, the wall, the solution and the operator alike; an
        # odd order drops Pr from the operator's key only after checking it
        message = "Prandtl number must be finite and positive, not subnormal and at most 1e"
        for call in (
            lambda: build_kramers_system(8, prandtl),
            lambda: kramers_boundary_system(8, prandtl),
            lambda: velocity_solution(8, 1.0, pr=prandtl),
            lambda: temperature_solution(9, 1.0, pr=prandtl),
            lambda: coefficient_curve(9, pr=prandtl),
            lambda: layer_operator(8, prandtl),
            lambda: layer_operator(9, prandtl),
        ):
            with pytest.raises(ValueError, match=message):
                call()

    def test_prandtl_bound_is_inside(self):
        for pr in (MAX_KRAMERS_PRANDTL, sys.float_info.min):
            leading = math.sqrt(15.0 / (4.0 + pr))
            assert build_kramers_system(8, pr).diag_main[0] == leading
        assert math.isfinite(coefficient_curve(9, pr=MAX_KRAMERS_PRANDTL)(1.0))


SYSTEM_ARRAYS = ("diag_main", "diag_sub1", "diag_sub2")


def loop_diagonals(order, pr):
    """(main, first, second subdiagonal) of the order's system, entry by entry
    with ``math.sqrt``: the reference for the builders' vectorized square
    roots.  ``pr`` None is the temperature jump."""
    if pr is None:
        m = order - 2
        main, sub1, sub2 = np.zeros(m), np.zeros(m - 1), np.zeros(max(m - 2, 0))
        main[0] = 9.0 / math.sqrt(45.0)
        if m >= 2:
            sub1[0] = 24.0 / math.sqrt(24.0 * 15.0)
        if m >= 3:
            sub2[0] = -6.0 / math.sqrt(2.0 * 15.0)
        for j in range(2, m + 1):
            k = j // 2
            main[j - 1] = math.sqrt(2 * k + 3) if j % 2 == 0 else math.sqrt(2 * k + 1)
        for j in range(2, m - 1):
            k = (j + 2) // 2
            sub2[j - 1] = math.sqrt(2 * k + 2) if j % 2 == 0 else math.sqrt(2 * k)
        return main, sub1, sub2
    m = order // 2 - 1
    main = np.array([math.sqrt(15.0 / (4.0 + pr))] + [math.sqrt(2 * j + 1) for j in range(2, m + 1)])
    return main, np.array([math.sqrt(2.0 * j + 2.0) for j in range(1, m)]), np.zeros(0)


class TestReducedSystem:
    """``reduced_system`` calls the named builder of the order's parity."""

    @pytest.mark.parametrize("pr", [None, 1e-3, 2.0 / 3.0, 1.0, 1e12])
    def test_diagonals_match_the_entrywise_loop(self, pr):
        # every diagonal in closed form, one vectorized square root each
        orders = [*range(3, 400, 2), 4097] if pr is None else [*range(4, 399, 2), 4096]
        for order in orders:
            got = reduced_system(order, pr or 1.0)
            for name, expected in zip(SYSTEM_ARRAYS, loop_diagonals(order, pr)):
                assert getattr(got, name).tobytes() == expected.tobytes(), (order, name)

    @pytest.mark.parametrize("order, pr", [(3, 1.0), (9, 0.5), (4, 1.0), (8, 0.7)])
    def test_named_builder_by_parity(self, order, pr, monkeypatch):
        named = (build_temperature_system, (order,)) if order % 2 else \
            (build_kramers_system, (order, pr))
        calls = []

        def counted(*args):
            calls.append(args)
            return named[0](*args)

        # it looks the builder up in the module, as a tracer that rebinds it expects
        monkeypatch.setattr(system_builder, named[0].__name__, counted)
        got = reduced_system(order, pr)
        expected = named[0](*named[1])
        assert calls == [named[1]]
        assert (got.order, got.m_even) == (order, expected.m_even)
        for name in SYSTEM_ARRAYS:
            assert getattr(got, name).tobytes() == getattr(expected, name).tobytes(), name

    @pytest.mark.parametrize(
        "order, pr, named",
        [
            (1, 1.0, lambda: build_temperature_system(1)),
            (4099, 1.0, lambda: build_temperature_system(4099)),
            (4098, 1.0, lambda: build_kramers_system(4098, 1.0)),
            (2, 1.0, lambda: build_kramers_system(2, 1.0)),
            (8, math.nan, lambda: build_kramers_system(8, math.nan)),
            (8, -1.0, lambda: build_kramers_system(8, -1.0)),
            (9, math.nan, lambda: build_kramers_system(8, math.nan)),
            (9, 1e300, lambda: build_kramers_system(8, 1e300)),
            # '13' % 2 and None % 2 once raised TypeError from the parity
            # test; 13.0 keeps the message the builder gave it
            ("13", 1.0, lambda: build_temperature_system("13")),
            (None, 1.0, lambda: build_kramers_system(None, 1.0)),
            (13.0, 1.0, lambda: build_temperature_system(13.0)),
        ],
    )
    def test_rejects_what_the_named_builders_reject(self, order, pr, named):
        with pytest.raises(ValueError) as expected:
            named()
        with pytest.raises(ValueError) as got:
            reduced_system(order, pr)
        assert str(got.value) == str(expected.value)


class TestParityDense:
    def test_assembled_shape_and_symmetry(self):
        system = build_temperature_system(9)
        dense = parity_dense(system)
        n = 2 * system.m_even
        assert dense.shape == (n, n)
        np.testing.assert_array_equal(dense, dense.T)
        assert np.all(dense[: system.m_even, : system.m_even] == 0.0)
        assert np.all(dense[system.m_even:, system.m_even:] == 0.0)
