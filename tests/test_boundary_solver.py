"""Wall boundary assembly and solve against the worked low-order case."""

import dataclasses
import decimal
import functools
import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from knlayer.boundary_solver import (
    StructuralSolveError,
    WallBoundarySystem,
    accommodation_factor,
    kramers_boundary_system,
    solve_wall,
    temperature_boundary_system,
    wall_system,
)
from knlayer import boundary_solver, cli, layer_profiles, special_functions, verification
from knlayer.cli import main
from knlayer.parity_spectral import ParityEigen, decompose
from knlayer.special_functions import SQRT_2PI, HalfSpaceTable
from knlayer.system_builder import build_kramers_system, build_temperature_system
from knlayer.verification import (
    coupling_dense,
    odd_block,
    raw_wall_matrix,
    reference_wall_matrix,
    wall_operator,
)


# Prandtl numbers log-uniform over [1e-3, 1e12], seeded.
RANDOM_PRANDTLS = (10.0 ** np.random.default_rng(7).uniform(-3.0, 12.0, 12)).tolist()


def reference_t0(chi):
    """Wall value of the leading even moment for order 3 (hand-solved)."""
    b = accommodation_factor(chi)
    return -1.0 / (math.sqrt(5.0) * (6.0 + 3.0 * math.sqrt(5.0) * b))


def looped_temperature_T(order, table):
    """Element-by-element assembly of the scaled temperature boundary matrix.

    The table holds S(2i, 2j) at [i, j], so S(2k-2, 2l-2) sits at [k-1, l-1].
    """
    size = order - 1
    sn = table.s_normalized
    n = np.zeros((size, size))
    for k in range(1, size // 2 + 1):
        for ell in range(1, size // 2 + 1):
            n[2 * k - 1, 2 * ell - 1] = sn[k - 1, ell - 1]
            n[2 * k - 2, 2 * ell - 2] = sn[k, ell] - sn[k, 0] * sn[0, ell] / sn[0, 0]
    w = np.array(
        [
            [0.5 * math.sqrt(2.0), 1.0],
            [math.sqrt(2.0 / 3.0), -1.0 / math.sqrt(3.0)],
        ]
    )
    out = n.copy()
    out[:2, :] = w @ n[:2, :]
    out[:, :2] = out[:, :2] @ w.T
    return out


def cholesky_wall_solve(wbs, eigen, chi, flux, wall_value):
    """Reference wall solve: a Cholesky factorization of -K(chi) per chi."""
    factor = scipy.linalg.cho_factor(-wall_operator(wbs, eigen, chi), lower=True)
    u = scipy.linalg.cho_solve(factor, -flux * wbs.c_vec)
    return float(u[0]) + wall_value, 2.0 * eigen.even_vectors.T @ u[1:]


@functools.lru_cache(maxsize=None)
def temperature_eigen(order):
    return decompose(build_temperature_system(order))


@functools.lru_cache(maxsize=None)
def kramers_eigen(order, pr):
    return decompose(build_kramers_system(order, pr))


@pytest.fixture(scope="module")
def table1025():
    return HalfSpaceTable(1027)


class TestAccommodationFactor:
    def test_value(self):
        assert accommodation_factor(1.0) == pytest.approx(2.0 / SQRT_2PI, rel=1e-15)

    def test_domain(self):
        with pytest.raises(ValueError):
            accommodation_factor(0.0)
        with pytest.raises(ValueError):
            accommodation_factor(1.5)
        with pytest.raises(ValueError):
            accommodation_factor(-0.1)
        with pytest.raises(ValueError):
            accommodation_factor([0.5, 1.5])

    def test_sequence_matches_array(self):
        chis = [0.1, 0.5, 1.0]
        from_list = accommodation_factor(chis)
        assert np.array_equal(from_list, accommodation_factor(np.array(chis)))
        # a scalar chi gives a float, bit-identical to the scalar formula
        for chi in chis:
            b = accommodation_factor(chi)
            assert type(b) is float
            assert b == 2.0 * chi / ((2.0 - chi) * SQRT_2PI)
            assert b == from_list[chis.index(chi)]


class TestTemperatureAssembly:
    def test_order_three_raw_matrix(self):
        tb = raw_wall_matrix(3)
        np.testing.assert_allclose(tb, [[-4.0, 0.0], [0.0, -1.0]], atol=1e-14)

    def test_order_three_mixed_block(self):
        # the P-recombined raw system carries the classic 2x2 pattern
        tb = raw_wall_matrix(3)
        p1 = np.array([[0.5, 1.0], [1.0, -1.0]])
        np.testing.assert_allclose(p1 @ tb @ p1, [[-2.0, -1.0], [-1.0, -5.0]], atol=1e-14)

    def test_scaled_matrix_via_sandwich(self):
        t = reference_wall_matrix(3)
        expected = np.array(
            [[-2.0, -1.0 / math.sqrt(3.0)], [-1.0 / math.sqrt(3.0), -5.0 / 3.0]]
        )
        np.testing.assert_allclose(t, expected, atol=1e-14)
        np.testing.assert_allclose(temperature_boundary_system(3).scaled_matrix, expected, atol=1e-14)

    # 151 is the last odd order whose raw matrix fits the raw window: it reads
    # S up to index 150 = RAW_ORDER_LIMIT; every even order 4 ... 150 at four Pr
    @pytest.mark.parametrize(
        "order, pr",
        [pytest.param(m, 1.0, id=str(m)) for m in (5, 9, 21, 63, 99, 151)]
        + [(m, pr) for m in range(4, 151, 2) for pr in (1.0, 2.0 / 3.0, 1e-3, 1e6)],
    )
    def test_normalized_path_matches_raw_sandwich(self, order, pr):
        direct = reference_wall_matrix(order, pr)
        safe = wall_system(order, pr).scaled_matrix
        np.testing.assert_allclose(safe, direct, rtol=1e-11, atol=1e-13)

    def test_raw_matrix_stops_past_the_window(self):
        # an odd order reads S up to index order - 1, an even one up to order - 2
        for order in (153, 154):
            with pytest.raises(ValueError, match="double-precision window"):
                raw_wall_matrix(order)

    def test_sliced_assembly_matches_loop(self, table1025):
        for order in [*range(3, 100, 2), 129, 513, 1025]:
            assert np.array_equal(
                temperature_boundary_system(order).scaled_matrix, looped_temperature_T(order, table1025)
            ), order

    def test_mixing_is_in_place(self):
        # the 2x2 mixing of rows and columns 0-1 works on the assembled matrix
        # itself; a mixed copy of it put the peak at 2.25 (m + 1)^2 doubles
        order = 1025
        tracemalloc.start()
        try:
            temperature_boundary_system(order)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2.0 * 8 * (order + 1) ** 2, peak

    def test_symmetry(self):
        for order in (3, 7, 33, 99):
            tb = raw_wall_matrix(order)
            np.testing.assert_array_equal(tb, tb.T)
            t = temperature_boundary_system(order).scaled_matrix
            np.testing.assert_allclose(t, t.T, atol=1e-15)

    def test_negative_definite_by_sampling(self):
        rng = np.random.default_rng(7)
        tb = raw_wall_matrix(7)
        for _ in range(100):
            x = rng.standard_normal(tb.shape[0])
            assert x @ tb @ x < 0.0

    def test_negative_definite_by_factorization(self):
        for order in range(3, 100, 2):
            t = temperature_boundary_system(order).scaled_matrix
            np.linalg.cholesky(-t)
            tb = raw_wall_matrix(order)
            np.linalg.cholesky(-tb)


class TestKramersAssembly:
    def test_leading_entry(self):
        sk = raw_wall_matrix(4)
        assert sk[0, 0] == -1.0
        np.testing.assert_allclose(sk, [[-1.0, -1.0], [-1.0, -5.0]], atol=1e-14)

    def test_scaled_form(self):
        pr = 1.0
        a1 = math.sqrt(2.0 * (4.0 + pr) / 5.0)
        expected = np.array([[-1.0, -1.0 / a1], [-1.0 / a1, -5.0 / a1**2]])
        np.testing.assert_allclose(kramers_boundary_system(4, pr).scaled_matrix, expected, atol=1e-14)
        np.testing.assert_allclose(reference_wall_matrix(4, pr), expected, atol=1e-14)

    @pytest.mark.parametrize("pr", [1e-3, 2.0 / 3.0, 0.7, 1.0, 1e12])
    def test_sliced_assembly_matches_fancy_index(self, table1025, pr):
        # T is the table block scaled in place on row and column 1: the same
        # bits as the block times the outer product of the weights
        for order in [*range(4, 99, 2), 128, 512, 1024]:
            size = order // 2
            idx = np.arange(size)  # S(2i, 2j) sits at [i, j] of the even block
            w = np.ones(size)
            w[1] = math.sqrt(5.0 / (4.0 + pr))
            expected = table1025.s_normalized[np.ix_(idx, idx)] * np.outer(w, w)
            assert np.array_equal(kramers_boundary_system(order, pr).scaled_matrix, expected), order

    def test_negative_definite(self):
        for order in range(4, 99, 2):
            sk = raw_wall_matrix(order)
            np.testing.assert_array_equal(sk, sk.T)
            np.linalg.cholesky(-sk)
            np.linalg.cholesky(-kramers_boundary_system(order, 2.0 / 3.0).scaled_matrix)


class TestWallDomain:
    """The wall builders accept the system builders' domain and nothing else,
    and reject the rest before they allocate: the order alone sizes the
    table, so nothing else would stop an order of 10**6."""

    @pytest.mark.parametrize(
        "build, args",
        [
            (kramers_boundary_system, (8, math.nan)),
            (kramers_boundary_system, (8, math.inf)),
            (kramers_boundary_system, (8, 1e300)),
            (kramers_boundary_system, (8, 0.0)),
            (kramers_boundary_system, (4098, 1.0)),
            (kramers_boundary_system, (10**6, 1.0)),
            (kramers_boundary_system, (9, 1.0)),
            (kramers_boundary_system, (2, 1.0)),
            (temperature_boundary_system, (4099,)),
            (temperature_boundary_system, (10**6 + 1,)),
            (temperature_boundary_system, (8,)),
            (temperature_boundary_system, (1,)),
            (raw_wall_matrix, (4099,)),
            (raw_wall_matrix, (4098,)),
        ],
    )
    def test_rejected_before_allocation(self, monkeypatch, build, args):
        def no_block(top):
            raise AssertionError(f"a half-space block of order {top} was built")

        monkeypatch.setattr(boundary_solver, "HalfSpaceTable", no_block)
        monkeypatch.setattr(special_functions, "_raw_block", no_block)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError):
                build(*args)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 16, peak

    @pytest.mark.parametrize("order, pr", [(4, 1e-300), (4096, 1e12), (4, 1e12)])
    def test_prandtl_bounds_accepted(self, order, pr):
        wbs = kramers_boundary_system(order, pr)
        assert np.isfinite(wbs.scaled_matrix).all() and np.isfinite(wbs.c_vec).all()

    def test_table_sized_by_order(self, monkeypatch):
        # each builder builds the smallest table its assembly reads; the raw
        # references build no table (test_special_functions.py)
        sizes = []

        class Recording(HalfSpaceTable):
            def __init__(self, max_order):
                sizes.append(max_order)
                super().__init__(max_order)

        monkeypatch.setattr(boundary_solver, "HalfSpaceTable", Recording)
        temperature_boundary_system(9)
        kramers_boundary_system(8, 1.0)
        assert sizes == [8, 6]


class TestWallSystem:
    """``wall_system`` calls the named wall builder of the order's parity."""

    @pytest.mark.parametrize("order, pr", [(3, 1.0), (9, 0.5), (4, 1.0), (8, 0.7)])
    def test_named_builder_by_parity(self, order, pr, monkeypatch):
        named = (temperature_boundary_system, (order,)) if order % 2 else \
            (kramers_boundary_system, (order, pr))
        calls = []

        def counted(*args):
            calls.append(args)
            return named[0](*args)

        # it looks the builder up in the module, as a tracer that rebinds it expects
        monkeypatch.setattr(boundary_solver, named[0].__name__, counted)
        got = wall_system(order, pr)
        expected = named[0](*named[1])
        assert calls == [named[1]]
        assert got.order == order
        assert got.scaled_matrix.tobytes() == expected.scaled_matrix.tobytes()
        assert got.c_vec.tobytes() == expected.c_vec.tobytes()

    @pytest.mark.parametrize(
        "order, pr, named",
        [
            (1, 1.0, lambda: temperature_boundary_system(1)),
            (4099, 1.0, lambda: temperature_boundary_system(4099)),
            (2, 1.0, lambda: kramers_boundary_system(2, 1.0)),
            (4098, 1.0, lambda: kramers_boundary_system(4098, 1.0)),
            (8, math.nan, lambda: kramers_boundary_system(8, math.nan)),
            (8, 0.0, lambda: kramers_boundary_system(8, 0.0)),
            (9, math.nan, lambda: kramers_boundary_system(8, math.nan)),
            (9, math.inf, lambda: kramers_boundary_system(8, math.inf)),
        ],
    )
    def test_rejects_what_the_named_builders_reject(self, order, pr, named):
        with pytest.raises(ValueError) as expected:
            named()
        with pytest.raises(ValueError) as got:
            wall_system(order, pr)
        assert str(got.value) == str(expected.value)


class TestCVectors:
    def test_temperature_leading_entries(self):
        c = temperature_boundary_system(9).c_vec
        expected = [1.0, 4.0 / (5.0 * math.sqrt(3.0)), 2.0 * math.sqrt(6.0) / 5.0,
                    2.0 * math.sqrt(2.0) / 5.0]
        np.testing.assert_allclose(c[:4], expected, rtol=1e-15)
        assert np.all(c[4:] == 0.0)

    def test_temperature_truncated_at_order_three(self):
        np.testing.assert_allclose(
            temperature_boundary_system(3).c_vec, [1.0, 4.0 / (5.0 * math.sqrt(3.0))], rtol=1e-15
        )

    def test_kramers_vector(self):
        pr = 2.0 / 3.0
        c = kramers_boundary_system(8, pr).c_vec
        a1 = math.sqrt(2.0 * (4.0 + pr) / 5.0)
        np.testing.assert_allclose(c[:2], [1.0, 2.0 / a1], rtol=1e-15)
        assert np.all(c[2:] == 0.0)

    @pytest.mark.parametrize("pr", [1e-3, 2.0 / 3.0, 1.0, 1e12, *RANDOM_PRANDTLS])
    def test_one_kramers_a1(self, pr):
        # the slip carrier's scale and the wall drive are one formula, 2 / a1,
        # bit for bit.  Its four roundings keep it within 2 ulp of the
        # correctly rounded value; the basis-norm reference rounds eight
        # times and lands up to 3 ulp from it (the worst over 2e5 log-uniform
        # Pr), so the two agree to 3 ulp, not to the bit
        row_scale = layer_profiles.layer_operator(8, pr).row_scale
        c1 = kramers_boundary_system(8, pr).c_vec[1]
        assert row_scale == c1
        with decimal.localcontext(decimal.Context(prec=40)):
            exact = float(2 / (2 * (4 + decimal.Decimal(pr)) / 5).sqrt())
        assert abs(row_scale - exact) <= 2 * math.ulp(exact)
        reference = 2.0 / verification._even_norm(8, pr, 1)
        assert abs(row_scale - reference) <= 3 * math.ulp(reference)


class TestWallOperator:
    @pytest.mark.parametrize("chi", [0.1, 0.5, 1.0])
    @pytest.mark.parametrize("order", [3, 9, 33, 99])
    def test_temperature_negative_definite(self, order, chi):
        eigen = decompose(build_temperature_system(order))
        wbs = temperature_boundary_system(order)
        np.linalg.cholesky(-wall_operator(wbs, eigen, chi))

    @pytest.mark.parametrize("chi", [0.1, 0.5, 1.0])
    @pytest.mark.parametrize("order", [4, 8, 48, 98])
    def test_kramers_negative_definite(self, order, chi):
        eigen = decompose(build_kramers_system(order, 1.0))
        wbs = kramers_boundary_system(order, 1.0)
        np.linalg.cholesky(-wall_operator(wbs, eigen, chi))


class TestSolveWall:
    @pytest.mark.parametrize("chi", [0.1, 0.5, 1.0])
    def test_order_three_closed_form(self, chi):
        system = build_temperature_system(3)
        eigen = decompose(system)
        wbs = temperature_boundary_system(3)
        theta0, v_plus = solve_wall(wbs, eigen, chi, 1.0, 0.0)
        t0 = reference_t0(chi)
        b = accommodation_factor(chi)
        # first wall row: -2 b theta(0) - b t0(0) = 1
        expected_theta0 = -(1.0 + b * t0) / (2.0 * b)
        assert theta0 == pytest.approx(expected_theta0, rel=1e-13)
        # the single decaying amplitude carries w_even(0) = sqrt(3) t0(0)
        w_even0 = float(eigen.even_vectors[0, 0] * v_plus[0])
        assert w_even0 == pytest.approx(math.sqrt(3.0) * t0, rel=1e-13)

    def test_flux_homogeneity(self):
        eigen = decompose(build_temperature_system(7))
        wbs = temperature_boundary_system(7)
        theta1, v1 = solve_wall(wbs, eigen, 0.5, 1.0, 0.0)
        theta2, v2 = solve_wall(wbs, eigen, 0.5, 2.0, 0.0)
        assert theta2 == pytest.approx(2.0 * theta1, rel=1e-12)
        np.testing.assert_allclose(v2, 2.0 * v1, rtol=1e-12)

    @given(flux=st.floats(-50.0, 50.0).filter(lambda x: abs(x) > 1e-3))
    @settings(max_examples=25, deadline=None)
    def test_flux_linearity_property(self, flux):
        eigen = decompose(build_temperature_system(5))
        wbs = temperature_boundary_system(5)
        base_theta, base_v = solve_wall(wbs, eigen, 0.9, 1.0, 0.0)
        theta, v = solve_wall(wbs, eigen, 0.9, flux, 0.0)
        assert theta == pytest.approx(flux * base_theta, rel=1e-12)
        np.testing.assert_allclose(v, flux * base_v, rtol=1e-11, atol=1e-13)

    def test_wall_value_shift(self):
        eigen = decompose(build_temperature_system(7))
        wbs = temperature_boundary_system(7)
        theta_a, v_a = solve_wall(wbs, eigen, 1.0, 1.0, 0.0)
        theta_b, v_b = solve_wall(wbs, eigen, 1.0, 1.0, 0.3)
        assert theta_b - 0.3 == pytest.approx(theta_a, rel=1e-13)
        np.testing.assert_allclose(v_a, v_b, rtol=1e-13)

    @pytest.mark.parametrize("order", [3, 5, 7])
    def test_wall_condition_residual(self, order):
        """Reconstructed moments satisfy the raw scaled boundary rows."""
        chi = 0.65
        system = build_temperature_system(order)
        eigen = decompose(system)
        wbs = temperature_boundary_system(order)
        theta0, v_plus = solve_wall(wbs, eigen, chi, 1.0, 0.0)
        w_even = eigen.even_vectors @ v_plus
        w_odd = odd_block(system, eigen) @ v_plus
        lhs = 1.0 * wbs.c_vec.copy()
        lhs[1:] += coupling_dense(system) @ w_odd
        rhs = accommodation_factor(chi) * (wbs.scaled_matrix @ np.concatenate(([theta0], w_even)))
        assert np.max(np.abs(lhs - rhs)) < 1e-10

    def test_wall_system_holds_no_chi(self):
        fields = [f.name for f in dataclasses.fields(WallBoundarySystem)]
        assert fields == ["order", "scaled_matrix", "c_vec"]

    def test_chi_zero_rejected(self):
        # chi = 1.5 lies outside (0, 1] too.  Reducing the flipped T would
        # raise StructuralSolveError, so the ValueError shows chi is checked first.
        wbs = temperature_boundary_system(3)
        flipped = wbs.__class__(order=3, scaled_matrix=-wbs.scaled_matrix, c_vec=wbs.c_vec)
        eigen = decompose(build_temperature_system(3))
        for chi in (0.0, 1.5):
            with pytest.raises(ValueError, match="accommodation"):
                solve_wall(flipped, eigen, chi, 1.0, 0.0)

    def test_structural_error_on_spoiled_operator(self):
        eigen = decompose(build_temperature_system(3))
        wbs = temperature_boundary_system(3)
        spoiled = wbs.__class__(
            order=wbs.order,
            scaled_matrix=-wbs.scaled_matrix,  # positive definite side
            c_vec=wbs.c_vec.copy(),
        )
        with pytest.raises(StructuralSolveError):
            solve_wall(spoiled, eigen, 1.0, 1.0, 0.0)

    def test_kramers_solve_runs(self):
        order, pr = 8, 2.0 / 3.0
        eigen = decompose(build_kramers_system(order, pr))
        wbs = kramers_boundary_system(order, pr)
        u0, v_plus = solve_wall(wbs, eigen, 0.8, 1.0, 0.0)
        assert math.isfinite(u0)
        assert v_plus.shape == (eigen.rates.size,)

    @pytest.mark.parametrize("order", [4, 6, 8])
    def test_kramers_wall_condition_residual(self, order):
        chi, pr = 0.65, 2.0 / 3.0
        system = build_kramers_system(order, pr)
        eigen = decompose(system)
        wbs = kramers_boundary_system(order, pr)
        u1_0, v_plus = solve_wall(wbs, eigen, chi, 1.0, 0.0)
        w_even = eigen.even_vectors @ v_plus
        w_odd = odd_block(system, eigen) @ v_plus
        lhs = wbs.c_vec.copy()
        lhs[1:] += coupling_dense(system) @ w_odd
        rhs = accommodation_factor(chi) * (wbs.scaled_matrix @ np.concatenate(([u1_0], w_even)))
        assert np.max(np.abs(lhs - rhs)) < 1e-10


class TestPencilSolve:
    """The pencil solve against a per-chi Cholesky solve of the same operator."""

    CHIS = (1e-3, 0.1, 0.5, 1.0)

    @classmethod
    def assert_matches_cholesky(cls, wbs, eigen):
        for chi in cls.CHIS:
            u0, v_plus = solve_wall(wbs, eigen, chi, 1.3, 0.2)
            ref_u0, ref_v = cholesky_wall_solve(wbs, eigen, chi, 1.3, 0.2)
            assert u0 == pytest.approx(ref_u0, rel=1e-12)
            assert np.linalg.norm(v_plus - ref_v) <= 1e-11 * np.linalg.norm(ref_v)

    @pytest.mark.parametrize("order", [3, 5, 7, 9, 13, 33, 99, 129, 513])
    def test_temperature_matches_cholesky(self, order):
        self.assert_matches_cholesky(temperature_boundary_system(order), temperature_eigen(order))

    @pytest.mark.parametrize("order", [4, 6, 8, 48, 98, 128, 512])
    def test_kramers_matches_cholesky(self, order):
        pr = 2.0 / 3.0
        self.assert_matches_cholesky(kramers_boundary_system(order, pr), kramers_eigen(order, pr))

    def test_chis_share_one_operator(self):
        assert not temperature_boundary_system(9).scaled_matrix.flags.writeable
        a = layer_profiles.temperature_solution(9, 0.3)
        b = layer_profiles.temperature_solution(9, 0.7)
        assert a.decay_rates is b.decay_rates
        c = layer_profiles.velocity_solution(8, 0.3, pr=0.7)
        d = layer_profiles.velocity_solution(8, 0.9, pr=0.7)
        assert c.decay_rates is d.decay_rates
        assert layer_profiles.velocity_solution(8, 0.3, pr=0.8).decay_rates is not c.decay_rates
        op = layer_profiles.layer_operator(8, 0.7)
        assert op is layer_profiles.layer_operator(8, 0.7)
        assert op.rates is c.decay_rates

    def test_pencil_not_shared_across_systems(self):
        eigen = temperature_eigen(7)
        wbs = temperature_boundary_system(7)
        u0, v_plus = solve_wall(wbs, eigen, 0.5, 1.0, 0.0)
        doubled = wbs.__class__(order=wbs.order, scaled_matrix=wbs.scaled_matrix, c_vec=2.0 * wbs.c_vec)
        u0_doubled, v_doubled = solve_wall(doubled, eigen, 0.5, 1.0, 0.0)
        assert u0_doubled == pytest.approx(2.0 * u0, rel=1e-13)
        np.testing.assert_allclose(v_doubled, 2.0 * v_plus, rtol=1e-12)
        copied = wbs.__class__(order=wbs.order, scaled_matrix=1.5 * wbs.scaled_matrix, c_vec=wbs.c_vec)
        u0_scaled, v_scaled = solve_wall(copied, eigen, 0.5, 1.0, 0.0)
        ref_u0, ref_v = cholesky_wall_solve(copied, eigen, 0.5, 1.0, 0.0)
        assert u0_scaled == pytest.approx(ref_u0, rel=1e-12)
        assert u0_scaled != pytest.approx(u0, rel=1e-6)

    def test_sweep_runs_one_gram_and_one_tridiagonal_eigh(self, capsys, monkeypatch):
        # The Gram eigh of decompose, of size m_even, then the eigh of the
        # Lanczos tridiagonal T_k, of size k < m_even; no dense wall eigh.
        layer_profiles.layer_operator.cache_clear()
        calls = []
        true_eigh = np.linalg.eigh

        def counting_eigh(a, *args, **kwargs):
            calls.append(np.array(a))
            return true_eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        assert main(["sweep-chi", "-M", "65", "--samples", "50"]) == 0
        rows = [line for line in capsys.readouterr().out.splitlines() if not line.startswith("#")]
        assert len(rows) == 50
        k = layer_profiles.layer_operator(65).wall.inv_mu.size
        assert k < 63
        assert [a.shape for a in calls] == [(63, 63), (k, k)]
        b = coupling_dense(build_temperature_system(65))
        np.testing.assert_allclose(calls[0], b @ b.T, rtol=0.0, atol=1e-13)
        t = calls[1]
        assert not np.triu(t, 2).any() and np.all(np.diag(t, 1) > 0.0)  # tridiagonal
        np.testing.assert_array_equal(t, t.T)

    @pytest.mark.parametrize("order, size", [(65, 63), (64, 31)])
    def test_sweep_makes_no_per_chi_solve(self, capsys, monkeypatch, order, size):
        layer_profiles.layer_operator.cache_clear()
        calls = []

        def counting(name, fn):
            def counted(*args, **kwargs):
                calls.append((name, np.shape(args[0])) if name == "eigh" else name)
                return fn(*args, **kwargs)

            return counted

        for module in (boundary_solver, layer_profiles, cli):
            for name in ("solve_wall", "temperature_solution", "velocity_solution"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
        monkeypatch.setattr(np.linalg, "eigh", counting("eigh", np.linalg.eigh))
        assert main(["sweep-chi", "-M", str(order), "--samples", "50"]) == 0
        rows = [line for line in capsys.readouterr().out.splitlines() if not line.startswith("#")]
        assert len(rows) == 50
        k = layer_profiles.layer_operator(order).wall.inv_mu.size
        assert k < size
        assert calls == [("eigh", (size, size)), ("eigh", (k, k))]

    def test_structural_error_on_negative_pencil(self):
        eigen = temperature_eigen(7)
        wbs = temperature_boundary_system(7)
        negated = ParityEigen(rates=-100.0 * eigen.rates, even_vectors=eigen.even_vectors.copy())
        with pytest.raises(StructuralSolveError):
            solve_wall(wbs, negated, 0.5, 1.0, 0.0)

    @pytest.mark.parametrize("flipped", ["pivot", "block"])
    def test_structural_error_on_indefinite_scaled_matrix(self, flipped):
        # Each flip leaves the rates positive and makes -T indefinite, so the
        # one factorization of -T covers both; the pivot flip already fails
        # the pivot guard, before Lanczos divides by it.
        eigen = temperature_eigen(7)
        wbs = temperature_boundary_system(7)
        indefinite = wbs.scaled_matrix.copy()
        if flipped == "pivot":
            indefinite[0, 0] *= -1.0
        else:
            indefinite[1:, 1:] *= -1.0
        spoiled = wbs.__class__(order=wbs.order, scaled_matrix=indefinite, c_vec=wbs.c_vec)
        with pytest.raises(StructuralSolveError):
            solve_wall(spoiled, eigen, 0.5, 1.0, 0.0)

    @pytest.mark.parametrize("chi", [[0.5], [0.5, 0.6], np.array([0.5]), 0.5 + 0.0j])
    def test_chi_must_be_one_real_number(self, chi):
        wbs = temperature_boundary_system(7)
        with pytest.raises(ValueError, match="chi must be one real number"):
            solve_wall(wbs, temperature_eigen(7), chi, 1.0, 0.0)

    def test_zero_d_chi_is_one_number(self):
        wbs, eigen = temperature_boundary_system(7), temperature_eigen(7)
        u0, v_plus = solve_wall(wbs, eigen, np.array(0.5), 1.0, 0.0)
        ref_u0, ref_v = solve_wall(wbs, eigen, 0.5, 1.0, 0.0)
        assert u0 == ref_u0
        np.testing.assert_array_equal(v_plus, ref_v)

    def test_mismatched_eigen_rejected(self):
        wbs = temperature_boundary_system(7)
        with pytest.raises(ValueError):
            solve_wall(wbs, temperature_eigen(9), 0.5, 1.0, 0.0)

    @pytest.mark.parametrize(
        "order, flux, wall_value, match",
        [
            (9, 0.0, 0.0, "heat flux must be finite, nonzero and normal"),
            (9, 5e-324, 0.0, "heat flux must be finite, nonzero and normal"),
            (9, math.inf, 0.0, "heat flux must be finite, nonzero and normal"),
            (9, True, 0.0, "heat flux must be one real number"),
            (9, np.array([1.0, 2.0]), 0.0, "heat flux must be one real number"),
            (9, 1.0, [0.5], "wall value must be one real number"),
            (9, 1.0, math.nan, "wall value must be finite"),
            (8, 0.0, 0.0, "shear stress must be finite, nonzero and normal"),
            (8, 1.0 + 0.0j, 0.0, "shear stress must be one real number"),
        ],
    )
    def test_drive_checked_before_any_reduction(self, monkeypatch, order, flux, wall_value, match):
        def no_reduction(*args):
            raise AssertionError("the wall system was reduced before the drive was checked")

        monkeypatch.setattr(boundary_solver, "_wall_lanczos", no_reduction)
        wbs = wall_system(order, 0.7)
        eigen = temperature_eigen(order) if order % 2 else kramers_eigen(order, 0.7)
        with pytest.raises(ValueError, match=match):
            solve_wall(wbs, eigen, 0.5, flux, wall_value)

    def test_drive_read_as_floats(self):
        wbs, eigen = temperature_boundary_system(9), temperature_eigen(9)
        u0, v_plus = solve_wall(wbs, eigen, 0.5, np.array(2), np.float32(0.5))
        ref_u0, ref_v = solve_wall(wbs, eigen, 0.5, 2.0, 0.5)
        assert type(u0) is float and u0 == ref_u0
        np.testing.assert_array_equal(v_plus, ref_v)


def krylov_reduction(system, eigen):
    """The wall reduction by the solver's two steps."""
    lanczos = boundary_solver._wall_lanczos(system, eigen.rates, eigen.even_vectors)
    return boundary_solver.WallReduction.from_lanczos(-system.scaled_matrix, *lanczos)


def formed_wall_matrix(system, eigen):
    """(A, h, q, n00, lead, scale) with A = -F^T T11 F - q q^T / n00 formed
    whole, F = E sqrt(2) L^-1/2: the reference for the matrix-free Lanczos
    products, kept here only."""
    t, c = system.scaled_matrix, system.c_vec
    n00 = -t[0, 0]
    scale = math.sqrt(2.0) / np.sqrt(eigen.rates)
    f = eigen.even_vectors * scale
    q = -(f.T @ t[1:, 0])
    lead = c[0] / n00
    h = f.T @ c[1:] - lead * q
    return -(f.T @ t[1:, 1:] @ f) - np.outer(q, q) / n00, h, q, n00, lead, scale


def dense_reduction(system, eigen):
    """The wall reduction from a dense eigh of the formed A = Z diag(mu) Z^T
    over all of R^m_even: the reference for the matrix-free Krylov
    reduction."""
    a, h, q, n00, lead, scale = formed_wall_matrix(system, eigen)
    mu, z = np.linalg.eigh(a)
    assert mu[0] > 0.0
    return boundary_solver.WallReduction(
        inv_mu=1.0 / mu, g=(z.T @ h) / mu, lead=lead, w0=(z.T @ q) / n00, modes=z * scale[:, None],
    )


def reduction_curve(order, pr, reduction, even_vectors):
    """(unscaled coefficient curve, carrier row) of one reduction, by the
    layer operator's formula."""
    if order % 2:
        row = 0.8 * (layer_profiles.DEFECT_WEIGHTS[:min(3, even_vectors.shape[1])] @ even_vectors[:3, :])
    else:
        row = 2.0 / verification._even_norm(order, pr, 1) * even_vectors[0, :]
    weights = (row @ reduction.modes - reduction.w0) * reduction.g
    curve = layer_profiles.CoefficientCurve(order, 1.0, reduction.lead, -reduction.inv_mu, weights)
    return curve, row


def spoiled_pair(system):
    """The system with T[i, i+1] = T[i+1, i] = 1.01 sqrt(T[i, i] T[i+1, i+1])
    at i = size / 2, which makes the 2 x 2 block of -T on rows i, i+1
    indefinite."""
    t = system.scaled_matrix.copy()
    i = t.shape[0] // 2
    t[i, i + 1] = t[i + 1, i] = 1.01 * math.sqrt(t[i, i] * t[i + 1, i + 1])
    return WallBoundarySystem(system.order, t, system.c_vec)


def order_eigen(order, pr):
    return temperature_eigen(order) if order % 2 else kramers_eigen(order, pr)


class TestMatrixFreeWallStep:
    """The two steps of the wall reduction against A formed whole: Lanczos
    reads A only through products, and the structural check factors -T."""

    @pytest.mark.parametrize("order, pr", [(33, 1.0), (34, 0.7), (35, 1.0), (1025, 1.0)])
    def test_lanczos_matches_the_formed_formula(self, order, pr):
        # h and q against the dense formula, the basis orthonormal, and
        # T_k = Q A Q^T with the formed A; measured worst 1.4e-14 (h, 1025)
        system, eigen = wall_system(order, pr), order_eigen(order, pr)
        tridiagonal, basis, h, q, n00, lead, scale = boundary_solver._wall_lanczos(
            system, eigen.rates, eigen.even_vectors)
        ref_a, ref_h, ref_q, ref_n00, ref_lead, ref_scale = formed_wall_matrix(system, eigen)
        assert (n00, lead) == (ref_n00, ref_lead)
        np.testing.assert_allclose(scale, ref_scale, rtol=1e-15)
        for got, ref in ((q, ref_q), (h, ref_h), (tridiagonal, basis @ ref_a @ basis.T)):
            assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))
        assert np.max(np.abs(basis @ basis.T - np.eye(basis.shape[0]))) <= 1e-14

    @pytest.mark.parametrize("order, pr", [(1025, 1.0), (1024, 0.7), (513, 1.0), (512, 0.7)])
    def test_lanczos_allocates_no_square_array(self, order, pr):
        # beside the caller's E and T: the Lanczos basis, 64 rows or the
        # doubling past k, and vectors; measured 0.15-0.32 m_even^2, the most
        # at m_even = 255 where 64 rows are a quarter.  A formed A alone is 1
        system, eigen = wall_system(order, pr), order_eigen(order, pr)
        square = 8.0 * eigen.rates.size ** 2
        tracemalloc.start()
        try:
            boundary_solver._wall_lanczos(system, eigen.rates, eigen.even_vectors)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * square, f"peak {peak / square:.2f} m_even^2"

    @pytest.mark.parametrize("order, pr", [(1025, 1.0), (1024, 0.7), (513, 1.0), (512, 0.7)])
    def test_check_holds_only_the_factor_of_n(self, order, pr):
        # beside N: its Cholesky factor and k-sized arrays; measured 1.000-1.002
        # (m_even + 1)^2.  A copy of N or of T next to the factor would be 2
        system, eigen = wall_system(order, pr), order_eigen(order, pr)
        lanczos = boundary_solver._wall_lanczos(system, eigen.rates, eigen.even_vectors)
        n = -system.scaled_matrix
        square = 8.0 * n.shape[0] ** 2
        tracemalloc.start()
        try:
            boundary_solver.WallReduction.from_lanczos(n, *lanczos)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.05 * square, f"peak {peak / square:.3f} (m_even + 1)^2"

    @pytest.mark.parametrize("order, pr", [(13, 1.0), (34, 0.7), (129, 1.0), (256, 1e12)])
    def test_check_of_minus_t_agrees_with_the_formed_a(self, order, pr):
        # A is congruent to the Schur complement of N = -T at its pivot, so
        # with a positive pivot and rates the Cholesky factorization of -T
        # succeeds exactly when one of the formed A does: on the intact
        # system both do, and with an indefinite pair of T both fail, as
        # does the wall step
        eigen = order_eigen(order, pr)
        for system, definite in ((wall_system(order, pr), True), (spoiled_pair(wall_system(order, pr)), False)):
            for matrix in (-system.scaled_matrix, formed_wall_matrix(system, eigen)[0]):
                try:
                    np.linalg.cholesky(matrix)
                    factored = True
                except np.linalg.LinAlgError:
                    factored = False
                assert factored == definite
            if not definite:
                with pytest.raises(StructuralSolveError, match="not negative definite"):
                    krylov_reduction(system, eigen)


class TestKrylovReduction:
    """The wall reduction on the Krylov space of the drive h against the dense
    eigh of the reduced wall matrix A that it replaced."""

    CHIS = np.linspace(0.0025, 1.0, 400)

    @pytest.mark.parametrize("pr", [None, 1e-3, 2.0 / 3.0, 1.0, 1e6, 1e12])
    def test_matches_dense_eigh_reduction(self, pr):
        # every odd order 3-257 (pr None) or every even order 4-256 at one Pr:
        # 128 + 5 x 127 = 763 systems over the six cases
        worst_curve = worst_amplitude = worst_wall = 0.0
        orders = range(3, 258, 2) if pr is None else range(4, 257, 2)
        for order in orders:
            system = build_temperature_system(order) if pr is None else build_kramers_system(order, pr)
            eigen = decompose(system)
            wbs = wall_system(order, pr or 1.0)
            krylov, dense = krylov_reduction(wbs, eigen), dense_reduction(wbs, eigen)
            assert krylov.modes.shape[1] == krylov.inv_mu.size <= eigen.rates.size
            curve, row = reduction_curve(order, pr, krylov, eigen.even_vectors)
            ref_curve, _ = reduction_curve(order, pr, dense, eigen.even_vectors)
            ref = ref_curve(self.CHIS)
            worst_curve = max(worst_curve, float(np.max(np.abs(curve(self.CHIS) - ref) / np.abs(ref))))
            for chi in (1e-3, 0.1, 0.5, 1.0):
                b = accommodation_factor(chi)
                u0, v_plus = krylov.solve(order, chi, b, 1.0, 0.0)
                ref_u0, ref_v = dense.solve(order, chi, b, 1.0, 0.0)
                worst_wall = max(worst_wall, abs(u0 - ref_u0) / abs(ref_u0))
                for got, expected in ((v_plus, ref_v), (row * v_plus, row * ref_v)):
                    gap = np.max(np.abs(got - expected)) / np.max(np.abs(expected))
                    worst_amplitude = max(worst_amplitude, float(gap))
        # measured worst: curve 7.2e-16, amplitudes 8.3e-14 (order 236, Pr 1e12), wall value 1.8e-15
        assert worst_curve <= 1e-14
        assert worst_amplitude <= 1e-12
        assert worst_wall <= 1e-14

    @pytest.mark.parametrize("order, bound", [(129, 60), (512, 40), (1025, 90), (2049, 100)])
    def test_krylov_dimension(self, order, bound):
        # measured k = 46, 31, 69 and 77 against m_even = 127, 255, 1023 and 2047
        pr = 1.0 if order % 2 else 0.7
        system = build_temperature_system(order) if order % 2 else build_kramers_system(order, pr)
        eigen = decompose(system)
        reduction = krylov_reduction(wall_system(order, pr), eigen)
        k = reduction.inv_mu.size
        assert k <= bound
        assert reduction.modes.shape == (system.m_even, k)
        assert np.all(reduction.inv_mu > 0.0)

    def test_negative_eigenvalue_outside_the_krylov_space_raises(self):
        # T' = T + 3 u u^T on T11 with u = 2 E L^1/2 v / sqrt(2) turns A into
        # A' = A - 3 v v^T; v is a unit vector orthogonal to the Krylov space
        # of h, so A' acts on that space as A does; -T' is indefinite, and its
        # Cholesky check fails whether or not rounding lets Lanczos find the
        # negative eigenvalue (at this order it does, from a 1e-16 component)
        wbs, eigen = temperature_boundary_system(65), temperature_eigen(65)
        _, basis, *_, scale = boundary_solver._wall_lanczos(wbs, eigen.rates, eigen.even_vectors)
        v = np.eye(basis.shape[1])[:, -1]
        for _ in range(2):
            v -= basis.T @ (basis @ v)
        v /= np.linalg.norm(v)
        assert np.max(np.abs(basis @ v)) < 1e-15
        u = 2.0 * eigen.even_vectors @ (v / scale)
        t = wbs.scaled_matrix.copy()
        t[1:, 1:] += 3.0 * np.outer(u, u)
        spoiled = WallBoundarySystem(wbs.order, t, wbs.c_vec)
        assert np.linalg.eigvalsh(-t)[0] < 0.0
        with pytest.raises(StructuralSolveError, match="not negative definite"):
            solve_wall(spoiled, eigen, 0.5, 1.0, 0.0)

    def test_negative_eigenvalue_of_a_diagonal_matrix_raises(self):
        # with E = I / sqrt(2), unit rates and T[1:, 0] = 0, A = -T11 =
        # diag(2, 3, 4, -1) and h = c[1:] has no component on the one negative
        # eigenvector, so in exact zeros Lanczos never sees it: only the
        # check of -T does
        wbs = WallBoundarySystem(10, -np.diag([1.0, 2.0, 3.0, 4.0, -1.0]), np.array([1.0, 1.0, 1.0, 1.0, 0.0]))
        eigen = ParityEigen(rates=np.ones(4), even_vectors=np.eye(4) / math.sqrt(2.0))
        tridiagonal, *_ = boundary_solver._wall_lanczos(wbs, eigen.rates, eigen.even_vectors)
        np.testing.assert_allclose(np.linalg.eigvalsh(tridiagonal), [2.0, 3.0, 4.0], rtol=1e-14)
        with pytest.raises(StructuralSolveError, match="not negative definite"):
            solve_wall(wbs, eigen, 0.5, 1.0, 0.0)

    @pytest.mark.parametrize("order, pr", [(1025, 1.0), (1024, 1e12)])
    def test_indefinite_pair_past_index_99_fails_build_and_solve(self, order, pr, monkeypatch):
        # the indefinite pair sits at i = size / 2; verify reads no entry that
        # far out, so the -T check of the wall step is what must catch it
        spoiled = spoiled_pair(wall_system(order, pr))
        monkeypatch.setattr(layer_profiles, "wall_system", lambda *args: spoiled)
        layer_profiles.layer_operator.cache_clear()
        with pytest.raises(StructuralSolveError, match="not negative definite"):
            layer_profiles.layer_operator(order, pr)
        eigen = decompose(build_temperature_system(order) if order % 2 else build_kramers_system(order, pr))
        with pytest.raises(StructuralSolveError, match="not negative definite"):
            solve_wall(spoiled, eigen, 0.5, 1.0, 0.0)
