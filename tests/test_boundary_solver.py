"""Wall boundary assembly and solve against the worked low-order case."""

import functools
import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from knlayer.boundary_solver import (
    StructuralSolveError,
    accommodation_factor,
    assemble_kramers_T,
    assemble_temperature_T,
    kramers_boundary_system,
    kramers_c_vector,
    solve_wall,
    temperature_boundary_system,
    temperature_c_vector,
    wall_operator,
)
from knlayer import boundary_solver, cli, layer_profiles
from knlayer.cli import main
from knlayer.parity_spectral import ParityEigen, decompose
from knlayer.special_functions import SQRT_2PI, HalfSpaceTable
from knlayer.system_builder import SystemKind, build_kramers_system, build_temperature_system
from knlayer.verification import assemble_kramers_Sk, assemble_T, assemble_temperature_Tb


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


def cholesky_wall_solve(wbs, eigen, flux, wall_value):
    """Reference wall solve: a Cholesky factorization of -K(chi) per chi."""
    factor = scipy.linalg.cho_factor(-wall_operator(wbs, eigen), lower=True)
    u = scipy.linalg.cho_solve(factor, -flux * wbs.c_vec)
    return float(u[0]) + wall_value, 2.0 * eigen.even_vectors.T @ u[1:]


@functools.lru_cache(maxsize=None)
def temperature_eigen(order):
    return decompose(build_temperature_system(order))


@functools.lru_cache(maxsize=None)
def kramers_eigen(order, pr):
    return decompose(build_kramers_system(order, pr))


@pytest.fixture(scope="module")
def table99():
    return HalfSpaceTable(101)


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


class TestTemperatureAssembly:
    def test_order_three_raw_matrix(self):
        table = HalfSpaceTable(5)
        tb = assemble_temperature_Tb(3, table)
        np.testing.assert_allclose(tb, [[-4.0, 0.0], [0.0, -1.0]], atol=1e-14)

    def test_order_three_mixed_block(self):
        # the P-recombined raw system carries the classic 2x2 pattern
        table = HalfSpaceTable(5)
        tb = assemble_temperature_Tb(3, table)
        p1 = np.array([[0.5, 1.0], [1.0, -1.0]])
        np.testing.assert_allclose(p1 @ tb @ p1, [[-2.0, -1.0], [-1.0, -5.0]], atol=1e-14)

    def test_scaled_matrix_via_sandwich(self):
        table = HalfSpaceTable(5)
        tb = assemble_temperature_Tb(3, table)
        scales = np.array([math.sqrt(3.0)])
        t = assemble_T(tb, scales)
        expected = np.array(
            [[-2.0, -1.0 / math.sqrt(3.0)], [-1.0 / math.sqrt(3.0), -5.0 / 3.0]]
        )
        np.testing.assert_allclose(t, expected, atol=1e-14)
        np.testing.assert_allclose(assemble_temperature_T(3, table), expected, atol=1e-14)

    @pytest.mark.parametrize("order", [5, 9, 21, 63, 99])
    def test_normalized_path_matches_raw_sandwich(self, order, table99):
        system = build_temperature_system(order)
        tb = assemble_temperature_Tb(order, table99)
        scales = np.array([system.even_scale(i) for i in range(1, system.m_even + 1)])
        direct = assemble_T(tb, scales)
        safe = assemble_temperature_T(order, table99)
        np.testing.assert_allclose(safe, direct, rtol=1e-11, atol=1e-13)

    def test_sliced_assembly_matches_loop(self, table1025):
        for order in [*range(3, 100, 2), 129, 513, 1025]:
            assert np.array_equal(
                assemble_temperature_T(order, table1025), looped_temperature_T(order, table1025)
            ), order

    def test_symmetry(self, table99):
        for order in (3, 7, 33, 99):
            tb = assemble_temperature_Tb(order, table99)
            np.testing.assert_array_equal(tb, tb.T)
            t = assemble_temperature_T(order, table99)
            np.testing.assert_allclose(t, t.T, atol=1e-15)

    def test_negative_definite_by_sampling(self, table99):
        rng = np.random.default_rng(7)
        tb = assemble_temperature_Tb(7, table99)
        for _ in range(100):
            x = rng.standard_normal(tb.shape[0])
            assert x @ tb @ x < 0.0

    def test_negative_definite_by_factorization(self, table99):
        for order in range(3, 100, 2):
            t = assemble_temperature_T(order, table99)
            np.linalg.cholesky(-t)
            tb = assemble_temperature_Tb(order, table99)
            np.linalg.cholesky(-tb)


class TestKramersAssembly:
    def test_leading_entry(self):
        table = HalfSpaceTable(6)
        sk = assemble_kramers_Sk(4, table)
        assert sk[0, 0] == -1.0
        np.testing.assert_allclose(sk, [[-1.0, -1.0], [-1.0, -5.0]], atol=1e-14)

    def test_scaled_form(self):
        table = HalfSpaceTable(6)
        pr = 1.0
        a1 = math.sqrt(2.0 * (4.0 + pr) / 5.0)
        expected = np.array([[-1.0, -1.0 / a1], [-1.0 / a1, -5.0 / a1**2]])
        np.testing.assert_allclose(assemble_kramers_T(4, table, pr), expected, atol=1e-14)

    def test_sliced_assembly_matches_fancy_index(self, table1025):
        for order in [*range(4, 99, 2), 128, 512, 1024]:
            size = order // 2
            idx = np.arange(size)  # S(2i, 2j) sits at [i, j] of the even block
            w = np.ones(size)
            w[1] = math.sqrt(5.0 / (4.0 + 2.0 / 3.0))
            expected = table1025.s_normalized[np.ix_(idx, idx)] * np.outer(w, w)
            assert np.array_equal(assemble_kramers_T(order, table1025, 2.0 / 3.0), expected), order

    def test_negative_definite(self, table99):
        for order in range(4, 99, 2):
            sk = assemble_kramers_Sk(order, table99)
            np.testing.assert_array_equal(sk, sk.T)
            np.linalg.cholesky(-sk)
            np.linalg.cholesky(-assemble_kramers_T(order, table99, 2.0 / 3.0))


class TestCVectors:
    def test_temperature_leading_entries(self):
        c = temperature_c_vector(9)
        expected = [1.0, 4.0 / (5.0 * math.sqrt(3.0)), 2.0 * math.sqrt(6.0) / 5.0,
                    2.0 * math.sqrt(2.0) / 5.0]
        np.testing.assert_allclose(c[:4], expected, rtol=1e-15)
        assert np.all(c[4:] == 0.0)

    def test_temperature_truncated_at_order_three(self):
        np.testing.assert_allclose(
            temperature_c_vector(3), [1.0, 4.0 / (5.0 * math.sqrt(3.0))], rtol=1e-15
        )

    def test_kramers_vector(self):
        pr = 2.0 / 3.0
        c = kramers_c_vector(8, pr)
        a1 = math.sqrt(2.0 * (4.0 + pr) / 5.0)
        np.testing.assert_allclose(c[:2], [1.0, 2.0 / a1], rtol=1e-15)
        assert np.all(c[2:] == 0.0)


class TestWallOperator:
    @pytest.mark.parametrize("chi", [0.1, 0.5, 1.0])
    @pytest.mark.parametrize("order", [3, 9, 33, 99])
    def test_temperature_negative_definite(self, order, chi, table99):
        eigen = decompose(build_temperature_system(order))
        wbs = temperature_boundary_system(order, chi, table99)
        np.linalg.cholesky(-wall_operator(wbs, eigen))

    @pytest.mark.parametrize("chi", [0.1, 0.5, 1.0])
    @pytest.mark.parametrize("order", [4, 8, 48, 98])
    def test_kramers_negative_definite(self, order, chi, table99):
        eigen = decompose(build_kramers_system(order, 1.0))
        wbs = kramers_boundary_system(order, chi, 1.0, table99)
        np.linalg.cholesky(-wall_operator(wbs, eigen))


class TestSolveWall:
    @pytest.mark.parametrize("chi", [0.1, 0.5, 1.0])
    def test_order_three_closed_form(self, chi):
        table = HalfSpaceTable(5)
        system = build_temperature_system(3)
        eigen = decompose(system)
        wbs = temperature_boundary_system(3, chi, table)
        theta0, v_plus = solve_wall(wbs, eigen, 1.0, 0.0)
        t0 = reference_t0(chi)
        b = accommodation_factor(chi)
        # first wall row: -2 b theta(0) - b t0(0) = 1
        expected_theta0 = -(1.0 + b * t0) / (2.0 * b)
        assert theta0 == pytest.approx(expected_theta0, rel=1e-13)
        # the single decaying amplitude carries w_even(0) = sqrt(3) t0(0)
        w_even0 = float(eigen.even_vectors[0, 0] * v_plus[0])
        assert w_even0 == pytest.approx(math.sqrt(3.0) * t0, rel=1e-13)

    def test_flux_homogeneity(self):
        table = HalfSpaceTable(9)
        eigen = decompose(build_temperature_system(7))
        wbs = temperature_boundary_system(7, 0.5, table)
        theta1, v1 = solve_wall(wbs, eigen, 1.0, 0.0)
        theta2, v2 = solve_wall(wbs, eigen, 2.0, 0.0)
        assert theta2 == pytest.approx(2.0 * theta1, rel=1e-12)
        np.testing.assert_allclose(v2, 2.0 * v1, rtol=1e-12)

    @given(flux=st.floats(-50.0, 50.0).filter(lambda x: abs(x) > 1e-3))
    @settings(max_examples=25, deadline=None)
    def test_flux_linearity_property(self, flux):
        table = HalfSpaceTable(7)
        eigen = decompose(build_temperature_system(5))
        wbs = temperature_boundary_system(5, 0.9, table)
        base_theta, base_v = solve_wall(wbs, eigen, 1.0, 0.0)
        theta, v = solve_wall(wbs, eigen, flux, 0.0)
        assert theta == pytest.approx(flux * base_theta, rel=1e-12)
        np.testing.assert_allclose(v, flux * base_v, rtol=1e-11, atol=1e-13)

    def test_wall_value_shift(self):
        table = HalfSpaceTable(9)
        eigen = decompose(build_temperature_system(7))
        wbs = temperature_boundary_system(7, 1.0, table)
        theta_a, v_a = solve_wall(wbs, eigen, 1.0, 0.0)
        theta_b, v_b = solve_wall(wbs, eigen, 1.0, 0.3)
        assert theta_b - 0.3 == pytest.approx(theta_a, rel=1e-13)
        np.testing.assert_allclose(v_a, v_b, rtol=1e-13)

    @pytest.mark.parametrize("order", [3, 5, 7])
    def test_wall_condition_residual(self, order, table99):
        """Reconstructed moments satisfy the raw scaled boundary rows."""
        chi = 0.65
        system = build_temperature_system(order)
        eigen = decompose(system)
        wbs = temperature_boundary_system(order, chi, table99)
        theta0, v_plus = solve_wall(wbs, eigen, 1.0, 0.0)
        w_even = eigen.even_vectors @ v_plus
        w_odd = eigen.odd_vectors @ v_plus
        lhs = 1.0 * wbs.c_vec.copy()
        lhs[1:] += system.coupling_dense() @ w_odd
        rhs = wbs.b_chi * (wbs.scaled_matrix @ np.concatenate(([theta0], w_even)))
        assert np.max(np.abs(lhs - rhs)) < 1e-10

    def test_chi_zero_rejected(self):
        table = HalfSpaceTable(5)
        with pytest.raises(ValueError):
            temperature_boundary_system(3, 0.0, table)

    def test_structural_error_on_spoiled_operator(self):
        table = HalfSpaceTable(5)
        eigen = decompose(build_temperature_system(3))
        wbs = temperature_boundary_system(3, 1.0, table)
        spoiled = wbs.__class__(
            kind=wbs.kind,
            order=wbs.order,
            chi=wbs.chi,
            b_chi=wbs.b_chi,
            scaled_matrix=-wbs.scaled_matrix,  # positive definite side
            c_vec=wbs.c_vec.copy(),
        )
        with pytest.raises(StructuralSolveError):
            solve_wall(spoiled, eigen, 1.0, 0.0)

    def test_kramers_solve_runs(self, table99):
        order, pr = 8, 2.0 / 3.0
        eigen = decompose(build_kramers_system(order, pr))
        wbs = kramers_boundary_system(order, 0.8, pr, table99)
        u0, v_plus = solve_wall(wbs, eigen, 1.0, 0.0)
        assert math.isfinite(u0)
        assert v_plus.shape == (eigen.m_odd,)

    @pytest.mark.parametrize("order", [4, 6, 8])
    def test_kramers_wall_condition_residual(self, order, table99):
        chi, pr = 0.65, 2.0 / 3.0
        system = build_kramers_system(order, pr)
        eigen = decompose(system)
        wbs = kramers_boundary_system(order, chi, pr, table99)
        u1_0, v_plus = solve_wall(wbs, eigen, 1.0, 0.0)
        w_even = eigen.even_vectors @ v_plus
        w_odd = eigen.odd_vectors @ v_plus
        lhs = wbs.c_vec.copy()
        lhs[1:] += system.coupling_dense() @ w_odd
        rhs = wbs.b_chi * (wbs.scaled_matrix @ np.concatenate(([u1_0], w_even)))
        assert np.max(np.abs(lhs - rhs)) < 1e-10


class TestPencilSolve:
    """The pencil solve against a per-chi Cholesky solve of the same operator."""

    CHIS = (1e-3, 0.1, 0.5, 1.0)

    @staticmethod
    def assert_matches_cholesky(wbs, eigen):
        u0, v_plus = solve_wall(wbs, eigen, 1.3, 0.2)
        ref_u0, ref_v = cholesky_wall_solve(wbs, eigen, 1.3, 0.2)
        assert u0 == pytest.approx(ref_u0, rel=1e-12)
        assert np.linalg.norm(v_plus - ref_v) <= 1e-11 * np.linalg.norm(ref_v)

    @pytest.mark.parametrize("order", [3, 5, 7, 9, 13, 33, 99, 129, 513])
    def test_temperature_matches_cholesky(self, order, table1025):
        eigen = temperature_eigen(order)
        for chi in self.CHIS:
            self.assert_matches_cholesky(temperature_boundary_system(order, chi, table1025), eigen)

    @pytest.mark.parametrize("order", [4, 6, 8, 48, 98, 128, 512])
    def test_kramers_matches_cholesky(self, order, table1025):
        pr = 2.0 / 3.0
        eigen = kramers_eigen(order, pr)
        for chi in self.CHIS:
            self.assert_matches_cholesky(kramers_boundary_system(order, chi, pr, table1025), eigen)

    def test_chis_share_one_operator(self, table99):
        assert not temperature_boundary_system(9, 0.3, table99).scaled_matrix.flags.writeable
        a = layer_profiles.temperature_solution(9, 0.3)
        b = layer_profiles.temperature_solution(9, 0.7)
        assert a.decay_rates is b.decay_rates
        c = layer_profiles.velocity_solution(8, 0.3, pr=0.7)
        d = layer_profiles.velocity_solution(8, 0.9, pr=0.7)
        assert c.decay_rates is d.decay_rates
        assert layer_profiles.velocity_solution(8, 0.3, pr=0.8).decay_rates is not c.decay_rates
        op = layer_profiles.layer_operator(SystemKind.KRAMERS, 8, 0.7)
        assert op is layer_profiles.layer_operator(SystemKind.KRAMERS, 8, 0.7)
        assert op.rates is c.decay_rates

    def test_pencil_not_shared_across_systems(self, table99):
        eigen = temperature_eigen(7)
        wbs = temperature_boundary_system(7, 0.5, table99)
        u0, v_plus = solve_wall(wbs, eigen, 1.0, 0.0)
        doubled = wbs.__class__(
            kind=wbs.kind,
            order=wbs.order,
            chi=wbs.chi,
            b_chi=wbs.b_chi,
            scaled_matrix=wbs.scaled_matrix,
            c_vec=2.0 * wbs.c_vec,
        )
        u0_doubled, v_doubled = solve_wall(doubled, eigen, 1.0, 0.0)
        assert u0_doubled == pytest.approx(2.0 * u0, rel=1e-13)
        np.testing.assert_allclose(v_doubled, 2.0 * v_plus, rtol=1e-12)
        copied = wbs.__class__(
            kind=wbs.kind,
            order=wbs.order,
            chi=wbs.chi,
            b_chi=wbs.b_chi,
            scaled_matrix=1.5 * wbs.scaled_matrix,
            c_vec=wbs.c_vec,
        )
        u0_scaled, v_scaled = solve_wall(copied, eigen, 1.0, 0.0)
        ref_u0, ref_v = cholesky_wall_solve(copied, eigen, 1.0, 0.0)
        assert u0_scaled == pytest.approx(ref_u0, rel=1e-12)
        assert u0_scaled != pytest.approx(u0, rel=1e-6)

    def test_sweep_runs_one_symmetric_eigh(self, capsys, monkeypatch):
        layer_profiles.layer_operator.cache_clear()
        calls = []
        true_eigh = np.linalg.eigh

        def counting_eigh(a, *args, **kwargs):
            calls.append(a.shape)
            return true_eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        assert main(["sweep-chi", "-M", "33", "--samples", "50"]) == 0
        rows = [line for line in capsys.readouterr().out.splitlines() if not line.startswith("#")]
        assert len(rows) == 50
        assert calls == [(31, 31)]

    @pytest.mark.parametrize("order, size", [(33, 31), (32, 15)])
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
        assert calls == [("eigh", (size, size))]

    def test_structural_error_on_negative_pencil(self, table99):
        eigen = temperature_eigen(7)
        wbs = temperature_boundary_system(7, 0.5, table99)
        negated = ParityEigen(
            rates=-100.0 * eigen.rates,
            even_vectors=eigen.even_vectors.copy(),
            odd_vectors=eigen.odd_vectors.copy(),
        )
        with pytest.raises(StructuralSolveError):
            solve_wall(wbs, negated, 1.0, 0.0)

    @pytest.mark.parametrize("flipped", ["pivot", "block"])
    def test_structural_error_on_indefinite_scaled_matrix(self, flipped, table99):
        # Each flip leaves the rates positive; only one of the pivot and the
        # reduced block changes sign, so each guard is needed on its own.
        eigen = temperature_eigen(7)
        wbs = temperature_boundary_system(7, 0.5, table99)
        indefinite = wbs.scaled_matrix.copy()
        if flipped == "pivot":
            indefinite[0, 0] *= -1.0
        else:
            indefinite[1:, 1:] *= -1.0
        spoiled = wbs.__class__(
            kind=wbs.kind,
            order=wbs.order,
            chi=wbs.chi,
            b_chi=wbs.b_chi,
            scaled_matrix=indefinite,
            c_vec=wbs.c_vec,
        )
        with pytest.raises(StructuralSolveError):
            solve_wall(spoiled, eigen, 1.0, 0.0)

    def test_mismatched_eigen_rejected(self, table99):
        wbs = temperature_boundary_system(7, 0.5, table99)
        with pytest.raises(ValueError):
            solve_wall(wbs, temperature_eigen(9), 1.0, 0.0)
