"""The oracles themselves: quadrature, dense Jacobi, and the BVP solver."""

import dataclasses
import math

import numpy as np
import pytest

from knlayer import boundary_solver
from knlayer.boundary_solver import (
    WallBoundarySystem,
    accommodation_factor,
    kramers_boundary_system,
    temperature_boundary_system,
    wall_system,
)
from knlayer.layer_profiles import (
    DEFECT_WEIGHTS,
    layer_operator,
    temperature_solution,
    velocity_solution,
)
from knlayer.parity_spectral import ParityEigen, decompose
from knlayer.system_builder import reduced_system
import knlayer.verification as verification
from knlayer.verification import (
    BvpConvergenceError,
    bvp_nodes,
    bvp_profile,
    dense_symmetric_eigvals,
    parity_dense,
    quadrature_block,
    split_nodes,
    wall_operator,
)

KN = math.sqrt(2.0) / 2.0
SQRT_2PI = math.sqrt(2.0 * math.pi)


class TestQuadrature:
    def test_anchor_values(self):
        quad = quadrature_block(1, 1.0)
        assert quad[0, 0] == pytest.approx(-1.0, abs=1e-10)
        assert quad[0, 1] == pytest.approx(SQRT_2PI / 2.0, abs=1e-10)

    def test_theta_independence(self):
        assert quadrature_block(0, 2.0)[0, 0] == pytest.approx(-1.0, abs=1e-9)
        assert quadrature_block(5, 0.5)[3, 5] == pytest.approx(quadrature_block(5, 1.0)[3, 5], rel=1e-9)

    def test_block_covers_every_pair_to_top(self):
        assert quadrature_block(verification.QUADRATURE_ORDER_LIMIT, 1.0).shape == (31, 31)

    def test_accepts_integer_tops_at_the_window_ends(self):
        assert quadrature_block(0, 1.0).shape == (1, 1)
        np.testing.assert_array_equal(quadrature_block(np.int64(5), 1.0), quadrature_block(5, 1.0))

    @pytest.mark.parametrize("top", [31, -1, 2.5])
    def test_rejects_top_outside_window(self, top):
        with pytest.raises(ValueError, match="validated for orders <= 30"):
            quadrature_block(top, 1.0)

    @pytest.mark.parametrize("theta", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_theta_outside_domain(self, theta):
        with pytest.raises(ValueError, match="theta must be finite and positive"):
            quadrature_block(2, theta)


class TestDenseJacobi:
    def test_two_by_two_pair(self):
        m = 3.0 / math.sqrt(5.0)
        w = dense_symmetric_eigvals(np.array([[0.0, m], [m, 0.0]]))
        np.testing.assert_allclose(w, [-m, m], rtol=1e-14)

    def test_identity(self):
        np.testing.assert_allclose(dense_symmetric_eigvals(np.eye(5)), np.ones(5))

    def test_random_symmetric_against_lapack(self):
        rng = np.random.default_rng(11)
        a = rng.standard_normal((10, 10))
        a = 0.5 * (a + a.T)
        w = dense_symmetric_eigvals(a)
        scale = np.max(np.abs(a))
        assert np.all(np.diff(w) >= 0.0)
        assert np.max(np.abs(w - np.linalg.eigvalsh(a))) < 1e-12 * scale
        # the rotations keep the trace and the Frobenius norm
        assert abs(np.sum(w) - np.trace(a)) < 1e-12 * scale
        assert abs(math.sqrt(np.sum(w * w)) - np.linalg.norm(a)) < 1e-12 * np.linalg.norm(a)

    @pytest.mark.parametrize("order", [3, 9, 33, 32])
    def test_parity_matrix_against_lapack(self, order):
        dense = parity_dense(reduced_system(order, 0.7))
        expected = np.linalg.eigvalsh(dense)
        w = dense_symmetric_eigvals(dense)
        assert np.max(np.abs(w - expected)) < 1e-12 * np.max(np.abs(expected))

    @pytest.mark.parametrize("order", [9, 8])
    def test_wall_operator_against_lapack(self, order):
        system = reduced_system(order, 0.7)
        k = wall_operator(wall_system(order, 0.7), decompose(system), 0.5)
        expected = np.linalg.eigvalsh(k)
        w = dense_symmetric_eigvals(k)
        assert np.max(np.abs(w - expected)) < 1e-12 * np.max(np.abs(expected))
        assert w[-1] < 0.0

    def test_one_by_one_and_zero(self):
        assert np.array_equal(dense_symmetric_eigvals(np.array([[-2.5]])), [-2.5])
        assert np.array_equal(dense_symmetric_eigvals(np.zeros((3, 3))), np.zeros(3))

    @pytest.mark.parametrize(
        "matrix, message",
        [
            ([[0.0, 1.0], [0.5, 0.0]], "not symmetric"),
            (np.zeros((2, 3)), "square"),
            (np.zeros(3), "square"),
            ([[math.nan, 0.0], [0.0, 1.0]], "non-finite"),
            ([[1.0, math.inf], [math.inf, 1.0]], "non-finite"),
        ],
    )
    def test_rejects_invalid_input(self, matrix, message):
        with pytest.raises(ValueError, match=message):
            dense_symmetric_eigvals(np.array(matrix))


class TestDefinitenessSampling:
    @pytest.mark.parametrize("level", ["quick", "full"])
    def test_top_even_order_sampled_at_every_prandtl(self, monkeypatch, level):
        received = []
        true_eigvals = verification.dense_symmetric_eigvals

        def recording(matrix):
            received.append(np.array(matrix))
            return true_eigvals(matrix)

        monkeypatch.setattr(verification, "dense_symmetric_eigvals", recording)
        checks = verification._check_definiteness(level)
        assert all(check.passed for check in checks)
        top_even = 6 if level == "quick" else 98
        prandtls = (2.0 / 3.0, 1.0) if level == "quick" else (1e-3, 2.0 / 3.0, 1.0, 1e6, 1e12)
        for pr in prandtls:
            k = wall_operator(wall_system(top_even, pr), decompose(reduced_system(top_even, pr)), 0.5)
            assert any(np.array_equal(k, matrix) for matrix in received), pr
        assert len(received) == 2 + len(prandtls)
        assert f"sampled spectra at orders 3, {top_even + 1}, {top_even};" in checks[0].detail


class TestGrids:
    def test_bvp_nodes_span_the_domain(self):
        nodes = bvp_nodes(0.5, 2000)
        assert nodes[0] == 0.0
        assert nodes[-1] == pytest.approx(verification.BVP_DOMAIN_WIDTHS * 0.5, rel=1e-14)
        h = np.diff(nodes)
        assert h[-1] / h[0] == pytest.approx(verification.BVP_STRETCH, rel=1e-10)
        assert np.all(h > 0.0)

    def test_bvp_nodes_smallest_grid_and_numpy_cells(self):
        nodes = bvp_nodes(0.5, 2)
        assert nodes.size == 3
        h = np.diff(nodes)
        assert h[-1] / h[0] == pytest.approx(verification.BVP_STRETCH, rel=1e-14)
        np.testing.assert_array_equal(bvp_nodes(0.5, np.int64(2000)), bvp_nodes(0.5, 2000))

    def test_split_nodes_nest(self):
        nodes = bvp_nodes(0.125, 1000)
        fine = split_nodes(nodes)
        np.testing.assert_array_equal(fine[::2], nodes)
        assert fine.size == 2 * nodes.size - 1

    @pytest.mark.parametrize(
        "widest, n_cells, match",
        [(0.5, 0, "cells"), (0.5, 1, "cells"), (0.5, 2.5, "cells"), (0.0, 10, "widest_layer"),
         (-1.0, 10, "widest_layer"), (math.nan, 10, "widest_layer"), (math.inf, 10, "widest_layer")],
    )
    def test_bvp_nodes_reject_outside_domain(self, widest, n_cells, match):
        with pytest.raises(ValueError, match=match):
            bvp_nodes(widest, n_cells)


def widest_layer(sol):
    return float(sol.decay_rates[0]) * KN


def refined(order, chi, pr, flux, wall, nodes):
    """(coarse, fine at the coarse nodes) profiles of the oracle."""
    coarse = bvp_profile(order, chi, KN, pr, flux, wall, nodes)
    fine = bvp_profile(order, chi, KN, pr, flux, wall, split_nodes(nodes))
    return coarse, fine[::2]


def run_refinement(order, n_cells=6000):
    chi, pr = 1.0, 1.0
    if order % 2:
        sol = temperature_solution(order, chi, KN, pr, 1.0, 0.0)
        profile = sol.temperature
    else:
        sol = velocity_solution(order, chi, KN, pr, 1.0, 0.0)
        profile = sol.velocity
    nodes = bvp_nodes(widest_layer(sol), n_cells)
    coarse, fine = refined(order, chi, pr, 1.0, 0.0, nodes)
    exact = profile(nodes)
    dev_coarse = float(np.max(np.abs(coarse - exact)))
    dev_fine = float(np.max(np.abs(fine - exact)))
    dev_extrap = float(np.max(np.abs(2.0 * fine - coarse - exact)))
    return dev_coarse, dev_fine, dev_extrap


def reference_nodes(order, n_cells):
    """The oracle's grid for one order, sized from the closed-form solution."""
    solve = temperature_solution if order % 2 else velocity_solution
    return bvp_nodes(widest_layer(solve(order, 1.0)), n_cells)


class TestBvpTemperature:
    def test_matches_closed_form_order3(self):
        dev_coarse, dev_fine, dev_extrap = run_refinement(3)
        assert dev_coarse / dev_fine == pytest.approx(2.0, abs=0.1)
        assert dev_extrap < 1e-7

    def test_far_field_slope(self):
        y = reference_nodes(3, 2000)
        values = bvp_profile(3, 1.0, KN, 1.0, 1.0, 0.0, y)
        assert values.shape == y.shape
        slope = (values[-1] - values[-2]) / (y[-1] - y[-2])
        assert slope == pytest.approx(-0.4 / KN, abs=1e-8)

    def test_wall_offset_carried(self):
        y = reference_nodes(3, 2000)
        base = bvp_profile(3, 1.0, KN, 1.0, 1.0, 0.0, y)
        lifted = bvp_profile(3, 1.0, KN, 1.0, 1.0, 0.4, y)
        np.testing.assert_allclose(lifted - base, 0.4, rtol=1e-9)

    def test_prandtl_flux_and_offset_all_at_once(self):
        order, chi, pr, q2, wall = 5, 0.7, 2.0 / 3.0, 1.7, 0.2
        sol = temperature_solution(order, chi, KN, pr, q2, wall)
        nodes = bvp_nodes(widest_layer(sol), 8000)
        coarse, fine = refined(order, chi, pr, q2, wall, nodes)
        extrapolated = 2.0 * fine - coarse
        assert np.max(np.abs(extrapolated - sol.temperature(nodes))) < 1e-6

    def test_order_window(self):
        y = reference_nodes(3, 1000)
        # an odd order past the window, and one below the smallest order
        for order in (17, 1):
            with pytest.raises(ValueError):
                bvp_profile(order, 1.0, KN, 1.0, 1.0, 0.0, y)

    def test_unreachable_residual_reported(self, monkeypatch):
        monkeypatch.setattr(verification, "BVP_TOLERANCE", 1e-300)
        with pytest.raises(BvpConvergenceError):
            bvp_profile(3, 1.0, KN, 1.0, 1.0, 0.0, reference_nodes(3, 1000))


class TestBvpKramers:
    def test_matches_closed_form_order4(self):
        dev_coarse, dev_fine, dev_extrap = run_refinement(4)
        assert dev_coarse / dev_fine == pytest.approx(2.0, abs=0.1)
        assert dev_extrap < 1e-6

    def test_shear_linearity_on_grid(self):
        y = reference_nodes(4, 2000)
        a = bvp_profile(4, 0.8, KN, 1.0, 1.0, 0.0, y)
        b = bvp_profile(4, 0.8, KN, 1.0, 2.0, 0.0, y)
        np.testing.assert_allclose(2.0 * a, b, rtol=1e-10, atol=1e-12)

    def test_wall_value_close_to_analytic(self):
        sol = velocity_solution(4, 1.0)
        values = bvp_profile(4, 1.0, KN, 1.0, 1.0, 0.0, reference_nodes(4, 4000))
        assert values[0] == pytest.approx(sol.wall_value, abs=1e-6)

    def test_prandtl_shear_and_offset_all_at_once(self):
        # non-unit Prandtl, shear and wall velocity exercise every Kramers knob
        order, chi, pr, shear, wall = 6, 0.8, 2.0 / 3.0, 1.3, 0.1
        sol = velocity_solution(order, chi, KN, pr, shear, wall)
        nodes = bvp_nodes(widest_layer(sol), 8000)
        coarse, fine = refined(order, chi, pr, shear, wall, nodes)
        extrapolated = 2.0 * fine - coarse
        assert np.max(np.abs(extrapolated - sol.velocity(nodes))) < 1e-6

    def test_order_window(self):
        y = reference_nodes(4, 1000)
        # an even order past the window, and the even order below it
        for order in (16, 2):
            with pytest.raises(ValueError):
                bvp_profile(order, 1.0, KN, 1.0, 1.0, 0.0, y)


class TestBvpDomain:
    @pytest.mark.parametrize(
        "nodes",
        [
            [0.0, 1.0, math.nan, 3.0],  # a NaN node
            [0.0, 1.0, math.inf],  # an infinite node
            [0.0, 2.0, 1.0, 3.0],  # not increasing
            [0.0, 1.0, 1.0, 3.0],  # a repeated node
            [0.5, 1.0, 2.0],  # not starting at the wall
            [0.0],  # one node
            [[0.0, 1.0], [2.0, 3.0]],  # not 1-d
        ],
    )
    @pytest.mark.parametrize("order", [3, 4])
    def test_rejects_bad_grid(self, order, nodes):
        with pytest.raises(ValueError, match="nodes"):
            bvp_profile(order, 1.0, KN, 1.0, 1.0, 0.0, nodes)

    @pytest.mark.parametrize(
        "kn, pr, flux, wall",
        [
            (math.nan, 1.0, 1.0, 0.0),
            (0.0, 1.0, 1.0, 0.0),
            (KN, math.nan, 1.0, 0.0),
            (KN, 1e300, 1.0, 0.0),
            (KN, 1.0, 0.0, 0.0),
            (KN, 1.0, math.nan, 0.0),
            (KN, 1.0, 1.0, math.nan),
            (KN, 1.0, 1.0, math.inf),
        ],
    )
    @pytest.mark.parametrize("order", [3, 4])
    def test_rejects_what_the_solutions_reject(self, order, kn, pr, flux, wall):
        solve = temperature_solution if order % 2 else velocity_solution
        with pytest.raises(ValueError):
            solve(order, 1.0, kn, pr, flux, wall)
        with pytest.raises(ValueError):
            bvp_profile(order, 1.0, kn, pr, flux, wall, reference_nodes(order, 100))

    @pytest.mark.parametrize("chi", [[0.5, 0.6], [0.5], np.array([0.5]), 0.5 + 0.0j])
    @pytest.mark.parametrize("order", [3, 4])
    def test_rejects_chi_that_is_not_one_real_number(self, monkeypatch, order, chi):
        # a row of chi would scale the wall matrix's columns by different b;
        # it is rejected before the oracle builds its parts
        built = []
        monkeypatch.setattr(verification, "_problem_parts", lambda *args: built.append(args))
        with pytest.raises(ValueError, match="chi must be one real number"):
            bvp_profile(order, chi, 0.7, 1.0, 1.0, 0.0, bvp_nodes(1.0, 50))
        assert not built

    @pytest.mark.parametrize("order", [3, 4])
    def test_zero_d_chi_is_one_number(self, order):
        nodes = bvp_nodes(1.0, 50)
        np.testing.assert_array_equal(
            bvp_profile(order, np.array(0.5), KN, 1.0, 1.0, 0.0, nodes),
            bvp_profile(order, 0.5, KN, 1.0, 1.0, 0.0, nodes),
        )

    @pytest.mark.parametrize("order", [3, 4, 7, 8])
    def test_negated_rate_does_not_converge(self, monkeypatch, order):
        true_parts = verification._problem_parts

        def corrupted(order, pr=1.0):
            system, eigen = true_parts(order, pr)
            rates = eigen.rates.copy()
            rates[-1] *= -1.0
            return system, ParityEigen(rates, eigen.even_vectors)

        nodes = reference_nodes(order, 1000)
        monkeypatch.setattr(verification, "_problem_parts", corrupted)
        with pytest.raises(BvpConvergenceError):
            bvp_profile(order, 1.0, KN, 1.0, 1.0, 0.0, nodes)


@pytest.fixture
def perturbed_wall_builders(monkeypatch):
    """Both wall builders return T scaled by 1 + 1e-4, and the operator cache
    is cleared on the way in and out, so the solver builds from them."""
    def perturbed(build):
        def wrapper(*args):
            wbs = build(*args)
            return WallBoundarySystem(wbs.order, wbs.scaled_matrix * (1.0 + 1e-4), wbs.c_vec)
        return wrapper

    for name in ("temperature_boundary_system", "kramers_boundary_system"):
        monkeypatch.setattr(boundary_solver, name, perturbed(getattr(boundary_solver, name)))
    layer_operator.cache_clear()
    yield
    layer_operator.cache_clear()


def test_bvp_check_fails_on_a_perturbed_wall_matrix(perturbed_wall_builders):
    # the oracle takes its wall rows from reference_wall_matrix, so a wall
    # entry the solver gets wrong moves the analytic profile and not the oracle
    deviation, convergence = verification._check_bvp("quick")
    assert not deviation.passed, deviation.line()
    assert not convergence.passed, convergence.line()


def global_solve(order, chi, pr, flux, wall_value, nodes):
    """(scalar, v+, v-) at every node from the oracle's discrete equations,
    all assembled into one dense system: the wall rows, both upwinded
    branches, the far-end pin of the growing branch and the scalar rows."""
    system, eigen = verification._problem_parts(order, pr)
    m, n = eigen.rates.size, nodes.size - 1
    if order % 2:
        wbs = temperature_boundary_system(order)
        carrier = 0.8 * (DEFECT_WEIGHTS[:min(3, m)] @ eigen.even_vectors[:3, :])
        slope = -0.4 * pr * flux / KN
    else:
        wbs = kramers_boundary_system(order, pr)
        carrier = (2.0 / verification._even_norm(order, pr, 1)) * eigen.even_vectors[0, :]
        slope = -flux / KN
    stride = 2 * m + 1
    size = stride * (n + 1)
    plus = lambda j: j * stride + 1 + np.arange(m)
    minus = lambda j: j * stride + 1 + m + np.arange(m)
    a = np.zeros((size, size))
    rhs = np.zeros(size)

    # b T (s ; E (v+ + v-)) - (0 ; B O (v+ - v-)) = flux c + b T[:, 0] wall_value
    bt = accommodation_factor(chi) * wbs.scaled_matrix
    even = bt[:, 1:] @ eigen.even_vectors
    flow = np.zeros_like(even)
    flow[1:] = verification.coupling_dense(system) @ verification.odd_block(system, eigen)
    rows = np.arange(m + 1)
    a[rows, 0] = bt[:, 0]
    a[np.ix_(rows, plus(0))] = even - flow
    a[np.ix_(rows, minus(0))] = even + flow
    rhs[rows] = flux * wbs.c_vec + bt[:, 0] * wall_value
    eq = m + 1
    for j in range(1, n + 1):
        grow = 1.0 + (nodes[j] - nodes[j - 1]) / (eigen.rates * KN)
        rows = eq + np.arange(m)
        a[rows, plus(j)] = grow
        a[rows, plus(j - 1)] = -1.0
        a[rows + m, minus(j - 1)] = grow
        a[rows + m, minus(j)] = -1.0
        scalar = eq + 2 * m
        a[scalar, [j * stride, (j - 1) * stride]] = 1.0, -1.0
        for cols, sign in ((plus(j), 1.0), (minus(j), 1.0), (plus(j - 1), -1.0), (minus(j - 1), -1.0)):
            a[scalar, cols] = sign * carrier
        rhs[scalar] = slope * (nodes[j] - nodes[j - 1])
        eq = scalar + 1
    a[eq + np.arange(m), minus(n)] = 1.0
    assert eq + m == size

    x = np.linalg.solve(a, rhs).reshape(n + 1, stride)
    return x[:, 0], x[:, 1:m + 1], x[:, m + 1:]


class TestBvpBackSubstitution:
    @pytest.mark.parametrize(
        "order, chi, pr, flux, wall",
        [(3, 1.0, 1.0, 1.0, 0.0), (3, 0.6, 2.0 / 3.0, 1.7, 0.3),
         (4, 1.0, 1.0, 1.0, 0.0), (4, 0.8, 0.7, -1.3, 0.2)],
    )
    def test_matches_global_solve(self, order, chi, pr, flux, wall):
        nodes = reference_nodes(order, 8)
        scalar, v_plus, v_minus = global_solve(order, chi, pr, flux, wall, nodes)
        assert np.max(np.abs(v_plus)) > 1e-3
        assert np.max(np.abs(v_minus)) <= 1e-14
        profile = bvp_profile(order, chi, KN, pr, flux, wall, nodes)
        assert np.max(np.abs(profile - scalar)) <= 1e-12 * np.max(np.abs(scalar))


def wall_solve_check(level):
    """The definiteness suite's check of the operator against a direct LU
    solve of K(chi), which reads neither a dense eigh nor Lanczos."""
    checks = {check.name: check for check in verification._check_definiteness(level)}
    return checks["wall reduction vs direct solve of K(chi)"]


class TestWallSolveCheck:
    def test_quick_passes(self):
        check = wall_solve_check("quick")
        assert check.passed, check.line()
        assert check.detail == "wall value and coefficient at chi 0.1, 0.5, 1; even orders at Pr 0.666667, 1"

    def test_full_run_holds_the_check(self, full_verification):
        residual = full_verification.residual("wall reduction vs direct solve of K(chi)")
        assert 0.0 < residual <= verification.WALL_SOLVE_AGREEMENT

    @pytest.mark.parametrize("field", ["g", "inv_mu"])
    def test_one_ritz_pair_off_by_1e_10_fails(self, monkeypatch, field):
        true_reduce = boundary_solver.WallReduction.from_lanczos.__func__

        def off(cls, *lanczos):
            reduction = true_reduce(cls, *lanczos)
            values = getattr(reduction, field).copy()
            values[0] *= 1.0 + 1e-10
            return dataclasses.replace(reduction, **{field: values})

        monkeypatch.setattr(boundary_solver.WallReduction, "from_lanczos", classmethod(off))
        layer_operator.cache_clear()
        try:
            check = wall_solve_check("quick")
        finally:
            layer_operator.cache_clear()  # no operator built on the mutated reduction survives
        assert not check.passed
        assert check.residual > 1e-12

    def test_operator_that_cannot_be_built_fails(self, monkeypatch):
        def unbuildable(order, pr=1.0):
            raise boundary_solver.StructuralSolveError("reduced wall matrix not definite")

        monkeypatch.setattr(verification, "layer_operator", unbuildable)
        check = wall_solve_check("quick")
        assert not check.passed
        assert check.residual == math.inf
