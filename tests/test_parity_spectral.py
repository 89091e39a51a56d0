"""Structured eigendecomposition: exactness, conventions, and oracle agreement."""

import math

import mpmath as mp
import numpy as np
import pytest

from knlayer import boundary_solver, cli, layer_profiles
from knlayer.layer_profiles import temperature_defect, temperature_solution
from knlayer.parity_spectral import ParityEigen, RankDeficiencyError, decompose
from knlayer.system_builder import (
    ReducedSystem,
    build_kramers_system,
    build_temperature_system,
)
from knlayer.verification import (
    assemble_full_R,
    coupling_dense,
    dense_symmetric_eigvals,
    odd_block,
    parity_dense,
)


def all_invariants(system, eigen, tol=1e-10):
    b = coupling_dense(system)
    o = odd_block(system, eigen)
    r = assemble_full_R(system, eigen)
    n = r.shape[0]
    half = 0.5 * np.eye(system.m_even)
    assert np.max(np.abs(r.T @ r - np.eye(n))) < tol
    assert np.max(np.abs(b @ o - eigen.even_vectors * eigen.rates)) < tol * max(
        1.0, eigen.rates[0]
    )
    # B^T E = O diag(rates) holds by the construction of O; its orthogonality does not
    assert np.max(np.abs(o.T @ o - half)) < tol
    assert np.max(np.abs(eigen.even_vectors.T @ eigen.even_vectors - half)) < tol
    assert np.all(np.diff(eigen.rates) <= 0.0)
    assert eigen.rates[-1] > 0.0


class TestOrderThree:
    def test_rate_value(self):
        eigen = decompose(build_temperature_system(3))
        assert eigen.rates[0] == pytest.approx(3.0 / math.sqrt(5.0), rel=1e-14)

    def test_full_matrix_matches_reference_up_to_column_signs(self):
        system = build_temperature_system(3)
        r = assemble_full_R(system, decompose(system))
        ref = np.array([[-1.0, -1.0], [-1.0, 1.0]]) * (math.sqrt(2.0) / 2.0)
        for col in range(2):
            match = np.allclose(r[:, col], ref[:, col], atol=1e-14) or np.allclose(
                r[:, col], -ref[:, col], atol=1e-14
            )
            assert match

    def test_sign_convention(self):
        system = build_temperature_system(3)
        assert odd_block(system, decompose(system))[0, 0] > 0.0


class TestInvariants:
    @pytest.mark.parametrize("order", [3, 5, 7, 13, 33, 99])
    def test_temperature(self, order):
        system = build_temperature_system(order)
        all_invariants(system, decompose(system))

    @pytest.mark.parametrize("order", [4, 8, 14, 48, 98])
    def test_kramers(self, order):
        system = build_kramers_system(order, 2.0 / 3.0)
        all_invariants(system, decompose(system))

    @pytest.mark.parametrize("order", [1025, 1024])
    def test_large_orders(self, order):
        if order % 2:
            system = build_temperature_system(order)
        else:
            system = build_kramers_system(order, 2.0 / 3.0)
        eigen = decompose(system)
        assert np.all(np.diff(eigen.rates) < 0.0)
        assert eigen.rates[-1] > 0.0
        gram = eigen.even_vectors.T @ eigen.even_vectors
        assert np.max(np.abs(gram - 0.5 * np.eye(system.m_even))) < 1e-10


class TestDenseOracleAgreement:
    @pytest.mark.parametrize("order", [3, 5, 7, 21, 63, 99])
    def test_eigenvalues_pair_up(self, order):
        system = build_temperature_system(order)
        eigen = decompose(system)
        w = dense_symmetric_eigvals(parity_dense(system))
        expected = np.sort(np.concatenate((-eigen.rates, eigen.rates)))
        assert np.max(np.abs(w - expected)) < 1e-10 * max(1.0, eigen.rates[0])

    def test_full_R_diagonalizes_order_seven(self):
        system = build_temperature_system(7)
        eigen = decompose(system)
        r = assemble_full_R(system, eigen)
        lam = np.concatenate((eigen.rates, -eigen.rates))
        dense = parity_dense(system)
        resid = np.max(np.abs(r.T @ dense @ r - np.diag(lam)))
        assert resid < 1e-10 * np.max(np.abs(dense))


class TestDownstreamInvariance:
    def test_profile_invariant_under_joint_sign_flips(self, monkeypatch):
        order, chi = 9, 0.7
        layer_profiles.layer_operator.cache_clear()
        base = temperature_solution(order, chi, 0.7)
        signs = np.array([1.0, -1.0, 1.0, -1.0, -1.0, 1.0, -1.0])

        def flipped(system):
            eigen = decompose(system)
            return ParityEigen(rates=eigen.rates.copy(), even_vectors=eigen.even_vectors * signs)

        monkeypatch.setattr(layer_profiles, "decompose", flipped)
        layer_profiles.layer_operator.cache_clear()
        other = temperature_solution(order, chi, 0.7)
        layer_profiles.layer_operator.cache_clear()
        y = np.linspace(0.0, 5.0, 40)
        np.testing.assert_allclose(
            temperature_defect(base, y), temperature_defect(other, y), atol=1e-10
        )
        np.testing.assert_allclose(base.temperature(y), other.temperature(y), atol=1e-10)

    def test_no_tied_rates_in_practice(self):
        # descending with strict gaps, so the equal-rate permutation case is vacuous
        for order in (5, 13, 33):
            rates = decompose(build_temperature_system(order)).rates
            assert np.all(np.diff(rates) < 0.0)


class TestRankGuard:
    def test_zero_column_raises(self):
        bad = ReducedSystem(
            order=5,
            m_even=3,
            diag_main=np.array([1.0, 0.0, 1.0]),
            diag_sub1=np.zeros(2),
            diag_sub2=np.zeros(1),
        )
        with pytest.raises(RankDeficiencyError):
            decompose(bad)


class TestDeterminism:
    def test_repeated_decompose_identical(self):
        system = build_temperature_system(33)
        a = decompose(system)
        b = decompose(system)
        np.testing.assert_array_equal(a.rates, b.rates)
        np.testing.assert_array_equal(a.even_vectors, b.even_vectors)


def exact_coupling(order, pr=None):
    """B at 30 digits from the closed-form entries (Pr enters as given)."""
    with mp.workdps(30):
        if order % 2:
            m = order - 2
            b = mp.zeros(m, m)
            b[0, 0] = 9 / mp.sqrt(45)
            if m >= 2:
                b[1, 0] = 24 / mp.sqrt(360)
            if m >= 3:
                b[2, 0] = -6 / mp.sqrt(30)
            for j in range(1, m):  # 0-based column j, k = (j + 1) // 2
                k = (j + 1) // 2
                b[j, j] = mp.sqrt(2 * k + 3 if j % 2 else 2 * k + 1)
            for j in range(1, m - 2):  # row i = j + 2, k = (i + 1) // 2
                k = (j + 3) // 2
                b[j + 2, j] = mp.sqrt(2 * k + 2 if j % 2 else 2 * k)
        else:
            m = order // 2 - 1
            b = mp.zeros(m, m)
            b[0, 0] = mp.sqrt(15 / (4 + mp.mpf(pr)))
            for j in range(1, m):
                b[j, j] = mp.sqrt(2 * j + 3)
                b[j, j - 1] = mp.sqrt(2 * j + 2)
    return b


def exact_svd(order, pr=None, vectors=False):
    """Descending singular values (and left vectors) of B from mpmath at 30 digits."""
    with mp.workdps(30):
        b = exact_coupling(order, pr)
        if not vectors:
            return np.array(sorted((float(s) for s in mp.svd_r(b, compute_uv=False)), reverse=True))
        u, s, _ = mp.svd_r(b)
        idx = sorted(range(b.rows), key=lambda i: -s[i])
        rates = np.array([float(s[i]) for i in idx])
        return rates, np.array([[float(u[r, i]) for i in idx] for r in range(b.rows)])


def system_of(order, pr=None):
    return build_temperature_system(order) if pr is None else build_kramers_system(order, pr)


class TestExactReference:
    """Rates and even vectors against a 30-digit mpmath SVD of the exact B."""

    def test_closed_form_entries_match_builder(self):
        for order, pr in ((9, None), (21, None), (12, 1e12)):
            system = system_of(order, pr)
            exact = np.array(exact_coupling(order, pr).tolist(), dtype=float)
            np.testing.assert_allclose(coupling_dense(system), exact, rtol=1e-15, atol=0.0)

    @pytest.mark.parametrize(
        "order, pr",
        [(21, None), (41, None)]
        + [(order, pr) for order in (32, 64) for pr in (2.0 / 3.0, 1.0, 1e6, 1e12)],
    )
    def test_rates_relative(self, order, pr):
        # Small Kramers rates at large Pr need relative accuracy; a dense
        # SVD of B is only normwise accurate and misses by 1e-9 at Pr = 1e12.
        rates = decompose(system_of(order, pr)).rates
        exact = exact_svd(order, pr)
        assert np.max(np.abs(rates / exact - 1.0)) < 1e-14

    @pytest.mark.parametrize("order, pr", [(21, None), (32, 1e12), (12, 2.0 / 3.0)])
    def test_even_vectors(self, order, pr):
        eigen = decompose(system_of(order, pr))
        rates, u = exact_svd(order, pr, vectors=True)
        np.testing.assert_allclose(eigen.rates, rates, rtol=1e-14)
        e = math.sqrt(2.0) * eigen.even_vectors
        aligned = u * np.sign(np.sum(u * e, axis=0))
        assert np.max(np.abs(e - aligned)) < 1e-12


class TestCloseRates:
    def test_vectors_of_close_rates_resolved(self):
        # At M = 513 the two smallest rates, 0.0713 and 0.0748, are 5e-4
        # apart in B B^T against |B B^T| = 2e3, so eigh of the Gram matrix
        # alone mixes their vectors by 6e-12.  The parity matrix of size 2m
        # resolves them to the accuracy of B.
        system = build_temperature_system(513)
        eigen = decompose(system)
        m = system.m_even
        _, z = np.linalg.eigh(parity_dense(system))
        ref = z[:, m:][:, ::-1]  # positive branch, descending
        got = np.vstack((eigen.even_vectors, odd_block(system, eigen)))
        aligned = ref * np.sign(np.sum(ref * got, axis=0))
        assert np.max(np.abs(got - aligned)) < 1e-12


def banded_times(system, x):
    """B x from the three stored diagonals of the lower-banded B."""
    out = system.diag_main[:, None] * x
    for k, band in ((1, system.diag_sub1), (2, system.diag_sub2)):
        out[k: k + band.size] += band[:, None] * x[: band.size]
    return out


class TestTopOrders:
    """E from decompose and O = B^T E / rates from the oracle's dense B, at
    the smallest and largest orders of either parity, and the wall reduction
    on that E."""

    @pytest.mark.parametrize("order", [9, 8, 2049, 2048, 4097])
    def test_invariants(self, order):
        system = system_of(order, None if order % 2 else 2.0 / 3.0)
        eigen = decompose(system)
        e, o, rates = eigen.even_vectors, odd_block(system, eigen), eigen.rates
        assert np.all(np.diff(rates) < 0.0)
        assert rates[-1] > 0.0
        half = 0.5 * np.eye(system.m_even)
        assert np.max(np.abs(e.T @ e - half)) < 1e-10
        assert np.max(np.abs(o.T @ o - half)) < 1e-12
        # |B|_2 is the largest rate
        assert np.max(np.abs(banded_times(system, o) - e * rates)) < 1e-12 * rates[0]
        # decompose's sign rule: every column's largest-magnitude entry is positive
        big = np.argmax(np.abs(o), axis=0)
        assert np.all(o[big, np.arange(system.m_even)] > 0.0)
        # Lanczos converges inside its step bound at every order: measured
        # k = 12 at 4097, where the exhausted Krylov space took 83-85 steps
        wall = boundary_solver.wall_system(order, 2.0 / 3.0)
        k = boundary_solver._wall_reduction(wall, rates, e).inv_mu.size
        assert k <= min(system.m_even, boundary_solver._LANCZOS_STEPS)


class TestNoDenseSvd:
    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep-chi", "-M", "33", "--samples", "20"],
            ["sweep-chi", "-M", "32", "--samples", "20"],
            ["temperature-jump", "-M", "13"],
            ["kramers", "-M", "12", "--pr", "1e12"],
            ["profile", "-M", "9", "--samples", "20"],
            ["profile", "-M", "8", "--samples", "20"],
        ],
    )
    def test_cold_paths_run_no_svd(self, argv, monkeypatch, capsys):
        def no_svd(*args, **kwargs):
            raise AssertionError("np.linalg.svd called on a solve path")

        monkeypatch.setattr(np.linalg, "svd", no_svd)
        layer_profiles.layer_operator.cache_clear()
        try:
            assert cli.main(argv) == 0
        finally:
            layer_profiles.layer_operator.cache_clear()
        assert capsys.readouterr().out
