"""Structured eigendecomposition: exactness, conventions, and oracle agreement."""

import math

import numpy as np
import pytest

from knlayer import layer_profiles
from knlayer.layer_profiles import temperature_defect, temperature_solution
from knlayer.parity_spectral import (
    ParityEigen,
    RankDeficiencyError,
    assemble_full_R,
    decompose,
)
from knlayer.system_builder import (
    ReducedSystem,
    SystemKind,
    build_kramers_system,
    build_temperature_system,
)
from knlayer.verification import dense_symmetric_eig


def all_invariants(system, eigen, tol=1e-10):
    b = system.coupling_dense()
    r = assemble_full_R(eigen)
    n = r.shape[0]
    assert np.max(np.abs(r.T @ r - np.eye(n))) < tol
    assert np.max(np.abs(b @ eigen.odd_vectors - eigen.even_vectors * eigen.rates)) < tol * max(
        1.0, eigen.rates[0]
    )
    assert np.max(np.abs(b.T @ eigen.even_vectors - eigen.odd_vectors * eigen.rates)) < tol * max(
        1.0, eigen.rates[0]
    )
    assert (
        np.max(np.abs(eigen.even_vectors.T @ eigen.even_vectors - 0.5 * np.eye(system.m_odd)))
        < tol
    )
    assert np.all(np.diff(eigen.rates) <= 0.0)
    assert eigen.rates[-1] > 0.0


class TestOrderThree:
    def test_rate_value(self):
        eigen = decompose(build_temperature_system(3))
        assert eigen.rates[0] == pytest.approx(3.0 / math.sqrt(5.0), rel=1e-14)

    def test_full_matrix_matches_reference_up_to_column_signs(self):
        eigen = decompose(build_temperature_system(3))
        r = assemble_full_R(eigen)
        ref = np.array([[-1.0, -1.0], [-1.0, 1.0]]) * (math.sqrt(2.0) / 2.0)
        for col in range(2):
            match = np.allclose(r[:, col], ref[:, col], atol=1e-14) or np.allclose(
                r[:, col], -ref[:, col], atol=1e-14
            )
            assert match

    def test_sign_convention(self):
        eigen = decompose(build_temperature_system(3))
        assert eigen.odd_vectors[0, 0] > 0.0


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
        assert np.max(np.abs(gram - 0.5 * np.eye(system.m_odd))) < 1e-10


class TestDenseOracleAgreement:
    @pytest.mark.parametrize("order", [3, 5, 7, 21, 63, 99])
    def test_eigenvalues_pair_up(self, order):
        system = build_temperature_system(order)
        eigen = decompose(system)
        w, _ = dense_symmetric_eig(system.parity_dense())
        expected = np.sort(np.concatenate((-eigen.rates, eigen.rates)))
        assert np.max(np.abs(np.sort(w) - expected)) < 1e-10 * max(1.0, eigen.rates[0])

    def test_full_R_diagonalizes_order_seven(self):
        system = build_temperature_system(7)
        eigen = decompose(system)
        r = assemble_full_R(eigen)
        lam = np.concatenate((eigen.rates, -eigen.rates))
        dense = system.parity_dense()
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
            return ParityEigen(
                rates=eigen.rates.copy(),
                even_vectors=eigen.even_vectors * signs,
                odd_vectors=eigen.odd_vectors * signs,
            )

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
            kind=SystemKind.TEMPERATURE_JUMP,
            order=5,
            m_even=3,
            m_odd=3,
            diag_main=np.array([1.0, 0.0, 1.0]),
            diag_sub1=np.zeros(2),
            diag_sub2=np.zeros(1),
            log_even_scale=np.zeros(3),
            log_odd_scale=np.zeros(3),
        )
        with pytest.raises(RankDeficiencyError):
            decompose(bad)

    def test_non_square_block_rejected(self):
        bad = ReducedSystem(
            kind=SystemKind.TEMPERATURE_JUMP,
            order=5,
            m_even=3,
            m_odd=2,
            diag_main=np.ones(2),
            diag_sub1=np.ones(2),
            diag_sub2=np.zeros(1),
            log_even_scale=np.zeros(3),
            log_odd_scale=np.zeros(2),
        )
        with pytest.raises(ValueError, match="not square"):
            decompose(bad)


class TestDeterminism:
    def test_repeated_decompose_identical(self):
        system = build_temperature_system(33)
        a = decompose(system)
        b = decompose(system)
        np.testing.assert_array_equal(a.rates, b.rates)
        np.testing.assert_array_equal(a.even_vectors, b.even_vectors)
        np.testing.assert_array_equal(a.odd_vectors, b.odd_vectors)
