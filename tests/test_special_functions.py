"""Closed-form half-space integrals against exact and quadrature oracles."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knlayer import special_functions
from knlayer.layer_profiles import layer_operator
from knlayer.special_functions import RAW_ORDER_LIMIT, HalfSpaceTable, _z_even
from knlayer.verification import half_space_S_normalized, quadrature_block, raw_wall_matrix

SQRT_2PI = math.sqrt(2.0 * math.pi)


def exact_z_list(n_max):
    """Integer z sequence, exact arithmetic."""
    zs = [1, 0]
    for k in range(1, n_max + 1):
        zs.append(-k * zs[k - 1])
    return zs


def exact_S(alpha, beta):
    """Reference S from exact integers (band values carry the sqrt(2 pi)/2)."""
    if abs(alpha - beta) == 1:
        return SQRT_2PI / 2.0 * math.factorial(max(alpha, beta))
    a, b = min(alpha, beta), max(alpha, beta)
    z = exact_z_list(b + 2)
    total = Fraction(0)
    if b >= 1:
        total += Fraction(b * (z[a + 1] * z[b - 1] - z[b] * z[a]), a - b + 1)
    total += Fraction(z[a + 1] * z[b + 1] - z[b + 2] * z[a], a - b - 1)
    return float(total)


def half_space_I(alpha, beta):
    """Half-line Gaussian moment of He_alpha He_beta, the reference S is built on.

    Closed form: alpha! sqrt(2 pi)/2 on the diagonal, and
    (z_{alpha+1} z_beta - z_{beta+1} z_alpha)/(alpha - beta) off it.
    """
    if alpha == beta:
        return math.factorial(alpha) * SQRT_2PI / 2.0
    z = exact_z_list(max(alpha, beta) + 1)
    return (z[alpha + 1] * z[beta] - z[beta + 1] * z[alpha]) / (alpha - beta)


def scaled(alpha, beta):
    """Raw S(alpha, beta) recovered from the normalized closed form."""
    return half_space_S_normalized(alpha, beta) * math.sqrt(
        math.factorial(alpha) * math.factorial(beta)
    )


class TestZSequence:
    """The even z chain, normalized and raw, as ``_z_even`` builds it."""

    def test_seed_values(self):
        assert _z_even(1).tolist() == [1.0]
        assert _z_even(1, normalized=False).tolist() == [1.0]
        assert _z_even(2, normalized=False).tolist() == [1.0, -1.0]

    def test_odd_values_vanish(self):
        # odd z are never stored: every mixed-parity pair off the band is 0
        z = exact_z_list(31)
        for n in (1, 3, 5, 9, 31):
            assert z[n] == 0
            assert half_space_S_normalized(n + 3, n) == 0.0

    def test_z4(self):
        # z2 = -1, z4 = -3 z2 = 3; equals He_4 at the origin
        assert _z_even(3, normalized=False)[2] == 3.0
        assert _z_even(3)[2] == 3.0 / math.sqrt(24.0)

    def test_matches_exact_integers(self):
        z = exact_z_list(RAW_ORDER_LIMIT)
        raw = _z_even(RAW_ORDER_LIMIT // 2 + 1, normalized=False)
        for k, value in enumerate(raw):
            if 2 * k <= 30:  # below 2^53 the float product is exact
                assert value == float(z[2 * k])
            else:
                assert value == pytest.approx(float(z[2 * k]), rel=1e-14)

    @staticmethod
    def recursion_reference(n_max):
        """The per-index recursion z_{k+1} = -k z_{k-1}, normalized and raw,
        that the running products replace; raw values stop two past the
        double-precision window, before they overflow."""
        normed = np.zeros(n_max + 1)
        values = np.zeros(min(n_max, RAW_ORDER_LIMIT + 2) + 1)
        normed[0] = 1.0
        values[0] = 1.0
        for k in range(1, n_max):
            normed[k + 1] = -math.sqrt(k / (k + 1.0)) * normed[k - 1]
            if k + 1 < values.size:
                values[k + 1] = -k * values[k - 1]
        return normed, values

    @pytest.mark.parametrize("n_max", [0, 1, 2, 64, 131, 514, 4099])
    def test_matches_recursion(self, n_max):
        normed, values = self.recursion_reference(n_max)
        got = _z_even(n_max // 2 + 1)
        assert got.dtype == normed.dtype
        assert np.array_equal(got, normed[::2])
        assert np.array_equal(np.signbit(got), np.signbit(normed[::2]))
        raw_top = min(n_max, RAW_ORDER_LIMIT)  # raw values stop at the window
        assert np.array_equal(_z_even(raw_top // 2 + 1, normalized=False), values[: raw_top + 1 : 2])


class TestHalfSpaceI:
    def test_diagonal_seed(self):
        assert half_space_I(0, 0) == pytest.approx(SQRT_2PI / 2.0, rel=1e-15)
        assert half_space_I(3, 3) == pytest.approx(6.0 * SQRT_2PI / 2.0, rel=1e-15)

    def test_off_diagonal_value(self):
        # (z1 z1 - z2 z0)/(0 - 1) = -1; quadrature-confirmed through S(0, 0)
        assert half_space_I(0, 1) == -1.0

    def test_symmetry(self):
        for a in range(12):
            for b in range(12):
                assert half_space_I(a, b) == half_space_I(b, a)


class TestHalfSpaceS:
    def test_anchor_values(self):
        # S(2, 0) = -1 and S(4, 1) = 0 in raw form
        assert half_space_S_normalized(2, 0) == pytest.approx(-1.0 / math.sqrt(2.0), rel=1e-15)
        assert half_space_S_normalized(4, 1) == 0.0

    def test_quadrature_cross_check_small(self):
        quad = quadrature_block(6, 1.0)
        for a, b in [(2, 0), (3, 3), (1, 3), (5, 2), (6, 6)]:
            raw = quad[a, b] * math.sqrt(math.factorial(a) * math.factorial(b))
            assert scaled(a, b) == pytest.approx(raw, rel=1e-9)

    def test_matches_exact_integer_oracle(self):
        for a in range(31):
            for b in range(31):
                assert scaled(a, b) == pytest.approx(exact_S(a, b), rel=1e-12, abs=1e-12)
        # the raw even block, across the whole double-precision window
        raw = HalfSpaceTable(RAW_ORDER_LIMIT).s_values
        for i in range(raw.shape[0]):
            for j in range(i, raw.shape[0]):
                assert raw[i, j] == pytest.approx(exact_S(2 * i, 2 * j), rel=1e-12)

    def test_definition_consistency_with_I(self):
        for a in range(31):
            for b in range(1, 31):
                via_i = b * half_space_I(a, b - 1) + half_space_I(a, b + 1)
                scale = max(1.0, abs(via_i))
                assert abs(scaled(a, b) - via_i) / scale < 1e-12

    def test_s_alpha_zero_equals_I_alpha_one(self):
        for a in range(31):
            assert scaled(a, 0) == pytest.approx(half_space_I(a, 1), rel=1e-12, abs=1e-12)

    @given(a=st.integers(0, 60), b=st.integers(0, 60))
    @settings(max_examples=80, deadline=None)
    def test_symmetry_and_zero_pattern(self, a, b):
        assert half_space_S_normalized(a, b) == half_space_S_normalized(b, a)
        if a % 2 == 0 and b % 2 == 1 and abs(a - b) != 1:
            assert half_space_S_normalized(a, b) == 0.0


class TestNormalizedS:
    def test_trivial_normalizations(self):
        assert half_space_S_normalized(0, 0) == -1.0
        assert half_space_S_normalized(0, 1) == pytest.approx(SQRT_2PI / 2.0, rel=1e-15)

    def test_matches_exact_scaling(self):
        for a in range(31):
            for b in range(31):
                ref = exact_S(a, b) / math.sqrt(math.factorial(a) * math.factorial(b))
                assert half_space_S_normalized(a, b) == pytest.approx(ref, rel=1e-12, abs=1e-13)

    def test_specific_high_order_pair(self):
        a, b = 20, 22
        ref = exact_S(a, b) / math.sqrt(math.factorial(a) * math.factorial(b))
        assert half_space_S_normalized(a, b) == pytest.approx(ref, rel=1e-12)

    def test_finite_at_large_orders(self):
        assert math.isfinite(half_space_S_normalized(4096, 4096))
        assert math.isfinite(half_space_S_normalized(4095, 4093))


def full_reference_tables(max_order):
    """Full (normalized, raw) tables over every index pair, as built before the
    table kept only its even block: one closed form per pair class on the
    upper triangle, mirrored for exact symmetry.  Reference for the blocks."""

    def assemble(top, z, band, normalized):
        a = np.arange(top + 1)[:, None].astype(float)
        b = np.arange(top + 1)[None, :].astype(float)
        ai = np.arange(top + 1)
        za = z[ai][:, None]
        za1 = z[ai + 1][:, None]
        zb = z[ai][None, :]
        zb1 = z[ai + 1][None, :]
        zbm = z[np.maximum(ai - 1, 0)][None, :]
        den = (a - b) ** 2 - 1.0
        den[den == 0.0] = 1.0
        table = (a + b + 1.0) / den * za * zb
        den1 = a - b + 1.0
        den1[den1 == 0.0] = 1.0
        den2 = a - b - 1.0
        den2[den2 == 0.0] = 1.0
        if normalized:
            odd = (
                np.sqrt(b * (a + 1.0)) * za1 * zbm / den1
                + np.sqrt((a + 1.0) * (b + 1.0)) * za1 * zb1 / den2
            )
        else:
            odd = b * za1 * zbm / den1 + za1 * zb1 / den2
        odd_mask = (np.asarray(ai % 2, bool)[:, None]) & (np.asarray(ai % 2, bool)[None, :])
        table[odd_mask] = odd[odd_mask]
        off1 = np.abs(a - b) == 1.0
        table[off1] = band[off1]
        upper = np.triu(table)
        return upper + upper.T - np.diag(np.diag(table))

    zn, zraw = TestZSequence.recursion_reference(max_order + 2)
    idx = np.arange(max_order + 1)
    band = SQRT_2PI / 2.0 * np.sqrt(np.maximum(idx[:, None], idx[None, :]))
    normalized = assemble(max_order, zn, band, normalized=True)
    raw_top = min(max_order, RAW_ORDER_LIMIT)
    rid = idx[: raw_top + 1]
    fact = np.array([float(math.factorial(int(n))) for n in rid])
    rband = SQRT_2PI / 2.0 * np.where(rid[:, None] >= rid[None, :], fact[:, None], fact[None, :])
    return normalized, assemble(raw_top, zraw, rband, normalized=False)


class TestHalfSpaceTable:
    def test_agrees_with_scalar_functions(self):
        table = HalfSpaceTable(25)
        assert table.s_normalized.shape == (13, 13)
        for i in range(13):
            for j in range(13):
                a, b = 2 * i, 2 * j
                assert table.s_normalized[i, j] == half_space_S_normalized(a, b)
                assert table.s_values[i, j] == pytest.approx(exact_S(a, b), rel=1e-13, abs=1e-13)

    @pytest.mark.parametrize("max_order", [*range(6), 10, 25, 131, 150, 151, 514, 1027, 2051])
    def test_even_blocks_match_full_reference(self, max_order):
        normalized, raw = full_reference_tables(max_order)
        table = HalfSpaceTable(max_order)
        assert np.array_equal(table.s_normalized, normalized[::2, ::2])
        assert np.array_equal(table.s_values, raw[::2, ::2])

    def test_exact_symmetry_and_anchor(self):
        table = HalfSpaceTable(40)
        assert table.s_values[0, 0] == -1.0
        assert table.s_normalized[0, 0] == -1.0
        for block in (table.s_normalized, table.s_values):
            assert np.array_equal(block, block.T)

    def test_zero_pattern_exact(self):
        for a in range(0, 31, 2):
            for b in range(1, 31, 2):
                if abs(a - b) != 1:
                    assert half_space_S_normalized(a, b) == 0.0
                    assert half_space_S_normalized(b, a) == 0.0

    def test_immutable(self):
        table = HalfSpaceTable(10)
        with pytest.raises(ValueError):
            table.s_normalized[0, 0] = 5.0
        with pytest.raises(ValueError):
            table.s_values[0, 0] = 5.0

    def test_raw_window_guard(self):
        assert HalfSpaceTable(10).s_values.shape == (6, 6)
        table = HalfSpaceTable(400)
        assert table.s_normalized.shape == (201, 201)
        assert table.s_values.shape == (RAW_ORDER_LIMIT // 2 + 1, RAW_ORDER_LIMIT // 2 + 1)
        assert np.all(np.isfinite(table.s_values))

    def test_wall_builds_never_build_the_raw_block(self, monkeypatch):
        # only the raw references read s_values, so a cold operator build,
        # whose wall assembly builds a table, never runs the raw z chain
        raw_builds = []

        def counted(count, normalized=True):
            raw_builds.append(not normalized)
            return _z_even(count, normalized)

        monkeypatch.setattr(special_functions, "_z_even", counted)
        per_build = []
        for args in ((513,), (512, 0.7)):
            layer_operator.cache_clear()
            try:
                layer_operator(*args)
            finally:
                layer_operator.cache_clear()
            per_build.append(sum(raw_builds))
            raw_builds.clear()
        assert per_build == [0, 0]

    def test_raw_references_never_build_the_normalized_block(self, monkeypatch):
        # the raw wall matrices build the raw block alone, sized by the order,
        # from the one raw builder, and get the bits the table keeps
        chains = []

        def counted(count, normalized=True):
            chains.append((count, normalized))
            return _z_even(count, normalized)

        monkeypatch.setattr(special_functions, "_z_even", counted)
        for order, top in ((9, 8), (8, 6), (RAW_ORDER_LIMIT + 1, RAW_ORDER_LIMIT)):
            raw_wall_matrix(order)
            assert chains == [(top // 2 + 1, False)], order
            chains.clear()
        assert np.array_equal(raw_wall_matrix(RAW_ORDER_LIMIT + 2),
                              HalfSpaceTable(RAW_ORDER_LIMIT).s_values)

    def test_construction_memory_bounded(self):
        # the block and 64 rows of denominators (1.14 blocks); a whole block
        # of denominators, then a triangle copy, put it at 2.1
        tracemalloc.start()
        try:
            table = HalfSpaceTable(2051)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        stored = table.s_normalized.nbytes + table.s_values.nbytes
        assert peak <= 1.25 * stored, (peak, stored)


class TestQuadratureAgreement:
    def test_full_window_against_quadrature(self):
        quad = quadrature_block(30, 1.0)
        worst_rel = 0.0
        worst_zero = 0.0
        for a in range(0, 31, 3):
            for b in range(a, 31, 2):
                closed_n = half_space_S_normalized(a, b)
                quad_n = quad[a, b]
                if closed_n == 0.0:
                    worst_zero = max(worst_zero, abs(quad_n))
                else:
                    worst_rel = max(worst_rel, abs(quad_n - closed_n) / abs(closed_n))
        assert worst_rel < 1e-9
        assert worst_zero < 1e-12

    def test_theta_independence_of_quadrature(self):
        ref = quadrature_block(7, 1.0)
        for theta in (0.5, 2.0):
            quad = quadrature_block(7, theta)
            for a, b in [(0, 0), (1, 1), (2, 4), (5, 5), (7, 3)]:
                assert quad[a, b] == pytest.approx(ref[a, b], rel=1e-9, abs=1e-12)
