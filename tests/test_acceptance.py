"""Acceptance criteria, one test each, asserted at their stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion alongside the measured residuals.
"""

import math
import time

import numpy as np
import pytest

from knlayer.boundary_solver import (
    accommodation_factor,
    kramers_boundary_system,
    temperature_boundary_system,
)
from knlayer.layer_profiles import (
    coefficient_curve,
    convergence_order,
    jump_coefficient,
    layer_operator,
    temperature_solution,
    velocity_solution,
)
from knlayer.parity_spectral import decompose
from knlayer.system_builder import build_kramers_system, build_temperature_system
from knlayer.verification import (
    _bvp_deviation,
    dense_symmetric_eigvals,
    half_space_S_normalized,
    raw_wall_matrix,
    wall_operator,
)

# Published jump coefficients at Kn = sqrt(2)/2, Pr = 1 (printed precision).
TABLE1 = {
    0.1: ["21.086", "21.357", "21.396", "21.412", "21.421", "21.426"],
    0.3: ["6.3116", "6.5542", "6.5870", "6.6003", "6.6074", "6.6118"],
    0.5: ["3.3538", "3.5680", "3.5951", "3.6057", "3.6114", "3.6149"],
    0.6: ["2.6134", "2.8135", "2.8378", "2.8473", "2.8522", "2.8553"],
    0.7: ["2.0840", "2.2698", "2.2916", "2.3000", "2.3043", "2.3070"],
    0.9: ["1.3768", "1.5342", "1.5513", "1.5576", "1.5608", "1.5628"],
    1.0: ["1.1287", "1.2718", "1.2867", "1.2921", "1.2949", "1.2965"],
}
TABLE1_ORDERS = (3, 5, 7, 9, 11, 13)

# Published convergence orders, row k = 6.
TABLE2_K6 = {0.1: 0.984, 0.3: 0.995, 0.5: 1.006, 0.6: 1.012, 0.7: 1.018, 0.9: 1.029, 1.0: 1.036}


def last_digit_tol(printed: str) -> float:
    decimals = len(printed.split(".")[1])
    return 10.0 ** (-decimals)


def clear_caches():
    layer_operator.cache_clear()


def test_criterion_01_table1_reproduction():
    clear_caches()
    start = time.perf_counter()
    worst = 0.0
    for chi, printed_row in TABLE1.items():
        for order, printed in zip(TABLE1_ORDERS, printed_row):
            zeta = jump_coefficient(temperature_solution(order, chi))
            tol = last_digit_tol(printed)
            deviation = abs(zeta - float(printed))
            worst = max(worst, deviation / tol)
            assert deviation <= tol, (chi, order, zeta, printed)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"table took {elapsed:.2f} s"
    print(f"\nPASS criterion 1: 42 table cells within the last printed digit "
          f"(worst {worst:.2f} units, {elapsed:.2f} s)")


def test_criterion_02_order3_closed_form():
    worst = 0.0
    for chi in (0.1, 0.5, 1.0):
        sol = temperature_solution(3, chi)
        b = accommodation_factor(chi)
        t0_ref = -1.0 / (math.sqrt(5.0) * (6.0 + 3.0 * math.sqrt(5.0) * b))
        c0_ref = -1.0 / (2.0 * b) + 0.3 * t0_ref
        rate_ref = 3.0 / math.sqrt(5.0)
        t0 = sol.defect_amplitudes[0] * sol.heat_flux
        for got, ref in ((t0, t0_ref), (sol.intercept, c0_ref), (sol.decay_rates[0], rate_ref)):
            rel = abs(got - ref) / abs(ref)
            worst = max(worst, rel)
            assert rel <= 1e-12
    zeta = jump_coefficient(temperature_solution(3, 1.0))
    assert zeta == pytest.approx(1.1287, abs=1e-4)
    print(f"\nPASS criterion 2: order-3 closed form to 1e-12 (worst rel {worst:.2e}), "
          f"jump coefficient {zeta:.5f}")


def test_criterion_03_convergence_orders():
    clear_caches()
    start = time.perf_counter()
    worst = 0.0
    for chi, ref in TABLE2_K6.items():
        beta = convergence_order(chi, 6)
        deviation = abs(beta - ref)
        worst = max(worst, deviation)
        assert deviation <= 0.02, (chi, beta, ref)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"convergence orders took {elapsed:.1f} s"
    print(f"\nPASS criterion 3: beta_6 matches the published row within 0.02 "
          f"(worst {worst:.3f}, {elapsed:.1f} s)")


def test_criterion_04_chi_zero_limit():
    chi = 1e-4
    zeta = jump_coefficient(temperature_solution(13, chi))
    approach = chi / (2.0 - chi) * zeta
    limit = 5.0 * math.sqrt(math.pi) / 8.0
    rel = abs(approach - limit) / limit
    assert rel < 0.01
    assert limit == pytest.approx(1.107784, abs=1e-6)
    print(f"\nPASS criterion 4: small-accommodation limit approached to {rel:.2e}")


def test_criterion_04_chi_zero_residue_exact():
    # b(chi) ~ (2 / sqrt(2 pi)) (chi / (2 - chi)) as chi -> 0, so the limit of
    # (chi / (2 - chi)) zeta is sqrt(2 pi) / 2 times the residue at b = 0.
    # The pivot n00 is exactly 2 (temperature) and 1 (Kramers) at every order.
    for order in (3, 5, 129, 1025):
        limit = math.sqrt(2.0 * math.pi) / 2.0 * coefficient_curve(order).alpha
        assert limit == pytest.approx(5.0 * math.sqrt(math.pi) / 8.0, rel=1e-15, abs=0.0)
    for order in (4, 128, 1024):
        for pr in (2.0 / 3.0, 1.0):
            limit = math.sqrt(2.0 * math.pi) / 2.0 * coefficient_curve(order, pr=pr).alpha
            assert limit == pytest.approx(math.sqrt(math.pi) / 2.0, rel=1e-15, abs=0.0)
    print("\nPASS criterion 4 (exact): chi -> 0 residues equal 5 sqrt(pi) / 8 and sqrt(pi) / 2")


def test_criterion_05_prandtl_scaling():
    worst = 0.0
    for order in (3, 7, 13):
        base = jump_coefficient(temperature_solution(order, 0.6, pr=1.0))
        for pr in (0.5, 2.0 / 3.0, 1.0, 1.5):
            scaled = jump_coefficient(temperature_solution(order, 0.6, pr=pr))
            rel = abs(scaled * pr - base) / abs(base)
            worst = max(worst, rel)
            assert rel <= 1e-12
    print(f"\nPASS criterion 5: Prandtl scaling exact to 1e-12 (worst {worst:.2e})")


def test_criterion_06_spectral_structure(full_verification):
    # The full verify run pairs the spectra of every odd order 3-99 and every
    # even order 4-98 (Pr = 2/3) with the dense Jacobi oracle.
    worst_pair = full_verification.residual("parity spectrum vs dense Jacobi oracle")
    worst_orth = full_verification.residual("eigenvector orthogonality")
    assert worst_pair <= 1e-10
    assert worst_orth <= 1e-10
    print(f"\nPASS criterion 6: spectra pair with the dense oracle "
          f"(pairing {worst_pair:.2e}, orthogonality {worst_orth:.2e})")


def test_criterion_07_definiteness():
    # one chi-free wall system per order: T is factored once, K(chi) at each chi
    sampled_eigs = []
    for order in range(3, 100, 2):
        eigen = decompose(build_temperature_system(order))
        wbs = temperature_boundary_system(order)
        np.linalg.cholesky(-raw_wall_matrix(order))
        np.linalg.cholesky(-wbs.scaled_matrix)
        for chi in (0.1, 0.5, 1.0):
            np.linalg.cholesky(-wall_operator(wbs, eigen, chi))
        if order in (3, 45, 99):
            # eigenvalue sign sampling on a few instances
            w = dense_symmetric_eigvals(wall_operator(wbs, eigen, 0.5))
            sampled_eigs.append(float(w[-1]))
            assert w[-1] < 0.0
    for order in range(4, 99, 2):
        eigen = decompose(build_kramers_system(order, 1.0))
        wbs = kramers_boundary_system(order, 1.0)
        np.linalg.cholesky(-raw_wall_matrix(order))
        np.linalg.cholesky(-wbs.scaled_matrix)
        for chi in (0.1, 0.5, 1.0):
            np.linalg.cholesky(-wall_operator(wbs, eigen, chi))
    print(f"\nPASS criterion 7: boundary operators negative definite "
          f"(largest sampled eigenvalue {max(sampled_eigs):.3e})")


def test_criterion_08_half_space_integrals(full_verification):
    # The full verify run compares every pair a, b <= 30 with quadrature.
    worst_rel = full_verification.residual("half-space closed form vs quadrature (relative)")
    worst_zero = full_verification.residual("half-space zero pattern vs quadrature (absolute)")
    for a in range(31):
        for b in range(a, 31):
            closed_n = half_space_S_normalized(a, b)
            if closed_n == 0.0:
                assert (a + b) % 2 == 1 and abs(a - b) != 1
            assert half_space_S_normalized(b, a) == closed_n
    for a in range(0, 31, 2):
        for b in range(1, 31, 2):
            if abs(a - b) != 1:
                assert half_space_S_normalized(a, b) == 0.0
    assert worst_rel <= 1e-9
    assert worst_zero <= 1e-12
    print(f"\nPASS criterion 8: half-space integrals vs quadrature "
          f"(rel {worst_rel:.2e}, zeros {worst_zero:.2e})")


def test_criterion_09_bvp_equivalence():
    worst_dev = 0.0
    ratios = []
    for order in (3, 7, 4, 8):  # temperature jump for odd orders, Kramers for even
        dev, ratio = _bvp_deviation(order, 20000)
        ratios.append(ratio)
        worst_dev = max(worst_dev, dev)
        assert dev <= 1e-6, (order, dev)
    for ratio in ratios:
        assert 1.6 <= ratio <= 2.4, ratios
    print(f"\nPASS criterion 9: refined finite-difference oracle within 1e-6 "
          f"(worst {worst_dev:.2e}; halving ratios "
          + ", ".join(f"{r:.2f}" for r in ratios) + ")")


def test_criterion_10_linearity_and_kn_invariance():
    worst = 0.0
    y = np.linspace(0.0, 8.0, 33)
    base = temperature_solution(7, 0.8, q2=1.0)
    scaled = temperature_solution(7, 0.8, q2=3.0)
    rel = np.max(np.abs(scaled.temperature(y) - 3.0 * base.temperature(y))) / np.max(
        np.abs(scaled.temperature(y))
    )
    worst = max(worst, float(rel))
    assert rel <= 1e-12

    vb = velocity_solution(8, 0.8, sigma12=1.0)
    vs = velocity_solution(8, 0.8, sigma12=-2.5)
    rel = np.max(np.abs(vs.velocity(y) + 2.5 * vb.velocity(y))) / np.max(np.abs(vs.velocity(y)))
    worst = max(worst, float(rel))
    assert rel <= 1e-12

    kn_a = temperature_solution(7, 0.8, kn=0.1)
    kn_b = temperature_solution(7, 0.8, kn=1.0)
    rel = np.max(
        np.abs(kn_a.defect_amplitudes - kn_b.defect_amplitudes)
    ) / np.max(np.abs(kn_b.defect_amplitudes))
    worst = max(worst, float(rel))
    assert rel <= 1e-12
    za = jump_coefficient(kn_a) / 0.1
    zb = jump_coefficient(kn_b) / 1.0
    rel = abs(za - zb) / abs(zb)
    worst = max(worst, rel)
    assert rel <= 1e-12
    print(f"\nPASS criterion 10: flux linearity and Kn invariance to 1e-12 "
          f"(worst {worst:.2e})")
