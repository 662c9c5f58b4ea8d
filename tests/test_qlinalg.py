import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from qdelete import qlinalg
from qdelete.machine import outputs
from qdelete.presets import by_name

KET0 = np.array([1, 0], dtype=complex)
KET1 = np.array([0, 1], dtype=complex)
ANC_Q = np.array([1, 0, 0], dtype=complex)
ANC_A0 = np.array([0, 1, 0], dtype=complex)
ANC_A1 = np.array([0, 0, 1], dtype=complex)


def random_state(rng, normalize=True):
    s = rng.standard_normal(12) + 1j * rng.standard_normal(12)
    if normalize:
        s = s / np.linalg.norm(s)
    return s


def random_hermitian(rng):
    a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    return 0.5 * (a + a.conj().T)


def test_joint_index_convention():
    assert qlinalg.joint_index(0, 0, 0) == 0
    assert qlinalg.joint_index(0, 1, 2) == 5
    assert qlinalg.joint_index(1, 0, 1) == 7
    assert qlinalg.joint_index(1, 1, 2) == 11


def test_basis_state_matches_index():
    s = qlinalg.basis_state(1, 0, 2)
    assert s[qlinalg.joint_index(1, 0, 2)] == 1.0
    assert qlinalg.norm_sq(s) == 1.0


def test_tensor3_basis_cases():
    s = qlinalg.tensor3(KET0, KET0, ANC_Q)
    expected = np.zeros(12, dtype=complex)
    expected[qlinalg.joint_index(0, 0, 0)] = 1.0
    assert_allclose(s, expected, atol=0)

    s = qlinalg.tensor3(KET1, KET1, ANC_A1)
    expected = np.zeros(12, dtype=complex)
    expected[qlinalg.joint_index(1, 1, 2)] = 1.0
    assert_allclose(s, expected, atol=0)


def test_tensor3_superposition():
    q1 = np.array([0.6, 0.8], dtype=complex)
    s = qlinalg.tensor3(q1, KET0, ANC_Q)
    assert s[qlinalg.joint_index(0, 0, 0)] == 0.6
    assert s[qlinalg.joint_index(1, 0, 0)] == 0.8
    assert np.count_nonzero(s) == 2
    assert abs(qlinalg.norm_sq(s) - 1.0) <= 1e-12


def test_tensor3_norm_multiplicative():
    rng = np.random.default_rng(11)
    for _ in range(25):
        q1 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        q2 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        anc = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        out = qlinalg.tensor3(q1, q2, anc)
        prod = (
            np.vdot(q1, q1).real * np.vdot(q2, q2).real * np.vdot(anc, anc).real
        )
        assert abs(qlinalg.norm_sq(out) - prod) <= 1e-9 * max(1.0, prod)


def test_tensor3_linear_in_each_argument():
    rng = np.random.default_rng(12)
    q1a = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    q1b = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    q2 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    anc = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    a, b = 0.3 - 0.7j, 1.1 + 0.2j
    combined = qlinalg.tensor3(a * q1a + b * q1b, q2, anc)
    separate = a * qlinalg.tensor3(q1a, q2, anc) + b * qlinalg.tensor3(q1b, q2, anc)
    assert_allclose(combined, separate, atol=1e-12)


def test_tensor3_rejects_bad_shapes():
    with pytest.raises(ValueError):
        qlinalg.tensor3(KET0, KET0, KET0)


def test_partial_trace_mode1_product_state():
    sigma = np.array([0.6, 0.8], dtype=complex)
    s = qlinalg.tensor3(KET0, sigma, ANC_A0)
    rho = qlinalg.partial_trace_mode1(s)
    assert_allclose(rho, np.array([[1, 0], [0, 0]], dtype=complex), atol=1e-12)


def test_partial_trace_mode1_case3_balanced_input():
    # brute-force partial trace of the case3 output at alpha = beta = 1/sqrt(2)
    p = by_name("case3").params
    rho = qlinalg.partial_trace_mode1(outputs(p, 0.5))
    assert_allclose(rho, 0.5 * np.eye(2), atol=1e-12)


def test_partial_trace_mode1_uniform_amplitudes():
    s = np.full(12, 1 / math.sqrt(12), dtype=complex)
    rho = qlinalg.partial_trace_mode1(s)
    assert_allclose(rho, np.full((2, 2), 0.5, dtype=complex), atol=1e-12)


def test_partial_trace_mode2_product_state():
    sigma = np.array([0.6, 0.8], dtype=complex)
    s = qlinalg.tensor3(KET0, sigma, ANC_A0)
    rho = qlinalg.partial_trace_mode2(s)
    assert_allclose(rho, np.outer(sigma, sigma.conj()), atol=1e-12)


def test_partial_trace_mode2_perfect_preset():
    p = by_name("perfect").params
    for alpha_sq in (0.0, 0.3, 0.5, 1.0):
        rho = qlinalg.partial_trace_mode2(outputs(p, alpha_sq))
        assert_allclose(rho, np.array([[1, 0], [0, 0]], dtype=complex), atol=1e-12)


def test_partial_trace_mode2_case2_balanced_input():
    record = by_name("case2")
    sigma = record.sigma.ket()
    rho = qlinalg.partial_trace_mode2(outputs(record.params, 0.5))
    expected = 0.5 * np.outer(sigma, sigma.conj()) + 0.25 * np.eye(2)
    assert_allclose(rho, expected, atol=1e-12)


def test_partial_trace_trace_equals_norm_sq():
    rng = np.random.default_rng(13)
    for _ in range(30):
        s = random_state(rng, normalize=False)
        n = qlinalg.norm_sq(s)
        t1 = float(np.trace(qlinalg.partial_trace_mode1(s)).real)
        t2 = float(np.trace(qlinalg.partial_trace_mode2(s)).real)
        assert abs(t1 - n) <= 1e-12 * max(1.0, n)
        assert abs(t2 - n) <= 1e-12 * max(1.0, n)


def test_partial_traces_hermitian_psd():
    rng = np.random.default_rng(14)
    for _ in range(30):
        s = random_state(rng)
        for rho in (qlinalg.partial_trace_mode1(s), qlinalg.partial_trace_mode2(s)):
            assert_allclose(rho, rho.conj().T, atol=1e-12)
            assert np.linalg.eigvalsh(rho).min() >= -1e-12


def test_partial_traces_batched_match_per_state():
    rng = np.random.default_rng(20)
    batch = np.array([random_state(rng, normalize=False) for _ in range(6)]).reshape(2, 3, 12)
    for trace in (qlinalg.partial_trace_mode1, qlinalg.partial_trace_mode2):
        stacked = trace(batch)
        assert stacked.shape == (2, 3, 2, 2)
        for idx in np.ndindex(2, 3):
            assert_allclose(stacked[idx], trace(batch[idx]), atol=1e-15)


def test_hs_distance_examples():
    rho0 = np.array([[1, 0], [0, 0]], dtype=complex)
    rho1 = np.array([[0, 0], [0, 1]], dtype=complex)
    assert qlinalg.hs_distance_sq(rho0, rho0) == 0.0
    assert abs(qlinalg.hs_distance_sq(rho0, rho1) - 2.0) <= 1e-12
    # pure balanced input vs the maximally mixed state: 2 * (alpha*beta)^2
    ab = 0.5
    ideal = np.array([[0.5, ab], [ab, 0.5]], dtype=complex)
    assert abs(qlinalg.hs_distance_sq(ideal, 0.5 * np.eye(2)) - 0.5) <= 1e-12


def test_hs_distance_symmetric_nonnegative():
    rng = np.random.default_rng(15)
    for _ in range(20):
        a, b = random_hermitian(rng), random_hermitian(rng)
        d = qlinalg.hs_distance_sq(a, b)
        assert d >= 0.0
        assert abs(d - qlinalg.hs_distance_sq(b, a)) <= 1e-12


def test_hs_distance_zero_iff_equal():
    rng = np.random.default_rng(16)
    a = random_hermitian(rng)
    assert qlinalg.hs_distance_sq(a, a.copy()) <= 1e-15
    b = a.copy()
    b[0, 0] += 1e-6
    assert qlinalg.hs_distance_sq(a, b) > 1e-13


def test_hs_distance_triangle_consistency():
    rng = np.random.default_rng(17)
    for _ in range(50):
        a, b, c = (random_hermitian(rng) for _ in range(3))
        dac = math.sqrt(qlinalg.hs_distance_sq(a, c))
        dab = math.sqrt(qlinalg.hs_distance_sq(a, b))
        dbc = math.sqrt(qlinalg.hs_distance_sq(b, c))
        assert dac <= dab + dbc + 1e-9


def test_expectation_examples():
    rho0 = np.array([[1, 0], [0, 0]], dtype=complex)
    assert qlinalg.expectation(rho0, KET0) == 1.0
    assert qlinalg.expectation(rho0, KET1) == 0.0
    rng = np.random.default_rng(18)
    for _ in range(5):
        v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        v = v / np.linalg.norm(v)
        assert abs(qlinalg.expectation(0.5 * np.eye(2), v) - 0.5) <= 1e-12


def test_expectation_real_in_unit_interval():
    rng = np.random.default_rng(19)
    for _ in range(20):
        s = random_state(rng)
        rho = qlinalg.partial_trace_mode2(s)
        v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        v = v / np.linalg.norm(v)
        ev = qlinalg.expectation(rho, v)
        assert -1e-12 <= ev <= 1.0 + 1e-12
