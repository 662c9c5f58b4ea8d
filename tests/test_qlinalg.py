import math

import numpy as np
from numpy.testing import assert_allclose

from qdelete import qlinalg
from qdelete.machine import outputs
from qdelete.presets import by_name

KET0 = np.array([1, 0], dtype=complex)
ANC_A0 = np.array([0, 1, 0], dtype=complex)


def random_state(rng, normalize=True):
    s = rng.standard_normal(12) + 1j * rng.standard_normal(12)
    if normalize:
        s = s / np.linalg.norm(s)
    return s


def test_joint_index_is_the_kron_basis_position():
    # the flat index of |q1, q2, anc> is the position of the one in the
    # triple Kronecker product of the basis vectors
    for q1, q2, anc in np.ndindex(2, 2, 3):
        s = np.kron(np.eye(2)[q1], np.kron(np.eye(2)[q2], np.eye(3)[anc]))
        assert s[qlinalg.joint_index(q1, q2, anc)] == 1.0
        assert np.count_nonzero(s) == 1


def test_partial_trace_mode1_product_state():
    sigma = np.array([0.6, 0.8], dtype=complex)
    s = np.kron(KET0, np.kron(sigma, ANC_A0))
    rho = qlinalg.partial_trace_mode1(s)
    assert_allclose(rho, np.array([[1, 0], [0, 0]], dtype=complex), atol=1e-12)


def test_partial_trace_mode1_case3_balanced_input():
    # brute-force partial trace of the case3 output at alpha = beta = 1/sqrt(2)
    p = by_name("case3")
    rho = qlinalg.partial_trace_mode1(outputs(p, 0.5))
    assert_allclose(rho, 0.5 * np.eye(2), atol=1e-12)


def test_partial_trace_mode1_uniform_amplitudes():
    s = np.full(12, 1 / math.sqrt(12), dtype=complex)
    rho = qlinalg.partial_trace_mode1(s)
    assert_allclose(rho, np.full((2, 2), 0.5, dtype=complex), atol=1e-12)


def test_partial_trace_mode2_product_state():
    sigma = np.array([0.6, 0.8], dtype=complex)
    s = np.kron(KET0, np.kron(sigma, ANC_A0))
    rho = qlinalg.partial_trace_mode2(s)
    assert_allclose(rho, np.outer(sigma, sigma.conj()), atol=1e-12)


def test_partial_trace_mode2_perfect_preset():
    p = by_name("perfect")
    for alpha_sq in (0.0, 0.3, 0.5, 1.0):
        rho = qlinalg.partial_trace_mode2(outputs(p, alpha_sq))
        assert_allclose(rho, np.array([[1, 0], [0, 0]], dtype=complex), atol=1e-12)


def test_partial_trace_mode2_case2_balanced_input():
    p = by_name("case2")
    sigma = p.sigma.ket()
    rho = qlinalg.partial_trace_mode2(outputs(p, 0.5))
    expected = 0.5 * np.outer(sigma, sigma.conj()) + 0.25 * np.eye(2)
    assert_allclose(rho, expected, atol=1e-12)


def test_partial_trace_trace_equals_norm_sq():
    rng = np.random.default_rng(13)
    for _ in range(30):
        s = random_state(rng, normalize=False)
        n = np.vdot(s, s).real
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


def test_reduced_state_expectation_real_in_unit_interval():
    rng = np.random.default_rng(19)
    for _ in range(20):
        s = random_state(rng)
        rho = qlinalg.partial_trace_mode2(s)
        v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        v = v / np.linalg.norm(v)
        ev = np.vdot(v, rho @ v).real
        assert -1e-12 <= ev <= 1.0 + 1e-12
