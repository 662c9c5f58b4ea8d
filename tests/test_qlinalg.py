import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from qdelete import qlinalg
from qdelete.presets import by_name
from helpers import ANC_A0, KET0, einsum_traces, outputs


def random_state(rng):
    """A complex Gaussian 12-vector, not normalized."""
    return rng.standard_normal(12) + 1j * rng.standard_normal(12)


def test_joint_index_is_the_kron_basis_position():
    # the flat index of |q1, q2, anc> is the position of the one in the
    # triple Kronecker product of the basis vectors
    for q1, q2, anc in np.ndindex(2, 2, 3):
        s = np.kron(np.eye(2)[q1], np.kron(np.eye(2)[q2], np.eye(3)[anc]))
        assert s[qlinalg.joint_index(q1, q2, anc)] == 1.0
        assert np.count_nonzero(s) == 1


SIGMA = np.array([0.6, 0.8], dtype=complex)


@pytest.mark.parametrize(
    "trace, expected",
    [
        pytest.param(qlinalg.partial_trace_mode1, np.array([[1, 0], [0, 0]], dtype=complex),
                     id="mode1"),
        pytest.param(qlinalg.partial_trace_mode2, np.outer(SIGMA, SIGMA.conj()), id="mode2"),
    ],
)
def test_partial_traces_of_a_product_state(trace, expected):
    s = np.kron(KET0, np.kron(SIGMA, ANC_A0))
    assert_allclose(trace(s), expected, atol=1e-12)


def test_partial_trace_mode1_case3_balanced_input():
    # brute-force partial trace of the case3 output at alpha = beta = 1/sqrt(2)
    p = by_name("case3")
    rho = qlinalg.partial_trace_mode1(outputs(p, 0.5))
    assert_allclose(rho, 0.5 * np.eye(2), atol=1e-12)


def test_partial_trace_mode1_uniform_amplitudes():
    s = np.full(12, 1 / math.sqrt(12), dtype=complex)
    rho = qlinalg.partial_trace_mode1(s)
    assert_allclose(rho, np.full((2, 2), 0.5, dtype=complex), atol=1e-12)


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
        s = random_state(rng)
        n = np.vdot(s, s).real
        t1 = float(np.trace(qlinalg.partial_trace_mode1(s)).real)
        t2 = float(np.trace(qlinalg.partial_trace_mode2(s)).real)
        assert abs(t1 - n) <= 1e-12 * max(1.0, n)
        assert abs(t2 - n) <= 1e-12 * max(1.0, n)


def test_partial_traces_batched_match_per_state():
    rng = np.random.default_rng(20)
    batch = np.array([random_state(rng) for _ in range(6)]).reshape(2, 3, 12)
    for trace in (qlinalg.partial_trace_mode1, qlinalg.partial_trace_mode2):
        stacked = trace(batch)
        assert stacked.shape == (2, 3, 2, 2)
        for idx in np.ndindex(2, 3):
            assert_allclose(stacked[idx], trace(batch[idx]), atol=1e-15)


@pytest.mark.parametrize("shape", [(12,), (5, 12), (3, 4, 12), (1001, 12), (0, 12)])
def test_partial_traces_keep_their_bytes_on_a_grid_innermost_stack(shape):
    # one `einsum` per trace on the C-contiguous stack is the reference order
    rng = np.random.default_rng(31)
    s = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    expected = einsum_traces(s)
    for stack in (s, np.ascontiguousarray(s.T).T):
        for trace, want in zip((qlinalg.partial_trace_mode1, qlinalg.partial_trace_mode2), expected):
            assert trace(stack).tobytes() == want.tobytes()


def test_outputs_put_the_grid_axis_innermost():
    # the traces are several times faster on this layout than on the row-major one
    assert outputs(by_name("case3"), np.linspace(0.0, 1.0, 21)).T.flags.c_contiguous
