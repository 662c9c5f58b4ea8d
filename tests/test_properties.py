"""Property-based tests of the simulation kernel on random machines.

Machines are drawn as the QR factor of a complex Gaussian 4x2 matrix (so the
two amplitude rows are orthonormal), with a random blank-state overlap.
Grids always contain the endpoints x = 0 and x = 1.  Examples are
derandomized so that every run checks the same cases.
"""

import math

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from qdelete import machine, metrics, qlinalg
from qdelete.machine import BlankState, MachineParams

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True)

KET0 = np.array([1, 0], dtype=complex)
KET1 = np.array([0, 1], dtype=complex)
ANC = np.eye(3, dtype=complex)

seeds = st.integers(min_value=0, max_value=2**32 - 1)
overlaps = st.floats(min_value=-1.0, max_value=1.0)
grids = st.lists(st.floats(min_value=0.0, max_value=1.0), max_size=20).map(
    lambda xs: np.array([0.0, 1.0] + xs)
)


def qr_machine(seed: int, m1p: float, perturbation: float = 0.0, tilt: float = 0.0):
    """A machine from orthonormal rows, then optionally broken.

    ``perturbation`` adds Gaussian noise of that size to both rows; ``tilt``
    turns row 1 towards row 0 by that angle, which keeps both norms at 1 and
    breaks only orthogonality.
    """
    rng = np.random.default_rng(seed)
    gauss = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
    q, _ = np.linalg.qr(gauss)
    noise = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
    q = q + perturbation * noise
    row1 = math.cos(tilt) * q[:, 1] + math.sin(tilt) * q[:, 0]
    return MachineParams.from_rows(q[:, 0], row1, BlankState(m1p))


def reference_images(p: MachineParams) -> list[np.ndarray]:
    """Images of |00>, |01>, |10>, |11> (times |Q>), built without `isometry`."""
    sig = p.sigma.ket()
    images = [qlinalg.tensor3(KET0, sig, ANC[machine.ANC_A0])]
    for a, b, c, d in (p.row0(), p.row1()):
        image = np.zeros(qlinalg.JOINT_DIM, dtype=complex)
        image[qlinalg.joint_index(0, 1, machine.ANC_Q)] = a
        image[qlinalg.joint_index(1, 0, machine.ANC_Q)] = b
        image[qlinalg.joint_index(0, 0, machine.ANC_Q)] = c
        image[qlinalg.joint_index(1, 1, machine.ANC_Q)] = d
        images.append(image)
    images.append(qlinalg.tensor3(KET1, sig, ANC[machine.ANC_A1]))
    return images


@PROPERTY
@given(seeds, overlaps, grids)
def test_outputs_match_tensor_product_reference(seed, m1p, xs):
    p = qr_machine(seed, m1p)
    img00, img01, img10, img11 = reference_images(p)
    batch = machine.outputs(p, xs)
    for x, state in zip(xs, batch):
        ab = math.sqrt(x * (1.0 - x))
        expected = x * img00 + ab * (img01 + img10) + (1.0 - x) * img11
        assert_allclose(state, expected, rtol=0, atol=1e-13)


@PROPERTY
@given(seeds, overlaps, grids)
def test_batched_reduced_states_are_hermitian_with_unit_trace(seed, m1p, xs):
    states = machine.outputs(qr_machine(seed, m1p), xs)
    for rho in (qlinalg.partial_trace_mode1(states), qlinalg.partial_trace_mode2(states)):
        assert rho.shape == (xs.size, 2, 2)
        assert_allclose(rho, rho.conj().swapaxes(-1, -2), rtol=0, atol=1e-15)
        assert_allclose(np.trace(rho, axis1=-2, axis2=-1), 1.0, rtol=0, atol=1e-12)


@PROPERTY
@given(seeds, overlaps, grids)
def test_fidelity_in_unit_interval_and_distortion_nonnegative(seed, m1p, xs):
    p = qr_machine(seed, m1p)
    fidelity = metrics.fidelity_curve(p, xs)
    distortion = metrics.distortion_curve(p, xs)
    # bounds hold up to rounding of the last bits
    assert np.all(fidelity >= -1e-15) and np.all(fidelity <= 1.0 + 1e-12)
    assert np.all(distortion >= -1e-15)


@PROPERTY
@given(seeds, overlaps, grids)
def test_fidelity_curve_matches_consistent_closed_form(seed, m1p, xs):
    p = qr_machine(seed, m1p)
    deficit = metrics.fidelity_deficit(machine.couplings(p), p.sigma, "consistent")
    closed = metrics.fidelity_closed(deficit, xs)
    assert_allclose(metrics.fidelity_curve(p, xs), closed, rtol=0, atol=1e-10)


@PROPERTY
@given(
    seeds,
    overlaps,
    st.sampled_from([0.0, 1e-13, 1e-11, 1e-9, 1e-7, 1e-4]),
    st.sampled_from([0.0, 1e-11, 1e-9, 1e-7]),
    st.sampled_from([1e-12, 1e-10, 1e-8, 1e-6]),
)
def test_validity_iff_reference_columns_orthonormal_within_tol(
    seed, m1p, perturbation, tilt, tol
):
    p = qr_machine(seed, m1p, perturbation, tilt)
    images = reference_images(p)
    defect = max(
        abs(np.vdot(images[k], images[l]) - (k == l)) for k in range(4) for l in range(4)
    )
    # rounding decides cases within a hair of the tolerance; skip those
    assume(abs(defect - tol) > 1e-3 * tol)
    assert machine.validate(p, tol).is_valid == (defect <= tol)
