"""Complex linear algebra on the qubit (x) qubit (x) three-level-ancilla space.

Pure joint states live in C^2 (x) C^2 (x) C^3 and are stored as flat complex
vectors of length 12 indexed by (q1, q2, anc) with flat index
``6*q1 + 3*q2 + anc``.  This convention is normative: file formats and tests
rely on it.  Reduced single-qubit states are 2x2 complex Hermitian matrices.
The partial traces also take a stack of states, shape (..., 12), and return
the stack of reduced states, shape (..., 2, 2).

All operations are pure functions on immutable values.
"""

from __future__ import annotations

import numpy as np

#: Dimension of the flat joint state vector.
JOINT_DIM = 12


def joint_index(q1: int, q2: int, anc: int) -> int:
    """Flat index of the basis vector |q1, q2, anc>."""
    return 6 * q1 + 3 * q2 + anc


def basis_state(q1: int, q2: int, anc: int) -> np.ndarray:
    """Joint basis vector |q1, q2, anc> as a flat length-12 amplitude vector."""
    out = np.zeros(JOINT_DIM, dtype=complex)
    out[joint_index(q1, q2, anc)] = 1.0
    return out


def tensor3(q1, q2, anc) -> np.ndarray:
    """Tensor product of a qubit vector, a qubit vector and an ancilla vector.

    The result follows the flat index convention, so
    ``tensor3(u, v, w)[joint_index(i, j, k)] == u[i] * v[j] * w[k]``.
    """
    q1 = np.asarray(q1, dtype=complex)
    q2 = np.asarray(q2, dtype=complex)
    anc = np.asarray(anc, dtype=complex)
    if q1.shape != (2,) or q2.shape != (2,) or anc.shape != (3,):
        raise ValueError(
            f"expected shapes (2,), (2,), (3,); got {q1.shape}, {q2.shape}, {anc.shape}"
        )
    return np.kron(q1, np.kron(q2, anc))


def norm_sq(state) -> float:
    """Squared Euclidean norm of a state vector."""
    state = np.asarray(state, dtype=complex)
    return float(np.vdot(state, state).real)


def _split(state) -> np.ndarray:
    state = np.asarray(state, dtype=complex)
    return state.reshape(state.shape[:-1] + (2, 2, 3))


def partial_trace_mode1(state) -> np.ndarray:
    """Reduced density matrix of the first qubit, tracing out mode 2 and the ancilla.

    rho[i, i'] = sum_{j,k} s[i,j,k] * conj(s[i',j,k]); Hermitian with
    trace equal to the squared norm of the input.  Leading axes are batch axes.
    """
    t = _split(state)
    return np.einsum("...ijk,...ljk->...il", t, t.conj())


def partial_trace_mode2(state) -> np.ndarray:
    """Reduced density matrix of the second qubit, tracing out mode 1 and the ancilla."""
    t = _split(state)
    return np.einsum("...ijk,...ilk->...jl", t, t.conj())


def hs_distance_sq(a, b) -> float:
    """Squared Hilbert-Schmidt distance Tr[(a - b)^2] between Hermitian matrices."""
    d = np.asarray(a, dtype=complex) - np.asarray(b, dtype=complex)
    return float(np.trace(d @ d).real)


def expectation(rho, v) -> float:
    """Expectation value <v| rho |v> of a Hermitian matrix in a pure state."""
    rho = np.asarray(rho, dtype=complex)
    v = np.asarray(v, dtype=complex)
    return float(np.vdot(v, rho @ v).real)
