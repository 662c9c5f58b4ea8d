"""The joint-state index and the partial traces on qubit (x) qubit (x) ancilla(3).

Pure joint states live in C^2 (x) C^2 (x) C^3 and are stored as flat complex
vectors of length 12 indexed by (q1, q2, anc) with flat index
``6*q1 + 3*q2 + anc``, the order of ``np.kron(q1, np.kron(q2, anc))``.  This
convention is normative: the isometry's layout and the tests rely on it.
Reduced single-qubit states are 2x2 complex Hermitian matrices.  The partial
traces take a state of shape (12,) or a stack of shape (..., 12) and return
reduced states of shape (..., 2, 2); `machine.reduced_blocks` takes them of
the (3, 12) stack of a machine's ancilla slices.  They give the same bits on a
row-major stack and on one with the batch axes innermost in memory.

All operations are pure functions on immutable values.
"""

from __future__ import annotations

import numpy as np

#: Dimension of the flat joint state vector.
JOINT_DIM = 12


def joint_index(q1: int, q2: int, anc: int) -> int:
    """Flat index of the basis vector |q1, q2, anc>."""
    return 6 * q1 + 3 * q2 + anc


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
    """Reduced density matrix of the second qubit, tracing out mode 1 and the ancilla.

    rho[j, j'] = sum_i (sum_k s[i,j,k] * conj(s[i,j',k])), summed over the
    ancilla for each q1 and then over q1.  That is the order in which one
    `einsum` over (i, k) adds on a row-major stack; on a batch-innermost stack
    it adds in another order, so the two steps keep the row-major bits on
    both layouts.
    """
    t = _split(state)
    per_q1 = np.einsum("...ijk,...ilk->...ijl", t, t.conj())
    return per_q1[..., 0, :, :] + per_q1[..., 1, :, :]
