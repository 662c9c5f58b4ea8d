"""Helpers that more than one test module uses, each written once.

The kets and `reference_images` build the machine's basis images with
``np.kron`` and index writes, without `machine.isometry`, so tests can check
the isometry against them.  `outputs`, `input_state` and `einsum_traces` are
the per-point simulation that `metrics.curves` is checked against: one
12-amplitude output state per x and both partial traces of it.
`random_machine` draws machines with generic rows, which `optimizer.decode`'s
rows u/2 -+ w are not.
"""

import math
from collections import Counter

import numpy as np

from qdelete import machine, qlinalg
from qdelete.machine import BlankState, Couplings, MachineParams

KET0, KET1 = np.eye(2, dtype=complex)
#: The ancilla kets |A0> and |A1>.
ANC_A0, ANC_A1 = np.eye(3, dtype=complex)[[machine.ANC_A0, machine.ANC_A1]]


def rows(p: MachineParams) -> np.ndarray:
    """The two amplitude rows (a_i, b_i, c_i, d_i) as a 2x4 array."""
    return np.array([[p.a0, p.b0, p.c0, p.d0], [p.a1, p.b1, p.c1, p.d1]], dtype=complex)


def with_couplings(
    c: Couplings, sigma: BlankState = BlankState(machine.DEFAULT_M1P)
) -> MachineParams:
    """A machine (valid or not) whose couplings are exactly ``c``: row 0 holds them, row 1 is 0."""
    return MachineParams(a0=c.g, b0=c.h, c0=c.e, d0=c.f, sigma=sigma)


def from_rows(row0, row1, sigma: BlankState) -> MachineParams:
    """A machine (valid or not) with amplitude rows ``row0`` and ``row1``, as Python complexes."""
    return MachineParams(*np.asarray([row0, row1], dtype=complex).ravel().tolist(), sigma)


def random_machine(rng: np.random.Generator) -> MachineParams:
    """Draw a valid machine: rows from the QR of a complex Gaussian 4x2, m1p = cos N(0,1).

    LAPACK's QR varies in its last bits with the BLAS kernel, and so does the drawn machine.
    """
    q, _ = np.linalg.qr(rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2)))
    return from_rows(q[:, 0], q[:, 1], BlankState(math.cos(rng.standard_normal())))


def coordinates(c: Couplings) -> list[float]:
    """The (re, im) pairs of the couplings (g, h, e, f): the scorer's 8 floats before m1p."""
    return np.array(c, dtype=complex).view(float).tolist()


def raw_of(u, m1p: float) -> np.ndarray:
    """Raw search point of the couplings u = (g, h, e, f) and m1p."""
    return np.append(np.asarray(u, dtype=complex).view(float), math.acos(m1p))


def reference_images(p: MachineParams) -> list[np.ndarray]:
    """Images of |00>, |01>, |10>, |11> (times |Q>), built without `isometry`."""
    sig = p.sigma.ket()
    images = [np.kron(KET0, np.kron(sig, ANC_A0))]
    for a, b, c, d in rows(p):
        image = np.zeros(qlinalg.JOINT_DIM, dtype=complex)
        image[qlinalg.joint_index(0, 1, machine.ANC_Q)] = a
        image[qlinalg.joint_index(1, 0, machine.ANC_Q)] = b
        image[qlinalg.joint_index(0, 0, machine.ANC_Q)] = c
        image[qlinalg.joint_index(1, 1, machine.ANC_Q)] = d
        images.append(image)
    images.append(np.kron(KET1, np.kron(sig, ANC_A1)))
    return images


def outputs(p: MachineParams, alpha_sq) -> np.ndarray:
    """The per-point reference simulation: output states (..., 12) of (alpha|0> + beta|1>)^{(x)2}.

    With x = alpha^2, each output amplitude is one row sum of the isometry times
    the weight of its ancilla: ab = sqrt(x(1-x)) for |Q>, x for |A0> and 1 - x for
    |A1>.  The grid axes are innermost in memory.
    """
    x = machine.check_alpha_sq(alpha_sq).T  # the two transposes keep the grid axes in order
    w = np.stack((np.sqrt(x * (1.0 - x)), x, 1.0 - x))  # weights of |Q>, |A0>, |A1>
    rows = machine.isometry(p).sum(axis=1).reshape((4, 3) + (1,) * x.ndim)
    return (rows * w).reshape((12,) + x.shape).T


def input_state(alpha_sq) -> np.ndarray:
    """Density matrix of the pure input alpha|0> + beta|1>, x = alpha^2; a grid gives a stack."""
    x = machine.check_alpha_sq(alpha_sq)
    ab = np.sqrt(x * (1.0 - x))
    return np.stack((x, ab, ab, 1.0 - x), axis=-1).reshape(x.shape + (2, 2)).astype(complex)


def einsum_traces(states) -> tuple[np.ndarray, np.ndarray]:
    """Both partial traces as one `einsum` each on a C-contiguous copy of the stack.

    This is the order of additions that `qlinalg` keeps on both the row-major
    and the grid-innermost layout, so the tests compare its bytes with the
    package's.
    """
    t = np.ascontiguousarray(states, dtype=complex)
    t = t.reshape(t.shape[:-1] + (2, 2, 3))
    return (np.einsum("...ijk,...ljk->...il", t, t.conj()),
            np.einsum("...ijk,...ilk->...jl", t, t.conj()))


def count_calls(monkeypatch, *targets) -> Counter:
    """Wrap each (module or class, function name) target to count its calls by name."""
    calls = Counter()

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls[fn.__name__] += 1
            return fn(*args, **kwargs)

        return wrapper

    for owner, name in targets:
        monkeypatch.setattr(owner, name, counted(getattr(owner, name)))
    return calls
