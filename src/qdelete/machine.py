"""The generalized two-copy deletion machine: parameters, validation, application.

The machine is a linear isometry defined on the four inputs |i>|j>|Q> of the
qubit (x) qubit (x) ancilla space.  The diagonal inputs are mapped to product
states carrying a blank state |sigma> and a flag ancilla; the off-diagonal
inputs are mapped into the two-qubit space (ancilla left in |Q>) with eight
complex amplitudes, four per input:

    |0>|0>|Q> -> |0>|sigma>|A0>
    |0>|1>|Q> -> (a0|01> + b0|10> + c0|00> + d0|11>) |Q>
    |1>|0>|Q> -> (a1|01> + b1|10> + c1|00> + d1|11>) |Q>
    |1>|1>|Q> -> |1>|sigma>|A1>

The ancilla basis {|Q>, |A0>, |A1>} is fixed and orthonormal (indices 0, 1, 2
of the third tensor factor).  Every simulation goes through the 12x4 matrix V
of `isometry`.  The map is an isometry exactly when V^dagger V = 1, that is,
when the two amplitude rows (a_i, b_i, c_i, d_i) are orthonormal in C^4;
`validate` reports how far a parameter set is from satisfying that.

Machine parameter files are JSON objects with keys "a0", "b0", "c0", "d0",
"a1", "b1", "c1", "d1", each a two-element array [re, im], plus "m1p", the
real overlap <sigma|0>.  Parsers reject missing keys and non-finite values.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import qlinalg

#: Ancilla basis indices.
ANC_Q, ANC_A0, ANC_A1 = 0, 1, 2

#: Default tolerance for machine validation.
DEFAULT_VALIDATION_TOL = 1e-10

#: Default blank-state overlap <sigma|0>; at m1p^2 = 1/2 the two fidelity
#: conventions of the metrics module coincide.
DEFAULT_M1P = math.sqrt(0.5)

#: Keys of the machine JSON format, in canonical order.
AMPLITUDE_KEYS = ("a0", "b0", "c0", "d0", "a1", "b1", "c1", "d1")

#: Flat positions in the row-major 12x4 isometry of (sigma, row0, row1, sigma):
#: sigma fills |0>|.>|A0> of column 0 and |1>|.>|A1> of column 3, and row i
#: fills |01>, |10>, |00>, |11> (ancilla |Q>) of column 1 + i.
_ISOMETRY_SCATTER = np.array(
    [4 * qlinalg.joint_index(0, q2, ANC_A0) for q2 in (0, 1)]
    + [4 * qlinalg.joint_index(q1, q2, ANC_Q) + col
       for col in (1, 2) for q1, q2 in ((0, 1), (1, 0), (0, 0), (1, 1))]
    + [4 * qlinalg.joint_index(1, q2, ANC_A1) + 3 for q2 in (0, 1)]
)

_EYE4 = np.eye(4)


class MachineFormatError(ValueError):
    """A machine parameter file or dictionary could not be parsed."""


class MachineValidationError(ValueError):
    """An operation that requires a valid machine received an invalid one."""

    def __init__(self, report: "ValidationReport"):
        super().__init__(
            "machine violates the isometry conditions: "
            f"row norm defects ({report.row0_norm_defect:.3e}, "
            f"{report.row1_norm_defect:.3e}), orthogonality defect "
            f"{report.orthogonality_defect:.3e} at tol {report.tol:.1e}"
        )
        self.report = report


@dataclass(frozen=True)
class BlankState:
    """Blank state |sigma> = m1p |0> + sqrt(1 - m1p^2) |1>, m1p real in [-1, 1]."""

    m1p: float

    def __post_init__(self):
        m = self.m1p
        real = isinstance(m, (int, float)) and not isinstance(m, bool)
        if not (real and -1.0 <= m <= 1.0):  # false for NaN; ints compare exactly
            raise ValueError(f"m1p must be a finite real in [-1, 1], got {m!r}")

    def ket(self) -> np.ndarray:
        """Amplitude vector of |sigma>, normalized by construction."""
        return np.array([self.m1p, math.sqrt(1.0 - self.m1p * self.m1p)], dtype=complex)


@dataclass(frozen=True)
class MachineParams:
    """The eight machine amplitudes plus the blank state."""

    a0: complex = 0j
    b0: complex = 0j
    c0: complex = 0j
    d0: complex = 0j
    a1: complex = 0j
    b1: complex = 0j
    c1: complex = 0j
    d1: complex = 0j
    sigma: BlankState = field(default_factory=lambda: BlankState(DEFAULT_M1P))


class Couplings(NamedTuple):
    """Row sums of the machine amplitudes; every output metric depends only on these."""

    g: complex
    h: complex
    e: complex
    f: complex


@dataclass(frozen=True)
class ValidationReport:
    """Defects of the isometry conditions; all are non-negative."""

    row0_norm_defect: float
    row1_norm_defect: float
    orthogonality_defect: float
    gram_defect: float
    tol: float
    is_valid: bool


def couplings(p: MachineParams) -> Couplings:
    """Componentwise row sums g = a0+a1, h = b0+b1, e = c0+c1, f = d0+d1."""
    return Couplings(g=p.a0 + p.a1, h=p.b0 + p.b1, e=p.c0 + p.c1, f=p.d0 + p.d1)


def isometry(p: MachineParams) -> np.ndarray:
    """The machine as a 12x4 matrix; column 2i+j is the image of |i>|j>|Q>."""
    s0, s1 = p.sigma.ket()
    v = np.zeros(4 * qlinalg.JOINT_DIM, dtype=complex)
    v[_ISOMETRY_SCATTER] = (s0, s1, p.a0, p.b0, p.c0, p.d0, p.a1, p.b1, p.c1, p.d1, s0, s1)
    return v.reshape(qlinalg.JOINT_DIM, 4)


def validate(p: MachineParams, tol: float = DEFAULT_VALIDATION_TOL) -> ValidationReport:
    """Check the isometry conditions and report the defects.

    All defects are read from the Gram matrix G = V^dagger V: the row norm
    defects ``| ||row_i||^2 - 1 |`` from G[1, 1] and G[2, 2], the orthogonality
    defect (the modulus of the row inner product) from G[1, 2], and the Gram
    defect as the maximum entrywise deviation of G from the identity.  Raises
    ValueError unless ``tol`` is finite and positive; otherwise it neither raises
    nor warns.  Amplitudes so large that G overflows report an infinite
    defect, never NaN.
    """
    if not 0 < tol < math.inf:  # false for NaN; ints compare exactly
        raise ValueError(f"tol must be finite and positive, got {tol}")
    v = isometry(p)
    with np.errstate(over="ignore", invalid="ignore"):
        deviation = np.einsum("ji,jk->ik", v.conj(), v) - _EYE4  # no BLAS call, unlike @
        defects = np.hypot(deviation.real, deviation.imag)  # same bits at every SIMD level
    defects[np.isnan(defects)] = np.inf
    # The Gram defect bounds the other three: their entries are part of it.
    gram_defect = float(defects.max())
    return ValidationReport(
        row0_norm_defect=float(defects[1, 1]),
        row1_norm_defect=float(defects[2, 2]),
        orthogonality_defect=float(defects[1, 2]),
        gram_defect=gram_defect,
        tol=tol,
        is_valid=gram_defect <= tol,
    )


def require_valid(p: MachineParams) -> ValidationReport:
    """Validate at the default tolerance; raise :class:`MachineValidationError` on failure."""
    report = validate(p)
    if not report.is_valid:
        raise MachineValidationError(report)
    return report


def check_alpha_sq(alpha_sq) -> np.ndarray:
    """x = alpha^2 as a float array; raises ValueError unless every x lies in [0, 1]."""
    x = np.asarray(alpha_sq, dtype=float)
    if not np.all((x >= 0.0) & (x <= 1.0)):  # also false for NaN
        raise ValueError(f"alpha_sq must lie in [0, 1], got {alpha_sq!r}")
    return x


def reduced_blocks(p: MachineParams) -> tuple[np.ndarray, np.ndarray]:
    """The simulation kernel: both partial traces (P, Q), each (3, 2, 2), of V's ancilla slices.

    The input (alpha|0> + beta|1>)^{(x)2}, x = alpha^2, feeds each output amplitude by
    the weight w_k of its ancilla k: ab = sqrt(x(1-x)) for |Q> (columns 1 and 2 of V), x
    for |A0> and 1 - x for |A1>.  So the output is sum_k w_k s_k, where slice s_k holds
    V's row sums at the entries of ancilla k, and its reduced states are sum_k w_k^2 P[k]
    (mode 1) and sum_k w_k^2 Q[k] (mode 2) at every x, as the ancillas are orthonormal.
    """
    slices = np.zeros((3, 4, 3), dtype=complex)  # (slice k, q1 q2, ancilla)
    k = np.arange(3)
    slices[k, :, k] = isometry(p).sum(axis=1).reshape(4, 3).T
    slices = slices.reshape(3, qlinalg.JOINT_DIM)
    return qlinalg.partial_trace_mode1(slices), qlinalg.partial_trace_mode2(slices)


def to_dict(p: MachineParams) -> dict:
    """Machine parameters as a JSON-serializable dictionary."""
    out = {}
    for key in AMPLITUDE_KEYS:
        z = complex(getattr(p, key))
        out[key] = [z.real, z.imag]
    out["m1p"] = p.sigma.m1p
    return out


def _to_float(key: str, x) -> float:
    """A JSON number as a float; raises :class:`MachineFormatError` naming ``key``
    for an integer too large to convert."""
    try:
        return float(x)
    except OverflowError:
        raise MachineFormatError(f"key {key!r} has a number too large for a float") from None


def from_dict(data: dict) -> MachineParams:
    """Parse a machine parameter dictionary, rejecting malformed input.

    Raises :class:`MachineFormatError` naming the offending key on missing
    keys, malformed entries, or non-finite or overflowing values.
    """
    if not isinstance(data, dict):
        raise MachineFormatError("machine description must be a JSON object")
    amps = {}
    for key in AMPLITUDE_KEYS:
        if key not in data:
            raise MachineFormatError(f"missing key {key!r}")
        value = data[key]
        if (
            not isinstance(value, (list, tuple))
            or len(value) != 2
            or not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in value)
        ):
            raise MachineFormatError(f"key {key!r} must be a two-element array [re, im]")
        re, im = _to_float(key, value[0]), _to_float(key, value[1])
        if not (math.isfinite(re) and math.isfinite(im)):
            raise MachineFormatError(f"key {key!r} has non-finite value {value!r}")
        amps[key] = complex(re, im)
    if "m1p" not in data:
        raise MachineFormatError("missing key 'm1p'")
    m1p = data["m1p"]
    if isinstance(m1p, int) and not isinstance(m1p, bool):
        m1p = _to_float("m1p", m1p)
    if not isinstance(m1p, float) or not math.isfinite(m1p):
        raise MachineFormatError(f"key 'm1p' must be a finite real, got {m1p!r}")
    if not -1.0 <= m1p <= 1.0:
        raise MachineFormatError(f"key 'm1p' must lie in [-1, 1], got {m1p!r}")
    return MachineParams(sigma=BlankState(m1p), **amps)


def load(path) -> MachineParams:
    """Load machine parameters from a JSON file.

    Raises :class:`MachineFormatError` for content that is not UTF-8 JSON,
    including numbers too long to parse and nesting too deep to decode.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (ValueError, RecursionError) as exc:  # JSON and UTF-8 decode errors are ValueErrors
        raise MachineFormatError(f"invalid JSON in {path}: {exc}") from exc
    return from_dict(data)


def save(p: MachineParams, path) -> None:
    """Write machine parameters to a JSON file (full round-trip precision)."""
    Path(path).write_text(json.dumps(to_dict(p), indent=2) + "\n", encoding="utf-8")
