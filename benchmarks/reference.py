"""Reference values and output checks, derived independently of the package.

Machines are dicts in the package's file format (see ``inputs``).  With the
couplings g = a0+a1, h = b0+b1, e = c0+c1, f = d0+d1 and the blank state
sigma = m|0> + s|1> (m = m1p, s = sqrt(1 - m^2)), the two-copy input with
weight x = alpha^2 on |0> leaves the machine as

    x |0,sigma,A0> + sqrt(x(1-x)) (e|00> + g|01> + h|10> + f|11>) |Q>
                   + (1-x) |1,sigma,A1>.

The ancilla states are orthonormal, so with y = x(1-x) the deleted mode's
blank-state overlap and the kept mode's squared Hilbert-Schmidt distance
from the input are

    F(x) = 1 - k y,             k = 2 - |m e + s g|^2 - |m h + s f|^2
    D(x) = q y^2 - 4 Re(c) y^(3/2) + 2 y,
           c = e h* + g f*,     q = (1 - |e|^2 - |g|^2)^2 + (1 - |h|^2 - |f|^2)^2 + 2|c|^2.

Averaging over x in [0, 1] with the Beta integrals 1/6, 1/30 and 3 pi/128:

    Fbar = 1 - k/6,             Dbar = q/30 + 1/3 - (3 pi/32) Re(c).

Every valid machine has Fbar <= 1 and Dbar >= 2/5 - 3 pi/32, and both bounds
are reached, so these are the search targets.
"""

from __future__ import annotations

import math

import numpy as np

from inputs import AMPLITUDE_KEYS

#: Isometry tolerance, the package's documented validation default.
VALID_TOL = 1e-10
#: Agreement required between a solve's reported averages and the closed forms.
SOLVE_TOL = 1e-8
#: Agreement required between a sweep row and the closed-form curves.
SWEEP_TOL = 1e-10
#: Largest distance from the optimum at which a solve counts as on target.
TARGET_TOL = 1e-6
#: Agreement required between a sweep's alpha^2 column and its even grid.
GRID_TOL = 1e-12

F_STAR = 1.0
D_STAR = 2.0 / 5.0 - 3.0 * math.pi / 32.0

SWEEP_HEADER = "alpha_sq,fidelity,distortion"


def rows(m: dict):
    amps = [complex(*m[key]) for key in AMPLITUDE_KEYS]
    return np.array(amps[:4]), np.array(amps[4:])


def row_defects(m: dict) -> tuple[float, float, float]:
    """(| |row0|^2 - 1 |, | |row1|^2 - 1 |, |<row0, row1>|)."""
    row0, row1 = rows(m)
    return (
        abs(float(np.vdot(row0, row0).real) - 1.0),
        abs(float(np.vdot(row1, row1).real) - 1.0),
        abs(complex(np.vdot(row0, row1))),
    )


def _couplings(m: dict):
    row0, row1 = rows(m)
    g, h, e, f = row0 + row1
    return g, h, e, f


def _fidelity_deficit(m: dict) -> float:
    g, h, e, f = _couplings(m)
    mm = m["m1p"]
    s = math.sqrt(1.0 - mm * mm)
    return 2.0 - abs(mm * e + s * g) ** 2 - abs(mm * h + s * f) ** 2


def _distortion_terms(m: dict) -> tuple[float, float]:
    """(q, Re c) of the distortion polynomial."""
    g, h, e, f = _couplings(m)
    c = e * np.conj(h) + g * np.conj(f)
    q = (1.0 - abs(e) ** 2 - abs(g) ** 2) ** 2 + (1.0 - abs(h) ** 2 - abs(f) ** 2) ** 2
    q += 2.0 * abs(c) ** 2
    return float(q), float(c.real)


def avg_fidelity(m: dict) -> float:
    return 1.0 - _fidelity_deficit(m) / 6.0


def avg_distortion(m: dict) -> float:
    q, re_c = _distortion_terms(m)
    return q / 30.0 + 1.0 / 3.0 - 3.0 * math.pi / 32.0 * re_c


def fidelity_at(m: dict, xs) -> np.ndarray:
    xs = np.asarray(xs, dtype=float)
    return 1.0 - _fidelity_deficit(m) * xs * (1.0 - xs)


def distortion_at(m: dict, xs) -> np.ndarray:
    xs = np.asarray(xs, dtype=float)
    y = xs * (1.0 - xs)
    q, re_c = _distortion_terms(m)
    return q * y * y - 4.0 * re_c * y ** 1.5 + 2.0 * y


def target_gap(objective: str, fbar: float, dbar: float) -> float:
    """Distance of a solve's result from the analytic optimum of its objective."""
    if objective == "max-fidelity":
        return abs(F_STAR - fbar)
    return abs(dbar - D_STAR)


def check_machine(m: dict) -> list[str]:
    """Problems with a machine that should satisfy the isometry conditions."""
    worst = max(row_defects(m))
    if not worst <= VALID_TOL:
        return [f"machine is not an isometry: worst row defect {worst:.3e}"]
    return []


def check_solve(m: dict, fbar: float, dbar: float) -> list[str]:
    """Problems with a solve's returned machine and its reported averages."""
    problems = check_machine(m)
    ref_f, ref_d = avg_fidelity(m), avg_distortion(m)
    if not abs(fbar - ref_f) <= SOLVE_TOL:
        problems.append(f"reported Fbar {fbar!r} differs from closed form {ref_f!r}")
    if not abs(dbar - ref_d) <= SOLVE_TOL:
        problems.append(f"reported Dbar {dbar!r} differs from closed form {ref_d!r}")
    if fbar > F_STAR + SOLVE_TOL or dbar < D_STAR - SOLVE_TOL:
        problems.append(f"result (Fbar {fbar!r}, Dbar {dbar!r}) beats the certified optimum")
    return problems


def check_exit(expected: int, got) -> list[str]:
    if got != expected:
        return [f"exit code {got!r}, expected {expected}"]
    return []


def check_sweep(text: str, m: dict, points: int) -> list[str]:
    """Problems with sweep CSV text for machine ``m`` on an even grid of ``points``."""
    lines = text.splitlines()
    if not lines or lines[0] != SWEEP_HEADER:
        return [f"sweep output does not start with the header {SWEEP_HEADER!r}"]
    body = lines[1:]
    if len(body) != points:
        return [f"sweep has {len(body)} rows, expected {points}"]
    try:
        data = np.array([[float(v) for v in line.split(",")] for line in body])
    except ValueError as exc:
        return [f"sweep row does not parse: {exc}"]
    if data.shape != (points, 3):
        return [f"sweep rows have shape {data.shape}, expected ({points}, 3)"]
    xs, fid, dist = data.T
    problems = []
    grid_err = float(np.max(np.abs(xs - np.linspace(0.0, 1.0, points))))
    if not grid_err <= GRID_TOL:
        problems.append(f"alpha_sq column is off the even grid by {grid_err:.3e}")
    fid_err = float(np.max(np.abs(fid - fidelity_at(m, xs))))
    if not fid_err <= SWEEP_TOL:
        problems.append(f"fidelity column differs from F(x) by {fid_err:.3e}")
    dist_err = float(np.max(np.abs(dist - distortion_at(m, xs))))
    if not dist_err <= SWEEP_TOL:
        problems.append(f"distortion column differs from D(x) by {dist_err:.3e}")
    return problems
