"""Deletion quality metrics: kept-mode distortion and deleted-mode fidelity.

For the two-copy input with weight x = alpha^2 on |0>, the machine output has
reduced states in mode 1 (the kept copy) and mode 2 (the deleted copy) that
are quadratic in the couplings g, h, e, f.  Both metrics come by two routes
of one shape, ``route(p, grid) -> (F, D)``:

* `curves`, the simulation oracle: validate and simulate the machine once
  per grid (`machine.outputs`), take both batched partial traces of `qlinalg`
  and measure; and
* `closed_curves`, the closed forms below in the machine's couplings.  It
  does not validate, so a machine that fails validation (case1) still has
  curves: that is formula mode.

One quadrature serves both routes: `levels(p, route)` sums each curve at two
Gauss-Legendre orders and `averages(p, route)` is their converged result.
The closed-form reduced states that the formulas below come from are kept by
the tests (`tests/reduced_states.py`), not here.

Distortion is the squared Hilbert-Schmidt distance between the ideal input
state and the kept mode's reduced state.  With y = x(1-x) it is the
polynomial

    D(x) = quartic * y^2 - 2 * coherence_sum * y^(3/2) + 2 y,

whose two coefficients (`DistortionCoefficients`) are

    quartic       = (|e|^2 + |g|^2 - 1)^2 + (|h|^2 + |f|^2 - 1)^2 + 2 |coherence|^2,
    coherence_sum = 2 Re(coherence),  with coherence = e conj(h) + g conj(f);

and the fidelity of deletion is the blank-state overlap of the deleted mode,
F(x) = 1 - deficit * x(1-x).  Averages are uniform integrals over x in [0, 1].

Two historical ambiguities are kept behind mode flags of the closed-form
averages; `closed_curves` uses the mode the oracle realizes:

* ``avg_distortion`` mode "legacy" uses the constant 0.589 for the coherence
  cross term; mode "analytic" uses the exact Beta-integral value 3*pi/64.
  The quadrature adjudicates: only "analytic" matches the defining integral.
* ``fidelity_deficit`` mode "legacy" attaches the squared blank-state overlap
  m1p^2 to the (|g|^2 + |f|^2) weight; mode "consistent" derives the deficit
  from the mode-2 reduced state, attaching m1p^2 to (|h|^2 + |e|^2).  Direct
  simulation agrees with "consistent".  The two coincide whenever the weights
  are equal or m1p^2 = 1/2, and both are exactly 2 for zero couplings.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import qlinalg
from .machine import BlankState, Couplings, MachineParams, require_valid
from .machine import check_alpha_sq, couplings, inputs, outputs

#: Cross-term constant historically used for the average distortion.
LEGACY_CROSS_CONSTANT = 0.589

#: Exact cross-term constant: 2 * integral_0^1 (x(1-x))^(3/2) dx = 3*pi/64.
ANALYTIC_CROSS_CONSTANT = 3.0 * math.pi / 64.0

DISTORTION_MODES = ("legacy", "analytic")
DEFICIT_MODES = ("legacy", "consistent")

#: Gauss-Legendre orders for the averaging quadrature; the two levels must
#: agree within QUAD_AGREEMENT_TOL or the integral is reported as
#: non-converged.
QUAD_ORDER = 64
QUAD_ORDER_REFINED = 128
QUAD_AGREEMENT_TOL = 1e-8


class ConvergenceError(RuntimeError):
    """The two quadrature refinement levels failed to agree."""


def _converged(what: str, coarse: float, fine: float) -> float:
    """The refined level, once it agrees with the coarse one within tolerance."""
    if abs(fine - coarse) > QUAD_AGREEMENT_TOL:
        raise ConvergenceError(
            f"{what} quadrature did not converge: levels differ by {abs(fine - coarse):.3e}"
        )
    return fine


def _unit_interval_gauss(n: int):
    nodes, weights = np.polynomial.legendre.leggauss(n)
    return 0.5 * (nodes + 1.0), 0.5 * weights


_QX, _QW = _unit_interval_gauss(QUAD_ORDER)
_QX_FINE, _QW_FINE = _unit_interval_gauss(QUAD_ORDER_REFINED)
_QX_BOTH = np.concatenate((_QX, _QX_FINE))


@dataclass(frozen=True)
class DistortionCoefficients:
    """The two coefficients of the distortion polynomial (see the module docstring).

    Every record the package builds comes from `distortion_coefficients`; a
    record built by hand may hold any pair of values.
    """

    quartic: float        # coefficient of y^2; >= 0 for coupling-derived records
    coherence_sum: float  # 2 Re(e conj(h) + g conj(f))


def input_state(alpha_sq) -> np.ndarray:
    """Density matrix of the pure input alpha|0> + beta|1>, x = alpha^2.

    Its entries are the two-copy amplitudes `inputs`; a grid gives a stack.
    """
    return inputs(alpha_sq).reshape(np.shape(alpha_sq) + (2, 2)).astype(complex)


def distortion_coefficients(c: Couplings) -> DistortionCoefficients:
    """Distortion polynomial coefficients derived from the couplings."""
    g, h, e, f = c.g, c.h, c.e, c.f
    coherence = e * h.conjugate() + g * f.conjugate()
    defect = (abs(e) ** 2 + abs(g) ** 2 - 1.0) ** 2 + (abs(h) ** 2 + abs(f) ** 2 - 1.0) ** 2
    return DistortionCoefficients(
        quartic=float(defect + 2.0 * (coherence * coherence.conjugate()).real),
        coherence_sum=float(2.0 * coherence.real),
    )


def avg_distortion(dc: DistortionCoefficients, mode: str = "analytic") -> float:
    """Closed-form average distortion quartic/30 + 1/3 - const * coherence sum.

    mode "legacy" uses the constant 0.589; mode "analytic" uses 3*pi/64,
    the exact value of the defining integral's cross term.
    """
    if mode not in DISTORTION_MODES:
        raise ValueError(f"mode must be one of {DISTORTION_MODES}, got {mode!r}")
    const = LEGACY_CROSS_CONSTANT if mode == "legacy" else ANALYTIC_CROSS_CONSTANT
    return dc.quartic / 30.0 + 1.0 / 3.0 - const * dc.coherence_sum


def fidelity_deficit(c: Couplings, sigma: BlankState, mode: str = "consistent") -> float:
    """Deficit k such that F(x) = 1 - k * x(1-x).

    See the module docstring for the "legacy" versus "consistent" weight
    placement; direct simulation realizes the "consistent" value.
    """
    if mode not in DEFICIT_MODES:
        raise ValueError(f"mode must be one of {DEFICIT_MODES}, got {mode!r}")
    g, h, e, f = c.g, c.h, c.e, c.f
    gf = abs(g) ** 2 + abs(f) ** 2
    he = abs(h) ** 2 + abs(e) ** 2
    m = sigma.m1p
    msq = m * m
    s = math.sqrt(1.0 - msq)
    cross = 2.0 * float((g.conjugate() * e + h * f.conjugate()).real)
    if mode == "legacy":
        bracket = gf * msq + he * (s * s) + m * s * cross
    else:
        bracket = he * msq + gf * (s * s) + m * s * cross
    return 2.0 - bracket


def avg_fidelity(deficit: float) -> float:
    """Average fidelity 1 - deficit/6.

    Deficits outside the closed interval [0, 6] put the average outside
    [0, 1]; such values are flagged with a RuntimeWarning but still evaluated
    (a deficit of exactly 0, perfect deletion, is not flagged).
    """
    if not 0.0 <= deficit <= 6.0:
        warnings.warn(
            f"fidelity deficit {deficit!r} outside the closed interval [0, 6]",
            RuntimeWarning,
            stacklevel=2,
        )
    return 1.0 - deficit / 6.0


def curves(p: MachineParams, alpha_sq_grid) -> tuple[np.ndarray, np.ndarray]:
    """Direct-simulation fidelity and distortion at each x of a grid, from one simulation.

    F is the blank-state overlap of the mode-2 reduced state; contracting as
    ``(rho @ sig) @ conj(sig)`` keeps F(0) and F(1) exactly 1.0.  D is
    Tr[(input - rho_1)^2] of the mode-1 reduced state.
    """
    require_valid(p)
    xs = np.atleast_1d(alpha_sq_grid)
    out = outputs(p, xs)
    sig = p.sigma.ket()
    fidelity = ((qlinalg.partial_trace_mode2(out) @ sig) @ sig.conj()).real
    d = input_state(xs) - qlinalg.partial_trace_mode1(out)
    return fidelity, np.einsum("...ij,...ji->...", d, d).real


def closed_curves(p: MachineParams, alpha_sq_grid) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form fidelity and distortion at each x of a grid: the twin of `curves`.

    F uses the consistent-mode deficit, the one the oracle realizes, and D
    the distortion polynomial of p's couplings.  It does not validate.
    """
    c = couplings(p)
    deficit, dc = fidelity_deficit(c, p.sigma), distortion_coefficients(c)
    x = check_alpha_sq(np.atleast_1d(alpha_sq_grid))
    y = x * (1.0 - x)
    fidelity = 1.0 - deficit * x * (1.0 - x)
    return fidelity, dc.quartic * y * y - 2.0 * dc.coherence_sum * y ** 1.5 + 2.0 * y


def levels(p: MachineParams, route=curves) -> tuple[tuple[float, float], tuple[float, float]]:
    """Coarse and refined Gauss-Legendre sums over x in [0, 1] of F and of D by `route`.

    `route` is `curves` or `closed_curves`; the result is
    ``((F coarse, F refined), (D coarse, D refined))``.
    """
    return tuple(
        (float(np.sum(_QW * v[:QUAD_ORDER])), float(np.sum(_QW_FINE * v[QUAD_ORDER:])))
        for v in route(p, _QX_BOTH)
    )


def averages(p: MachineParams, route=curves) -> tuple[float, float]:
    """Average fidelity and distortion: the refined `levels` of `route`.

    For a valid machine both routes give ``avg_fidelity`` of the
    consistent-mode deficit and the analytic-mode ``avg_distortion`` within
    1e-8.  Raises :class:`ConvergenceError` if the two levels of either
    disagree by more than QUAD_AGREEMENT_TOL.
    """
    fidelity, distortion = levels(p, route)
    return _converged("fidelity", *fidelity), _converged("distortion", *distortion)
