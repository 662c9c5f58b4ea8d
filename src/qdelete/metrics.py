"""Deletion quality metrics: kept-mode distortion and deleted-mode fidelity.

For two copies of the real input sqrt(x)|0> + sqrt(1-x)|1>, x = alpha^2, the
machine output has reduced states in mode 1 (the kept copy) and mode 2 (the
deleted copy) that are quadratic in the couplings g, h, e, f.  Both metrics
come by two routes of one shape, ``route(p, grid) -> (F, D)``:

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

whose coefficients (quartic, coherence_sum) are `distortion_coefficients`:

    quartic       = (|e|^2 + |g|^2 - 1)^2 + (|h|^2 + |f|^2 - 1)^2 + 2 |coherence|^2,
    coherence_sum = 2 Re(coherence),  with coherence = e conj(h) + g conj(f);

and the fidelity of deletion is the blank-state overlap of the deleted mode,
F(x) = 1 - deficit * x(1-x).  Averages are uniform integrals over x in [0, 1].
Over the whole Bloch sphere the coherence term averages out: Dbar = quartic/30 + 1/3.

Each closed form is written once, as a function of plain scalars (the
couplings g, h, e, f and m1p); `closed_curves` and the `cases` and
`diagnose` commands call them.  Two historical conventions of the
closed-form averages are kept:

* the cross constant of `avg_distortion`: the default, 3*pi/64, is the exact
  Beta-integral value; `LEGACY_CROSS_CONSTANT`, 0.589, is the one
  historically quoted.  The quadrature adjudicates: only 3*pi/64 matches the
  defining integral.
* the weight that carries m1p^2: `fidelity_deficit` derives it from the
  mode-2 reduced state and attaches it to (|h|^2 + |e|^2);
  `legacy_fidelity_deficit` attaches it to (|g|^2 + |f|^2).  Direct
  simulation agrees with `fidelity_deficit`, which `closed_curves` uses.
  The two coincide whenever the weights are equal or m1p^2 = 1/2, and both
  are exactly 2 for zero couplings.

On the coupling sphere |u|^2 = 2, which every valid machine lies on, both
averages are certified optima minus a sum of non-negative squares.  With
s = sqrt(1 - m1p^2) and coherence = e conj(h) + g conj(f):

    1 - Fbar   = (|m1p g - s e|^2 + |s h - m1p f|^2) / 6,
    Dbar - D*  = [(|e|^2 + |g|^2 - 1)^2 + (|h|^2 + |f|^2 - 1)^2 + 2 Im(coherence)^2] / 30
                 + (|e - h|^2 + |g - f|^2) (3 pi/64 - (1 + Re(coherence)) / 30),

with D* = 2/5 - 3 pi/32 (`MIN_AVG_DISTORTION`).  Re(coherence) <= 1 on the
sphere, so the last factor is at least 3 pi/64 - 1/15 > 0.  `fidelity_gap`
and `distortion_gap` compute them in plain float arithmetic on the 8 real
coordinates of the couplings; the search scores them at every evaluation.
Every term is a rounded square or a product of non-negative floats, so
neither gap is ever negative, and near the optimum, where the closed forms
above cancel to a few ulps of either sign, the gaps are the square of that
error.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from . import qlinalg
from .machine import MachineParams, require_valid
from .machine import check_alpha_sq, couplings, inputs, outputs

#: Cross-term constant historically used for the average distortion.
LEGACY_CROSS_CONSTANT = 0.589

#: Exact cross-term constant: 2 * integral_0^1 (x(1-x))^(3/2) dx = 3*pi/64.
ANALYTIC_CROSS_CONSTANT = 3.0 * math.pi / 64.0

#: The certified minimum D* = 2/5 - 3*pi/32 of the average distortion on the
#: coupling sphere.  The float lies 3.4e-17 above the exact value, so a score
#: of -(D* + gap) never passes the exact optimum.
MIN_AVG_DISTORTION = 2.0 / 5.0 - 3.0 * math.pi / 32.0

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


def input_state(alpha_sq) -> np.ndarray:
    """Density matrix of the pure input alpha|0> + beta|1>, x = alpha^2.

    Its entries are the two-copy amplitudes `inputs`; a grid gives a stack.
    """
    return inputs(alpha_sq).reshape(np.shape(alpha_sq) + (2, 2)).astype(complex)


def distortion_coefficients(g, h, e, f) -> tuple[float, float]:
    """Distortion polynomial coefficients (quartic, coherence_sum) of the couplings."""
    coherence = e * h.conjugate() + g * f.conjugate()
    defect = (abs(e) ** 2 + abs(g) ** 2 - 1.0) ** 2 + (abs(h) ** 2 + abs(f) ** 2 - 1.0) ** 2
    return (
        float(defect + 2.0 * (coherence * coherence.conjugate()).real),
        float(2.0 * coherence.real),
    )


def avg_distortion(
    quartic: float, coherence_sum: float, cross_constant: float = ANALYTIC_CROSS_CONSTANT
) -> float:
    """Closed-form average distortion quartic/30 + 1/3 - cross_constant * coherence_sum."""
    return quartic / 30.0 + 1.0 / 3.0 - cross_constant * coherence_sum


def fidelity_deficit(g, h, e, f, m1p: float) -> float:
    """Deficit k, F(x) = 1 - k * x(1-x), that direct simulation realizes."""
    gf = abs(g) ** 2 + abs(f) ** 2
    he = abs(h) ** 2 + abs(e) ** 2
    msq = m1p * m1p
    s = math.sqrt(1.0 - msq)
    cross = 2.0 * float((g.conjugate() * e + h * f.conjugate()).real)
    return 2.0 - (he * msq + gf * (s * s) + m1p * s * cross)


def legacy_fidelity_deficit(g, h, e, f, m1p: float) -> float:
    """The legacy deficit, with m1p^2 on |g|^2 + |f|^2: `fidelity_deficit` of (h, g, f, e).

    The exchange swaps the weights |g|^2 + |f|^2 and |h|^2 + |e|^2 and
    conjugates both summands of the cross term, whose real part it leaves bit
    for bit the same.
    """
    return fidelity_deficit(h, g, f, e, m1p)


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


def fidelity_gap(g_re, g_im, h_re, h_im, e_re, e_im, f_re, f_im, m1p: float) -> float:
    """1 - Fbar of couplings on the sphere |u|^2 = 2: (|m1p g - s e|^2 + |s h - m1p f|^2) / 6.

    Takes the real and imaginary parts of g, h, e, f and m1p; s = sqrt(1 - m1p^2).
    """
    s = math.sqrt(1.0 - m1p * m1p)
    a_re, a_im = m1p * g_re - s * e_re, m1p * g_im - s * e_im
    b_re, b_im = s * h_re - m1p * f_re, s * h_im - m1p * f_im
    return (a_re * a_re + a_im * a_im + b_re * b_re + b_im * b_im) / 6.0


def distortion_gap(g_re, g_im, h_re, h_im, e_re, e_im, f_re, f_im) -> float:
    """Dbar - D* of couplings on the sphere |u|^2 = 2, as the module docstring's sum of squares.

    Takes the real and imaginary parts of g, h, e, f.
    """
    row0 = e_re * e_re + e_im * e_im + g_re * g_re + g_im * g_im - 1.0
    row1 = h_re * h_re + h_im * h_im + f_re * f_re + f_im * f_im - 1.0
    coh_re = e_re * h_re + e_im * h_im + g_re * f_re + g_im * f_im
    coh_im = e_im * h_re - e_re * h_im + g_im * f_re - g_re * f_im
    eh_re, eh_im, gf_re, gf_im = e_re - h_re, e_im - h_im, g_re - f_re, g_im - f_im
    mismatch = eh_re * eh_re + eh_im * eh_im + gf_re * gf_re + gf_im * gf_im
    return (
        (row0 * row0 + row1 * row1 + 2.0 * coh_im * coh_im) / 30.0
        + mismatch * (ANALYTIC_CROSS_CONSTANT - (1.0 + coh_re) / 30.0)
    )


def curves(p: MachineParams, alpha_sq_grid) -> tuple[np.ndarray, np.ndarray]:
    """Direct-simulation fidelity and distortion at each x of a grid, from one simulation.

    F is the blank-state overlap ``(rho @ sig) @ conj(sig)`` of the mode-2
    reduced state, which at x = 0 and 1 is the blank state itself: F(0) and F(1)
    depend on m1p alone, within a few ulps of 1 (exactly 1.0 for the presets).
    D is Tr[(input - rho_1)^2] of the mode-1 reduced state.
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

    F uses `fidelity_deficit`, the one the oracle realizes, and D the
    distortion polynomial of p's couplings.  It does not validate.
    """
    c = couplings(p)
    deficit = fidelity_deficit(*c, p.sigma.m1p)
    quartic, coherence_sum = distortion_coefficients(*c)
    x = check_alpha_sq(np.atleast_1d(alpha_sq_grid))
    y = x * (1.0 - x)
    fidelity = 1.0 - deficit * x * (1.0 - x)
    return fidelity, quartic * y * y - 2.0 * coherence_sum * y ** 1.5 + 2.0 * y


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

    For a valid machine both routes give ``avg_fidelity`` of
    ``fidelity_deficit`` and ``avg_distortion`` at its default cross constant
    within 1e-8.  Raises :class:`ConvergenceError` if the two levels of either
    disagree by more than QUAD_AGREEMENT_TOL.
    """
    fidelity, distortion = levels(p, route)
    return _converged("fidelity", *fidelity), _converged("distortion", *distortion)
