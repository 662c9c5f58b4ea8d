"""Closed-form reduced states of both output modes: the tests' reference.

The distortion and fidelity formulas of ``qdelete.metrics`` follow from these
two 2x2 matrices, and the partial traces of the simulated output must
reproduce them.  They live on the tests' side so that the closed forms the
library computes are checked against code it does not share.
"""

import numpy as np

from qdelete.machine import BlankState, Couplings, check_alpha_sq


def mode1_state_closed(c: Couplings, alpha_sq: float) -> np.ndarray:
    """Closed-form reduced state of the kept mode."""
    x = float(check_alpha_sq(alpha_sq))
    y = x * (1.0 - x)
    g, h, e, f = c.g, c.h, c.e, c.f
    rho = np.empty((2, 2), dtype=complex)
    rho[0, 0] = x * x + y * (abs(g) ** 2 + abs(e) ** 2)
    rho[1, 1] = (1.0 - x) ** 2 + y * (abs(f) ** 2 + abs(h) ** 2)
    rho[0, 1] = y * (e * h.conjugate() + g * f.conjugate())
    rho[1, 0] = y * (f * g.conjugate() + e.conjugate() * h)
    return rho


def mode2_state_closed(c: Couplings, sigma: BlankState, alpha_sq: float) -> np.ndarray:
    """Closed-form reduced state of the deleted mode.

    The blank-state projector, weighted by x^2 + (1-x)^2, is expanded in the
    computational basis via |sigma> = m1p|0> + sqrt(1 - m1p^2)|1>.
    """
    x = float(check_alpha_sq(alpha_sq))
    y = x * (1.0 - x)
    g, h, e, f = c.g, c.h, c.e, c.f
    sig = sigma.ket()
    rho = (x * x + (1.0 - x) ** 2) * np.outer(sig, sig.conj())
    rho[0, 0] += y * (abs(h) ** 2 + abs(e) ** 2)
    rho[1, 1] += y * (abs(g) ** 2 + abs(f) ** 2)
    rho[0, 1] += y * (g.conjugate() * e + h * f.conjugate())
    rho[1, 0] += y * (e.conjugate() * g + h.conjugate() * f)
    return rho
