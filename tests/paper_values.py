"""The paper's average metrics: the numbers the presets are checked against.

The package's preset table (``qdelete.presets``) holds machines only; the
averages they must reproduce live here, on the tests' side, together with the
closed forms of the exchange-only family (case 4), so that the library's
general closed forms and its quadrature are checked against code they do not
share.
"""

from qdelete.machine import BlankState, Couplings
from qdelete.metrics import ANALYTIC_CROSS_CONSTANT

#: (average distortion, average fidelity) of the paper's four numbered cases.
PAPER_AVERAGES = {
    "case1": (2.0 / 5.0, 2.0 / 3.0),
    "case2": (1.0 / 3.0, 5.0 / 6.0),
    "case3": (1.0 / 3.0, 5.0 / 6.0),
    "case4": (1.0 / 3.0, 5.0 / 6.0),
}

#: Average distortion D* of the "perfect" preset: quartic = 2 and coherence
#: sum = 2 give 2/30 + 1/3 - 2*(3*pi/64).
PERFECT_AVG_DISTORTION = 2.0 / 30.0 + 1.0 / 3.0 - 2.0 * ANALYTIC_CROSS_CONSTANT

#: The same pair for every registry preset: "perfect" adds (D*, 1).
PRESET_AVERAGES = {**PAPER_AVERAGES, "perfect": (PERFECT_AVG_DISTORTION, 1.0)}


def exchange_only_coefficients(c: Couplings, sigma: BlankState) -> tuple[float, float, float]:
    """Population defect N and the deficit K under both conventions, for e = f = 0.

    N = (|g|^2 - 1)^2 + (|h|^2 - 1)^2.  The "legacy" deficit
    K = 2 - (|g|^2 m1p^2 + |h|^2 (1 - m1p^2)) puts m1p^2 on |g|^2; the
    "consistent" one puts it on |h|^2.  Returns (N, K legacy, K consistent).
    """
    assert c.e == 0 and c.f == 0, "the exchange-only family has e = f = 0"
    gg, hh = abs(c.g) ** 2, abs(c.h) ** 2
    msq = sigma.m1p * sigma.m1p
    return (
        (gg - 1.0) ** 2 + (hh - 1.0) ** 2,
        2.0 - (gg * msq + hh * (1.0 - msq)),
        2.0 - (hh * msq + gg * (1.0 - msq)),
    )


def exchange_only_averages(c: Couplings, sigma: BlankState) -> tuple[float, float, float]:
    """Average distortion N/30 + 1/3 and average fidelity 1 - K/6 (legacy, then
    consistent K) of an e = f = 0 machine."""
    n, k_legacy, k_consistent = exchange_only_coefficients(c, sigma)
    return n / 30.0 + 1.0 / 3.0, 1.0 - k_legacy / 6.0, 1.0 - k_consistent / 6.0
