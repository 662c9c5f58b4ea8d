"""Named machine presets: one frozen table, built once at import.

The four numbered cases are the canonical coupling regimes of this machine
family; "perfect" is an additional feasible point with unit fidelity of
deletion at every input.  The tests check each preset against the averages
below (`tests/paper_values.py`).

========  ==========================  ========================  ==========
name      couplings (g, h, e, f)      (avg distortion, avg F)   feasible
========  ==========================  ========================  ==========
case1     (0, 0, 0, 0)                (2/5, 2/3)                no
case2     (0, 0, 1, 1)                (1/3, 5/6)                yes
case3     (1, 1, 0, 0)                (1/3, 5/6)                yes
case4     e = f = 0 family            (N/30 + 1/3, 1 - K/6)     yes
perfect   (0, 1, 1, 0)                (2/5 - 3*pi/32, 1)        yes
========  ==========================  ========================  ==========

For the exchange-only family e = f = 0, N = (|g|^2 - 1)^2 + (|h|^2 - 1)^2 is
the distortion polynomial's quartic coefficient and K is the "legacy" fidelity
deficit 2 - (|g|^2 m1p^2 + |h|^2 (1 - m1p^2)).  The case4 preset is the member
a0 = b1 = 1, the same machine as case3, so N = 0 and K = 1.

case1 is infeasible: all-zero couplings force the second amplitude row to be
the negative of the first, which contradicts row orthogonality.  Its metrics
are evaluated in formula mode (closed forms on raw couplings).

Every preset defaults to m1p = 1/sqrt(2), where the two fidelity-deficit
conventions coincide, except "perfect", which needs m1p = 1.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import metrics
from .machine import DEFAULT_M1P, BlankState, Couplings, MachineParams, couplings

#: Average distortion of the "perfect" preset: quartic = 2 and coherence
#: sum = 2 give 2/30 + 1/3 - 2*(3*pi/64).
PERFECT_AVG_DISTORTION = 2.0 / 30.0 + 1.0 / 3.0 - 2.0 * metrics.ANALYTIC_CROSS_CONSTANT


@dataclass(frozen=True)
class PresetRecord:
    """A named machine, or for a formula-only preset its couplings alone."""

    name: str
    params: MachineParams | None  # None for formula-only presets
    couplings: Couplings
    sigma: BlankState

    @property
    def feasible_as_unitary(self) -> bool:
        """Whether a valid machine realizes the preset (formula-only presets have none)."""
        return self.params is not None


def _machine(name: str, m1p: float = DEFAULT_M1P, **amplitudes: complex) -> PresetRecord:
    """The preset realized by the given nonzero amplitudes and blank-state overlap."""
    sigma = BlankState(m1p)
    params = MachineParams(sigma=sigma, **amplitudes)
    return PresetRecord(name, params, couplings(params), sigma)


_PRESETS = {
    # all couplings zero; formula mode only (no unitary realizes it)
    "case1": PresetRecord(
        "case1", None, Couplings(g=0j, h=0j, e=0j, f=0j), BlankState(DEFAULT_M1P)
    ),
    # |e| = |f| = 1 with g = h = 0
    "case2": _machine("case2", c0=1.0 + 0j, d1=1.0 + 0j),
    # g = h = 1 with e = f = 0: the standard swap-style deletion machine
    "case3": _machine("case3", a0=1.0 + 0j, b1=1.0 + 0j),
    # the exchange-only member a0 = b1 = 1 (c0 = c1 = d0 = d1 = 0)
    "case4": _machine("case4", a0=1.0 + 0j, b1=1.0 + 0j),
    # sigma = |0>: the mode-2 reduced state is |0><0|, so F(x) = 1 at every x
    "perfect": _machine("perfect", m1p=1.0, b0=1.0 + 0j, c1=1.0 + 0j),
}

PRESET_NAMES = tuple(_PRESETS)


def by_name(name: str) -> PresetRecord:
    """The shared frozen preset of a registry name; raises ValueError on unknown names."""
    try:
        return _PRESETS[name]
    except KeyError:
        raise ValueError(
            f"unknown preset {name!r}; available: {', '.join(PRESET_NAMES)}"
        ) from None


def all_presets() -> list[PresetRecord]:
    """All registry presets in canonical order."""
    return list(_PRESETS.values())
