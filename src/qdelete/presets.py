"""Named machine presets: one table of frozen machines, built once at import.

The paper's cases are one machine at different parameter settings; each
preset is a `MachineParams`.  The four numbered cases are the canonical
coupling regimes of this machine family; "perfect" is an additional feasible
point with unit fidelity of deletion at every input.  A preset is feasible
when its machine passes `machine.validate`.  The tests check each preset
against the averages below (`tests/paper_values.py`).

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
the negative of the first, which contradicts row orthogonality.  Its machine
has rows (1, 0, 0, 0) and (-1, 0, 0, 0), so `validate` rejects it, and its
metrics are evaluated in formula mode: `metrics.closed_curves` on its zero
couplings, where both fidelity-deficit conventions give exactly 2.

Every preset defaults to m1p = 1/sqrt(2), where the two fidelity-deficit
conventions coincide, except "perfect", which needs m1p = 1.
"""

from __future__ import annotations

from .machine import BlankState, MachineParams

_PRESETS = {
    # the second row is minus the first: all couplings zero, formula mode only
    "case1": MachineParams(a0=1.0 + 0j, a1=-1.0 + 0j),
    # |e| = |f| = 1 with g = h = 0
    "case2": MachineParams(c0=1.0 + 0j, d1=1.0 + 0j),
    # g = h = 1 with e = f = 0: the standard swap-style deletion machine
    "case3": MachineParams(a0=1.0 + 0j, b1=1.0 + 0j),
    # the exchange-only member a0 = b1 = 1 (c0 = c1 = d0 = d1 = 0)
    "case4": MachineParams(a0=1.0 + 0j, b1=1.0 + 0j),
    # sigma = |0>: the mode-2 reduced state is |0><0|, so F(x) = 1 at every x
    "perfect": MachineParams(b0=1.0 + 0j, c1=1.0 + 0j, sigma=BlankState(1.0)),
}

PRESET_NAMES = tuple(_PRESETS)


def by_name(name: str) -> MachineParams:
    """The shared frozen machine of a registry name; raises ValueError on unknown names."""
    try:
        return _PRESETS[name]
    except KeyError:
        raise ValueError(
            f"unknown preset {name!r}; available: {', '.join(PRESET_NAMES)}"
        ) from None
