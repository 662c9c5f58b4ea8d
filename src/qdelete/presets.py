"""Named machine presets with their expected average metrics.

The four numbered cases are the canonical coupling regimes of this machine
family; "perfect" is an additional feasible point with unit fidelity of
deletion at every input.

========  ==========================  ========================  ==========
name      couplings (g, h, e, f)      (avg distortion, avg F)   feasible
========  ==========================  ========================  ==========
case1     (0, 0, 0, 0)                (2/5, 2/3)                no
case2     (0, 0, 1, 1)                (1/3, 5/6)                yes
case3     (1, 1, 0, 0)                (1/3, 5/6)                yes
case4     e = f = 0 family            (N/30 + 1/3, 1 - K/6)     yes
perfect   (0, 1, 1, 0)                (2/5 - 3*pi/32, 1)        yes
========  ==========================  ========================  ==========

case1 is infeasible: all-zero couplings force the second amplitude row to be
the negative of the first, which contradicts row orthogonality.  Its metrics
are evaluated in formula mode (closed forms on raw couplings).

Every preset defaults to m1p = 1/sqrt(2), where the two fidelity-deficit
conventions coincide, except "perfect", which needs m1p = 1.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import metrics
from .machine import (
    DEFAULT_M1P,
    BlankState,
    Couplings,
    MachineParams,
    couplings,
    require_valid,
)

#: Average distortion of the "perfect" preset: quartic = 2 and coherence
#: sum = 2 give 2/30 + 1/3 - 2*(3*pi/64).
PERFECT_AVG_DISTORTION = 2.0 / 30.0 + 1.0 / 3.0 - 2.0 * metrics.ANALYTIC_CROSS_CONSTANT


@dataclass(frozen=True)
class PresetRecord:
    """A named machine plus the averages it is expected to reproduce."""

    name: str
    params: MachineParams | None  # None for formula-only presets
    couplings: Couplings
    sigma: BlankState
    expected_avg_distortion: float
    expected_avg_fidelity: float

    @property
    def feasible_as_unitary(self) -> bool:
        """Whether a valid machine realizes the preset (formula-only presets have none)."""
        return self.params is not None


def case1() -> PresetRecord:
    """All couplings zero; formula mode only (no unitary realizes it)."""
    return PresetRecord(
        name="case1",
        params=None,
        couplings=Couplings(g=0j, h=0j, e=0j, f=0j),
        sigma=BlankState(DEFAULT_M1P),
        expected_avg_distortion=2.0 / 5.0,
        expected_avg_fidelity=2.0 / 3.0,
    )


def case2() -> PresetRecord:
    """|e| = |f| = 1 with g = h = 0, realized canonically by c0 = 1, d1 = 1."""
    sigma = BlankState(DEFAULT_M1P)
    params = MachineParams(c0=1.0 + 0j, d1=1.0 + 0j, sigma=sigma)
    return PresetRecord(
        name="case2",
        params=params,
        couplings=couplings(params),
        sigma=sigma,
        expected_avg_distortion=1.0 / 3.0,
        expected_avg_fidelity=5.0 / 6.0,
    )


def case3() -> PresetRecord:
    """g = h = 1 with e = f = 0: the standard swap-style deletion machine."""
    sigma = BlankState(DEFAULT_M1P)
    params = MachineParams(a0=1.0 + 0j, b1=1.0 + 0j, sigma=sigma)
    return PresetRecord(
        name="case3",
        params=params,
        couplings=couplings(params),
        sigma=sigma,
        expected_avg_distortion=1.0 / 3.0,
        expected_avg_fidelity=5.0 / 6.0,
    )


def case4(
    a0: complex = 1.0 + 0j,
    a1: complex = 0j,
    b0: complex = 0j,
    b1: complex = 1.0 + 0j,
) -> PresetRecord:
    """Exchange-only family c0 = c1 = d0 = d1 = 0.

    The rows (a0, b0, 0, 0) and (a1, b1, 0, 0) must be orthonormal; invalid
    rows are rejected.  Expected averages come from the closed forms of
    :func:`qdelete.metrics.case4_metrics`.  The default amplitudes duplicate
    case3.
    """
    sigma = BlankState(DEFAULT_M1P)
    params = MachineParams(a0=a0, b0=b0, a1=a1, b1=b1, sigma=sigma)
    require_valid(params)
    c = couplings(params)
    c4 = metrics.case4_metrics(c, sigma)
    return PresetRecord(
        name="case4",
        params=params,
        couplings=c,
        sigma=sigma,
        expected_avg_distortion=c4.avg_distortion,
        expected_avg_fidelity=c4.avg_fidelity,
    )


def perfect_fidelity() -> PresetRecord:
    """b0 = 1, c1 = 1 with sigma = |0>: unit fidelity of deletion at every input.

    The mode-2 reduced state is |0><0| for all inputs, so F(x) = 1 pointwise.
    The distortion coefficients are quartic = 2 with coherence sum 2.
    """
    sigma = BlankState(1.0)
    params = MachineParams(b0=1.0 + 0j, c1=1.0 + 0j, sigma=sigma)
    return PresetRecord(
        name="perfect",
        params=params,
        couplings=couplings(params),
        sigma=sigma,
        expected_avg_distortion=PERFECT_AVG_DISTORTION,
        expected_avg_fidelity=1.0,
    )


_FACTORIES = {
    "case1": case1,
    "case2": case2,
    "case3": case3,
    "case4": case4,
    "perfect": perfect_fidelity,
}

PRESET_NAMES = tuple(_FACTORIES)


def by_name(name: str) -> PresetRecord:
    """Look up a preset by its registry name; raises ValueError on unknown names."""
    try:
        factory = _FACTORIES[name]
    except KeyError:
        raise ValueError(
            f"unknown preset {name!r}; available: {', '.join(PRESET_NAMES)}"
        ) from None
    return factory()


def all_presets() -> list[PresetRecord]:
    """All registry presets in canonical order."""
    return [by_name(name) for name in PRESET_NAMES]
