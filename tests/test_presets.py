import dataclasses
import math

import numpy as np
import pytest

from qdelete import machine, metrics, presets
from qdelete.machine import BlankState, MachineParams
from paper_values import PRESET_AVERAGES, exchange_only_averages


def test_registry_names_and_order():
    assert presets.PRESET_NAMES == ("case1", "case2", "case3", "case4", "perfect")
    assert [r.name for r in presets.all_presets()] == list(presets.PRESET_NAMES)


def test_unknown_name_rejected():
    with pytest.raises(ValueError, match="unknown preset"):
        presets.by_name("case9")


def test_by_name_returns_the_shared_frozen_record():
    record = presets.by_name("case3")
    assert presets.by_name("case3") is record
    assert presets.all_presets()[2] is record
    with pytest.raises(dataclasses.FrozenInstanceError):
        record.name = "case9"


def test_feasible_presets_validate_tightly():
    for record in presets.all_presets():
        if record.feasible_as_unitary:
            assert record.params is not None
            assert machine.validate(record.params, tol=1e-12).is_valid
        else:
            assert record.params is None


def test_expected_values_via_closed_forms():
    assert list(PRESET_AVERAGES) == list(presets.PRESET_NAMES)
    for record in presets.all_presets():
        expected_dbar, expected_fbar = PRESET_AVERAGES[record.name]
        dc = metrics.distortion_coefficients(record.couplings)
        dbar = metrics.avg_distortion(dc, "analytic")
        assert abs(dbar - expected_dbar) <= 1e-10, record.name
        deficit = metrics.fidelity_deficit(record.couplings, record.sigma, "consistent")
        fbar = 1.0 - deficit / 6.0
        assert abs(fbar - expected_fbar) <= 1e-10, record.name


def test_expected_values_via_quadrature():
    for record in presets.all_presets():
        expected_dbar, expected_fbar = PRESET_AVERAGES[record.name]
        dc = metrics.distortion_coefficients(record.couplings)
        dbar = metrics.avg_distortion_quadrature(dc)
        assert abs(dbar - expected_dbar) <= 1e-8, record.name
        if record.params is not None:
            fbar = metrics.avg_fidelity_quadrature(record.params)
        else:
            deficit = metrics.fidelity_deficit(record.couplings, record.sigma, "legacy")
            fbar = metrics.avg_fidelity_closed_quadrature(deficit)
        assert abs(fbar - expected_fbar) <= 1e-8, record.name


def test_case1_expected_numbers():
    # formula mode: the closed forms on the raw zero couplings give (2/5, 2/3)
    record = presets.by_name("case1")
    assert not record.feasible_as_unitary
    dc = metrics.distortion_coefficients(record.couplings)
    assert (dc.quartic, dc.coherence_sum) == (2.0, 0.0)
    assert metrics.avg_distortion(dc, "analytic") == pytest.approx(0.4, abs=1e-15)
    deficit = metrics.fidelity_deficit(record.couplings, record.sigma, "legacy")
    assert metrics.avg_fidelity(deficit) == pytest.approx(2.0 / 3.0, abs=1e-15)


def test_case1_couplings_are_unreachable():
    # All-zero couplings force the second amplitude row to be the negative of
    # the first, so orthogonality fails with defect exactly 1 for unit rows.
    rng = np.random.default_rng(30)
    for _ in range(20):
        row0 = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        row0 = row0 / np.linalg.norm(row0)
        p = MachineParams.from_rows(row0, -row0, BlankState(0.5))
        c = machine.couplings(p)
        assert max(abs(c.g), abs(c.h), abs(c.e), abs(c.f)) <= 1e-15
        report = machine.validate(p)
        assert abs(report.orthogonality_defect - 1.0) <= 1e-12
        assert not report.is_valid


def test_case2_canonical_amplitudes():
    record = presets.by_name("case2")
    assert record.params.c0 == 1.0 and record.params.d1 == 1.0
    c = record.couplings
    assert (c.g, c.h, c.e, c.f) == (0.0, 0.0, 1.0, 1.0)
    for mode in metrics.DEFICIT_MODES:
        for m1p in (0.0, 0.5, 1.0):
            assert (
                abs(metrics.fidelity_deficit(c, BlankState(m1p), mode) - 1.0) <= 1e-12
            )


def test_case3_couplings_and_balanced_distortion():
    record = presets.by_name("case3")
    c = record.couplings
    assert (c.g, c.h, c.e, c.f) == (1.0, 1.0, 0.0, 0.0)
    assert abs(metrics.distortion_curve(record.params, 0.5)[0] - 0.5) <= 1e-12


def test_case4_default_duplicates_case3():
    c3 = presets.by_name("case3")
    c4 = presets.by_name("case4")
    assert c4.params == c3.params
    assert (c4.couplings, c4.sigma) == (c3.couplings, c3.sigma)
    assert exchange_only_averages(c4.couplings, c4.sigma) == pytest.approx(
        (1.0 / 3.0, 5.0 / 6.0, 5.0 / 6.0), abs=1e-15
    )


def test_case4_hadamard_rows():
    s = math.sqrt(0.5)
    p = MachineParams(a0=s, a1=s, b0=s, b1=-s)
    assert machine.validate(p, tol=1e-12).is_valid
    c = machine.couplings(p)
    assert abs(c.g - math.sqrt(2.0)) <= 1e-12
    assert abs(c.h) <= 1e-12
    # population defect (2-1)^2 + (0-1)^2 = 2 gives 2/30 + 1/3 = 0.4
    dbar = exchange_only_averages(c, p.sigma)[0]
    assert abs(dbar - 0.4) <= 1e-12
    dc = metrics.distortion_coefficients(c)
    assert abs(metrics.avg_distortion(dc, "analytic") - dbar) <= 1e-12
    assert abs(metrics.avg_distortion_quadrature(dc) - dbar) <= 1e-8


def test_perfect_preset_pointwise_unit_fidelity():
    record = presets.by_name("perfect")
    assert record.sigma.m1p == 1.0
    c = record.couplings
    assert (c.e, c.h, c.g, c.f) == (1.0, 1.0, 0.0, 0.0)
    for x in (0.0, 1.0):
        assert metrics.fidelity_curve(record.params, x)[0] == 1.0
    for x in (0.25, 0.5, 0.75):
        assert abs(metrics.fidelity_curve(record.params, x)[0] - 1.0) <= 1e-12


def test_perfect_preset_expected_distortion_value():
    # quartic = 2 and coherence sum = 2: 2/30 + 1/3 - 2*(3*pi/64)
    record = presets.by_name("perfect")
    expected = 2.0 / 30.0 + 1.0 / 3.0 - 3.0 * math.pi / 32.0
    assert presets.PERFECT_AVG_DISTORTION == pytest.approx(expected, abs=1e-15)
    dc = metrics.distortion_coefficients(record.couplings)
    assert dc.quartic == 2.0
    assert dc.coherence_sum == 2.0
