import dataclasses
import math

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from qdelete import machine, metrics, presets
from qdelete.machine import BlankState, MachineParams, couplings
from paper_values import PERFECT_AVG_DISTORTION, PRESET_AVERAGES, exchange_only_averages
from helpers import from_rows, rows


def test_unknown_name_rejected():
    with pytest.raises(ValueError, match="unknown preset"):
        presets.by_name("case9")


def test_by_name_returns_the_shared_frozen_machine():
    p = presets.by_name("case3")
    assert type(p) is MachineParams
    assert presets.by_name("case3") is p
    with pytest.raises(dataclasses.FrozenInstanceError):
        p.a0 = 0j


def test_feasible_presets_validate_tightly():
    # every preset but case1 passes, even at a tolerance a hundred times tighter
    for name in presets.PRESET_NAMES:
        p = presets.by_name(name)
        assert machine.validate(p).is_valid == (name != "case1"), name
        assert machine.validate(p, tol=1e-12).is_valid == (name != "case1"), name


def test_expected_values_via_quadrature():
    assert list(PRESET_AVERAGES) == list(presets.PRESET_NAMES)
    for name in presets.PRESET_NAMES:
        p = presets.by_name(name)
        expected_dbar, expected_fbar = PRESET_AVERAGES[name]
        routes = [metrics.closed_curves]
        if machine.validate(p).is_valid:
            routes.append(metrics.curves)
        for route in routes:
            fbar, dbar = metrics.averages(p, route)
            assert abs(dbar - expected_dbar) <= 1e-8, (name, route.__name__)
            assert abs(fbar - expected_fbar) <= 1e-10, (name, route.__name__)


def test_case1_expected_numbers():
    # formula mode: the closed forms on the raw zero couplings give (2/5, 2/3)
    p = presets.by_name("case1")
    assert not machine.validate(p).is_valid
    dc = metrics.distortion_coefficients(*couplings(p))
    assert dc == (2.0, 0.0)
    assert metrics.avg_distortion(*dc) == pytest.approx(0.4, abs=1e-15)
    assert metrics.avg_distortion(*dc, metrics.LEGACY_CROSS_CONSTANT) == pytest.approx(
        0.4, abs=1e-15
    )
    deficit = metrics.legacy_fidelity_deficit(*couplings(p), p.sigma.m1p)
    assert metrics.avg_fidelity(deficit) == pytest.approx(2.0 / 3.0, abs=1e-15)


def test_case1_rows_are_negatives_with_zero_couplings():
    p = presets.by_name("case1")
    row0, row1 = rows(p)
    assert_array_equal(row1, -row0)
    assert couplings(p) == machine.Couplings(g=0j, h=0j, e=0j, f=0j)
    assert p.sigma.m1p == machine.DEFAULT_M1P
    report = machine.validate(p)
    assert report.orthogonality_defect == 1.0
    assert report.row0_norm_defect == report.row1_norm_defect == 0.0


def test_case1_couplings_are_unreachable():
    # All-zero couplings force the second amplitude row to be the negative of
    # the first, so orthogonality fails with defect exactly 1 for unit rows.
    rng = np.random.default_rng(30)
    for _ in range(20):
        row0 = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        row0 = row0 / np.linalg.norm(row0)
        p = from_rows(row0, -row0, BlankState(0.5))
        c = machine.couplings(p)
        assert max(abs(c.g), abs(c.h), abs(c.e), abs(c.f)) <= 1e-15
        report = machine.validate(p)
        assert abs(report.orthogonality_defect - 1.0) <= 1e-12
        assert not report.is_valid


def test_case2_canonical_amplitudes():
    p = presets.by_name("case2")
    assert p.c0 == 1.0 and p.d1 == 1.0
    c = couplings(p)
    assert (c.g, c.h, c.e, c.f) == (0.0, 0.0, 1.0, 1.0)
    for deficit in (metrics.legacy_fidelity_deficit, metrics.fidelity_deficit):
        for m1p in (0.0, 0.5, 1.0):
            assert abs(deficit(*c, m1p) - 1.0) <= 1e-12


def test_case3_couplings_and_balanced_distortion():
    p = presets.by_name("case3")
    c = couplings(p)
    assert (c.g, c.h, c.e, c.f) == (1.0, 1.0, 0.0, 0.0)
    assert metrics.curves(p, 1.0)[1][0] == 0.0
    assert abs(metrics.curves(p, 0.5)[1][0] - 0.5) <= 1e-12


def test_case4_default_duplicates_case3():
    c3 = presets.by_name("case3")
    c4 = presets.by_name("case4")
    assert c4 == c3
    assert exchange_only_averages(couplings(c4), c4.sigma) == pytest.approx(
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
    dc = metrics.distortion_coefficients(*c)
    assert abs(metrics.avg_distortion(*dc) - dbar) <= 1e-12
    assert abs(metrics.averages(p, metrics.closed_curves)[1] - dbar) <= 1e-8


def test_perfect_preset_pointwise_unit_fidelity():
    p = presets.by_name("perfect")
    assert p.sigma.m1p == 1.0
    c = couplings(p)
    assert (c.e, c.h, c.g, c.f) == (1.0, 1.0, 0.0, 0.0)
    for x in (0.0, 1.0):
        assert metrics.curves(p, x)[0][0] == 1.0
    for x in (0.25, 0.5, 0.75):
        assert abs(metrics.curves(p, x)[0][0] - 1.0) <= 1e-12


def test_perfect_preset_expected_distortion_value():
    # quartic = 2 and coherence sum = 2: 2/30 + 1/3 - 2*(3*pi/64)
    p = presets.by_name("perfect")
    expected = 2.0 / 30.0 + 1.0 / 3.0 - 3.0 * math.pi / 32.0
    assert PERFECT_AVG_DISTORTION == pytest.approx(expected, abs=1e-15)
    assert metrics.distortion_coefficients(*couplings(p)) == (2.0, 2.0)
