import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from qdelete import machine, metrics, qlinalg
from qdelete.machine import BlankState, Couplings, MachineParams
from qdelete.optimizer import random_machine
from qdelete.presets import by_name
from reduced_states import mode1_state_closed, mode2_state_closed

SQRT_HALF = math.sqrt(0.5)

CASE1 = Couplings(g=0j, h=0j, e=0j, f=0j)
CASE2 = Couplings(g=0j, h=0j, e=1 + 0j, f=1 + 0j)
CASE3 = Couplings(g=1 + 0j, h=1 + 0j, e=0j, f=0j)


# ---------------------------------------------------------------------------
# closed-form reduced states vs the partial-trace oracle


def test_mode1_closed_case3_balanced():
    rho = mode1_state_closed(CASE3, 0.5)
    assert_allclose(rho, 0.5 * np.eye(2), atol=1e-15)


def test_mode1_closed_pure_limit():
    rng = np.random.default_rng(0)
    c = Couplings(*(rng.standard_normal(4) + 1j * rng.standard_normal(4)))
    assert_allclose(
        mode1_state_closed(c, 1.0),
        np.array([[1, 0], [0, 0]], dtype=complex),
        atol=1e-15,
    )


def test_mode1_closed_case2_balanced():
    rho = mode1_state_closed(CASE2, 0.5)
    assert_allclose(rho, 0.5 * np.eye(2), atol=1e-15)


def test_mode2_closed_blank_limit():
    sigma = BlankState(0.3)
    rho = mode2_state_closed(CASE3, sigma, 0.0)
    sig = sigma.ket()
    assert_allclose(rho, np.outer(sig, sig.conj()), atol=1e-15)


def test_mode2_closed_case3_balanced():
    sigma = BlankState(SQRT_HALF)
    rho = mode2_state_closed(CASE3, sigma, 0.5)
    sig = sigma.ket()
    expected = 0.5 * np.outer(sig, sig.conj()) + 0.25 * np.eye(2)
    assert_allclose(rho, expected, atol=1e-15)


def test_mode2_closed_perfect_preset_is_blank():
    record = by_name("perfect")
    for x in (0.0, 0.25, 0.5, 0.75, 1.0):
        rho = mode2_state_closed(record.couplings, record.sigma, x)
        assert_allclose(rho, np.array([[1, 0], [0, 0]], dtype=complex), atol=1e-15)


@pytest.mark.parametrize("x", [-0.1, 1.1, math.nan])
def test_closed_states_reject_bad_alpha_sq(x):
    with pytest.raises(ValueError):
        mode1_state_closed(CASE3, x)
    with pytest.raises(ValueError):
        mode2_state_closed(CASE3, BlankState(0.5), x)


def test_reduced_states_match_oracle_on_random_machines():
    rng = np.random.default_rng(1)
    grid = np.linspace(0.0, 1.0, 21)
    for _ in range(25):
        p = random_machine(rng)
        c = machine.couplings(p)
        for x in grid:
            out = machine.outputs(p, x)
            assert_allclose(
                mode1_state_closed(c, x),
                qlinalg.partial_trace_mode1(out),
                atol=1e-10,
            )
            assert_allclose(
                mode2_state_closed(c, p.sigma, x),
                qlinalg.partial_trace_mode2(out),
                atol=1e-10,
            )


# ---------------------------------------------------------------------------
# distortion coefficients and polynomial


def test_distortion_coefficients_case1():
    dc = metrics.distortion_coefficients(CASE1)
    assert dc.quartic == 2.0
    assert dc.coherence_sum == 0.0


def test_distortion_coefficients_case2():
    dc = metrics.distortion_coefficients(CASE2)
    assert dc.quartic == 0.0
    assert dc.coherence_sum == 0.0


def test_distortion_coefficients_case3():
    dc = metrics.distortion_coefficients(CASE3)
    assert dc.quartic == 0.0
    assert dc.coherence_sum == 0.0


def test_distortion_coefficients_invariants_on_random_couplings():
    rng = np.random.default_rng(2)
    for _ in range(50):
        c = Couplings(*(rng.standard_normal(4) + 1j * rng.standard_normal(4)))
        dc = metrics.distortion_coefficients(c)
        assert type(dc.quartic) is float and type(dc.coherence_sum) is float
        assert dc.quartic >= 0.0
        # quartic >= 2 |coherence|^2 and coherence_sum = 2 Re(coherence)
        assert dc.coherence_sum ** 2 <= 2.0 * dc.quartic + 1e-12


def test_distortion_closed_endpoints_vanish():
    for dc in map(metrics.distortion_coefficients, (CASE1, CASE2, CASE3)):
        assert metrics.distortion_closed(dc, 0.0) == 0.0
        assert metrics.distortion_closed(dc, 1.0) == 0.0


def test_distortion_closed_case3_balanced():
    dc = metrics.distortion_coefficients(CASE3)
    assert abs(metrics.distortion_closed(dc, 0.5) - 0.5) <= 1e-12


def test_distortion_closed_case1_balanced():
    dc = metrics.distortion_coefficients(CASE1)
    # quartic term 2/16 plus 2 * 1/4
    assert abs(metrics.distortion_closed(dc, 0.5) - 0.625) <= 1e-12


def test_distortion_closed_vectorized_matches_scalar():
    dc = metrics.distortion_coefficients(CASE3)
    xs = np.linspace(0.0, 1.0, 17)
    vec = metrics.distortion_closed(dc, xs)
    scalar = np.array([metrics.distortion_closed(dc, float(x)) for x in xs])
    assert_allclose(vec, scalar, atol=0)


def test_distortion_closed_rejects_bad_grid():
    dc = metrics.distortion_coefficients(CASE3)
    with pytest.raises(ValueError):
        metrics.distortion_closed(dc, np.array([0.0, 1.2]))


# ---------------------------------------------------------------------------
# direct distortion oracle


def test_distortion_direct_case3():
    p = by_name("case3").params
    assert metrics.distortion_curve(p, 1.0)[0] == 0.0
    assert abs(metrics.distortion_curve(p, 0.5)[0] - 0.5) <= 1e-12


def test_distortion_direct_case2():
    p = by_name("case2").params
    assert abs(metrics.distortion_curve(p, 0.5)[0] - 0.5) <= 1e-12


def test_distortion_direct_requires_valid_machine():
    with pytest.raises(machine.MachineValidationError):
        metrics.distortion_curve(MachineParams(a0=1.0, a1=1.0), 0.5)


def test_distortion_closed_matches_direct_on_random_machines():
    rng = np.random.default_rng(3)
    grid = np.linspace(0.0, 1.0, 21)
    for _ in range(25):
        p = random_machine(rng)
        dc = metrics.distortion_coefficients(machine.couplings(p))
        for x in grid:
            closed = metrics.distortion_closed(dc, float(x))
            direct = metrics.distortion_curve(p, x)[0]
            assert abs(closed - direct) <= 1e-10


# ---------------------------------------------------------------------------
# average distortion


def test_avg_distortion_case1_both_modes():
    dc = metrics.distortion_coefficients(CASE1)
    assert abs(metrics.avg_distortion(dc, "legacy") - 0.4) <= 1e-12
    assert abs(metrics.avg_distortion(dc, "analytic") - 0.4) <= 1e-12


def test_avg_distortion_case2_case3():
    for c in (CASE2, CASE3):
        dc = metrics.distortion_coefficients(c)
        assert abs(metrics.avg_distortion(dc, "legacy") - 1.0 / 3.0) <= 1e-12
        assert abs(metrics.avg_distortion(dc, "analytic") - 1.0 / 3.0) <= 1e-12


def test_avg_distortion_modes_differ_with_coherence():
    dc = metrics.DistortionCoefficients(quartic=0.0, coherence_sum=1.0)
    legacy = metrics.avg_distortion(dc, "legacy")
    analytic = metrics.avg_distortion(dc, "analytic")
    assert abs(legacy - (1.0 / 3.0 - 0.589)) <= 1e-12
    assert abs(analytic - (1.0 / 3.0 - 3.0 * math.pi / 64.0)) <= 1e-12


def test_avg_distortion_rejects_unknown_mode():
    with pytest.raises(ValueError):
        metrics.avg_distortion(metrics.distortion_coefficients(CASE3), "exact")


def test_avg_distortion_quadrature_known_values():
    assert abs(
        metrics.avg_distortion_quadrature(metrics.distortion_coefficients(CASE1)) - 0.4
    ) <= 1e-8
    assert abs(
        metrics.avg_distortion_quadrature(metrics.distortion_coefficients(CASE3)) - 1.0 / 3.0
    ) <= 1e-8


def test_avg_distortion_quadrature_adjudicates_cross_constant():
    # The quadrature is the oracle for the cross-term constant: it must agree
    # with the analytic mode (3*pi/64) and refute the legacy 0.589.
    dc = metrics.DistortionCoefficients(quartic=0.0, coherence_sum=1.0)
    quad = metrics.avg_distortion_quadrature(dc)
    assert abs(quad - metrics.avg_distortion(dc, "analytic")) <= 1e-6
    assert abs(quad - metrics.avg_distortion(dc, "legacy")) > 0.4


def test_avg_distortion_quadrature_matches_adaptive_integration():
    from scipy.integrate import quad

    rng = np.random.default_rng(4)
    for _ in range(5):
        c = Couplings(*(rng.standard_normal(4) + 1j * rng.standard_normal(4)))
        dc = metrics.distortion_coefficients(c)
        reference, err = quad(lambda x: metrics.distortion_closed(dc, x), 0.0, 1.0)
        assert err < 1e-7
        assert abs(metrics.avg_distortion_quadrature(dc) - reference) <= 1e-7


def test_quadrature_reports_non_convergence():
    dc = metrics.DistortionCoefficients(quartic=0.0, coherence_sum=2e9)
    with pytest.raises(metrics.ConvergenceError):
        metrics.avg_distortion_quadrature(dc)


# ---------------------------------------------------------------------------
# fidelity


def test_fidelity_direct_endpoints_exact():
    for name in ("case2", "case3", "perfect"):
        p = by_name(name).params
        assert metrics.fidelity_curve(p, 0.0)[0] == 1.0
        assert metrics.fidelity_curve(p, 1.0)[0] == 1.0


def test_fidelity_direct_case3_balanced():
    p = by_name("case3").params
    assert abs(metrics.fidelity_curve(p, 0.5)[0] - 0.75) <= 1e-12


def test_fidelity_direct_perfect_preset_everywhere():
    p = by_name("perfect").params
    for x in (0.0, 0.25, 0.5, 0.75, 1.0):
        assert abs(metrics.fidelity_curve(p, x)[0] - 1.0) <= 1e-12


def test_fidelity_direct_requires_valid_machine():
    with pytest.raises(machine.MachineValidationError):
        metrics.fidelity_curve(MachineParams(a0=1.0, a1=1.0), 0.5)


def test_fidelity_deficit_cases():
    sigma = BlankState(SQRT_HALF)
    for mode in metrics.DEFICIT_MODES:
        assert metrics.fidelity_deficit(CASE1, sigma, mode) == 2.0
        assert abs(metrics.fidelity_deficit(CASE2, sigma, mode) - 1.0) <= 1e-12
        assert abs(metrics.fidelity_deficit(CASE3, sigma, mode) - 1.0) <= 1e-12
    # any sigma: the case2/case3 weights are balanced, so modes coincide
    for m1p in (0.0, 0.3, 1.0):
        sigma = BlankState(m1p)
        assert metrics.fidelity_deficit(CASE2, sigma, "legacy") == metrics.fidelity_deficit(
            CASE2, sigma, "consistent"
        )


def test_fidelity_deficit_modes_coincide_for_balanced_weights():
    # With |e| = |g| and |h| = |f| the two weight sums are identical floats,
    # so the conventions agree bitwise for every blank state.
    rng = np.random.default_rng(5)
    for _ in range(20):
        g, f = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        c = Couplings(g=g, h=f * 1j, e=g * 1j, f=f)
        sigma = BlankState(rng.uniform(-1.0, 1.0))
        legacy = metrics.fidelity_deficit(c, sigma, "legacy")
        consistent = metrics.fidelity_deficit(c, sigma, "consistent")
        assert legacy == consistent


def test_fidelity_deficit_modes_near_balanced_overlap():
    # m1p^2 = 1/2 is not exactly representable; the residual gap is bounded
    # by |weight difference| * |m^2 - s^2| ~ 1e-16.
    rng = np.random.default_rng(6)
    sigma = BlankState(SQRT_HALF)
    for _ in range(20):
        c = Couplings(*(rng.standard_normal(4) + 1j * rng.standard_normal(4)))
        gap = abs(
            metrics.fidelity_deficit(c, sigma, "legacy")
            - metrics.fidelity_deficit(c, sigma, "consistent")
        )
        assert gap <= 1e-10


def test_fidelity_deficit_rejects_unknown_mode():
    with pytest.raises(ValueError):
        metrics.fidelity_deficit(CASE3, BlankState(0.5), "exact")


def test_consistent_deficit_matches_oracle():
    rng = np.random.default_rng(7)
    grid = np.linspace(0.0, 1.0, 21)
    for _ in range(25):
        p = random_machine(rng)
        deficit = metrics.fidelity_deficit(machine.couplings(p), p.sigma, "consistent")
        closed = metrics.fidelity_closed(deficit, grid)
        direct = metrics.fidelity_curve(p, grid)
        assert np.max(np.abs(direct - closed)) <= 1e-10


def test_avg_fidelity_values():
    assert abs(metrics.avg_fidelity(2.0) - 2.0 / 3.0) <= 1e-15
    assert abs(metrics.avg_fidelity(1.0) - 5.0 / 6.0) <= 1e-15


def test_avg_fidelity_flags_out_of_range_deficit():
    with pytest.warns(RuntimeWarning):
        assert metrics.avg_fidelity(0.0) == 1.0
    with pytest.warns(RuntimeWarning):
        assert metrics.avg_fidelity(6.5) == pytest.approx(1.0 - 6.5 / 6.0)


def test_avg_fidelity_silent_in_range():
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        metrics.avg_fidelity(1.0)


def test_avg_fidelity_quadrature_cases():
    assert abs(metrics.avg_fidelity_quadrature(by_name("case3").params) - 5.0 / 6.0) <= 1e-8
    assert abs(metrics.avg_fidelity_quadrature(by_name("case2").params) - 5.0 / 6.0) <= 1e-8
    assert abs(metrics.avg_fidelity_quadrature(by_name("perfect").params) - 1.0) <= 1e-10


def test_avg_fidelity_quadrature_matches_consistent_deficit():
    rng = np.random.default_rng(8)
    for _ in range(15):
        p = random_machine(rng)
        deficit = metrics.fidelity_deficit(machine.couplings(p), p.sigma, "consistent")
        assert abs(metrics.avg_fidelity_quadrature(p) - (1.0 - deficit / 6.0)) <= 1e-8


def test_avg_fidelity_quadrature_requires_valid_machine():
    with pytest.raises(machine.MachineValidationError):
        metrics.avg_fidelity_quadrature(MachineParams(a0=1.0, a1=1.0))


def test_fidelity_closed_and_formula_quadrature():
    assert metrics.fidelity_closed(2.0, 0.5) == 0.5
    assert metrics.fidelity_closed(2.0, 0.0) == 1.0
    assert abs(metrics.avg_fidelity_closed_quadrature(2.0) - 2.0 / 3.0) <= 1e-10


def test_batched_fidelity_nodes_match_scalar_oracle():
    # reference: one single-point `outputs`, partial trace and expectation per grid point
    rng = np.random.default_rng(9)
    xs = np.linspace(0.01, 0.99, 37)
    for _ in range(5):
        p = random_machine(rng)
        batched = metrics._fidelity_nodes(p, xs)
        sig = p.sigma.ket()
        rhos = [qlinalg.partial_trace_mode2(machine.outputs(p, x)) for x in xs]
        scalar = [np.vdot(sig, rho @ sig).real for rho in rhos]
        assert_allclose(batched, scalar, atol=1e-13)


def test_batched_distortion_nodes_match_scalar_oracle():
    rng = np.random.default_rng(21)
    xs = np.linspace(0.0, 1.0, 37)
    for _ in range(5):
        p = random_machine(rng)
        batched = metrics.distortion_curve(p, xs)
        ds = [
            metrics.input_state(x) - qlinalg.partial_trace_mode1(machine.outputs(p, x))
            for x in xs
        ]
        scalar = [np.trace(d @ d).real for d in ds]
        assert_allclose(batched, scalar, atol=1e-13)


def test_curves_keep_scalar_grid_one_dimensional():
    p = by_name("case3").params
    assert metrics.fidelity_curve(p, 0.5).shape == (1,)
    assert metrics.distortion_curve(p, 0.5).shape == (1,)


@pytest.mark.parametrize("grid", [[0.0, 1.5], [math.nan], [-0.25]])
def test_curves_reject_bad_grid(grid):
    p = by_name("case3").params
    with pytest.raises(ValueError):
        metrics.fidelity_curve(p, grid)
    with pytest.raises(ValueError):
        metrics.distortion_curve(p, grid)


def test_input_state_stacks_over_a_grid():
    xs = np.array([0.0, 0.3, 1.0])
    stacked = metrics.input_state(xs)
    assert stacked.shape == (3, 2, 2)
    for x, rho in zip(xs, stacked):
        assert_allclose(rho, metrics.input_state(float(x)), atol=0)


def test_endpoint_exactness_on_random_machines():
    rng = np.random.default_rng(10)
    for _ in range(15):
        p = random_machine(rng)
        assert abs(metrics.fidelity_curve(p, 0.0)[0] - 1.0) <= 1e-12
        assert abs(metrics.fidelity_curve(p, 1.0)[0] - 1.0) <= 1e-12
        assert abs(metrics.distortion_curve(p, 0.0)[0]) <= 1e-12
        assert abs(metrics.distortion_curve(p, 1.0)[0]) <= 1e-12


# ---------------------------------------------------------------------------
# exchange-only (case 4) closed forms


def test_case4_metrics_unit_weights():
    sigma = BlankState(SQRT_HALF)
    c4 = metrics.case4_metrics(Couplings(g=1 + 0j, h=1 + 0j, e=0j, f=0j), sigma)
    assert c4.population_defect == 0.0
    assert abs(c4.avg_distortion - 1.0 / 3.0) <= 1e-12
    assert abs(c4.avg_fidelity - 5.0 / 6.0) <= 1e-12
    assert abs(c4.avg_fidelity_consistent - 5.0 / 6.0) <= 1e-12


def test_case4_metrics_degenerate_couplings():
    c4 = metrics.case4_metrics(Couplings(g=0j, h=0j, e=0j, f=0j), BlankState(SQRT_HALF))
    assert c4.population_defect == 2.0
    assert abs(c4.avg_distortion - 0.4) <= 1e-12


def test_case4_metrics_asymmetric_weights():
    # |g|^2 = 1, |h|^2 = 0 at m1p = 1: the two deficit conventions split.
    c4 = metrics.case4_metrics(Couplings(g=1 + 0j, h=0j, e=0j, f=0j), BlankState(1.0))
    assert c4.population_defect == 1.0
    assert abs(c4.avg_distortion - 11.0 / 30.0) <= 1e-12
    assert c4.deficit == 1.0
    assert abs(c4.avg_fidelity - 5.0 / 6.0) <= 1e-12
    assert c4.deficit_consistent == 2.0
    assert abs(c4.avg_fidelity_consistent - 2.0 / 3.0) <= 1e-12


def test_case4_metrics_rejects_nonzero_e_or_f():
    with pytest.raises(ValueError):
        metrics.case4_metrics(CASE2, BlankState(0.5))


def test_case4_matches_general_closed_forms():
    # e = f = 0 makes the general coefficients collapse onto the exchange-only
    # ones: quartic equals the population defect and the deficits line up.
    rng = np.random.default_rng(20)
    for _ in range(20):
        g, h = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        c = Couplings(g=g, h=h, e=0j, f=0j)
        sigma = BlankState(rng.uniform(-1.0, 1.0))
        c4 = metrics.case4_metrics(c, sigma)
        dc = metrics.distortion_coefficients(c)
        assert abs(dc.quartic - c4.population_defect) <= 1e-12
        assert abs(metrics.avg_distortion(dc, "analytic") - c4.avg_distortion) <= 1e-12
        assert abs(metrics.fidelity_deficit(c, sigma, "legacy") - c4.deficit) <= 1e-12
        assert (
            abs(metrics.fidelity_deficit(c, sigma, "consistent") - c4.deficit_consistent)
            <= 1e-12
        )


# ---------------------------------------------------------------------------
# input state


def test_input_state_entries():
    rho = metrics.input_state(0.5)
    assert_allclose(rho, np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex), atol=1e-15)
    assert_allclose(metrics.input_state(1.0), np.diag([1.0, 0.0]).astype(complex), atol=0)
