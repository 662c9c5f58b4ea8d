import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from qdelete import machine, metrics, qlinalg
from qdelete.machine import BlankState, Couplings, MachineParams
from qdelete.optimizer import random_machine
from qdelete.presets import by_name
from paper_values import exchange_only_averages, exchange_only_coefficients
from reduced_states import mode1_state_closed, mode2_state_closed

SQRT_HALF = math.sqrt(0.5)

CASE1 = Couplings(g=0j, h=0j, e=0j, f=0j)
CASE2 = Couplings(g=0j, h=0j, e=1 + 0j, f=1 + 0j)
CASE3 = Couplings(g=1 + 0j, h=1 + 0j, e=0j, f=0j)


def with_couplings(c: Couplings, sigma: BlankState = BlankState(SQRT_HALF)) -> MachineParams:
    """A machine (valid or not) whose couplings are exactly ``c``: row 0 holds them, row 1 is 0."""
    return MachineParams(a0=c.g, b0=c.h, c0=c.e, d0=c.f, sigma=sigma)


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
    p = by_name("perfect")
    for x in (0.0, 0.25, 0.5, 0.75, 1.0):
        rho = mode2_state_closed(machine.couplings(p), p.sigma, x)
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


def test_closed_distortion_endpoints_vanish():
    for c in (CASE1, CASE2, CASE3):
        assert metrics.closed_curves(with_couplings(c), [0.0, 1.0])[1].tolist() == [0.0, 0.0]


def test_closed_distortion_case3_balanced():
    assert abs(metrics.closed_curves(with_couplings(CASE3), 0.5)[1][0] - 0.5) <= 1e-12


def test_closed_distortion_case1_balanced():
    # quartic term 2/16 plus 2 * 1/4
    assert abs(metrics.closed_curves(with_couplings(CASE1), 0.5)[1][0] - 0.625) <= 1e-12


def test_closed_curves_vectorized_match_scalar():
    p = with_couplings(CASE3)
    xs = np.linspace(0.0, 1.0, 17)
    scalar = np.array([np.concatenate(metrics.closed_curves(p, float(x))) for x in xs])
    assert_allclose(np.stack(metrics.closed_curves(p, xs), axis=1), scalar, atol=0)


def test_closed_curves_reject_bad_grid():
    with pytest.raises(ValueError):
        metrics.closed_curves(with_couplings(CASE3), np.array([0.0, 1.2]))


# ---------------------------------------------------------------------------
# direct distortion oracle


def test_distortion_direct_case3():
    p = by_name("case3")
    assert metrics.curves(p, 1.0)[1][0] == 0.0
    assert abs(metrics.curves(p, 0.5)[1][0] - 0.5) <= 1e-12


def test_distortion_direct_case2():
    p = by_name("case2")
    assert abs(metrics.curves(p, 0.5)[1][0] - 0.5) <= 1e-12


def test_distortion_direct_requires_valid_machine():
    with pytest.raises(machine.MachineValidationError):
        metrics.curves(MachineParams(a0=1.0, a1=1.0), 0.5)


def test_closed_distortion_matches_the_oracle_on_random_machines():
    rng = np.random.default_rng(3)
    grid = np.linspace(0.0, 1.0, 21)
    for _ in range(25):
        p = random_machine(rng)
        for x in grid:
            closed = metrics.closed_curves(p, float(x))[1][0]
            direct = metrics.curves(p, x)[1][0]
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
    # the perfect preset's couplings (0, 1, 1, 0): quartic 2, coherence sum 2
    dc = metrics.distortion_coefficients(machine.couplings(by_name("perfect")))
    legacy = metrics.avg_distortion(dc, "legacy")
    analytic = metrics.avg_distortion(dc, "analytic")
    assert abs(legacy - (2.0 / 30.0 + 1.0 / 3.0 - 2.0 * 0.589)) <= 1e-12
    assert abs(analytic - (2.0 / 30.0 + 1.0 / 3.0 - 2.0 * 3.0 * math.pi / 64.0)) <= 1e-12


def test_avg_distortion_rejects_unknown_mode():
    with pytest.raises(ValueError):
        metrics.avg_distortion(metrics.distortion_coefficients(CASE3), "exact")


def test_closed_route_averages_known_values():
    fbar, dbar = metrics.averages(with_couplings(CASE1), metrics.closed_curves)
    assert abs(fbar - 2.0 / 3.0) <= 1e-8 and abs(dbar - 0.4) <= 1e-8
    fbar, dbar = metrics.averages(with_couplings(CASE3), metrics.closed_curves)
    assert abs(fbar - 5.0 / 6.0) <= 1e-8 and abs(dbar - 1.0 / 3.0) <= 1e-8


def test_closed_route_quadrature_adjudicates_cross_constant():
    # The quadrature is the oracle for the cross-term constant: it must agree
    # with the analytic mode (3*pi/64) and refute the legacy 0.589.
    p = by_name("perfect")  # coherence sum 2
    dc = metrics.distortion_coefficients(machine.couplings(p))
    quad = metrics.averages(p, metrics.closed_curves)[1]
    assert abs(quad - metrics.avg_distortion(dc, "analytic")) <= 1e-6
    assert abs(quad - metrics.avg_distortion(dc, "legacy")) > 0.4


def test_closed_route_averages_match_adaptive_integration():
    from scipy.integrate import quad

    rng = np.random.default_rng(4)
    for _ in range(5):
        c = Couplings(*(rng.standard_normal(4) + 1j * rng.standard_normal(4)))
        p = with_couplings(c, BlankState(rng.uniform(-1.0, 1.0)))
        averages = metrics.averages(p, metrics.closed_curves)
        for curve, average in enumerate(averages):
            reference, err = quad(lambda x: metrics.closed_curves(p, x)[curve][0], 0.0, 1.0)
            assert err < 1e-7
            assert abs(average - reference) <= 1e-7


def test_quadrature_reports_non_convergence():
    def route(p, xs):  # the oracle's shape, with a cross term too large for the rule
        return np.ones_like(xs), 2e9 * (xs * (1.0 - xs)) ** 1.5

    (f_coarse, f_fine), (d_coarse, d_fine) = metrics.levels(by_name("case3"), route)
    assert abs(f_fine - f_coarse) <= metrics.QUAD_AGREEMENT_TOL
    assert abs(d_fine - d_coarse) > metrics.QUAD_AGREEMENT_TOL
    with pytest.raises(metrics.ConvergenceError, match="distortion"):
        metrics.averages(by_name("case3"), route)


# ---------------------------------------------------------------------------
# fidelity


def test_fidelity_direct_endpoints_exact():
    for name in ("case2", "case3", "perfect"):
        p = by_name(name)
        assert metrics.curves(p, 0.0)[0][0] == 1.0
        assert metrics.curves(p, 1.0)[0][0] == 1.0


def test_fidelity_direct_case3_balanced():
    p = by_name("case3")
    assert abs(metrics.curves(p, 0.5)[0][0] - 0.75) <= 1e-12


def test_fidelity_direct_perfect_preset_everywhere():
    p = by_name("perfect")
    for x in (0.0, 0.25, 0.5, 0.75, 1.0):
        assert abs(metrics.curves(p, x)[0][0] - 1.0) <= 1e-12


def test_fidelity_direct_requires_valid_machine():
    with pytest.raises(machine.MachineValidationError):
        metrics.curves(MachineParams(a0=1.0, a1=1.0), 0.5)


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
        closed = metrics.closed_curves(p, grid)[0]
        direct = metrics.curves(p, grid)[0]
        assert np.max(np.abs(direct - closed)) <= 1e-10


def test_avg_fidelity_values():
    assert abs(metrics.avg_fidelity(2.0) - 2.0 / 3.0) <= 1e-15
    assert abs(metrics.avg_fidelity(1.0) - 5.0 / 6.0) <= 1e-15


def test_avg_fidelity_flags_out_of_range_deficit():
    with pytest.warns(RuntimeWarning):
        assert metrics.avg_fidelity(-0.001) == pytest.approx(1.0 + 0.001 / 6.0)
    with pytest.warns(RuntimeWarning):
        assert metrics.avg_fidelity(6.5) == pytest.approx(1.0 - 6.5 / 6.0)


def test_avg_fidelity_warning_names_the_caller():
    with pytest.warns(RuntimeWarning) as record:
        metrics.avg_fidelity(6.5)
    assert record[0].filename == __file__


def test_avg_fidelity_silent_in_range():
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        metrics.avg_fidelity(1.0)
        # the closed interval's ends: perfect deletion and the worst deficit
        assert metrics.avg_fidelity(0.0) == 1.0
        assert metrics.avg_fidelity(6.0) == 0.0


def test_averages_of_the_cases():
    assert abs(metrics.averages(by_name("case3"))[0] - 5.0 / 6.0) <= 1e-8
    assert abs(metrics.averages(by_name("case2"))[0] - 5.0 / 6.0) <= 1e-8
    assert abs(metrics.averages(by_name("perfect"))[0] - 1.0) <= 1e-10
    for name in ("case2", "case3"):
        assert abs(metrics.averages(by_name(name))[1] - 1.0 / 3.0) <= 1e-8


def test_averages_match_the_consistent_deficit_and_analytic_distortion():
    rng = np.random.default_rng(8)
    for _ in range(15):
        p = random_machine(rng)
        c = machine.couplings(p)
        fbar, dbar = metrics.averages(p)
        assert abs(fbar - (1.0 - metrics.fidelity_deficit(c, p.sigma, "consistent") / 6.0)) <= 1e-8
        assert abs(dbar - metrics.avg_distortion(metrics.distortion_coefficients(c))) <= 1e-8


def test_averages_require_valid_machine():
    with pytest.raises(machine.MachineValidationError):
        metrics.averages(MachineParams(a0=1.0, a1=1.0))


def test_closed_curves_and_averages_of_case1_in_formula_mode():
    p = by_name("case1")  # fails validation; its closed forms need none
    assert metrics.closed_curves(p, [0.5, 0.0])[0].tolist() == [0.5, 1.0]
    assert abs(metrics.averages(p, metrics.closed_curves)[0] - 2.0 / 3.0) <= 1e-10


def test_batched_fidelity_matches_per_point_simulation():
    # reference: one single-point `outputs`, partial trace and expectation per grid point
    rng = np.random.default_rng(9)
    xs = np.linspace(0.01, 0.99, 37)
    for _ in range(5):
        p = random_machine(rng)
        batched = metrics.curves(p, xs)[0]
        sig = p.sigma.ket()
        rhos = [qlinalg.partial_trace_mode2(machine.outputs(p, x)) for x in xs]
        scalar = [np.vdot(sig, rho @ sig).real for rho in rhos]
        assert_allclose(batched, scalar, atol=1e-13)


def test_batched_distortion_matches_per_point_simulation():
    rng = np.random.default_rng(21)
    xs = np.linspace(0.0, 1.0, 37)
    for _ in range(5):
        p = random_machine(rng)
        batched = metrics.curves(p, xs)[1]
        ds = [
            metrics.input_state(x) - qlinalg.partial_trace_mode1(machine.outputs(p, x))
            for x in xs
        ]
        scalar = [np.trace(d @ d).real for d in ds]
        assert_allclose(batched, scalar, atol=1e-13)


def test_curves_keep_scalar_grid_one_dimensional():
    p = by_name("case3")
    fidelity, distortion = metrics.curves(p, 0.5)
    assert fidelity.shape == distortion.shape == (1,)


@pytest.mark.parametrize("grid", [[0.0, 1.5], [math.nan], [-0.25]])
def test_curves_reject_bad_grid(grid):
    p = by_name("case3")
    with pytest.raises(ValueError):
        metrics.curves(p, grid)


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
        for x in (0.0, 1.0):
            fidelity, distortion = metrics.curves(p, x)
            assert abs(fidelity[0] - 1.0) <= 1e-12
            assert abs(distortion[0]) <= 1e-12


# ---------------------------------------------------------------------------
# exchange-only (case 4) closed forms: the general ones at e = f = 0


def _library_averages(c, sigma):
    """Average distortion and both average fidelities by the general closed forms."""
    dbar = metrics.avg_distortion(metrics.distortion_coefficients(c), "analytic")
    return (
        dbar,
        1.0 - metrics.fidelity_deficit(c, sigma, "legacy") / 6.0,
        1.0 - metrics.fidelity_deficit(c, sigma, "consistent") / 6.0,
    )


def test_case4_metrics_unit_weights():
    sigma = BlankState(SQRT_HALF)
    assert exchange_only_coefficients(CASE3, sigma)[0] == 0.0
    expected = exchange_only_averages(CASE3, sigma)
    assert expected == pytest.approx((1.0 / 3.0, 5.0 / 6.0, 5.0 / 6.0), abs=1e-12)
    assert_allclose(_library_averages(CASE3, sigma), expected, rtol=0, atol=1e-12)


def test_case4_metrics_degenerate_couplings():
    sigma = BlankState(SQRT_HALF)
    assert exchange_only_coefficients(CASE1, sigma)[0] == 2.0
    expected = exchange_only_averages(CASE1, sigma)
    assert abs(expected[0] - 0.4) <= 1e-12
    assert_allclose(_library_averages(CASE1, sigma), expected, rtol=0, atol=1e-12)


def test_case4_metrics_asymmetric_weights():
    # |g|^2 = 1, |h|^2 = 0 at m1p = 1: the two deficit conventions split.
    c = Couplings(g=1 + 0j, h=0j, e=0j, f=0j)
    sigma = BlankState(1.0)
    assert exchange_only_coefficients(c, sigma) == (1.0, 1.0, 2.0)
    expected = exchange_only_averages(c, sigma)
    assert expected == pytest.approx((11.0 / 30.0, 5.0 / 6.0, 2.0 / 3.0), abs=1e-12)
    assert_allclose(_library_averages(c, sigma), expected, rtol=0, atol=1e-12)


def test_case4_matches_general_closed_forms():
    # e = f = 0 makes the general coefficients collapse onto the exchange-only
    # ones: quartic equals the population defect and the deficits line up.
    rng = np.random.default_rng(20)
    for _ in range(20):
        g, h = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        c = Couplings(g=g, h=h, e=0j, f=0j)
        sigma = BlankState(rng.uniform(-1.0, 1.0))
        n, k_legacy, k_consistent = exchange_only_coefficients(c, sigma)
        assert abs(metrics.distortion_coefficients(c).quartic - n) <= 1e-12
        assert abs(metrics.fidelity_deficit(c, sigma, "legacy") - k_legacy) <= 1e-12
        assert abs(metrics.fidelity_deficit(c, sigma, "consistent") - k_consistent) <= 1e-12
        assert_allclose(
            _library_averages(c, sigma), exchange_only_averages(c, sigma), rtol=0, atol=1e-12
        )


# ---------------------------------------------------------------------------
# input state


def test_input_state_entries():
    rho = metrics.input_state(0.5)
    assert_allclose(rho, np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex), atol=1e-15)
    assert_allclose(metrics.input_state(1.0), np.diag([1.0, 0.0]).astype(complex), atol=0)
