import math
import re

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

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
# closed-form reduced states (criterion 2 compares them with the partial traces)


@pytest.mark.parametrize("c", [CASE2, CASE3], ids=["case2", "case3"])
def test_mode1_closed_balanced(c):
    assert_allclose(mode1_state_closed(c, 0.5), 0.5 * np.eye(2), atol=1e-15)


def test_mode1_closed_pure_limit():
    rng = np.random.default_rng(0)
    c = Couplings(*(rng.standard_normal(4) + 1j * rng.standard_normal(4)))
    assert_allclose(
        mode1_state_closed(c, 1.0),
        np.array([[1, 0], [0, 0]], dtype=complex),
        atol=1e-15,
    )


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


# ---------------------------------------------------------------------------
# distortion coefficients and polynomial


@pytest.mark.parametrize(
    "c, expected",
    [(CASE1, (2.0, 0.0)), (CASE2, (0.0, 0.0)), (CASE3, (0.0, 0.0))],
    ids=["case1", "case2", "case3"],
)
def test_distortion_coefficients_of_the_cases(c, expected):
    assert metrics.distortion_coefficients(*c) == expected


def test_distortion_coefficients_invariants_on_random_couplings():
    rng = np.random.default_rng(2)
    for _ in range(50):
        c = Couplings(*(rng.standard_normal(4) + 1j * rng.standard_normal(4)))
        quartic, coherence_sum = metrics.distortion_coefficients(*c)
        assert type(quartic) is float and type(coherence_sum) is float
        assert quartic >= 0.0
        # quartic >= 2 |coherence|^2 and coherence_sum = 2 Re(coherence)
        assert coherence_sum ** 2 <= 2.0 * quartic + 1e-12


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


def test_curves_distortion_case2():
    p = by_name("case2")
    assert abs(metrics.curves(p, 0.5)[1][0] - 0.5) <= 1e-12


# ---------------------------------------------------------------------------
# average distortion


def test_avg_distortion_case2_case3():
    for c in (CASE2, CASE3):
        dc = metrics.distortion_coefficients(*c)
        legacy = metrics.avg_distortion(*dc, metrics.LEGACY_CROSS_CONSTANT)
        assert abs(legacy - 1.0 / 3.0) <= 1e-12
        assert abs(metrics.avg_distortion(*dc) - 1.0 / 3.0) <= 1e-12


def test_avg_distortion_modes_differ_with_coherence():
    # the perfect preset's couplings (0, 1, 1, 0): quartic 2, coherence sum 2
    dc = metrics.distortion_coefficients(*machine.couplings(by_name("perfect")))
    legacy = metrics.avg_distortion(*dc, metrics.LEGACY_CROSS_CONSTANT)
    analytic = metrics.avg_distortion(*dc)
    assert abs(legacy - (2.0 / 30.0 + 1.0 / 3.0 - 2.0 * 0.589)) <= 1e-12
    assert abs(analytic - (2.0 / 30.0 + 1.0 / 3.0 - 2.0 * 3.0 * math.pi / 64.0)) <= 1e-12


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
    gap = f"distortion quadrature did not converge: levels differ by {abs(d_fine - d_coarse):.3e}"
    with pytest.raises(metrics.ConvergenceError, match=re.escape(gap)):
        metrics.averages(by_name("case3"), route)


def test_levels_call_the_route_once_on_the_64_and_128_gauss_legendre_nodes():
    grids = []

    def route(p, xs):
        grids.append(xs)
        return np.ones_like(xs), xs

    metrics.levels(by_name("case3"), route)
    nodes = [0.5 * (np.polynomial.legendre.leggauss(n)[0] + 1.0) for n in (64, 128)]
    assert len(grids) == 1
    assert_array_equal(grids[0], np.concatenate(nodes))


def test_levels_that_differ_by_exactly_the_tolerance_converge():
    tol = metrics.QUAD_AGREEMENT_TOL
    assert metrics._converged("fidelity", 0.0, tol) == tol
    with pytest.raises(metrics.ConvergenceError, match="fidelity"):
        metrics._converged("fidelity", 0.0, math.nextafter(tol, 1.0))


# ---------------------------------------------------------------------------
# fidelity


def test_curves_fidelity_endpoints_exact_on_the_presets():
    for name in ("case2", "case3", "perfect"):
        p = by_name(name)
        assert metrics.curves(p, 0.0)[0][0] == 1.0
        assert metrics.curves(p, 1.0)[0][0] == 1.0


def test_curves_require_a_valid_machine():
    with pytest.raises(machine.MachineValidationError):
        metrics.curves(MachineParams(a0=1.0, a1=1.0), 0.5)


def test_fidelity_deficit_cases():
    sigma = BlankState(SQRT_HALF)
    for deficit in (metrics.legacy_fidelity_deficit, metrics.fidelity_deficit):
        assert deficit(*CASE1, sigma.m1p) == 2.0
        assert abs(deficit(*CASE2, sigma.m1p) - 1.0) <= 1e-12
        assert abs(deficit(*CASE3, sigma.m1p) - 1.0) <= 1e-12
    # any sigma: the case2/case3 weights are balanced, so modes coincide
    for m1p in (0.0, 0.3, 1.0):
        assert metrics.legacy_fidelity_deficit(*CASE2, m1p) == metrics.fidelity_deficit(*CASE2, m1p)


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


# ---------------------------------------------------------------------------
# exchange-only (case 4) closed forms: the general ones at e = f = 0


def _library_averages(c, sigma):
    """Average distortion and both average fidelities by the general closed forms."""
    dbar = metrics.avg_distortion(*metrics.distortion_coefficients(*c))
    return (
        dbar,
        1.0 - metrics.legacy_fidelity_deficit(*c, sigma.m1p) / 6.0,
        1.0 - metrics.fidelity_deficit(*c, sigma.m1p) / 6.0,
    )


def test_exchange_only_reference_unit_weights():
    sigma = BlankState(SQRT_HALF)
    assert exchange_only_coefficients(CASE3, sigma)[0] == 0.0
    expected = exchange_only_averages(CASE3, sigma)
    assert expected == pytest.approx((1.0 / 3.0, 5.0 / 6.0, 5.0 / 6.0), abs=1e-12)
    assert_allclose(_library_averages(CASE3, sigma), expected, rtol=0, atol=1e-12)


def test_exchange_only_reference_degenerate_couplings():
    sigma = BlankState(SQRT_HALF)
    assert exchange_only_coefficients(CASE1, sigma)[0] == 2.0
    expected = exchange_only_averages(CASE1, sigma)
    assert abs(expected[0] - 0.4) <= 1e-12
    assert_allclose(_library_averages(CASE1, sigma), expected, rtol=0, atol=1e-12)


def test_exchange_only_reference_asymmetric_weights():
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
        assert abs(metrics.distortion_coefficients(*c)[0] - n) <= 1e-12
        assert abs(metrics.legacy_fidelity_deficit(*c, sigma.m1p) - k_legacy) <= 1e-12
        assert abs(metrics.fidelity_deficit(*c, sigma.m1p) - k_consistent) <= 1e-12
        assert_allclose(
            _library_averages(c, sigma), exchange_only_averages(c, sigma), rtol=0, atol=1e-12
        )


# ---------------------------------------------------------------------------
# input state


def test_input_state_entries():
    rho = metrics.input_state(0.5)
    assert_allclose(rho, np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex), atol=1e-15)
    assert_allclose(metrics.input_state(1.0), np.diag([1.0, 0.0]).astype(complex), atol=0)
