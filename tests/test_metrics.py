import math
import re
from fractions import Fraction

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from qdelete import machine, metrics, qlinalg
from qdelete.machine import BlankState, Couplings
from qdelete.presets import by_name
from paper_values import (
    PERFECT_AVG_DISTORTION, exchange_only_averages, exchange_only_coefficients,
)
from reduced_states import mode1_state_closed, mode2_state_closed
from helpers import einsum_traces, random_machine, reference_images, with_couplings

CASE1 = Couplings(g=0j, h=0j, e=0j, f=0j)
CASE2 = Couplings(g=0j, h=0j, e=1 + 0j, f=1 + 0j)
CASE3 = Couplings(g=1 + 0j, h=1 + 0j, e=0j, f=0j)
PURE0 = np.diag([1.0, 0.0]).astype(complex)


def random_couplings(rng):
    return Couplings(*(rng.standard_normal(4) + 1j * rng.standard_normal(4)))


def blank(m1p):
    """The projector onto the blank state of overlap m1p."""
    sig = BlankState(m1p).ket()
    return np.outer(sig, sig.conj())


# ---------------------------------------------------------------------------
# closed-form reduced states (criterion 2 compares them with the partial traces)


@pytest.mark.parametrize(
    "mode, c, m1p, x, expected",
    [
        pytest.param(1, random_couplings(np.random.default_rng(0)), None, 1.0, PURE0,
                     id="mode1-pure-limit"),
        pytest.param(1, CASE2, None, 0.5, 0.5 * np.eye(2), id="mode1-case2-balanced"),
        pytest.param(1, CASE3, None, 0.5, 0.5 * np.eye(2), id="mode1-case3-balanced"),
        pytest.param(2, CASE3, 0.3, 0.0, blank(0.3), id="mode2-blank-limit"),
        pytest.param(2, CASE3, machine.DEFAULT_M1P, 0.5,
                     0.5 * blank(machine.DEFAULT_M1P) + 0.25 * np.eye(2),
                     id="mode2-case3-balanced"),
    ]
    # the perfect preset deletes into its blank state |0> at every x
    + [pytest.param(2, machine.couplings(by_name("perfect")), by_name("perfect").sigma.m1p, x,
                    PURE0, id=f"mode2-perfect-{x}") for x in (0.0, 0.25, 0.5, 0.75, 1.0)],
)
def test_closed_reduced_states(mode, c, m1p, x, expected):
    rho = mode1_state_closed(c, x) if mode == 1 else mode2_state_closed(c, BlankState(m1p), x)
    assert_allclose(rho, expected, atol=1e-15)


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
        c = random_couplings(rng)
        quartic, coherence_sum = metrics.distortion_coefficients(*c)
        assert type(quartic) is float and type(coherence_sum) is float
        assert quartic >= 0.0
        # quartic >= 2 |coherence|^2 and coherence_sum = 2 Re(coherence)
        assert coherence_sum ** 2 <= 2.0 * quartic + 1e-12


def test_closed_distortion_endpoints_vanish():
    for c in (CASE1, CASE2, CASE3):
        assert metrics.closed_curves(with_couplings(c), [0.0, 1.0])[1].tolist() == [0.0, 0.0]


@pytest.mark.parametrize(
    "route, p, expected",
    [
        pytest.param(metrics.closed_curves, with_couplings(CASE3), 0.5, id="closed-case3"),
        # quartic term 2/16 plus 2 * 1/4
        pytest.param(metrics.closed_curves, with_couplings(CASE1), 0.625, id="closed-case1"),
        pytest.param(metrics.curves, by_name("case2"), 0.5, id="oracle-case2"),
    ],
)
def test_distortion_at_the_balanced_input(route, p, expected):
    assert abs(route(p, 0.5)[1][0] - expected) <= 1e-12


def test_closed_curves_vectorized_match_scalar():
    p = with_couplings(CASE3)
    xs = np.linspace(0.0, 1.0, 17)
    scalar = np.array([np.concatenate(metrics.closed_curves(p, float(x))) for x in xs])
    assert_allclose(np.stack(metrics.closed_curves(p, xs), axis=1), scalar, atol=0)


def test_closed_curves_reject_bad_grid():
    with pytest.raises(ValueError):
        metrics.closed_curves(with_couplings(CASE3), np.array([0.0, 1.2]))


# ---------------------------------------------------------------------------
# average distortion


@pytest.mark.parametrize(
    "c, legacy, analytic",
    [
        pytest.param(CASE2, 1.0 / 3.0, 1.0 / 3.0, id="case2"),
        pytest.param(CASE3, 1.0 / 3.0, 1.0 / 3.0, id="case3"),
        # the perfect preset's couplings (0, 1, 1, 0): quartic 2, coherence sum 2, so the
        # two cross constants differ
        pytest.param(machine.couplings(by_name("perfect")), 2.0 / 30.0 + 1.0 / 3.0 - 2.0 * 0.589,
                     2.0 / 30.0 + 1.0 / 3.0 - 2.0 * 3.0 * math.pi / 64.0, id="perfect"),
    ],
)
def test_avg_distortion_under_both_cross_constants(c, legacy, analytic):
    dc = metrics.distortion_coefficients(*c)
    assert abs(metrics.avg_distortion(*dc, metrics.LEGACY_CROSS_CONSTANT) - legacy) <= 1e-12
    assert abs(metrics.avg_distortion(*dc) - analytic) <= 1e-12


def test_min_avg_distortion_rounds_above_the_exact_optimum():
    # pi truncated after 30 digits is below pi, so this bound is above D* = 2/5 - 3pi/32
    above = Fraction(2, 5) - 3 * Fraction("3.141592653589793238462643383279") / 32
    assert 0 <= Fraction(metrics.MIN_AVG_DISTORTION) - above <= Fraction(4, 10**17)
    assert abs(metrics.MIN_AVG_DISTORTION - PERFECT_AVG_DISTORTION) <= 1e-16


def test_closed_route_averages_match_adaptive_integration():
    from scipy.integrate import quad

    rng = np.random.default_rng(4)
    for _ in range(5):
        c = random_couplings(rng)
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


def test_fidelity_deficit_cases():
    sigma = BlankState(machine.DEFAULT_M1P)
    for deficit in (metrics.legacy_fidelity_deficit, metrics.fidelity_deficit):
        assert deficit(*CASE1, sigma.m1p) == 2.0
        assert abs(deficit(*CASE2, sigma.m1p) - 1.0) <= 1e-12
        assert abs(deficit(*CASE3, sigma.m1p) - 1.0) <= 1e-12
    # any sigma: the case2/case3 weights are balanced, so modes coincide
    for m1p in (0.0, 0.3, 1.0):
        assert metrics.legacy_fidelity_deficit(*CASE2, m1p) == metrics.fidelity_deficit(*CASE2, m1p)


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
        assert abs(metrics.avg_fidelity(1.0) - 5.0 / 6.0) <= 1e-15
        # the closed interval's ends: perfect deletion and the worst deficit
        assert metrics.avg_fidelity(0.0) == 1.0
        assert metrics.avg_fidelity(6.0) == 0.0


@pytest.mark.parametrize(
    "seed, xs",
    [
        pytest.param(9, np.linspace(0.01, 0.99, 37), id="seed9-interior-grid"),
        pytest.param(21, np.linspace(0.0, 1.0, 37), id="seed21-closed-grid"),
    ],
)
def test_batched_curves_match_per_point_simulation(seed, xs):
    # reference: one single-point `outputs`, partial trace and expectation per grid point
    rng = np.random.default_rng(seed)
    for _ in range(5):
        p = random_machine(rng)
        sig = p.sigma.ket()
        fidelity, distortion = [], []
        for x in xs:
            out = machine.outputs(p, x)
            fidelity.append(np.vdot(sig, qlinalg.partial_trace_mode2(out) @ sig).real)
            d = metrics.input_state(x) - qlinalg.partial_trace_mode1(out)
            distortion.append(np.trace(d @ d).real)
        assert_allclose(metrics.curves(p, xs), (fidelity, distortion), atol=1e-13)


#: Grids of the oracle byte pin: 0-d, the sweep's 21 and 1001 points, the
#: quadrature's 192 nodes, a 2-D grid and an empty one.
ORACLE_GRIDS = {
    "0d": np.float64(0.3),
    "21": np.linspace(0.0, 1.0, 21),
    "quadrature": metrics._QX_BOTH,
    "1001": np.linspace(0.0, 1.0, 1001),
    "2d": np.linspace(0.0, 1.0, 35).reshape(5, 7),
    "empty": np.empty(0),
}


@pytest.mark.parametrize("grid", ORACLE_GRIDS.values(), ids=ORACLE_GRIDS.keys())
def test_oracle_keeps_the_bytes_of_one_product_and_one_einsum_per_trace(grid):
    # The reference is the oracle written as one product per amplitude, the sum of the
    # basis images times the weight of the entry's ancilla j % 3, and one `einsum` per
    # trace.  Bytes make signed zeros count, as a negative m1p's 0 * m1p = -0.0 does.
    def one_product_per_amplitude(p, grid):
        weights = machine.inputs(grid)[..., [1, 0, 3]]  # ab, x, 1 - x: |Q>, |A0>, |A1>
        return sum(reference_images(p)) * weights[..., np.arange(qlinalg.JOINT_DIM) % 3]

    rng = np.random.default_rng(30)
    negative_m1p = machine.MachineParams(a0=1.0, b1=1.0, sigma=BlankState(-0.6))
    presets = [by_name(name) for name in ("case2", "case3", "case4", "perfect")]
    for p in [random_machine(rng) for _ in range(8)] + presets + [negative_m1p]:
        states = machine.outputs(p, grid)
        reference = one_product_per_amplitude(p, grid)
        assert states.tobytes() == reference.tobytes()
        for trace, expected in zip(
            (qlinalg.partial_trace_mode1, qlinalg.partial_trace_mode2), einsum_traces(reference)
        ):
            assert trace(states).tobytes() == expected.tobytes()
        xs = np.atleast_1d(grid)
        rho1, rho2 = einsum_traces(one_product_per_amplitude(p, xs))
        sig = p.sigma.ket()
        d = metrics.input_state(xs) - rho1
        expected = ((rho2 @ sig) @ sig.conj()).real, np.einsum("...ij,...ji->...", d, d).real
        for got, want in zip(metrics.curves(p, grid), expected):
            assert got.tobytes() == want.tobytes()


def test_phased_inputs_keep_fidelity_and_average_out_the_coherence():
    # Inputs sqrt(x)|0> + e^{i phi} sqrt(1-x)|1>, simulated through the isometry: F does
    # not see the phase, D's coherence term turns with it, and over equally spaced
    # phases it averages out, which gives the Bloch sphere's Dbar = quartic/30 + 1/3.
    rng = np.random.default_rng(10)
    xs = np.array([0.1, 0.5, 0.8])
    x, phase = xs[:, None], np.exp(2j * np.pi * np.arange(7) / 7)
    y = x * (1.0 - x)
    alpha, beta = np.sqrt(x) + 0 * phase, np.sqrt(1.0 - x) * phase
    two_copy = np.stack((alpha * alpha, alpha * beta, beta * alpha, beta * beta), axis=-1)
    psi = np.stack((alpha, beta), axis=-1)
    ideal = psi[..., :, None] * psi[..., None, :].conj()
    worst_conjugate = 0.0
    for _ in range(50):
        p = random_machine(rng)
        out = two_copy @ machine.isometry(p).T
        sig = p.sigma.ket()
        fidelity = ((qlinalg.partial_trace_mode2(out) @ sig) @ sig.conj()).real
        assert np.abs(fidelity - metrics.curves(p, xs)[0][:, None]).max() <= 1e-14
        d = ideal - qlinalg.partial_trace_mode1(out)
        distortion = np.einsum("...ij,...ji->...", d, d).real
        c = machine.couplings(p)
        quartic = metrics.distortion_coefficients(*c)[0]
        coherence = c.e * c.h.conjugate() + c.g * c.f.conjugate()

        def closed(turn):
            return quartic * y**2 - 2 * (2 * (coherence * turn).real) * y**1.5 + 2 * y

        assert_allclose(distortion, closed(phase), atol=1e-14)
        assert_allclose(distortion.mean(axis=1), (quartic * y**2 + 2 * y)[:, 0], atol=1e-14)
        worst_conjugate = max(worst_conjugate, np.abs(distortion - closed(phase.conj())).max())
    assert worst_conjugate > 0.1  # the formula with e^{-i phi} is wrong


def test_curves_keep_scalar_grid_one_dimensional():
    p = by_name("case3")
    fidelity, distortion = metrics.curves(p, 0.5)
    assert fidelity.shape == distortion.shape == (1,)


@pytest.mark.parametrize("grid", [[0.0, 1.5], [math.nan], [-0.25]])
def test_curves_reject_bad_grid(grid):
    p = by_name("case3")
    with pytest.raises(ValueError):
        metrics.curves(p, grid)


def test_input_state_entries():
    rho = metrics.input_state(0.5)
    assert_allclose(rho, np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex), atol=1e-15)
    assert_allclose(metrics.input_state(1.0), PURE0, atol=0)


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


@pytest.mark.parametrize(
    "c, m1p, coefficients, averages",
    [
        pytest.param(CASE3, machine.DEFAULT_M1P, (0.0, 1.0, 1.0), (1.0 / 3.0, 5.0 / 6.0, 5.0 / 6.0),
                     id="unit-weights"),
        pytest.param(CASE1, machine.DEFAULT_M1P, (2.0, 2.0, 2.0), (0.4, 2.0 / 3.0, 2.0 / 3.0),
                     id="degenerate-couplings"),
        # |g|^2 = 1, |h|^2 = 0 at m1p = 1: the two deficit conventions split.
        pytest.param(Couplings(g=1 + 0j, h=0j, e=0j, f=0j), 1.0, (1.0, 1.0, 2.0),
                     (11.0 / 30.0, 5.0 / 6.0, 2.0 / 3.0), id="asymmetric-weights"),
    ],
)
def test_exchange_only_reference(c, m1p, coefficients, averages):
    sigma = BlankState(m1p)
    assert exchange_only_coefficients(c, sigma) == coefficients
    expected = exchange_only_averages(c, sigma)
    assert expected == pytest.approx(averages, abs=1e-12)
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

