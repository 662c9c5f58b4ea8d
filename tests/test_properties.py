"""Property-based tests of the simulation kernel, the closed forms and the
search objective on random machines.

Machines are drawn as the QR factor of a complex Gaussian 4x2 matrix (so the
two amplitude rows are orthonormal), with a random blank-state overlap.
Grids always contain the endpoints x = 0 and x = 1.  The closed forms are
also checked on arbitrary couplings, which no machine need realize.  Examples
are derandomized so that every run checks the same cases.  The last test
checks that a falsified property fails like any other test under this
project's pytest settings.
"""

import math
import struct
import subprocess
import sys
from functools import cache
from pathlib import Path
from unittest import mock

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from qdelete import machine, metrics, optimizer, qlinalg
from qdelete.machine import BlankState, Couplings
from qdelete.presets import by_name
from paper_values import PERFECT_AVG_DISTORTION
from reduced_states import mode1_state_closed, mode2_state_closed
from helpers import (
    coordinates, from_rows, input_state, outputs, random_machine, raw_of, reference_images,
    with_couplings,
)

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True)

seeds = st.integers(min_value=0, max_value=2**32 - 1)
overlaps = st.floats(min_value=-1.0, max_value=1.0)
weights = st.floats(min_value=0.0, max_value=2.0)
unit = st.floats(min_value=0.0, max_value=1.0)
grids = st.lists(st.floats(min_value=0.0, max_value=1.0), max_size=20).map(
    lambda xs: np.array([0.0, 1.0] + xs)
)


def qr_machine(seed: int, m1p: float, perturbation: float = 0.0, tilt: float = 0.0):
    """A machine from orthonormal rows, then optionally broken.

    ``perturbation`` adds Gaussian noise of that size to both rows; ``tilt``
    turns row 1 towards row 0 by that angle, which keeps both norms at 1 and
    breaks only orthogonality.
    """
    rng = np.random.default_rng(seed)
    gauss = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
    q, _ = np.linalg.qr(gauss)
    noise = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
    q = q + perturbation * noise
    row1 = math.cos(tilt) * q[:, 1] + math.sin(tilt) * q[:, 0]
    return from_rows(q[:, 0], row1, BlankState(m1p))


def gaussian_couplings(seed: int, scale: float) -> Couplings:
    """Complex Gaussian couplings times ``scale``; off the sphere |u|^2 = 2."""
    rng = np.random.default_rng(seed)
    return Couplings(*(scale * (rng.standard_normal(4) + 1j * rng.standard_normal(4))).tolist())


#: Arbitrary couplings, scale 1e-3 to 10, plus case1's formula-mode zeros.
scales = st.floats(min_value=-3.0, max_value=1.0).map(lambda exponent: 10.0 ** exponent)
any_couplings = st.one_of(
    st.just(Couplings(g=0j, h=0j, e=0j, f=0j)), st.builds(gaussian_couplings, seeds, scales)
)


@PROPERTY
@given(seeds, overlaps, grids)
def test_outputs_match_tensor_product_reference(seed, m1p, xs):
    p = qr_machine(seed, m1p)
    img00, img01, img10, img11 = reference_images(p)
    batch = outputs(p, xs)
    for x, state in zip(xs, batch):
        ab = math.sqrt(x * (1.0 - x))
        expected = x * img00 + ab * (img01 + img10) + (1.0 - x) * img11
        assert_allclose(state, expected, rtol=0, atol=1e-13)


@PROPERTY
@given(seeds, overlaps, grids)
def test_batched_reduced_states_are_hermitian_with_unit_trace(seed, m1p, xs):
    states = outputs(qr_machine(seed, m1p), xs)
    for rho in (qlinalg.partial_trace_mode1(states), qlinalg.partial_trace_mode2(states)):
        assert rho.shape == (xs.size, 2, 2)
        assert_allclose(rho, rho.conj().swapaxes(-1, -2), rtol=0, atol=1e-15)
        assert_allclose(np.trace(rho, axis1=-2, axis2=-1), 1.0, rtol=0, atol=1e-12)


@PROPERTY
@given(seeds, overlaps, grids)
def test_curves_match_the_per_point_simulation(seed, m1p, xs):
    # the blocks mixed at each x against one 12-amplitude output state per x,
    # both partial traces of it and the two measurements; over 3 000 machines
    # at 1 303 points each the largest gap was 6.7e-16
    p = qr_machine(seed, m1p)
    states = outputs(p, xs)
    rho1, rho2 = qlinalg.partial_trace_mode1(states), qlinalg.partial_trace_mode2(states)
    sig = p.sigma.ket()
    d = input_state(xs) - rho1
    reference = ((rho2 @ sig) @ sig.conj()).real, np.einsum("...ij,...ji->...", d, d).real
    for got, want in zip(metrics.curves(p, xs), reference):
        assert_allclose(got, want, rtol=0, atol=1e-15)


@PROPERTY
@given(seeds, overlaps, grids)
def test_oracle_distortion_is_never_negative(seed, m1p, xs):
    # D is summed from squares, so no rounding takes it below zero
    _, distortion = metrics.curves(qr_machine(seed, m1p), xs)
    assert np.all(distortion >= 0.0)


@PROPERTY
@given(seeds)
def test_oracle_endpoints_have_unit_fidelity_and_no_distortion(seed):
    # At x = 0 and x = 1 the deleted mode holds the blank state exactly, so
    # F(0) and F(1) miss 1 only by the rounding of the blank state's norm,
    # and the kept mode holds the input's pure state.
    p = random_machine(np.random.default_rng(seed))
    fidelity, distortion = metrics.curves(p, np.array([0.0, 1.0]))
    assert np.all(np.abs(fidelity - 1.0) <= 4 * np.finfo(float).eps)
    assert np.all(np.abs(distortion) <= 1e-12)


#: The two fidelity-deficit conventions by the names of their reference brackets.
DEFICITS = {"legacy": metrics.legacy_fidelity_deficit, "consistent": metrics.fidelity_deficit}


@PROPERTY
@given(overlaps)
@example(-1.0)
@example(0.0)
@example(1.0)
def test_zero_couplings_have_deficit_two_in_both_conventions(m1p):
    # formula mode's premise: on case1's couplings the conventions agree exactly
    zero = Couplings(g=0j, h=0j, e=0j, f=0j)
    for deficit in DEFICITS.values():
        assert deficit(*zero, m1p) == 2.0


@PROPERTY
@given(any_couplings, overlaps, unit)
def test_closed_forms_match_the_closed_reduced_states(c, m1p, x):
    # The closed curves reproduce the measurements of the closed-form
    # reduced states for any couplings, valid machine or not.
    sigma = BlankState(m1p)
    d = input_state(x) - mode1_state_closed(c, x)
    distortion = np.trace(d @ d).real
    fidelity = np.vdot(sigma.ket(), mode2_state_closed(c, sigma, x) @ sigma.ket()).real
    p = with_couplings(c, sigma)
    for closed, reference in zip(metrics.closed_curves(p, x), (fidelity, distortion)):
        assert abs(closed[0] - reference) <= 1e-12 * max(1.0, abs(reference))


def np_conj_fidelity_deficit(c: Couplings, sigma: BlankState, mode: str) -> float:
    """The fidelity deficit as written before its scalar kernel, one bracket per
    convention, with `np.conj`: the exactness reference."""
    g, h, e, f = c.g, c.h, c.e, c.f
    gf = abs(g) ** 2 + abs(f) ** 2
    he = abs(h) ** 2 + abs(e) ** 2
    m = sigma.m1p
    msq = m * m
    s = math.sqrt(1.0 - msq)
    cross = 2.0 * float((np.conj(g) * e + h * np.conj(f)).real)
    if mode == "legacy":
        return 2.0 - (gf * msq + he * (s * s) + m * s * cross)
    return 2.0 - (he * msq + gf * (s * s) + m * s * cross)


#: The scalar types couplings reach the closed forms as: Python complex from
#: decoded machines, numpy complex128 from arrays, and real values from real rows.
SCALAR_KINDS = {
    "complex": lambda v: v.tolist(),
    "complex128": list,
    "float": lambda v: v.real.tolist(),
    "float64": lambda v: list(v.real),
}


@PROPERTY
@given(seeds, scales, st.sampled_from(sorted(SCALAR_KINDS)), overlaps)
def test_conjugate_closed_forms_equal_the_np_conj_forms_exactly(seed, scale, kind, m1p):
    rng = np.random.default_rng(seed)
    values = scale * (rng.standard_normal(4) + 1j * rng.standard_normal(4))
    c = Couplings(*SCALAR_KINDS[kind](values))
    sigma = BlankState(m1p)
    for mode, deficit in DEFICITS.items():
        assert deficit(*c, sigma.m1p) == np_conj_fidelity_deficit(c, sigma, mode)


def reference_avg_distortion(c: Couplings) -> float:
    """The average distortion at the exact cross constant, as written before its scalar kernels."""
    g, h, e, f = c.g, c.h, c.e, c.f
    coherence = e * h.conjugate() + g * f.conjugate()
    defect = (abs(e) ** 2 + abs(g) ** 2 - 1.0) ** 2 + (abs(h) ** 2 + abs(f) ** 2 - 1.0) ** 2
    quartic = float(defect + 2.0 * (coherence * coherence.conjugate()).real)
    coherence_sum = float(2.0 * coherence.real)
    return quartic / 30.0 + 1.0 / 3.0 - metrics.ANALYTIC_CROSS_CONSTANT * coherence_sum


#: Every objective, and weighted ones that zero a term with +0.0 or -0.0 or
#: let a subnormal weight underflow its product to zero.
EXACT_CONFIGS = [optimizer.OptConfig(objective=objective) for objective in optimizer.OBJECTIVES] + [
    optimizer.OptConfig(objective="weighted", weight_fidelity=wf, weight_distortion=wd)
    for wf, wd in ((0.0, 1.0), (-0.0, 2.0), (1.0, 0.0), (0.5, -0.0), (0.0, 5e-324), (5e-324, 0.0),
                   (0.3, 1.7))
]


def ieee(value: float) -> bytes:
    return struct.pack("<d", value)


def weight_pair(cfg: optimizer.OptConfig) -> tuple[float, float]:
    """(wf, wd) of a config, as the scorer resolves them."""
    return {"max-fidelity": (1.0, 0.0), "min-distortion": (0.0, 1.0)}.get(
        cfg.objective, (cfg.weight_fidelity, cfg.weight_distortion)
    )


def reference_gaps(point) -> tuple[float, float]:
    """1 - Fbar and Dbar - D* of a sphere point on numpy float64 scalars: the exactness reference.

    Item by item the sums of squares of `metrics.fidelity_gap` and
    `metrics.distortion_gap`, added in the same order.
    """
    gr, gi, hr, hi, er, ei, fr, fi, m = (np.float64(x) for x in point)
    s = np.sqrt(1.0 - m * m)
    fidelity = (np.square(m * gr - s * er) + np.square(m * gi - s * ei)
                + np.square(s * hr - m * fr) + np.square(s * hi - m * fi)) / 6.0
    row0 = np.square(er) + np.square(ei) + np.square(gr) + np.square(gi) - 1.0
    row1 = np.square(hr) + np.square(hi) + np.square(fr) + np.square(fi) - 1.0
    coherence_re = er * hr + ei * hi + gr * fr + gi * fi
    coherence_im = ei * hr - er * hi + gi * fr - gr * fi
    mismatch = np.square(er - hr) + np.square(ei - hi) + np.square(gr - fr) + np.square(gi - fi)
    distortion = ((np.square(row0) + np.square(row1) + 2.0 * coherence_im * coherence_im) / 30.0
                  + mismatch * (3.0 * np.pi / 64.0 - (1.0 + coherence_re) / 30.0))
    return float(fidelity), float(distortion)


#: D* = 2/5 - 3pi/32 on numpy float64 scalars.
REFERENCE_MIN_AVG_DISTORTION = float(np.float64(2.0) / 5.0 - 3.0 * np.pi / 32.0)


@settings(PROPERTY, max_examples=200)
@given(seeds, st.floats(min_value=-8.0, max_value=8.0))
def test_scorer_is_bit_for_bit_the_reference_formulas(seed, exponent):
    # The search's certified gaps and its skipped zero-weight term change no
    # bit of wf * (1 - fidelity gap) - wd * (D* + distortion gap) computed by
    # the reference formulas.
    raw = optimizer.sample_raw(np.random.default_rng(seed)) * 10.0 ** exponent
    point = optimizer._sphere_point(raw.tolist())
    fidelity_gap, distortion_gap = reference_gaps(point)
    fbar, dbar = 1.0 - fidelity_gap, REFERENCE_MIN_AVG_DISTORTION + distortion_gap
    # the premises of the skip: w * Xbar is w itself when w is a zero
    assert 1.0 / 3.0 <= fbar <= 1.0 and dbar > 0.0
    for cfg in EXACT_CONFIGS:
        wf, wd = weight_pair(cfg)
        assert ieee(optimizer.scorer(cfg)(*point)) == ieee(wf * fbar - wd * dbar), cfg
    # the closed forms the reports use, on the same couplings
    c, sigma = Couplings(*map(complex, point[0:8:2], point[1:8:2])), BlankState(point[8])
    for mode, deficit in DEFICITS.items():
        assert ieee(deficit(*c, sigma.m1p)) == ieee(np_conj_fidelity_deficit(c, sigma, mode))
    assert ieee(metrics.avg_distortion(*metrics.distortion_coefficients(*c))) == ieee(
        reference_avg_distortion(c)
    )


# ---------------------------------------------------------------------------
# certified gaps: the search's score never passes the optimum wf - wd * D*

#: Raw points: standard normal draws at scales 1e-6 to 1e6, and any 9 finite floats.
raw_points = st.one_of(
    st.builds(
        lambda seed, exponent: (optimizer.sample_raw(np.random.default_rng(seed))
                                * 10.0 ** exponent).tolist(),
        seeds, st.floats(min_value=-6.0, max_value=6.0),
    ),
    st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=9, max_size=9),
)


def sphere_point(raw):
    """The search's point of a raw point; hypothesis discards one that fails to decode."""
    try:
        return optimizer._sphere_point(raw)
    except optimizer.DecodeError:
        assume(False)


@settings(PROPERTY, max_examples=300)
@given(raw_points)
def test_certified_gaps_are_never_negative_and_no_score_passes_the_optimum(raw):
    point = sphere_point(raw)
    assert metrics.fidelity_gap(*point) >= 0.0
    assert metrics.distortion_gap(*point[:8]) >= 0.0
    for cfg in EXACT_CONFIGS:
        wf, wd = weight_pair(cfg)
        assert optimizer.scorer(cfg)(*point) <= wf - wd * metrics.MIN_AVG_DISTORTION, cfg


@settings(PROPERTY, max_examples=200)
@given(overlaps)
@example(-1.0)
@example(0.0)
@example(1.0)
def test_the_score_is_exactly_the_optimum_on_the_certified_family(m1p):
    # (g, h, e, f) = (s, m, m, s) attains Fbar = 1 and Dbar = D*; the gaps
    # are squares of rounding errors there, which vanish against 1 and D*
    s = math.sqrt(1.0 - m1p * m1p)
    points = [sphere_point(raw_of([s, m1p, m1p, s], m1p).tolist()),
              sphere_point(optimizer.encode(by_name("perfect")).tolist())]
    for cfg in EXACT_CONFIGS:
        wf, wd = weight_pair(cfg)
        optimum = wf - wd * metrics.MIN_AVG_DISTORTION
        for point in points:
            assert ieee(optimizer.scorer(cfg)(*point)) == ieee(optimum), (cfg, point)


@settings(PROPERTY, max_examples=300)
@given(seeds, st.floats(min_value=-6.0, max_value=6.0))
def test_certified_gaps_agree_with_the_closed_forms(seed, exponent):
    raw = optimizer.sample_raw(np.random.default_rng(seed)) * 10.0 ** exponent
    point = sphere_point(raw.tolist())
    u = list(map(complex, point[0:8:2], point[1:8:2]))
    deficit = metrics.fidelity_deficit(*u, point[8])
    assert abs(metrics.fidelity_gap(*point) - deficit / 6.0) <= 1e-15
    dbar = metrics.avg_distortion(*metrics.distortion_coefficients(*u))
    assert abs(metrics.distortion_gap(*point[:8]) - (dbar - metrics.MIN_AVG_DISTORTION)) <= 1e-15


@cache
def minimized_objective():
    """The function `optimize` hands `minimize`, taken from a one-evaluation solve."""
    taken = []

    def take(fun, x0, **kwargs):
        taken.append(fun)
        fun(x0)  # optimize decodes the best point it scored
        return x0, 1

    with mock.patch.object(optimizer, "minimize", take):
        optimizer.optimize(optimizer.OptConfig(objective="weighted", restarts=1))
    return taken[0]


@settings(PROPERTY, max_examples=300)
@given(st.lists(st.floats(), min_size=9, max_size=9))
@example([1e-12] + [0.0] * 8)
@example([math.nextafter(1e-12, 0.0)] + [0.0] * 8)
@example([1e308] * 9)
@example([5e-324] * 8 + [0.0])
@example([1.0] * 8 + [math.inf])
def test_the_search_penalizes_exactly_the_points_decode_rejects(raw):
    try:
        optimizer.decode(raw)
        rejected = False
    except optimizer.DecodeError:
        rejected = True
    assert (minimized_objective()(raw) == optimizer._DEGENERATE_PENALTY) == rejected


@PROPERTY
@given(seeds, overlaps, grids)
def test_oracle_curves_respect_the_pointwise_certificate(seed, m1p, xs):
    # With y = x(1-x), every valid machine has F(x) <= 1 and, by
    # Cauchy-Schwarz on the couplings (|u|^2 = 2), D(x) >= 2y(1 - sqrt(y))^2.
    p = qr_machine(seed, m1p)
    y = xs * (1.0 - xs)
    fidelity, distortion = metrics.curves(p, xs)
    assert np.all(distortion >= 2.0 * y * (1.0 - np.sqrt(y)) ** 2 - 1e-12)
    assert np.all(fidelity <= 1.0 + 1e-12)
    # the trivial lower bounds, up to rounding of the last bits
    assert np.all(fidelity >= -1e-15) and np.all(distortion >= -1e-15)


@PROPERTY
@given(seeds, overlaps, grids)
def test_oracle_curves_are_the_pointwise_certificate_plus_squares(seed, m1p, xs):
    # On the sphere |u|^2 = 2, with cs = 2 Re(coherence), the gap to the bound is
    # D(x) - 2y(1 - sqrt(y))^2 = y^2 [row0^2 + row1^2 + 2 Im(coherence)^2]
    #                            + y^(3/2) (|e - h|^2 + |g - f|^2) (2 - (2 + cs) sqrt(y) / 2),
    # and the fidelity's is 1 - F(x) = 6 (1 - Fbar) y.
    p = qr_machine(seed, m1p)
    g, h, e, f = machine.couplings(p)
    coherence = e * h.conjugate() + g * f.conjugate()
    row0 = abs(e) ** 2 + abs(g) ** 2 - 1.0
    row1 = abs(h) ** 2 + abs(f) ** 2 - 1.0
    mismatch = abs(e - h) ** 2 + abs(g - f) ** 2
    y = xs * (1.0 - xs)
    root_y = np.sqrt(y)
    squares = (y * y * (row0 ** 2 + row1 ** 2 + 2.0 * coherence.imag ** 2)
               + y * root_y * mismatch * (2.0 - (2.0 + 2.0 * coherence.real) * root_y / 2.0))
    fidelity, distortion = metrics.curves(p, xs)
    bound = 2.0 * y * (1.0 - root_y) ** 2
    assert_allclose(distortion - bound, squares, rtol=0, atol=1e-14)
    assert_allclose(1.0 - fidelity, 6.0 * (1.0 - metrics.averages(p)[0]) * y, rtol=0, atol=1e-14)


@PROPERTY
@given(overlaps, grids)
def test_certificate_family_attains_the_pointwise_bounds(m1p, xs):
    # (g, h, e, f) = (s, m, m, s) with m = m1p, s = sqrt(1 - m^2) meets both
    # bounds at every x.
    s = math.sqrt(1.0 - m1p * m1p)
    p = optimizer.decode(raw_of([s, m1p, m1p, s], m1p))
    y = xs * (1.0 - xs)
    bound = 2.0 * y * (1.0 - np.sqrt(y)) ** 2
    fidelity, distortion = metrics.curves(p, xs)
    assert_allclose(distortion, bound, rtol=0, atol=1e-12)
    assert_allclose(fidelity, 1.0, rtol=0, atol=1e-12)


@PROPERTY
@given(seeds, overlaps, weights, weights)
def test_scorer_matches_the_oracle_averages(seed, m1p, wf, wd):
    assume(wf > 0 or wd > 0)
    p = qr_machine(seed, m1p)
    c = machine.couplings(p)
    fbar, dbar = metrics.averages(p)
    for objective, expected, tol in (
        ("max-fidelity", fbar, 1e-14),
        ("min-distortion", -dbar, 1e-14),
        ("weighted", wf * fbar - wd * dbar, (wf + wd) * 1e-14),
    ):
        cfg = optimizer.OptConfig(objective=objective, weight_fidelity=wf, weight_distortion=wd)
        assert abs(optimizer.scorer(cfg)(*coordinates(c), p.sigma.m1p) - expected) <= tol


@PROPERTY
@given(seeds, overlaps)
def test_closed_form_averages_respect_the_certified_optima(seed, m1p):
    # Fbar <= 1, and Cauchy-Schwarz on the coherence term gives
    # Dbar >= D* = 2/5 - 3pi/32 for every valid machine.
    c = machine.couplings(qr_machine(seed, m1p))
    fbar = 1.0 - metrics.fidelity_deficit(*c, m1p) / 6.0
    dbar = metrics.avg_distortion(*metrics.distortion_coefficients(*c))
    assert fbar <= 1.0 + 1e-12
    assert dbar >= PERFECT_AVG_DISTORTION - 1e-12


@PROPERTY
@given(
    seeds,
    overlaps,
    st.sampled_from([0.0, 1e-13, 1e-11, 1e-9, 1e-7, 1e-4]),
    st.sampled_from([0.0, 1e-11, 1e-9, 1e-7]),
    st.sampled_from([1e-12, 1e-10, 1e-8, 1e-6]),
)
def test_validity_iff_reference_columns_orthonormal_within_tol(
    seed, m1p, perturbation, tilt, tol
):
    p = qr_machine(seed, m1p, perturbation, tilt)
    images = reference_images(p)
    defect = max(
        abs(np.vdot(images[k], images[l]) - (k == l)) for k in range(4) for l in range(4)
    )
    # rounding decides cases within a hair of the tolerance; skip those
    assume(abs(defect - tol) > 1e-3 * tol)
    assert machine.validate(p, tol).is_valid == (defect <= tol)


FALSIFIED = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_always_falsified(n):
    assert n != n


def test_passes():
    pass
"""


def test_a_falsified_property_is_reported_as_a_failure(tmp_path):
    # Hypothesis's failure report must not turn into an internal error of
    # the session under the project's warning filters.
    (tmp_path / "test_falsified.py").write_text(FALSIFIED, encoding="utf-8")
    config = Path(__file__).resolve().parent.parent / "pyproject.toml"
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(config), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "test_falsified.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 1, run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout
