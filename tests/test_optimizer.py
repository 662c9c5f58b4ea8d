import math
import sys
from collections import Counter
from functools import partial, reduce
from itertools import count
from operator import add
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from qdelete import machine, metrics, optimizer
from qdelete.machine import BlankState, couplings
from qdelete.presets import by_name
from paper_values import PERFECT_AVG_DISTORTION
from helpers import coordinates, count_calls, from_rows, random_machine, raw_of, rows

SMALL = dict(restarts=2, max_iters=80, seed=5)


def case3_raw():
    return raw_of([1.0, 1.0, 0.0, 0.0], 1.0)


def scored(cfg, c, sigma):
    """The search objective of couplings c and blank state sigma."""
    return optimizer.scorer(cfg)(*coordinates(c), sigma.m1p)


# ---------------------------------------------------------------------------
# decode / encode


def test_decode_orthonormal_input_is_untouched():
    p = optimizer.decode(case3_raw())
    assert couplings(p) == machine.Couplings(1.0, 1.0, 0.0, 0.0)
    assert p.a0 == 1.0 and p.b1 == 1.0
    assert p.a1 == 0.0 and p.b0 == 0.0
    assert p.sigma.m1p == 1.0
    assert machine.validate(p, tol=1e-12).is_valid


def test_decode_rejects_a_coupling_vector_only_below_1e_12():
    raw = case3_raw()
    raw[0:8] = 0.0
    raw[0] = 1e-12
    assert machine.validate(optimizer.decode(raw), tol=1e-12).is_valid
    raw[0] = math.nextafter(1e-12, 0.0)
    with pytest.raises(optimizer.DecodeError):
        optimizer.decode(raw)


def test_decode_rejects_non_finite_and_bad_shape():
    # _sphere_point is the search's decode; it must reject what decode rejects.
    bad = []
    for index in range(optimizer.RAW_DIM):
        for value in (math.nan, math.inf, -math.inf):
            raw = case3_raw()
            raw[index] = value
            bad.append(raw)
    bad += [np.ones(shape) for shape in ((5,), (17,), (3, 3), ())] + ["abc", [[1, 2], [3]]]
    for raw in bad:
        with pytest.raises(optimizer.DecodeError):
            optimizer._sphere_point(raw)
        with pytest.raises(optimizer.DecodeError):
            optimizer.decode(raw)
    # a cast to float would drop the imaginary parts or overflow; _sphere_point
    # only gets float lists
    for raw in (case3_raw().astype(complex) + 1j, [10**400] + [1] * 8, [1] * 8 + [-(10**400)]):
        with pytest.raises(optimizer.DecodeError):
            optimizer.decode(raw)


def test_overflowing_coupling_norm_fails_to_decode():
    # Every entry is finite, but |u| is not: scaling onto the sphere would
    # give u = 0, which no valid machine has.
    raw = np.full(optimizer.RAW_DIM, 1e308)
    with pytest.raises(optimizer.DecodeError):
        optimizer.decode(raw)


def test_decode_accepts_a_plain_list():
    raw = optimizer.sample_raw(np.random.default_rng(47))
    assert optimizer.decode(raw.tolist()) == optimizer.decode(raw)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.floats(min_value=-8.0, max_value=8.0),
)
def test_sphere_point_is_exactly_the_numpy_scaling(seed, exponent):
    # The search scores plain floats; they must be bit for bit the raw
    # couplings times sqrt(2)/|u|, which are the parts of the complex128
    # product u * sqrt(2)/|u|.  decode's rows must be bit for bit the numpy
    # rows of that product.
    raw = optimizer.sample_raw(np.random.default_rng(seed)) * 10.0 ** exponent
    *coordinates, m1p = optimizer._sphere_point(raw.tolist())  # a list, as the search passes
    k = math.sqrt(2.0) / math.hypot(*raw[0:8])
    reference = raw[0:8].view(complex) * k
    assert all(type(x) is float for x in coordinates) and type(m1p) is float
    assert np.array(coordinates).tobytes() == (raw[0:8] * k).tobytes()
    assert coordinates == reference.view(float).tolist()
    assert m1p == math.cos(raw[8])
    assert decoded_bytes(raw) == numpy_rows(reference).tobytes()


def numpy_rows(u: np.ndarray) -> np.ndarray:
    """decode's 8 amplitudes u/2 -+ w, w = conj(-h, g, -f, e)/2, on complex128 arrays."""
    w = u[[1, 0, 3, 2]].conj() * np.array([-0.5, 0.5, -0.5, 0.5])
    return np.concatenate((u / 2 - w, u / 2 + w))


def decoded_bytes(raw) -> bytes:
    p = optimizer.decode(raw)
    return np.array([getattr(p, key) for key in machine.AMPLITUDE_KEYS]).tobytes()


def test_decode_rows_keep_the_numpy_signed_zeros():
    # Coordinates drawn from signed zeros, tiny and plain values: the golden
    # solves have no zero coordinate, and == would not see a sign.
    values = [0.0, -0.0, 1.0, -1.0, 0.5, -3.0, 1e-300]
    rng = np.random.default_rng(48)
    points = [[0.0, -0.0, -0.0, 1.0, 0.0, 0.0, -0.0, -0.0, 0.3]]
    draws = (np.append(rng.choice(values, 8), rng.standard_normal()) for _ in range(500))
    points += [raw for raw in draws if np.abs(raw[:8]).max() >= 0.5]  # the rest fail to decode
    for raw in points:
        u = np.array(raw[:8]).view(complex) * (math.sqrt(2.0) / math.hypot(*raw[:8]))
        assert decoded_bytes(raw) == numpy_rows(u).tobytes(), raw
    # Here u has e and f with real part -5e-324, and halving it rounds to -0.0.
    # Each product rounded on its own, conj(e) * 0.5 has real part
    # -0.0 - (-0.78 * 0.0) = +0.0, and d0 = f/2 - conj(e) * 0.5 has real part
    # -0.0.  numpy's complex multiply at SIMD level X86_V3 and up fuses the
    # halving into that difference: its real part is -0.0, and d0's is +0.0.
    p = optimizer.decode([-5e-324, 1.0, 0.5, -0.0, -5e-324, 1.0, -5e-324, -1.0, -2.0])
    assert p.d0.real == 0.0 and math.copysign(1.0, p.d0.real) == -1.0


def test_decoded_machines_always_validate():
    rng = np.random.default_rng(43)
    for _ in range(100):
        p = optimizer.decode(optimizer.sample_raw(rng))
        report = machine.validate(p, tol=1e-12)
        assert report.is_valid
        assert report.row0_norm_defect < 1e-14
        assert report.row1_norm_defect < 1e-14
        assert report.orthogonality_defect < 1e-14


def test_decode_invariant_under_positive_row_scaling():
    rng = np.random.default_rng(44)
    raw = optimizer.sample_raw(rng)
    scaled = raw.copy()
    scaled[0:8] *= 3.5
    p, q = optimizer.decode(raw), optimizer.decode(scaled)
    assert_allclose(rows(q), rows(p), atol=1e-12)
    assert q.sigma == p.sigma


def test_encode_decode_round_trip():
    rng = np.random.default_rng(45)
    cfg = optimizer.OptConfig(objective="weighted")
    machines = [by_name("case3")] + [random_machine(rng) for _ in range(5)]
    for p in machines:
        q = optimizer.decode(optimizer.encode(p))
        c, d = couplings(p), couplings(q)
        assert_allclose([d.g, d.h, d.e, d.f], [c.g, c.h, c.e, c.f], rtol=0, atol=1e-12)
        assert abs(q.sigma.m1p - p.sigma.m1p) <= 1e-12
        assert abs(scored(cfg, d, q.sigma) - scored(cfg, c, p.sigma)) <= 1e-12


@pytest.mark.parametrize("m1p", [-1.0, -0.6, 0.0, 0.3, math.sqrt(0.5), 0.9, 1.0])
def test_decoded_certificate_couplings_reach_both_optima(m1p):
    # (g, h, e, f) = (s, m, m, s) attains Fbar = 1 and the lower bound
    # D* = 2/5 - 3pi/32 of Dbar at the same time, for every m1p.
    s = math.sqrt(1.0 - m1p * m1p)
    p = optimizer.decode(raw_of([s, m1p, m1p, s], m1p))
    assert machine.validate(p, tol=1e-12).is_valid
    fbar, dbar = metrics.averages(p)
    assert abs(fbar - 1.0) <= 1e-14
    assert abs(dbar - PERFECT_AVG_DISTORTION) <= 1e-14
    closed_dbar = metrics.avg_distortion(*metrics.distortion_coefficients(*couplings(p)))
    assert abs(closed_dbar - PERFECT_AVG_DISTORTION) <= 1e-14


# ---------------------------------------------------------------------------
# config and objective


@pytest.mark.parametrize(
    "settings",
    [
        dict(objective="weighted", weight_distortion=math.nan),
        dict(objective="weighted", weight_distortion=-math.inf),
        # the scorer multiplies a float by it, which overflows
        dict(objective="weighted", weight_distortion=10**400),
        dict(tol=math.nan),
        dict(tol=math.inf),
        dict(tol=-1.0),
        dict(objective="fastest"),
        dict(objective="weighted", weight_fidelity=-1.0),
        # the weights are checked under every objective, not only the weighted one
        dict(weight_fidelity=math.nan),
        dict(objective="min-distortion", weight_distortion=-1.0),
    ],
)
def test_config_rejects_a_bad_objective_weight_or_tol(settings):
    with pytest.raises(ValueError):
        optimizer.OptConfig(**settings)


def test_config_defaults_are_the_documented_ones():
    # README: max-fidelity, unit weights, 16 restarts x 800 iterations from seed 0
    assert optimizer.OptConfig() == optimizer.OptConfig(
        objective="max-fidelity", weight_fidelity=1.0, weight_distortion=1.0,
        restarts=16, max_iters=800, seed=0, tol=1e-10,
    )


def test_config_accepts_its_boundary_values():
    cfg = optimizer.OptConfig(
        objective="weighted", weight_fidelity=0.0, restarts=1, max_iters=1, seed=0, tol=0.0
    )
    assert optimizer.optimize(cfg).iterations_used == 1
    # the largest weight, and a finite tol even where it is an int too large for a float
    optimizer.OptConfig(objective="weighted", weight_distortion=sys.float_info.max, tol=10**400)


def test_scorer_known_machines():
    cfg_f = optimizer.OptConfig(objective="max-fidelity")
    cfg_d = optimizer.OptConfig(objective="min-distortion")
    cfg_w = optimizer.OptConfig(objective="weighted", weight_fidelity=1.0, weight_distortion=1.0)
    case3, perfect = by_name("case3"), by_name("perfect")
    c3 = couplings(case3)
    assert abs(scored(cfg_f, c3, case3.sigma) - 5.0 / 6.0) <= 1e-9
    assert abs(scored(cfg_d, c3, case3.sigma) + 1.0 / 3.0) <= 1e-9
    assert abs(scored(cfg_w, c3, case3.sigma) - 0.5) <= 1e-9
    assert abs(scored(cfg_f, couplings(perfect), perfect.sigma) - 1.0) <= 1e-10


def test_scorer_runs_no_oracle_and_no_validation(monkeypatch):
    for module, names in (
        (machine, ("validate", "isometry", "reduced_blocks")),
        (metrics, ("curves", "closed_curves", "averages")),
    ):
        for name in names:
            monkeypatch.setattr(module, name, lambda *a, **k: pytest.fail("oracle or validation called"))
    c = couplings(by_name("case3"))
    for objective in optimizer.OBJECTIVES:
        scored(optimizer.OptConfig(objective=objective), c, BlankState(math.sqrt(0.5)))


def test_search_loop_builds_no_machine_and_validates_outside_it(monkeypatch):
    calls = count_calls(monkeypatch, (machine, "validate"), (optimizer, "decode"))
    result = optimizer.optimize(optimizer.OptConfig(**SMALL), warm_start=by_name("perfect"))
    assert len(result.history) > 100
    # the warm start and the oracle report validate; the best point decodes once
    assert calls == {"validate": 2, "decode": 1}


def test_search_loop_builds_no_couplings_or_blank_state_per_evaluation(monkeypatch):
    # a NamedTuple is built through __new__, a dataclass through __init__
    built = count_calls(monkeypatch, (machine.Couplings, "__new__"), (BlankState, "__init__"))
    counts, evaluations = [], []
    for max_iters in (20, 200):
        built.clear()
        result = optimizer.optimize(optimizer.OptConfig(restarts=1, max_iters=max_iters, seed=5))
        counts.append(dict(built))
        evaluations.append(len(result.history))
    assert evaluations[1] > evaluations[0] + 100
    assert counts[0] == counts[1]


@pytest.mark.parametrize(
    "settings, deficits, distortions",
    [
        (dict(objective="max-fidelity"), 1, 0),
        (dict(objective="min-distortion"), 0, 1),
        (dict(objective="weighted"), 1, 1),
        (dict(objective="weighted", weight_fidelity=0.0), 0, 1),
        (dict(objective="weighted", weight_distortion=0.0), 1, 0),
    ],
)
def test_the_search_computes_only_the_terms_it_weighs(monkeypatch, settings, deficits, distortions):
    # each evaluation scores the certified gaps, never the closed forms
    names = ("fidelity_gap", "distortion_gap",
             "fidelity_deficit", "distortion_coefficients", "avg_distortion")
    calls = count_calls(monkeypatch, *((metrics, name) for name in names))
    result = optimizer.optimize(optimizer.OptConfig(restarts=1, max_iters=40, seed=5, **settings))
    n = len(result.history)
    assert calls == Counter(
        fidelity_gap=deficits * n,
        distortion_gap=distortions * n,
        fidelity_deficit=0,
        distortion_coefficients=0,
        avg_distortion=0,
    )


def test_scorer_invariant_under_joint_row_phase():
    # The metrics depend only on the couplings and the blank state, and both
    # are preserved by a joint phase on the two amplitude rows.
    rng = np.random.default_rng(46)
    cfg = optimizer.OptConfig(objective="weighted")
    for _ in range(10):
        p = random_machine(rng)
        phase = np.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
        q = from_rows(*(phase * rows(p)), p.sigma)
        fp = scored(cfg, couplings(p), p.sigma)
        assert abs(fp - scored(cfg, couplings(q), q.sigma)) <= 1e-12


def test_single_row_phase_changes_the_metrics():
    # Phasing one row alone is NOT a symmetry: it rotates some couplings but
    # not others, which moves the fidelity of deletion.
    p = from_rows(
        [1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0], BlankState(math.sqrt(0.5))
    )
    row0, row1 = rows(p)
    q = from_rows(row0, 1j * row1, p.sigma)
    f_p = metrics.averages(p)[0]
    f_q = metrics.averages(q)[0]
    assert abs(f_p - 1.0) <= 1e-9
    assert abs(f_q - 5.0 / 6.0) <= 1e-9


# ---------------------------------------------------------------------------
# Nelder-Mead: bit for bit scipy's adaptive simplex


def search_objective(cfg):
    """The function the search minimizes: the negated score, or a degenerate point's penalty."""
    value_of = optimizer.scorer(cfg)

    def fun(raw):
        try:
            point = optimizer._sphere_point(raw)
        except optimizer.DecodeError:
            return optimizer._DEGENERATE_PENALTY
        return -value_of(*point)

    return fun


def recording(fun, log):
    """``fun``, appending each point it gets and the value it returns to ``log`` as IEEE bytes."""

    def wrapper(x):
        value = fun(x)
        log.append(np.array([*x, value]).tobytes())
        return value

    return wrapper


def run_both(fun, x0, max_iters, tol=1e-10):
    """Run optimizer.minimize and scipy's adaptive Nelder-Mead on ``fun`` from ``x0``.

    Asserts that both evaluate the same points to the same values in the same
    order, return the same point and count the same iterations, and that no
    list passed to ``fun`` changed afterwards.  Returns (nit, evaluations).
    scipy orders its simplex with ``np.argsort``, which numpy dispatches by CPU
    to a SIMD sort that need not keep ties in index order; it runs here with
    the stable sort, its order on a CPU at numpy's baseline SIMD level.
    """
    from scipy.optimize import minimize as scipy_minimize

    ours, theirs, passed = [], [], []

    def keeping(x):
        assert type(x) is list
        passed.append((x, np.array(x).tobytes()))
        return fun(x)

    best, nit = optimizer.minimize(recording(keeping, ours), list(x0), maxiter=max_iters, tol=tol)
    options = {"adaptive": True, "maxiter": max_iters, "xatol": tol, "fatol": tol}
    with mock.patch.object(np, "argsort", partial(np.argsort, kind="stable")):
        result = scipy_minimize(recording(fun, theirs), np.array(x0, dtype=float),
                                method="Nelder-Mead", options=options)
    assert ours == theirs
    assert nit == result.nit
    assert np.array(best).tobytes() == result.x.tobytes()
    assert all(np.array(x).tobytes() == snapshot for x, snapshot in passed)
    return nit, len(ours)


def shrinks(nit, evaluations):
    """Whether a run shrank its simplex: other iterations evaluate at most 2 points."""
    return evaluations > optimizer.RAW_DIM + 1 + 2 * (nit - 1)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    st.lists(st.floats(min_value=-4.0, max_value=4.0), min_size=9, max_size=9),
    st.sampled_from(optimizer.OBJECTIVES),
)
def test_nelder_mead_is_scipys_from_drawn_starts(start, objective):
    run_both(search_objective(optimizer.OptConfig(objective=objective)), start, max_iters=120)


@pytest.mark.parametrize("max_iters", [1, 20, 800])
def test_nelder_mead_is_scipys_on_the_fidelity_plateau(max_iters):
    # From perfect many points score exactly Fbar = 1, so the simplex is full
    # of ties, and the run pins that tied vertices keep their index order.
    start = optimizer.encode(by_name("perfect"))
    nit, evaluations = run_both(search_objective(optimizer.OptConfig()), start, max_iters)
    if max_iters == 1:
        assert (nit, evaluations) == (1, optimizer.RAW_DIM + 1)  # the initial simplex only
    if max_iters == 800:
        assert shrinks(nit, evaluations)


def test_nelder_mead_is_scipys_from_a_start_with_zero_coordinates():
    start = case3_raw()
    assert np.count_nonzero(start == 0.0) > 0
    cfg = optimizer.OptConfig(objective="min-distortion")
    run_both(search_objective(cfg), start, max_iters=200)


@pytest.mark.parametrize("seed, tol", [(0, 1e-8), (1, 1e-12)])
def test_nelder_mead_is_scipys_through_shrinks_to_the_tolerance(seed, tol):
    start = optimizer.sample_raw(np.random.default_rng(seed))
    nit, evaluations = run_both(search_objective(optimizer.OptConfig()), start, 800, tol=tol)
    assert shrinks(nit, evaluations) and nit < 800


#: Objectives whose values tie, or spread exactly the tolerance, within the
#: first iterations from their start: (fun, start, tol, stops at once).  A
#: zero start spreads its simplex 0.00025 in x.
EDGE_CASES = {
    # the first expansion ties the reflection, which is kept
    "expansion-ties-reflection": (
        lambda x: -1.0 if x[0] < 0.99 else float(x[0] >= 1.04), [1.0] * 9, 1e-10, False
    ),
    # a constant spreads exactly tol in x and nothing in f: stop
    "x-spread-equals-the-tolerance": (lambda x: 0.0, [0.0] * 9, 0.00025, True),
    # the worst vertex spreads exactly tol in f as well: stop
    "f-spread-equals-the-tolerance": (lambda x: 0.00025 * (x[2] > 0.0), [0.0] * 9, 0.00025, True),
    # only the worst vertex lies beyond tol in f: go on
    "worst-beyond-the-tolerance": (lambda x: float(x[2] > 0.0), [0.0] * 9, 0.00025, False),
    # all values tie, and only the second vertex, x0[0] * 1.05, lies beyond tol in x: go on
    "second-vertex-beyond-the-tolerance": (lambda x: 0.0, [1.0] + [0.0] * 8, 0.00025, False),
}


@pytest.mark.parametrize("case", EDGE_CASES)
def test_nelder_mead_is_scipys_on_ties_and_at_the_tolerances(case):
    fun, start, tol, stops_at_once = EDGE_CASES[case]
    nit, _ = run_both(fun, start, 40, tol=tol)
    assert (nit == 1) == stops_at_once


def test_centroid_sums_each_coordinate_left_to_right():
    # 9 points, as the simplex has: drawn, cancelling, log-scaled and signed zeros
    rng = np.random.default_rng(3)
    zeros = [[0.0, -0.0, 0.0]] * 8
    rows = [
        ("drawn", rng.standard_normal((9, 3)).tolist()),
        # numpy's add.reduce along axis 0 adds the rows in order, so scipy's
        # centroid of (1e16, 1, -1e16, 0, ...) is 0; a compensated sum
        # (math.fsum, or sum() since Python 3.12) gives 1/9.
        ("cancellation", [[1e16, 1.0], [1.0, 2.0], [-1e16, 3.0]] + [[0.0, 0.0]] * 6),
        ("9x9-log-scaled", (rng.standard_normal((9, 9)) * np.logspace(-8, 8, 9)).tolist()),
        ("zeros-after-minus-zero", [[-0.0, -0.0, -0.0]] + zeros),
        ("zeros-after-cancelling-ones",
         [[-0.0, 1.0, -0.0]] * 4 + [[-0.0, -1.0, 0.0]] * 4 + [[-0.0, -0.0, -0.0]]),
    ]
    # the reference adds the rows in order, one `add` call per addition
    for label, points in rows:
        got = np.array(optimizer._centroid(points))
        reference = np.array([s / 9 for s in reduce(partial(map, add), points[1:], points[0])])
        assert got.tobytes() == reference.tobytes(), label
        # numpy starts the sum of a column of -0.0 from +0.0; the reference starts from its first row
        a = np.array(points)
        numpy_sum = ~np.all((a == 0) & np.signbit(a), axis=0)
        expected = np.add.reduce(a, 0) / 9
        assert got[numpy_sum].tobytes() == expected[numpy_sum].tobytes(), label
    assert optimizer._centroid(rows[1][1]) == [0.0, 2.0 / 3.0]
    # the simplex has the search's 9 coordinates and no other count
    with pytest.raises(ValueError, match="x0 must have 9 entries, got 8"):
        optimizer.minimize(lambda x: 0.0, [0.0] * 8, maxiter=1, tol=0.0)


# ---------------------------------------------------------------------------
# optimize


def test_every_restart_runs_nelder_mead_through_the_module_level_minimize(monkeypatch):
    # a wrapper of this one binding sees every search, as the benchmark's tracer needs
    cfg = optimizer.OptConfig(restarts=3, max_iters=20)
    expected = optimizer.optimize(cfg)
    calls = count_calls(monkeypatch, (optimizer, "minimize"))
    assert optimizer.optimize(cfg) == expected
    assert calls == Counter(minimize=3)


def test_the_best_machine_is_the_first_point_that_reaches_the_best_objective(monkeypatch):
    # From the perfect preset several points tie at the best value; the
    # returned machine is the one at which the history first reaches it.
    scored_points = []
    minimize = optimizer.minimize

    def recording(fun, x0, **kwargs):
        def objective(raw):
            value = fun(raw)
            scored_points.append((raw.copy(), -value))
            return value

        return minimize(objective, x0, **kwargs)

    monkeypatch.setattr(optimizer, "minimize", recording)
    cfg = optimizer.OptConfig(restarts=1, max_iters=80, seed=5)
    result = optimizer.optimize(cfg, warm_start=by_name("perfect"))
    ties = [raw for raw, value in scored_points if value == result.best_objective]
    assert len(ties) > 1
    assert optimizer.decode(ties[0]) == result.best_machine
    assert optimizer.decode(ties[-1]) != result.best_machine


def values_per_restart(monkeypatch, sphere_point=None):
    """Wrap the module-level minimize; the list returned gets one list per restart.

    Each restart's list holds the values its objective hands the simplex, in
    order.  ``sphere_point``, when given, replaces ``optimizer._sphere_point``
    while a search runs, but not for the decode of the best point after it.
    """
    runs, minimize, original = [], optimizer.minimize, optimizer._sphere_point

    def recording(fun, x0, **kwargs):
        run = []
        runs.append(run)

        def objective(raw):
            run.append(fun(raw))
            return run[-1]

        optimizer._sphere_point = sphere_point or original
        try:
            return minimize(objective, x0, **kwargs)
        finally:
            optimizer._sphere_point = original

    monkeypatch.setattr(optimizer, "minimize", recording)
    return runs


def running_best_history(runs):
    """The history of these runs: the best score so far, where a penalty scores nothing."""
    best, history = -math.inf, []
    for restart, run in enumerate(runs):
        for evaluation, value in enumerate(run, 1):
            if value != optimizer._DEGENERATE_PENALTY:
                best = max(best, -value)
            history.append(optimizer.HistoryEntry(restart, evaluation, best))
    return history


def test_optimize_history_is_monotone_best_so_far(monkeypatch):
    # Entry i of restart r is the best score of all evaluations so far, over
    # every restart, with i counting from 1 in each restart.
    runs = values_per_restart(monkeypatch)
    result = optimizer.optimize(optimizer.OptConfig(objective="max-fidelity", **SMALL))
    assert len(runs) == SMALL["restarts"]
    assert result.history == running_best_history(runs)
    # a plain tuple of the same fields compares equal to a HistoryEntry
    assert all(type(entry) is optimizer.HistoryEntry for entry in result.history)
    assert result.history[-1].objective == result.best_objective


@pytest.mark.parametrize("weight_distortion", [1.0, 1e9])
def test_a_point_that_fails_to_decode_scores_the_penalty_and_keeps_the_best(
    monkeypatch, weight_distortion
):
    # the penalty must exceed every real point's value, whatever the weights
    sphere_point, calls = optimizer._sphere_point, count(1)

    def every_7th_fails(raw):
        if next(calls) % 7 == 0:
            raise optimizer.DecodeError("every 7th point fails")
        return sphere_point(raw)

    runs = values_per_restart(monkeypatch, every_7th_fails)
    cfg = optimizer.OptConfig(objective="weighted", weight_distortion=weight_distortion, **SMALL)
    result = optimizer.optimize(cfg)
    values = [value for run in runs for value in run]
    failed, others = values[6::7], [v for i, v in enumerate(values) if i % 7 != 6]
    assert len(failed) > 10 and failed == [optimizer._DEGENERATE_PENALTY] * len(failed)
    assert min(failed) > max(others)
    assert result.history == running_best_history(runs)
    before, at = result.history[5::7], result.history[6::7]
    assert all(a.objective == b.objective for a, b in zip(before, at))


def test_optimize_result_machine_is_valid_and_reproducible():
    cfg = optimizer.OptConfig(objective="max-fidelity", **SMALL)
    result = optimizer.optimize(cfg)
    assert machine.validate(result.best_machine, tol=1e-10).is_valid
    # both averages come from the oracle, and its distortion agrees with the closed form's
    assert metrics.averages(result.best_machine) == (result.avg_fidelity, result.avg_distortion)
    closed_dbar = metrics.avg_distortion(
        *metrics.distortion_coefficients(*couplings(result.best_machine))
    )
    assert abs(closed_dbar - result.avg_distortion) <= 1e-14


@pytest.mark.parametrize("objective", optimizer.OBJECTIVES)
def test_optimize_best_objective_matches_the_oracle_report(objective):
    result = optimizer.optimize(optimizer.OptConfig(objective=objective, **SMALL))
    oracle = {
        "max-fidelity": result.avg_fidelity,
        "min-distortion": -result.avg_distortion,
        "weighted": result.avg_fidelity - result.avg_distortion,
    }[objective]
    assert abs(result.best_objective - oracle) <= 1e-8


@pytest.mark.parametrize("objective", ["max-fidelity", "min-distortion"])
def test_optimize_reaches_the_certified_optimum_and_never_beats_it(objective):
    cfg = optimizer.OptConfig(objective=objective, restarts=2, max_iters=400, seed=5)
    result = optimizer.optimize(cfg)
    if objective == "max-fidelity":
        best_gap = 1.0 - result.best_objective
        oracle_gap = 1.0 - result.avg_fidelity
    else:
        best_gap = -result.best_objective - metrics.MIN_AVG_DISTORTION
        oracle_gap = result.avg_distortion - PERFECT_AVG_DISTORTION
    # the search scores the certified gaps, which are never negative
    assert 0.0 <= best_gap <= 1e-8
    assert -1e-12 <= oracle_gap <= 1e-8

