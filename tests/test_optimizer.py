import math
from collections import Counter
from itertools import count

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from qdelete import machine, metrics, optimizer
from qdelete.machine import BlankState, MachineParams, couplings
from qdelete.presets import by_name
from paper_values import PERFECT_AVG_DISTORTION

SMALL = dict(restarts=2, max_iters=80, seed=5)


def raw_of(u, m1p):
    """Raw search point of the couplings u = (g, h, e, f) and m1p."""
    return np.append(np.asarray(u, dtype=complex).view(float), math.acos(m1p))


def case3_raw():
    return raw_of([1.0, 1.0, 0.0, 0.0], 1.0)


def _rows(p):
    """The two amplitude rows (a_i, b_i, c_i, d_i) as a 2x4 array."""
    return np.array([[p.a0, p.b0, p.c0, p.d0], [p.a1, p.b1, p.c1, p.d1]], dtype=complex)


def scored(cfg, c, sigma):
    """The search objective of couplings c and blank state sigma."""
    return optimizer.scorer(cfg)([c.g, c.h, c.e, c.f], sigma.m1p)


def counting(fn, calls, name):
    """``fn``, counting its calls in ``calls[name]``."""

    def wrapper(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)

    return wrapper


# ---------------------------------------------------------------------------
# decode / encode


def test_decode_orthonormal_input_is_untouched():
    p = optimizer.decode(case3_raw())
    assert couplings(p) == machine.Couplings(1.0, 1.0, 0.0, 0.0)
    assert p.a0 == 1.0 and p.b1 == 1.0
    assert p.a1 == 0.0 and p.b0 == 0.0
    assert p.sigma.m1p == 1.0
    assert machine.validate(p, tol=1e-12).is_valid


def test_decode_rejects_zero_row():
    raw = case3_raw()
    raw[0:8] = 0.0
    with pytest.raises(optimizer.DecodeError):
        optimizer.decode(raw)


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
    # The search scores Python complexes; they must be bit for bit the
    # complex128 view of the raw couplings times sqrt(2)/|u|.
    raw = optimizer.sample_raw(np.random.default_rng(seed)) * 10.0 ** exponent
    u, m1p = optimizer._sphere_point(raw)
    reference = raw[0:8].view(complex) * (math.sqrt(2.0) / math.hypot(*raw[0:8]))
    assert all(type(z) is complex for z in u) and type(m1p) is float
    assert u == reference.tolist()
    assert m1p == math.cos(raw[8])


def test_decode_seed_42_draw_is_tightly_valid():
    rng = np.random.default_rng(42)
    p = optimizer.decode(optimizer.sample_raw(rng))
    report = machine.validate(p, tol=1e-12)
    assert report.is_valid
    assert report.row0_norm_defect < 1e-14
    assert report.row1_norm_defect < 1e-14
    assert report.orthogonality_defect < 1e-14


def test_decoded_machines_always_validate():
    rng = np.random.default_rng(43)
    for _ in range(100):
        p = optimizer.decode(optimizer.sample_raw(rng))
        assert machine.validate(p, tol=1e-12).is_valid


def test_decode_invariant_under_positive_row_scaling():
    rng = np.random.default_rng(44)
    raw = optimizer.sample_raw(rng)
    scaled = raw.copy()
    scaled[0:8] *= 3.5
    p, q = optimizer.decode(raw), optimizer.decode(scaled)
    assert_allclose(_rows(q), _rows(p), atol=1e-12)
    assert q.sigma == p.sigma


def test_encode_decode_round_trip():
    rng = np.random.default_rng(45)
    cfg = optimizer.OptConfig(objective="weighted")
    machines = [by_name("case3")] + [optimizer.random_machine(rng) for _ in range(5)]
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
    assert abs(fbar - 1.0) <= 1e-10
    assert abs(dbar - PERFECT_AVG_DISTORTION) <= 1e-10
    assert abs(metrics.averages(p, metrics.closed_curves)[1] - PERFECT_AVG_DISTORTION) <= 1e-10


# ---------------------------------------------------------------------------
# config and objective


def test_config_validation():
    with pytest.raises(ValueError):
        optimizer.OptConfig(objective="fastest")
    with pytest.raises(ValueError):
        optimizer.OptConfig(objective="weighted", weight_fidelity=-1.0)


@pytest.mark.parametrize(
    "settings",
    [
        dict(objective="weighted", weight_fidelity=math.nan),
        dict(objective="weighted", weight_distortion=math.nan),
        dict(objective="weighted", weight_fidelity=math.inf, weight_distortion=math.inf),
        dict(objective="weighted", weight_distortion=-math.inf),
        dict(tol=math.nan),
        dict(tol=math.inf),
        dict(tol=-1.0),
        dict(seed=-1),
    ],
)
def test_config_rejects_non_finite_weights_and_bad_tol(settings):
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
        (machine, ("validate", "isometry", "outputs")),
        (metrics, ("curves", "closed_curves", "levels", "averages")),
    ):
        for name in names:
            monkeypatch.setattr(module, name, lambda *a, **k: pytest.fail("oracle or validation called"))
    c = couplings(by_name("case3"))
    for objective in optimizer.OBJECTIVES:
        scored(optimizer.OptConfig(objective=objective), c, BlankState(math.sqrt(0.5)))


def test_search_loop_builds_no_machine_and_validates_outside_it(monkeypatch):
    calls = Counter()
    monkeypatch.setattr(machine, "validate", counting(machine.validate, calls, "validate"))
    monkeypatch.setattr(optimizer, "decode", counting(optimizer.decode, calls, "decode"))
    result = optimizer.optimize(optimizer.OptConfig(**SMALL), warm_start=by_name("perfect"))
    assert len(result.history) > 100
    # the warm start and the oracle report validate; the best point decodes once
    assert calls == {"validate": 2, "decode": 1}


def test_search_loop_builds_no_couplings_or_blank_state_per_evaluation(monkeypatch):
    built = Counter()
    # a NamedTuple is built through __new__, a dataclass through __init__
    for cls, method in ((machine.Couplings, "__new__"), (BlankState, "__init__")):
        monkeypatch.setattr(cls, method, counting(getattr(cls, method), built, cls.__name__))
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
    calls = Counter()
    for name in ("fidelity_deficit", "distortion_coefficients", "avg_distortion"):
        monkeypatch.setattr(metrics, name, counting(getattr(metrics, name), calls, name))
    result = optimizer.optimize(optimizer.OptConfig(restarts=1, max_iters=40, seed=5, **settings))
    n = len(result.history)
    assert calls == Counter(
        fidelity_deficit=deficits * n,
        distortion_coefficients=distortions * n,
        avg_distortion=distortions * n,
    )


def test_scorer_invariant_under_joint_row_phase():
    # The metrics depend only on the couplings and the blank state, and both
    # are preserved by a joint phase on the two amplitude rows.
    rng = np.random.default_rng(46)
    cfg = optimizer.OptConfig(objective="weighted")
    for _ in range(10):
        p = optimizer.random_machine(rng)
        phase = np.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
        q = MachineParams.from_rows(*(phase * _rows(p)), p.sigma)
        fp = scored(cfg, couplings(p), p.sigma)
        assert abs(fp - scored(cfg, couplings(q), q.sigma)) <= 1e-12


def test_single_row_phase_changes_the_metrics():
    # Phasing one row alone is NOT a symmetry: it rotates some couplings but
    # not others, which moves the fidelity of deletion.
    p = MachineParams.from_rows(
        [1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0], BlankState(math.sqrt(0.5))
    )
    row0, row1 = _rows(p)
    q = MachineParams.from_rows(row0, 1j * row1, p.sigma)
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
            u, m1p = optimizer._sphere_point(raw)
        except optimizer.DecodeError:
            return optimizer._DEGENERATE_PENALTY
        return -value_of(u, m1p)

    return fun


def recording(fun, log):
    """``fun``, appending each point it gets and the value it returns to ``log`` as IEEE bytes."""

    def wrapper(x):
        value = fun(x)
        log.append(np.array([*x, value]).tobytes())
        return value

    return wrapper


def run_both(fun, x0, max_iters, xatol=1e-10, fatol=1e-10):
    """Run optimizer.minimize and scipy's adaptive Nelder-Mead on ``fun`` from ``x0``.

    Asserts that both evaluate the same points to the same values in the same
    order, return the same point and count the same iterations, and that no
    list passed to ``fun`` changed afterwards.  Returns (nit, evaluations).
    """
    from scipy.optimize import minimize as scipy_minimize

    ours, theirs, passed = [], [], []

    def keeping(x):
        assert type(x) is list
        passed.append((x, np.array(x).tobytes()))
        return fun(x)

    best, nit = optimizer.minimize(
        recording(keeping, ours), list(x0), maxiter=max_iters, xatol=xatol, fatol=fatol
    )
    options = {"adaptive": True, "maxiter": max_iters, "xatol": xatol, "fatol": fatol}
    result = scipy_minimize(
        recording(fun, theirs), np.array(x0, dtype=float), method="Nelder-Mead", options=options
    )
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
    # of ties that only numpy's argsort orders as scipy does.
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


@pytest.mark.parametrize("seed, xatol, fatol", [(0, 1e-8, 1e-12), (1, 1e-12, 1e-8)])
def test_nelder_mead_is_scipys_through_shrinks_to_separate_tolerances(seed, xatol, fatol):
    start = optimizer.sample_raw(np.random.default_rng(seed))
    nit, evaluations = run_both(
        search_objective(optimizer.OptConfig()), start, 800, xatol=xatol, fatol=fatol
    )
    assert shrinks(nit, evaluations) and nit < 800


#: Objectives whose values tie, or spread exactly a tolerance, within the
#: first iterations from their start: (fun, start, xatol, fatol).
EDGE_CASES = {
    # the first expansion ties the reflection, which is kept
    "expansion-ties-reflection": (
        lambda x: -1.0 if x[0] < 0.99 else float(x[0] >= 1.04), [1.0, 1.0], 1e-10, 1e-10
    ),
    # a zero start on a constant spreads exactly xatol in x and fatol in f: stop
    "spread-equals-the-tolerances": (lambda x: 0.0, [0.0] * 3, 0.00025, 0.0),
    # only the worst vertex lies beyond fatol: go on
    "worst-beyond-fatol": (lambda x: float(x[2] > 0.0), [0.0] * 3, 0.00025, 0.0),
}


@pytest.mark.parametrize("case", EDGE_CASES)
def test_nelder_mead_is_scipys_on_ties_and_at_the_tolerances(case):
    fun, start, xatol, fatol = EDGE_CASES[case]
    nit, _ = run_both(fun, start, 40, xatol=xatol, fatol=fatol)
    assert (nit == 1) == (case == "spread-equals-the-tolerances")


def test_centroid_sums_each_coordinate_left_to_right():
    # numpy's add.reduce along axis 0 adds the rows in order, so scipy's
    # centroid of (1e16, 1, -1e16) is 0; a compensated sum (math.fsum, or
    # sum() since Python 3.12) gives 1/3.
    assert optimizer._centroid([[1e16, 1.0], [1.0, 2.0], [-1e16, 3.0]]) == [0.0, 2.0]
    rows = np.random.default_rng(3).standard_normal((9, 9)) * np.logspace(-8, 8, 9)
    expected = np.add.reduce(rows, 0) / 9
    assert np.array(optimizer._centroid(rows.tolist())).tobytes() == expected.tobytes()


# ---------------------------------------------------------------------------
# optimize


def test_every_restart_runs_nelder_mead_through_the_module_level_minimize(monkeypatch):
    # a wrapper of this one binding sees every search, as the benchmark's tracer needs
    cfg = optimizer.OptConfig(restarts=3, max_iters=20)
    expected = optimizer.optimize(cfg)
    calls = Counter()
    monkeypatch.setattr(optimizer, "minimize", counting(optimizer.minimize, calls, "minimize"))
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
    assert result.history[-1].objective == result.best_objective


def test_a_point_that_fails_to_decode_scores_the_penalty_and_keeps_the_best(monkeypatch):
    sphere_point, calls = optimizer._sphere_point, count(1)

    def every_7th_fails(raw):
        if next(calls) % 7 == 0:
            raise optimizer.DecodeError("every 7th point fails")
        return sphere_point(raw)

    runs = values_per_restart(monkeypatch, every_7th_fails)
    result = optimizer.optimize(optimizer.OptConfig(objective="weighted", **SMALL))
    values = [value for run in runs for value in run]
    failed = values[6::7]
    assert len(failed) > 10 and failed == [optimizer._DEGENERATE_PENALTY] * len(failed)
    assert optimizer._DEGENERATE_PENALTY not in [v for i, v in enumerate(values) if i % 7 != 6]
    assert result.history == running_best_history(runs)
    before, at = result.history[5::7], result.history[6::7]
    assert all(a.objective == b.objective for a, b in zip(before, at))


def test_optimize_result_machine_is_valid_and_reproducible():
    cfg = optimizer.OptConfig(objective="max-fidelity", **SMALL)
    result = optimizer.optimize(cfg)
    assert machine.validate(result.best_machine, tol=1e-10).is_valid
    # both averages come from the oracle, and its distortion agrees with the closed form's
    assert metrics.averages(result.best_machine) == (result.avg_fidelity, result.avg_distortion)
    closed_route = metrics.averages(result.best_machine, metrics.closed_curves)
    assert abs(closed_route[1] - result.avg_distortion) <= 1e-8


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
        gaps = (1.0 - result.best_objective, 1.0 - result.avg_fidelity)
    else:
        gaps = (
            -result.best_objective - PERFECT_AVG_DISTORTION,
            result.avg_distortion - PERFECT_AVG_DISTORTION,
        )
    for gap in gaps:
        assert -1e-12 <= gap <= 1e-8


def test_optimize_warm_start_must_be_valid():
    cfg = optimizer.OptConfig(objective="max-fidelity", restarts=1, max_iters=10, seed=1)
    with pytest.raises(machine.MachineValidationError):
        optimizer.optimize(cfg, warm_start=MachineParams(a0=1.0, a1=1.0))
