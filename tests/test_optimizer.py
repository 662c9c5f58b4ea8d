import math
from collections import Counter

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


def test_decode_rejects_non_finite_and_bad_shape():
    # _sphere_point is the search's decode; it must reject what decode rejects.
    bad = []
    for index in range(optimizer.RAW_DIM):
        for value in (math.nan, math.inf, -math.inf):
            raw = case3_raw()
            raw[index] = value
            bad.append(raw)
    bad += [np.ones(shape) for shape in ((5,), (17,), (3, 3), ())]
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
        assert abs(optimizer.score(d, q.sigma, cfg) - optimizer.score(c, p.sigma, cfg)) <= 1e-12


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
        optimizer.OptConfig(restarts=0)
    with pytest.raises(ValueError):
        optimizer.OptConfig(objective="weighted", weight_fidelity=0.0, weight_distortion=0.0)
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


def test_score_known_machines():
    cfg_f = optimizer.OptConfig(objective="max-fidelity")
    cfg_d = optimizer.OptConfig(objective="min-distortion")
    cfg_w = optimizer.OptConfig(objective="weighted", weight_fidelity=1.0, weight_distortion=1.0)
    case3, perfect = by_name("case3"), by_name("perfect")
    c3 = couplings(case3)
    assert abs(optimizer.score(c3, case3.sigma, cfg_f) - 5.0 / 6.0) <= 1e-9
    assert abs(optimizer.score(c3, case3.sigma, cfg_d) + 1.0 / 3.0) <= 1e-9
    assert abs(optimizer.score(c3, case3.sigma, cfg_w) - 0.5) <= 1e-9
    assert abs(optimizer.score(couplings(perfect), perfect.sigma, cfg_f) - 1.0) <= 1e-10


def test_score_runs_no_oracle_and_no_validation(monkeypatch):
    for module, names in (
        (machine, ("validate", "isometry", "outputs")),
        (metrics, ("curves", "closed_curves", "levels", "averages")),
    ):
        for name in names:
            monkeypatch.setattr(module, name, lambda *a, **k: pytest.fail("oracle or validation called"))
    c = couplings(by_name("case3"))
    for objective in optimizer.OBJECTIVES:
        optimizer.score(c, BlankState(math.sqrt(0.5)), optimizer.OptConfig(objective=objective))


def test_search_loop_builds_no_machine_and_validates_outside_it(monkeypatch):
    calls = Counter()

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls[fn.__name__] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(machine, "validate", counted(machine.validate))
    monkeypatch.setattr(optimizer, "decode", counted(optimizer.decode))
    result = optimizer.optimize(optimizer.OptConfig(**SMALL), warm_start=by_name("perfect"))
    assert len(result.history) > 100
    # the warm start and the oracle report validate; the best point decodes once
    assert calls == {"validate": 2, "decode": 1}


def test_objective_invariant_under_joint_row_phase():
    # The metrics depend only on the couplings and the blank state, and both
    # are preserved by a joint phase on the two amplitude rows.
    rng = np.random.default_rng(46)
    cfg = optimizer.OptConfig(objective="weighted")
    for _ in range(10):
        p = optimizer.random_machine(rng)
        phase = np.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
        q = MachineParams.from_rows(*(phase * _rows(p)), p.sigma)
        fp = optimizer.score(couplings(p), p.sigma, cfg)
        assert abs(fp - optimizer.score(couplings(q), q.sigma, cfg)) <= 1e-12


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
# optimize


def test_optimize_is_deterministic():
    cfg = optimizer.OptConfig(objective="max-fidelity", **SMALL)
    first = optimizer.optimize(cfg)
    second = optimizer.optimize(cfg)
    assert first.best_machine == second.best_machine
    assert first.best_objective == second.best_objective
    assert first.history == second.history
    assert first.iterations_used == second.iterations_used


def test_every_restart_runs_nelder_mead_through_the_module_level_minimize(monkeypatch):
    # a wrapper of this one binding sees every search, as the benchmark's tracer needs
    cfg = optimizer.OptConfig(restarts=3, max_iters=20)
    expected = optimizer.optimize(cfg)
    methods = []
    minimize = optimizer.minimize

    def counting(*args, **kwargs):
        methods.append(kwargs.get("method"))
        return minimize(*args, **kwargs)

    monkeypatch.setattr(optimizer, "minimize", counting)
    assert optimizer.optimize(cfg) == expected
    assert methods == ["Nelder-Mead"] * 3


def test_optimize_history_is_monotone_best_so_far():
    cfg = optimizer.OptConfig(objective="max-fidelity", **SMALL)
    result = optimizer.optimize(cfg)
    values = [entry.objective for entry in result.history]
    assert all(b >= a for a, b in zip(values, values[1:]))
    assert values[-1] == result.best_objective


def test_optimize_history_numbers_the_evaluations_of_each_restart_from_1():
    result = optimizer.optimize(optimizer.OptConfig(objective="max-fidelity", **SMALL))
    for restart in range(SMALL["restarts"]):
        numbers = [entry.evaluation for entry in result.history if entry.restart == restart]
        assert numbers == list(range(1, len(numbers) + 1))


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


def test_optimize_respects_bounds():
    for objective in ("max-fidelity", "min-distortion"):
        cfg = optimizer.OptConfig(objective=objective, **SMALL)
        result = optimizer.optimize(cfg)
        assert result.avg_fidelity <= 1.0 + 1e-9
        assert result.avg_distortion >= -1e-9


def test_optimize_beats_the_known_feasible_points_given_budget():
    cfg = optimizer.OptConfig(objective="max-fidelity", restarts=4, max_iters=400, seed=11)
    result = optimizer.optimize(cfg)
    assert result.avg_fidelity >= 5.0 / 6.0 - 1e-3
    cfg = optimizer.OptConfig(objective="min-distortion", restarts=4, max_iters=400, seed=11)
    result = optimizer.optimize(cfg)
    assert result.avg_distortion <= 1.0 / 3.0 + 1e-3


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


def test_optimize_warm_start_keeps_perfect_fidelity():
    cfg = optimizer.OptConfig(objective="max-fidelity", restarts=1, max_iters=40, seed=1)
    result = optimizer.optimize(cfg, warm_start=by_name("perfect"))
    assert result.avg_fidelity >= 1.0 - 1e-6


def test_optimize_warm_start_must_be_valid():
    cfg = optimizer.OptConfig(objective="max-fidelity", restarts=1, max_iters=10, seed=1)
    with pytest.raises(machine.MachineValidationError):
        optimizer.optimize(cfg, warm_start=MachineParams(a0=1.0, a1=1.0))
