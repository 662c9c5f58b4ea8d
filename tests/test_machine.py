import json
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from qdelete import machine, qlinalg
from qdelete.machine import BlankState, MachineParams
from qdelete.optimizer import random_machine

SQRT_HALF = math.sqrt(0.5)

#: Joint basis vectors; row joint_index(q1, q2, anc) is |q1, q2, anc>.
BASIS = np.eye(12, dtype=complex)


def case3_params():
    return MachineParams(a0=1.0, b1=1.0)


def case2_params():
    return MachineParams(c0=1.0, d1=1.0)


# ---------------------------------------------------------------------------
# validation


def test_validate_case3_is_exact():
    report = machine.validate(case3_params())
    assert report.row0_norm_defect == 0.0
    assert report.row1_norm_defect == 0.0
    assert report.orthogonality_defect == 0.0
    assert report.gram_defect == 0.0
    assert report.is_valid


def test_validate_parallel_rows():
    report = machine.validate(MachineParams(a0=1.0, a1=1.0))
    assert report.row0_norm_defect == 0.0
    assert report.row1_norm_defect == 0.0
    assert abs(report.orthogonality_defect - 1.0) <= 1e-12
    assert not report.is_valid


def test_validate_rejects_nonpositive_tol():
    with pytest.raises(ValueError):
        machine.validate(case3_params(), tol=0.0)


@pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf])
def test_validate_rejects_non_finite_tol(tol):
    with pytest.raises(ValueError):
        machine.validate(case3_params(), tol=tol)


def test_validate_reads_defects_from_gram_of_isometry():
    rng = np.random.default_rng(105)
    for _ in range(10):
        row0 = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        row1 = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        p = MachineParams.from_rows(row0, row1, BlankState(rng.uniform(-1.0, 1.0)))
        report = machine.validate(p)
        assert report.row0_norm_defect == pytest.approx(abs(np.vdot(row0, row0).real - 1.0))
        assert report.row1_norm_defect == pytest.approx(abs(np.vdot(row1, row1).real - 1.0))
        assert report.orthogonality_defect == pytest.approx(abs(np.vdot(row1, row0)))
        v = machine.isometry(p)
        assert report.gram_defect == pytest.approx(np.max(np.abs(v.conj().T @ v - np.eye(4))))


#: Finite amplitudes whose Gram matrix overflows: one to inf, one to inf - inf.
HUGE_AMPLITUDES = [
    pytest.param({"a0": 1e300, "b1": 1.0}, id="overflow"),
    pytest.param({"a0": complex(1e160, 1e160), "a1": 1e160}, id="inf-minus-inf"),
]


@pytest.mark.parametrize("amplitudes", HUGE_AMPLITUDES)
def test_validate_huge_amplitudes_report_infinite_defects(amplitudes):
    # the suite turns any numpy RuntimeWarning into an error
    report = machine.validate(MachineParams(**amplitudes))
    assert not report.is_valid
    defects = (
        report.row0_norm_defect,
        report.row1_norm_defect,
        report.orthogonality_defect,
        report.gram_defect,
    )
    assert all(d >= 0.0 for d in defects), defects  # false for NaN
    assert report.gram_defect == math.inf


def test_require_valid_raises_with_report():
    with pytest.raises(machine.MachineValidationError) as excinfo:
        machine.require_valid(MachineParams(a0=1.0, a1=1.0))
    assert excinfo.value.report.orthogonality_defect > 0.5


def test_gram_defect_tracks_row_defects():
    # Gram matrix of the four basis images equals the identity exactly when
    # the row conditions hold; breaking a row norm must show up in both.
    params = MachineParams(a0=1.1, b1=1.0)
    report = machine.validate(params, tol=1e-12)
    assert not report.is_valid
    assert report.gram_defect == pytest.approx(
        max(report.row0_norm_defect, report.row1_norm_defect, report.orthogonality_defect),
        abs=1e-12,
    )


def test_valid_exactly_up_to_a_gram_defect_equal_to_tol():
    p = MachineParams(a0=1.1, b1=1.0)
    defect = machine.validate(p).gram_defect
    assert machine.validate(p, tol=defect).is_valid
    assert not machine.validate(p, tol=math.nextafter(defect, 0.0)).is_valid


def test_random_valid_machines_have_identity_gram():
    rng = np.random.default_rng(100)
    for _ in range(20):
        report = machine.validate(random_machine(rng), tol=1e-12)
        assert report.is_valid
        assert report.gram_defect <= 1e-12


# ---------------------------------------------------------------------------
# couplings


def test_couplings_all_zero_params():
    c = machine.couplings(MachineParams())
    assert (c.g, c.h, c.e, c.f) == (0.0, 0.0, 0.0, 0.0)
    assert abs(c.g) ** 2 + abs(c.h) ** 2 + abs(c.e) ** 2 + abs(c.f) ** 2 == 0.0


# ---------------------------------------------------------------------------
# application: the isometry and the batched outputs


def test_isometry_diagonal_inputs():
    # column 2i + j of the isometry is the image of |i>|j>|Q>
    p = MachineParams(a0=1.0, b1=1.0, sigma=BlankState(1.0))
    assert_allclose(machine.isometry(p)[:, 0], BASIS[qlinalg.joint_index(0, 0, 1)], atol=0)

    p = MachineParams(a0=1.0, b1=1.0, sigma=BlankState(0.0))
    assert_allclose(machine.isometry(p)[:, 3], BASIS[qlinalg.joint_index(1, 1, 2)], atol=0)


def test_isometry_case3_off_diagonal():
    v = machine.isometry(case3_params())
    assert_allclose(v[:, 1], BASIS[qlinalg.joint_index(0, 1, 0)], atol=0)
    assert_allclose(v[:, 2], BASIS[qlinalg.joint_index(1, 0, 0)], atol=0)


def test_isometry_columns_are_basis_images():
    p = MachineParams(a0=0.6, b0=0.8j, c1=1.0, sigma=BlankState(0.6))
    v = machine.isometry(p)
    assert v.shape == (12, 4)

    def basis(q1, q2, anc):
        return BASIS[qlinalg.joint_index(q1, q2, anc)]

    # the images of |00>, |01>, |10>, |11> (times |Q>) from the machine's definition
    s0, s1 = p.sigma.ket()
    images = [s0 * basis(0, 0, 1) + s1 * basis(0, 1, 1)]
    for a, b, c, d in ((p.a0, p.b0, p.c0, p.d0), (p.a1, p.b1, p.c1, p.d1)):
        images.append(
            a * basis(0, 1, 0) + b * basis(1, 0, 0) + c * basis(0, 0, 0) + d * basis(1, 1, 0)
        )
    images.append(s0 * basis(1, 0, 2) + s1 * basis(1, 1, 2))
    assert_allclose(v, np.stack(images, axis=1), atol=0)
    assert v[qlinalg.joint_index(0, 1, 0), 1] == 0.6
    assert v[qlinalg.joint_index(1, 0, 0), 1] == 0.8j
    assert v[qlinalg.joint_index(0, 0, 0), 2] == 1.0
    assert v[qlinalg.joint_index(0, 1, 1), 0] == 0.8
    assert v[qlinalg.joint_index(1, 0, 2), 3] == 0.6
    assert np.count_nonzero(v) == 7


def test_outputs_grid_matches_one_call_per_point():
    # a grid gives the same states as one call per point
    rng = np.random.default_rng(106)
    xs = np.concatenate(([0.0, 1.0], rng.uniform(0.0, 1.0, size=9)))
    for _ in range(5):
        p = random_machine(rng)
        batch = machine.outputs(p, xs)
        assert batch.shape == (xs.size, 12)
        for x, state in zip(xs, batch):
            single = machine.outputs(p, float(x))
            assert single.shape == (12,)
            assert_allclose(state, single, atol=1e-15)


@pytest.mark.parametrize("grid", [[0.5, 1.1], [math.nan], -0.1])
def test_outputs_reject_out_of_range_grid(grid):
    with pytest.raises(ValueError):
        machine.outputs(case3_params(), grid)


def test_outputs_endpoints_are_products():
    p = case3_params()
    v = machine.isometry(p)
    assert_allclose(machine.outputs(p, 1.0), v[:, 0], atol=0)
    assert_allclose(machine.outputs(p, 0.0), v[:, 3], atol=0)


def test_outputs_case2_balanced_input():
    p = case2_params()
    s = machine.outputs(p, 0.5)
    sig = p.sigma.ket()
    expected = np.zeros(12, dtype=complex)
    expected[qlinalg.joint_index(0, 0, 1)] = 0.5 * sig[0]
    expected[qlinalg.joint_index(0, 1, 1)] = 0.5 * sig[1]
    expected[qlinalg.joint_index(0, 0, 0)] = 0.5  # e-coupling output |00>|Q>
    expected[qlinalg.joint_index(1, 1, 0)] = 0.5  # f-coupling output |11>|Q>
    expected[qlinalg.joint_index(1, 0, 2)] = 0.5 * sig[0]
    expected[qlinalg.joint_index(1, 1, 2)] = 0.5 * sig[1]
    assert_allclose(s, expected, atol=1e-15)
    assert abs(np.vdot(s, s).real - 1.0) <= 1e-12


# ---------------------------------------------------------------------------
# blank state


def test_blank_state_ket_normalized():
    for m1p in (-1.0, -0.3, 0.0, 0.7, 1.0):
        ket = BlankState(m1p).ket()
        assert abs(np.vdot(ket, ket).real - 1.0) <= 1e-12


@pytest.mark.parametrize("m1p", [1.5, -1.0001, math.nan, math.inf, True, False])
def test_blank_state_rejects_bad_overlap(m1p):
    with pytest.raises(ValueError):
        BlankState(m1p)


# ---------------------------------------------------------------------------
# file format


def test_json_round_trip(tmp_path):
    rng = np.random.default_rng(103)
    p = random_machine(rng)
    path = tmp_path / "machine.json"
    machine.save(p, path)
    loaded = machine.load(path)
    assert loaded == p


def test_from_dict_round_trip_exact():
    # both ends of m1p's closed range load back, not only its interior
    for m1p in (SQRT_HALF, -1.0, 1.0):
        p = MachineParams(a0=1.0, b1=1.0, sigma=BlankState(m1p))
        assert machine.from_dict(machine.to_dict(p)) == p, m1p


@pytest.mark.parametrize("key", machine.AMPLITUDE_KEYS + ("m1p",))
def test_from_dict_rejects_missing_key(key):
    data = machine.to_dict(case3_params())
    del data[key]
    with pytest.raises(machine.MachineFormatError) as excinfo:
        machine.from_dict(data)
    assert key in str(excinfo.value)


def test_from_dict_rejects_non_finite():
    data = machine.to_dict(case3_params())
    data["b0"] = [math.inf, 0.0]
    with pytest.raises(machine.MachineFormatError) as excinfo:
        machine.from_dict(data)
    assert "b0" in str(excinfo.value)


def test_from_dict_rejects_malformed_amplitude():
    data = machine.to_dict(case3_params())
    data["c1"] = [1.0]
    with pytest.raises(machine.MachineFormatError):
        machine.from_dict(data)
    data["c1"] = "nope"
    with pytest.raises(machine.MachineFormatError):
        machine.from_dict(data)


def test_from_dict_rejects_out_of_range_m1p():
    data = machine.to_dict(case3_params())
    for m1p in (1.25, -1.25):
        data["m1p"] = m1p
        with pytest.raises(machine.MachineFormatError) as excinfo:
            machine.from_dict(data)
        assert "m1p" in str(excinfo.value)


@pytest.mark.parametrize("key", ["a0", "d1", "m1p"])
def test_from_dict_names_key_of_integer_too_large_for_a_float(key):
    data = machine.to_dict(case3_params())
    data[key] = 10**400 if key == "m1p" else [0, -(10**400)]
    with pytest.raises(machine.MachineFormatError) as excinfo:
        machine.from_dict(data)
    assert key in str(excinfo.value)


@pytest.mark.parametrize(
    "blob",
    [
        b"[" * 100_000 + b"]" * 100_000,
        b'{"m1p": 1' + b"0" * 5000 + b"}",
        b"\xff\xfe" + b"{}",
        json.dumps({"m1p": 0.5}).encode("utf-16"),
    ],
    ids=["nested-1e5-deep", "5000-digit-integer", "invalid-utf8", "utf16"],
)
def test_load_rejects_hostile_files(tmp_path, blob):
    path = tmp_path / "hostile.json"
    path.write_bytes(blob)
    with pytest.raises(machine.MachineFormatError):
        machine.load(path)


def test_load_rejects_invalid_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(machine.MachineFormatError):
        machine.load(path)


def test_saved_file_layout(tmp_path):
    path = tmp_path / "machine.json"
    machine.save(case2_params(), path)
    text = path.read_text(encoding="utf-8")
    assert text.startswith('{\n  "a0": [\n    0.0,\n    0.0\n  ],\n  "b0": [\n')
    assert text.endswith(f'  "m1p": {SQRT_HALF!r}\n}}\n')


def test_saved_file_is_plain_json(tmp_path):
    path = tmp_path / "machine.json"
    machine.save(case2_params(), path)
    data = json.loads(path.read_text(encoding="utf-8"))
    assert data["c0"] == [1.0, 0.0]
    assert data["m1p"] == pytest.approx(SQRT_HALF)
