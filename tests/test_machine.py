import json
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from qdelete import machine, qlinalg
from qdelete.machine import BlankState, MachineParams
from qdelete.presets import by_name
from helpers import from_rows, random_machine, reference_images

# ---------------------------------------------------------------------------
# validation


def test_validate_case3_is_exact():
    report = machine.validate(by_name("case3"))
    assert report.row0_norm_defect == 0.0
    assert report.row1_norm_defect == 0.0
    assert report.orthogonality_defect == 0.0
    assert report.gram_defect == 0.0
    assert report.is_valid


def test_validate_reads_defects_from_gram_of_isometry():
    rng = np.random.default_rng(105)
    for _ in range(10):
        row0 = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        row1 = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        p = from_rows(row0, row1, BlankState(rng.uniform(-1.0, 1.0)))
        report = machine.validate(p)
        assert report.row0_norm_defect == pytest.approx(abs(np.vdot(row0, row0).real - 1.0))
        assert report.row1_norm_defect == pytest.approx(abs(np.vdot(row1, row1).real - 1.0))
        assert report.orthogonality_defect == pytest.approx(abs(np.vdot(row1, row0)))
        v = machine.isometry(p)
        assert report.gram_defect == pytest.approx(np.max(np.abs(v.conj().T @ v - np.eye(4))))


#: Finite amplitudes whose Gram matrix overflows to inf.  The machine of
#: test_cli.py::test_validate_huge_amplitudes_prints_the_plain_report gives inf - inf.
HUGE_AMPLITUDES = [
    pytest.param({"a0": 1e300, "b1": 1.0}, id="overflow"),
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
    # any finite tol, even an int too large for a float
    assert machine.validate(p, tol=10**400).is_valid


def test_random_valid_machines_have_identity_gram():
    rng = np.random.default_rng(100)
    for _ in range(20):
        report = machine.validate(random_machine(rng), tol=1e-12)
        assert report.is_valid
        assert report.gram_defect <= 1e-12


# ---------------------------------------------------------------------------
# application: the isometry and the batched outputs


def test_isometry_columns_are_basis_images():
    p = MachineParams(a0=0.6, b0=0.8j, c1=1.0, sigma=BlankState(0.6))
    v = machine.isometry(p)
    assert v.shape == (12, 4)
    # column 2i + j is the image of |i>|j>|Q>
    assert_allclose(v, np.stack(reference_images(p), axis=1), atol=0)
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
        machine.outputs(by_name("case3"), grid)


def test_outputs_endpoints_are_products():
    p = by_name("case3")
    v = machine.isometry(p)
    assert_allclose(machine.outputs(p, 1.0), v[:, 0], atol=0)
    assert_allclose(machine.outputs(p, 0.0), v[:, 3], atol=0)


def test_outputs_case2_balanced_input():
    p = by_name("case2")
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


@pytest.mark.parametrize(
    "m1p", [1.5, -1.0001, math.nan, math.inf, True, False, pytest.param(-(10**400), id="-1e400")]
)
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
    for m1p in (machine.DEFAULT_M1P, -1.0, 1.0):
        p = MachineParams(a0=1.0, b1=1.0, sigma=BlankState(m1p))
        assert machine.from_dict(machine.to_dict(p)) == p, m1p


#: A value that test_from_dict_rejects_a_bad_entry_by_its_key deletes its key for.
MISSING = object()


@pytest.mark.parametrize(
    "key, value",
    [pytest.param(key, MISSING, id=f"missing-{key}") for key in machine.AMPLITUDE_KEYS + ("m1p",)]
    + [
        pytest.param("b0", [math.inf, 0.0], id="non-finite"),
        pytest.param("c1", [1.0], id="one-element"),
        pytest.param("c1", "nope", id="not-an-array"),
        pytest.param("m1p", 1.25, id="m1p-above-1"),
        pytest.param("m1p", -1.25, id="m1p-below-minus-1"),
    ]
    + [pytest.param(key, 10**400 if key == "m1p" else [0, -(10**400)], id=f"huge-int-{key}")
       for key in ("a0", "d1", "m1p")],
)
def test_from_dict_rejects_a_bad_entry_by_its_key(key, value):
    data = machine.to_dict(by_name("case3"))
    if value is MISSING:
        del data[key]
    else:
        data[key] = value
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


def test_saved_file_layout(tmp_path):
    path = tmp_path / "machine.json"
    machine.save(by_name("case2"), path)
    text = path.read_text(encoding="utf-8")
    assert text.startswith('{\n  "a0": [\n    0.0,\n    0.0\n  ],\n  "b0": [\n')
    assert text.endswith(f'  "m1p": {machine.DEFAULT_M1P!r}\n}}\n')
    assert json.loads(text)["c0"] == [1.0, 0.0]
