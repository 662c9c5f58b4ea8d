"""Property-based fuzzing of the machine file format.

Starting from a valid machine dictionary, keys are deleted, replaced by
hostile values (NaN and infinities, bools, integers far beyond the float
range, strings, nested arrays and objects) or joined by extra keys; the JSON
text is then optionally corrupted with arbitrary bytes.  `from_dict` and
`load` may only return a machine with finite amplitudes and m1p in [-1, 1],
or raise `MachineFormatError`.  Examples are derandomized so that every run
checks the same cases.
"""

import json
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from qdelete import machine
from qdelete.presets import by_name

FUZZ = settings(max_examples=200, deadline=None, derandomize=True)

KEYS = machine.AMPLITUDE_KEYS + ("m1p",)
VALID = machine.to_dict(by_name("case3"))

huge_ints = st.integers(min_value=300, max_value=1000).map(lambda n: 10**n)
numbers = st.one_of(
    st.floats(),  # includes NaN and both infinities
    st.integers(),
    huge_ints,
    huge_ints.map(lambda n: -n),
    st.booleans(),
    st.sampled_from([-1.0, 0.0, 1.0, 0.5]),
)
values = st.recursive(
    st.one_of(numbers, st.none(), st.text(max_size=4)),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(st.text(max_size=3), inner, max_size=3),
    ),
    max_leaves=6,
)


@st.composite
def machine_dicts(draw):
    data = dict(VALID)
    for key in draw(st.lists(st.sampled_from(KEYS), max_size=3, unique=True)):
        action = draw(st.sampled_from(["delete", "value", "pair"]))
        if action == "delete":
            del data[key]
        elif action == "value":
            data[key] = draw(values)
        else:
            data[key] = [draw(numbers), draw(numbers)]
    data.update(draw(st.dictionaries(st.text(max_size=4), values, max_size=3)))
    return data


@st.composite
def machine_files(draw):
    """Bytes of a fuzzed machine file: JSON text, then optionally corrupted."""
    blob = json.dumps(draw(machine_dicts())).encode("utf-8")
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        at = draw(st.integers(min_value=0, max_value=len(blob)))
        cut = draw(st.integers(min_value=0, max_value=3))
        blob = blob[:at] + draw(st.binary(max_size=4)) + blob[at + cut:]
    return blob


def assert_finite_machine(p: machine.MachineParams) -> None:
    for key in machine.AMPLITUDE_KEYS:
        z = complex(getattr(p, key))
        assert math.isfinite(z.real) and math.isfinite(z.imag)
    assert -1.0 <= p.sigma.m1p <= 1.0


@FUZZ
@given(machine_dicts())
def test_from_dict_returns_finite_machine_or_format_error(data):
    try:
        p = machine.from_dict(data)
    except machine.MachineFormatError:
        return
    assert_finite_machine(p)


@FUZZ
@given(machine_files())
def test_load_returns_finite_machine_or_format_error(tmp_path_factory, blob):
    path = tmp_path_factory.getbasetemp() / "fuzzed.json"
    path.write_bytes(blob)
    try:
        p = machine.load(path)
    except machine.MachineFormatError:
        return
    assert_finite_machine(p)
