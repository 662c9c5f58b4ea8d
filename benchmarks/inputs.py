"""Seeded inputs for the benchmark workloads.

Everything here uses numpy and the standard library only, never the package
under test, so a change to the package's own samplers (``optimizer.sample_raw``,
``optimizer.random_machine``) cannot change a workload.  Machines are plain
dicts in the package's JSON file format: eight amplitude keys holding
``[re, im]`` plus the real blank-state overlap ``"m1p"``.

The same seed always yields the same inputs.  Warm-up inputs come from a
separate random stream, so they are never part of the timed set.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

AMPLITUDE_KEYS = ("a0", "b0", "c0", "d0", "a1", "b1", "c1", "d1")
MACHINE_KEYS = AMPLITUDE_KEYS + ("m1p",)

#: Number of distinct start machines per search run; a run that exhausts
#: them starts over from the first.
SEARCH_POOL = 64

#: One verify cycle of 20 operations, shuffled per cycle.  Each (kind, grid
#: size) pair is one latency class; the fixed composition weights the classes
#: in ``op_p10_ms`` and keeps the ungated median among the 51-point sweeps
#: (35-60 % of the cycle) and every tail rank from p86 up among the
#: 1001-point sweeps (85-100 %).
VERIFY_CYCLE = (
    (("malformed", None),) * 2
    + (("invalid", None),) * 2
    + (("valid", 21),) * 3
    + (("valid", 51),) * 5
    + (("valid", 101),) * 3
    + (("valid", 201),) * 1
    + (("valid", 501),) * 1
    + (("valid", 1001),) * 3
)

#: Verify cycles written per run; a run that exhausts them starts over.
VERIFY_POOL_CYCLES = 40

MALFORMED_KINDS = ("missing-key", "nan-literal", "bool")

#: Grid size of the verify warm-up operation.
VERIFY_WARMUP_POINTS = 101

_WARMUP_STREAM = 0
_TIMED_STREAM = 1


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def machine_dict(row0, row1, m1p: float) -> dict:
    """A machine in file format from two complex 4-rows and the overlap."""
    out = {}
    for key, z in zip(AMPLITUDE_KEYS, list(row0) + list(row1)):
        out[key] = [float(z.real), float(z.imag)]
    out["m1p"] = float(m1p)
    return out


def orthonormal_rows(rng: np.random.Generator):
    """Two orthonormal rows in C^4: columns of the Q factor of a complex Gaussian 4x4."""
    z = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    q, _ = np.linalg.qr(z)
    return q[:, 0].copy(), q[:, 1].copy()


def random_machine(rng: np.random.Generator) -> dict:
    """A valid machine with m1p drawn uniformly from [-1, 1]."""
    row0, row1 = orthonormal_rows(rng)
    return machine_dict(row0, row1, rng.uniform(-1.0, 1.0))


def invalid_machine(rng: np.random.Generator) -> dict:
    """A machine whose rows miss orthonormality by 1e-6 to 1e-2.

    Either one row is rescaled (a norm defect) or a multiple of the first row
    is added to the second (an orthogonality defect).
    """
    row0, row1 = orthonormal_rows(rng)
    eps = 10.0 ** rng.uniform(-6.0, -2.0)
    if rng.random() < 0.5:
        if rng.random() < 0.5:
            row0 = row0 * (1.0 + eps)
        else:
            row1 = row1 * (1.0 + eps)
    else:
        row1 = row1 + eps * row0
    return machine_dict(row0, row1, rng.uniform(-1.0, 1.0))


def malformed_text(rng: np.random.Generator, kind: str) -> str:
    """JSON text of a machine file the parser must reject (exit code 2)."""
    data = random_machine(rng)
    key = MACHINE_KEYS[rng.integers(len(MACHINE_KEYS))]
    if kind == "missing-key":
        del data[key]
    elif kind == "nan-literal":
        data[key] = math.nan if key == "m1p" else [math.nan, data[key][1]]
    elif kind == "bool":
        data[key] = True if key == "m1p" else [True, data[key][1]]
    else:
        raise ValueError(f"unknown malformed kind {kind!r}")
    return json.dumps(data)


def search_inputs(seed: int) -> tuple[dict, list[dict]]:
    """Warm-up and timed start machines for the search workloads; every solve is one latency class."""
    warmup = {"machine": random_machine(_rng(seed, _WARMUP_STREAM)), "cls": "solve"}
    rng = _rng(seed, _TIMED_STREAM)
    return warmup, [{"machine": random_machine(rng), "cls": "solve"} for _ in range(SEARCH_POOL)]


def _verify_op(rng, kind: str, points, path: Path) -> dict:
    cls = kind if points is None else f"{kind}-{points}"
    op = {"kind": kind, "points": points, "file": str(path), "machine": None, "cls": cls}
    if kind == "valid":
        op["machine"] = random_machine(rng)
        text = json.dumps(op["machine"])
    elif kind == "invalid":
        text = json.dumps(invalid_machine(rng))
    else:
        text = malformed_text(rng, MALFORMED_KINDS[rng.integers(len(MALFORMED_KINDS))])
    path.write_text(text + "\n", encoding="utf-8")
    return op


def verify_inputs(seed: int, workdir: Path) -> tuple[dict, list[dict]]:
    """Write the verify machine files under ``workdir`` and describe each operation.

    Each operation names its file, its kind (valid, invalid or malformed),
    the sweep grid size for valid files, its latency class, and for valid
    files the machine itself, which the reference checks use.
    """
    workdir.mkdir(parents=True, exist_ok=True)
    warmup = _verify_op(
        _rng(seed, _WARMUP_STREAM), "valid", VERIFY_WARMUP_POINTS, workdir / "warmup.json"
    )
    rng = _rng(seed, _TIMED_STREAM)
    ops = []
    for _ in range(VERIFY_POOL_CYCLES):
        for slot in rng.permutation(len(VERIFY_CYCLE)):
            kind, points = VERIFY_CYCLE[slot]
            ops.append(_verify_op(rng, kind, points, workdir / f"m{len(ops):04d}.json"))
    return warmup, ops
