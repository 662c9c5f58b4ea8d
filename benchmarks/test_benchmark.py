"""Self-tests of the benchmark: its checkers, its inputs, its tracer and its output.

Run from the root of a checkout (about a minute, most of it smoke runs):

    python3 -m pytest benchmarks -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
import inputs  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SCRATCH = ROOT / ".bench_work"


@pytest.fixture
def scratch():
    path = SCRATCH / f"selftest-{time.monotonic_ns()}"
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)
    try:
        SCRATCH.rmdir()
    except OSError:
        pass


def machine(seed: int = 0) -> dict:
    return inputs.random_machine(np.random.default_rng(seed))


def sweep_text(m: dict, points: int) -> str:
    """A sweep CSV in the package's format, computed from the reference curves."""
    xs = np.linspace(0.0, 1.0, points)
    rows = zip(xs, reference.fidelity_at(m, xs), reference.distortion_at(m, xs))
    return "\n".join(
        [reference.SWEEP_HEADER] + [f"{x:.17g},{f:.17g},{d:.17g}" for x, f, d in rows]
    ) + "\n"


# ---------------------------------------------------------------------------
# the checkers flag deliberately corrupted outputs


def test_sweep_check_accepts_exact_rows():
    m = machine()
    assert reference.check_sweep(sweep_text(m, 21), m, 21) == []


@pytest.mark.parametrize("column", [1, 2])
def test_sweep_check_flags_row_off_by_1e_6(column):
    m = machine()
    lines = sweep_text(m, 21).splitlines()
    cells = lines[10].split(",")
    cells[column] = f"{float(cells[column]) + 1e-6:.17g}"
    lines[10] = ",".join(cells)
    assert reference.check_sweep("\n".join(lines), m, 21)


def test_sweep_check_flags_missing_row_and_formula_mode():
    m = machine()
    text = sweep_text(m, 21)
    assert reference.check_sweep(text.rsplit("\n", 2)[0] + "\n", m, 21)
    assert reference.check_sweep("# formula mode\n" + text, m, 21)


def test_exit_check_flags_wrong_code():
    assert reference.check_exit(1, 1) == []
    assert reference.check_exit(1, 0)
    assert reference.check_exit(2, 1)
    assert reference.check_exit(0, None)


def test_machine_check_flags_1e_6_row_norm_defect():
    m = machine()
    assert reference.check_machine(m) == []
    row0, row1 = reference.rows(m)
    bad = inputs.machine_dict(row0 * np.sqrt(1.0 + 1e-6), row1, m["m1p"])
    assert reference.row_defects(bad)[0] == pytest.approx(1e-6, rel=1e-6)
    assert reference.check_machine(bad)
    fbar, dbar = reference.avg_fidelity(bad), reference.avg_distortion(bad)
    assert reference.check_solve(bad, fbar, dbar)


def test_solve_check_flags_wrong_averages_and_beating_the_optimum():
    m = machine()
    fbar, dbar = reference.avg_fidelity(m), reference.avg_distortion(m)
    assert reference.check_solve(m, fbar, dbar) == []
    assert reference.check_solve(m, fbar + 1e-7, dbar)
    assert reference.check_solve(m, fbar, dbar - 1e-7)
    assert reference.check_solve(m, 1.0 + 1e-6, dbar)


def test_reference_optimum_is_reached_by_the_certificate_machine():
    # Couplings (g, h, e, f) = (s, m, m, s) reach both optima for any m1p = m;
    # rows u/2 +- w with w orthogonal to u and |w|^2 = 1/2 realise them.
    mm = 0.3
    s = np.sqrt(1.0 - mm * mm)
    u = np.array([s, mm, mm, s], dtype=complex)  # (a, b, c, d) sums: g, h, e, f
    w = np.array([mm, -s, s, -mm], dtype=complex) / 2.0
    m = inputs.machine_dict(u / 2 + w, u / 2 - w, mm)
    assert reference.check_machine(m) == []
    assert reference.avg_fidelity(m) == pytest.approx(reference.F_STAR, abs=1e-12)
    assert reference.avg_distortion(m) == pytest.approx(reference.D_STAR, abs=1e-12)


# ---------------------------------------------------------------------------
# inputs


def test_inputs_repeat_for_a_seed_and_differ_across_seeds():
    assert inputs.search_inputs(3) == inputs.search_inputs(3)
    assert inputs.search_inputs(3)[1] != inputs.search_inputs(4)[1]
    warmup, ops = inputs.search_inputs(3)
    assert warmup not in ops
    for op in ops:
        assert reference.check_machine(op["machine"]) == []


def test_verify_inputs_follow_the_cycle(scratch):
    warmup, ops = inputs.verify_inputs(5, scratch)
    cycle = len(inputs.VERIFY_CYCLE)
    assert len(ops) == cycle * inputs.VERIFY_POOL_CYCLES
    assert sorted((o["kind"], o["points"] or 0) for o in ops[:cycle]) == sorted(
        (k, p or 0) for k, p in inputs.VERIFY_CYCLE
    )
    for op in ops:
        text = Path(op["file"]).read_text()
        if op["kind"] == "valid":
            assert reference.check_machine(op["machine"]) == []
        elif op["kind"] == "invalid":
            assert reference.check_machine(json.loads(text))
        else:
            data = json.loads(text)
            assert (
                set(data) != set(inputs.MACHINE_KEYS)
                or "NaN" in text
                or "true" in text
            )
    assert warmup["kind"] == "valid"


# ---------------------------------------------------------------------------
# tracer and statistics


def test_tracer_self_time_excludes_children():
    tracer = tracing.Tracer()

    inner = tracer.wrap("inner", lambda: time.sleep(0.02))

    def outer():
        inner()
        time.sleep(0.01)

    outer = tracer.wrap("outer", outer)
    for op in range(3):
        tracer.op_id = op
        outer()
    totals = tracer.layer_totals()
    assert totals["outer"][0] == 3 and totals["inner"][0] == 3
    assert 0.025 < totals["outer"][1] < 0.06
    assert 0.055 < totals["inner"][1] < 0.12
    assert list(tracer.op) == [0, 0, 1, 1, 2, 2]
    assert list(tracer.parent) == [-1, 0, -1, 2, -1, 4]


def test_op_median_is_taken_per_class_and_weighted_by_the_mix():
    values = [1.0] * 10 + [3.0] * 11 + [10.0] * 9
    classes = ["a"] * 21 + ["b"] * 9
    assert run.class_weighted_median(values, classes, {"a": 0.75, "b": 0.25}) == 0.75 * 3 + 2.5
    with pytest.raises(run.BenchError):
        run.class_weighted_median(values, classes, {"a": 0.5, "b": 0.25, "c": 0.25})


def test_scale_is_the_median_reading_around_the_operation():
    log = hostspeed.SpeedLog()
    log.times = [0.0, 1.0, 2.0, 5.0]
    log.readings = [r * hostspeed.REFERENCE_S for r in (1.0, 2.0, 3.0, 4.0)]
    assert log.scale(1.5, 1.6) == pytest.approx(2.5)  # readings at 1 and 2 s
    assert log.scale(3.4, 3.5) == pytest.approx(3.0)  # none inside: the nearest
    assert log.scale(-0.5, 0.5) == pytest.approx(1.5)
    log = hostspeed.SpeedLog()
    log.sample()
    log.sample()  # within INTERVAL_S: no second reading
    log.sample(force=True)
    assert len(log.readings) == 2 and all(r > 0 for r in log.readings)


def test_tail_needs_ten_samples_beyond():
    assert run.tail(list(range(1, 20))) == (50, 10)
    assert run.tail(list(range(1, 21))) == (50, 10)
    assert run.tail(list(range(1, 41))) == (75, 30)
    assert run.tail(list(range(1, 201))) == (95, 190)
    assert run.tail(list(range(1, 5001))) == (99, 4950)


# ---------------------------------------------------------------------------
# the benchmark itself


def test_benchmark_json_matches_the_runner():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert [m["name"] for m in SPEC["end_to_end"]] == list(run.END_TO_END_UNITS)
    assert [m["name"] for m in SPEC["per_layer"]] == list(run.PER_LAYER_UNITS)
    for m in SPEC["end_to_end"]:
        assert m["unit"] == run.END_TO_END_UNITS[m["name"]]
    for m in SPEC["per_layer"]:
        assert m["unit"] == run.PER_LAYER_UNITS[m["name"]]
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


def _run(args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "benchmarks/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_run_emits_every_metric(workload, trace):
    proc = _run(["--workload", workload, "--seed", "7", "--seconds", "1", "--trace", str(trace)])
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in expected]
    for m in expected:
        metric = result["metrics"][m["name"]]
        assert metric["unit"] == m["unit"]
        assert isinstance(metric["value"], (int, float))
        # every metric is printed by name on a line of its own too
        assert any(line.split()[:1] == [m["name"]] for line in lines[:-1])
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in expected)
    info = json.loads(next(line for line in lines if line.startswith("info "))[5:])
    assert info["blas_threads"]["OPENBLAS_NUM_THREADS"] == "1"
    assert info["seed"] == 7


def test_refuses_to_run_without_the_package(scratch):
    shutil.copy(ROOT / "BENCHMARK.json", scratch)
    shutil.copytree(HERE, scratch / "benchmarks", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(["--workload", "verify", "--seconds", "1"], cwd=scratch)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
