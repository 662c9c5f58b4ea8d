import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qdelete import cli, machine, metrics, optimizer
from qdelete.machine import MachineParams
from qdelete.presets import PRESET_NAMES, by_name
from helpers import count_calls, random_machine

try:
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
except ImportError:  # numpy < 2
    from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__


def write_machine(tmp_path, params, name="machine.json"):
    path = tmp_path / name
    machine.save(params, path)
    return path


def child_env(**extra):
    """This environment, plus ``extra``, with the package's source first on PYTHONPATH."""
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path, **extra)


# ---------------------------------------------------------------------------
# validate


def test_validate_valid_machine(tmp_path, capsys):
    path = write_machine(tmp_path, by_name("case3"))
    assert cli.main(["validate", str(path)]) == 0
    out = capsys.readouterr().out
    assert "valid:                yes" in out


def test_validate_invalid_machine(tmp_path, capsys):
    path = write_machine(tmp_path, MachineParams(a0=1.0, a1=1.0))
    assert cli.main(["validate", str(path)]) == 1
    out = capsys.readouterr().out
    assert "orthogonality defect: 1" in out
    assert "valid:                no" in out


def write_huge_machine(tmp_path):
    """A machine file with finite amplitudes whose Gram matrix overflows."""
    data = machine.to_dict(by_name("case3"))
    data["a0"] = [1e160, 1e160]
    data["a1"] = [1e160, 0.0]
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    return path


def test_validate_huge_amplitudes_prints_the_plain_report(tmp_path, capsys):
    assert cli.main(["validate", str(write_huge_machine(tmp_path))]) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    assert "gram matrix defect:   inf" in captured.out
    assert "nan" not in captured.out
    assert "valid:                no" in captured.out


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(["sweep", "--points", "5", "--machine"], id="sweep"),
        pytest.param(["optimize", "--restarts", "1", "--max-iters", "5", "--warm-start"],
                     id="optimize"),
    ],
)
@pytest.mark.parametrize("kind", ["huge", "parallel-rows"])
def test_invalid_machine_exits_1_with_one_error_line(tmp_path, capsys, argv, kind):
    if kind == "huge":
        path = write_huge_machine(tmp_path)
    else:  # a0 = a1 = 1: the rows are parallel, a finite defect
        path = write_machine(tmp_path, MachineParams(a0=1.0, a1=1.0))
    argv = argv + [str(path)]
    if argv[0] == "optimize":
        argv += ["--out", str(tmp_path / "x.json")]
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: machine violates the isometry conditions")
    assert captured.err.count("\n") == 1
    assert "nan" not in captured.err


# ---------------------------------------------------------------------------
# sweep


@pytest.mark.parametrize("m1p", ["-1", "-0.4", "0", "0.3", "1"])
def test_sweep_case1_fidelity_is_the_zero_coupling_curve_at_any_m1p(m1p, capsys):
    # both deficit conventions are exactly 2 on zero couplings, so the curve is fixed
    assert cli.main(["sweep", "--preset", "case1", "--m1p", m1p, "--points", "41"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[:2] == ["# formula mode", "alpha_sq,fidelity,distortion"]
    for line in lines[2:]:
        x, f, _ = map(float, line.split(","))
        assert f == 1.0 - 2.0 * x * (1.0 - x)


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_sweep_formula_mode_exactly_when_the_preset_fails_validation(name, capsys):
    assert cli.main(["sweep", "--preset", name, "--points", "3"]) == 0
    comments = [line for line in capsys.readouterr().out.splitlines() if line.startswith("#")]
    formula_mode = not machine.validate(by_name(name)).is_valid
    assert comments == (["# formula mode"] if formula_mode else [])


def test_sweep_two_points(tmp_path):
    out = tmp_path / "two.csv"
    assert cli.main(["sweep", "--preset", "case3", "--points", "2", "--out", str(out)]) == 0
    assert out.read_text(encoding="utf-8") == "alpha_sq,fidelity,distortion\n0,1,0\n1,1,0\n"


def test_sweep_machine_validates_and_simulates_once(tmp_path, monkeypatch):
    path = write_machine(tmp_path, by_name("case3"))
    # `metrics` holds its own binding of `reduced_blocks`; `require_valid` looks up `validate`
    calls = count_calls(monkeypatch, (machine, "validate"), (metrics, "reduced_blocks"))
    assert cli.main(["sweep", "--machine", str(path), "--points", "11"]) == 0
    assert calls == {"validate": 1, "reduced_blocks": 1}


@pytest.mark.parametrize(
    "argv, validations",
    [(["sweep", "--preset", "case3", "--points", "3"], 1),
     (["sweep", "--preset", "case1", "--points", "3"], 1),
     (["cases"], len(PRESET_NAMES)),
     # the warm start, then the oracle check of the returned machine
     (["optimize", "--restarts", "1", "--max-iters", "5", "--warm-start", "case3",
       "--out", "best.json"], 2)],
    ids=["sweep-feasible-preset", "sweep-formula-preset", "cases", "optimize-warm-start-preset"],
)
def test_each_preset_is_validated_once(monkeypatch, tmp_path, capsys, argv, validations):
    monkeypatch.chdir(tmp_path)
    calls = count_calls(monkeypatch, (machine, "validate"))
    assert cli.main(argv) == 0
    assert calls == {"validate": validations}


def test_sweep_defaults_to_101_points(capsys):
    assert cli.main(["sweep", "--preset", "case3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "alpha_sq,fidelity,distortion"
    assert len(lines) == 1 + 101


@pytest.mark.parametrize(
    "source, m1p, points, to_file",
    [("machine", None, 1001, True), ("machine", 0.3, 11, True), ("case1", None, 7, True),
     ("case3", None, 21, False)],
    ids=["machine-file", "machine-file-m1p", "formula-preset", "stdout"],
)
def test_sweep_prints_every_value_at_17_significant_digits(
    tmp_path, capsys, source, m1p, points, to_file
):
    if source == "machine":
        p = random_machine(np.random.default_rng(5))
        argv, head = ["--machine", str(write_machine(tmp_path, p))], ""
    else:
        p = by_name(source)
        argv = ["--preset", source]
        head = "# formula mode\n" if source == "case1" else ""
    if m1p is not None:
        argv += ["--m1p", str(m1p)]
        p = dataclasses.replace(p, sigma=machine.BlankState(m1p))
    route = metrics.closed_curves if head else metrics.curves
    xs = np.linspace(0.0, 1.0, points)
    expected = head + "alpha_sq,fidelity,distortion\n" + "".join(
        ",".join(format(v, ".17g") for v in row) + "\n"
        for row in zip(xs.tolist(), *(curve.tolist() for curve in route(p, xs)))
    )
    out = tmp_path / "sweep.csv"
    argv = ["sweep", *argv, "--points", str(points)] + (["--out", str(out)] if to_file else [])
    assert cli.main(argv) == 0
    printed = capsys.readouterr().out
    assert (out.read_bytes() if to_file else printed.encode()) == expected.encode()


# ---------------------------------------------------------------------------
# cases


def test_cases_command_prints_table(capsys):
    assert cli.main(["cases"]) == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert lines[0].startswith("preset")
    names = [line.split()[0] for line in lines[1:]]
    assert names == ["case1", "case2", "case3", "case4", "perfect"]
    assert "no" in lines[1]  # case1 is not realizable


def test_case_rows_feasible_is_validity():
    rows = cli.collect_case_rows()
    assert [row["preset"] for row in rows] == list(PRESET_NAMES)
    for row in rows:
        assert row["feasible"] == machine.validate(by_name(row["preset"])).is_valid


def test_collect_case_rows_match_expected_records():
    # criterion 1 holds the four numbered cases to the paper's averages
    rows = {row["preset"]: row for row in cli.collect_case_rows()}
    for name in ("case2", "case3", "case4"):
        assert rows[name]["fbar_legacy"] == rows[name]["fbar_consistent"]
    assert abs(rows["perfect"]["fbar_oracle"] - 1.0) <= 1e-14
    # the legacy 0.589 constant drives the closed-form average negative here,
    # a reproducible artifact the diagnose command quantifies
    assert rows["perfect"]["dbar_legacy"] < 0.0
    assert abs(rows["perfect"]["dbar_analytic"] - rows["perfect"]["dbar_oracle"]) <= 1e-14


# ---------------------------------------------------------------------------
# diagnose


def test_run_diagnose_report_bounds():
    # criterion 5 bounds the report's average deviations
    report = cli.run_diagnose(samples=20, seed=9)
    assert report.max_fidelity_oracle_dev <= 1e-10
    assert report.max_distortion_oracle_dev <= 1e-10


def test_run_diagnose_with_m1p_override():
    # at m1p^2 = 1/2 the two deficit conventions coincide up to rounding
    report = cli.run_diagnose(samples=10, seed=9, m1p=math.sqrt(0.5))
    assert report.max_deficit_gap <= 1e-10


def test_diagnose_defaults_to_100_samples_from_seed_0(capsys):
    assert cli.main(["diagnose"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("samples: 100   seed: 0\n")
    assert "closed form vs oracle" in out


def test_diagnose_compares_the_curves_on_21_points(monkeypatch):
    grids = []
    curves = metrics.curves

    def recording(p, grid):
        grids.append(grid)
        return curves(p, grid)

    monkeypatch.setattr(metrics, "curves", recording)
    cli.run_diagnose(samples=2, seed=0)
    assert len(grids) == 2
    for grid in grids:
        assert grid.tolist() == np.linspace(0.0, 1.0, 21).tolist()


#: The eight amplitudes a0 ... d1 and the m1p of the first decoded draw from default_rng(4).
FIRST_DRAW_AT_SEED_4 = [
    0.275152032500933 - 0.2267340799592847j, 0.6296057146712563 + 0.13172022873477238j,
    -0.6158324874817869 - 0.041828817888846126j, 0.276783671296525 + 0.0389992057689882j,
    -0.6296057146712563 + 0.13172022873477238j, 0.275152032500933 + 0.2267340799592847j,
    -0.276783671296525 + 0.0389992057689882j, -0.6158324874817869 + 0.041828817888846126j,
    -0.037382745036392676,
]


@pytest.mark.parametrize("m1p", [None, 0.3])
def test_diagnose_samples_the_machines_its_seed_draws(monkeypatch, m1p):
    sampled = []
    curves = metrics.curves

    def recording(p, grid):
        sampled.append(p)
        return curves(p, grid)

    monkeypatch.setattr(metrics, "curves", recording)
    cli.run_diagnose(samples=3, seed=4, m1p=m1p)
    rng = np.random.default_rng(4)
    expected = [optimizer.decode(optimizer.sample_raw(rng)) for _ in range(3)]
    # the draw itself, exactly: it makes no LAPACK or BLAS call
    first = [getattr(expected[0], key) for key in machine.AMPLITUDE_KEYS]
    assert first + [expected[0].sigma.m1p] == FIRST_DRAW_AT_SEED_4
    if m1p is not None:
        expected = [dataclasses.replace(p, sigma=machine.BlankState(m1p)) for p in expected]
    assert sampled == expected


# ---------------------------------------------------------------------------
# optimize


def test_optimize_writes_machine_and_history(tmp_path, capsys):
    out = tmp_path / "best.json"
    code = cli.main(
        [
            "optimize",
            "--objective", "max-fidelity",
            "--restarts", "2",
            "--max-iters", "60",
            "--seed", "5",
            "--out", str(out),
        ]
    )
    assert code == 0
    best = machine.load(out)
    assert machine.validate(best).is_valid
    history = tmp_path / "best_history.csv"
    lines = history.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "restart,iteration,objective"
    objectives = [float(line.split(",")[2]) for line in lines[1:]]
    assert all(b >= a for a, b in zip(objectives, objectives[1:]))
    assert "avg fidelity" in capsys.readouterr().out


def test_optimize_defaults_are_the_config_defaults(tmp_path, monkeypatch, capsys):
    configs = []
    search = optimizer.optimize

    def recording(cfg, warm_start=None):
        configs.append((cfg, warm_start))
        return search(dataclasses.replace(cfg, restarts=1, max_iters=5), warm_start)

    monkeypatch.setattr(optimizer, "optimize", recording)
    assert cli.main(["optimize", "--out", str(tmp_path / "x.json")]) == 0
    assert configs == [(optimizer.OptConfig(), None)]


def test_optimize_prints_the_written_amplitudes(tmp_path, capsys):
    out = tmp_path / "best.json"
    argv = ["optimize", "--restarts", "1", "--max-iters", "40", "--seed", "5", "--out", str(out)]
    assert cli.main(argv) == 0
    printed = {}
    for line in capsys.readouterr().out.splitlines():
        key, eq, value = line.strip().partition(" = ")
        if key in machine.AMPLITUDE_KEYS and eq:
            real, sign, imag = value.removesuffix("i").split()
            printed[key] = (float(real), float(sign + imag))
    written = json.loads(out.read_text(encoding="utf-8"))
    assert set(printed) == set(machine.AMPLITUDE_KEYS)
    for key, pair in printed.items():
        assert pair == tuple(float(f"{v:.10g}") for v in written[key]), key
    # both branches of the sign are exercised, so the check cannot hold vacuously
    imags = [written[key][1] for key in machine.AMPLITUDE_KEYS]
    assert min(imags) < 0 < max(imags)


def test_optimize_prints_a_zero_imaginary_part_with_a_plus_sign(tmp_path, capsys):
    # One iteration from the real case3 preset returns a real machine: every
    # imaginary part is +0.0, and each reads "+ 0i", not "- 0i".
    out = tmp_path / "best.json"
    argv = ["optimize", "--warm-start", "case3", "--restarts", "1", "--max-iters", "1",
            "--out", str(out)]
    assert cli.main(argv) == 0
    written = json.loads(out.read_text(encoding="utf-8"))
    imags = [written[key][1] for key in machine.AMPLITUDE_KEYS]
    assert all(v == 0.0 and math.copysign(1.0, v) == 1.0 for v in imags)
    lines = [line.strip() for line in capsys.readouterr().out.splitlines()
             if line.strip().partition(" = ")[0] in machine.AMPLITUDE_KEYS]
    assert len(lines) == len(machine.AMPLITUDE_KEYS)
    assert all(line.endswith(" + 0i") for line in lines), lines


def test_optimize_reruns_bit_identical(tmp_path):
    # The rerun disables every dispatched SIMD feature this process has, so it
    # runs numpy at its baseline level, or natively when this process already
    # runs at the baseline.  From case3 the simplex meets tied vertices, which
    # numpy's SIMD sorts order differently from its baseline sort.
    args = ["optimize", "--warm-start", "case3", "--restarts", "1", "--max-iters", "100"]
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    assert cli.main(args + ["--out", str(out1)]) == 0
    disabled = " ".join(f for f in __cpu_dispatch__ if __cpu_features__.get(f))
    rerun = subprocess.run(
        [sys.executable, "-m", "qdelete", *args, "--out", str(out2)],
        env=child_env(NPY_DISABLE_CPU_FEATURES=disabled), capture_output=True, text=True,
        timeout=120,
    )
    assert rerun.returncode == 0, rerun.stderr
    assert out1.read_bytes() == out2.read_bytes()
    assert (tmp_path / "a_history.csv").read_bytes() == (tmp_path / "b_history.csv").read_bytes()


def test_optimize_unwritable_out_prints_no_report(tmp_path, capsys):
    out = tmp_path / "missing_dir" / "x.json"
    code = cli.main(["optimize", "--restarts", "1", "--max-iters", "5", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ") and str(out) in captured.err


def test_optimize_requires_out(capsys):
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["optimize", "--seed", "1"])
    assert excinfo.value.code == 2


# ---------------------------------------------------------------------------
# every subcommand: bad input exits 2


def hostile_file(tmp_path, kind):
    data = machine.to_dict(by_name("case3"))
    if kind == "missing-m1p":
        del data["m1p"]
    elif kind == "huge-int-m1p":
        data["m1p"] = 10**400
    elif kind == "huge-int-amplitude":
        data["b1"] = [10**400, 0]
    elif kind == "nan-literal":
        data["m1p"] = math.nan
    blob = json.dumps(data).encode("utf-8")
    if kind == "nested-1e5-deep":
        blob = b"[" * 100_000 + b"]" * 100_000
    elif kind == "non-utf8":
        blob = b"\xff" + blob
    path = tmp_path / f"{kind}.json"
    path.write_bytes(blob)
    return str(path)


#: Each hostile file kind and the start of the message that rejects it.
HOSTILE = {
    "missing-m1p": "missing key 'm1p'",
    "huge-int-m1p": "key 'm1p' has a number too large for a float",
    "huge-int-amplitude": "key 'b1' has a number too large for a float",
    "nan-literal": "key 'm1p' must be a finite real, got nan",
    "nested-1e5-deep": "invalid JSON in ",
    "non-utf8": "invalid JSON in ",
}
OPT = ["optimize", "--restarts", "1", "--max-iters", "5"]
WEIGHTED = OPT + ["--objective", "weighted"]
NO_FILE = "[Errno 2] No such file or directory"
BAD_M1P = "m1p must be a finite real in [-1, 1]"
BAD_TOL = "tol must be finite and positive"
BAD_WEIGHTS = "weights must be finite and non-negative"
FEW_POINTS = "--points must be >= 2"

#: (id, argv, start of the message); "@kind" names a machine file the test writes.
BAD_INPUT = (
    [(f"validate-{kind}", ["validate", f"@{kind}"], message) for kind, message in HOSTILE.items()]
    + [(f"sweep-{kind}", ["sweep", "--machine", f"@{kind}"], message)
       for kind, message in HOSTILE.items()]
    + [(f"optimize-{kind}", OPT + ["--warm-start", f"@{kind}"], message)
       for kind, message in HOSTILE.items()]
    + [
        ("validate-missing-file", ["validate", "does-not-exist.json"], NO_FILE),
        # argparse reads "-inf" as an option, so the value is missing
        ("validate-tol-neg-inf", ["validate", "@valid", "--tol", "-inf"],
         "argument --tol: expected one argument"),
        ("validate-tol-0", ["validate", "@valid", "--tol", "0"], BAD_TOL),
        ("validate-tol-neg", ["validate", "@valid", "--tol", "-1"], BAD_TOL),
        ("validate-tol-nan", ["validate", "@valid", "--tol", "nan"], BAD_TOL),
        ("validate-tol-inf", ["validate", "@valid", "--tol", "inf"], BAD_TOL),
        ("sweep-points-1", ["sweep", "--preset", "case3", "--points", "1"], FEW_POINTS),
        ("sweep-points-0", ["sweep", "--preset", "case3", "--points", "0"], FEW_POINTS),
        ("sweep-points-neg", ["sweep", "--preset", "case3", "--points", "-3"], FEW_POINTS),
        ("sweep-points-nan", ["sweep", "--preset", "case3", "--points", "nan"],
         "argument --points: invalid int value: 'nan'"),
        # each count fails at once: above numpy's size limit, at it, and far below it (7 PiB)
        ("sweep-points-int64-max", ["sweep", "--preset", "case3", "--points", str(2**63 - 1)],
         f"--points must be >= 2 and <= {2**60 - 1}, got {2**63 - 1}"),
        ("sweep-points-size-limit", ["sweep", "--preset", "case3", "--points", str(2**60 - 1)],
         "array is too big"),
        ("sweep-points-1e15", ["sweep", "--preset", "case3", "--points", str(10**15)],
         "out of memory: Unable to allocate 7.11 PiB"),
        ("sweep-unknown-preset", ["sweep", "--preset", "case7"],
         "argument --preset: invalid choice: 'case7'"),
        ("sweep-m1p-nan", ["sweep", "--preset", "case3", "--m1p", "nan"], BAD_M1P),
        ("sweep-m1p-inf", ["sweep", "--preset", "case1", "--m1p", "inf"], BAD_M1P),
        ("sweep-m1p-neg", ["sweep", "--machine", "@valid", "--m1p", "-2"], BAD_M1P),
        ("diagnose-samples-0", ["diagnose", "--samples", "0"], "samples must be >= 1"),
        ("diagnose-samples-neg", ["diagnose", "--samples", "-1"], "samples must be >= 1"),
        ("diagnose-samples-inf", ["diagnose", "--samples", "inf"],
         "argument --samples: invalid int value: 'inf'"),
        ("diagnose-seed-nan", ["diagnose", "--seed", "nan"],
         "argument --seed: invalid int value: 'nan'"),
        ("diagnose-seed-neg", ["diagnose", "--seed", "-3"], "seed must be >= 0"),
        ("diagnose-m1p-neg-inf", ["diagnose", "--samples", "1", "--m1p", "-inf"],
         "argument --m1p: expected one argument"),
        ("diagnose-m1p-2", ["diagnose", "--samples", "1", "--m1p", "2"], BAD_M1P),
        ("diagnose-m1p-neg", ["diagnose", "--samples", "1", "--m1p", "-1.5"], BAD_M1P),
        ("diagnose-m1p-nan", ["diagnose", "--samples", "1", "--m1p", "nan"], BAD_M1P),
        ("diagnose-m1p-inf", ["diagnose", "--samples", "1", "--m1p", "inf"], BAD_M1P),
        ("optimize-restarts-0", OPT[:1] + ["--restarts", "0"], "restarts must be >= 1"),
        ("optimize-restarts-neg", OPT[:1] + ["--restarts", "-1"], "restarts must be >= 1"),
        ("optimize-max-iters-0", OPT[:1] + ["--max-iters", "0"], "max_iters must be >= 1"),
        ("optimize-seed-neg", OPT + ["--seed", "-1"], "seed must be >= 0"),
        ("optimize-warm-start-empty", OPT + ["--warm-start", ""], NO_FILE),
        ("optimize-warm-start-formula-preset", OPT + ["--warm-start", "case1"],
         "preset 'case1' has no machine realization"),
        ("optimize-tol-nan", OPT + ["--tol", "nan"], "tol must be finite and non-negative"),
        ("optimize-tol-inf", OPT + ["--tol", "inf"], "tol must be finite and non-negative"),
        ("optimize-tol-neg", OPT + ["--tol", "-1"], "tol must be finite and non-negative"),
        ("optimize-wf-nan", WEIGHTED + ["--wf", "nan"], BAD_WEIGHTS),
        ("optimize-weights-inf", WEIGHTED + ["--wf", "inf", "--wd", "inf"], BAD_WEIGHTS),
        ("optimize-wd-neg", WEIGHTED + ["--wd", "-1"], BAD_WEIGHTS),
        ("optimize-wf-nan-max-fidelity", OPT + ["--wf", "nan"], BAD_WEIGHTS),
        ("optimize-wd-neg-min-distortion",
         OPT + ["--objective", "min-distortion", "--wd", "-1"], BAD_WEIGHTS),
        ("optimize-weights-0", WEIGHTED + ["--wf", "0", "--wd", "0"],
         "objective weights must not both be zero"),
        ("optimize-out-missing-dir", OPT + ["--out", "@tmp/missing/best.json"],
         "cannot write @tmp/missing/best.json: directory @tmp/missing does not exist"),
        ("optimize-out-dir", OPT + ["--out", "@tmp/"], "cannot write @tmp: it is a directory"),
        ("optimize-out-empty", OPT + ["--out", ""], "cannot write .: it is a directory"),
        ("optimize-history-dir", OPT + ["--out", "@tmp/taken.json"],
         "cannot write @tmp/taken_history.csv: it is a directory"),
    ]
)


@pytest.mark.parametrize(
    "argv, message", [pytest.param(argv, message, id=name) for name, argv, message in BAD_INPUT]
)
def test_bad_input_exits_2_without_traceback(tmp_path, monkeypatch, capsys, argv, message):
    def resolve(token):
        if not token.startswith("@"):
            return token
        if token == "@valid":
            return str(write_machine(tmp_path, by_name("case3")))
        if token.startswith("@tmp/"):
            return str(tmp_path / token[len("@tmp/"):])
        return hostile_file(tmp_path, token[1:])

    def no_search(*args, **kwargs):
        raise AssertionError("the search ran")

    (tmp_path / "taken_history.csv").mkdir()  # the history path of `--out @tmp/taken.json`
    argv = [resolve(token) for token in argv]
    if argv[0] == "optimize":
        if "--out" in argv:  # a row's own bad path is rejected before any search
            monkeypatch.setattr(cli.optimizer, "optimize", no_search)
        else:
            argv += ["--out", str(tmp_path / "best.json")]
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse rejects values of the wrong type
        code = exc.code
    err = capsys.readouterr().err
    assert code == 2
    # our own errors are one "error: " line; argparse's follow its usage text
    usage, _, rest = err.partition("error: ")
    assert usage.startswith("usage: qdelete") if message.startswith("argument ") else usage == ""
    assert rest.startswith(message.replace("@tmp", str(tmp_path)))
    assert "Traceback" not in err
    assert not (tmp_path / "best.json").exists() and not (tmp_path / "taken.json").exists()


def test_a_memory_error_without_text_still_reads_as_one_line(monkeypatch, capsys):
    def out_of_memory(*args):
        raise MemoryError

    monkeypatch.setattr(cli.metrics, "curves", out_of_memory)
    assert cli.main(["sweep", "--preset", "case3"]) == 2
    assert capsys.readouterr().err == "error: out of memory\n"


@pytest.mark.parametrize(
    "argv", [["diagnose", "--seed", "-3"], OPT + ["--seed", "-1", "--out", "best.json"]]
)
def test_negative_seed_is_rejected_by_name(capsys, argv):
    assert cli.main(argv) == 2
    assert capsys.readouterr().err.startswith("error: seed must be >= 0")


# ---------------------------------------------------------------------------
# cold start: no command imports scipy

#: Runs each argv of the JSON list in argv[1] through cli.main in this fresh
#: interpreter and prints, per command, its exit code and whether scipy and
#: scipy.optimize are loaded after it.
COLD_START = """
import contextlib, io, json, sys
from qdelete import cli
report = [[None, "scipy" in sys.modules, "scipy.optimize" in sys.modules]]
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    report.append([code, "scipy" in sys.modules, "scipy.optimize" in sys.modules])
print(json.dumps(report))
"""


def test_no_command_imports_scipy(tmp_path):
    malformed = tmp_path / "malformed.json"
    malformed.write_text("{", encoding="utf-8")
    commands = [
        (["validate", str(write_machine(tmp_path, by_name("case3")))], 0),
        (["validate", str(write_machine(tmp_path, MachineParams(a0=1.0, a1=1.0), "bad.json"))], 1),
        (["validate", str(malformed)], 2),
        (["sweep", "--preset", "case3"], 0),
        (["cases"], 0),
        (["diagnose", "--samples", "5"], 0),
    ]
    search = OPT + ["--out", str(tmp_path / "best.json")]
    run = subprocess.run(
        [sys.executable, "-c", COLD_START, json.dumps([argv for argv, _ in commands] + [search])],
        cwd=tmp_path, env=child_env(), capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 0, run.stderr
    imported, *after_commands, after_search = json.loads(run.stdout)
    assert imported == [None, False, False]
    assert after_commands == [[code, False, False] for _, code in commands]
    assert after_search == [0, False, False]
