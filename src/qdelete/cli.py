"""Command-line interface: validate, sweep, cases, diagnose, optimize.

Exit codes: 0 success (or valid machine), 1 invalid machine, 2 usage or
parse error.  Tables render 10 significant digits; CSV values have 17 and JSON
numbers are shortest-repr, so both parse back to the same floats.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

import numpy as np

from . import machine, metrics, optimizer, presets

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_USAGE = 2

#: `optimize` has one option per field, each named by `dest`, and takes the field's default.
_OPT_FIELDS = dataclasses.fields(optimizer.OptConfig)


def _f10(x: float) -> str:
    return f"{x:.10g}"


# ---------------------------------------------------------------------------
# validate


def cmd_validate(args) -> int:
    report = machine.validate(machine.load(args.file), tol=args.tol)
    print(f"row0 norm defect:     {_f10(report.row0_norm_defect)}")
    print(f"row1 norm defect:     {_f10(report.row1_norm_defect)}")
    print(f"orthogonality defect: {_f10(report.orthogonality_defect)}")
    print(f"gram matrix defect:   {_f10(report.gram_defect)}")
    print(f"tolerance:            {_f10(report.tol)}")
    print(f"valid:                {'yes' if report.is_valid else 'no'}")
    return EXIT_OK if report.is_valid else EXIT_INVALID


# ---------------------------------------------------------------------------
# sweep


def cmd_sweep(args) -> int:
    """Fidelity and distortion at evenly spaced alpha^2 values, as CSV.

    Machines are swept with the direct simulation oracle, which validates
    them.  A preset that fails that validation (case1) has no machine to
    simulate, so its curves come from the closed forms on its couplings
    (formula mode); a machine file that fails it exits 1.
    """
    if args.points < 2:
        raise ValueError(f"--points must be >= 2, got {args.points}")
    p = machine.load(args.machine) if args.machine is not None else presets.by_name(args.preset)
    if args.m1p is not None:
        p = dataclasses.replace(p, sigma=machine.BlankState(args.m1p))
    xs = np.linspace(0.0, 1.0, args.points)
    lines = []
    try:
        fidelity, distortion = metrics.curves(p, xs)
    except machine.MachineValidationError:
        if args.preset is None:
            raise
        fidelity, distortion = metrics.closed_curves(p, xs)
        lines.append("# formula mode")
    lines.append("alpha_sq,fidelity,distortion")
    rows = np.column_stack((xs, fidelity, distortion)).ravel().tolist()
    text = "\n".join(lines) + "\n" + ("%.17g,%.17g,%.17g\n" * len(xs)) % tuple(rows)
    if args.out is None:
        sys.stdout.write(text)
    else:
        Path(args.out).write_text(text, encoding="utf-8", newline="")
    return EXIT_OK


# ---------------------------------------------------------------------------
# cases


def collect_case_rows() -> list[dict]:
    """Metric table for every registry preset, by all evaluation routes.

    A preset is feasible when its machine passes the validation inside
    `metrics.averages`; the quadrature averages of an infeasible one
    integrate its closed-form curves.
    """
    rows = []
    for name in presets.PRESET_NAMES:
        p = presets.by_name(name)
        c, m1p = machine.couplings(p), p.sigma.m1p
        dc = metrics.distortion_coefficients(*c)
        feasible = True
        try:
            fbar_quad, dbar_quad = metrics.averages(p)
        except machine.MachineValidationError:
            feasible = False
            fbar_quad, dbar_quad = metrics.averages(p, metrics.closed_curves)
        rows.append(
            {
                "preset": name,
                "feasible": feasible,
                "dbar_legacy": metrics.avg_distortion(*dc, metrics.LEGACY_CROSS_CONSTANT),
                "dbar_analytic": metrics.avg_distortion(*dc),
                "dbar_quad": dbar_quad,
                "fbar_legacy": metrics.avg_fidelity(metrics.legacy_fidelity_deficit(*c, m1p)),
                "fbar_consistent": metrics.avg_fidelity(metrics.fidelity_deficit(*c, m1p)),
                "fbar_quad": fbar_quad,
            }
        )
    return rows


#: Titles of the `cases` columns; each title in lower case is its key in a case row.
_CASE_COLUMNS = ("preset", "feasible", "Dbar_legacy", "Dbar_analytic", "Dbar_quad",
                 "Fbar_legacy", "Fbar_consistent", "Fbar_quad")


def _case_line(preset, feasible, *averages) -> str:
    return " ".join([f"{preset:<8}", f"{feasible:<8}", *(f"{a:>16}" for a in averages)])


def cmd_cases(args) -> int:
    print(_case_line(*_CASE_COLUMNS))
    for row in collect_case_rows():
        preset, feasible, *averages = (row[title.lower()] for title in _CASE_COLUMNS)
        print(_case_line(preset, "yes" if feasible else "no", *map(_f10, averages)))
    return EXIT_OK


# ---------------------------------------------------------------------------
# diagnose


@dataclasses.dataclass(frozen=True)
class DiagnoseReport:
    """Maximum deviations over a sample of random valid machines."""

    samples: int
    seed: int
    max_legacy_distortion_dev: float     # |avg_distortion(legacy) - quadrature|
    max_analytic_distortion_dev: float   # |avg_distortion(analytic) - quadrature|
    max_legacy_dev_mismatch: float       # vs |0.589 - 3pi/64| * |coherence sum|
    max_quad_level_disagreement: float   # coarse vs refined quadrature
    max_deficit_gap: float               # |deficit(legacy) - deficit(consistent)|
    max_fidelity_oracle_dev: float       # direct simulation vs consistent closed form
    max_distortion_oracle_dev: float     # direct simulation vs closed form


def run_diagnose(samples: int, seed: int, m1p: float | None = None) -> DiagnoseReport:
    """Quantify both closed-form ambiguities against the simulation oracle.

    The machines are decoded `optimizer.sample_raw` draws, the search's start
    distribution; ``m1p``, when given, replaces their blank state.
    """
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    grid = np.linspace(0.0, 1.0, 21)
    legacy_const_gap = abs(metrics.LEGACY_CROSS_CONSTANT - metrics.ANALYTIC_CROSS_CONSTANT)

    deviations = []  # per sample, in the order of the report's fields
    for _ in range(samples):
        p = optimizer.decode(optimizer.sample_raw(rng))
        if m1p is not None:
            p = dataclasses.replace(p, sigma=machine.BlankState(m1p))
        c = machine.couplings(p)
        dc = metrics.distortion_coefficients(*c)
        _, (coarse, fine) = metrics.levels(p, metrics.closed_curves)
        dev_legacy = abs(metrics.avg_distortion(*dc, metrics.LEGACY_CROSS_CONSTANT) - fine)
        fidelity, distortion = metrics.curves(p, grid)
        closed_fidelity, closed_distortion = metrics.closed_curves(p, grid)
        deviations.append((
            dev_legacy,
            abs(metrics.avg_distortion(*dc) - fine),
            abs(dev_legacy - legacy_const_gap * abs(dc[1])),
            abs(fine - coarse),
            abs(metrics.legacy_fidelity_deficit(*c, p.sigma.m1p)
                - metrics.fidelity_deficit(*c, p.sigma.m1p)),
            float(np.max(np.abs(fidelity - closed_fidelity))),
            float(np.max(np.abs(distortion - closed_distortion))),
        ))
    return DiagnoseReport(samples, seed, *(max(column) for column in zip(*deviations)))


def cmd_diagnose(args) -> int:
    report = run_diagnose(args.samples, args.seed, args.m1p)
    print(f"samples: {report.samples}   seed: {report.seed}")
    print("average distortion, closed form vs quadrature:")
    print(f"  max |legacy (0.589)  - quadrature| = {_f10(report.max_legacy_distortion_dev)}")
    print(f"  max |analytic (3pi/64) - quadrature| = {_f10(report.max_analytic_distortion_dev)}")
    print(
        "  max |legacy deviation - |0.589 - 3pi/64|*|coherence sum|| = "
        f"{_f10(report.max_legacy_dev_mismatch)}"
    )
    print(f"  max quadrature level disagreement = {_f10(report.max_quad_level_disagreement)}")
    print("fidelity deficit conventions:")
    print(f"  max |legacy - consistent| = {_f10(report.max_deficit_gap)}")
    print(
        "  max |direct simulation - consistent closed form| = "
        f"{_f10(report.max_fidelity_oracle_dev)}  (the oracle sides with 'consistent')"
    )
    print(
        "distortion: max |direct simulation - closed form| = "
        f"{_f10(report.max_distortion_oracle_dev)}"
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# optimize


def render_history_csv(history) -> str:
    fields = tuple(value for entry in history for value in entry)
    return "restart,iteration,objective\n" + ("%d,%d,%.17g\n" * len(history)) % fields


def cmd_optimize(args) -> int:
    cfg = optimizer.OptConfig(**{f.name: getattr(args, f.name) for f in _OPT_FIELDS})
    warm = None
    if args.warm_start in presets.PRESET_NAMES:
        warm = presets.by_name(args.warm_start)
    elif args.warm_start is not None:
        warm = machine.load(args.warm_start)
    out = Path(args.out)
    # checked before the search: a write failing after it wastes the run
    if not out.parent.is_dir():
        raise ValueError(f"cannot write {out}: directory {out.parent} does not exist")
    if out.is_dir():
        raise ValueError(f"cannot write {out}: it is a directory")
    history_path = out.with_name(out.stem + "_history.csv")
    if history_path.is_dir():
        raise ValueError(f"cannot write {history_path}: it is a directory")
    try:
        result = optimizer.optimize(cfg, warm_start=warm)
    except machine.MachineValidationError:  # raised by the one validation of the warm start
        if args.warm_start not in presets.PRESET_NAMES:
            raise
        raise ValueError(f"preset {args.warm_start!r} has no machine realization") from None

    best = result.best_machine
    machine.save(best, out)
    history_path.write_text(render_history_csv(result.history), encoding="utf-8", newline="")

    print(f"objective: {cfg.objective}   seed: {cfg.seed}   restarts: {cfg.restarts}")
    print(f"best objective:     {_f10(result.best_objective)}")
    print(f"avg fidelity:       {_f10(result.avg_fidelity)}")
    print(f"avg distortion:     {_f10(result.avg_distortion)}")
    print(f"iterations used:    {result.iterations_used}")
    for key in machine.AMPLITUDE_KEYS:
        z = complex(getattr(best, key))
        print(f"  {key} = {_f10(z.real)} {'+' if z.imag >= 0 else '-'} {_f10(abs(z.imag))}i")
    print(f"  m1p = {_f10(best.sigma.m1p)}")
    print(f"wrote {out} and {history_path}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qdelete",
        description="Simulate, verify and optimize two-copy qubit deletion machines.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a machine file against the isometry conditions")
    p.add_argument("file", help="machine JSON file")
    p.add_argument("--tol", type=float, default=machine.DEFAULT_VALIDATION_TOL)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("sweep", help="fidelity/distortion curve over alpha^2 as CSV")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--preset", choices=presets.PRESET_NAMES)
    src.add_argument("--machine", help="machine JSON file")
    p.add_argument("--points", type=int, default=101)
    p.add_argument("--out", help="output CSV path (default: stdout)")
    p.add_argument("--m1p", type=float, help="override the blank-state overlap")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("cases", help="metric table for all presets, by every route")
    p.set_defaults(func=cmd_cases)

    p = sub.add_parser("diagnose", help="quantify the closed-form ambiguities on random machines")
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--m1p", type=float, help="force this blank-state overlap on every sample")
    p.set_defaults(func=cmd_diagnose)

    p = sub.add_parser("optimize", help="search the constraint manifold for the best machine")
    p.add_argument("--objective", choices=optimizer.OBJECTIVES)
    p.add_argument("--wf", dest="weight_fidelity", metavar="WF", type=float,
                   help="fidelity weight (weighted objective)")
    p.add_argument("--wd", dest="weight_distortion", metavar="WD", type=float,
                   help="distortion weight (weighted objective)")
    p.add_argument("--restarts", type=int)
    p.add_argument("--max-iters", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--tol", type=float)
    p.add_argument("--warm-start", help="preset name or machine JSON file to start restart 0 from")
    p.add_argument("--out", required=True, help="best machine JSON path; history CSV lands beside it")
    p.set_defaults(func=cmd_optimize, **{f.name: f.default for f in _OPT_FIELDS})

    return parser


_PARSER = build_parser()


def main(argv=None) -> int:
    """Run one command; an invalid machine exits 1, any other bad input exits 2."""
    args = _PARSER.parse_args(argv)
    try:
        return args.func(args)
    except machine.MachineValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except (OSError, ValueError) as exc:  # unreadable files and bad values, named by the message
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entrypoint() -> None:
    sys.exit(main())
