"""Acceptance suite: one test per release criterion, tolerances pinned.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion with the measured deviations.
"""

import functools
import math
import time

import numpy as np

from qdelete import cli, machine, metrics, optimizer, qlinalg
from qdelete.machine import BlankState, Couplings, MachineParams
from qdelete.optimizer import OptConfig
from qdelete.presets import by_name
from paper_values import PAPER_AVERAGES, exchange_only_averages
from reduced_states import mode1_state_closed, mode2_state_closed
from helpers import random_machine

SAMPLE_SEED = 20260811
N_MACHINES = 200
GRID = np.linspace(0.0, 1.0, 21)


def _report(number: int, description: str, ok: bool, detail: str = "") -> None:
    line = f"{'PASS' if ok else 'FAIL'}: criterion {number} - {description}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


@functools.lru_cache(maxsize=1)
def _sample_machines():
    rng = np.random.default_rng(SAMPLE_SEED)
    return tuple(random_machine(rng) for _ in range(N_MACHINES))


def _random_exchange_only_rows(rng):
    """Orthonormal rows confined to the (a, b) amplitudes."""
    v0 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    v0 = v0 / np.linalg.norm(v0)
    v1 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    v1 = v1 - np.vdot(v0, v1) * v0
    v1 = v1 / np.linalg.norm(v1)
    return v0, v1


def test_criterion_1_case_table_reproduction():
    t0 = time.perf_counter()
    rows = {row["preset"]: row for row in cli.collect_case_rows()}

    closed_dev = 0.0
    quad_dev = 0.0
    for name, (dbar, fbar) in PAPER_AVERAGES.items():
        row = rows[name]
        closed_dev = max(
            closed_dev,
            abs(row["dbar_analytic"] - dbar),
            abs(row["fbar_consistent"] - fbar),
        )
        quad_dev = max(quad_dev, abs(row["dbar_quad"] - dbar), abs(row["fbar_quad"] - fbar))
    # legacy closed forms coincide for the four numbered cases (no coherence,
    # balanced weights), so they must hit the same numbers
    for name, (dbar, fbar) in PAPER_AVERAGES.items():
        closed_dev = max(
            closed_dev,
            abs(rows[name]["dbar_legacy"] - dbar),
            abs(rows[name]["fbar_legacy"] - fbar),
        )

    # general exchange-only instances: avg distortion N/30 + 1/3 and avg
    # fidelity 1 - K/6 for the case-4 closed forms, under both conventions
    rng = np.random.default_rng(SAMPLE_SEED + 1)
    for _ in range(10):
        v0, v1 = _random_exchange_only_rows(rng)
        p = MachineParams(a0=v0[0], b0=v0[1], a1=v1[0], b1=v1[1])
        c = machine.couplings(p)
        dbar, fbar_legacy, fbar_consistent = exchange_only_averages(c, p.sigma)
        dc = metrics.distortion_coefficients(*c)
        deficit_legacy = metrics.legacy_fidelity_deficit(*c, p.sigma.m1p)
        deficit_consistent = metrics.fidelity_deficit(*c, p.sigma.m1p)
        closed_dev = max(
            closed_dev,
            abs(metrics.avg_distortion(*dc) - dbar),
            abs(metrics.avg_fidelity(deficit_legacy) - fbar_legacy),
            abs(metrics.avg_fidelity(deficit_consistent) - fbar_consistent),
        )
        fbar_quad, dbar_quad = metrics.averages(p)
        quad_dev = max(
            quad_dev,
            abs(metrics.averages(p, metrics.closed_curves)[1] - dbar),
            abs(dbar_quad - dbar),
            abs(fbar_quad - fbar_legacy),
            abs(fbar_quad - fbar_consistent),
        )
    elapsed = time.perf_counter() - t0

    _report(
        1,
        "case table reproduction",
        closed_dev <= 1e-10 and quad_dev <= 1e-8 and elapsed < 1.0,
        f"closed dev {closed_dev:.2e}, quad dev {quad_dev:.2e}, {elapsed:.2f}s",
    )


def test_criterion_2_oracle_equivalence():
    t0 = time.perf_counter()
    worst = 0.0
    for p in _sample_machines():
        c = machine.couplings(p)
        sig = p.sigma.ket()
        for x in GRID:
            out = machine.outputs(p, x)
            rho1 = qlinalg.partial_trace_mode1(out)
            rho2 = qlinalg.partial_trace_mode2(out)
            d = metrics.input_state(x) - rho1
            (fidelity,), (distortion,) = metrics.closed_curves(p, float(x))
            worst = max(
                worst,
                float(np.max(np.abs(mode1_state_closed(c, x) - rho1))),
                float(np.max(np.abs(mode2_state_closed(c, p.sigma, x) - rho2))),
                abs(distortion - np.trace(d @ d).real),
                abs(fidelity - np.vdot(sig, rho2 @ sig).real),
            )
    elapsed = time.perf_counter() - t0
    _report(
        2,
        f"oracle equivalence on {N_MACHINES} machines x {len(GRID)} inputs",
        worst <= 1e-10 and elapsed < 10.0,
        f"max dev {worst:.2e}, {elapsed:.2f}s",
    )


def test_criterion_3_unitarity_invariants():
    t0 = time.perf_counter()
    norm_dev = 0.0
    trace_dev = 0.0
    min_eig = 0.0
    coupling_dev = 0.0
    for p in _sample_machines():
        c = machine.couplings(p)
        norm_sq_sum = abs(c.g) ** 2 + abs(c.h) ** 2 + abs(c.e) ** 2 + abs(c.f) ** 2
        coupling_dev = max(coupling_dev, abs(norm_sq_sum - 2.0))
        for x in GRID:
            out = machine.outputs(p, x)
            norm_dev = max(norm_dev, abs(np.vdot(out, out).real - 1.0))
            for rho in (qlinalg.partial_trace_mode1(out), qlinalg.partial_trace_mode2(out)):
                trace_dev = max(trace_dev, abs(float(np.trace(rho).real) - 1.0))
                min_eig = min(min_eig, float(np.linalg.eigvalsh(rho).min()))
    elapsed = time.perf_counter() - t0
    _report(
        3,
        "unitarity invariants (norms, traces, positivity, coupling identity)",
        norm_dev <= 1e-12
        and trace_dev <= 1e-12
        and min_eig >= -1e-12
        and coupling_dev <= 1e-10,
        f"norm dev {norm_dev:.2e}, trace dev {trace_dev:.2e}, "
        f"min eig {min_eig:.2e}, coupling dev {coupling_dev:.2e}, {elapsed:.2f}s",
    )


def _sweep_to_rows(tmp_path, preset, name):
    out = tmp_path / name
    code = cli.main(
        ["sweep", "--preset", preset, "--points", "101", "--out", str(out)]
    )
    assert code == 0
    rows = []
    for line in out.read_text(encoding="utf-8").splitlines():
        if line.startswith("#") or line.startswith("alpha_sq"):
            continue
        rows.append([float(tok) for tok in line.split(",")])
    return rows


def test_criterion_4_figure_reproduction(tmp_path):
    red = _sweep_to_rows(tmp_path, "case1", "red.csv")
    greens = {
        name: _sweep_to_rows(tmp_path, name, f"{name}.csv")
        for name in ("case2", "case3", "case4")
    }

    ok = True
    detail = []

    red_mid = red[50][1]
    ok &= red_mid == 0.5
    ok &= red[0][1] == 1.0 and red[-1][1] == 1.0
    red_sym = max(abs(red[i][1] - red[100 - i][1]) for i in range(101))
    ok &= red_sym <= 1e-12
    detail.append(f"red F(1/2)={red_mid}")

    green = greens["case3"]
    green_mid = green[50][1]
    ok &= abs(green_mid - 0.75) <= 1e-12
    ok &= green[0][1] == 1.0 and green[-1][1] == 1.0
    green_sym = max(abs(green[i][1] - green[100 - i][1]) for i in range(101))
    ok &= green_sym <= 1e-12
    detail.append(f"green F(1/2)={green_mid}")

    # cases 2-4 all lie on the same green curve
    spread = max(
        abs(greens[name][i][1] - green[i][1])
        for name in ("case2", "case4")
        for i in range(101)
    )
    ok &= spread <= 1e-12
    detail.append(f"sym dev {max(red_sym, green_sym):.2e}, case2/4 spread {spread:.2e}")

    _report(4, "figure reproduction (red and green fidelity curves)", ok, ", ".join(detail))


def test_criterion_5_cross_constant_adjudication():
    report = cli.run_diagnose(samples=100, seed=SAMPLE_SEED)
    ok = (
        report.max_analytic_distortion_dev <= 1e-6
        and report.max_legacy_dev_mismatch <= 1e-9
        and report.max_quad_level_disagreement <= 1e-8
    )
    _report(
        5,
        "average-distortion constant adjudication (3*pi/64 vs legacy 0.589)",
        ok,
        f"analytic dev {report.max_analytic_distortion_dev:.2e}, "
        f"legacy dev {report.max_legacy_distortion_dev:.2e} "
        f"(= |0.589 - 3pi/64|*|coherence sum| within {report.max_legacy_dev_mismatch:.2e}), "
        f"quad levels {report.max_quad_level_disagreement:.2e}",
    )


def test_criterion_6_deficit_convention_adjudication():
    # direct simulation must realize the consistent-mode deficit everywhere
    oracle_dev = 0.0
    for p in _sample_machines():
        closed = metrics.closed_curves(p, GRID)[0]
        direct = metrics.curves(p, GRID)[0]
        oracle_dev = max(oracle_dev, float(np.max(np.abs(direct - closed))))

    # the two conventions agree exactly on the four numbered presets
    presets_exact = True
    for name in ("case1", "case2", "case3", "case4"):
        p = by_name(name)
        legacy = metrics.legacy_fidelity_deficit(*machine.couplings(p), p.sigma.m1p)
        consistent = metrics.fidelity_deficit(*machine.couplings(p), p.sigma.m1p)
        presets_exact &= legacy == consistent

    # ... and whenever the two weight sums are equal floats
    rng = np.random.default_rng(SAMPLE_SEED + 2)
    balanced_exact = True
    for _ in range(50):
        g, f = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        c = Couplings(g=g, h=f * 1j, e=g * 1j, f=f)
        sigma = BlankState(rng.uniform(-1.0, 1.0))
        legacy = metrics.legacy_fidelity_deficit(*c, sigma.m1p)
        balanced_exact &= legacy == metrics.fidelity_deficit(*c, sigma.m1p)

    # ... and within rounding at m1p^2 = 1/2
    sigma = BlankState(math.sqrt(0.5))
    half_gap = 0.0
    for _ in range(50):
        c = Couplings(*(rng.standard_normal(4) + 1j * rng.standard_normal(4)))
        half_gap = max(
            half_gap,
            abs(
                metrics.legacy_fidelity_deficit(*c, sigma.m1p)
                - metrics.fidelity_deficit(*c, sigma.m1p)
            ),
        )

    _report(
        6,
        "fidelity deficit convention adjudication",
        oracle_dev <= 1e-10 and presets_exact and balanced_exact and half_gap <= 1e-10,
        f"oracle dev {oracle_dev:.2e}, presets exact {presets_exact}, "
        f"balanced exact {balanced_exact}, m1p^2=1/2 gap {half_gap:.2e}",
    )


def test_criterion_7_optimizer_targets():
    t0 = time.perf_counter()
    cold = optimizer.optimize(OptConfig(objective="max-fidelity", seed=7))
    warm = optimizer.optimize(
        OptConfig(objective="max-fidelity", seed=7),
        warm_start=by_name("perfect"),
    )
    dist = optimizer.optimize(OptConfig(objective="min-distortion", seed=7))
    elapsed = time.perf_counter() - t0
    ok = (
        cold.avg_fidelity >= 5.0 / 6.0 - 1e-3
        and warm.avg_fidelity >= 1.0 - 1e-6
        and dist.avg_distortion <= 1.0 / 3.0 + 1e-3
        and elapsed < 60.0
    )
    _report(
        7,
        "optimizer reaches the known feasible values within the default budget",
        ok,
        f"cold Fbar {cold.avg_fidelity:.9f}, warm Fbar {warm.avg_fidelity:.9f}, "
        f"Dbar {dist.avg_distortion:.9f}, {elapsed:.1f}s",
    )


def test_criterion_8_seeded_outputs_bit_identical(tmp_path):
    sweep_args = ["sweep", "--preset", "case3", "--points", "101"]
    a, b = tmp_path / "s1.csv", tmp_path / "s2.csv"
    assert cli.main(sweep_args + ["--out", str(a)]) == 0
    assert cli.main(sweep_args + ["--out", str(b)]) == 0
    sweep_same = a.read_bytes() == b.read_bytes()

    opt_args = [
        "optimize",
        "--objective", "max-fidelity",
        "--restarts", "2",
        "--max-iters", "60",
        "--seed", "13",
    ]
    j1, j2 = tmp_path / "o1.json", tmp_path / "o2.json"
    assert cli.main(opt_args + ["--out", str(j1)]) == 0
    assert cli.main(opt_args + ["--out", str(j2)]) == 0
    machines_same = j1.read_bytes() == j2.read_bytes()
    history_same = (
        (tmp_path / "o1_history.csv").read_bytes() == (tmp_path / "o2_history.csv").read_bytes()
    )

    _report(
        8,
        "identical seeds give bit-identical CSV/JSON outputs",
        sweep_same and machines_same and history_same,
        f"sweep {sweep_same}, machine json {machines_same}, history csv {history_same}",
    )
