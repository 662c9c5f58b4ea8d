#!/usr/bin/env python3
"""Benchmark of the qdelete package: search and verify workloads, checked outputs.

Run from the root of a checkout:

    python3 benchmarks/run.py --workload search-fidelity --seed 1 --seconds 35 --trace 0
    python3 benchmarks/run.py --workload all --seconds 5

The package is imported from the checkout's ``src``.  Each workload runs in
one worker process (``worker.py``) with one closed-loop client, with the BLAS
thread pools pinned to one thread.  Inputs come from ``inputs.py``, seeded
by ``--seed``; every output is checked against ``reference.py``.  The
end-to-end timings are scaled to a reference host speed, read from a fixed
kernel timed between operations (``hostspeed.py``).

With ``--trace 0`` the last line of stdout is a JSON object holding every
end-to-end metric of BENCHMARK.json; with ``--trace 1`` it holds every
per-layer metric.  The lines before it print each metric with its unit, the
sample count and percentile rank of each timing, and the run's environment.
The exit code is 0 when every reference check passed, 1 when one failed, and
2 when the benchmark could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed
import inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("search-fidelity", "search-distortion", "verify")

#: Fresh interpreters timed per run for setup_s; the median is reported.
SETUP_REPEATS = 3
#: Fresh interpreters timed per traced run for the CLI's import cost.
IMPORT_REPEATS = 3

#: work_p50_us is taken over operations with at least WORK_MIN units of work,
#: where per-unit cost dominates the fixed cost of a call: every solve (1000+
#: evaluations) and the 1001-point sweeps.
WORK_MIN = 1000

#: The ungated tail is the highest whole percentile, at most p99, with at
#: least this many samples above it; below p50 the median is reported instead.
TAIL_MIN_BEYOND = 10

BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

#: Seconds a worker may take beyond its measured run before it is stopped.
WORKER_GRACE_S = 120.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "op_ms": "ms",
    "work_p50_us": "us",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "qlinalg.calls": "count/op",
    "qlinalg.self_s": "s/op",
    "machine.validate.calls": "count/op",
    "machine.validate.self_s": "s/op",
    "machine.apply.calls": "count/op",
    "machine.apply.self_s": "s/op",
    "machine.io.self_s": "s/op",
    "machine.invalid_ratio": "ratio",
    "metrics.oracle.calls": "count/op",
    "metrics.oracle.points": "count/op",
    "metrics.oracle.self_s": "s/op",
    "metrics.closed.calls": "count/op",
    "metrics.closed.self_s": "s/op",
    "metrics.convergence_errors": "count",
    "optimizer.evals": "count/op",
    "optimizer.evals_to_target": "count",
    "optimizer.target_miss_ratio": "ratio",
    "optimizer.decode.self_s": "s/op",
    "optimizer.decode_fail_ratio": "ratio",
    "optimizer.evaluate.self_s": "s/op",
    "optimizer.nm.self_s": "s/op",
    "cli.self_s": "s/op",
    "cli.bytes_out": "B/op",
    "cli.import_s": "s",
    "cli.import_scipy_s": "s",
    "trace.overhead_ratio": "ratio",
}


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def _position(n: int, rank: int) -> int:
    """1-based nearest-rank position of percentile ``rank`` among ``n`` samples."""
    return max(1, -(-n * rank // 100))


def class_weighted_median(values, classes, shares: dict) -> float:
    """Sum over latency classes of each class's share of the mix times its median.

    ``classes[i]`` is the class of ``values[i]``; ``shares`` maps every class
    of the workload's mix to its share of the operations.  On search-* there
    is one class, so this is the median of all solves.
    """
    by_class = {}
    for value, cls in zip(values, classes):
        by_class.setdefault(cls, []).append(value)
    missing = set(shares) - set(by_class)
    if missing:
        raise BenchError(f"no operation of class {sorted(missing)}; run longer")
    return sum(share * statistics.median(by_class[cls]) for cls, share in shares.items())


def tail(sorted_values) -> tuple[int, float]:
    """(rank, value): the highest nearest-rank percentile with TAIL_MIN_BEYOND samples above it.

    Whole ranks keep the value from jumping when a run fits a few more or
    fewer operations.
    """
    n = len(sorted_values)
    for rank in range(99, 49, -1):
        if n - _position(n, rank) >= TAIL_MIN_BEYOND:
            return rank, sorted_values[_position(n, rank) - 1]
    return 50, statistics.median(sorted_values)


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def worker_env() -> dict:
    env = dict(os.environ)
    env.update(BLAS_ENV)
    env["PYTHONPATH"] = str(SRC)
    env.pop("PYTHONHOME", None)
    return env


def launch(spec_path: Path, mode: str, timeout: float) -> dict:
    """Start a worker, wait for it, and return its JSON report."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--spec", str(spec_path), "--mode", mode]
    reading = hostspeed.read()
    t0 = time.monotonic()
    proc = subprocess.Popen(
        cmd + ["--t0", repr(t0)],
        stdout=subprocess.PIPE, env=worker_env(), cwd=ROOT, text=True,
    )
    try:
        stdout, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker ({mode}) did not finish within {timeout:.0f} s") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    if proc.returncode != 0:
        raise BenchError(f"worker ({mode}) exited with code {proc.returncode}")
    try:
        report = json.loads(stdout.strip().splitlines()[-1])
    except (IndexError, ValueError) as exc:
        raise BenchError(f"worker ({mode}) printed no report: {exc}") from exc
    # Host speed over the set-up: readings just before the start and just after the warm-up.
    report["setup_scale"] = (reading + report["setup_reading"]) / 2.0 / hostspeed.REFERENCE_S
    return report


def import_times() -> tuple[float, float]:
    """Median (total, scipy) import self time of ``import qdelete.cli`` in fresh interpreters."""
    totals, scipys = [], []
    pattern = re.compile(r"import time:\s+(\d+)\s+\|\s+\d+\s+\|\s+(\S+)")
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import qdelete.cli"],
            env=worker_env(), cwd=ROOT, capture_output=True, text=True, timeout=WORKER_GRACE_S,
        )
        if proc.returncode != 0:
            raise BenchError(f"importing qdelete.cli failed:\n{proc.stderr[-2000:]}")
        total = scipy = 0
        for match in pattern.finditer(proc.stderr):
            us, module = int(match.group(1)), match.group(2)
            total += us
            if module == "scipy" or module.startswith("scipy."):
                scipy += us
        totals.append(total / 1e6)
        scipys.append(scipy / 1e6)
    return statistics.median(totals), statistics.median(scipys)


def build_spec(workload: str, seed: int, seconds: float, workdir: Path) -> tuple[Path, list[dict]]:
    """Write the worker's spec file; return its path and the timed operations."""
    if workload == "verify":
        warmup, ops = inputs.verify_inputs(seed, workdir)
        min_ops = len(inputs.VERIFY_CYCLE)
    else:
        workdir.mkdir(parents=True, exist_ok=True)
        warmup, ops = inputs.search_inputs(seed)
        min_ops = 1
    spec = {
        "workload": workload,
        "seconds": seconds,
        "min_ops": min_ops,
        "src": str(SRC),
        "workdir": str(workdir),
        "warmup": warmup,
        "ops": ops,
    }
    path = workdir / "spec.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    return path, ops


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload; return its result object with the run's ``info`` and failed checks."""
    workdir = ROOT / ".bench_work" / f"{workload}-{seed}-{os.getpid()}"
    try:
        spec_path, ops = build_spec(workload, seed, seconds, workdir)
        hostspeed.read()  # the kernel's first run in a process is slow
        timeout = 2.0 * seconds + WORKER_GRACE_S
        reports = []
        if not trace:
            reports += [launch(spec_path, "setup", WORKER_GRACE_S) for _ in range(SETUP_REPEATS - 1)]
        main = launch(spec_path, "trace" if trace else "run", timeout)
        reports.append(main)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    records = main["records"]
    problems = [p for r in reports for p in r["warmup_problems"]]
    failed = sum(bool(r["warmup_problems"]) for r in reports)
    for i, record in enumerate(records):
        if record["problems"]:
            failed += 1
            problems += [f"operation {i}: {p}" for p in record["problems"]]
    attempted = len(records) + len(reports)

    latencies = sorted(r["latency"] for r in records)
    setups = [r["setup_s"] / r["setup_scale"] for r in reports]
    info = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "versions": main["versions"],
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
        "blas_threads": main["blas_threads"],
    }
    if trace:
        metrics = dict(main["per_layer"])
        metrics["cli.import_s"], metrics["cli.import_scipy_s"] = import_times()
        units = PER_LAYER_UNITS
        info["missing_functions"] = main["missing"]
        if main["validate_traced"] and main["invalid_seen"] != main["invalid_expected"]:
            failed += 1
            problems.append(
                f"validation flagged {main['invalid_seen']} operations as invalid, "
                f"the mix holds {main['invalid_expected']}"
            )
    else:
        scaled = [r["latency"] / r["scale"] for r in records]
        busy = sum(scaled)
        tail_rank, tail_value = tail(sorted(scaled))
        classes = [ops[i % len(ops)]["cls"] for i in range(len(records))]
        pool = [op["cls"] for op in ops]
        shares = {cls: pool.count(cls) / len(pool) for cls in dict.fromkeys(pool)}
        per_work = [t / r["work"] for t, r in zip(scaled, records) if r["work"] >= WORK_MIN]
        if not per_work:
            raise BenchError(f"no operation of at least {WORK_MIN} units of work; run longer")
        metrics = {
            "setup_s": statistics.median(setups),
            "op_ms": class_weighted_median(scaled, classes, shares) * 1e3,
            "work_p50_us": statistics.median(per_work) * 1e6,
            "peak_rss_mb": main["peak_rss_mb"],
        }
        units = END_TO_END_UNITS
        info["timings"] = {
            "setup_s": {"samples": len(setups), "rank": 50},
            "op_ms": {"samples": len(records), "rank": 50, "classes": len(shares)},
            "work_p50_us": {"samples": len(per_work), "rank": 50},
            "op_tail_ms": {"samples": len(records), "rank": tail_rank},
        }
        info["host_scale"] = {
            "setup": statistics.median(r["setup_scale"] for r in reports),
            "run": statistics.median(r["scale"] for r in records),
        }
        # Printed but not gated: the tail and the rates are scaled like the
        # gated timings; the raw median is what the run measured before
        # scaling, and moves with the host's speed.
        info["ungated"] = {
            "op_tail_ms": [tail_value * 1e3, "ms"],
            "ops_per_s": [len(records) / busy, "1/s"],
            "work_per_s": [sum(r["work"] for r in records) / busy, "1/s"],
            "raw_op_p50_ms": [statistics.median(latencies) * 1e3, "ms"],
        }
        misses = [r["miss"] for r in records if "miss" in r]
        if misses:
            info["ungated"]["target_miss_ratio"] = [sum(misses) / len(misses), "ratio"]
    info["fail_ratio"] = failed / attempted
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
        "info": info,
        "problems": problems,
    }


def describe(result: dict) -> list[str]:
    info = result["info"]
    lines = [f"== {info['workload']}  seed {info['seed']}  {info['seconds']} s  trace {info['trace']}"]
    for name, metric in result["metrics"].items():
        note = ""
        timing = info.get("timings", {}).get(name)
        if timing:
            classes = f" in {timing['classes']} classes" if timing.get("classes", 1) > 1 else ""
            note = f"  (p{timing['rank']:g} of {timing['samples']}{classes})"
        lines.append(f"  {name:<30} {metric['value']:>14.6g} {metric['unit']}{note}")
    for name, (value, unit) in info.get("ungated", {}).items():
        timing = info["timings"].get(name)
        note = f"  (p{timing['rank']:g} of {timing['samples']}; not gated)" if timing else "  (not gated)"
        lines.append(f"  {name:<30} {value:>14.6g} {unit}{note}")
    lines.append(f"  {'fail_ratio':<30} {info['fail_ratio']:>14.6g} ratio"
                 f"  ({result['failed']} of {result['attempted']}; not gated)")
    lines.extend(f"  FAIL {p}" for p in result["problems"][:20])
    lines.append("info " + json.dumps(info, sort_keys=True))
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="qdelete benchmark")
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    if not (SRC / "qdelete" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'qdelete'}; run from a qdelete checkout",
              file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace))
            print("\n".join(describe(results[name])), flush=True)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if len(names) == 1:
        final = results[names[0]]
        metrics = final["metrics"]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
        }
        metrics = {f"{w}/{k}": v for w, r in results.items() for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": final["correct"],
        "attempted": final["attempted"],
        "failed": final["failed"],
        "metrics": metrics,
    }))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
