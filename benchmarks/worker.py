"""Worker process of the benchmark: one workload, one closed-loop client.

Started by ``run.py`` with the spec file it wrote.  The worker imports the
workload's entry module from the checkout's ``src``, runs one warm-up
operation on an input outside the timed set, and then, by mode:

* ``setup``: stops there;
* ``run``: runs operations back to back, each starting when the previous one
  has finished, until the spec's seconds have passed and at least the spec's
  ``min_ops`` operations (one full verify cycle) have run;
* ``trace``: does an untraced run for half the seconds, then runs the same
  operations again with every layer traced.

Each operation is timed alone; its reference checks run after the timer
stops.  Between operations the worker reads the host's speed
(``hostspeed.py``) and gives each operation the scale of the readings around
it.  The worker prints one JSON object on stdout and nothing else.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import sys
import time
from importlib import metadata
from pathlib import Path

import hostspeed
import reference

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

SEARCH_OBJECTIVES = {"search-fidelity": "max-fidelity", "search-distortion": "min-distortion"}


def _to_dict(p) -> dict:
    out = {}
    for key in reference.AMPLITUDE_KEYS:
        z = complex(getattr(p, key))
        out[key] = [z.real, z.imag]
    out["m1p"] = float(p.sigma.m1p)
    return out


class Search:
    """One operation is one Nelder-Mead solve from a given start machine."""

    def __init__(self, objective: str):
        from qdelete import machine, optimizer

        self.objective = objective
        self.machine = machine
        self.optimizer = optimizer

    def execute(self, op: dict):
        m = op["machine"]
        start = self.machine.MachineParams(
            sigma=self.machine.BlankState(m["m1p"]),
            **{key: complex(*m[key]) for key in reference.AMPLITUDE_KEYS},
        )
        cfg = self.optimizer.OptConfig(objective=self.objective, restarts=1)
        return self.optimizer.optimize(cfg, warm_start=start)

    def check(self, op: dict, result) -> dict:
        best = _to_dict(result.best_machine)
        fbar, dbar = result.avg_fidelity, result.avg_distortion
        evals = len(result.history)
        # The history holds the best-so-far objective, negated for distortion.
        target = -reference.D_STAR if self.objective == "min-distortion" else reference.F_STAR
        to_target = next(
            (i + 1 for i, h in enumerate(result.history)
             if abs(h.objective - target) <= reference.TARGET_TOL),
            None,
        )
        return {
            "problems": reference.check_solve(best, fbar, dbar),
            "work": evals,
            "evals": evals,
            "evals_to_target": to_target,
            "miss": reference.target_gap(self.objective, fbar, dbar) > reference.TARGET_TOL,
        }


class Verify:
    """One operation validates a machine file and, if it is valid, sweeps it."""

    expected_exit = {"valid": 0, "invalid": 1, "malformed": 2}

    def __init__(self, spec: dict):
        from qdelete import cli

        self.cli = cli
        self.csv = Path(spec["workdir"]) / "sweep.csv"

    def _main(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = self.cli.main(argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 2
        return code, len(out.getvalue()) + len(err.getvalue())

    def execute(self, op: dict):
        code, nbytes = self._main(["validate", op["file"]])
        sweep_code = None
        if code == 0:
            argv = ["sweep", "--machine", op["file"], "--points", str(op["points"]),
                    "--out", str(self.csv)]
            sweep_code, more = self._main(argv)
            nbytes += more
        return code, sweep_code, nbytes

    def check(self, op: dict, outcome) -> dict:
        code, sweep_code, nbytes = outcome
        problems = reference.check_exit(self.expected_exit[op["kind"]], code)
        points = 0
        if op["kind"] == "valid" and code == 0:
            problems += reference.check_exit(0, sweep_code)
            try:
                text = self.csv.read_text(encoding="utf-8")
                self.csv.unlink()
            except OSError as exc:
                problems.append(f"sweep output missing: {exc}")
            else:
                nbytes += len(text)
                problems += reference.check_sweep(text, op["machine"], op["points"])
                points = op["points"]
        elif sweep_code is not None:
            problems.append(f"sweep ran on a {op['kind']} machine file")
        return {"problems": problems, "work": points, "bytes_out": nbytes}


def run_one(workload, op: dict) -> dict:
    """Execute one operation, timed, then check its outputs."""
    t0 = time.perf_counter()
    try:
        outcome = workload.execute(op)
    except Exception as exc:  # counted as a failed operation; the run goes on
        t1 = time.perf_counter()
        record = {"work": 0, "problems": [f"raised {type(exc).__name__}: {exc}"]}
    else:
        t1 = time.perf_counter()
        record = workload.check(op, outcome)
    record.update(latency=t1 - t0, start=t0, end=t1)
    return record


def run_loop(workload, ops, seconds=None, count=None, tracer=None, min_count=1) -> list[dict]:
    """Closed loop over ``ops`` (cycling) for ``count`` operations, or for ``seconds``
    and at least ``min_count`` operations."""
    records = []
    speed = hostspeed.SpeedLog()
    t0 = time.perf_counter()
    while True:
        i = len(records)
        if count is not None and i >= count:
            break
        if count is None and i >= min_count and time.perf_counter() - t0 >= seconds:
            break
        speed.sample()
        if tracer is not None:
            tracer.op_id = i
        records.append(run_one(workload, ops[i % len(ops)]))
    speed.sample(force=True)
    for record in records:
        record["scale"] = speed.scale(record.pop("start"), record.pop("end"))
    return records


def per_layer(tracer, records, untraced) -> dict:
    """Per-layer metrics of a traced run, per operation where they are totals."""
    n = len(records)
    totals = tracer.layer_totals()

    def calls(layer):
        return totals.get(layer, (0, 0.0))[0]

    def self_s(layer):
        return totals.get(layer, (0, 0.0))[1] / n

    def errors(layer, name):
        return tracer.errors.get((layer, name), 0)

    convergence = sum(v for (layer, name), v in tracer.errors.items()
                      if layer.startswith("metrics.") and name == "ConvergenceError")
    evals = [r["evals"] for r in records if "evals" in r]
    to_target = [r["evals_to_target"] for r in records if r.get("evals_to_target") is not None]
    decodes = calls("optimizer.decode")
    return {
        "qlinalg.calls": calls("qlinalg") / n,
        "qlinalg.self_s": self_s("qlinalg"),
        "machine.validate.calls": calls("machine.validate") / n,
        "machine.validate.self_s": self_s("machine.validate"),
        "machine.apply.calls": calls("machine.apply") / n,
        "machine.apply.self_s": self_s("machine.apply"),
        "machine.io.self_s": self_s("machine.io"),
        "machine.invalid_ratio": len(tracer.invalid_ops) / n,
        "metrics.oracle.calls": calls("metrics.oracle") / n,
        "metrics.oracle.points": tracer.points["metrics.oracle"] / n,
        "metrics.oracle.self_s": self_s("metrics.oracle"),
        "metrics.closed.calls": calls("metrics.closed") / n,
        "metrics.closed.self_s": self_s("metrics.closed"),
        "metrics.convergence_errors": convergence,
        "optimizer.evals": sum(evals) / n,
        "optimizer.evals_to_target": statistics.median(to_target) if to_target else 0,
        "optimizer.target_miss_ratio": sum(bool(r.get("miss")) for r in records) / n,
        "optimizer.decode.self_s": self_s("optimizer.decode"),
        "optimizer.decode_fail_ratio":
            errors("optimizer.decode", "DecodeError") / decodes if decodes else 0.0,
        "optimizer.evaluate.self_s": self_s("optimizer.evaluate"),
        "optimizer.nm.self_s": self_s("optimizer.nm"),
        "cli.self_s": self_s("cli"),
        "cli.bytes_out": sum(r.get("bytes_out", 0) for r in records) / n,
        "trace.overhead_ratio":
            sum(r["latency"] / r["scale"] for r in records)
            / sum(r["latency"] / r["scale"] for r in untraced),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spec", required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--t0", type=float, required=True,
                        help="time.monotonic() at which the parent started this process")
    args = parser.parse_args(argv)

    spec = json.loads(Path(args.spec).read_text(encoding="utf-8"))
    name = spec["workload"]
    workload = Verify(spec) if name == "verify" else Search(SEARCH_OBJECTIVES[name])
    import qdelete

    src = Path(spec["src"]).resolve()
    if src not in Path(qdelete.__file__).resolve().parents:
        print(f"error: imported qdelete from {qdelete.__file__}, not from {src}", file=sys.stderr)
        return 2
    warmup = run_one(workload, spec["warmup"])
    setup_s = time.monotonic() - args.t0
    out = {"setup_s": setup_s, "setup_reading": hostspeed.read(),
           "warmup_problems": warmup["problems"]}

    ops = spec["ops"]
    if args.mode == "run":
        out["records"] = run_loop(workload, ops, seconds=spec["seconds"], min_count=spec["min_ops"])
    elif args.mode == "trace":
        import tracer as tracing

        untraced = run_loop(workload, ops, seconds=spec["seconds"] / 2.0,
                            min_count=spec["min_ops"])
        tracer = tracing.Tracer()
        tracer.install()
        try:
            records = run_loop(workload, ops, count=len(untraced), tracer=tracer)
        finally:
            tracer.uninstall()
        out["records"] = records
        out["per_layer"] = per_layer(tracer, records, untraced)
        out["missing"] = tracer.missing
        out["invalid_expected"] = sum(ops[i % len(ops)].get("kind") == "invalid"
                                      for i in range(len(records)))
        out["invalid_seen"] = len(tracer.invalid_ops)
        out["validate_traced"] = "qdelete.machine.validate" not in tracer.missing

    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["versions"] = {
        "python": sys.version.split()[0],
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
    }
    out["blas_threads"] = {var: os.environ.get(var) for var in BLAS_THREAD_VARS}
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
