"""Seeded outputs keep their bytes across commits: a committed table of their digests.

``golden.json`` holds the SHA-256 of every normative output of a fixed list
of commands: the stdout of ``cases``, of ``diagnose --samples 100 --seed 0``
and of ``sweep --preset`` (each preset at 101 points, and at 11 points with
``--m1p 0.3``); the stdout of ``validate`` and ``sweep --machine`` of
``generic_machine.json``, a saved ``helpers.random_machine(default_rng(3))``
with generic rows (saved, because the QR draw depends on LAPACK); and for
``optimize`` (each objective, cold and warm-started from ``perfect`` and from
``case3``) its stdout without the "wrote" line, its machine JSON and its
history CSV.  The table also records the numpy version, its SIMD levels and
its BLAS library where it was written; a failure prints those of both hosts.

A change that alters an output on purpose rewrites the table, and names each
changed output and its cause.  Run from the repository root::

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import io
import json
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np

from qdelete import cli, optimizer
from qdelete.presets import PRESET_NAMES

TABLE = Path(__file__).with_name("golden.json")
GENERIC = str(Path(__file__).with_name("generic_machine.json"))

SEARCH = ["--restarts", "3", "--max-iters", "200", "--seed", "7"]
COMMANDS = {
    "cases": ["cases"],
    "diagnose": ["diagnose", "--samples", "100", "--seed", "0"],
    "validate generic": ["validate", GENERIC],
    "sweep generic": ["sweep", "--machine", GENERIC],
    **{f"sweep {name}": ["sweep", "--preset", name] for name in PRESET_NAMES},
    **{
        f"sweep {name} m1p=0.3": ["sweep", "--preset", name, "--points", "11", "--m1p", "0.3"]
        for name in PRESET_NAMES
    },
    **{
        f"optimize {objective} {start or 'cold'}": [
            "optimize", "--objective", objective, *SEARCH,
            *(["--wf", "1", "--wd", "2"] if objective == optimizer.OBJECTIVE_WEIGHTED else []),
            *(["--warm-start", start] if start else []),
        ]
        for objective in optimizer.OBJECTIVES
        for start in (None, "perfect", "case3")
    },
}


def environment() -> dict:
    """The numpy version, its SIMD levels and its BLAS library."""
    config = np.show_config(mode="dicts")
    blas = config["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "simd": config["SIMD Extensions"],
        "blas": f"{blas['name']} {blas.get('version', '')}".strip(),
    }


def command_outputs(argv: list[str], workdir: Path) -> dict[str, bytes]:
    """The normative outputs of one command, run in-process."""
    out = workdir / "best.json"
    if argv[0] == "optimize":
        argv = [*argv, "--out", str(out)]
    stdout = io.StringIO()
    with redirect_stdout(stdout):
        code = cli.main(argv)
    assert code == cli.EXIT_OK, f"{argv} exited {code}"
    text = stdout.getvalue()
    if argv[0] != "optimize":
        return {"stdout": text.encode()}
    return {
        "stdout": text[: text.rindex("wrote ")].encode(),  # the last line names the paths
        "machine": out.read_bytes(),
        "history": out.with_name("best_history.csv").read_bytes(),
    }


def digests() -> dict[str, str]:
    """SHA-256 of each output of each command, keyed "<command> <output>"."""
    table = {}
    with tempfile.TemporaryDirectory(prefix="qdelete-golden-") as tmp:
        for name, argv in COMMANDS.items():
            for kind, data in command_outputs(argv, Path(tmp)).items():
                table[f"{name} {kind}"] = hashlib.sha256(data).hexdigest()
    return table


def test_seeded_outputs_match_the_digest_table():
    recorded = json.loads(TABLE.read_text(encoding="utf-8"))
    now = digests()
    changed = sorted(k for k in recorded["digests"].keys() | now.keys()
                     if recorded["digests"].get(k) != now.get(k))
    assert not changed, (
        f"outputs differ from {TABLE.name}: {changed}\n"
        f"  table written on {recorded['environment']}\n"
        f"  this run on      {environment()}"
    )


if __name__ == "__main__":
    table = {"environment": environment(), "digests": digests()}
    TABLE.write_text(json.dumps(table, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {len(table['digests'])} digests to {TABLE}")
