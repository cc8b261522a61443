"""Check that fmesim's set-up path, state commands and small Monte Carlo
invocations run without numpy.

Every case runs in a fresh interpreter in which numpy cannot be imported
(sys.modules["numpy"] = None), so any numpy import on the path fails with
ImportError.  The set-up path is importing config and cli, resolving the
configuration of each benchmark workload in bench/spec.json, --help,
preset-list and the config rejections that exit 2; each set-up case fails if
it loaded a physics module.  The physics modules in turn import no config,
so a fresh import of fmesim.protocol must not load fmesim.config.  The state
commands write-sim, herald and retrieve build the write engine, which is
standard-library only, so they run at both engines and at the largest
cutoff.  Monte Carlo invocations of fewer than 2**17 runs in all draw them
with the standard library, so protocol --runs 300, 65535 and 131071, the
exact golden sweep and the three benchmark workloads run too; the control
cases, 2**17 runs in one protocol row and over two sweep rows, must halt on
the numpy import.  Every case also fails if it loaded dataclasses or
inspect: fmesim's records are NamedTuples, so neither path needs them.

Run it with the fmesim to check importable, e.g. from the repository root:

    PYTHONPATH=src python tests/setup_without_numpy.py

It prints one line per case and exits 1 if any case fails.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SPEC = os.path.join(HERE, os.pardir, "bench", "spec.json")
PHYSICS = tuple(f"fmesim.{name}" for name in ("protocol", "herald", "retrieval", "rng", "write_dynamics"))
HELPERS = ("dataclasses", "inspect")

BLOCK = 'import sys\nsys.modules["numpy"] = None\ncode = 0\n'
CALL_MAIN = (
    "from fmesim.cli import main\n"
    "try:\n    code = main(sys.argv[1:])\nexcept SystemExit as exc:\n    code = exc.code\n"
)
ETA_ERROR = "error: eta must be in [0, 1], got 2.0"


def check(unloaded):
    """Code that exits with the message "loaded [...]" if any module of
    unloaded was imported, else with code."""
    return (f"loaded = [m for m in {unloaded!r} if m in sys.modules]\n"
            "sys.exit(f'loaded {loaded}' if loaded else code)\n")


SETUP_CHECK = check(PHYSICS + HELPERS)
MAIN = CALL_MAIN + SETUP_CHECK
LOAD = "from fmesim import cli\ncli._load(cli.build_parser().parse_args(sys.argv[1:]))\n" + SETUP_CHECK


def cases():
    """(name, code, argv, expected exit code, text expected on stderr)."""
    yield "import fmesim.config", "import fmesim.config\n" + SETUP_CHECK, [], 0, ""
    yield "import fmesim.cli", "import fmesim.cli\n" + SETUP_CHECK, [], 0, ""
    # Only config.build_setup reaches into the physics modules; none of them
    # imports config.
    no_config = "import fmesim.protocol\n" + check(("fmesim.config",) + HELPERS)
    yield "import fmesim.protocol", no_config, [], 0, ""
    with open(SPEC, encoding="utf-8") as fh:
        workloads = json.load(fh)["workloads"]
    for name, workload in workloads.items():
        yield f"resolve {name}", LOAD, workload["argv"], 0, ""
    yield "preset-list", MAIN, ["preset-list"], 0, ""
    yield "--help", MAIN, ["--help"], 0, ""
    yield "protocol eta=2", MAIN, ["protocol", "--preset", "rb85-87", "--set", "eta=2"], 2, ETA_ERROR
    bad_sweep = ["sweep", "--preset", "rb85-87", "--runs", "1000000", "--sweep", "eta=0.5,0.6,2"]
    yield "sweep eta=0.5,0.6,2", MAIN, bad_sweep, 2, ETA_ERROR
    # The state commands build the engine, so they may load the physics modules.
    for command in ("write-sim", "herald", "retrieve"):
        for engine in ("perturbative", "exact"):
            argv = [command, "--preset", "rb85-87", "--set", f"engine={engine}", "--set", "cutoff=32"]
            yield f"{command} {engine} cutoff=32", CALL_MAIN + check(HELPERS), argv, 0, ""
    # Invocations of fewer than 2**17 runs in all draw them without numpy.
    protocol = ["protocol", "--preset", "rb85-87", "--runs"]
    exact_golden = ["sweep", "--preset", "rb85-87", "--set", "engine=exact", "--runs", "300",
                    "--sweep", "cutoff=2,3", "--seed", "1"]
    runs = CALL_MAIN + check(HELPERS)
    yield "protocol --runs 300", runs, protocol + ["300"], 0, ""
    yield "exact golden sweep", runs, exact_golden, 0, ""
    for name, workload in workloads.items():
        yield f"{name} workload", runs, workload["argv"], 0, ""
    yield "protocol --runs 65535", runs, protocol + ["65535"], 0, ""
    yield "protocol --runs 131071", runs, protocol + ["131071"], 0, ""
    # Control: from 2**17 runs, in one row or over the rows of a sweep, the
    # draw imports numpy, so the block is in force.
    halted = "import of numpy halted"
    yield "control: protocol --runs 131072 loads numpy", MAIN, protocol + ["131072"], 1, halted
    two_rows = ["sweep", "--preset", "rb85-87", "--runs", "65536", "--sweep", "eta=0.5,0.6"]
    yield "control: 2 rows x 65536 runs load numpy", MAIN, two_rows, 1, halted


def main() -> int:
    import_code = BLOCK + "import fmesim\nprint(fmesim.__file__)\n"
    where = subprocess.run([sys.executable, "-c", import_code], capture_output=True, text=True)
    print(f"fmesim from {where.stdout.strip() or where.stderr.strip()}")
    failed = 0
    for name, code, argv, want_code, want_err in cases():
        res = subprocess.run([sys.executable, "-c", BLOCK + code, *argv],
                             capture_output=True, text=True, timeout=60)
        ok = res.returncode == want_code and want_err in res.stderr
        failed += not ok
        print(f"{'ok  ' if ok else 'FAIL'} {name}: exit {res.returncode}")
        if not ok:
            print(res.stderr.rstrip())
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
