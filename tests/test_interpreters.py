"""The same stdout bytes under every Python from 3.10 to 3.13.

The builtin sum is compensated from Python 3.12 on, so branch sums taken with
it printed different last bits under 3.11 and 3.13.  write-sim (the
write-state chain, the rates and the occupations), herald, retrieve (the
qubit amplitudes) and protocol and sweep runs of fewer than 2^17 runs in all,
whose trial tables are built from math.expm1, need no numpy, so
each argv below runs from src under every other python3.N on PATH, bare
interpreters included, and must print the bytes it prints under this one.
One child per interpreter runs every argv in process through fmesim.cli.main
and returns each exit code and stdout; each interpreter also runs the
rb-protocol workload once as python -m fmesim, so cli.run starts under every
one of them.  The expected values are taken the same way under this
interpreter.  An interpreter that is absent or cannot start is skipped, with
the reason.  pyenv's shims pick the interpreter that PYENV_VERSION names.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest
from test_cli_process import WORKLOADS

SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir, "src"))
TIMEOUT_S = 120.0

RUN_ARGV = [*WORKLOADS["rb-protocol"], "--seed", "1"]
ARGVS = [
    *([command, "--preset", "rb85-87", "--set", f"engine={engine}", *sets]
      for engine in ("perturbative", "exact")
      for sets in (["--set", "cutoff=2"], ["--set", "cutoff=32", "--set", "omega_rabi_write_I=2e7"])
      for command in ("write-sim", "herald", "retrieve")),
    *(["protocol", "--preset", "rb85-87", "--set", f"engine={engine}", "--runs", "20000",
       "--seed", "3"] for engine in ("perturbative", "exact")),
    RUN_ARGV,
    [*WORKLOADS["drive-grid"], "--seed", "1"],  # trial tables in rows below 2^15 runs
]
VERSIONS = [f"3.{minor}" for minor in range(10, 14) if minor != sys.version_info.minor]

# prints a JSON list of [exit code, stdout] for the argvs in the JSON list argv[1]
CHILD = """\
import io, json, sys
from fmesim.cli import main
results = []
for argv in json.loads(sys.argv[1]):
    sys.stdout = io.StringIO()
    results.append([main(argv), sys.stdout.getvalue()])
sys.stdout = sys.__stdout__
json.dump(results, sys.stdout)
"""


def outputs_of(python: str, env: dict) -> tuple[list[bytes], bytes]:
    """The stdout of each argv of ARGVS, from main in one child, and of
    RUN_ARGV, from python -m fmesim."""
    child = subprocess.run([python, "-c", CHILD, json.dumps(ARGVS)], capture_output=True,
                           text=True, env=env, timeout=TIMEOUT_S)
    assert child.returncode == 0, (python, child.stderr)
    results = json.loads(child.stdout)
    for argv, (code, _) in zip(ARGVS, results):
        assert code == 0, (python, argv, child.stderr)
    res = subprocess.run([python, "-m", "fmesim", *RUN_ARGV], capture_output=True, env=env,
                         timeout=TIMEOUT_S)
    assert res.returncode == 0, (python, RUN_ARGV, res.stderr.decode())
    return [stdout.encode() for _, stdout in results], res.stdout


@pytest.fixture(scope="module")
def expected() -> tuple[list[bytes], bytes]:
    return outputs_of(sys.executable, {**os.environ, "PYTHONPATH": SRC})


@pytest.mark.parametrize("version", VERSIONS)
def test_stdout_does_not_depend_on_the_interpreter(version, request):
    python = shutil.which(f"python{version}")
    if python is None:
        pytest.skip(f"python{version} is not on PATH")
    env = {**os.environ, "PYTHONPATH": SRC, "PYENV_VERSION": version}
    probe = subprocess.run([python, "-c", "import sys; print('%d.%d' % sys.version_info[:2])"],
                           capture_output=True, text=True, env=env, timeout=TIMEOUT_S)
    if probe.returncode or probe.stdout.strip() != version:
        reason = (probe.stderr.strip().splitlines() or [probe.stdout.strip()])[-1]
        pytest.skip(f"python{version} cannot start: {reason}")
    stdouts, run_stdout = outputs_of(python, env)
    expected_stdouts, expected_run_stdout = request.getfixturevalue("expected")
    for argv, stdout, want in zip(ARGVS, stdouts, expected_stdouts):
        assert stdout == want, argv
    assert run_stdout == expected_run_stdout, RUN_ARGV
