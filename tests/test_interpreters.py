"""The same stdout bytes under every Python from 3.10 to 3.13.

The builtin sum is compensated from Python 3.12 on, so branch sums taken with
it printed different last bits under 3.11 and 3.13.  write-sim (the
write-state chain, the rates and the occupations), herald, retrieve (the
qubit amplitudes) and protocol runs of fewer than 2^17 runs need no numpy, so
each argv below runs from src under every other python3.N on PATH, bare
interpreters included, and must print the bytes it prints under this one.
An interpreter that is absent or cannot start is skipped, with the reason.
pyenv's shims pick the interpreter that PYENV_VERSION names.
"""

import os
import shutil
import subprocess
import sys

import pytest
from test_cli_process import WORKLOADS

SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir, "src"))
TIMEOUT_S = 120.0

ARGVS = [
    *([command, "--preset", "rb85-87", "--set", f"engine={engine}", *sets]
      for engine in ("perturbative", "exact")
      for sets in (["--set", "cutoff=2"], ["--set", "cutoff=32", "--set", "omega_rabi_write_I=2e7"])
      for command in ("write-sim", "herald", "retrieve")),
    *(["protocol", "--preset", "rb85-87", "--set", f"engine={engine}", "--runs", "20000",
       "--seed", "3"] for engine in ("perturbative", "exact")),
    [*WORKLOADS["rb-protocol"], "--seed", "1"],
]
VERSIONS = [f"3.{minor}" for minor in range(10, 14) if minor != sys.version_info.minor]


def stdout_of(python: str, argv: list[str], env: dict) -> bytes:
    res = subprocess.run([python, "-m", "fmesim", *argv], capture_output=True, env=env,
                         timeout=TIMEOUT_S)
    assert res.returncode == 0, (python, argv, res.stderr.decode())
    return res.stdout


@pytest.fixture(scope="module")
def expected() -> list[bytes]:
    env = {**os.environ, "PYTHONPATH": SRC}
    return [stdout_of(sys.executable, argv, env) for argv in ARGVS]


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
    for argv, stdout in zip(ARGVS, request.getfixturevalue("expected")):
        assert stdout_of(python, argv, env) == stdout, argv
