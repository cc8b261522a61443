"""The CLI as a process: python -m fmesim ends through cli.run, which flushes
stdout once and leaves by os._exit, skipping the interpreter's finalization.

Each invocation runs as the leader of a new session, with PYTHONUNBUFFERED
removed from its environment unless a test sets it, and every test checks that no process of that
session outlived it.  The tests check that the output bytes and exit codes
are those of main in process, that a stdout that cannot be written exits 2
with one error line in both buffering modes, as does a process started
without descriptor 1, and so does -h/--help, that a stderr that is closed or
cannot be written changes neither stdout nor the exit code, that the
rb-protocol workload prints its golden bytes and one process's progress
lines on two CPUs, that a CLI killed during its draw leaves no process of
its session within seconds, that an oversized sweep grid exits at once,
and the bounds that only a whole process shows:

- peak memory at 10^7 runs stays at most 64 MB
  (test_peak_memory_does_not_grow_with_runs),
- peak memory of 10,000 sweep rows stays at most 128 MB
  (test_peak_memory_per_sweep_row),
- the output bytes under a real one-CPU affinity equal those on every CPU
  (test_output_does_not_depend_on_real_cpu_pinning).

Peak memory is wait4's ru_maxrss of the CLI, taken in a small launcher
process.
"""

import errno
import hashlib
import io
import json
import os
import re
import signal
import subprocess
import sys
import time
from typing import NamedTuple

import pytest
from test_golden import GOLDEN_STDLIB_KERNEL_SHA256
from test_processes import assert_no_child, one_process_lines

from fmesim import cli

SPEC = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "spec.json")
with open(SPEC, encoding="utf-8") as fh:
    WORKLOADS = {name: w["argv"] for name, w in json.load(fh)["workloads"].items()}

ENV = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
ENV["PYTHONPATH"] = os.pathsep.join(sys.path)
TIMEOUT_S = 120.0


class Finished(NamedTuple):
    code: int
    stdout: bytes
    stderr: str


def assert_session_ended(pid: int) -> None:
    """No process of the session that pid led is left, and this process has
    no unreaped child."""
    with pytest.raises(ProcessLookupError):
        os.killpg(pid, 0)
    assert_no_child()


def spawn(cmd, tmp_path, stdout=None, env=ENV, preexec_fn=None) -> Finished:
    """Run cmd as the leader of a new session, with stdout to a file in
    tmp_path or to the given file descriptor, and stderr to a file; killed
    with its session after TIMEOUT_S."""
    out_path = tmp_path / "stdout"
    with open(out_path, "wb") as out, open(tmp_path / "stderr", "w+b") as err:
        proc = subprocess.Popen(cmd, stdout=out if stdout is None else stdout, stderr=err,
                                env=env, start_new_session=True, preexec_fn=preexec_fn)
        try:
            proc.wait(TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise
        err.seek(0)
        stderr = err.read().decode()
    assert_session_ended(proc.pid)
    return Finished(proc.returncode, out_path.read_bytes(), stderr)


def fmesim(argv, tmp_path, **spawn_args) -> Finished:
    return spawn([sys.executable, "-m", "fmesim", *argv], tmp_path, **spawn_args)


# Linux records at exec the peak resident set of the process that forked, so
# wait4's ru_maxrss of a child of this test process counts this process's own
# peak.  A small launcher spawns the CLI instead, and prints its exit code
# and ru_maxrss in KiB as the last line of stderr.
MEASURE = """\
import os, subprocess, sys
child = subprocess.Popen([sys.executable, "-m", "fmesim", *sys.argv[1:]])
_, status, usage = os.wait4(child.pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss, file=sys.stderr)
"""


def peak_rss_mb(argv, tmp_path) -> tuple[Finished, float]:
    """The CLI's run and its peak resident set in MB."""
    res = spawn([sys.executable, "-c", MEASURE, *argv], tmp_path)
    assert res.code == 0, res.stderr
    *lines, last = res.stderr.splitlines()
    code, kib = map(int, last.split())
    return Finished(code, res.stdout, "\n".join(lines)), kib / 1024


def progress_lines(stderr: str) -> list[str]:
    return [line for line in stderr.splitlines() if line.endswith(" runs")]


def other_lines(stderr: str) -> list[str]:
    return [line for line in stderr.splitlines() if not line.endswith(" runs")]


@pytest.fixture(params=["buffered", "unbuffered"])
def buffering_env(request):
    return ENV if request.param == "buffered" else {**ENV, "PYTHONUNBUFFERED": "1"}


# -h/--help fails on stdout as the subcommands do, where argparse alone drops
# a failed write of the help and exits 0, and without descriptor 1 prints it
# on stderr
STDOUT_CASES = [
    pytest.param(["protocol", "--preset", "rb85-87", "--runs", "10"], ["protocol: 10/10 runs"],
                 id="protocol"),
    pytest.param(["--help"], [], id="--help"),
    pytest.param(["sweep", "-h"], [], id="sweep -h"),
]


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("argv, progress", STDOUT_CASES)
def test_full_stdout_exits_2_with_one_error_line(tmp_path, buffering_env, argv, progress):
    fd = os.open("/dev/full", os.O_WRONLY)
    try:
        res = fmesim(argv, tmp_path, stdout=fd, env=buffering_env)
    finally:
        os.close(fd)
    assert res.code == 2
    assert other_lines(res.stderr) == [f"error: cannot write stdout: {os.strerror(errno.ENOSPC)}"]
    assert progress_lines(res.stderr) == progress


@pytest.mark.parametrize("argv", [["--help"], ["protocol", "-h"]], ids=" ".join)
def test_help_is_written_to_stdout_as_argparse_formats_it(tmp_path, buffering_env, argv):
    res = fmesim(argv, tmp_path, env=buffering_env)
    assert res.code == 0 and res.stderr == ""
    parser = cli.build_parser()
    if argv == ["--help"]:
        assert res.stdout.decode() == parser.format_help()
    else:
        assert res.stdout.decode().startswith("usage: fmesim protocol [-h]")


CONFIG_OPTIONS = ("--config", "--preset", "--set", "--seed", "--out")
MC_OPTIONS = (*CONFIG_OPTIONS, "--runs", "--workers", "--format")


@pytest.mark.parametrize("command, options", [
    ("write-sim", CONFIG_OPTIONS),
    ("herald", CONFIG_OPTIONS),
    ("retrieve", CONFIG_OPTIONS),
    ("protocol", MC_OPTIONS),
    ("sweep", (*MC_OPTIONS, "--sweep")),
    ("preset-list", ("--out",)),
])
def test_each_subcommand_lists_its_options(tmp_path, command, options):
    # the long options of each subcommand's -h, besides --help, and no other
    res = fmesim([command, "-h"], tmp_path)
    assert res.code == 0 and res.stderr == ""
    listed = set(re.findall(r"--[a-z]+", res.stdout.decode())) - {"--help"}
    assert listed == set(options)


def test_closed_stdout_pipe_exits_2_with_one_error_line(tmp_path, buffering_env):
    read_fd, write_fd = os.pipe()
    os.close(read_fd)
    try:
        res = fmesim(["herald", "--preset", "rb85-87"], tmp_path, stdout=write_fd,
                     env=buffering_env)
    finally:
        os.close(write_fd)
    assert res.code == 2
    assert res.stderr == f"error: cannot write stdout: {os.strerror(errno.EPIPE)}\n"


@pytest.mark.parametrize("argv, progress", [
    pytest.param(["herald", "--preset", "rb85-87"], [], id="herald"), *STDOUT_CASES])
def test_stdout_without_descriptor_exits_2_with_one_error_line(tmp_path, argv, progress):
    # sys.stdout is None in a process started without descriptor 1
    res = fmesim(argv, tmp_path, preexec_fn=lambda: os.close(1))
    assert res.code == 2 and res.stdout == b""
    assert other_lines(res.stderr) == [f"error: cannot write stdout: {os.strerror(errno.EBADF)}"]
    assert progress_lines(res.stderr) == progress


class FullStdout(io.StringIO):
    def flush(self):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


def test_main_flushes_stdout_and_reports_a_failure(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdout", FullStdout())
    assert cli.main(["herald", "--preset", "rb85-87"]) == 2
    assert capsys.readouterr().err == f"error: cannot write stdout: {os.strerror(errno.ENOSPC)}\n"


@pytest.mark.parametrize("code", [0, 2])
def test_run_reports_a_failed_final_flush_once(monkeypatch, capsys, code):
    # a failed flush after main succeeded exits 2; after main failed, main has
    # reported it already (a failed write leaves its bytes to fail again)
    exits = []

    def fake_exit(status):
        exits.append(status)
        raise SystemExit

    monkeypatch.setattr(cli, "main", lambda argv=None: code)
    monkeypatch.setattr(sys, "stdout", FullStdout())
    monkeypatch.setattr(os, "_exit", fake_exit)
    with pytest.raises(SystemExit):
        cli.run([])
    assert exits == [2]
    message = f"error: cannot write stdout: {os.strerror(errno.ENOSPC)}\n"
    assert capsys.readouterr().err == (message if code == 0 else "")


@pytest.mark.parametrize("fd", [1, 2], ids=["stdout", "stderr"])
def test_closed_standard_stream_with_out_exits_0(tmp_path, fd):
    # sys.stdout or sys.stderr is None in a process started without its descriptor
    out = tmp_path / "herald.json"
    res = fmesim(["herald", "--preset", "rb85-87", "--out", str(out)], tmp_path,
                 preexec_fn=lambda: os.close(fd))
    assert res.code == 0 and res.stdout == b"" and res.stderr == ""
    assert json.loads(out.read_text())["metadata"]["command"] == "herald"


def test_rb_protocol_golden_bytes_on_two_cpus(tmp_path):
    # 10^5 runs on two CPUs draw in the CLI process, which reports each
    # tenth of the row's runs
    cpus, pin = {0}, None
    if hasattr(os, "sched_setaffinity"):
        cpus = set(sorted(os.sched_getaffinity(0))[:2])
        pin = lambda: os.sched_setaffinity(0, cpus)  # noqa: E731
    res = fmesim([*WORKLOADS["rb-protocol"], "--seed", "1"], tmp_path, preexec_fn=pin)
    assert res.code == 0 and other_lines(res.stderr) == []
    assert hashlib.sha256(res.stdout).hexdigest() == GOLDEN_STDLIB_KERNEL_SHA256
    assert progress_lines(res.stderr) == [f"protocol: {done}/{n} runs"
                                          for done, n in one_process_lines([100_000])[0]]


# row 0's lines print within a second, and row 1's 10^9 runs then keep the
# CLI drawing for tens of seconds
LONG_ARGV = ["sweep", "--preset", "rb85-87", "--sweep", "runs=100000,1000000000"]


@pytest.mark.parametrize("signum", [signal.SIGTERM, signal.SIGKILL], ids=["SIGTERM", "SIGKILL"])
def test_signalled_cli_leaves_no_drawing_child(tmp_path, signum):
    stderr = tmp_path / "stderr"
    with open(stderr, "wb") as err:
        proc = subprocess.Popen([sys.executable, "-m", "fmesim", *LONG_ARGV],
                                stdout=subprocess.DEVNULL, stderr=err, env=ENV,
                                start_new_session=True)
    try:
        deadline = time.monotonic() + TIMEOUT_S
        while b" runs\n" not in stderr.read_bytes():
            assert proc.poll() is None and time.monotonic() < deadline
            time.sleep(0.01)
        os.kill(proc.pid, signum)  # the CLI's pid alone, not its session
        assert proc.wait(TIMEOUT_S) == -signum
        deadline = time.monotonic() + 5.0
        while True:
            try:
                os.killpg(proc.pid, 0)
            except ProcessLookupError:
                break
            assert time.monotonic() < deadline, "a process of the CLI's session is left"
            time.sleep(0.01)
        assert_session_ended(proc.pid)
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()


NORMAL_ARGV = ["protocol", "--preset", "rb85-87", "--runs", "10", "--seed", "1"]


@pytest.mark.parametrize("argv, code", [(NORMAL_ARGV, 0), ([*NORMAL_ARGV, "--set", "eta=2"], 2)],
                         ids=["ok", "config-error"])
def test_closed_stderr_leaves_stdout_and_exit_code(tmp_path, argv, code):
    # without descriptor 2, sys.stderr is None, and print would write to stdout
    (tmp_path / "normal").mkdir()
    normal = fmesim(NORMAL_ARGV, tmp_path / "normal")
    res = fmesim(argv, tmp_path, preexec_fn=lambda: os.close(2))
    assert res.code == code
    assert res.stdout == (normal.stdout if code == 0 else b"")


def test_unwritable_stderr_leaves_stdout_and_exit_code(tmp_path):
    (tmp_path / "normal").mkdir()
    normal = fmesim(NORMAL_ARGV, tmp_path / "normal")

    def read_only_stderr():
        os.dup2(os.open(os.devnull, os.O_RDONLY), 2)

    res = fmesim(NORMAL_ARGV, tmp_path, preexec_fn=read_only_stderr)
    assert normal.code == res.code == 0 and progress_lines(normal.stderr) != []
    assert res.stdout == normal.stdout


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_output_larger_than_a_pipe_buffer(tmp_path, fmt):
    etas = ",".join(str(i / 300) for i in range(1, 301))
    argv = ["sweep", "--preset", "rb85-87", "--runs", "1", "--seed", "1", "--format", fmt,
            "--sweep", f"eta={etas}"]
    in_process = tmp_path / "in-process.out"
    assert cli.main(argv + ["--out", str(in_process)]) == 0
    expected = in_process.read_bytes()
    assert len(expected) > 64 * 1024
    with subprocess.Popen([sys.executable, "-m", "fmesim", *argv], stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, env=ENV, start_new_session=True) as proc:
        piped, _ = proc.communicate(timeout=TIMEOUT_S)
    assert_session_ended(proc.pid)
    assert proc.returncode == 0 and piped == expected
    out = tmp_path / "sweep.out"
    res = fmesim(argv + ["--out", str(out)], tmp_path)
    assert res.code == 0 and res.stdout == b"" and out.read_bytes() == expected


class RecordingStdout(io.StringIO):
    def __init__(self):
        super().__init__()
        self.sizes = []

    def write(self, text):
        self.sizes.append(len(text))
        return super().write(text)


def test_output_is_written_in_slices(tmp_path, monkeypatch):
    # encoding a whole large table at once made a transient copy of it, which
    # moved a 9,000-row sweep's peak RSS by 10 MB with a few bytes of output
    etas = ",".join(str(i / 1000) for i in range(1, 1001))
    argv = ["sweep", "--preset", "rb85-87", "--runs", "1", "--seed", "1", "--format", "json",
            "--sweep", f"eta={etas}"]
    out = tmp_path / "sweep.json"
    assert cli.main(argv + ["--out", str(out)]) == 0
    stdout = RecordingStdout()
    monkeypatch.setattr(sys, "stdout", stdout)
    assert cli.main(argv) == 0
    assert stdout.getvalue().encode() == out.read_bytes()
    assert len(stdout.sizes) > 2 and max(stdout.sizes) <= 2**16


# 4 axes x 300 values make 8.1e9 rows, beyond the 2^31 rows that key the
# random streams: the size is checked before the grid is expanded, so this
# exits at once instead of building billions of rows
OVERSIZED_GRID = [arg for key in ("eta", "dark_rate_hz", "gate_s", "g_I")
                  for arg in ("--sweep", key + "=" + ",".join(map(str, range(1, 301))))]

NO_SINGLE_PHOTON = ("error: the click branch table has no detected single photon: "
                    "eta or the write drive is zero")

# one trial per run at p_click 4e-4 (eta 1e-6) and 0.009 (eta 0.5): at seed 1
# none of 20 runs clicks
NO_CLICK = ["--preset", "rb85-87", "--runs", "20", "--set", "max_trials=1", "--seed", "1"]

SWEEP = ["sweep", "--preset", "rb85-87", "--runs", "5"]
# stands for the test's tmp_path, in which list.json holds a JSON list
TMP = "<tmp_path>"


@pytest.mark.parametrize("argv, code, message", [
    (["protocol", "--preset", "rb85-87", "--set", "eta=2.0"], 2, "error: eta"),
    (["no-such-command"], 2, "invalid choice: 'no-such-command'"),
    (["protocol", "--preset", "rb85-87", "--seed", "2", "--runs", "2", "--set", "eta=0.0",
      "--set", "dark_rate_hz=0.0", "--set", "max_trials=5"], 3, ""),
    (["protocol", "--preset", "rb85-87", "--runs", "50", "--set", "N_I=1e300"], 4,
     "numeric failure"),
    (["sweep", "--preset", "rb85-87", "--runs", "10", *OVERSIZED_GRID], 2, "--sweep"),
    (["retrieve", "--preset", "rb85-87", "--set", "eta=0"], 2, NO_SINGLE_PHOTON),
    (["retrieve", "--preset", "rb85-87", "--set", "omega_rabi_write_I=0",
      "--set", "omega_rabi_write_II=0"], 2, NO_SINGLE_PHOTON),
    (["protocol", *NO_CLICK, "--set", "eta=1e-6"], 3, "protocol: 20/20 runs"),
    # a sweep reports its rows without a success and exits 0
    (["sweep", *NO_CLICK, "--format", "json", "--sweep", "eta=1e-6,0.5"], 0,
     "sweep row 2/2: 20/20 runs"),
    ([*SWEEP, "--sweep", "eta"], 2, "error: --sweep expects KEY=V1,V2,... got 'eta'"),
    ([*SWEEP, "--sweep", "eta=[]"], 2, "error: --sweep eta: expected a nonempty JSON list"),
    ([*SWEEP, "--sweep", "eta=[0.5"], 2, "error: --sweep eta: invalid JSON list: "),
    ([*SWEEP, "--sweep", "eta=,"], 2, "error: --sweep eta: no values given"),
    (SWEEP, 2, "error: sweep requires at least one --sweep"),
    (["protocol", "--preset", "rb85-87", "--set", "eta"], 2,
     "error: --set expects KEY=VALUE, got 'eta'"),
    (["protocol", "--config", f"{TMP}/missing.json"], 2,
     f"error: cannot read config file {TMP}/missing.json: "),
    (["protocol", "--config", f"{TMP}/list.json"], 2,
     "error: config file must contain a JSON object"),
], ids=["config", "usage", "no-success", "overflow", "oversized-grid", "retrieve-eta-0",
        "retrieve-no-write-drive", "protocol-no-click", "sweep-no-click", "sweep-no-equals",
        "sweep-empty-list", "sweep-invalid-list", "sweep-no-values", "sweep-no-axis",
        "set-no-equals", "config-missing", "config-not-object"])
def test_exit_codes_are_unchanged(tmp_path, argv, code, message):
    (tmp_path / "list.json").write_text("[1, 2]")
    argv = [arg.replace(TMP, str(tmp_path)) for arg in argv]
    message = message.replace(TMP, str(tmp_path))
    res = fmesim(argv, tmp_path)
    assert res.code == code
    assert message in res.stderr and "Traceback" not in res.stderr
    if code:  # a rejected sweep draws no row
        assert "sweep row" not in res.stderr
    else:  # the sweep wrote both rows, neither with a success
        assert [row["n_success"] for row in json.loads(res.stdout)["results"]] == [0, 0]


def test_peak_memory_does_not_grow_with_runs(tmp_path):
    argv = ["protocol", "--preset", "rb85-87", "--runs", "10000000", "--seed", "1"]
    res, peak_mb = peak_rss_mb(argv, tmp_path)
    assert res.code == 0
    assert peak_mb <= 64


def test_peak_memory_per_sweep_row(tmp_path):
    etas = ",".join(str(i / 10000) for i in range(10000))
    argv = ["sweep", "--preset", "rb85-87", "--runs", "1", "--format", "json", "--seed", "1",
            "--sweep", f"eta={etas}"]
    res, peak_mb = peak_rss_mb(argv, tmp_path)
    assert res.code == 0 and json.loads(res.stdout)["results"][-1]["row"] == 9999
    assert peak_mb <= 128


NUMPY_ARGV = ["protocol", "--preset", "rb85-87", "--runs", str(2**17), "--seed", "1"]


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity")
@pytest.mark.parametrize("argv", [[*WORKLOADS["rb-protocol"], "--seed", "1"],
                                  [*WORKLOADS["drive-grid"], "--seed", "1"], NUMPY_ARGV],
                         ids=["rb-protocol", "drive-grid", "protocol-131072"])
def test_output_does_not_depend_on_real_cpu_pinning(tmp_path, argv):
    cpu = min(os.sched_getaffinity(0))
    (tmp_path / "pinned").mkdir()
    (tmp_path / "all").mkdir()
    pinned = fmesim(argv, tmp_path / "pinned", preexec_fn=lambda: os.sched_setaffinity(0, {cpu}))
    unpinned = fmesim(argv, tmp_path / "all")
    assert pinned.code == unpinned.code == 0
    assert pinned.stdout == unpinned.stdout
    assert progress_lines(pinned.stderr) == progress_lines(unpinned.stderr)
