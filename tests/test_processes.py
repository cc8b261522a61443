"""Drawing an invocation's runs across forked processes.

protocol.run_rows plans an invocation's draw from its runs in all: the kernel
(the standard library below protocol._NUMPY_RUNS, numpy from there on) and,
for either kernel, one part of the rows' chunks per 2^15 runs, at most one
per CPU (protocol._process_count), with a forked child for every part but
the first.  These tests patch the CPU count to 1, 2 and 3 and check that the
output bytes do not depend on it, with either kernel, and with a row split
between a part that looks trial counts up in the standard-library kernel's
table and a part too small to build it; that this process draws only the
first part when every child succeeds; that progress stays at most ten lines
per row, each line once, and in one process the lines it has always
printed; and that no child outlives the call.

A child sends its tallies or nothing, and the parent draws every part it did
not receive, whether the child raised, was signalled or was killed; part of
a message counts as nothing.  So a failure that one process would meet
exits as it would there, because the parent meets it drawing the child's
part, and a failure that only a child meets costs time but changes no byte.
A failure in the parent kills the children.
"""

import hashlib
import marshal
import os
import signal
import time

import pytest
from test_golden import GOLDEN_NUMPY_KERNEL_SHA256, GOLDEN_STDLIB_KERNEL_SHA256

from fmesim import protocol as pr
from fmesim.cli import main

CPU_COUNTS = (1, 2, 3)


def assert_no_child():
    """Every child this process forked has been reaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def cpus(monkeypatch):
    """set_cpus(n) makes os.sched_getaffinity report n CPUs and clears
    forks, the pids that os.fork has returned to this process since.
    os._exit fails the test in this process and exits a forked child."""
    forks = []
    fork, exit_, test_pid = os.fork, os._exit, os.getpid()

    def child_exit(status):
        assert os.getpid() != test_pid, "os._exit in the test process"
        exit_(status)

    def counted_fork():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    def set_cpus(n):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)
        forks.clear()

    monkeypatch.setattr(os, "fork", counted_fork)
    monkeypatch.setattr(os, "_exit", child_exit)
    return set_cpus, forks


def progress_lines(err: str) -> dict:
    """label -> [(done, total), ...] from the progress lines on stderr."""
    rows = {}
    for line in err.splitlines():
        label, _, count = line.rpartition(": ")
        done, total = map(int, count.removesuffix(" runs").split("/"))
        rows.setdefault(label, []).append((done, total))
    return rows


def chunk_of(runs: list[int]) -> int:
    """The chunk run_rows draws the rows of the given runs in: the numpy
    kernel's from protocol._NUMPY_RUNS runs in all on, else the standard
    library's."""
    return pr._NUMPY_CHUNK if sum(runs) >= pr._NUMPY_RUNS else pr._STDLIB_CHUNK


def one_process_lines(runs: list[int]) -> list[list[tuple[int, int]]]:
    """Each row's progress lines drawn in one process: a line at each chunk
    end that passes another tenth of the row's runs."""
    rows, chunk = [], chunk_of(runs)
    for n in runs:
        ends = [min(stop, n) for stop in range(chunk, n + chunk, chunk)]
        tenths = [0, *(done * 10 // n for done in ends)]
        rows.append([(done, n) for done, a, b in zip(ends, tenths, tenths[1:]) if b > a])
    return rows


# (argv, rows' runs, exit code); the numpy cases hold 2^17 runs or more in all
CASES = {
    "golden-100000": (["protocol", "--preset", "rb85-87", "--runs", "100000", "--seed", "1"],
                      [100_000], 0),
    # 25, 10 and 20 chunks, the last of each partial: at 2 CPUs part 1 starts
    # in row 1, at 3 CPUs parts start in row 0 and in row 2, after row 0's
    # and row 1's partial last chunks
    "sweep-3-rows": (["sweep", "--preset", "rb85-87", "--format", "json", "--seed", "5",
                      "--sweep", "runs=50000,20000,40000"], [50_000, 20_000, 40_000], 0),
    "p_click-0-row": (["sweep", "--preset", "rb85-87", "--runs", "60000", "--seed", "2",
                       "--set", "dark_rate_hz=0", "--sweep", "eta=0,0.5"], [60_000, 60_000], 0),
    "p_click-0-protocol": (["protocol", "--preset", "rb85-87", "--runs", "100000", "--seed", "2",
                            "--set", "eta=0", "--set", "dark_rate_hz=0"], [100_000], 3),
    # at 3 CPUs each row is drawn in a part of at least 2^15 runs, which looks
    # T up in the trial table, and in a smaller one, which takes every quotient
    "table-split-2x50000": (["sweep", "--preset", "rb85-87", "--runs", "50000", "--seed", "3",
                             "--sweep", "eta=0.4,0.8"], [50_000] * 2, 0),
    "runs-2^17-1": (["protocol", "--preset", "rb85-87", "--runs", str(2**17 - 1), "--seed", "1"],
                    [2**17 - 1], 0),
    "numpy-2^17": (["protocol", "--preset", "rb85-87", "--runs", str(2**17), "--seed", "1"],
                   [2**17], 0),
    # 16 chunks per row, the last of each partial: at 2 CPUs part 1 starts
    # in row 1, at 3 CPUs parts start at rows 1 and 2
    "numpy-sweep-3-rows": (["sweep", "--preset", "rb85-87", "--runs", "65535", "--seed", "7",
                            "--sweep", "eta=0.3,0.6,0.9"], [65_535] * 3, 0),
}
GOLDEN = {"golden-100000": GOLDEN_STDLIB_KERNEL_SHA256, "numpy-2^17": GOLDEN_NUMPY_KERNEL_SHA256}


@pytest.mark.parametrize("name", CASES)
def test_output_does_not_depend_on_the_process_count(tmp_path, capsys, cpus, monkeypatch, name):
    argv, runs, code = CASES[name]
    set_cpus, forks = cpus
    pid, run_protocol, drawn = os.getpid(), pr.run_protocol, []

    def recorded(kernel, engine, seed, row, lo, hi, *args):  # (row, lo, hi) drawn here
        if os.getpid() == pid:
            drawn.append((row, lo, hi))
        return run_protocol(kernel, engine, seed, row, lo, hi, *args)

    monkeypatch.setattr(pr, "run_protocol", recorded)
    chunk = chunk_of(runs)
    n_chunks = sum(-(-n // chunk) for n in runs)
    blobs = []
    for n_cpus in CPU_COUNTS:
        set_cpus(n_cpus)
        drawn.clear()
        out = tmp_path / f"cpus{n_cpus}.out"
        assert main(argv + ["--out", str(out)]) == code
        assert len(forks) == min(n_cpus, sum(runs) // 2**15) - 1
        assert_no_child()
        # every child sent its part: this process drew part 0 and nothing else
        assert drawn == [*pr._part(runs, chunk, 0, n_chunks // (len(forks) + 1))]
        blobs.append(out.read_bytes())
        rows = [*progress_lines(capsys.readouterr().err).values()]
        assert len(rows) == len(runs)
        for lines, n in zip(rows, runs):
            assert len(lines) <= 10 and len(set(lines)) == len(lines)
            assert lines[-1] == (n, n) and {total for _, total in lines} == {n}
        if n_cpus == 1:
            assert rows == one_process_lines(runs)
    assert blobs[1:] == blobs[:-1]
    if name in GOLDEN:
        assert hashlib.sha256(blobs[0]).hexdigest() == GOLDEN[name]


def test_sweep_parts_fall_mid_row_and_after_partial_chunks():
    # the part boundaries that the sweep-3-rows cases claim, from the chunk counts
    runs = CASES["sweep-3-rows"][1]
    chunk = chunk_of(runs)
    assert chunk == pr._STDLIB_CHUNK == 2048
    assert [-(-n // chunk) for n in runs] == [25, 10, 20]
    assert [n % chunk for n in runs] == [848, 1568, 1088]
    assert [*pr._part(runs, chunk, 0, 27)] == [(0, 0, 50_000), (1, 0, 4096)]
    assert [*pr._part(runs, chunk, 27, 55)] == [(1, 4096, 20_000), (2, 0, 40_000)]
    assert [*pr._part(runs, chunk, 0, 18)] == [(0, 0, 36_864)]
    assert [*pr._part(runs, chunk, 18, 36)] == [
        (0, 36_864, 50_000), (1, 0, 20_000), (2, 0, 2048)]
    assert [*pr._part(runs, chunk, 36, 55)] == [(2, 2048, 40_000)]
    runs = CASES["numpy-sweep-3-rows"][1]
    chunk = chunk_of(runs)
    assert chunk == pr._NUMPY_CHUNK == 4096 and [n % chunk for n in runs] == [4095] * 3
    assert [*pr._part(runs, chunk, 0, 24)] == [(0, 0, 65_535), (1, 0, 32_768)]
    assert [*pr._part(runs, chunk, 24, 48)] == [(1, 32_768, 65_535), (2, 0, 65_535)]
    assert [*pr._part(runs, chunk, 16, 32)] == [(1, 0, 65_535)]
    # at 3 CPUs the table-split case's 50 chunks are cut at 16 and 33: each
    # row is one part of at least 2^15 runs and one smaller part
    runs = CASES["table-split-2x50000"][1]
    chunk = chunk_of(runs)
    assert chunk == pr._STDLIB_CHUNK and [n % chunk for n in runs] == [848] * 2
    assert [*pr._part(runs, chunk, 0, 16)] == [(0, 0, 32_768)]
    assert [*pr._part(runs, chunk, 16, 33)] == [(0, 32_768, 50_000), (1, 0, 16_384)]
    assert [*pr._part(runs, chunk, 33, 50)] == [(1, 16_384, 50_000)]
    assert 50_000 - 32_768 < pr._FORK_RUNS <= 32_768 and 16_384 < pr._FORK_RUNS <= 33_616


@pytest.mark.parametrize("runs", [[1], [2048], [2049], [4096], [4097], [50_000, 20_000, 40_000],
                                  [1, 4096, 1, 8193, 3, 100_000], [7] * 40])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 7])
@pytest.mark.parametrize("chunk", [pr._STDLIB_CHUNK, pr._NUMPY_CHUNK])
def test_parts_cover_every_run_once_in_order(runs, n, chunk):
    n_chunks = sum(-(-r // chunk) for r in runs)
    bounds = [k * n_chunks // n for k in range(n + 1)]
    segments = [seg for k in range(n) for seg in pr._part(runs, chunk, bounds[k], bounds[k + 1])]
    covered = {}
    for row, lo, hi in segments:
        assert lo % chunk == 0 and lo < hi <= runs[row]
        assert covered.setdefault(row, 0) == lo  # contiguous, in order
        covered[row] = hi
    assert covered == dict(enumerate(runs))
    assert [row for row, _, _ in segments] == sorted(row for row, _, _ in segments)


@pytest.mark.parametrize("n_cpus", [1, 2, 3, 4, 64, 10**6])
def test_process_count_rule(monkeypatch, n_cpus):
    # range, not set: a CPU count of 10^6 without allocating it
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: range(n_cpus), raising=False)
    for total in (1, 2**15 - 1, 2**15, 2**16 - 1, 2**16, 3 * 2**15, 2**17 - 1, 2**17,
                  10**7, 2**32):
        n = pr._process_count(total)
        assert 1 <= n <= n_cpus
        assert n <= max(1, total // 2**15)
        assert n == max(1, min(n_cpus, total // 2**15))


def test_one_process_without_sched_getaffinity(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert {pr._process_count(total) for total in (1, 2**15, 2**17 - 1, 2**17, 10**7)} == {1}


def test_rejection_exits_2_before_any_fork(cpus):
    set_cpus, forks = cpus
    set_cpus(3)
    assert main(["sweep", "--preset", "rb85-87", "--runs", "100000", "--sweep", "eta=0.5,2"]) == 2
    assert forks == []
    assert_no_child()


def failing_kernel(monkeypatch, in_parent, in_child, runs_from=0):
    """Patch the standard-library kernel so that drawing a chunk that starts
    at run runs_from or later calls in_parent() in this process and
    in_child() in a forked child."""
    parent = os.getpid()
    kernel = pr._stdlib_kernel

    def patched(engine, runs, chunk):
        tally = kernel(engine, runs, chunk)

        def checked(seed, row, lo, hi):
            if lo >= runs_from:
                (in_parent if os.getpid() == parent else in_child)()
            return tally(seed, row, lo, hi)

        return checked

    monkeypatch.setattr(pr, "_stdlib_kernel", patched)


ARGV = ["protocol", "--preset", "rb85-87", "--runs", "100000", "--seed", "1"]


def overflow():
    raise FloatingPointError("overflow in a child's runs")


def test_floating_point_error_in_a_childs_runs_exits_4(tmp_path, capsys, cpus, monkeypatch):
    # at 3 CPUs the 49 chunks are cut at 16 and 32, so the children's parts
    # start at run 2^15: each child meets the error and sends nothing, and
    # this process meets it again drawing part 1
    set_cpus, forks = cpus
    set_cpus(3)
    failing_kernel(monkeypatch, overflow, overflow, runs_from=2**15)
    out = tmp_path / "out.csv"
    assert main(ARGV + ["--out", str(out)]) == 4
    assert len(forks) == 2
    assert "numeric failure: overflow in a child's runs" in capsys.readouterr().err
    assert not out.exists()
    assert_no_child()


@pytest.mark.parametrize("error", [overflow, lambda: os.kill(os.getpid(), signal.SIGINT)],
                         ids=["FloatingPointError", "SIGINT"])
def test_failure_only_in_a_child_changes_no_byte(tmp_path, cpus, monkeypatch, error):
    set_cpus, forks = cpus
    set_cpus(3)
    out = tmp_path / "out.csv"
    failing_kernel(monkeypatch, lambda: None, error)
    assert main(ARGV + ["--out", str(out)]) == 0
    assert len(forks) == 2
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_STDLIB_KERNEL_SHA256
    assert_no_child()


def test_part_of_a_killed_child_is_drawn_by_the_parent(tmp_path, cpus, monkeypatch):
    set_cpus, forks = cpus
    set_cpus(3)
    out = tmp_path / "out.csv"
    failing_kernel(monkeypatch, lambda: None, lambda: os._exit(1))
    assert main(ARGV + ["--out", str(out)]) == 0
    assert len(forks) == 2
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_STDLIB_KERNEL_SHA256
    assert_no_child()


def test_part_of_a_child_cut_off_mid_message_is_drawn_by_the_parent(tmp_path, cpus, monkeypatch):
    # a child killed while it writes a message larger than a pipe buffer
    # leaves the first part of it in the pipe
    set_cpus, forks = cpus
    set_cpus(3)

    class CutMarshal:
        loads = staticmethod(marshal.loads)

        @staticmethod
        def dumps(value):
            message = marshal.dumps(value)
            return message[:len(message) // 2]

    monkeypatch.setattr(pr, "marshal", CutMarshal)
    out = tmp_path / "out.csv"
    assert main(ARGV + ["--out", str(out)]) == 0
    assert len(forks) == 2
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_STDLIB_KERNEL_SHA256
    assert_no_child()


@pytest.mark.parametrize("error, code", [(FloatingPointError, 4), (KeyboardInterrupt, None)])
def test_parent_failure_kills_and_reaps_children(capsys, cpus, monkeypatch, error, code):
    set_cpus, forks = cpus
    set_cpus(3)

    def fail():
        raise error("in the parent")

    slept = []

    def sleep_once():  # unless killed, a child holds up the parent's reaping for a minute
        if not slept:
            slept.append(True)
            time.sleep(60)

    failing_kernel(monkeypatch, fail, sleep_once)
    start = time.monotonic()
    if code is None:
        with pytest.raises(error):
            main(ARGV)
    else:
        assert main(ARGV) == code
        assert "numeric failure: in the parent" in capsys.readouterr().err
    assert time.monotonic() - start < 30
    assert len(forks) == 2
    assert_no_child()
