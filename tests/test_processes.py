"""Drawing an invocation's runs across forked processes.

protocol.run_rows plans an invocation's draw from its runs in all: below
protocol._NUMPY_RUNS it cuts the rows' chunks into one part per 2^15 runs,
at most one per CPU (protocol._process_count), and forks a child for every
part but the first; from there on one process draws with numpy.  These
tests patch the CPU count to 1, 2 and 3 and check that the output bytes do
not depend on it, that nothing forks from 2^17 runs on, that progress stays
at most ten lines per row, that a failure in a child or in the parent exits
as it would in one process, and that no child outlives the call.
"""

import hashlib
import os
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
    forks, the pids that os.fork has returned to this process since."""
    forks = []
    fork = os.fork

    def counted_fork():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    def set_cpus(n):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)
        forks.clear()

    monkeypatch.setattr(os, "fork", counted_fork)
    return set_cpus, forks


def progress_lines(err: str) -> dict:
    """label -> [(done, total), ...] from the progress lines on stderr."""
    rows = {}
    for line in err.splitlines():
        label, _, count = line.rpartition(": ")
        done, total = map(int, count.removesuffix(" runs").split("/"))
        rows.setdefault(label, []).append((done, total))
    return rows


# (argv, rows' runs, exit code); every case holds fewer than 2^17 runs in all
CASES = {
    "golden-100000": (["protocol", "--preset", "rb85-87", "--runs", "100000", "--seed", "1"],
                      [100_000], 0),
    # 13, 5 and 10 chunks, the last of each partial: at 2 CPUs part 1 starts
    # in row 1, at 3 CPUs parts start in row 0 and at row 2, after row 0's
    # and row 1's partial last chunks
    "sweep-3-rows": (["sweep", "--preset", "rb85-87", "--format", "json", "--seed", "5",
                      "--sweep", "runs=50000,20000,40000"], [50_000, 20_000, 40_000], 0),
    "p_click-0-row": (["sweep", "--preset", "rb85-87", "--runs", "60000", "--seed", "2",
                       "--set", "dark_rate_hz=0", "--sweep", "eta=0,0.5"], [60_000, 60_000], 0),
    "p_click-0-protocol": (["protocol", "--preset", "rb85-87", "--runs", "100000", "--seed", "2",
                            "--set", "eta=0", "--set", "dark_rate_hz=0"], [100_000], 3),
    "runs-2^17-1": (["protocol", "--preset", "rb85-87", "--runs", str(2**17 - 1), "--seed", "1"],
                    [2**17 - 1], 0),
}


@pytest.mark.parametrize("name", CASES)
def test_output_does_not_depend_on_the_process_count(tmp_path, capsys, cpus, name):
    argv, runs, code = CASES[name]
    set_cpus, forks = cpus
    blobs = []
    for n_cpus in CPU_COUNTS:
        set_cpus(n_cpus)
        out = tmp_path / f"cpus{n_cpus}.out"
        assert main(argv + ["--out", str(out)]) == code
        assert len(forks) == min(n_cpus, sum(runs) // 2**15) - 1
        assert_no_child()
        blobs.append(out.read_bytes())
        rows = progress_lines(capsys.readouterr().err)
        assert [lines[-1] for lines in rows.values()] == [(n, n) for n in runs]
        assert max(map(len, rows.values())) <= 10
    assert blobs[1:] == blobs[:-1]
    if name == "golden-100000":
        assert hashlib.sha256(blobs[0]).hexdigest() == GOLDEN_STDLIB_KERNEL_SHA256


def test_no_fork_from_two_to_the_17_runs(tmp_path, cpus):
    set_cpus, forks = cpus
    set_cpus(3)
    out = tmp_path / "out.csv"
    argv = ["protocol", "--preset", "rb85-87", "--runs", str(2**17), "--seed", "1"]
    assert main(argv + ["--out", str(out)]) == 0
    assert forks == []
    assert_no_child()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_NUMPY_KERNEL_SHA256


def test_sweep_parts_fall_mid_row_and_after_partial_chunks():
    # the part boundaries that the sweep-3-rows case claims, from the chunk counts
    runs = CASES["sweep-3-rows"][1]
    assert [-(-n // pr._RUN_CHUNK) for n in runs] == [13, 5, 10]
    assert [n % pr._RUN_CHUNK for n in runs] == [848, 3616, 3136]
    assert [*pr._part(runs, 0, 14)] == [(0, 0, 50_000), (1, 0, 4096)]
    assert [*pr._part(runs, 14, 28)] == [(1, 4096, 20_000), (2, 0, 40_000)]
    assert [*pr._part(runs, 0, 9)] == [(0, 0, 36_864)]
    assert [*pr._part(runs, 9, 18)] == [(0, 36_864, 50_000), (1, 0, 20_000)]
    assert [*pr._part(runs, 18, 28)] == [(2, 0, 40_000)]


@pytest.mark.parametrize("runs", [[1], [4096], [4097], [50_000, 20_000, 40_000],
                                  [1, 4096, 1, 8193, 3, 100_000], [7] * 40])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 7])
def test_parts_cover_every_run_once_in_order(runs, n):
    n_chunks = sum(-(-r // pr._RUN_CHUNK) for r in runs)
    bounds = [k * n_chunks // n for k in range(n + 1)]
    segments = [seg for k in range(n) for seg in pr._part(runs, bounds[k], bounds[k + 1])]
    covered = {}
    for row, lo, hi in segments:
        assert lo % pr._RUN_CHUNK == 0 and lo < hi <= runs[row]
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


def failing_kernel(monkeypatch, in_parent, in_child):
    """Patch the standard-library kernel so that drawing a chunk calls
    in_parent() in this process and in_child() in a forked child."""
    parent = os.getpid()
    kernel = pr._stdlib_kernel

    def patched(engine):
        tally = kernel(engine)

        def checked(seed, row, lo, hi):
            (in_parent if os.getpid() == parent else in_child)()
            return tally(seed, row, lo, hi)

        return checked

    monkeypatch.setattr(pr, "_stdlib_kernel", patched)


ARGV = ["protocol", "--preset", "rb85-87", "--runs", "100000", "--seed", "1"]


def test_child_floating_point_error_exits_4(tmp_path, capsys, cpus, monkeypatch):
    set_cpus, forks = cpus
    set_cpus(3)

    def fail():
        raise FloatingPointError("overflow in the child")

    failing_kernel(monkeypatch, lambda: None, fail)
    out = tmp_path / "out.csv"
    assert main(ARGV + ["--out", str(out)]) == 4
    assert len(forks) == 2
    assert "numeric failure: overflow in the child" in capsys.readouterr().err
    assert not out.exists()
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
