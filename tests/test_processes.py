"""Drawing every run of an invocation in the CLI process.

protocol.run_rows plans an invocation's draw from its runs in all: the kernel
(the standard library below protocol._NUMPY_RUNS, numpy from there on) and
its chunk.  Every run is drawn in the CLI process, whatever the CPU count.
These tests make os.fork raise and os.sched_getaffinity report three CPUs,
and check that the CLI still gives the pinned output bytes and exit codes
with either kernel, that it draws each row once, whole, and that each row
prints the progress lines of one process.  They check that run_protocol's
chunks cover every run of a row once, in order, and give the tally of the
row drawn in one chunk, whatever the chunk size; that run_rows gives the same
tallies and progress at any CPU count; that a rejected invocation draws
nothing; and that a failure in a chunk stops the draw there.
"""

import hashlib
import os

import pytest
from test_golden import GOLDEN_NUMPY_KERNEL_SHA256, GOLDEN_STDLIB_KERNEL_SHA256

from fmesim import config as cfg_mod
from fmesim import protocol as pr
from fmesim.cli import main


def assert_no_child():
    """This process has no child left to reap."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


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


def no_fork():
    raise AssertionError("os.fork called")


# (argv, rows' runs, exit code); the numpy cases hold 2^17 runs or more in all
CASES = {
    "golden-100000": (["protocol", "--preset", "rb85-87", "--runs", "100000", "--seed", "1"],
                      [100_000], 0),
    # 25, 10 and 20 chunks, the last of each partial
    "sweep-3-rows": (["sweep", "--preset", "rb85-87", "--format", "json", "--seed", "5",
                      "--sweep", "runs=50000,20000,40000"], [50_000, 20_000, 40_000], 0),
    "p_click-0-row": (["sweep", "--preset", "rb85-87", "--runs", "60000", "--seed", "2",
                       "--set", "dark_rate_hz=0", "--sweep", "eta=0,0.5"], [60_000, 60_000], 0),
    "p_click-0-protocol": (["protocol", "--preset", "rb85-87", "--runs", "100000", "--seed", "2",
                            "--set", "eta=0", "--set", "dark_rate_hz=0"], [100_000], 3),
    # rows of at least 2^15 runs, which look T up in the trial table
    "table-2x50000": (["sweep", "--preset", "rb85-87", "--runs", "50000", "--seed", "3",
                       "--sweep", "eta=0.4,0.8"], [50_000] * 2, 0),
    "runs-2^17-1": (["protocol", "--preset", "rb85-87", "--runs", str(2**17 - 1), "--seed", "1"],
                    [2**17 - 1], 0),
    "numpy-2^17": (["protocol", "--preset", "rb85-87", "--runs", str(2**17), "--seed", "1"],
                   [2**17], 0),
    # 16 chunks per row, the last of each partial
    "numpy-sweep-3-rows": (["sweep", "--preset", "rb85-87", "--runs", "65535", "--seed", "7",
                            "--sweep", "eta=0.3,0.6,0.9"], [65_535] * 3, 0),
}
# sweep-3-rows was pinned from a draw split across three processes: the
# bytes do not depend on how many processes draw
GOLDEN = {"golden-100000": GOLDEN_STDLIB_KERNEL_SHA256, "numpy-2^17": GOLDEN_NUMPY_KERNEL_SHA256,
          "sweep-3-rows": "0d1b5d531a1a574d660d4c6341ff2f523100ab49508265ee75e19419cdb82c04"}


@pytest.mark.parametrize("name", CASES)
def test_cli_draws_every_run_in_its_own_process(tmp_path, capsys, monkeypatch, name):
    argv, runs, code = CASES[name]
    monkeypatch.setattr(os, "fork", no_fork)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    run_protocol, drawn = pr.run_protocol, []

    def recorded(kernel, engine, seed, row, n_runs, *args):
        drawn.append((row, n_runs))
        return run_protocol(kernel, engine, seed, row, n_runs, *args)

    monkeypatch.setattr(pr, "run_protocol", recorded)
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == code
    assert drawn == [*enumerate(runs)]
    assert [*progress_lines(capsys.readouterr().err).values()] == one_process_lines(runs)
    if name in GOLDEN:
        assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN[name]
    assert_no_child()


def test_floating_point_error_in_the_runs_exits_4(tmp_path, capsys, monkeypatch):
    # the error is met in the chunk that starts at run 2^15, and nothing is written
    kernel = pr._stdlib_kernel

    def patched(engine, runs, chunk):
        tally = kernel(engine, runs, chunk)

        def checked(seed, row, lo, hi):
            if lo >= 2**15:
                raise FloatingPointError("overflow in the runs")
            return tally(seed, row, lo, hi)

        return checked

    monkeypatch.setattr(pr, "_stdlib_kernel", patched)
    out = tmp_path / "out.csv"
    assert main(CASES["golden-100000"][0] + ["--out", str(out)]) == 4
    assert "numeric failure: overflow in the runs" in capsys.readouterr().err
    assert not out.exists()


ENGINES = [cfg_mod.build_setup(cfg_mod.load_config(preset="rb85-87", overrides=[f"eta={eta}"]))
           for eta in (0.3, 0.6, 0.9)]


def recording(kernel, drawn):
    """kernel, with each chunk it tallies appended to drawn as (row, lo, hi)."""
    def recorded(engine, runs, chunk):
        tally = kernel(engine, runs, chunk)

        def recorded_tally(seed, row, lo, hi):
            drawn.append((row, lo, hi))
            return tally(seed, row, lo, hi)

        return recorded_tally

    return recorded


@pytest.mark.parametrize("runs", [[1], [2048], [2049], [4096], [4097], [50_000, 20_000, 40_000],
                                  [1, 4096, 1, 8193, 3, 100_000], [7] * 40])
@pytest.mark.parametrize("chunk", [1000, pr._STDLIB_CHUNK, pr._NUMPY_CHUNK, 4097, 10_000])
@pytest.mark.parametrize("kernel", [pr._stdlib_kernel, pr._numpy_kernel], ids=["stdlib", "numpy"])
def test_chunks_cover_every_run_once_in_order(runs, chunk, kernel):
    drawn, reported = [], []
    tallies = [pr.run_protocol(recording(kernel, drawn), ENGINES[row % 3], 9, row, n, chunk,
                               lambda row, stop: reported.append((row, stop)))
               for row, n in enumerate(runs)]
    covered = {}
    for row, lo, hi in drawn:
        assert lo % chunk == 0 and lo < hi <= min(lo + chunk, runs[row])
        assert covered.setdefault(row, 0) == lo  # contiguous, in order
        covered[row] = hi
    assert covered == dict(enumerate(runs))
    assert [row for row, _, _ in drawn] == sorted(row for row, _, _ in drawn)
    assert reported == [(row, hi) for row, _, hi in drawn]
    # the chunk changes no tally: each row's is that of the row in one chunk
    assert tallies == [pr.run_protocol(kernel, ENGINES[row % 3], 9, row, n, n)
                       for row, n in enumerate(runs)]


# None: an os without sched_getaffinity; a range, not a set, reports 10^6
# CPUs without allocating them
@pytest.mark.parametrize("n_cpus", [1, 2, 3, 4, 64, 10**6, None])
@pytest.mark.parametrize("runs", [[50_000, 20_000, 40_000], [2**16] * 2],
                         ids=["stdlib-3-rows", "numpy-2-rows"])
def test_run_rows_draws_in_this_process_at_any_cpu_count(monkeypatch, runs, n_cpus):
    monkeypatch.setattr(os, "fork", no_fork)
    if n_cpus is None:
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    else:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: range(n_cpus), raising=False)
    reported = []
    tallies = [*pr.run_rows(ENGINES[:len(runs)], 4, runs,
                            lambda row, stop: reported.append((row, stop)))]
    chunk = chunk_of(runs)
    assert reported == [(row, min(stop, n)) for row, n in enumerate(runs)
                        for stop in range(chunk, n + chunk, chunk)]
    # either kernel, in any chunk, gives the same tally
    assert tallies == [pr.run_protocol(pr._stdlib_kernel, engine, 4, row, n, n)
                       for row, (engine, n) in enumerate(zip(ENGINES, runs))]
    assert_no_child()


def test_rejection_exits_2_before_any_draw(monkeypatch):
    def no_draw(*args):
        raise AssertionError("run_protocol called")

    monkeypatch.setattr(pr, "run_protocol", no_draw)
    monkeypatch.setattr(os, "fork", no_fork)
    assert main(["sweep", "--preset", "rb85-87", "--runs", "100000", "--sweep", "eta=0.5,2"]) == 2


@pytest.mark.parametrize("error, code", [(FloatingPointError, 4), (KeyboardInterrupt, None)])
def test_failure_in_a_chunk_stops_the_draw_there(tmp_path, capsys, monkeypatch, error, code):
    # sweep-3-rows fails in row 1's second chunk: row 2 is never drawn
    drawn, kernel = [], pr._stdlib_kernel

    def failing(engine, runs, chunk):
        tally = kernel(engine, runs, chunk)

        def checked(seed, row, lo, hi):
            drawn.append((row, lo))
            if (row, lo) == (1, chunk):
                raise error("in the runs")
            return tally(seed, row, lo, hi)

        return checked

    monkeypatch.setattr(pr, "_stdlib_kernel", failing)
    out = tmp_path / "out.json"
    argv = CASES["sweep-3-rows"][0] + ["--out", str(out)]
    if code is None:
        with pytest.raises(error):
            main(argv)
    else:
        assert main(argv) == code
        assert "numeric failure: in the runs" in capsys.readouterr().err
    chunk = pr._STDLIB_CHUNK
    assert drawn == [*((0, lo) for lo in range(0, 50_000, chunk)), (1, 0), (1, chunk)]
    assert not out.exists()
    assert_no_child()
