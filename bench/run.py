#!/usr/bin/env python3
"""fmesim benchmark.

Usage (from the repository root):

    python3 bench/run.py --workload rb-protocol --seed 1 --seconds 30 --trace 0

Workloads, seeds and the metric documentation live in bench/spec.json.

With --trace 0 the workload's fmesim CLI command runs untraced in a
subprocess, again and again for --seconds, and the end-to-end metrics are
medians over those invocations (setup_s: median over fresh interpreters).
With --trace 1 the same command runs in this process through cli.main,
untraced and then traced in pairs for --seconds, and the per-layer metrics
are medians over the traced passes.

Every output passes the correctness gate (exit code, finite numbers, Monte
Carlo vs analytic within z_max standard errors, bytes equal to the first
output of the run).  The last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics; the lines before it name each
metric with its unit, and a JSON record of the run (reproducibility record,
samples, and for --trace 1 the spans of the last traced pass) is written
to .bench_out/ at the repository root.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import io
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
import traceback

import gate
import layers

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
CLI_TIMEOUT_S = 150.0

# One BLAS thread in every measured process, this one included (set before
# numpy is imported).  With two BLAS threads on a shared 2-core machine,
# load from other tenants stalled the exact engine for minutes at a time
# (6.2 s to 11.3 s wall); with one thread the CLI's --workers is the only
# parallelism, and the BLAS thread count is in every record.
os.environ.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"})

# Run in a fresh interpreter to time set-up: import the CLI, parse the
# workload's arguments and resolve its config.  Prints the package version.
SETUP_CODE = """\
import sys
import fmesim
from fmesim import cli
cli._load(cli.build_parser().parse_args(sys.argv[1:]))
print(fmesim.__version__)
"""


def load_spec() -> dict:
    with open(os.path.join(BENCH_DIR, "spec.json"), encoding="utf-8") as fh:
        return json.load(fh)


def load_benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


# ---------------------------------------------------------------------------
# Subprocess runs
# ---------------------------------------------------------------------------


def _kill_group(pid: int) -> None:
    with contextlib.suppress(ProcessLookupError, PermissionError):
        os.killpg(pid, signal.SIGKILL)


def run_process(cmd: list[str], out_path: str) -> dict:
    """Run cmd with stdout to out_path; wall time and wait4 resource usage.

    The child leads its own process group, so a timeout kills its pool
    workers too.  wait4 reports CPU of the child plus every descendant it
    reaped, and the largest resident set among them.
    """
    with open(out_path, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(
            cmd, stdout=out, stderr=subprocess.DEVNULL, env=_env(), cwd=ROOT,
            start_new_session=True,
        )
        timer = threading.Timer(CLI_TIMEOUT_S, _kill_group, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            _kill_group(proc.pid)
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, "rb") as fh:
        data = fh.read()
    return {
        "returncode": proc.returncode,
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "output": data,
    }


def run_cli(argv: list[str], out_path: str) -> dict:
    return run_process([sys.executable, "-m", "fmesim", *argv], out_path)


def with_seed(argv: list[str], seed: int) -> list[str]:
    return [*argv, "--seed", str(seed)]


def with_workers(argv: list[str], workers: int) -> list[str]:
    out = list(argv)
    out[out.index("--workers") + 1] = str(workers)
    return out


class Checker:
    """Applies the correctness gate and counts attempted and failed outputs."""

    def __init__(self, z_max: float):
        self.z_max = z_max
        self.attempted = 0
        self.failed = 0
        self.first_sha: str | None = None
        self.problems: list[str] = []

    def check(self, label: str, returncode: int, output: bytes) -> str:
        self.attempted += 1
        sha = hashlib.sha256(output).hexdigest()
        problems = []
        if returncode != 0:
            problems.append(f"exit code {returncode}")
        else:
            problems += gate.check_output(output.decode("utf-8", "replace"), self.z_max)
        if self.first_sha is None:
            self.first_sha = sha
        elif sha != self.first_sha:
            problems.append("output sha256 differs from the first output at this seed")
        if problems:
            self.failed += 1
            self.problems += [f"{label}: {p}" for p in problems]
        return sha


# ---------------------------------------------------------------------------
# End-to-end measurement (--trace 0)
# ---------------------------------------------------------------------------


def probe_setup(argv: list[str], out_path: str) -> tuple[float, str]:
    """Wall seconds of one fresh set-up interpreter, and the fmesim version it printed."""
    res = run_process([sys.executable, "-c", SETUP_CODE, *argv], out_path)
    if res["returncode"] != 0:
        raise RuntimeError(f"set-up probe failed with exit code {res['returncode']}")
    return res["wall_s"], res["output"].decode().strip()


def measure_end_to_end(workload: dict, seed: int, seconds: float, checker: Checker,
                       setup_probes: int) -> dict:
    """CLI invocations until --seconds is spent, each after setup_probes set-up probes.

    Interleaving the probes with the invocations samples set-up time over the
    whole run, not in one burst, on a machine whose speed drifts.
    """
    argv = with_seed(workload["argv"], seed)
    out_path = os.path.join(OUT_DIR, "cli.out")
    samples: list[dict] = []
    setup_walls: list[float] = []
    start = time.perf_counter()
    while True:
        for _ in range(setup_probes):
            wall, version = probe_setup(argv, out_path)
            setup_walls.append(wall)
        res = run_cli(argv, out_path)
        res["sha256"] = checker.check(f"invocation {len(samples) + 1}", res["returncode"],
                                      res.pop("output"))
        samples.append(res)
        elapsed = time.perf_counter() - start
        if len(samples) >= 2 and elapsed + elapsed / len(samples) > seconds:
            break
    metrics = {
        key: statistics.median(s[key] for s in samples)
        for key in ("wall_s", "cpu_s", "peak_rss_mb")
    }
    metrics["setup_s"] = statistics.median(setup_walls)
    return {
        "metrics": metrics,
        "samples": samples,
        "setup_samples_s": setup_walls,
        "fmesim_version": version,
        "output_sha256": checker.first_sha,
    }


# ---------------------------------------------------------------------------
# Traced in-process measurement (--trace 1)
# ---------------------------------------------------------------------------


def _import_fmesim():
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import fmesim
    from fmesim import cli

    return fmesim, cli


def _cli_pass(cli, argv: list[str], tracer: layers.Tracer | None) -> tuple[int, bytes, float]:
    """One in-process cli.main pass: exit code, stdout bytes, wall seconds."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a traceback is a failed invocation, as in a subprocess
            traceback.print_exc(file=sys.__stderr__)
            code = 1
        wall = time.perf_counter() - start
    return code, out.getvalue().encode("utf-8"), wall


def measure_layers(workload: dict, seed: int, seconds: float, checker: Checker,
                   wanted: dict, targets: dict) -> dict:
    fmesim, cli = _import_fmesim()
    argv = with_seed(workload["argv"], seed)
    trace_argv = argv
    record: dict = {"fmesim_version": fmesim.__version__}
    workers = 1 if "--workers" in argv and int(argv[argv.index("--workers") + 1]) > 1 else None
    if workers is not None:
        # Spans recorded in forked pool workers would be lost, so the traced
        # pass runs at 1 worker, with the in-worker layers in this process.
        # The untraced subprocess at the workload's own worker count must
        # give the same bytes: the CLI promises that --workers never changes
        # the output.
        trace_argv = with_workers(argv, workers)
        res = run_cli(argv, os.path.join(OUT_DIR, "cli.out"))
        record["cross_check_sha256"] = checker.check(
            "untraced subprocess", res["returncode"], res["output"])
        record["in_worker_layers"] = (
            f"from a {workers}-worker traced pass in this process; the untraced "
            f"runs use the workload's worker count and must match it byte for byte"
        )
    else:
        record["in_worker_layers"] = "in this process (the workload runs with 1 worker)"

    # Warm-up at the smoke size: imports, BLAS and allocator state,
    # so the first untraced pass is not charged for them.  Not gated.
    smoke_argv = with_seed(workload["smoke_argv"], seed)
    _cli_pass(cli, with_workers(smoke_argv, workers) if workers else smoke_argv, None)

    passes: list[dict] = []
    tracer = None
    start = time.perf_counter()
    while True:
        code, out, plain_wall = _cli_pass(cli, trace_argv, None)
        checker.check(f"untraced pass {len(passes) + 1}", code, out)
        tracer = layers.Tracer()
        tracer.install(targets["functions"], targets["methods"], targets["leaves"])
        try:
            code, out, traced_wall = _cli_pass(cli, trace_argv, tracer)
        finally:
            tracer.uninstall()
        checker.check(f"traced pass {len(passes) + 1}", code, out)
        try:
            trials_used = int(sum(row["n_trials"] for row in gate.parse_rows(out.decode())))
        except (ValueError, KeyError, TypeError):
            trials_used = 0
        metrics = layers.layer_metrics(tracer, trials_used, len(out))
        metrics["bench.trace_overhead_s"] = traced_wall - plain_wall
        passes.append(metrics)
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(passes) > seconds:
            break

    metrics = {name: statistics.median(p.get(name, 0.0) for p in passes) for name in wanted}
    record.update({
        "passes": len(passes),
        "output_sha256": checker.first_sha,
        "missing_trace_targets": tracer.missing,
        "counts": dict(tracer.counts),
        "span_columns": ["name", "start_s", "end_s", "parent"],
        "spans_last_pass": tracer.spans,
        "leaf_totals_last_pass": {k: {"calls": c, "seconds": t}
                                  for k, (c, t) in tracer.leaf_totals.items()},
        "per_pass_metrics": passes,
    })
    return {"metrics": metrics, **record}


# ---------------------------------------------------------------------------
# Reproducibility record
# ---------------------------------------------------------------------------


def _blas_threads() -> int | None:
    """Thread count of the loaded OpenBLAS, when it can be asked."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return res.stdout.strip() if res.returncode == 0 else None


def _source_sha256() -> str:
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "fmesim")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def reproducibility_record(seed: int) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": _blas_threads(),
        "blas_thread_env": {
            key: os.environ.get(key)
            for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "git_commit": _git_commit(),
        "source_sha256": _source_sha256(),
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def benchmark_metrics() -> dict:
    bench = load_benchmark()
    return {
        "end_to_end": {m["name"]: m["unit"] for m in bench["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in bench["per_layer"]},
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool = False) -> dict:
    """Measure one workload; returns the result line and the full record."""
    spec = load_spec()
    workload = dict(spec["workloads"][name])
    if smoke:
        workload["argv"] = workload["smoke_argv"]
    wanted = benchmark_metrics()["per_layer" if trace else "end_to_end"]
    os.makedirs(OUT_DIR, exist_ok=True)
    checker = Checker(spec["z_max"])
    if trace:
        detail = measure_layers(workload, seed, seconds, checker, wanted,
                                spec["traced_functions"])
    else:
        detail = measure_end_to_end(workload, seed, seconds, checker,
                                    spec["setup_probes_per_invocation"])
    metrics = {
        key: {"value": float(detail["metrics"][key]), "unit": wanted[key]} for key in wanted
    }
    result = {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": metrics,
    }
    record = {
        "workload": name,
        "argv": workload["argv"],
        "seconds": seconds,
        "trace": trace,
        "reproducibility": reproducibility_record(seed),
        "fail_frac": checker.failed / checker.attempted,
        "problems": checker.problems,
        "result": result,
        **{k: v for k, v in detail.items() if k != "metrics"},
    }
    path = os.path.join(OUT_DIR, f"{name}-seed{seed}-trace{int(trace)}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    record["path"] = path
    return record


def main(argv=None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(spec["workloads"]))
    parser.add_argument("--seed", type=int, default=spec["seeds"]["default"])
    parser.add_argument("--seconds", type=float, default=load_benchmark()["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "fmesim", "cli.py")):
        print(f"error: no fmesim sources under {SRC}", file=sys.stderr)
        return 2

    record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    result = record["result"]
    repro = record["reproducibility"]
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print(f"fmesim {record['fmesim_version']} source {repro['source_sha256'][:16]} "
          f"commit {repro['git_commit']} nproc {repro['nproc']} python {repro['python']} "
          f"numpy {repro['numpy']} blas {repro['blas']} threads {repro['blas_threads']}")
    print(f"output_sha256 {record['output_sha256']}")
    if not args.trace:
        print(f"samples {len(record['samples'])} invocations, "
              f"{len(record['setup_samples_s'])} set-up probes (medians reported)")
    else:
        print(f"passes {record['passes']}; in-worker layers {record['in_worker_layers']}")
    print(f"fail_frac {record['fail_frac']:.4g} ({result['failed']}/{result['attempted']})")
    for problem in record["problems"]:
        print(f"FAIL {problem}")
    for key, metric in result["metrics"].items():
        print(f"{key} {metric['value']:.6g} {metric['unit']}")
    print(f"record {os.path.relpath(record['path'], ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
