#!/usr/bin/env python3
"""Smoke test of the benchmark harness.

    python3 bench/selftest.py

Runs every workload at its smoke size (bench/spec.json) through the same
run_workload path as the benchmark, once untraced and once traced, and
checks that every metric named in BENCHMARK.json is emitted with its unit
and that the outputs pass the correctness gate.  Then it corrupts outputs
on purpose and checks that the gate trips, and checks that the benchmark
refuses to run where there are no fmesim sources.  Exits 1 on the first
failed check; takes well under a minute.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import shutil
import subprocess
import sys

import gate
import run


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise AssertionError(message)


def check_metrics() -> dict[str, bytes]:
    names = run.benchmark_metrics()
    seed = run.load_spec()["seeds"]["default"]
    outputs = {}
    for workload in run.load_spec()["workloads"]:
        for trace in (False, True):
            record = run.run_workload(workload, seed, 0.0, trace, smoke=True)
            result = record["result"]
            label = f"{workload} trace={int(trace)}"
            expect(result["correct"] and result["failed"] == 0,
                   f"{label}: gate failed: {record['problems']}")
            expect(result["attempted"] >= 2, f"{label}: fewer than two outputs checked")
            wanted = names["per_layer" if trace else "end_to_end"]
            expect(set(result["metrics"]) == set(wanted),
                   f"{label}: metrics differ from BENCHMARK.json: "
                   f"{sorted(set(result['metrics']) ^ set(wanted))}")
            for name, metric in result["metrics"].items():
                expect(metric["unit"] == wanted[name], f"{label}: {name} has unit {metric['unit']}")
                expect(math.isfinite(metric["value"]), f"{label}: {name} is not finite")
            print(f"PASS {label}: {len(wanted)} metrics with units, "
                  f"{result['attempted']} outputs gated")
        argv = run.with_seed(run.load_spec()["workloads"][workload]["smoke_argv"], seed)
        res = run.run_cli(argv, os.path.join(run.OUT_DIR, "cli.out"))
        expect(res["returncode"] == 0, f"{workload}: smoke CLI exit {res['returncode']}")
        outputs[workload] = res["output"]
    return outputs


def _corrupt_csv(text: str, column: str, value: str) -> str:
    comments = [line for line in text.splitlines() if line.startswith("#")]
    table = list(csv.reader(line for line in text.splitlines() if not line.startswith("#")))
    table[1][table[0].index(column)] = value
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(table)
    return "\n".join(comments) + "\n" + buf.getvalue()


def _corrupt_json(text: str, column: str, value) -> str:
    payload = json.loads(text)
    payload["results"][0][column] = value
    return json.dumps(payload)


def check_gate_trips(outputs: dict[str, bytes]) -> None:
    z_max = run.load_spec()["z_max"]
    csv_text = outputs["rb-protocol"].decode()
    json_text = outputs["drive-grid"].decode()
    expect(not gate.check_output(csv_text, z_max), "clean CSV output fails the gate")
    expect(not gate.check_output(json_text, z_max), "clean JSON output fails the gate")
    row = gate.parse_rows(csv_text)[0]
    far = repr(row["p_click_analytic"] + 50 * row["p_click_stderr"])
    corrupted = {
        "CSV p_click 50 standard errors off": _corrupt_csv(csv_text, "p_click", far),
        "CSV false_herald_fraction 1.0": _corrupt_csv(csv_text, "false_herald_fraction", "1.0"),
        "CSV mean_concurrence nan": _corrupt_csv(csv_text, "mean_concurrence", "nan"),
        "JSON mean_fidelity_bell null": _corrupt_json(json_text, "mean_fidelity_bell", None),
        "JSON p_click inf": _corrupt_json(json_text, "p_click", math.inf),
        "JSON truncated": json_text[: len(json_text) // 2],
    }
    for label, text in corrupted.items():
        expect(gate.check_output(text, z_max), f"gate passed a corrupted output ({label})")
        print(f"PASS gate trips: {label}")

    checker = run.Checker(z_max)
    clean = outputs["rb-protocol"]
    checker.check("first", 0, clean)
    checker.check("same bytes", 0, clean)
    expect(checker.failed == 0, "identical repeat counted as a failure")
    checker.check("changed bytes", 0, clean.replace(b"# seed", b"# Seed"))
    checker.check("exit code 4", 4, clean)
    expect(checker.failed == 2 and checker.attempted == 4,
           f"checker counted {checker.failed}/{checker.attempted}, expected 2/4")
    print("PASS checker counts a changed sha256 and a non-zero exit as failures")


def check_refuses_without_sources() -> None:
    bare = os.path.join(run.OUT_DIR, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.BENCH_DIR, os.path.join(bare, "bench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
    try:
        res = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "rb-protocol", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    expect(res.returncode == 2, f"benchmark exited {res.returncode} without fmesim sources, "
                                f"expected 2; stderr: {res.stderr.strip()[-300:]}")
    expect("no fmesim sources" in res.stderr, "refusal message missing from stderr")
    expect('"correct"' not in res.stdout, "benchmark printed a result without fmesim sources")
    print(f"PASS refuses to run without sources (exit {res.returncode})")


def main() -> int:
    try:
        outputs = check_metrics()
        check_gate_trips(outputs)
        check_refuses_without_sources()
    except AssertionError as exc:
        print(f"FAIL {exc}")
        return 1
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
