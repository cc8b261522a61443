"""Pinned output bytes of the CLI.

The sha256 below is the output of

    fmesim protocol --preset rb85-87 --runs 2000 --seed 1

as written by the per-run-object Monte Carlo loop that the array code replaced; any
change to the random streams, the run loop or the float sums shows here.
"""

import hashlib

from fmesim.cli import main

GOLDEN_PROTOCOL_SHA256 = "85484fac4a8c495906a2c25427cda3bbc8f4cd3be3fd308832b74902b14473c1"


def test_golden_protocol_bytes(tmp_path):
    out = tmp_path / "golden.csv"
    args = ["protocol", "--preset", "rb85-87", "--runs", "2000", "--seed", "1"]
    assert main(args + ["--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_PROTOCOL_SHA256


def test_sweep_two_workers_match_one(tmp_path):
    # 8200 runs make two chunks per row, so the 2-worker run uses the pool
    args = [
        "sweep", "--preset", "rb85-87", "--format", "json", "--runs", "8200",
        "--seed", "3", "--sweep", "omega_rabi_write_II=1e7,2.5e7",
    ]
    blobs = []
    for workers in ("1", "2"):
        out = tmp_path / f"w{workers}.json"
        assert main(args + ["--workers", workers, "--out", str(out)]) == 0
        blobs.append(out.read_bytes())
    assert blobs[0] == blobs[1]
