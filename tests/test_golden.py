"""Pinned output bytes of the CLI.

The sha256 below is the output of

    fmesim protocol --preset rb85-87 --runs 2000 --seed 1

as written by the per-run-object Monte Carlo loop that the array code replaced
(85484fac...), with the six configuration keys that changed no reported number
(tau_read, cycle_period, omega_rabi_read_I/II, g_read_I/II) stripped from its
config and provenance comment lines and its CSV columns; any change to the
random streams, the run loop or the float sums shows here.

The second sha256 pins the exact write engine, as written by its evolution on
the pair chain:

    fmesim sweep --preset rb85-87 --set engine=exact --runs 300 --sweep cutoff=2,3 --seed 1
"""

import hashlib

from fmesim.cli import main

GOLDEN_PROTOCOL_SHA256 = "267bfb174923a19bdc83a70ac539c50af097cf41b7d909ba541c6eabce7e0934"
GOLDEN_EXACT_SWEEP_SHA256 = "64968c0c9ba8c943045fee5dff9ef236bf6edaa30e0f420a160331563646d038"


def test_golden_protocol_bytes(tmp_path):
    out = tmp_path / "golden.csv"
    args = ["protocol", "--preset", "rb85-87", "--runs", "2000", "--seed", "1"]
    assert main(args + ["--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_PROTOCOL_SHA256


def test_golden_exact_sweep_bytes(tmp_path):
    out = tmp_path / "exact.csv"
    args = [
        "sweep", "--preset", "rb85-87", "--set", "engine=exact", "--runs", "300",
        "--sweep", "cutoff=2,3", "--seed", "1",
    ]
    assert main(args + ["--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_EXACT_SWEEP_SHA256


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
