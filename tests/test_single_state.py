"""Pinned numbers of the single-state subcommands.

tests/data/single_state_outputs.json holds the JSON that write-sim, herald
and retrieve printed for the rb85-87 preset with both write engines at
cutoffs 1, 2 and 32, and in the rotated-chain case (exact engine, cutoff 1,
tau_write 1e-4).  The perturbative records were computed on the full
three-mode amplitude grid; the exact records were taken again from the
closed-form two-mode squeezed vacuum, whose weight above the cutoff the
herald output lists as two tail branches, and whose mean occupations
include that weight.  The pins keep the three-mode grids that write-sim and
herald printed before they printed the pair shell: stored sparsely as
[flat index, re, im] for the nonzero entries, with the grid's length
(cutoff+1)^3.  The printed chain, bright mode and heralded spin amplitudes
are expanded onto that grid here (hilbert.pair_shell_state) and must match
it within 1e-15 absolute, as must the output amplitudes c1 and c2; every
other number must stay within 4 ulp of its pin, and everything else is
exact.  The embedded config and provenance lost their omega_out_I/II entries
when the output rails became -/+ delta_omega_read; no other pin moved.
"""

import contextlib
import io
import json
import pathlib
import warnings

import numpy as np
import pytest

import hilbert as hb
from fmesim.cli import main

PINS = json.loads(
    (pathlib.Path(__file__).parent / "data" / "single_state_outputs.json").read_text()
)
GRIDS = ("write_state", "conditional_state_single_photon")
AMPLITUDES = ("c1", "c2")


def run(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert main(argv) == 0
    return json.loads(buf.getvalue())


def expand(key, new, cutoff):
    """The flat three-mode grid of a printed write state (chain and bright
    mode) or heralded spin state (the photon absorbed: spin I on (0, 1, 0),
    spin II on (0, 0, 1))."""
    if key == "write_state":
        assert sorted(new) == ["chain", "cutoff", "tail_ratio", "u_I", "u_II"]
        assert new["cutoff"] == cutoff and len(new["chain"]) == cutoff + 1
        chain = [complex(re, im) for re, im in new["chain"]]
        u_i, u_ii = complex(*new["u_I"]), complex(*new["u_II"])
        return hb.pair_shell_state(chain, u_i, u_ii).amplitudes
    assert sorted(new) == ["spin_I", "spin_II"]
    spins = np.zeros((cutoff + 1,) * 3, dtype=complex)
    spins[0, 1, 0], spins[0, 0, 1] = complex(*new["spin_I"]), complex(*new["spin_II"])
    return spins.reshape(-1)


def assert_grid(key, new, pinned):
    amps = expand(key, new, pinned["cutoff"])
    assert amps.size == pinned["size"] == (pinned["cutoff"] + 1) ** 3
    expected = np.zeros(pinned["size"], dtype=complex)
    for i, re, im in pinned["nonzero"]:
        expected[i] = complex(re, im)
    assert np.max(np.abs(amps.real - expected.real)) <= 1e-15
    assert np.max(np.abs(amps.imag - expected.imag)) <= 1e-15


def assert_pinned(new, pinned, key=""):
    if key == "branches":
        for a, b in zip(new, pinned, strict=True):
            assert sorted(a) == sorted(b)
            assert (a["kind"], a["n_photons"]) == (b["kind"], b["n_photons"])
            assert abs(a["probability"] - b["probability"]) <= 4 * np.spacing(
                b["probability"]
            )
    elif key in GRIDS and pinned is not None:
        assert_grid(key, new, pinned)
    elif isinstance(pinned, dict):
        assert sorted(new) == sorted(pinned), key
        for k in pinned:
            assert_pinned(new[k], pinned[k], k)
    elif isinstance(pinned, list):
        assert len(new) == len(pinned), key
        for a, b in zip(new, pinned):
            assert_pinned(a, b, key)
    elif isinstance(pinned, float):
        assert isinstance(new, float), key
        if key in AMPLITUDES:
            assert abs(new - pinned) <= 1e-15, key
        else:
            assert abs(new - pinned) <= 4 * np.spacing(max(abs(new), abs(pinned))), key
    else:
        assert new == pinned, key


@pytest.mark.parametrize("record", PINS, ids=[" ".join(r["argv"]) for r in PINS])
def test_single_state_output_matches_pin(record):
    new = run(record["argv"])
    assert_pinned(new, record["output"])
    if "write_state" in new:  # the chain's ratio: tanh^2 r on the exact route, no tail otherwise
        c_0, c_1 = (complex(*c) for c in new["write_state"]["chain"][:2])
        lam = abs(c_1 / c_0) ** 2 if new["engine"] == "exact" else 0.0
        assert new["write_state"]["tail_ratio"] == pytest.approx(lam, rel=1e-14, abs=0)


@pytest.mark.parametrize("engine", ["perturbative", "exact"])
def test_single_state_output_size_is_linear_in_cutoff(engine):
    # at the cutoff bound: 33 chain pairs and two spin amplitudes, not the
    # 35,937-pair three-mode grid (1.5 MB per file)
    argv = ["--preset", "rb85-87", "--set", "cutoff=32", "--set", f"engine={engine}"]
    write, herald = run(["write-sim", *argv]), run(["herald", *argv])
    assert len(write["write_state"]["chain"]) == 33
    assert len(herald["conditional_state_single_photon"]) == 2
    for data in (write, herald, run(["retrieve", *argv])):
        assert len(json.dumps(data, indent=2)) < 16 * 1024
