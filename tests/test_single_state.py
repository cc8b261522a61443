"""Pinned numbers of the single-state subcommands.

tests/data/single_state_outputs.json holds the JSON that write-sim, herald
and retrieve printed for the rb85-87 preset with both write engines at
cutoffs 1, 2 and 32, and in the rotated-chain case (exact engine, cutoff 1,
tau_write 1e-4).  The perturbative records were computed on the full
three-mode amplitude grid; the exact records were taken again from the
closed-form two-mode squeezed vacuum, whose weight above the cutoff the
herald output lists as two tail branches.  Grid
amplitudes are stored sparsely as [flat index, re, im] for the nonzero
entries, with the grid's length, which must stay (cutoff+1)^3 (35,937 pairs
at cutoff 32).  Every number must stay within 4 ulp of
its pin (amplitudes within 1e-15 absolute); everything else is exact.
"""

import contextlib
import io
import json
import pathlib
import warnings

import numpy as np
import pytest

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


def assert_grid(new, pinned):
    assert new["cutoff"] == pinned["cutoff"]
    assert len(new["amplitudes"]) == pinned["size"] == (pinned["cutoff"] + 1) ** 3
    amps = np.array([complex(re, im) for re, im in new["amplitudes"]])
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
        assert_grid(new, pinned)
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
    assert_pinned(run(record["argv"]), record["output"])
